//! Traced table reproductions: the machinery behind `repro --trace` and
//! `repro --json`.
//!
//! Each traced sweep is the exact experiment from [`crate::tables`] — the
//! same drivers, the same per-trial seed transforms — run through the
//! engine's observer seam with a
//! [`TraceObserver`] and an [`InvariantObserver`]
//! composed onto every trial. Observers never touch the RNG, so the table
//! rows a traced sweep returns are byte-identical to the plain sweep's.
//!
//! Per table the artifacts are:
//!
//! * `<name>.jsonl` — per-trial run traces (cycle snapshots), concatenated
//!   in `(k | distribution, trial)` order. Every line carries `experiment`
//!   and `trial` labels, so the file is grep-able and diff-able. No field
//!   is wall-clock derived: the bytes are identical at any
//!   `EPIDEMIC_THREADS` value (the [`TrialRunner`] hands per-trial results
//!   back in trial order).
//! * `<name>.summary.json` — the aggregated table rows plus the invariant
//!   tally and trace line count.
//! * `<name>.rows.json` — just the machine-readable table rows
//!   (`repro --json`).

use epidemic_core::{Direction, Feedback, Removal, RumorConfig};
use epidemic_net::topologies::{cin, Cin, CinConfig};
use epidemic_net::Routes;
use epidemic_sim::engine::trace::{AggregateObserver, InvariantObserver, TraceObserver};
use epidemic_sim::mixing::{MixingArena, RumorEpidemic};
use epidemic_sim::runner::TrialRunner;
use epidemic_trace::json::{array_of, JsonObject};
use epidemic_trace::{RunAggregate, RunTracer, TraceConfig};

use crate::parallel_trials_with;
use crate::tables::{
    render_mixing, render_spatial, table45_distributions, table45_sim, MixRow, SpatialRow,
    PAPER_TABLE1, PAPER_TABLE2, PAPER_TABLE3, TITLE_TABLE1, TITLE_TABLE2, TITLE_TABLE3,
    TITLE_TABLE4, TITLE_TABLE5,
};

/// One labelled streaming aggregate inside a `.agg.json` artifact: which
/// sub-configuration of the experiment it covers (`params`), the scalar
/// observations the rendered table reports for that configuration
/// (`observed` — what the analytics report lines up against the
/// closed-form predictions), and the full [`RunAggregate`].
#[derive(Debug, Clone, PartialEq)]
pub struct AggEntry {
    /// Human-readable entry label (e.g. `k=2`, `uniform`, `n=10000 flat`).
    pub label: String,
    /// Sweep parameters as `(name, value)` strings.
    pub params: Vec<(String, String)>,
    /// Scalar observations for this configuration (table-row values).
    pub observed: Vec<(String, f64)>,
    /// The streaming aggregate folded over every trial, in trial order.
    pub agg: RunAggregate,
}

impl AggEntry {
    /// Serializes the entry as one JSON object.
    pub fn to_json(&self) -> String {
        let mut params = JsonObject::new();
        for (name, value) in &self.params {
            params.field_str(name, value);
        }
        let mut observed = JsonObject::new();
        for (name, value) in &self.observed {
            observed.field_f64(name, *value);
        }
        let mut o = JsonObject::new();
        o.field_str("label", &self.label)
            .field_raw("params", &params.finish())
            .field_raw("observed", &observed.finish())
            .field_raw("aggregate", &self.agg.to_json());
        o.finish()
    }
}

/// The `<name>.agg.json` document for one experiment: every streaming
/// aggregate the run produced, in sweep order. Deterministic and free of
/// wall-clock fields, so the bytes are identical at any
/// `EPIDEMIC_THREADS` (see DESIGN.md §Run analytics).
pub fn agg_json(experiment: &str, kind: &str, entries: &[AggEntry]) -> String {
    let mut o = JsonObject::new();
    o.field_str("experiment", experiment)
        .field_str("kind", kind)
        .field_raw(
            "aggregates",
            &array_of(entries.iter().map(AggEntry::to_json)),
        );
    o.finish()
}

/// The JSONL trace, invariant tally and streaming aggregates accumulated
/// over one table sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct TableTrace {
    /// Per-trial run traces concatenated in deterministic order.
    pub jsonl: String,
    /// Total invariant violations recorded across all trials (0 on a
    /// healthy sweep).
    pub violations: u64,
    /// One streaming aggregate per swept configuration (per `k` for the
    /// mixing tables, per spatial distribution for Tables 4–5).
    pub aggregates: Vec<AggEntry>,
}

/// As [`crate::tables::mixing_sweep_with`], with a cycle-granularity
/// tracer and an invariant checker observing every trial. Identical rows,
/// plus the trace.
pub fn traced_mixing_sweep(
    runner: TrialRunner,
    experiment: &str,
    n: usize,
    trials: u64,
    ks: &[u32],
    make: impl Fn(u32) -> RumorEpidemic + Sync,
) -> (Vec<MixRow>, TableTrace) {
    let mut jsonl = String::new();
    let mut violations = 0u64;
    let mut aggregates = Vec::new();
    let rows = ks
        .iter()
        .map(|&k| {
            let driver = make(k);
            let (acc, text, viols, agg) = runner.fold_with(
                trials,
                0,
                MixingArena::new,
                |arena, trial| {
                    let seed = trial.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ u64::from(k);
                    let tracer = RunTracer::new(TraceConfig::cycles_only())
                        .label_str("experiment", experiment)
                        .label_u64("k", u64::from(k))
                        .label_u64("trial", trial);
                    let mut trace = TraceObserver::with_tracer(tracer);
                    let mut check = InvariantObserver::new();
                    let mut sink = AggregateObserver::new();
                    let r = driver.run_in(arena, n, seed, &mut (&mut trace, &mut check, &mut sink));
                    (
                        (r.residue, r.traffic, r.t_ave, r.t_last),
                        trace.finish(),
                        check.violations().len() as u64,
                        sink.finish(),
                    )
                },
                (
                    (0.0, 0.0, 0.0, 0.0),
                    String::new(),
                    0u64,
                    RunAggregate::new(),
                ),
                |(acc, mut text, viols, mut agg), (r, t, v, a)| {
                    text.push_str(&t);
                    agg.merge(&a);
                    (
                        (acc.0 + r.0, acc.1 + r.1, acc.2 + r.2, acc.3 + r.3),
                        text,
                        viols + v,
                        agg,
                    )
                },
            );
            jsonl.push_str(&text);
            violations += viols;
            let t = trials as f64;
            let row = MixRow {
                k,
                residue: acc.0 / t,
                traffic: acc.1 / t,
                t_ave: acc.2 / t,
                t_last: acc.3 / t,
            };
            aggregates.push(AggEntry {
                label: format!("k={k}"),
                params: vec![
                    ("n".to_string(), n.to_string()),
                    ("trials".to_string(), trials.to_string()),
                    ("k".to_string(), k.to_string()),
                ],
                observed: vec![
                    ("residue".to_string(), row.residue),
                    ("traffic".to_string(), row.traffic),
                    ("t_ave".to_string(), row.t_ave),
                    ("t_last".to_string(), row.t_last),
                ],
                agg,
            });
            row
        })
        .collect();
    (
        rows,
        TableTrace {
            jsonl,
            violations,
            aggregates,
        },
    )
}

/// Traced Table 1 (push, feedback, counter) — same rows as
/// [`crate::tables::table1`].
pub fn traced_table1(runner: TrialRunner, n: usize, trials: u64) -> (Vec<MixRow>, TableTrace) {
    traced_mixing_sweep(runner, "table1", n, trials, &[1, 2, 3, 4, 5], |k| {
        RumorEpidemic::new(
            RumorConfig::new(Direction::Push, Feedback::Feedback, Removal::Counter { k })
                .with_reset_on_useful(true),
        )
    })
}

/// Traced Table 2 (push, blind, coin).
pub fn traced_table2(runner: TrialRunner, n: usize, trials: u64) -> (Vec<MixRow>, TableTrace) {
    traced_mixing_sweep(runner, "table2", n, trials, &[1, 2, 3, 4, 5], |k| {
        RumorEpidemic::new(RumorConfig::new(
            Direction::Push,
            Feedback::Blind,
            Removal::Coin { k },
        ))
    })
}

/// Traced Table 3 (pull, feedback, counter with footnote semantics).
pub fn traced_table3(runner: TrialRunner, n: usize, trials: u64) -> (Vec<MixRow>, TableTrace) {
    traced_mixing_sweep(runner, "table3", n, trials, &[1, 2, 3], |k| {
        RumorEpidemic::new(RumorConfig::new(
            Direction::Pull,
            Feedback::Feedback,
            Removal::Counter { k },
        ))
    })
}

/// As [`crate::tables::table45_on_with`], traced. Identical rows, plus the
/// trace; every line carries the spatial-distribution label.
pub fn traced_table45_on(
    runner: TrialRunner,
    net: &Cin,
    trials: u64,
    connection_limit: Option<u32>,
    experiment: &str,
) -> (Vec<SpatialRow>, TableTrace) {
    let mut jsonl = String::new();
    let mut violations = 0u64;
    let mut aggregates = Vec::new();
    let routes = Routes::compute(&net.topology);
    let rows = table45_distributions()
        .into_iter()
        .map(|(label, spatial)| {
            let sim = table45_sim(net, &routes, spatial, connection_limit);
            let (acc, text, viols, agg) = parallel_trials_with(
                runner,
                trials,
                |trial| {
                    let seed = trial.wrapping_mul(0x2545_F491_4F6C_DD1D) + 1;
                    let tracer = RunTracer::new(TraceConfig::cycles_only())
                        .label_str("experiment", experiment)
                        .label_str("distribution", &label)
                        .label_u64("trial", trial);
                    let mut trace = TraceObserver::with_tracer(tracer);
                    let mut check = InvariantObserver::new();
                    let mut sink = AggregateObserver::new();
                    let r = sim.run_observed(seed, None, &mut (&mut trace, &mut check, &mut sink));
                    let cycles = f64::from(r.cycles.max(1));
                    (
                        [
                            f64::from(r.t_last),
                            r.t_ave,
                            r.compare_traffic.mean_per_link() / cycles,
                            r.compare_traffic.at(net.bushey_link) as f64 / cycles,
                            r.update_traffic.mean_per_link(),
                            r.update_traffic.at(net.bushey_link) as f64,
                        ],
                        trace.finish(),
                        check.violations().len() as u64,
                        sink.finish(),
                    )
                },
                ([0.0f64; 6], String::new(), 0u64, RunAggregate::new()),
                |(mut acc, mut text, viols, mut agg), (r, t, v, trial_agg)| {
                    for (a, x) in acc.iter_mut().zip(r) {
                        *a += x;
                    }
                    text.push_str(&t);
                    agg.merge(&trial_agg);
                    (acc, text, viols + v, agg)
                },
            );
            jsonl.push_str(&text);
            violations += viols;
            let t = trials as f64;
            let row = SpatialRow {
                label,
                t_last: acc[0] / t,
                t_ave: acc[1] / t,
                cmp_avg: acc[2] / t,
                cmp_bushey: acc[3] / t,
                upd_avg: acc[4] / t,
                upd_bushey: acc[5] / t,
            };
            aggregates.push(AggEntry {
                label: row.label.clone(),
                params: vec![
                    ("trials".to_string(), trials.to_string()),
                    ("distribution".to_string(), row.label.clone()),
                    (
                        "connection_limit".to_string(),
                        connection_limit.map_or("none".to_string(), |l| l.to_string()),
                    ),
                ],
                observed: vec![
                    ("t_last".to_string(), row.t_last),
                    ("t_ave".to_string(), row.t_ave),
                    ("cmp_avg".to_string(), row.cmp_avg),
                    ("cmp_bushey".to_string(), row.cmp_bushey),
                ],
                agg,
            });
            row
        })
        .collect();
    (
        rows,
        TableTrace {
            jsonl,
            violations,
            aggregates,
        },
    )
}

fn mix_row_json(r: &MixRow) -> String {
    let mut o = JsonObject::new();
    o.field_u64("k", u64::from(r.k))
        .field_f64("residue", r.residue)
        .field_f64("traffic", r.traffic)
        .field_f64("t_ave", r.t_ave)
        .field_f64("t_last", r.t_last);
    o.finish()
}

fn spatial_row_json(r: &SpatialRow) -> String {
    let mut o = JsonObject::new();
    o.field_str("distribution", &r.label)
        .field_f64("t_last", r.t_last)
        .field_f64("t_ave", r.t_ave)
        .field_f64("cmp_avg", r.cmp_avg)
        .field_f64("cmp_bushey", r.cmp_bushey)
        .field_f64("upd_avg", r.upd_avg)
        .field_f64("upd_bushey", r.upd_bushey);
    o.finish()
}

/// Machine-readable rows for a mixing table (`repro --json`).
pub fn mixing_rows_json(experiment: &str, n: usize, trials: u64, rows: &[MixRow]) -> String {
    let mut o = JsonObject::new();
    o.field_str("experiment", experiment)
        .field_u64("n", n as u64)
        .field_u64("trials", trials)
        .field_raw("rows", &array_of(rows.iter().map(mix_row_json)));
    o.finish()
}

/// Machine-readable rows for a spatial table (`repro --json`).
pub fn spatial_rows_json(
    experiment: &str,
    trials: u64,
    connection_limit: Option<u32>,
    rows: &[SpatialRow],
) -> String {
    let mut o = JsonObject::new();
    o.field_str("experiment", experiment)
        .field_u64("trials", trials);
    match connection_limit {
        Some(limit) => o.field_u64("connection_limit", u64::from(limit)),
        None => o.field_raw("connection_limit", "null"),
    };
    o.field_raw("rows", &array_of(rows.iter().map(spatial_row_json)));
    o.finish()
}

fn summary_json(rows_json: &str, trace: &TableTrace) -> String {
    let mut o = JsonObject::new();
    o.field_raw("table", rows_json)
        .field_u64("invariant_violations", trace.violations)
        .field_u64("trace_lines", trace.jsonl.lines().count() as u64);
    o.finish()
}

/// Everything `repro` writes for one traced experiment: the rendered
/// text table (identical to the untraced path's), the JSONL trace (empty
/// for figure experiments, which aggregate instead of tracing), the
/// summary record, the bare rows, and the streaming-aggregate document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableArtifacts {
    /// The text table, exactly as the untraced repro path prints it.
    pub rendered: String,
    /// `<name>.jsonl` contents (empty when the experiment emits no
    /// per-trial trace — `repro` then skips the file).
    pub jsonl: String,
    /// `<name>.summary.json` contents.
    pub summary: String,
    /// `<name>.rows.json` contents.
    pub rows: String,
    /// `<name>.agg.json` contents (see [`agg_json`]).
    pub agg: String,
}

/// Runs `name` traced if it is one of the five tables, returning its
/// artifacts; `None` for every other experiment (`repro` then falls
/// through to [`crate::scenarios::scenario_artifacts`] and
/// [`crate::figures::figure_artifacts`], so every experiment produces
/// artifacts — see DESIGN.md §Observability).
pub fn table_artifacts(
    runner: TrialRunner,
    name: &str,
    n: usize,
    mix_trials: u64,
    spatial_trials: u64,
) -> Option<TableArtifacts> {
    let mixing = |title: &str,
                  paper: &[[f64; 4]],
                  (rows, trace): (Vec<MixRow>, TableTrace)|
     -> TableArtifacts {
        let rows_json = mixing_rows_json(name, n, mix_trials, &rows);
        TableArtifacts {
            rendered: render_mixing(title, &rows, paper),
            summary: summary_json(&rows_json, &trace),
            rows: rows_json,
            agg: agg_json(name, "table", &trace.aggregates),
            jsonl: trace.jsonl,
        }
    };
    let spatial = |title: &str,
                   limit: Option<u32>,
                   (rows, trace): (Vec<SpatialRow>, TableTrace)|
     -> TableArtifacts {
        let rows_json = spatial_rows_json(name, spatial_trials, limit, &rows);
        TableArtifacts {
            rendered: render_spatial(title, &rows),
            summary: summary_json(&rows_json, &trace),
            rows: rows_json,
            agg: agg_json(name, "table", &trace.aggregates),
            jsonl: trace.jsonl,
        }
    };
    Some(match name {
        "table1" => mixing(
            TITLE_TABLE1,
            &PAPER_TABLE1,
            traced_table1(runner, n, mix_trials),
        ),
        "table2" => mixing(
            TITLE_TABLE2,
            &PAPER_TABLE2,
            traced_table2(runner, n, mix_trials),
        ),
        "table3" => mixing(
            TITLE_TABLE3,
            &PAPER_TABLE3,
            traced_table3(runner, n, mix_trials),
        ),
        "table4" => {
            let net = cin(&CinConfig::default());
            spatial(
                TITLE_TABLE4,
                None,
                traced_table45_on(runner, &net, spatial_trials, None, name),
            )
        }
        "table5" => {
            let net = cin(&CinConfig::default());
            spatial(
                TITLE_TABLE5,
                Some(1),
                traced_table45_on(runner, &net, spatial_trials, Some(1), name),
            )
        }
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tables::mixing_sweep_with;

    fn small_table1(runner: TrialRunner) -> (Vec<MixRow>, TableTrace) {
        traced_mixing_sweep(runner, "table1", 120, 8, &[1, 2], |k| {
            RumorEpidemic::new(
                RumorConfig::new(Direction::Push, Feedback::Feedback, Removal::Counter { k })
                    .with_reset_on_useful(true),
            )
        })
    }

    #[test]
    fn traced_sweep_rows_match_the_plain_sweep() {
        let runner = TrialRunner::new();
        let (rows, trace) = small_table1(runner);
        let plain = mixing_sweep_with(runner, 120, 8, &[1, 2], |k| {
            RumorEpidemic::new(
                RumorConfig::new(Direction::Push, Feedback::Feedback, Removal::Counter { k })
                    .with_reset_on_useful(true),
            )
        });
        assert_eq!(rows, plain, "observers must not perturb the experiment");
        assert_eq!(trace.violations, 0, "shipped drivers are invariant-clean");
        // One run_start + run_end pair per (k, trial).
        assert_eq!(trace.jsonl.matches(r#""event":"run_start""#).count(), 2 * 8);
        assert_eq!(trace.jsonl.matches(r#""event":"run_end""#).count(), 2 * 8);
        assert!(trace
            .jsonl
            .starts_with(r#"{"event":"run_start","experiment":"table1","k":1,"trial":0"#));
    }

    #[test]
    fn traced_sweep_aggregates_per_k() {
        let (rows, trace) = small_table1(TrialRunner::new());
        assert_eq!(trace.aggregates.len(), 2);
        let entry = &trace.aggregates[0];
        assert_eq!(entry.label, "k=1");
        assert_eq!(entry.agg.runs(), 8);
        assert_eq!(entry.agg.sites(), 120);
        // The sink sees the same contact stream the result totals came
        // from: mean traffic per site must agree with the table row.
        let m = entry.agg.totals().sent as f64 / (8.0 * 120.0);
        assert!(
            (m - rows[0].traffic).abs() < 1e-9,
            "{m} vs {}",
            rows[0].traffic
        );
        let json = agg_json("table1", "table", &trace.aggregates);
        assert!(
            json.starts_with(
                r#"{"experiment":"table1","kind":"table","aggregates":[{"label":"k=1""#
            ),
            "{json}"
        );
        for forbidden in ["seconds", "nanos", "rss"] {
            assert!(
                !json.contains(forbidden),
                "{forbidden} leaked into agg json"
            );
        }
    }

    #[test]
    fn rows_json_is_well_formed() {
        let rows = vec![MixRow {
            k: 2,
            residue: 0.05,
            traffic: 3.25,
            t_ave: 11.5,
            t_last: 17.0,
        }];
        let json = mixing_rows_json("table1", 1000, 100, &rows);
        assert_eq!(
            json,
            r#"{"experiment":"table1","n":1000,"trials":100,"rows":[{"k":2,"residue":0.05,"traffic":3.25,"t_ave":11.5,"t_last":17}]}"#
        );
    }

    #[test]
    fn spatial_rows_json_encodes_the_connection_limit() {
        let row = SpatialRow {
            label: "uniform".to_string(),
            t_last: 8.0,
            t_ave: 5.0,
            cmp_avg: 6.0,
            cmp_bushey: 75.0,
            upd_avg: 6.0,
            upd_bushey: 74.0,
        };
        let unlimited = spatial_rows_json("table4", 10, None, std::slice::from_ref(&row));
        assert!(unlimited.contains(r#""connection_limit":null"#));
        let limited = spatial_rows_json("table5", 10, Some(1), &[row]);
        assert!(limited.contains(r#""connection_limit":1"#));
        assert!(limited.contains(r#""cmp_bushey":75"#));
    }

    #[test]
    fn table_artifacts_covers_tables_only() {
        assert!(table_artifacts(TrialRunner::new(), "fig-sir-curve", 100, 1, 1).is_none());
        let a =
            table_artifacts(TrialRunner::new(), "table1", 100, 2, 1).expect("table1 is traceable");
        assert!(a.rendered.starts_with(&format!("\n## {TITLE_TABLE1}")));
        assert!(a.summary.contains(r#""invariant_violations":0"#));
        assert!(a.summary.contains(r#""trace_lines":"#));
        assert!(a.rows.starts_with(r#"{"experiment":"table1""#));
        assert!(!a.jsonl.is_empty());
        assert!(a
            .agg
            .starts_with(r#"{"experiment":"table1","kind":"table""#));
        assert!(a.agg.contains(r#""p50":"#), "{}", a.agg);
    }
}
