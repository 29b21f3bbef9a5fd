//! Reproductions of the paper's numbered tables.

use epidemic_core::{Direction, Feedback, Removal, RumorConfig};
use epidemic_net::topologies::{cin, Cin, CinConfig};
use epidemic_net::{LinkTraffic, Routes, Spatial};
use epidemic_sim::engine::RouteCharge;
use epidemic_sim::runner::Arenas;
use epidemic_sim::{MixingArena, SpatialSim};

use crate::registry::{Ctx, Output};
use crate::render::{labelled, FigTable};
use crate::trace::{mixing_rows_json, named, observed, spatial_rows_json, AggEntry, Seen, Sinks};

/// What a Table 1/2/3-style complete-mixing row measures, in column
/// order: mean residue `s`, mean traffic `m` (updates per site), mean
/// average delay, mean last delay.
pub(crate) const MIX_COLUMNS: [&str; 4] = ["residue", "traffic", "t_ave", "t_last"];

/// One complete-mixing row: the `k` parameter and its [`MIX_COLUMNS`].
pub(crate) type MixRow = (u32, [f64; 4]);

/// Runs a complete-mixing sweep on `ctx.n` sites over `ks` for the given
/// protocol factory, handing `each` every row with what its trials'
/// observers saw (`sinks`, once artifacts were asked for). Each worker runs
/// its trials in a [`MixingArena`] from `arenas`, the experiment's pool, so
/// only the pool's first trials allocate.
pub(crate) fn mixing_sweep(
    ctx: &Ctx<'_>,
    arenas: &Arenas<MixingArena>,
    sinks: Sinks,
    ks: &[u32],
    make: impl Fn(u32) -> RumorConfig,
    mut each: impl FnMut(MixRow, Seen),
) {
    let sinks = ctx.sinks(sinks);
    for &k in ks {
        let driver = SpatialSim::mixing(ctx.n, make(k));
        let (means, seen) = ctx.mean_seen(
            || arenas.take(),
            |arena, trial| {
                let seed = trial.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ u64::from(k);
                let (r, seen) = observed!(
                    sinks,
                    ctx.tracer()
                        .label_u64("k", u64::from(k))
                        .label_u64("trial", trial),
                    check,
                    |observer| driver.run(arena, seed, observer)
                );
                ([r.residue, r.traffic, r.t_ave, r.t_last], seen)
            },
        );
        each((k, means), seen);
    }
}

/// The aggregate of one complete-mixing configuration, labelled `k=…`.
pub(crate) fn mixing_entry(
    ctx: &Ctx<'_>,
    k: u32,
    observed: &[(&str, f64)],
    agg: epidemic_trace::RunAggregate,
) -> AggEntry {
    let params = [
        ("n", ctx.n.to_string()),
        ("trials", ctx.trials.to_string()),
        ("k", k.to_string()),
    ];
    AggEntry::new(format!("k={k}"), &params, observed, agg)
}

/// A numbered mixing table: the sweep under the tables' observers, next
/// to the paper's reference values.
fn mixing_table(
    ctx: &Ctx<'_>,
    title: &str,
    paper: &[[f64; 4]],
    ks: &[u32],
    make: impl Fn(u32) -> RumorConfig,
) -> Output {
    let mut output = Output {
        violations: ctx.observe.then_some(0),
        ..Output::default()
    };
    let mut rows = Vec::with_capacity(ks.len());
    let arenas = Arenas::default();
    mixing_sweep(ctx, &arenas, Sinks::Traced, ks, make, |(k, means), seen| {
        output.absorb(seen, |agg| {
            mixing_entry(ctx, k, &named(&MIX_COLUMNS, &means), agg)
        });
        rows.push((k, means));
    });
    if ctx.observe {
        output.rows_json = mixing_rows_json(ctx.experiment, ctx.n, ctx.trials, &rows);
    }
    let data = rows.iter().zip(paper).map(|((k, means), paper)| {
        let mut cells = [0.0; 8];
        cells[..4].copy_from_slice(means);
        cells[4..].copy_from_slice(paper);
        labelled(k.to_string(), cells)
    });
    output.tables = vec![FigTable::new(
        title,
        &[
            "k",
            "residue",
            "traffic",
            "t_ave",
            "t_last",
            "paper s",
            "paper m",
            "paper t_ave",
            "paper t_last",
        ],
        data.collect(),
    )];
    output
}

/// Table 1: push rumor mongering with feedback and counters, n sites.
pub(crate) fn table1(ctx: &Ctx<'_>) -> Output {
    mixing_table(ctx, TITLE_TABLE1, &PAPER_TABLE1, &[1, 2, 3, 4, 5], |k| {
        RumorConfig::new(Direction::Push, Feedback::Feedback, Removal::Counter { k })
            .with_reset_on_useful(true)
    })
}

/// Table 2: push rumor mongering, blind with coins.
pub(crate) fn table2(ctx: &Ctx<'_>) -> Output {
    mixing_table(ctx, TITLE_TABLE2, &PAPER_TABLE2, &[1, 2, 3, 4, 5], |k| {
        RumorConfig::new(Direction::Push, Feedback::Blind, Removal::Coin { k })
    })
}

/// Table 3: pull rumor mongering with feedback and counters (footnote
/// counter semantics).
pub(crate) fn table3(ctx: &Ctx<'_>) -> Output {
    mixing_table(ctx, TITLE_TABLE3, &PAPER_TABLE3, &[1, 2, 3], |k| {
        RumorConfig::new(Direction::Pull, Feedback::Feedback, Removal::Counter { k })
    })
}

/// What a Table 4/5-style spatial anti-entropy row measures, in column
/// order: mean `t_last` and `t_ave` over runs; compare conversations per
/// cycle per link (averaged over links) and on the Bushey transatlantic
/// link; update transmissions over a run per link and on the Bushey link.
pub(crate) const SPATIAL_COLUMNS: [&str; 6] = [
    "t_last",
    "t_ave",
    "cmp_avg",
    "cmp_bushey",
    "upd_avg",
    "upd_bushey",
];

/// One spatial row: the distribution's label ("uniform" or the exponent
/// `a`) and its [`SPATIAL_COLUMNS`].
pub(crate) type SpatialRow = (String, [f64; 6]);

/// The Table 4/5 sweep — uniform and `a = 1.2 … 2.0` — on a
/// caller-provided CIN (tests use smaller networks), under the tables'
/// observers; every trace line carries the spatial-distribution label.
/// One pool of trial arenas, each beside the link counters its trials'
/// charges fill, serves the whole sweep.
pub fn table45_on(ctx: &Ctx<'_>, net: &Cin, title: &str, connection_limit: Option<u32>) -> Output {
    let sinks = ctx.sinks(Sinks::Traced);
    let mut output = Output {
        violations: ctx.observe.then_some(0),
        ..Output::default()
    };
    let uniform = ("uniform".to_string(), Spatial::Uniform);
    let powers = [1.2, 1.4, 1.6, 1.8, 2.0].map(|a| (format!("a = {a:.1}"), Spatial::QsPower { a }));
    // One routing table for the whole sweep: an all-pairs computation per
    // simulator would be most of the cost of a short one.
    let routes = Routes::compute(&net.topology);
    let arenas = Arenas::<(MixingArena, [LinkTraffic; 2])>::default();
    let rows: Vec<SpatialRow> = std::iter::once(uniform)
        .chain(powers)
        .map(|(label, spatial)| {
            let sim =
                SpatialSim::new(&net.topology, &routes, spatial).connection_limit(connection_limit);
            let (means, seen) = ctx.mean_seen(
                || arenas.take(),
                |state, trial| {
                    let (arena, counters) = &mut **state;
                    let mut charge = RouteCharge::new(&net.topology, &routes, 0, counters);
                    let seed = trial.wrapping_mul(0x2545_F491_4F6C_DD1D) + 1;
                    let (r, seen) = observed!(
                        sinks,
                        ctx.tracer()
                            .label_str("distribution", &label)
                            .label_u64("trial", trial),
                        check,
                        |observer| sim.run(arena, seed, &mut (&mut charge, observer))
                    );
                    let cycles = f64::from(r.cycles.max(1));
                    let (compare, update) = (&charge.compare, &charge.update);
                    let means = [
                        r.t_last,
                        r.t_ave,
                        compare.mean_per_link() / cycles,
                        compare.at(net.bushey_link) as f64 / cycles,
                        update.mean_per_link(),
                        update.at(net.bushey_link) as f64,
                    ];
                    (means, seen)
                },
            );
            output.absorb(seen, |agg| {
                let limit = connection_limit.map_or("none".to_string(), |l| l.to_string());
                let params = [
                    ("trials", ctx.trials.to_string()),
                    ("distribution", label.clone()),
                    ("connection_limit", limit),
                ];
                let observed = named(&SPATIAL_COLUMNS[..4], &means[..4]);
                AggEntry::new(label.clone(), &params, &observed, agg)
            });
            (label, means)
        })
        .collect();
    if ctx.observe {
        output.rows_json = spatial_rows_json(ctx.experiment, ctx.trials, connection_limit, &rows);
    }
    let data = rows
        .iter()
        .map(|(label, means)| labelled(label.clone(), *means));
    output.tables = vec![FigTable::new(
        title,
        &[
            "distribution",
            "t_last",
            "t_ave",
            "cmp avg",
            "cmp Bushey",
            "upd avg",
            "upd Bushey",
        ],
        data.collect(),
    )];
    output
}

/// Table 4: push-pull anti-entropy on the synthetic CIN.
pub(crate) fn table4(ctx: &Ctx<'_>) -> Output {
    table45_on(ctx, &cin(&CinConfig::default()), TITLE_TABLE4, None)
}

/// Table 5: as Table 4 with connection limit 1, hunt limit 0.
pub(crate) fn table5(ctx: &Ctx<'_>) -> Output {
    table45_on(ctx, &cin(&CinConfig::default()), TITLE_TABLE5, Some(1))
}

/// Title printed above Table 1.
const TITLE_TABLE1: &str = "Table 1: push, feedback, counter, n=1000";
/// Title printed above Table 2.
const TITLE_TABLE2: &str = "Table 2: push, blind, coin, n=1000";
/// Title printed above Table 3.
const TITLE_TABLE3: &str = "Table 3: pull, feedback, counter, n=1000 (footnote semantics)";
/// Title printed above Table 4.
const TITLE_TABLE4: &str = "Table 4: push-pull anti-entropy on the synthetic CIN, no connection limit (paper: uniform 7.8/5.3/5.9/75.7/5.8/74.4 ... a=2.0 13.3/7.8/1.4/2.4/1.9/5.9)";
/// Title printed above Table 5.
const TITLE_TABLE5: &str = "Table 5: as Table 4 with connection limit 1, hunt limit 0 (paper: uniform 11.0/7.0/3.7/47.5/5.8/75.2 ... a=2.0 24.6/14.1/0.7/0.9/1.9/4.8)";

/// The paper's Table 1 reference values `[s, m, t_ave, t_last]` per k.
const PAPER_TABLE1: [[f64; 4]; 5] = [
    [0.18, 1.7, 11.0, 16.8],
    [0.037, 3.3, 12.1, 16.9],
    [0.011, 4.5, 12.5, 17.4],
    [0.0036, 5.6, 12.7, 17.5],
    [0.0012, 6.7, 12.8, 17.7],
];

/// The paper's Table 2 reference values.
const PAPER_TABLE2: [[f64; 4]; 5] = [
    [0.96, 0.04, 19.0, 38.0],
    [0.20, 1.6, 17.0, 33.0],
    [0.060, 2.8, 15.0, 32.0],
    [0.021, 3.9, 14.1, 32.0],
    [0.008, 4.9, 13.8, 32.0],
];

/// The paper's Table 3 reference values.
const PAPER_TABLE3: [[f64; 4]; 3] = [
    [3.1e-2, 2.7, 9.97, 17.6],
    [5.8e-4, 4.5, 10.07, 15.4],
    [4.0e-6, 6.1, 10.08, 14.0],
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{find, run_small as run};

    /// Column `col` of the output's table, parsed back to numbers.
    fn column(output: &Output, col: usize) -> Vec<f64> {
        let rows = &output.tables[0].rows;
        rows.iter().map(|r| r[col].parse().unwrap()).collect()
    }

    #[test]
    fn table1_small_scale_matches_paper_shape() {
        // 200 sites, 40 trials: residue falls with k, traffic rises.
        let out = run("table1", 200, 40, false);
        let (residue, traffic) = (column(&out, 1), column(&out, 2));
        assert_eq!(residue.len(), 5);
        assert!(residue.windows(2).all(|w| w[1] <= w[0] + 0.02));
        assert!(traffic.windows(2).all(|w| w[1] > w[0]));
        // k=1 residue should be in the vicinity of the ODE's 20%.
        assert!((residue[0] - 0.20).abs() < 0.08, "{}", residue[0]);
    }

    #[test]
    fn table2_k1_dies_immediately() {
        let out = run("table2", 200, 30, false);
        assert!(column(&out, 1)[0] > 0.85);
        assert!(column(&out, 2)[0] < 0.2);
        // Blind coin converges more slowly than feedback counter.
        assert!(column(&out, 4)[4] > 20.0);
    }

    #[test]
    fn table3_pull_residues_are_tiny() {
        let residue = column(&run("table3", 300, 40, false), 1);
        assert!(residue[0] < 0.08);
        assert!(residue[1] < residue[0] + 1e-9);
    }

    #[test]
    fn observed_table_traces_and_aggregates_per_k() {
        let experiment = find("table1").unwrap();
        let out = run("table1", 120, 8, true);
        assert_eq!(
            out.violations,
            Some(0),
            "shipped drivers are invariant-clean"
        );
        // One run_start + run_end pair per (k, trial).
        assert_eq!(out.jsonl.matches(r#""event":"run_start""#).count(), 5 * 8);
        assert_eq!(out.jsonl.matches(r#""event":"run_end""#).count(), 5 * 8);
        assert!(out
            .jsonl
            .starts_with(r#"{"event":"run_start","experiment":"table1","k":1,"trial":0"#));
        assert_eq!(out.aggregates.len(), 5);
        let entry = &out.aggregates[0];
        assert_eq!(entry.label, "k=1");
        assert_eq!(entry.agg.runs(), 8);
        assert_eq!(entry.agg.sites(), 120);
        // The sink sees the same contact stream the result totals came
        // from: mean traffic per site must agree with the table row.
        let m = entry.agg.totals().sent as f64 / (8.0 * 120.0);
        assert!((m - entry.observed[1].1).abs() < 1e-9, "{m} vs {entry:?}");
        assert!(out.text().starts_with(&format!("\n## {TITLE_TABLE1}")));
        assert!(out.rows_json.starts_with(r#"{"experiment":"table1""#));
        let summary = out.summary_json();
        assert!(summary.contains(r#""invariant_violations":0"#));
        assert!(summary.contains(r#""trace_lines":"#));
        let json = experiment.agg_json(&out);
        assert!(
            json.starts_with(
                r#"{"experiment":"table1","kind":"table","aggregates":[{"label":"k=1""#
            ),
            "{json}"
        );
        assert!(json.contains(r#""p50":"#), "{json}");
        for forbidden in ["seconds", "nanos", "rss"] {
            assert!(
                !json.contains(forbidden),
                "{forbidden} leaked into agg json"
            );
        }
    }

    #[test]
    fn table45_uniform_hammers_the_bushey_link() {
        let net = cin(&CinConfig {
            na_regions: 4,
            sites_per_region: 10,
            europe_sites: 10,
            backbone_chords: 2,
            seed: 7,
            ..CinConfig::default()
        });
        let ctx = Ctx {
            trials: 10,
            ..find("table4").unwrap().ctx(None, false)
        };
        let out = table45_on(&ctx, &net, "small CIN", None);
        let (t_last, cmp_avg, cmp_bushey) = (column(&out, 1), column(&out, 3), column(&out, 4));
        // Uniform selection loads the transatlantic link far above the
        // mean; a = 2.0 brings it near (or below) the mean. (On this small
        // 50-site CIN the contrast is milder than the full-size network's.)
        assert!(
            cmp_bushey[0] > 2.0 * cmp_avg[0],
            "bushey {} vs avg {}",
            cmp_bushey[0],
            cmp_avg[0]
        );
        assert!(cmp_bushey[5] < cmp_bushey[0] / 2.0);
        // Locality slows convergence somewhat.
        assert!(t_last[5] >= t_last[0]);
    }
}
