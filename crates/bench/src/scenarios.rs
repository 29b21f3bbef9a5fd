//! Scenario sweeps: runs bundled declarative scenarios
//! (`crates/sim/scenarios/*.scenario`) through the [`ScenarioEngine`] and
//! aggregates per-trial reports with [`Summary`] statistics.
//!
//! `fig-scenarios` sweeps every bundled file, `scenario-<name>` one. When
//! artifacts are asked for, every trial is traced and aggregated — but
//! not invariant-checked: scenario workloads inject and delete keys
//! mid-run, so the SIR-monotonicity rules the
//! [`InvariantChecker`](epidemic_trace::InvariantChecker) checks
//! do not apply (coverage legitimately drops when a flash crowd lands).

use epidemic_sim::runner::Arenas;
use epidemic_sim::scenario::{Scenario, ScenarioArena, ScenarioEngine};
use epidemic_sim::stats::Summary;
use epidemic_trace::json::{array_of, JsonObject};

use crate::registry::{Ctx, Output};
use crate::render::{fmt, FigTable};
use crate::trace::{observed, AggEntry, Seen, Sinks};

/// Title of a scenario sweep table.
const TITLE_SCENARIOS: &str = "Scenario sweep (bundled .scenario files)";

/// Aggregates over one scenario's trials. Every distribution-valued
/// column routes through [`Summary`] (mean over trials; the JSON rows
/// also carry min/max where informative).
#[derive(Debug, Clone, PartialEq)]
struct ScenarioRow {
    /// Scenario name (the `scenario` directive / file stem).
    name: String,
    /// Trials aggregated.
    trials: u64,
    /// Trials that reached their stop rule before the cycle bound.
    converged: u64,
    /// Cycles to completion.
    cycles: Summary,
    /// Residue (fraction of site×key coverage still missing at the end).
    residue: Summary,
    /// Updates sent per site.
    traffic: Summary,
    /// Mean injection-to-coverage delay, over trials that closed a key.
    delay: Summary,
}

/// Sweeps `specs` in order at `ctx.trials` seeds each, on arenas from the
/// experiment's pool `arenas`. The per-trial seed follows the table
/// convention (golden-ratio multiply, XOR with the scenario's position in
/// `specs`).
pub(crate) fn scenario_sweep(
    ctx: &Ctx<'_>,
    arenas: &Arenas<ScenarioArena>,
    specs: &[Scenario],
) -> Output {
    let sinks = ctx.sinks(Sinks::Traced);
    let mut output = Output::default();
    let rows: Vec<ScenarioRow> = specs
        .iter()
        .enumerate()
        .map(|(idx, spec)| {
            let engine = ScenarioEngine::new(spec.clone()).expect("bundled scenarios validate");
            let empty = ScenarioRow {
                name: spec.name.clone(),
                trials: ctx.trials,
                converged: 0,
                cycles: Summary::new(),
                residue: Summary::new(),
                traffic: Summary::new(),
                delay: Summary::new(),
            };
            let (row, seen) = ctx.runner.fold_with(
                ctx.trials,
                0,
                || arenas.take(),
                |arena, trial| {
                    let seed = trial.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ idx as u64;
                    observed!(
                        sinks,
                        ctx.tracer()
                            .label_str("scenario", &spec.name)
                            .label_u64("trial", trial),
                        |observer| engine.run(arena, seed, observer)
                    )
                },
                (empty, Seen::default()),
                |(mut row, mut seen), (report, trial_seen)| {
                    row.cycles.push(f64::from(report.cycles));
                    row.residue.push(report.residue);
                    row.traffic.push(report.traffic_per_site);
                    if report.delay.count() > 0 {
                        row.delay.push(report.delay.mean());
                    }
                    row.converged += u64::from(report.converged_at.is_some());
                    seen.absorb(trial_seen);
                    (row, seen)
                },
            );
            output.absorb(seen, |agg| {
                AggEntry::new(
                    row.name.clone(),
                    &[
                        ("scenario", row.name.clone()),
                        ("trials", ctx.trials.to_string()),
                    ],
                    &[
                        ("cycles_mean", row.cycles.mean()),
                        ("residue_mean", row.residue.mean()),
                        ("traffic_mean", row.traffic.mean()),
                        ("delay_mean", row.delay.mean()),
                    ],
                    agg,
                )
            });
            row
        })
        .collect();
    if ctx.observe {
        output.rows_json = scenario_rows_json(ctx.experiment, ctx.trials, &rows);
    }
    output.tables = vec![render_scenarios(&rows)];
    output
}

/// The sweep as a text table.
fn render_scenarios(rows: &[ScenarioRow]) -> FigTable {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                r.trials.to_string(),
                format!("{}/{}", r.converged, r.trials),
                fmt(r.cycles.mean()),
                fmt(r.cycles.max().unwrap_or(0.0)),
                fmt(r.residue.mean()),
                fmt(r.traffic.mean()),
                fmt(r.delay.mean()),
            ]
        })
        .collect();
    FigTable::new(
        TITLE_SCENARIOS,
        &[
            "scenario", "trials", "done", "cycles", "worst", "residue", "traffic", "delay",
        ],
        table,
    )
}

fn scenario_row_json(r: &ScenarioRow) -> String {
    let mut o = JsonObject::new();
    o.field_str("scenario", &r.name)
        .field_u64("trials", r.trials)
        .field_u64("converged", r.converged)
        .field_f64("cycles_mean", r.cycles.mean())
        .field_f64("cycles_max", r.cycles.max().unwrap_or(0.0))
        .field_f64("residue_mean", r.residue.mean())
        .field_f64("traffic_mean", r.traffic.mean())
        .field_f64("delay_mean", r.delay.mean());
    o.finish()
}

/// Machine-readable rows for a scenario sweep (`repro --json`).
fn scenario_rows_json(experiment: &str, trials: u64, rows: &[ScenarioRow]) -> String {
    let mut o = JsonObject::new();
    o.field_str("experiment", experiment)
        .field_u64("trials", trials)
        .field_raw("rows", &array_of(rows.iter().map(scenario_row_json)));
    o.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{find, run_small, N};
    use epidemic_sim::scenario::bundled;

    fn run(name: &str, trials: u64) -> Output {
        run_small(name, N, trials, true)
    }

    #[test]
    fn fig_scenarios_covers_every_bundled_spec() {
        let out = run("fig-scenarios", 2);
        for (name, _) in bundled::SOURCES {
            assert!(
                out.rows_json.contains(&format!("\"scenario\":\"{name}\"")),
                "{name} missing from rows: {}",
                out.rows_json
            );
        }
        assert!(out.text().starts_with(&format!("\n## {TITLE_SCENARIOS}")));
        assert!(out.summary_json().contains(r#""trace_lines":"#));
        assert_eq!(out.violations, None, "scenarios carry no invariant tally");
        assert!(!out.jsonl.is_empty());
        let agg = find("fig-scenarios").unwrap().agg_json(&out);
        assert!(
            agg.starts_with(r#"{"experiment":"fig-scenarios","kind":"scenario""#),
            "agg header: {}",
            &agg[..120.min(agg.len())]
        );
        assert!(agg.contains(r#""p50":"#), "agg carries quantiles");
    }

    #[test]
    fn single_scenario_selector_resolves_and_unknown_does_not() {
        let out = run("scenario-partition", 2);
        assert!(out.rows_json.contains(r#""scenario":"partition""#));
        assert!(out.jsonl.contains(r#""scenario":"partition""#));
        assert!(find("scenario-nope").is_none());
    }

    #[test]
    fn legacy_drivers_converge_under_the_sweep_seeds() {
        // The four historical scenarios must actually complete (not hit
        // their cycle bounds) under the sweep's seed transform.
        let out = run("fig-scenarios", 3);
        for legacy in ["clearinghouse", "dormant-death", "partition", "crash"] {
            let row = out.tables[0].rows.iter().find(|r| r[0] == legacy);
            let row = row.expect("swept");
            assert_eq!(row[2], "3/3", "{legacy} must finish: {row:?}");
        }
    }
}
