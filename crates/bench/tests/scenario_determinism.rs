//! Thread-count determinism for scenario artifacts: the `fig-scenarios`
//! sweep and single-scenario selections must produce byte-identical
//! traces, rows and summaries whether trials run on one worker or eight.
//! (The CI `artifact-determinism` job re-checks the same property
//! end-to-end through the `repro` binary with `diff -r`.)

use epidemic_bench::registry::{self, Ctx, Output};
use epidemic_sim::runner::TrialRunner;

fn artifacts_at(threads: usize, name: &str, trials: u64) -> Output {
    let experiment =
        registry::find(name).unwrap_or_else(|| panic!("{name} is a scenario experiment"));
    experiment.run(&Ctx {
        runner: TrialRunner::new().threads(threads),
        trials,
        ..experiment.ctx(None, true)
    })
}

#[test]
fn fig_scenarios_artifacts_are_thread_count_invariant() {
    let one = artifacts_at(1, "fig-scenarios", 4);
    let eight = artifacts_at(8, "fig-scenarios", 4);
    assert_eq!(
        one.jsonl, eight.jsonl,
        "trace bytes must not depend on threads"
    );
    assert_eq!(one.rows_json, eight.rows_json);
    assert_eq!(one.summary_json(), eight.summary_json());
    assert_eq!(one.text(), eight.text());
}

#[test]
fn single_scenario_artifacts_are_thread_count_invariant() {
    for name in ["scenario-churn", "scenario-flash-crowd-lossy"] {
        let one = artifacts_at(1, name, 6);
        let eight = artifacts_at(8, name, 6);
        assert_eq!(one.jsonl, eight.jsonl, "{name}");
        assert_eq!(one.rows_json, eight.rows_json, "{name}");
        assert_eq!(one.summary_json(), eight.summary_json(), "{name}");
        assert_eq!(one.text(), eight.text(), "{name}");
    }
}

#[test]
fn scenario_traces_carry_no_wall_clock_fields() {
    // The determinism contract extends to content: no timestamps or
    // durations may leak into the artifact bytes.
    let a = artifacts_at(2, "fig-scenarios", 2);
    for needle in ["time", "seconds", "duration"] {
        assert!(
            !a.jsonl.contains(needle),
            "trace must stay wall-clock free, found {needle:?}"
        );
    }
}
