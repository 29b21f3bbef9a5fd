//! The acceptance property behind the `.agg.json` artifacts: streaming
//! aggregates are pure functions of the experiment's seed universe, so
//! the serialized bytes must be identical at any `EPIDEMIC_THREADS`
//! budget. They must also carry no wall-clock, allocation, or RSS
//! fields, or the byte-identity above would be unachievable.

use epidemic_bench::figures::figure_artifacts;
use epidemic_bench::scenarios::scenario_artifacts;
use epidemic_bench::trace::table_artifacts;
use epidemic_sim::runner::TrialRunner;

/// Aggregates describe simulated cycles only; any of these substrings in
/// the serialized document would smuggle a machine-dependent measurement
/// into an artifact that CI diffs byte-for-byte.
fn assert_no_wall_clock_fields(agg: &str) {
    for needle in ["seconds", "alloc", "rss", "wall_clock", "elapsed"] {
        assert!(
            !agg.contains(needle),
            "agg.json leaks a host-dependent field ({needle:?})"
        );
    }
}

#[test]
fn table_aggregate_is_byte_identical_across_thread_counts() {
    let run = |threads: usize| {
        table_artifacts(TrialRunner::new().threads(threads), "table1", 150, 12, 12)
            .expect("table1 is traceable")
    };
    let sequential = run(1);
    let parallel = run(8);
    assert_eq!(
        sequential.agg, parallel.agg,
        "aggregate bytes must not depend on threads"
    );
    assert!(sequential.agg.contains(r#""kind":"table""#));
    assert!(sequential.agg.contains(r#""p50":"#));
    assert_no_wall_clock_fields(&sequential.agg);
}

#[test]
fn figure_aggregate_is_byte_identical_across_thread_counts() {
    let run = |threads: usize| {
        figure_artifacts(TrialRunner::new().threads(threads), "fig-rumor-ode", 150, 8)
            .expect("fig-rumor-ode is a figure")
    };
    let sequential = run(1);
    let parallel = run(8);
    assert_eq!(sequential.agg, parallel.agg);
    assert_eq!(
        sequential, parallel,
        "every artifact must match, not just agg"
    );
    assert!(sequential.agg.contains(r#""kind":"figure""#));
    assert!(sequential.agg.contains(r#""p99":"#));
    assert!(
        sequential.jsonl.is_empty(),
        "figures aggregate instead of tracing"
    );
    assert_no_wall_clock_fields(&sequential.agg);
}

#[test]
fn scenario_aggregate_is_byte_identical_across_thread_counts() {
    let run = |threads: usize| {
        scenario_artifacts(TrialRunner::new().threads(threads), "scenario-partition", 4)
            .expect("scenario-partition resolves")
    };
    let sequential = run(1);
    let parallel = run(8);
    assert_eq!(sequential.agg, parallel.agg);
    assert!(sequential.agg.contains(r#""kind":"scenario""#));
    assert_no_wall_clock_fields(&sequential.agg);
}
