//! The acceptance property behind the `.agg.json` artifacts: streaming
//! aggregates are pure functions of the experiment's seed universe, so
//! the serialized bytes must be identical at any `EPIDEMIC_THREADS`
//! budget. They must also carry no wall-clock, allocation, or RSS
//! fields, or the byte-identity above would be unachievable.

use epidemic_bench::registry::{self, Ctx, Output};
use epidemic_sim::runner::TrialRunner;

/// The registry row `name`, observed, at `threads` workers: its output
/// and its `.agg.json` document.
fn observed(name: &str, threads: usize, n: usize, trials: u64) -> (Output, String) {
    let experiment = registry::find(name).expect("a registry row");
    let output = experiment.run(&Ctx {
        runner: TrialRunner::new().threads(threads),
        n,
        trials,
        ..experiment.ctx(None, true)
    });
    let agg = experiment.agg_json(&output);
    (output, agg)
}

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
    let (_, sequential) = observed("table1", 1, 150, 12);
    let (_, parallel) = observed("table1", 8, 150, 12);
    assert_eq!(
        sequential, parallel,
        "aggregate bytes must not depend on threads"
    );
    assert!(sequential.contains(r#""kind":"table""#));
    assert!(sequential.contains(r#""p50":"#));
    assert_no_wall_clock_fields(&sequential);
}

#[test]
fn figure_aggregate_is_byte_identical_across_thread_counts() {
    let (sequential, sequential_agg) = observed("fig-rumor-ode", 1, 150, 8);
    let (parallel, parallel_agg) = observed("fig-rumor-ode", 8, 150, 8);
    assert_eq!(sequential_agg, parallel_agg);
    assert_eq!(
        sequential, parallel,
        "every artifact must match, not just agg"
    );
    assert!(sequential_agg.contains(r#""kind":"figure""#));
    assert!(sequential_agg.contains(r#""p99":"#));
    assert!(
        sequential.jsonl.is_empty(),
        "figures aggregate instead of tracing"
    );
    assert_no_wall_clock_fields(&sequential_agg);
}

#[test]
fn scenario_aggregate_is_byte_identical_across_thread_counts() {
    let (_, sequential) = observed("scenario-partition", 1, registry::N, 4);
    let (_, parallel) = observed("scenario-partition", 8, registry::N, 4);
    assert_eq!(sequential, parallel);
    assert!(sequential.contains(r#""kind":"scenario""#));
    assert_no_wall_clock_fields(&sequential);
}
