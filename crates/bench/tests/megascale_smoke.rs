//! CI smoke for the megascale sweep: the `n = 10⁴` point of
//! fig-megascale, under the counting allocator, with a wall-clock budget.
//!
//! This pins the sweep's load-bearing claim at a size CI can afford: the
//! active-set path plus streaming aggregation allocates *sublinearly* in
//! `n` — lazy materialization means no replica-per-site, and the
//! [`AggregateObserver`] folds the whole run into bounded memory — on
//! both topologies, inside a wall-clock budget.
//!
//! Like `zero_alloc.rs`, this file owns its test binary: it registers
//! [`CountingAlloc`] as the global allocator, so it is compiled out
//! without the `count-allocs` feature. Run it with
//!
//! ```text
//! cargo test -p epidemic-bench --features count-allocs --test megascale_smoke --release
//! ```

#![cfg(feature = "count-allocs")]

use std::time::{Duration, Instant};

use epidemic_bench::alloc_counter::{allocations, CountingAlloc};
use epidemic_net::DegreeGraph;
use epidemic_sim::engine::AggregateObserver;
use epidemic_sim::MegascaleSim;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const N: usize = 10_000;
/// Generous even for an unoptimized single-CPU debug run; a release build
/// finishes the whole test in a couple of seconds. The budget exists to
/// catch complexity regressions (an accidentally quadratic path at 10⁴
/// sites blows straight past it), not to benchmark.
const BUDGET: Duration = Duration::from_secs(300);

/// The memory claim, in allocator terms: a full epidemic at `n = 10⁴`,
/// streamed through an [`AggregateObserver`], allocates strictly fewer
/// than one heap allocation per site. An eager run cannot do this — it
/// materializes a replica per site before the first contact — so this
/// bound is what "lazy site materialization" buys, and it holds for the
/// observer too (the aggregate is bounded, not per-event).
#[test]
fn fast_path_with_streaming_aggregation_allocates_sublinearly() {
    let start = Instant::now();
    let seed = 1987 ^ N as u64;
    // The graph is the sweep's input, not the epidemic's cost.
    let graph = DegreeGraph::scale_free(N, 2, 1987);

    for scale_free in [false, true] {
        let before = allocations();
        let mut sink = AggregateObserver::new();
        let r = if scale_free {
            MegascaleSim::scale_free(&graph)
                .workers(1)
                .run(seed, &mut sink)
        } else {
            MegascaleSim::uniform(N).workers(1).run(seed, &mut sink)
        };
        let agg = sink.finish();
        let fast_allocs = allocations() - before;

        assert!(
            r.residue < if scale_free { 0.30 } else { 0.05 },
            "epidemic failed to spread (scale_free={scale_free}): {r:?}"
        );
        assert_eq!(agg.runs(), 1, "aggregate folded exactly one run");
        assert!(
            fast_allocs < N as u64,
            "fast path + aggregation allocated {fast_allocs} times for n = {N} \
             (scale_free={scale_free}) — lazy materialization must stay strictly \
             below one allocation per site"
        );
    }

    let elapsed = start.elapsed();
    assert!(
        elapsed < BUDGET,
        "fast-path smoke took {elapsed:?}, budget {BUDGET:?}"
    );
}
