//! CI smoke for the megascale sweep: the `n = 10⁴` and `10⁵` points of
//! fig-megascale, under the counting allocator, with a wall-clock budget.
//!
//! This pins the sweep's load-bearing claim at a size CI can afford: the
//! active-set path plus streaming aggregation allocates *sublinearly* in
//! `n` — two bits per site instead of a replica per site, and the
//! [`AggregatingSink`] folds the whole run into bounded memory — on
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
use epidemic_sim::MegascaleSim;
use epidemic_trace::AggregatingSink;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const N: usize = 10_000;
/// Generous even for an unoptimized single-CPU debug run: the budget
/// catches complexity regressions (an accidentally quadratic path blows
/// straight past it), not speed.
const BUDGET: Duration = Duration::from_secs(300);

/// The memory claim, in allocator terms: a full epidemic at `n = 10⁴`,
/// streamed through an [`AggregatingSink`], allocates strictly fewer
/// than one heap allocation per site. An eager run cannot do this — it
/// materializes a replica per site before the first contact — so this
/// bound is what two bits per site buy, and it holds for the
/// observer too (the aggregate is bounded, not per-event). The per-run
/// state is sized once, so the count is the same at `n = 10⁵`: no column
/// grows by reallocation.
#[test]
fn fast_path_with_streaming_aggregation_allocates_sublinearly() {
    let start = Instant::now();
    for scale_free in [false, true] {
        let counts = [N, 10 * N].map(|n| {
            // The graph is the sweep's input, not the epidemic's cost.
            let graph = DegreeGraph::scale_free(n, 2, 1987);
            let before = allocations();
            let (seed, mut sink) = (1987 ^ n as u64, AggregatingSink::new());
            let r = if scale_free {
                MegascaleSim::scale_free(&graph).run(seed, &mut sink)
            } else {
                MegascaleSim::uniform(n).run(seed, &mut sink)
            };
            let agg = sink.finish();
            let fast_allocs = allocations() - before;
            assert!(
                r.residue < if scale_free { 0.30 } else { 0.05 },
                "epidemic failed to spread (n={n}, scale_free={scale_free}): {r:?}"
            );
            assert_eq!(agg.runs(), 1, "aggregate folded exactly one run");
            fast_allocs
        });
        assert!(
            counts[0] < N as u64,
            "fast path + aggregation allocated {} times for n = {N} \
             (scale_free={scale_free}) — per-site state must stay strictly \
             below one allocation per site",
            counts[0]
        );
        assert_eq!(
            counts[0], counts[1],
            "allocations at n = 10⁴ and 10⁵ (scale_free={scale_free})"
        );
    }

    let elapsed = start.elapsed();
    assert!(
        elapsed < BUDGET,
        "fast-path smoke took {elapsed:?}, budget {BUDGET:?}"
    );
}
