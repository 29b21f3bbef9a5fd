//! Pins ROADMAP 2(c) with an allocator: once a [`MixingArena`] is warm — its
//! replicas each own the one row block and the one hot-list block a
//! single-update epidemic gives them, its bitsets and roster buffers are
//! sized — every further trial on it, of any rumor variant, completes
//! without asking the heap for a single byte.
//!
//! Like `zero_alloc.rs`, this file registers [`CountingAlloc`] as the test
//! binary's global allocator and therefore holds exactly one test (a
//! sibling running concurrently would bleed allocations into the measured
//! windows). Compiled out without the `count-allocs` feature; run it with
//!
//! ```text
//! cargo test -p epidemic-bench --features count-allocs --test arena_zero_alloc --release
//! ```

#![cfg(feature = "count-allocs")]

use std::hint::black_box;

use epidemic_bench::alloc_counter::{allocations, CountingAlloc};
use epidemic_core::{Direction, Feedback, Removal, RumorConfig};
use epidemic_sim::mixing::{MixingArena, RumorEpidemic};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const SITES: usize = 1_000;
const TRIALS_PER_WINDOW: u64 = 4;

#[test]
fn trials_on_a_warm_arena_do_not_allocate() {
    let counter =
        |direction, k| RumorConfig::new(direction, Feedback::Feedback, Removal::Counter { k });
    let mut arena = MixingArena::new();

    // Warm-up: one epidemic that reaches every site, so no later trial is
    // the first to write to some replica.
    let warm =
        RumorEpidemic::new(counter(Direction::PushPull, 5)).run_in(&mut arena, SITES, 1, &mut ());
    assert!(warm.complete, "the warm-up must touch every replica");

    let variants = [
        (
            "push (Table 1)",
            RumorEpidemic::new(counter(Direction::Push, 2)),
        ),
        (
            "push, blind coin (Table 2)",
            RumorEpidemic::new(RumorConfig::new(
                Direction::Push,
                Feedback::Blind,
                Removal::Coin { k: 2 },
            )),
        ),
        (
            "pull (Table 3)",
            RumorEpidemic::new(counter(Direction::Pull, 2)),
        ),
        (
            "push-pull",
            RumorEpidemic::new(counter(Direction::PushPull, 2)),
        ),
        (
            "push, sequential contacts",
            RumorEpidemic::new(counter(Direction::Push, 2)).synchronous(false),
        ),
        (
            "push, connection limit 1 with hunting",
            RumorEpidemic::new(counter(Direction::Push, 2))
                .connection_limit(Some(1))
                .hunt_limit(2),
        ),
    ];
    for (label, driver) in variants {
        // The cleanest of several windows, as in `zero_alloc.rs`: the
        // counter is process-global and the harness thread can bleed into
        // any one window; a path that allocates is dirty in all of them.
        let mut seed = 0;
        let mut reached = 0.0;
        let cleanest = (0..5)
            .map(|_| {
                let before = allocations();
                for _ in 0..TRIALS_PER_WINDOW {
                    seed += 1;
                    let result = black_box(driver.run_in(&mut arena, SITES, seed, &mut ()));
                    reached += 1.0 - result.residue;
                }
                allocations() - before
            })
            .min()
            .expect("five windows");
        assert_eq!(
            cleanest, 0,
            "{label}: {cleanest} allocations over {TRIALS_PER_WINDOW} trials on a warm arena"
        );
        assert!(reached > 1.0, "{label}: the epidemics must actually spread");
    }
}
