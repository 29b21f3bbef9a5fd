//! Pins the trial arenas with an allocator: once an arena is warm — its
//! replicas own the row, index and hot-list blocks their trials grow, its
//! counters, scratch and roster buffers are sized — every further trial on
//! it completes without asking the heap for a single byte. Covered: every
//! rumor variant on a [`MixingArena`], steady-state anti-entropy on the CIN
//! on a [`SpatialSteadyArena`], and steady-state push and pull rumor
//! mongering on a [`RumorSteadyArena`].
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
use epidemic_net::topologies::{cin, CinConfig};
use epidemic_net::Spatial;
use epidemic_sim::mixing::{MixingArena, RumorEpidemic};
use epidemic_sim::rumor_steady::{RumorSteadyArena, RumorSteadyConfig, RumorSteadySim};
use epidemic_sim::spatial_steady::{SpatialSteadyArena, SpatialSteadyConfig, SpatialSteadySim};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const SITES: usize = 1_000;
const TRIALS_PER_WINDOW: u64 = 4;

/// Asserts that the cleanest of five windows of [`TRIALS_PER_WINDOW`]
/// trials allocates nothing, as in `zero_alloc.rs`: the counter is
/// process-global and the harness thread can bleed into any one window; a
/// path that allocates is dirty in all of them. `trial` runs one trial on
/// a seed no earlier trial used.
fn assert_warm_trials_do_not_allocate(label: &str, mut trial: impl FnMut(u64)) {
    let mut seed = 1_000;
    let cleanest = (0..5)
        .map(|_| {
            let before = allocations();
            for _ in 0..TRIALS_PER_WINDOW {
                seed += 1;
                trial(seed);
            }
            allocations() - before
        })
        .min()
        .expect("five windows");
    assert_eq!(
        cleanest, 0,
        "{label}: {cleanest} allocations over {TRIALS_PER_WINDOW} trials on a warm arena"
    );
}

#[test]
fn trials_on_a_warm_arena_do_not_allocate() {
    mixing_trials();
    spatial_steady_trials();
    rumor_steady_trials();
}

fn mixing_trials() {
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
        let mut reached = 0.0;
        assert_warm_trials_do_not_allocate(label, |seed| {
            let result = black_box(driver.run_in(&mut arena, SITES, seed, &mut ()));
            reached += 1.0 - result.residue;
        });
        assert!(reached > 1.0, "{label}: the epidemics must actually spread");
    }
}

/// `fig-cin-steady`'s trials: recent-list anti-entropy on the CIN under
/// its extreme distributions, one arena throughout.
fn spatial_steady_trials() {
    let net = cin(&CinConfig::default());
    let mut arena = SpatialSteadyArena::new();
    for (label, spatial) in [
        ("CIN steady, uniform", Spatial::Uniform),
        ("CIN steady, a = 2.0", Spatial::QsPower { a: 2.0 }),
    ] {
        // Warm-up: trials at twice the update rate grow every block past
        // what a trial at the figure's rate needs.
        let config = SpatialSteadyConfig::default();
        let busier = SpatialSteadyConfig {
            updates_per_cycle: 2.0 * config.updates_per_cycle,
            ..config
        };
        for seed in 0..4 {
            SpatialSteadySim::new(&net.topology, spatial, busier).run(&mut arena, seed);
        }
        let sim = SpatialSteadySim::new(&net.topology, spatial, config);
        let mut entries = 0.0;
        assert_warm_trials_do_not_allocate(label, |seed| {
            entries += black_box(sim.run(&mut arena, seed)).entries_per_link_cycle;
        });
        assert!(entries > 0.0, "{label}: updates must actually flow");
    }
}

/// `fig-pull-vs-push-rate`'s busiest trials, push and pull, one arena.
fn rumor_steady_trials() {
    let mut arena = RumorSteadyArena::new();
    let at_rate = |updates_per_cycle| RumorSteadyConfig {
        updates_per_cycle,
        ..RumorSteadyConfig::default()
    };
    for (label, direction) in [
        ("steady push, 4 upd/cycle", Direction::Push),
        ("steady pull, 4 upd/cycle", Direction::Pull),
    ] {
        let cfg = RumorConfig::new(direction, Feedback::Feedback, Removal::Counter { k: 2 });
        // Warm-up, as above: trials at twice the measured rate.
        for seed in 0..4 {
            RumorSteadySim::new(cfg, at_rate(8.0)).run(&mut arena, seed);
        }
        let sim = RumorSteadySim::new(cfg, at_rate(4.0));
        let mut coverage = 0.0;
        assert_warm_trials_do_not_allocate(label, |seed| {
            coverage += black_box(sim.run(&mut arena, seed)).coverage;
        });
        assert!(coverage > 0.0, "{label}: rumors must actually spread");
    }
}
