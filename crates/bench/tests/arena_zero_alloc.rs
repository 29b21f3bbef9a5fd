//! Pins the trial arenas with an allocator: once an arena is warm — its
//! replicas own the row, index and hot-list blocks their trials grow, its
//! counters, scratch and roster buffers are sized — every further trial on
//! it completes without asking the heap for a single byte. Covered: every
//! rumor variant on a [`MixingArena`]; Table 4's anti-entropy and §3.2's
//! push-pull rumor mongering on the CIN on a [`SpatialArena`]; steady-state
//! anti-entropy on the CIN on a [`SpatialSteadyArena`]; and steady-state
//! push and pull rumor mongering on a [`RumorSteadyArena`].
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
use epidemic_sim::spatial_ae::{AntiEntropySim, SpatialArena};
use epidemic_sim::spatial_rumor::SpatialRumorSim;
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
    spatial_trials();
    spatial_steady_trials();
    rumor_steady_trials();
}

fn mixing_trials() {
    let mut arena = MixingArena::new();

    // Warm-up: one epidemic that reaches every site, so no later trial is
    // the first to write to some replica.
    let warm =
        RumorEpidemic::new(SITES, counter(Direction::PushPull, 5)).run(&mut arena, 1, &mut ());
    assert!(warm.complete, "the warm-up must touch every replica");

    let push = RumorEpidemic::new(SITES, counter(Direction::Push, 2));
    let blind_coin = RumorConfig::new(Direction::Push, Feedback::Blind, Removal::Coin { k: 2 });
    let variants = [
        ("push (Table 1)", push),
        (
            "push, blind coin (Table 2)",
            RumorEpidemic::new(SITES, blind_coin),
        ),
        (
            "pull (Table 3)",
            RumorEpidemic::new(SITES, counter(Direction::Pull, 2)),
        ),
        (
            "push-pull",
            RumorEpidemic::new(SITES, counter(Direction::PushPull, 2)),
        ),
        ("push, sequential contacts", push.synchronous(false)),
        (
            "push, connection limit 1 with hunting",
            push.connection_limit(Some(1)).hunt_limit(2),
        ),
    ];
    for (label, driver) in variants {
        let mut reached = 0.0;
        assert_warm_trials_do_not_allocate(label, |seed| {
            let result = black_box(driver.run(&mut arena, seed, &mut ()));
            reached += 1.0 - result.residue;
        });
        assert!(reached > 1.0, "{label}: the epidemics must actually spread");
    }
}

fn counter(direction: Direction, k: u32) -> RumorConfig {
    RumorConfig::new(direction, Feedback::Feedback, Removal::Counter { k })
}

/// `table5`'s and `fig-spatial-rumor`'s trials on the CIN, one arena for
/// both drivers: anti-entropy under `a = 2.0` with connection limit 1,
/// and push-pull rumor mongering.
fn spatial_trials() {
    let net = cin(&CinConfig::default());
    let mut arena = SpatialArena::new();
    let anti_entropy =
        AntiEntropySim::new(&net.topology, Spatial::QsPower { a: 2.0 }).connection_limit(Some(1));
    let rumor = SpatialRumorSim::new(
        &net.topology,
        Spatial::QsPower { a: 2.0 },
        counter(Direction::PushPull, 8),
    );
    // Warm-up: anti-entropy reaches every site, so every replica has held
    // the update, and a few rumor runs size the rumor scratch.
    for seed in 0..4 {
        anti_entropy.run(&mut arena, seed, &mut ());
        rumor.run(&mut arena, seed, &mut ());
    }
    let mut converged = 0;
    assert_warm_trials_do_not_allocate("CIN anti-entropy, a = 2.0, limit 1", |seed| {
        converged += black_box(anti_entropy.run(&mut arena, seed, &mut ())).t_last;
    });
    assert!(converged > 0, "anti-entropy must actually spread");
    let mut reached = 0.0;
    assert_warm_trials_do_not_allocate("CIN push-pull rumor", |seed| {
        reached += 1.0 - black_box(rumor.run(&mut arena, seed, &mut ())).residue;
    });
    assert!(reached > 1.0, "the rumors must actually spread");
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
