//! Trial arenas are invisible: a run on an arena that earlier runs have
//! used — other drivers, topologies, site counts, directions, feedback and
//! removal rules, round semantics, connection limits — equals a run on
//! fresh state, field for field and event for event. Covered, each on a
//! [`MixingArena`]: every complete-mixing variant of [`SpatialSim::mixing`];
//! and [`SpatialSim`]'s anti-entropy and every rumor variant on a
//! topology, and [`AsyncSpatialSim`] with and without jitter, with their
//! receive logs and the link counters a [`RouteCharge`] filled.

use epidemic_core::{Direction, Feedback, Removal, RumorConfig};
use epidemic_net::{topologies, LinkTraffic, Routes, Spatial, Topology};
use epidemic_sim::engine::{RouteCharge, UniformPartners};
use epidemic_sim::event::AsyncSpatialSim;
use epidemic_sim::{MixingArena, SpatialSim};
use epidemic_trace::{InvariantChecker, RunTracer, TraceConfig};
use proptest::prelude::*;

fn rumor_config() -> impl Strategy<Value = RumorConfig> {
    (0u8..3, any::<bool>(), any::<bool>(), 1u32..4).prop_map(|(direction, feedback, counter, k)| {
        let direction =
            [Direction::Push, Direction::Pull, Direction::PushPull][usize::from(direction)];
        let feedback = if feedback {
            Feedback::Feedback
        } else {
            Feedback::Blind
        };
        let removal = if counter {
            Removal::Counter { k }
        } else {
            Removal::Coin { k }
        };
        RumorConfig::new(direction, feedback, removal)
    })
}

/// One mixing run: a driver and a seed.
fn trial() -> impl Strategy<Value = (SpatialSim<'static, UniformPartners>, u64)> {
    (
        rumor_config(),
        (any::<bool>(), 0u32..3, 0u32..3),
        (2usize..90, any::<u64>()),
    )
        .prop_map(|(cfg, (synchronous, limit, hunt), (n, seed))| {
            let driver = SpatialSim::mixing(n, cfg)
                .synchronous(synchronous)
                .connection_limit((limit > 0).then_some(limit))
                .hunt_limit(hunt);
            (driver, seed)
        })
}

/// The topologies the spatial runs draw from: different site and link
/// counts, so a reused arena has always held some other shape.
fn topology(which: usize) -> Topology {
    match which {
        0 => topologies::ring(12),
        1 => topologies::grid(&[4, 5]),
        _ => topologies::line(9),
    }
}

/// One spatial run: which mechanism (anti-entropy, rumor, or event-driven
/// anti-entropy with jitter 0.3 or 0), which topology, which distribution,
/// and the seed.
fn spatial_trial() -> impl Strategy<Value = (u8, usize, f64, RumorConfig, u64)> {
    (0u8..4, 0usize..3, 0.0f64..2.5, rumor_config(), any::<u64>())
}

/// Runs one spatial trial on `arena`, charging its links, under a full
/// trace and the invariant checker, returning the driver's result with its
/// receive log and link counters, the trace, and whether the checker
/// stayed clean.
fn spatial_run(
    (mechanism, which, a, cfg, seed): (u8, usize, f64, RumorConfig, u64),
    arena: &mut MixingArena,
) -> (String, String, bool) {
    let topo = topology(which);
    let routes = Routes::compute(&topo);
    let spatial = if a < 0.5 {
        Spatial::Uniform
    } else {
        Spatial::QsPower { a }
    };
    let mut trace = RunTracer::new(TraceConfig::full());
    let mut check = InvariantChecker::default();
    let mut counters = <[LinkTraffic; 2]>::default();
    let mut charge = RouteCharge::new(&topo, &routes, 0, &mut counters);
    let observer = &mut (&mut charge, (&mut trace, &mut check));
    let sim = SpatialSim::new(&topo, &routes, spatial);
    let result = match mechanism {
        0 | 1 => {
            let sim = if mechanism == 0 { sim } else { sim.rumor(cfg) };
            format!("{:?}", sim.run(arena, seed, observer))
        }
        _ => {
            let jitter = if mechanism == 2 { 0.3 } else { 0.0 };
            let sim = AsyncSpatialSim::new(&topo, &routes, spatial, jitter);
            format!("{:?}", sim.run(arena, seed, None, observer))
        }
    };
    let result = format!("{result} {:?} {counters:?}", arena.received());
    (result, trace.finish(), check.violation_count() == 0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn a_used_mixing_arena_runs_like_a_fresh_one(
        earlier in prop::collection::vec(trial(), 0..5),
        (driver, seed) in trial(),
    ) {
        let mut arena = MixingArena::new();
        for (earlier, seed) in &earlier {
            earlier.run(&mut arena, *seed, &mut ());
        }
        let mut trace = RunTracer::new(TraceConfig::full());
        let mut check = InvariantChecker::default();
        let reused = driver.run(&mut arena, seed, &mut (&mut trace, &mut check));
        prop_assert_eq!(check.violation_count(), 0, "{:?}", check.violations());

        let mut fresh_trace = RunTracer::new(TraceConfig::full());
        let fresh = driver.run(&mut MixingArena::new(), seed, &mut fresh_trace);
        prop_assert_eq!(reused, fresh);
        prop_assert_eq!(trace.finish(), fresh_trace.finish());
    }

    #[test]
    fn a_used_spatial_arena_runs_like_a_fresh_one(
        earlier in prop::collection::vec(spatial_trial(), 1..4),
        last in spatial_trial(),
    ) {
        let mut arena = MixingArena::new();
        for t in &earlier {
            spatial_run(*t, &mut arena);
        }
        let (reused, reused_trace, clean) = spatial_run(last, &mut arena);
        prop_assert!(clean);
        let (fresh, fresh_trace, _) = spatial_run(last, &mut MixingArena::new());
        prop_assert_eq!(reused, fresh);
        prop_assert_eq!(reused_trace, fresh_trace);
    }
}
