//! Pins the trial arenas with an allocator: once an arena is warm — its
//! replicas own the row, index and hot-list blocks their trials grow, its
//! counters, scratch and roster buffers are sized — every further trial on
//! it completes without asking the heap for a single byte. Covered: every
//! complete-mixing rumor variant and §1.3's anti-entropy on a
//! [`MixingArena`]; Table 5's
//! anti-entropy (warmed by one run, so later trials seed origins it never
//! did) and §3.2's push-pull rumor mongering on the CIN, each trial taking
//! its arena and link counters from one pool and charging its links as
//! `table45_on` does; `fig-async`'s event-driven anti-entropy on a
//! [`MixingArena`] and a caller's charge; and the three steady-state
//! figures' trials and the mail-carrying `clearinghouse` scenario on one
//! [`ScenarioArena`], whose first run sizes every store once.
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
use epidemic_core::{Comparison, Direction, Feedback, Removal, RumorConfig};
use epidemic_net::topologies::{cin, Cin, CinConfig};
use epidemic_net::{LinkTraffic, PartnerSampler, Routes, Spatial};
use epidemic_sim::engine::RouteCharge;
use epidemic_sim::event::AsyncSpatialSim;
use epidemic_sim::runner::Arenas;
use epidemic_sim::scenario::{
    bundled, AntiEntropySpec, Scenario, ScenarioArena, ScenarioEngine, ScenarioReport,
};
use epidemic_sim::{EpidemicResult, MixingArena, SpatialSim};

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
    let net = cin(&CinConfig::default());
    mixing_trials();
    spatial_trials(&net);
    async_trials(&net);
    cold_steady_run();
    steady_trials(&net);
}

fn mixing_trials() {
    let mut arena = MixingArena::new();

    // Warm-up: one epidemic that reaches every site, so no later trial is
    // the first to write to some replica.
    let warm =
        SpatialSim::mixing(SITES, counter(Direction::PushPull, 5)).run(&mut arena, 1, &mut ());
    assert!(warm.complete, "the warm-up must touch every replica");

    let mix = |cfg| SpatialSim::mixing(SITES, cfg);
    let push = mix(counter(Direction::Push, 2));
    let blind_coin = RumorConfig::new(Direction::Push, Feedback::Blind, Removal::Coin { k: 2 });
    let variants = [
        ("push (Table 1)", push),
        ("push, blind coin (Table 2)", mix(blind_coin)),
        ("pull (Table 3)", mix(counter(Direction::Pull, 2))),
        ("push-pull", mix(counter(Direction::PushPull, 2))),
        ("push, sequential contacts", push.synchronous(false)),
        (
            "push, connection limit 1 with hunting",
            push.connection_limit(Some(1)).hunt_limit(2),
        ),
        (
            "pull anti-entropy (§1.3)",
            SpatialSim::anti_entropy(SITES, Direction::Pull),
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

/// `table5`'s and `fig-spatial-rumor`'s trials on the CIN, one pool for
/// both mechanisms — anti-entropy under `a = 2.0` with connection limit 1,
/// and push-pull rumor mongering — each trial taking its arena and link
/// counters from the pool and charging its links, as `table45_on` does.
fn spatial_trials(net: &Cin) {
    let (topo, routes) = (&net.topology, Routes::compute(&net.topology));
    let pool = Arenas::<(MixingArena, [LinkTraffic; 2])>::default();
    let charged = |sim: &SpatialSim<'_>, seed| -> (EpidemicResult, u64) {
        let mut state = pool.take();
        let (arena, counters) = &mut *state;
        let mut charge = RouteCharge::new(topo, &routes, 0, counters);
        let r = sim.run(arena, seed, &mut charge);
        (r, charge.compare.total())
    };
    let a2 = SpatialSim::new(topo, &routes, Spatial::QsPower { a: 2.0 });
    let anti_entropy = a2.clone().connection_limit(Some(1));
    let rumor = a2.rumor(counter(Direction::PushPull, 8));
    // Warm-up: one anti-entropy run reaches every site, so every replica
    // has held the update; the trials then seed origins it never did.
    charged(&anti_entropy, 0);
    let (mut converged, mut charged_links) = (0.0, 0);
    assert_warm_trials_do_not_allocate("CIN anti-entropy, a = 2.0, limit 1", |seed| {
        let (r, compare) = black_box(charged(&anti_entropy, seed));
        converged += r.t_last;
        charged_links += compare;
    });
    assert!(
        converged > 0.0 && charged_links > 0,
        "anti-entropy must spread, charged"
    );
    // A few rumor runs size the rumor scratch.
    for seed in 0..4 {
        charged(&rumor, seed);
    }
    let mut reached = 0.0;
    assert_warm_trials_do_not_allocate("CIN push-pull rumor", |seed| {
        reached += 1.0 - black_box(charged(&rumor, seed)).0.residue;
    });
    assert!(reached > 1.0, "the rumors must actually spread");
}

/// `fig-async`'s event-driven trials on the CIN, under uniform and Qs^-2
/// selection, on one arena and one pair of link counters.
fn async_trials(net: &Cin) {
    let (topo, routes) = (&net.topology, Routes::compute(&net.topology));
    let mut arena = MixingArena::new();
    let mut counters = <[LinkTraffic; 2]>::default();
    for spatial in [Spatial::Uniform, Spatial::QsPower { a: 2.0 }] {
        let sim = AsyncSpatialSim::new(topo, &routes, spatial, 0.3);
        let mut run = |seed| {
            let mut charge = RouteCharge::new(topo, &routes, 0, &mut counters);
            sim.run(&mut arena, seed, None, &mut charge)
        };
        // Warm-up: one run, as `fig-async`'s first; the update reaches
        // every replica, and the origin is seeded without a hot list.
        run(0);
        let mut exchanges = 0;
        assert_warm_trials_do_not_allocate(&format!("CIN event-driven, {spatial:?}"), |seed| {
            exchanges += black_box(run(seed)).exchanges;
        });
        assert!(
            exchanges > 0,
            "the event-driven runs must actually exchange"
        );
    }
}

/// `fig-pull-vs-push-rate`'s busiest pull trial on a fresh arena: its
/// stores are sized once for the 400 keys the spec can mint, two blocks a
/// site, where growing them by doubling took ≈ 20.
fn cold_steady_run() {
    let mut spec = bundled::steady(200, 4.0, [0, 100, 200]);
    spec.protocol.rumor = Some(counter(Direction::Pull, 2));
    let engine = ScenarioEngine::new(spec).expect("a steady spec is valid");
    let before = allocations();
    let report = black_box(engine.run(&mut ScenarioArena::new(), 5, &mut ()));
    let cold = allocations() - before;
    assert!(report.coverage > 0.99, "the updates must reach every site");
    assert!(cold < 10 * 200, "{cold} allocations in a cold steady run");
}

/// The steady figures' trials, one arena throughout: `fig-checksum-window`'s
/// anti-entropy under each kind of comparison, `fig-cin-steady`'s on the
/// CIN under its extreme distributions, and `fig-pull-vs-push-rate`'s
/// busiest push and pull trials.
fn steady_trials(net: &Cin) {
    let ae = |mut spec: Scenario, comparison| {
        spec.protocol.anti_entropy = Some(AntiEntropySpec::every_cycle(comparison));
        spec
    };
    let mut arena = ScenarioArena::new();
    for comparison in [
        Comparison::Full,
        Comparison::Checksum,
        Comparison::RecentList { tau: 1 },
        Comparison::PeelBack,
    ] {
        let label = format!("checksum window, {comparison:?}");
        let spec = |rate| ae(bundled::steady(60, rate, [30, 100, 0]), comparison);
        steady_case(&mut arena, &label, 1.0, spec, |arena, engine, seed| {
            engine.run(arena, seed, &mut ())
        });
    }
    let (sites, routes) = (net.topology.sites(), Routes::compute(&net.topology));
    let mut counters = <[LinkTraffic; 2]>::default();
    for spatial in [Spatial::Uniform, Spatial::QsPower { a: 2.0 }] {
        let sampler = PartnerSampler::new(&net.topology, &routes, spatial);
        let recent = Comparison::RecentList { tau: 40 };
        let spec = |rate| ae(bundled::steady(sites.len(), rate, [20, 60, 0]), recent);
        let label = format!("CIN steady, {spatial:?}");
        steady_case(&mut arena, &label, 2.0, spec, |arena, engine, seed| {
            let mut charge = RouteCharge::new(&net.topology, &routes, 20, &mut counters);
            engine.run_with_policy(arena, seed, &sampler, Some(sites), &mut charge)
        });
    }
    for direction in [Direction::Push, Direction::Pull] {
        let spec = |rate| {
            let mut spec = bundled::steady(200, rate, [0, 100, 200]);
            spec.protocol.rumor = Some(counter(direction, 2));
            spec
        };
        let label = format!("steady {direction:?}");
        steady_case(&mut arena, &label, 4.0, spec, |arena, engine, seed| {
            engine.run(arena, seed, &mut ())
        });
    }
    // The arena keeps the mail transport too.
    let spec = bundled::by_name("clearinghouse").expect("bundled");
    let mail = ScenarioEngine::new(spec).expect("a bundled spec is valid");
    for seed in 0..4 {
        mail.run(&mut arena, seed, &mut ());
    }
    let mut delivered = 0;
    assert_warm_trials_do_not_allocate("clearinghouse (mail)", |seed| {
        let report = black_box(mail.run(&mut arena, seed, &mut ()));
        delivered += report.mail.expect("a mail line").delivered;
    });
    assert!(delivered > 0, "clearinghouse: mail must actually flow");
}

/// Warms `arena` with trials at twice `rate` — they grow every block past
/// what a trial at the rate needs — then pins that trials of `spec(rate)`
/// allocate nothing.
fn steady_case(
    arena: &mut ScenarioArena,
    label: &str,
    rate: f64,
    spec: impl Fn(f64) -> Scenario,
    mut run: impl FnMut(&mut ScenarioArena, &ScenarioEngine, u64) -> ScenarioReport,
) {
    let busier = ScenarioEngine::new(spec(2.0 * rate)).expect("a steady spec is valid");
    for seed in 0..4 {
        run(arena, &busier, seed);
    }
    let engine = ScenarioEngine::new(spec(rate)).expect("a steady spec is valid");
    let mut sent = 0;
    assert_warm_trials_do_not_allocate(label, |seed| {
        sent += black_box(run(arena, &engine, seed)).totals.sent;
    });
    assert!(sent > 0, "{label}: updates must actually flow");
}
