//! Engine ↔ legacy driver equivalence fixture.
//!
//! `fixtures/engine_equivalence.txt` records, in `{:?}` (round-trip exact
//! for `f64`) formatting, the outputs of **every** simulation driver over a
//! grid of small configurations and seeds. The file was generated from the
//! pre-engine drivers; after the drivers were ported onto
//! `epidemic_sim::engine` the same entry points must reproduce it byte for
//! byte, proving the refactor preserved each driver's exact RNG draw
//! sequence (partner selection, hunting, coin flips, shuffles).
//!
//! To regenerate after an *intentional* behaviour change:
//!
//! ```text
//! cargo test -p epidemic-sim --test engine_equivalence -- --ignored regenerate
//! ```
//!
//! The property test at the bottom checks thread-count invariance over
//! *randomized* configurations, not just the fixed grid (run-twice
//! determinism is `trial_arenas.rs`'s reused-equals-fresh property).

use std::fmt::Write as _;

use epidemic_core::{Comparison, Direction, Feedback, Removal, RumorConfig};
use epidemic_net::{topologies, LinkTraffic, Spatial};
use epidemic_net::{PartnerSampler, Routes};
use epidemic_sim::engine::{RouteCharge, SirObserver, UniformPartners};
use epidemic_sim::event::AsyncSpatialSim;
use epidemic_sim::mixing::MixingArena;
use epidemic_sim::runner::TrialRunner;
use epidemic_sim::scenario::{bundled, AntiEntropySpec, ScenarioArena, ScenarioEngine};
use epidemic_sim::spatial::SpatialSim;

const FIXTURE: &str = include_str!("fixtures/engine_equivalence.txt");

/// Formats link traffic compactly but exactly: total plus per-link counts.
fn traffic(t: &LinkTraffic) -> String {
    format!("total={} counts={:?}", t.total(), t.counts())
}

/// The rumor-mongering configuration grid on 24 sites: every direction,
/// feedback and removal rule, synchronous and sequential rounds, connection
/// limits and hunting, counter reset and push-pull minimization.
fn rumor_grid() -> Vec<(&'static str, SpatialSim<'static, UniformPartners>)> {
    let counter = |k| Removal::Counter { k };
    let coin = |k| Removal::Coin { k };
    vec![
        (
            "push-fb-ctr1-sync",
            SpatialSim::mixing(
                24,
                RumorConfig::new(Direction::Push, Feedback::Feedback, counter(1)),
            ),
        ),
        (
            "push-blind-coin2-sync",
            SpatialSim::mixing(
                24,
                RumorConfig::new(Direction::Push, Feedback::Blind, coin(2)),
            ),
        ),
        (
            "pull-fb-ctr2-sync",
            SpatialSim::mixing(
                24,
                RumorConfig::new(Direction::Pull, Feedback::Feedback, counter(2)),
            ),
        ),
        (
            "pull-blind-coin1-sync",
            SpatialSim::mixing(
                24,
                RumorConfig::new(Direction::Pull, Feedback::Blind, coin(1)),
            ),
        ),
        (
            "pull-fb-coin2-sync",
            SpatialSim::mixing(
                24,
                RumorConfig::new(Direction::Pull, Feedback::Feedback, coin(2)),
            ),
        ),
        (
            "pushpull-fb-ctr2",
            SpatialSim::mixing(
                24,
                RumorConfig::new(Direction::PushPull, Feedback::Feedback, counter(2)),
            ),
        ),
        (
            "pushpull-fb-ctr2-min",
            SpatialSim::mixing(
                24,
                RumorConfig::new(Direction::PushPull, Feedback::Feedback, counter(2))
                    .with_minimization(),
            ),
        ),
        (
            "push-fb-ctr1-seq",
            SpatialSim::mixing(
                24,
                RumorConfig::new(Direction::Push, Feedback::Feedback, counter(1)),
            )
            .synchronous(false),
        ),
        (
            "pull-fb-ctr2-seq",
            SpatialSim::mixing(
                24,
                RumorConfig::new(Direction::Pull, Feedback::Feedback, counter(2)),
            )
            .synchronous(false),
        ),
        (
            "push-fb-ctr3-reset-seq",
            SpatialSim::mixing(
                24,
                RumorConfig::new(Direction::Push, Feedback::Feedback, counter(3))
                    .with_reset_on_useful(true),
            )
            .synchronous(false),
        ),
        (
            "push-fb-ctr2-limit1",
            SpatialSim::mixing(
                24,
                RumorConfig::new(Direction::Push, Feedback::Feedback, counter(2)),
            )
            .connection_limit(Some(1)),
        ),
        (
            "push-fb-ctr2-limit1-hunt4",
            SpatialSim::mixing(
                24,
                RumorConfig::new(Direction::Push, Feedback::Feedback, counter(2)),
            )
            .connection_limit(Some(1))
            .hunt_limit(4),
        ),
    ]
}

/// Builds the full fixture text from the current driver implementations.
#[allow(clippy::too_many_lines)]
fn build_fixture() -> String {
    let mut out = String::new();

    // --- spatial::SpatialSim::mixing ----------------------------------
    // One arena through every mixing run: a reused arena must print
    // exactly what fresh state did.
    let mut mixing_arena = MixingArena::new();
    for (tag, epidemic) in rumor_grid() {
        for seed in 0..4u64 {
            let r = epidemic.run(&mut mixing_arena, seed, &mut ());
            writeln!(out, "mixing/{tag} seed={seed} => {r:?}").unwrap();
        }
    }
    // SIR trace: pins the per-cycle observation points.
    let mut sir = SirObserver::new();
    let result = SpatialSim::mixing(
        24,
        RumorConfig::new(
            Direction::Push,
            Feedback::Feedback,
            Removal::Counter { k: 1 },
        ),
    )
    .run(&mut mixing_arena, 0, &mut sir);
    writeln!(
        out,
        "mixing/traced seed=0 => SirTrace {{ points: {:?}, result: {result:?} }}",
        sir.points
    )
    .unwrap();

    // --- spatial::SpatialSim, complete-mixing anti-entropy --------------
    // Printed in the line shape of the driver that once ran it, with the
    // per-cycle susceptible trace that result once carried, now read off
    // the SIR observer's points after cycles 1, 2, ...
    for direction in [Direction::Push, Direction::Pull, Direction::PushPull] {
        for seed in 0..3u64 {
            let mut sir = SirObserver::new();
            let r = SpatialSim::anti_entropy(32, direction).run(&mut mixing_arena, seed, &mut sir);
            let trace: Vec<f64> = sir.points[1..].iter().map(|p| p.0).collect();
            writeln!(
                out,
                "ae-mixing/{direction:?} seed={seed} => AntiEntropyRun {{ cycles: {}, \
                 susceptible_trace: {trace:?}, complete: {} }}",
                r.cycles, r.complete,
            )
            .unwrap();
        }
    }

    // --- spatial::SpatialSim, anti-entropy -----------------------------
    // The same arena through both mechanisms and both topologies, each
    // printed in the line shape of the driver that once ran it, with the
    // links a `RouteCharge` charged.
    let mut counters = <[LinkTraffic; 2]>::default();
    let grid = topologies::grid(&[4, 4]);
    let ring = topologies::ring(12);
    for (topo_tag, topo) in [("grid4x4", &grid), ("ring12", &ring)] {
        let routes = Routes::compute(topo);
        for (sp_tag, spatial) in [
            ("uniform", Spatial::Uniform),
            ("qs2", Spatial::QsPower { a: 2.0 }),
        ] {
            for (lim_tag, limit, hunt) in [("nolimit", None, 0u32), ("limit1-hunt2", Some(1), 2u32)]
            {
                let sim = SpatialSim::new(topo, &routes, spatial)
                    .connection_limit(limit)
                    .hunt_limit(hunt);
                for seed in 0..3u64 {
                    let mut charge = RouteCharge::new(topo, &routes, 0, &mut counters);
                    let r = sim.run(&mut mixing_arena, seed, &mut charge);
                    writeln!(
                        out,
                        "spatial-ae/{topo_tag}/{sp_tag}/{lim_tag} seed={seed} => \
                         t_last={} t_ave={:?} cycles={} cmp[{}] upd[{}]",
                        r.t_last,
                        r.t_ave,
                        r.cycles,
                        traffic(charge.compare),
                        traffic(charge.update),
                    )
                    .unwrap();
                }
            }
        }
    }

    // --- spatial::SpatialSim, rumor mongering --------------------------
    let routes = Routes::compute(&ring);
    for direction in [Direction::Push, Direction::Pull, Direction::PushPull] {
        let cfg = RumorConfig::new(direction, Feedback::Feedback, Removal::Counter { k: 2 });
        let sim = SpatialSim::new(&ring, &routes, Spatial::QsPower { a: 1.5 }).rumor(cfg);
        for seed in 0..3u64 {
            let mut charge = RouteCharge::new(&ring, &routes, 0, &mut counters);
            let r = sim.run(&mut mixing_arena, seed, &mut charge);
            let susceptible: Vec<_> = (0..ring.sites().len())
                .filter(|&i| !mixing_arena.received().is_marked(i))
                .map(|i| ring.sites()[i])
                .collect();
            writeln!(
                out,
                "spatial-rumor/ring12/{direction:?} seed={seed} => \
                 complete={} residue={:?} t_last={} t_ave={:?} cycles={} \
                 susceptible={susceptible:?} cmp[{}] upd[{}]",
                r.complete,
                r.residue,
                r.t_last,
                r.t_ave,
                r.cycles,
                traffic(charge.compare),
                traffic(charge.update),
            )
            .unwrap();
        }
    }

    // --- the bundled churn spec on a uniform 4x4 grid -------------------
    // Printed in the shape of the retired churn driver's result, whose
    // lines the fixture recorded. One scenario arena serves every run
    // from here on: a reused arena must print exactly what fresh replicas
    // did.
    let mut arena = ScenarioArena::new();
    let routes = Routes::compute(&grid);
    let sampler = PartnerSampler::new(&grid, &routes, Spatial::Uniform);
    for (tag, fail, recover) in [("mild", 0.05, 0.5), ("harsh", 0.3, 0.3)] {
        let spec = bundled::churn(grid.sites().len(), fail, recover);
        let engine = ScenarioEngine::new(spec).expect("churn spec is valid");
        for seed in 0..3u64 {
            let r = engine.run_with_policy(&mut arena, seed, &sampler, Some(grid.sites()), &mut ());
            writeln!(
                out,
                "churn/{tag} seed={seed} => ChurnRunResult {{ t_last: {}, complete: {}, \
                 observed_down_fraction: {:?} }}",
                r.cycles,
                r.residue == 0.0,
                r.down_fraction,
            )
            .unwrap();
        }
    }

    // --- steady workloads on the scenario engine, printed in their three
    // retired drivers' shapes.
    let ratio = |count: u64, over: u64| count as f64 / over as f64;
    let mut window = bundled::steady(24, 1.0, [5, 10, 0]);
    for (tag, comparison) in [
        ("full", Comparison::Full),
        ("checksum", Comparison::Checksum),
        ("recent400", Comparison::RecentList { tau: 40 }),
        ("peelback", Comparison::PeelBack),
    ] {
        window.protocol.anti_entropy = Some(AntiEntropySpec::every_cycle(comparison));
        let engine = ScenarioEngine::new(window.clone()).unwrap();
        for seed in 0..2u64 {
            let r = engine.run(&mut arena, seed, &mut ());
            writeln!(
                out,
                "steady/{tag} seed={seed} => SteadyStateReport {{ full_compare_rate: {:?}, \
                 entries_per_exchange: {:?}, scanned_per_exchange: {:?}, final_db_len: {} }}",
                ratio(r.full_compares, r.totals.contacts),
                ratio(r.totals.sent, r.totals.contacts),
                ratio(r.scanned, r.totals.contacts),
                arena.replicas()[0].db().len(),
            )
            .unwrap();
        }
    }

    let mut drained = bundled::steady(24, 0.5, [0, 10, 20]);
    for direction in [Direction::Push, Direction::Pull, Direction::PushPull] {
        let cfg = RumorConfig::new(direction, Feedback::Feedback, Removal::Counter { k: 2 });
        drained.protocol.rumor = Some(cfg);
        let engine = ScenarioEngine::new(drained.clone()).unwrap();
        for seed in 0..2u64 {
            let r = engine.run(&mut arena, seed, &mut ());
            let cycles = u64::from(r.cycles);
            writeln!(
                out,
                "rumor-steady/{direction:?} seed={seed} => RumorSteadyReport {{ injected: {}, \
                 coverage: {:?}, messages_per_delivery: {:?}, fruitless_per_cycle: {:?}, \
                 contacts_per_cycle: {:?} }}",
                r.updates,
                r.coverage,
                ratio(r.totals.sent, r.totals.useful),
                ratio(r.totals.fruitless, cycles),
                ratio(r.totals.contacts, cycles),
            )
            .unwrap();
        }
    }

    let mut measured = bundled::steady(12, 1.0, [4, 8, 0]);
    let recent = AntiEntropySpec::every_cycle(Comparison::RecentList { tau: 40 });
    measured.protocol.anti_entropy = Some(recent);
    let (recent, routes) = (
        ScenarioEngine::new(measured).unwrap(),
        Routes::compute(&ring),
    );
    for (sp_tag, spatial) in [
        ("uniform", Spatial::Uniform),
        ("qs15", Spatial::QsPower { a: 1.5 }),
    ] {
        let sampler = PartnerSampler::new(&ring, &routes, spatial);
        for seed in 0..2u64 {
            let mut charge = RouteCharge::new(&ring, &routes, 4, &mut counters);
            let sites = Some(ring.sites());
            let r = recent.run_with_policy(&mut arena, seed, &sampler, sites, &mut charge);
            let per_cycle = |count: f64| count / 8.0;
            let (compare, update) = (&charge.compare, &charge.update);
            writeln!(
                out,
                "spatial-steady/ring12/{sp_tag} seed={seed} => \
                 conv={:?} entries={:?} full={:?} measured={} traffic[{}]",
                per_cycle(compare.mean_per_link()),
                per_cycle(update.mean_per_link()),
                ratio(r.full_compares, r.totals.contacts),
                r.cycles - 4,
                traffic(update),
            )
            .unwrap();
        }
    }

    // --- event::AsyncSpatialSim ----------------------------------------
    let async_ae = AsyncSpatialSim::new(&ring, &routes, Spatial::QsPower { a: 1.5 }, 0.3);
    for seed in 0..2u64 {
        let mut charge = RouteCharge::new(&ring, &routes, 0, &mut counters);
        let r = async_ae.run(&mut mixing_arena, seed, None, &mut charge);
        writeln!(
            out,
            "async-ae/ring12 seed={seed} => t_last={:?} t_ave={:?} exchanges={} \
             per_period={:?} cmp[{}] upd[{}]",
            r.t_last,
            r.t_ave,
            r.exchanges,
            charge.compare.mean_per_link() / r.t_last.max(1.0),
            traffic(charge.compare),
            traffic(charge.update),
        )
        .unwrap();
    }

    out
}

#[test]
fn drivers_match_recorded_fixture() {
    let actual = build_fixture();
    if actual != FIXTURE {
        // Report the first diverging line — a full assert_eq! dump of two
        // multi-kilobyte strings is unreadable.
        for (i, (a, f)) in actual.lines().zip(FIXTURE.lines()).enumerate() {
            assert_eq!(a, f, "first divergence at fixture line {}", i + 1);
        }
        assert_eq!(
            actual.lines().count(),
            FIXTURE.lines().count(),
            "fixture line count changed"
        );
        unreachable!("strings differ but no line diverged");
    }
}

#[test]
#[ignore = "overwrites the checked-in fixture"]
fn regenerate() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures");
    std::fs::create_dir_all(dir).expect("create fixtures dir");
    std::fs::write(format!("{dir}/engine_equivalence.txt"), build_fixture())
        .expect("write fixture");
}

// ---------------------------------------------------------------------
// Randomized determinism properties (the part of the harness that remains
// meaningful after the legacy driver bodies are gone).
// ---------------------------------------------------------------------

use proptest::prelude::*;

fn arb_cfg() -> impl Strategy<Value = RumorConfig> {
    (0u8..3, any::<bool>(), any::<bool>(), 1u32..4).prop_map(|(dir, fb, coin, k)| {
        let direction = match dir {
            0 => Direction::Push,
            1 => Direction::Pull,
            _ => Direction::PushPull,
        };
        let feedback = if fb {
            Feedback::Feedback
        } else {
            Feedback::Blind
        };
        let removal = if coin {
            Removal::Coin { k }
        } else {
            Removal::Counter { k }
        };
        RumorConfig::new(direction, feedback, removal)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Multi-trial fan-out is thread-count invariant for any configuration.
    #[test]
    fn rumor_trials_are_thread_invariant(
        cfg in arb_cfg(),
        n in 4usize..16,
        seed in any::<u64>(),
    ) {
        let epidemic = SpatialSim::mixing(n, cfg);
        let trials = |threads| {
            TrialRunner::new().threads(threads).fold_with(
                6,
                seed,
                MixingArena::new,
                |arena, seed| epidemic.run(arena, seed, &mut ()),
                Vec::new(),
                |mut results, r| {
                    results.push(r);
                    results
                },
            )
        };
        prop_assert_eq!(trials(1), trials(4));
    }
}
