//! Equivalence pins for the scenario subsystem's engine lowering.
//!
//! Two families:
//!
//! * **The churn spec is the churn driver, RNG-identically.** The bundled
//!   `churn` spec with a random origin and the caller's churn rates
//!   (`bundled::churn`), run
//!   through `ScenarioEngine::run_with_policy` on a topology's sampler (as
//!   `ablation-churn` runs it on the CIN), is checked against a verbatim
//!   copy of the hand-rolled protocol it replaced: t_last, completeness
//!   and the observed down fraction are *exactly* equal across seeds and
//!   churn regimes.
//!
//! * **An empty fault timeline is the plain engine.** A scenario whose
//!   only event is the cycle-0 injection, running one rumor protocol,
//!   reproduces `SpatialSim::mixing` (sequential-contact semantics) exactly:
//!   same cycle count, residue and per-site traffic for every direction.

use epidemic_core::rumor::{Feedback, Removal, RumorConfig};
use epidemic_core::{AntiEntropy, Comparison, Direction, ExchangeScratch, Replica};
use epidemic_net::{topologies, PartnerSampler, Routes, Spatial, Topology};
use epidemic_sim::engine::{ContactStats, CycleEngine, EngineBuffers, EpidemicProtocol};
use epidemic_sim::scenario::{
    bundled, FaultEvent, FaultKind, Scenario, ScenarioArena, ScenarioEngine, StopRule,
};
use epidemic_sim::{MixingArena, SpatialSim};
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::{RngExt, SeedableRng};

// ---------------------------------------------------------------------------
// Verbatim copy of the pre-refactor churned anti-entropy driver.
// ---------------------------------------------------------------------------

const KEY: u32 = 0;

/// Per-cycle transition probabilities of each site's up/down chain.
#[derive(Debug, Clone, Copy)]
struct Churn {
    fail: f64,
    recover: f64,
}

/// What a churn run is judged by.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ChurnRunResult {
    t_last: u32,
    complete: bool,
    observed_down_fraction: f64,
}

fn pair_mut<T>(slice: &mut [T], i: usize, j: usize) -> (&mut T, &mut T) {
    let [a, b] = slice.get_disjoint_mut([i, j]).expect("two distinct sites");
    (a, b)
}

struct LegacyChurnedProtocol {
    exchange: AntiEntropy,
    churn: Churn,
    replicas: Vec<Replica<u32, u32>>,
    up: Vec<bool>,
    have: Vec<bool>,
    have_count: usize,
    down_cycles: u64,
    scratch: ExchangeScratch<u32>,
}

impl EpidemicProtocol for LegacyChurnedProtocol {
    fn site_count(&self) -> usize {
        self.replicas.len()
    }

    fn finished(&self, _cycle: u32, _active: &[usize]) -> bool {
        self.have_count == self.replicas.len()
    }

    fn begin_cycle(&mut self, _cycle: u32, rng: &mut StdRng) {
        for status in self.up.iter_mut() {
            if *status {
                if rng.random::<f64>() < self.churn.fail {
                    *status = false;
                }
            } else if rng.random::<f64>() < self.churn.recover {
                *status = true;
            }
        }
        self.down_cycles += self.up.iter().filter(|&&u| !u).count() as u64;
    }

    fn initiates(&self, i: usize) -> bool {
        self.up[i]
    }

    fn admits(&self, j: usize) -> bool {
        self.up[j]
    }

    fn contact(&mut self, _cycle: u32, i: usize, j: usize, _rng: &mut StdRng) -> ContactStats {
        let (a, b) = pair_mut(&mut self.replicas, i, j);
        let stats = self.exchange.exchange_with(a, b, &mut self.scratch);
        let flowed = stats.update_flowed();
        if flowed {
            for idx in [i, j] {
                if !self.have[idx] && self.replicas[idx].db().entry(&KEY).is_some() {
                    self.have[idx] = true;
                    self.have_count += 1;
                }
            }
        }
        ContactStats {
            sent: u64::from(flowed),
            useful: u64::from(flowed),
        }
    }
}

fn legacy_churn_run(
    topology: &Topology,
    spatial: Spatial,
    churn: Churn,
    seed: u64,
) -> ChurnRunResult {
    let routes = Routes::compute(topology);
    let sampler = PartnerSampler::new(topology, &routes, spatial);
    let mut rng = StdRng::seed_from_u64(seed);
    let sites = topology.sites();
    let n = sites.len();
    let mut replicas: Vec<Replica<u32, u32>> = sites.iter().map(|&s| Replica::new(s)).collect();
    let origin = *sites.choose(&mut rng).expect("sites");
    let origin_idx = sites.binary_search(&origin).expect("site exists");
    replicas[origin_idx].client_update(KEY, 1);
    replicas[origin_idx].hot_mut().clear();
    let mut have = vec![false; n];
    have[origin_idx] = true;

    let mut protocol = LegacyChurnedProtocol {
        exchange: AntiEntropy::new(Direction::PushPull, Comparison::Full),
        churn,
        replicas,
        up: vec![true; n],
        have,
        have_count: 1,
        down_cycles: 0,
        scratch: ExchangeScratch::new(),
    };
    let report = CycleEngine::new().max_cycles(50_000).run(
        &mut protocol,
        &sampler,
        &mut rng,
        &mut (),
        &mut EngineBuffers::default(),
    );

    let cycle = report.cycles;
    ChurnRunResult {
        t_last: cycle,
        complete: protocol.have_count == n,
        observed_down_fraction: if cycle == 0 {
            0.0
        } else {
            protocol.down_cycles as f64 / (f64::from(cycle) * n as f64)
        },
    }
}

#[test]
fn scenario_lowering_matches_legacy_churn_driver_exactly() {
    let cases = [
        (
            topologies::grid(&[6, 6]),
            Spatial::Uniform,
            Churn {
                fail: 0.1,
                recover: 0.2,
            },
        ),
        (
            topologies::grid(&[4, 5]),
            Spatial::QsPower { a: 2.0 },
            Churn {
                fail: 0.05,
                recover: 0.5,
            },
        ),
        (
            topologies::ring(12),
            Spatial::Uniform,
            Churn {
                fail: 0.0,
                recover: 1.0,
            },
        ),
    ];
    for (topo, spatial, churn) in cases {
        let routes = Routes::compute(&topo);
        let sampler = PartnerSampler::new(&topo, &routes, spatial);
        let spec = bundled::churn(topo.sites().len(), churn.fail, churn.recover);
        let engine = ScenarioEngine::new(spec).expect("valid");
        for seed in 0..8 {
            let legacy = legacy_churn_run(&topo, spatial, churn, seed);
            let arena = &mut ScenarioArena::new();
            let r = engine.run_with_policy(arena, seed, &sampler, Some(topo.sites()), &mut ());
            let new = ChurnRunResult {
                t_last: r.cycles,
                complete: r.residue == 0.0,
                observed_down_fraction: r.down_fraction,
            };
            assert_eq!(
                new, legacy,
                "churn lowering diverged (seed {seed}, {churn:?})"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Empty fault timeline ≡ plain engine, per rumor direction.
// ---------------------------------------------------------------------------

fn rumor_scenario(n: usize, cfg: RumorConfig) -> Scenario {
    let mut spec = Scenario::new("diff", n);
    spec.protocol.rumor = Some(cfg);
    spec.events = vec![FaultEvent {
        cycle: 0,
        kind: FaultKind::Update {
            site: Some(0),
            count: 1,
        },
    }];
    spec.until = StopRule::Quiescent;
    spec.max_cycles = 100_000;
    spec
}

#[test]
fn empty_timeline_scenario_matches_plain_rumor_engine() {
    for direction in [Direction::Push, Direction::Pull, Direction::PushPull] {
        let cfg = RumorConfig::new(direction, Feedback::Feedback, Removal::Counter { k: 2 });
        let engine = ScenarioEngine::new(rumor_scenario(128, cfg)).expect("valid spec");
        let plain_driver = SpatialSim::mixing(128, cfg).synchronous(false);
        let mut arena = MixingArena::new();
        for seed in 0..6 {
            let plain = plain_driver.run(&mut arena, seed, &mut ());
            let report = engine.run(&mut ScenarioArena::new(), seed, &mut ());
            assert_eq!(report.cycles, plain.cycles, "{direction:?} seed {seed}");
            assert_eq!(report.residue, plain.residue, "{direction:?} seed {seed}");
            assert_eq!(
                report.traffic_per_site, plain.traffic,
                "{direction:?} seed {seed}"
            );
        }
    }
}

#[test]
fn empty_timeline_scenario_matches_blind_coin_variant_too() {
    // A second protocol point in the differential: blind/coin removal has
    // a different RNG profile inside contacts (a coin flip per contact).
    let cfg = RumorConfig::new(Direction::Push, Feedback::Blind, Removal::Coin { k: 3 });
    let engine = ScenarioEngine::new(rumor_scenario(96, cfg)).expect("valid spec");
    let plain_driver = SpatialSim::mixing(96, cfg).synchronous(false);
    let mut arena = MixingArena::new();
    for seed in 0..6 {
        let plain = plain_driver.run(&mut arena, seed, &mut ());
        let report = engine.run(&mut ScenarioArena::new(), seed, &mut ());
        assert_eq!(report.cycles, plain.cycles, "seed {seed}");
        assert_eq!(report.residue, plain.residue, "seed {seed}");
        assert_eq!(report.traffic_per_site, plain.traffic, "seed {seed}");
    }
}
