//! Failure injection for spatial anti-entropy (paper §2: "there is a
//! fairly high probability that at any time some site will be down (or
//! unreachable) for hours or even days").
//!
//! Each site independently alternates between up and down states with
//! geometric sojourn times. A down site neither initiates nor accepts
//! conversations (connections to it simply fail, like the paper's
//! unreachable servers); anti-entropy's claim is that distribution still
//! completes, merely stretched by the unavailable capacity.
//!
//! Since the scenario refactor this driver is a thin adapter: the churn
//! model is a two-line fault timeline (`at 0 update …`, `at 0 churn …`)
//! lowered onto the scenario engine with this module's spatial partner
//! sampler in place of the spec's topology. The lowering is RNG-identical to the
//! hand-rolled protocol it replaced — same per-site churn draws at cycle
//! start, same roster shuffle, same partner draws, failed connections to
//! down sites still paid for — pinned exactly by
//! `tests/scenario_equivalence.rs`.

use epidemic_db::SiteId;
use epidemic_net::{PartnerSampler, Routes, Spatial, Topology};
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::SeedableRng;

use crate::engine::SpatialPartners;
use crate::scenario::{AntiEntropySpec, FaultEvent, FaultKind, Scenario, ScenarioEngine, StopRule};

/// Churn model: per-cycle transition probabilities of the two-state
/// up/down Markov chain at each site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Churn {
    /// Probability an up site goes down at the start of a cycle.
    pub fail: f64,
    /// Probability a down site comes back at the start of a cycle.
    pub recover: f64,
}

/// Result of one churn run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnRunResult {
    /// Cycles until every site (including ones that were down) received
    /// the update.
    pub t_last: u32,
    /// Whether full coverage was reached within the cycle bound.
    pub complete: bool,
    /// Mean fraction of sites down per cycle (sanity check vs the model).
    pub observed_down_fraction: f64,
}

/// Spatial anti-entropy under site churn.
///
/// # Example
///
/// ```
/// use epidemic_net::{topologies, Spatial};
/// use epidemic_sim::failures::{Churn, ChurnedAntiEntropySim};
///
/// let topo = topologies::grid(&[5, 5]);
/// let churn = Churn { fail: 0.05, recover: 0.2 };
/// let sim = ChurnedAntiEntropySim::new(&topo, Spatial::Uniform, churn);
/// let r = sim.run(3, None);
/// assert!(r.complete);
/// ```
#[derive(Debug)]
pub struct ChurnedAntiEntropySim<'a> {
    topology: &'a Topology,
    sampler: PartnerSampler,
    churn: Churn,
    max_cycles: u32,
}

impl<'a> ChurnedAntiEntropySim<'a> {
    /// Builds the simulator.
    pub fn new(topology: &'a Topology, spatial: Spatial, churn: Churn) -> Self {
        let sampler = PartnerSampler::new(topology, &Routes::compute(topology), spatial);
        ChurnedAntiEntropySim {
            topology,
            sampler,
            churn,
            max_cycles: 50_000,
        }
    }

    /// The declarative spec this simulator lowers to, given the dense
    /// index of the originating site (the topology itself is supplied at
    /// run time with this simulator's own partner sampler, so the spec's
    /// `topology` line is the placeholder default).
    pub(crate) fn to_scenario(&self, origin_idx: usize) -> Scenario {
        let mut spec = Scenario::new("churn", self.topology.sites().len());
        spec.protocol.anti_entropy = Some(AntiEntropySpec {
            every: 1,
            from: 0,
            redistribution: epidemic_core::Redistribution::None,
        });
        spec.events = vec![
            FaultEvent {
                cycle: 0,
                kind: FaultKind::Update {
                    site: Some(origin_idx),
                    count: 1,
                },
            },
            FaultEvent {
                cycle: 0,
                kind: FaultKind::Churn {
                    fail: self.churn.fail,
                    recover: self.churn.recover,
                },
            },
        ];
        spec.until = StopRule::Coverage;
        spec.max_cycles = self.max_cycles;
        spec
    }

    /// Runs one experiment: single update at `origin` (random when
    /// `None`), push-pull anti-entropy each cycle among *up* sites.
    pub fn run(&self, seed: u64, origin: Option<SiteId>) -> ChurnRunResult {
        let mut rng = StdRng::seed_from_u64(seed);
        let sites = self.topology.sites();
        let n = sites.len();
        let origin = origin.unwrap_or_else(|| *sites.choose(&mut rng).expect("sites"));
        let origin_idx = sites.binary_search(&origin).expect("site exists");
        let engine = ScenarioEngine::new(self.to_scenario(origin_idx)).expect("churn spec valid");
        let report = engine.run_with_policy(
            &mut rng,
            &SpatialPartners::new(sites, &self.sampler),
            Some(sites),
            &mut (),
        );
        ChurnRunResult {
            t_last: report.cycles,
            complete: report.residue == 0.0,
            observed_down_fraction: if report.cycles == 0 {
                0.0
            } else {
                report.down_site_cycles as f64 / (f64::from(report.cycles) * n as f64)
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epidemic_net::topologies;

    #[test]
    fn anti_entropy_survives_heavy_churn() {
        // A third of the fleet is down at any moment; distribution still
        // completes with probability 1 (§2's premise for why snapshot
        // protocols stall but anti-entropy does not).
        let topo = topologies::grid(&[6, 6]);
        let churn = Churn {
            fail: 0.1,
            recover: 0.2,
        };
        let sim = ChurnedAntiEntropySim::new(&topo, Spatial::Uniform, churn);
        for seed in 0..10 {
            let r = sim.run(seed, Some(topo.sites()[0]));
            assert!(r.complete, "seed {seed}: {r:?}");
            // The chain's stationary down fraction, fail / (fail + recover).
            assert!((r.observed_down_fraction - 1.0 / 3.0).abs() < 0.15);
        }
    }

    #[test]
    fn churn_slows_but_does_not_stop_convergence() {
        let topo = topologies::grid(&[6, 6]);
        let quiet = ChurnedAntiEntropySim::new(
            &topo,
            Spatial::Uniform,
            Churn {
                fail: 0.0,
                recover: 1.0,
            },
        );
        let stormy = ChurnedAntiEntropySim::new(
            &topo,
            Spatial::Uniform,
            Churn {
                fail: 0.2,
                recover: 0.2,
            },
        );
        let mean = |sim: &ChurnedAntiEntropySim, seeds: u64| {
            (0..seeds)
                .map(|s| f64::from(sim.run(s, Some(topo.sites()[0])).t_last))
                .sum::<f64>()
                / seeds as f64
        };
        let quiet_t = mean(&quiet, 10);
        let stormy_t = mean(&stormy, 10);
        assert!(
            stormy_t > quiet_t,
            "stormy {stormy_t} should exceed quiet {quiet_t}"
        );
    }

    #[test]
    fn zero_churn_matches_plain_simulation_behaviour() {
        let topo = topologies::ring(16);
        let sim = ChurnedAntiEntropySim::new(
            &topo,
            Spatial::QsPower { a: 2.0 },
            Churn {
                fail: 0.0,
                recover: 1.0,
            },
        );
        let r = sim.run(5, Some(topo.sites()[0]));
        assert!(r.complete);
        assert_eq!(r.observed_down_fraction, 0.0);
    }
}
