//! Rumor mongering on a network topology (paper §3.2).
//!
//! Rumor mongering "runs to quiescence", so on irregular topologies with
//! nonuniform spatial distributions it can fail outright — the Figure 1 and
//! Figure 2 pathologies. The paper's methodology: increase `k` until the
//! protocol achieves 100% distribution in every one of `N` trials, then
//! compare traffic and convergence against anti-entropy (Table 4). This
//! module provides the topology-aware driver, the minimal-`k` search and a
//! failure-probability estimator.

use epidemic_core::rumor::{self, RumorConfig};
use epidemic_core::{Direction, Replica};
use epidemic_db::SiteId;
use epidemic_net::{LinkTraffic, PartnerSampler, Routes, Spatial, Topology};
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::SeedableRng;

use crate::engine::{
    ContactStats, CycleEngine, EpidemicProtocol, ReceiveLog, Roster, RouteRecorder, SpatialPartners,
};
use crate::runner::TrialRunner;
use crate::util::pair_mut;

/// Result of one topology-aware rumor-mongering run.
#[derive(Debug, Clone)]
pub struct SpatialRumorResult {
    /// Whether every site received the update before quiescence.
    pub complete: bool,
    /// Fraction of sites still susceptible at quiescence.
    pub residue: f64,
    /// Cycles until the last receiving site got the update.
    pub t_last: u32,
    /// Mean cycles to receipt over receiving sites.
    pub t_ave: f64,
    /// Conversations per link, accumulated over the run.
    pub compare_traffic: LinkTraffic,
    /// Update transmissions per link, accumulated over the run.
    pub update_traffic: LinkTraffic,
    /// Cycles until quiescence.
    pub cycles: u32,
    /// Sites that never received the update.
    pub susceptible_sites: Vec<SiteId>,
}

/// Driver for rumor mongering with spatial partner selection.
///
/// # Example
///
/// ```
/// use epidemic_core::{Direction, Feedback, Removal, RumorConfig};
/// use epidemic_net::{topologies, Spatial};
/// use epidemic_sim::spatial_rumor::SpatialRumorSim;
///
/// let topo = topologies::ring(16);
/// let cfg = RumorConfig::new(Direction::PushPull, Feedback::Feedback,
///                            Removal::Counter { k: 4 });
/// let sim = SpatialRumorSim::new(&topo, Spatial::QsPower { a: 1.2 }, cfg);
/// let r = sim.run(3, None);
/// assert!(r.cycles > 0);
/// ```
#[derive(Debug)]
pub struct SpatialRumorSim<'a> {
    topology: &'a Topology,
    routes: Routes,
    sampler: PartnerSampler,
    cfg: RumorConfig,
    max_cycles: u32,
}

const KEY: u32 = 0;

impl<'a> SpatialRumorSim<'a> {
    /// Builds a simulator; routing and sampling tables are precomputed.
    pub fn new(topology: &'a Topology, spatial: Spatial, cfg: RumorConfig) -> Self {
        let routes = Routes::compute(topology);
        let sampler = PartnerSampler::new(topology, &routes, spatial);
        SpatialRumorSim {
            topology,
            routes,
            sampler,
            cfg,
            max_cycles: 100_000,
        }
    }

    /// Replaces the rumor configuration (e.g. to sweep `k`).
    pub fn with_config(mut self, cfg: RumorConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Runs one epidemic from `origin` (random site when `None`) until no
    /// rumor is hot anywhere.
    pub fn run(&self, seed: u64, origin: Option<SiteId>) -> SpatialRumorResult {
        self.run_observed(seed, origin, &mut ())
    }

    /// As [`SpatialRumorSim::run`], reporting every contact and cycle
    /// boundary to `observer` — e.g. a
    /// [`TraceObserver`](crate::engine::trace::TraceObserver) or
    /// [`InvariantObserver`](crate::engine::trace::InvariantObserver).
    pub fn run_observed<'s, O>(
        &'s self,
        seed: u64,
        origin: Option<SiteId>,
        observer: &mut O,
    ) -> SpatialRumorResult
    where
        O: crate::engine::Observer<SpatialRumorProtocol<'s>>,
    {
        let mut rng = StdRng::seed_from_u64(seed);
        let sites = self.topology.sites();
        let n = sites.len();
        let mut replicas: Vec<Replica<u32, u32>> = sites.iter().map(|&s| Replica::new(s)).collect();
        let origin = origin.unwrap_or_else(|| *sites.choose(&mut rng).expect("sites"));
        let origin_idx = sites.binary_search(&origin).expect("site exists");
        replicas[origin_idx].client_update(KEY, 1);
        let mut received = ReceiveLog::new(n);
        received.mark(origin_idx, 0);

        let mut protocol = SpatialRumorProtocol {
            cfg: self.cfg,
            sites,
            replicas,
            received,
            recorder: RouteRecorder::new(&self.routes, self.topology.link_count()),
            scratch: rumor::RumorScratch::new(),
        };
        let report = CycleEngine::new().max_cycles(self.max_cycles).run(
            &mut protocol,
            &SpatialPartners::new(sites, &self.sampler),
            &mut rng,
            observer,
        );

        let received = protocol.received;
        let susceptible_sites: Vec<SiteId> = received.unreceived().map(|i| sites[i]).collect();
        SpatialRumorResult {
            complete: received.complete(),
            residue: received.residue(),
            t_last: received.t_last().unwrap_or(0),
            t_ave: received.t_ave_received(),
            compare_traffic: protocol.recorder.compare,
            update_traffic: protocol.recorder.update,
            cycles: report.cycles,
            susceptible_sites,
        }
    }

    /// Runs `trials` epidemics in parallel with seeds
    /// `seed_base + trial`, returning results in trial order — identical
    /// to a sequential loop over [`SpatialRumorSim::run`].
    pub fn run_trials(
        &self,
        runner: TrialRunner,
        trials: u64,
        seed_base: u64,
        origin: Option<SiteId>,
    ) -> Vec<SpatialRumorResult> {
        runner.run(trials, seed_base, |seed| self.run(seed, origin))
    }
}

/// Topology-aware rumor mongering: push initiators are the infective
/// sites, pull/push-pull initiators are everyone, and each contact is
/// charged along its shortest route (one comparison unit per conversation,
/// one update unit per entry sent).
///
/// Public so observers can be written against it (it is the `P` of
/// [`SpatialRumorSim::run_observed`]); construction stays crate-internal.
pub struct SpatialRumorProtocol<'a> {
    cfg: RumorConfig,
    pub(crate) sites: &'a [SiteId],
    pub(crate) replicas: Vec<Replica<u32, u32>>,
    received: ReceiveLog<u32>,
    recorder: RouteRecorder<'a>,
    scratch: rumor::RumorScratch<u32>,
}

impl EpidemicProtocol for SpatialRumorProtocol<'_> {
    fn site_count(&self) -> usize {
        self.replicas.len()
    }

    fn roster(&self) -> Roster {
        match self.cfg.direction {
            Direction::Push => Roster::Active,
            Direction::Pull | Direction::PushPull => Roster::Everyone,
        }
    }

    fn is_active(&self, i: usize) -> bool {
        !self.replicas[i].hot().is_empty()
    }

    fn finished(&self, _cycle: u32, active: &[usize]) -> bool {
        active.is_empty()
    }

    fn contact(&mut self, cycle: u32, i: usize, j: usize, rng: &mut StdRng) -> ContactStats {
        let (a, b) = pair_mut(&mut self.replicas, i, j);
        let stats = rumor::contact_with(&self.cfg, a, b, rng, &mut self.scratch);
        self.recorder.record(
            self.sites[i],
            self.sites[j],
            // Saturating, not panicking: the conversion cannot fail on
            // 64-bit targets, and a hot-path abort is the wrong failure
            // mode if it ever could.
            u64::try_from(stats.sent).unwrap_or(u64::MAX),
        );
        match self.cfg.direction {
            Direction::Push => {
                if stats.useful > 0 {
                    self.received.mark(j, cycle);
                }
            }
            Direction::Pull => {
                if stats.useful > 0 {
                    self.received.mark(i, cycle);
                }
            }
            Direction::PushPull => {
                for idx in [i, j] {
                    if self.replicas[idx].db().entry(&KEY).is_some() {
                        self.received.mark(idx, cycle);
                    }
                }
            }
        }
        stats.into()
    }

    fn end_cycle(&mut self, _cycle: u32, _rng: &mut StdRng) {
        if self.cfg.direction == Direction::Pull {
            for r in &mut self.replicas {
                rumor::end_cycle(&self.cfg, r);
            }
        }
    }
}

impl crate::engine::SirView for SpatialRumorProtocol<'_> {
    fn sir_counts(&self) -> crate::engine::SirCounts {
        let infective = self.replicas.iter().filter(|r| !r.hot().is_empty()).count();
        let have = self.received.received_count();
        crate::engine::SirCounts {
            susceptible: self.replicas.len() - have,
            infective,
            removed: have - infective,
        }
    }
}

/// The paper's §3.2 methodology: the smallest `k ≤ max_k` for which the
/// protocol achieves 100% distribution in each of `trials` runs (random
/// origins). Returns `None` if no such `k` exists within the bound.
///
/// Trials run in parallel waves (one wave per hardware thread batch) so a
/// failing `k` is abandoned as early as a sequential scan would, while a
/// succeeding `k` gets full fan-out. The verdict per `k` is identical to
/// the sequential loop: seeds do not depend on scheduling.
pub fn minimum_k(
    topology: &Topology,
    spatial: Spatial,
    base: RumorConfig,
    trials: u32,
    max_k: u32,
) -> Option<u32> {
    minimum_k_with(TrialRunner::new(), topology, spatial, base, trials, max_k)
}

/// As [`minimum_k`] but on a caller-provided [`TrialRunner`]. The verdict
/// per `k` does not depend on the runner's thread count (seeds are fixed
/// per trial index); only the wave size — and hence how early a failing
/// `k` is abandoned — varies.
pub fn minimum_k_with(
    runner: TrialRunner,
    topology: &Topology,
    spatial: Spatial,
    base: RumorConfig,
    trials: u32,
    max_k: u32,
) -> Option<u32> {
    let wave = u64::try_from(runner.effective_threads(u64::from(trials))).expect("usize fits u64");
    for k in 1..=max_k {
        let cfg = RumorConfig {
            removal: match base.removal {
                epidemic_core::Removal::Counter { .. } => epidemic_core::Removal::Counter { k },
                epidemic_core::Removal::Coin { .. } => epidemic_core::Removal::Coin { k },
            },
            ..base
        };
        let sim = SpatialRumorSim::new(topology, spatial, cfg);
        let mut all_complete = true;
        let mut done = 0u64;
        while all_complete && done < u64::from(trials) {
            let batch = wave.min(u64::from(trials) - done);
            // Seeds `k << 32 | t` with `t < 2^32` make `or` and `add`
            // coincide, so the runner's additive derivation reproduces the
            // historical per-trial seeds exactly.
            let outcomes = sim.run_trials(runner, batch, u64::from(k) << 32 | done, None);
            all_complete = outcomes.iter().all(|r| r.complete);
            done += batch;
        }
        if all_complete {
            return Some(k);
        }
    }
    None
}

/// Estimates the probability that the epidemic fails to reach all sites,
/// over `trials` runs injected at `origin`. Trials run in parallel on
/// `runner`; the estimate is identical to the sequential loop's.
pub fn failure_probability(
    runner: TrialRunner,
    topology: &Topology,
    spatial: Spatial,
    cfg: RumorConfig,
    trials: u64,
    origin: Option<SiteId>,
) -> f64 {
    let sim = SpatialRumorSim::new(topology, spatial, cfg);
    let failures = runner.fold(
        trials,
        0,
        |t| !sim.run(t.wrapping_mul(0x9E37_79B9), origin).complete,
        0u64,
        |acc, failed| acc + u64::from(failed),
    );
    failures as f64 / trials as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use epidemic_core::{Feedback, Removal};
    use epidemic_net::topologies;

    fn cfg(direction: Direction, k: u32) -> RumorConfig {
        RumorConfig::new(direction, Feedback::Feedback, Removal::Counter { k })
    }

    #[test]
    fn push_pull_on_ring_completes_with_generous_k() {
        let topo = topologies::ring(20);
        let sim = SpatialRumorSim::new(&topo, Spatial::Uniform, cfg(Direction::PushPull, 5));
        let r = sim.run(1, Some(topo.sites()[0]));
        assert!(r.complete, "residue {}", r.residue);
        assert!(r.update_traffic.total() > 0);
    }

    #[test]
    fn minimum_k_finds_the_smallest_working_k() {
        let topo = topologies::line(24);
        let base = cfg(Direction::PushPull, 1);
        let k = minimum_k(&topo, Spatial::Uniform, base, 10, 16).expect("some k works");
        assert!(k >= 1);
        if k > 1 {
            // Every smaller k must fail at least one of the same trials.
            assert_eq!(minimum_k(&topo, Spatial::Uniform, base, 10, k - 1), None);
        }
    }

    #[test]
    fn push_needs_larger_k_under_local_distributions_on_figure1() {
        // §3.2: push rumor mongering is much more sensitive than push-pull
        // to the combination of a local distribution and an irregular
        // topology. On the Figure 1 pathology, the s–t pair mostly talk to
        // each other under Qs^-2 and k must grow to guarantee escape.
        let topo = topologies::figure1(30);
        let s = topo.node_by_label("s").unwrap();
        let protocol = cfg(Direction::Push, 2);
        // A run is a *catastrophic* failure when the rumor dies inside the
        // s–t pair and most of the network stays susceptible — the paper's
        // Figure 1 scenario. It essentially never happens under uniform
        // selection; under Qs^-2 it has significant probability.
        let catastrophic = |spatial| {
            let sim = SpatialRumorSim::new(&topo, spatial, protocol);
            (0..300)
                .filter(|&t| sim.run(t, Some(s)).residue > 0.5)
                .count()
        };
        let uniform = catastrophic(Spatial::Uniform);
        let local = catastrophic(Spatial::QsPower { a: 2.0 });
        assert!(
            local > uniform + 3,
            "local catastrophic failures {local}/300 should dwarf uniform {uniform}/300"
        );
    }

    #[test]
    fn figure1_push_fails_with_small_k_and_local_distribution() {
        // §3.2 Figure 1: with m >> k, push rumors between the s-t pair can
        // die before escaping to the u_i sites.
        let topo = topologies::figure1(30);
        let s = topo.node_by_label("s").unwrap();
        let p = failure_probability(
            TrialRunner::new(),
            &topo,
            Spatial::QsPower { a: 2.0 },
            cfg(Direction::Push, 1),
            200,
            Some(s),
        );
        assert!(p > 0.05, "failure probability {p}");
    }

    #[test]
    fn figure1_failures_shrink_with_larger_k() {
        let topo = topologies::figure1(30);
        let s = topo.node_by_label("s").unwrap();
        let p1 = failure_probability(
            TrialRunner::new(),
            &topo,
            Spatial::QsPower { a: 2.0 },
            cfg(Direction::Push, 1),
            100,
            Some(s),
        );
        let p6 = failure_probability(
            TrialRunner::new(),
            &topo,
            Spatial::QsPower { a: 2.0 },
            cfg(Direction::Push, 6),
            100,
            Some(s),
        );
        assert!(p6 < p1, "k=6 {p6} should fail less than k=1 {p1}");
    }

    #[test]
    fn deterministic_given_seed() {
        let topo = topologies::grid(&[4, 4]);
        let sim = SpatialRumorSim::new(
            &topo,
            Spatial::QsPower { a: 1.5 },
            cfg(Direction::PushPull, 3),
        );
        let a = sim.run(9, None);
        let b = sim.run(9, None);
        assert_eq!(a.t_last, b.t_last);
        assert_eq!(a.residue, b.residue);
    }
}
