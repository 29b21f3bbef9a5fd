//! Rumor mongering on a network topology (paper §3.2).
//!
//! Rumor mongering "runs to quiescence", so on irregular topologies with
//! nonuniform spatial distributions it can fail outright — the Figure 1 and
//! Figure 2 pathologies. The paper's methodology: increase `k` until the
//! protocol achieves 100% distribution in every one of `N` trials, then
//! compare traffic and convergence against anti-entropy (Table 4). This
//! module provides the topology-aware driver, the minimal-`k` search and a
//! failure-probability estimator.

use epidemic_core::rumor::{self, RumorConfig, RumorScratch};
use epidemic_core::{Direction, Removal};
use epidemic_db::SiteId;
use epidemic_net::{LinkTraffic, PartnerSampler, Routes, Spatial, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::engine::{
    ContactStats, CycleEngine, EpidemicProtocol, Observer, ReceiveLog, Roster, SpatialPartners,
};
use crate::runner::{Arenas, TrialRunner};
use crate::spatial_ae::{SpatialArena, Spread, KEY};
use crate::util::pair_mut;

/// Result of one topology-aware rumor-mongering run.
#[derive(Debug, Clone)]
pub struct SpatialRumorResult<'r> {
    /// Whether every site received the update before quiescence.
    pub complete: bool,
    /// Fraction of sites still susceptible at quiescence.
    pub residue: f64,
    /// Cycles until the last receiving site got the update.
    pub t_last: u32,
    /// Mean cycles to receipt over receiving sites.
    pub t_ave: f64,
    /// Conversations per link, accumulated over the run: the counters of
    /// the arena the run was given.
    pub compare_traffic: &'r LinkTraffic,
    /// Update transmissions per link, accumulated over the run.
    pub update_traffic: &'r LinkTraffic,
    /// Cycles until quiescence.
    pub cycles: u32,
    /// Who received the update and when, by index into the topology's
    /// sites.
    pub received: &'r ReceiveLog<u32>,
}

/// Driver for rumor mongering with spatial partner selection.
///
/// # Example
///
/// ```
/// use epidemic_core::{Direction, Feedback, Removal, RumorConfig};
/// use epidemic_net::{topologies, Spatial};
/// use epidemic_sim::spatial_ae::SpatialArena;
/// use epidemic_sim::spatial_rumor::SpatialRumorSim;
///
/// let topo = topologies::ring(16);
/// let cfg = RumorConfig::new(Direction::PushPull, Feedback::Feedback,
///                            Removal::Counter { k: 4 });
/// let sim = SpatialRumorSim::new(&topo, Spatial::QsPower { a: 1.2 }, cfg);
/// let mut arena = SpatialArena::new();
/// let r = sim.run(&mut arena, 3, &mut ());
/// assert!(r.cycles > 0);
/// ```
#[derive(Debug)]
pub struct SpatialRumorSim<'a> {
    topology: &'a Topology,
    routes: Routes,
    sampler: PartnerSampler,
    cfg: RumorConfig,
    origin: Option<SiteId>,
    max_cycles: u32,
}

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
            origin: None,
            max_cycles: 100_000,
        }
    }

    /// Injects every run's rumor at `origin` instead of at a site drawn
    /// uniformly at random (that draw is a run's first).
    pub fn origin(mut self, origin: SiteId) -> Self {
        self.origin = Some(origin);
        self
    }

    /// Runs one epidemic until no rumor is hot anywhere, on the heap state
    /// `arena` kept from earlier runs, reporting every contact and cycle
    /// boundary to `observer` (e.g. a
    /// [`TraceObserver`](crate::engine::trace::TraceObserver) or
    /// [`InvariantObserver`](crate::engine::trace::InvariantObserver);
    /// `&mut ()` for none). The result equals a fresh arena's, and once the
    /// arena has grown to this topology nothing is allocated.
    pub fn run<'s, 'r, O>(
        &'s self,
        arena: &'r mut SpatialArena,
        seed: u64,
        observer: &mut O,
    ) -> SpatialRumorResult<'r>
    where
        O: Observer<SpatialRumorProtocol<'s>>,
    {
        let mut rng = StdRng::seed_from_u64(seed);
        let sites = self.topology.sites();
        let links = self.topology.link_count();
        let mut protocol = SpatialRumorProtocol {
            cfg: self.cfg,
            spread: arena.spread(sites, self.origin, &self.routes, links, &mut rng),
            scratch: std::mem::take(&mut arena.rumor),
        };
        let report = CycleEngine::new().max_cycles(self.max_cycles).run(
            &mut protocol,
            &SpatialPartners::new(sites, &self.sampler),
            &mut rng,
            observer,
            &mut arena.buffers,
        );
        arena.restore(protocol.spread);
        arena.rumor = protocol.scratch;
        let received = &arena.received;
        SpatialRumorResult {
            complete: received.complete(),
            residue: received.residue(),
            t_last: received.t_last().unwrap_or(0),
            t_ave: received.t_ave_received(),
            compare_traffic: &arena.compare,
            update_traffic: &arena.update,
            cycles: report.cycles,
            received,
        }
    }
}

/// Topology-aware rumor mongering: push initiators are the infective
/// sites, pull/push-pull initiators are everyone, and each contact is
/// charged along its shortest route (one comparison unit per conversation,
/// one update unit per entry sent).
///
/// Public so observers can be written against it (it is the `P` of
/// [`SpatialRumorSim::run`]); construction stays crate-internal.
pub struct SpatialRumorProtocol<'a> {
    cfg: RumorConfig,
    pub(crate) spread: Spread<'a>,
    scratch: RumorScratch<u32>,
}

impl EpidemicProtocol for SpatialRumorProtocol<'_> {
    fn site_count(&self) -> usize {
        self.spread.replicas.len()
    }

    fn roster(&self) -> Roster {
        match self.cfg.direction {
            Direction::Push => Roster::Active,
            Direction::Pull | Direction::PushPull => Roster::Everyone,
        }
    }

    fn is_active(&self, i: usize) -> bool {
        !self.spread.replicas[i].hot().is_empty()
    }

    fn finished(&self, _cycle: u32, active: &[usize]) -> bool {
        active.is_empty()
    }

    fn contact(&mut self, cycle: u32, i: usize, j: usize, rng: &mut StdRng) -> ContactStats {
        let Spread {
            sites,
            replicas,
            received,
            recorder,
            ..
        } = &mut self.spread;
        let (a, b) = pair_mut(replicas, i, j);
        let stats = rumor::contact_with(&self.cfg, a, b, rng, &mut self.scratch);
        recorder.record(
            sites[i],
            sites[j],
            // Saturating, not panicking: the conversion cannot fail on
            // 64-bit targets, and a hot-path abort is the wrong failure
            // mode if it ever could.
            u64::try_from(stats.sent).unwrap_or(u64::MAX),
        );
        match self.cfg.direction {
            Direction::Push => {
                if stats.useful > 0 {
                    received.mark(j, cycle);
                }
            }
            Direction::Pull => {
                if stats.useful > 0 {
                    received.mark(i, cycle);
                }
            }
            Direction::PushPull => {
                for idx in [i, j] {
                    if replicas[idx].db().entry(&KEY).is_some() {
                        received.mark(idx, cycle);
                    }
                }
            }
        }
        stats.into()
    }

    fn end_cycle(&mut self, _cycle: u32, _rng: &mut StdRng) {
        if self.cfg.direction == Direction::Pull {
            for r in &mut self.spread.replicas {
                rumor::end_cycle(&self.cfg, r);
            }
        }
    }
}

impl crate::engine::SirView for SpatialRumorProtocol<'_> {
    fn sir_counts(&self) -> crate::engine::SirCounts {
        let replicas = &self.spread.replicas;
        let infective = replicas.iter().filter(|r| !r.hot().is_empty()).count();
        let have = self.spread.received.received_count();
        crate::engine::SirCounts {
            susceptible: replicas.len() - have,
            infective,
            removed: have - infective,
        }
    }
}

/// The paper's §3.2 methodology: the smallest `k ≤ max_k` for which the
/// protocol achieves 100% distribution in each of `trials` runs (random
/// origins). Returns `None` if no such `k` exists within the bound.
///
/// Trials run in parallel waves of the runner's worker count, on trial
/// arenas from `arenas`. A wave runs all of its trials even after one of
/// them fails, and only then abandons its `k`; so only the verdict per `k`
/// is identical to a sequential scan's (seeds are fixed per trial index),
/// not the number of runs it took.
pub fn minimum_k(
    runner: TrialRunner,
    arenas: &Arenas<SpatialArena>,
    topology: &Topology,
    spatial: Spatial,
    base: RumorConfig,
    trials: u32,
    max_k: u32,
) -> Option<u32> {
    let trials = u64::from(trials);
    let wave = u64::try_from(runner.effective_threads(trials)).expect("usize fits u64");
    for k in 1..=max_k {
        let cfg = RumorConfig {
            removal: match base.removal {
                Removal::Counter { .. } => Removal::Counter { k },
                Removal::Coin { .. } => Removal::Coin { k },
            },
            ..base
        };
        let sim = SpatialRumorSim::new(topology, spatial, cfg);
        let mut all_complete = true;
        let mut done = 0u64;
        while all_complete && done < trials {
            let batch = wave.min(trials - done);
            // Seeds `k << 32 | t` with `t < 2^32` make `or` and `add`
            // coincide, so the runner's additive derivation reproduces the
            // historical per-trial seeds exactly.
            all_complete = runner.fold_with(
                batch,
                u64::from(k) << 32 | done,
                || arenas.take(),
                |arena, seed| sim.run(arena, seed, &mut ()).complete,
                true,
                |all, complete| all && complete,
            );
            done += batch;
        }
        if all_complete {
            return Some(k);
        }
    }
    None
}

/// Estimates the probability that `sim`'s epidemic fails to reach all
/// sites, over `trials` runs; 0 when `trials` is 0. Trials run on `runner`
/// with trial arenas from `arenas`; the estimate is identical to the
/// sequential loop's.
pub fn failure_probability(
    runner: TrialRunner,
    arenas: &Arenas<SpatialArena>,
    sim: &SpatialRumorSim<'_>,
    trials: u64,
) -> f64 {
    if trials == 0 {
        return 0.0;
    }
    let failures = runner.fold_with(
        trials,
        0,
        || arenas.take(),
        |arena, t| {
            !sim.run(arena, t.wrapping_mul(0x9E37_79B9), &mut ())
                .complete
        },
        0u64,
        |acc, failed| acc + u64::from(failed),
    );
    failures as f64 / trials as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use epidemic_core::Feedback;
    use epidemic_net::topologies;

    fn cfg(direction: Direction, k: u32) -> RumorConfig {
        RumorConfig::new(direction, Feedback::Feedback, Removal::Counter { k })
    }

    #[test]
    fn push_pull_on_ring_completes_with_generous_k() {
        let topo = topologies::ring(20);
        let sim = SpatialRumorSim::new(&topo, Spatial::Uniform, cfg(Direction::PushPull, 5))
            .origin(topo.sites()[0]);
        let mut arena = SpatialArena::new();
        let r = sim.run(&mut arena, 1, &mut ());
        assert!(r.complete, "residue {}", r.residue);
        assert!(r.update_traffic.total() > 0);
    }

    #[test]
    fn minimum_k_finds_the_smallest_working_k() {
        let topo = topologies::line(24);
        let base = cfg(Direction::PushPull, 1);
        let arenas = Arenas::default();
        let search = |max_k| {
            minimum_k(
                TrialRunner::new(),
                &arenas,
                &topo,
                Spatial::Uniform,
                base,
                10,
                max_k,
            )
        };
        let k = search(16).expect("some k works");
        assert!(k >= 1);
        if k > 1 {
            // Every smaller k must fail at least one of the same trials.
            assert_eq!(search(k - 1), None);
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
        let mut arena = SpatialArena::new();
        let mut catastrophic = |spatial| {
            let sim = SpatialRumorSim::new(&topo, spatial, protocol).origin(s);
            (0..300)
                .filter(|&t| sim.run(&mut arena, t, &mut ()).residue > 0.5)
                .count()
        };
        let uniform = catastrophic(Spatial::Uniform);
        let local = catastrophic(Spatial::QsPower { a: 2.0 });
        assert!(
            local > uniform + 3,
            "local catastrophic failures {local}/300 should dwarf uniform {uniform}/300"
        );
    }

    /// `failure_probability` of push with counter `k` from the Figure 1
    /// pathology's `s` under Qs^-2.
    fn figure1_failures(k: u32, trials: u64) -> f64 {
        let topo = topologies::figure1(30);
        let s = topo.node_by_label("s").unwrap();
        let sim = SpatialRumorSim::new(&topo, Spatial::QsPower { a: 2.0 }, cfg(Direction::Push, k))
            .origin(s);
        failure_probability(TrialRunner::new(), &Arenas::default(), &sim, trials)
    }

    #[test]
    fn figure1_push_fails_with_small_k_and_local_distribution() {
        // §3.2 Figure 1: with m >> k, push rumors between the s-t pair can
        // die before escaping to the u_i sites.
        let p = figure1_failures(1, 200);
        assert!(p > 0.05, "failure probability {p}");
    }

    #[test]
    fn figure1_failures_shrink_with_larger_k() {
        let (p1, p6) = (figure1_failures(1, 100), figure1_failures(6, 100));
        assert!(p6 < p1, "k=6 {p6} should fail less than k=1 {p1}");
    }

    #[test]
    fn no_trials_estimate_no_failures() {
        assert_eq!(figure1_failures(1, 0), 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let topo = topologies::grid(&[4, 4]);
        let sim = SpatialRumorSim::new(
            &topo,
            Spatial::QsPower { a: 1.5 },
            cfg(Direction::PushPull, 3),
        );
        let mut arena = SpatialArena::new();
        let a = sim.run(&mut arena, 9, &mut ());
        let (t_last, residue) = (a.t_last, a.residue);
        let b = sim.run(&mut arena, 9, &mut ());
        assert_eq!(t_last, b.t_last);
        assert_eq!(residue, b.residue);
    }
}
