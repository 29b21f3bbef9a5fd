//! One update spreading over a network topology with spatial partner
//! selection: push-pull anti-entropy (paper §3.1, Tables 4 and 5) or rumor
//! mongering (§3.2, Figures 1 and 2).
//!
//! The epidemic is the complete-mixing drivers' [`MixingProtocol`], run
//! asynchronously (contacts within a cycle are sequential). Each cycle,
//! initiators draw partners from a [`Spatial`] distribution (or any
//! [`PartnerSelection`]) and a [`RouteCharge`] charges every conversation
//! to each link on the shortest route between the participants: *compare
//! traffic* counts conversations per link, *update traffic* the update
//! units sent.
//! Connection limits follow Table 5's pessimistic model: a site can
//! *accept* at most `C` inbound conversations per cycle (its own outgoing
//! conversation is not charged against it, matching the paper's 0.63
//! success fraction at limit 1); rejected initiators may hunt. Limits and
//! hunting are the shared [`CycleEngine`]'s, applied to the sampler's own
//! draws.
//!
//! Anti-entropy runs until every site holds the update. Rumor mongering
//! "runs to quiescence", so on irregular topologies with nonuniform
//! distributions it can fail outright — the Figure 1 and Figure 2
//! pathologies. The paper's methodology is to increase `k` until the
//! protocol achieves 100% distribution in every one of `N` trials
//! ([`minimum_k`]), then compare traffic and convergence against Table 4.

use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use epidemic_core::rumor::RumorConfig;
use epidemic_core::Removal;
use epidemic_db::SiteId;
use epidemic_net::{LinkTraffic, PartnerSampler, PartnerSelection, Routes, Spatial, Topology};
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::SeedableRng;

use crate::engine::protocols::{MixingProtocol, MixingState};
use crate::engine::{CycleEngine, EngineBuffers, Observer, ReceiveLog, RouteCharge};
use crate::event::Micros;
use crate::runner::{Arenas, TrialRunner};

/// Result of one spatial run (one update, one topology).
#[derive(Debug, Clone)]
pub struct SpatialRunResult<'r> {
    /// Whether every site received the update.
    pub complete: bool,
    /// Fraction of sites that never received the update.
    pub residue: f64,
    /// Cycles until the last receiving site got the update.
    pub t_last: u32,
    /// Mean cycles from injection to receipt over the receiving sites.
    pub t_ave: f64,
    /// Conversations charged per link, accumulated over the run: the
    /// counters of the arena the run was given.
    pub compare_traffic: &'r LinkTraffic,
    /// Update units charged per link, accumulated over the run.
    pub update_traffic: &'r LinkTraffic,
    /// Cycles simulated: until full coverage (anti-entropy) or quiescence
    /// (rumor mongering), unless the cycle bound ended the run first.
    pub cycles: u32,
    /// Who received the update and when, by index into the topology's
    /// sites.
    pub received: &'r ReceiveLog<u32>,
}

/// Everything a spatial run keeps on the heap — the protocol's replicas,
/// receive log and scratch, the per-link counters, the engine's roster
/// buffers and the event-driven driver's log and queue — owned across
/// runs, so that a run on a warm arena allocates nothing. One arena serves
/// every [`SpatialSim`] and [`AsyncSpatialSim`](crate::event::AsyncSpatialSim)
/// on any topology; each run starts from a state indistinguishable from a
/// fresh one.
#[derive(Debug, Default)]
pub struct SpatialArena {
    pub(crate) state: MixingState,
    pub(crate) compare: LinkTraffic,
    pub(crate) update: LinkTraffic,
    buffers: EngineBuffers,
    pub(crate) timed: ReceiveLog<Micros>,
    pub(crate) queue: BinaryHeap<Reverse<(Micros, usize)>>,
}

impl SpatialArena {
    /// An empty arena. Allocates nothing until its first run.
    pub fn new() -> Self {
        SpatialArena::default()
    }
}

/// Driver for the Table 4/5 and §3.2 experiments: anti-entropy by default,
/// rumor mongering once given a [`RumorConfig`] through
/// [`SpatialSim::rumor`].
///
/// # Example
///
/// ```
/// use epidemic_core::{Direction, Feedback, Removal, RumorConfig};
/// use epidemic_net::{topologies, Spatial};
/// use epidemic_sim::spatial::{SpatialArena, SpatialSim};
///
/// let topo = topologies::ring(24);
/// let mut arena = SpatialArena::new();
/// let sim = SpatialSim::new(&topo, Spatial::QsPower { a: 2.0 });
/// assert!(sim.run(&mut arena, 7, &mut ()).complete);
///
/// let cfg = RumorConfig::new(Direction::PushPull, Feedback::Feedback, Removal::Counter { k: 4 });
/// let rumor = SpatialSim::new(&topo, Spatial::QsPower { a: 1.2 }).rumor(cfg);
/// assert!(rumor.run(&mut arena, 3, &mut ()).cycles > 0);
/// ```
#[derive(Debug)]
pub struct SpatialSim<'a, S = PartnerSampler> {
    topology: &'a Topology,
    routes: Cow<'a, Routes>,
    sampler: S,
    rumor: Option<RumorConfig>,
    origin: Option<SiteId>,
    connection_limit: Option<u32>,
    hunt_limit: u32,
}

impl<'a> SpatialSim<'a, PartnerSampler> {
    /// Builds a simulator for `topology` under the given spatial
    /// distribution. Routing tables and sampling tables are precomputed
    /// once; reuse the simulator across runs.
    pub fn new(topology: &'a Topology, spatial: Spatial) -> Self {
        let routes = Routes::compute(topology);
        let sampler = PartnerSampler::new(topology, &routes, spatial);
        Self::with_routes(topology, Cow::Owned(routes), sampler)
    }
}

impl<'a, S: PartnerSelection> SpatialSim<'a, S> {
    /// Builds a simulator with an arbitrary [`PartnerSelection`] strategy —
    /// e.g. the §4 [`HierarchicalSampler`](epidemic_net::HierarchicalSampler).
    pub fn with_selection(topology: &'a Topology, sampler: S) -> Self {
        Self::with_routes(topology, Cow::Owned(Routes::compute(topology)), sampler)
    }

    /// As [`SpatialSim::with_selection`] on routing tables the caller
    /// already has — `routes` must be [`Routes::compute`]`(topology)`. A
    /// sweep over several distributions or `k`s on one topology computes
    /// them once and lends them to every simulator (`Cow::Borrowed`), and
    /// the sampler too (`&sampler`).
    pub fn with_routes(topology: &'a Topology, routes: Cow<'a, Routes>, sampler: S) -> Self {
        SpatialSim {
            topology,
            routes,
            sampler,
            rumor: None,
            origin: None,
            connection_limit: None,
            hunt_limit: 0,
        }
    }

    /// Spreads the update by rumor mongering under `cfg` instead of by
    /// anti-entropy: push initiators are the infective sites, pull and
    /// push-pull initiators everyone, and the run ends at quiescence.
    pub fn rumor(mut self, cfg: RumorConfig) -> Self {
        self.rumor = Some(cfg);
        self
    }

    /// Injects every run's update at `origin` instead of at a site drawn
    /// uniformly at random (that draw is a run's first).
    pub fn origin(mut self, origin: SiteId) -> Self {
        self.origin = Some(origin);
        self
    }

    /// Limits conversations per site per cycle (Table 5 uses `Some(1)`).
    pub fn connection_limit(mut self, limit: Option<u32>) -> Self {
        self.connection_limit = limit;
        self
    }

    /// Alternate partners a rejected initiator may try.
    pub fn hunt_limit(mut self, hunt: u32) -> Self {
        self.hunt_limit = hunt;
        self
    }

    /// Runs one experiment — a single update injected at one site and
    /// spread until every site holds it (anti-entropy) or no site is
    /// infective (rumor mongering) — on the heap state `arena` kept from
    /// earlier runs, reporting every contact and cycle boundary to
    /// `observer` (e.g. a [`RunTracer`](epidemic_trace::RunTracer) or an
    /// [`InvariantChecker`](epidemic_trace::InvariantChecker); `&mut ()`
    /// for none). The result equals a fresh arena's, and once the
    /// arena has grown to this topology nothing is allocated.
    pub fn run<'r, O>(
        &self,
        arena: &'r mut SpatialArena,
        seed: u64,
        observer: &mut O,
    ) -> SpatialRunResult<'r>
    where
        O: Observer<MixingProtocol>,
    {
        let mut rng = StdRng::seed_from_u64(seed);
        let sites = self.topology.sites();
        let origin = self
            .origin
            .unwrap_or_else(|| *sites.choose(&mut rng).expect("sites"));
        let origin = sites.binary_search(&origin).expect("site exists");
        let state = std::mem::take(&mut arena.state);
        let mut protocol =
            MixingProtocol::new(self.rumor, false, sites.iter().copied(), origin, state);
        let mut charge = RouteCharge::reusing(
            self.topology,
            &self.routes,
            std::mem::take(&mut arena.compare),
            std::mem::take(&mut arena.update),
        );
        let report = CycleEngine::new()
            .connection_limit(self.connection_limit)
            .hunt_limit(self.hunt_limit)
            .run(
                &mut protocol,
                &self.sampler,
                &mut rng,
                &mut (&mut charge, observer),
                &mut arena.buffers,
            );
        arena.state = protocol.state;
        arena.compare = charge.compare;
        arena.update = charge.update;
        let received = &arena.state.received;
        SpatialRunResult {
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

/// The paper's §3.2 methodology: the smallest `k ≤ max_k` for which the
/// rumor protocol `base` (its `k` replaced) achieves 100% distribution in
/// each of `trials` runs (random origins). Returns `None` if no such `k`
/// exists within the bound.
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
    let routes = Routes::compute(topology);
    let sampler = PartnerSampler::new(topology, &routes, spatial);
    (1..=max_k).find(|&k| {
        let removal = match base.removal {
            Removal::Counter { .. } => Removal::Counter { k },
            Removal::Coin { .. } => Removal::Coin { k },
        };
        let sim = SpatialSim::with_routes(topology, Cow::Borrowed(&routes), &sampler)
            .rumor(RumorConfig { removal, ..base });
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
        all_complete
    })
}

/// Estimates the probability that `sim`'s epidemic fails to reach all
/// sites, over `trials` runs; 0 when `trials` is 0. Trials run on `runner`
/// with trial arenas from `arenas`; the estimate is identical to the
/// sequential loop's.
pub fn failure_probability<S: PartnerSelection + Sync>(
    runner: TrialRunner,
    arenas: &Arenas<SpatialArena>,
    sim: &SpatialSim<'_, S>,
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
    use epidemic_core::{Direction, Feedback};
    use epidemic_net::topologies;

    fn cfg(direction: Direction, k: u32) -> RumorConfig {
        RumorConfig::new(direction, Feedback::Feedback, Removal::Counter { k })
    }

    #[test]
    fn anti_entropy_converges_on_a_ring() {
        let topo = topologies::ring(20);
        let sim = SpatialSim::new(&topo, Spatial::Uniform).origin(topo.sites()[0]);
        let mut arena = SpatialArena::new();
        let r = sim.run(&mut arena, 1, &mut ());
        assert!(r.complete && r.residue == 0.0);
        assert!(r.t_last > 0);
        assert!(r.t_ave <= f64::from(r.t_last));
        assert_eq!(r.cycles, r.t_last, "run stops exactly at convergence");
        assert!(r.update_traffic.total() > 0);
    }

    #[test]
    fn spatial_distribution_cuts_far_link_traffic() {
        // On a line, the end-to-end links carry far less traffic under
        // Qs^-2 than under uniform selection.
        let topo = topologies::line(30);
        let uniform = SpatialSim::new(&topo, Spatial::Uniform).origin(topo.sites()[0]);
        let local = SpatialSim::new(&topo, Spatial::QsPower { a: 2.0 }).origin(topo.sites()[0]);
        let mid_link = topo
            .link_between(topo.sites()[14], topo.sites()[15])
            .unwrap();
        let mut arena = SpatialArena::new();
        let mut mid = |sim: &SpatialSim<'_>, seed| {
            let r = sim.run(&mut arena, seed, &mut ());
            r.compare_traffic.at(mid_link) as f64 / f64::from(r.cycles)
        };
        let (mut uniform_mid, mut local_mid) = (0.0, 0.0);
        for seed in 0..10 {
            uniform_mid += mid(&uniform, seed);
            local_mid += mid(&local, seed);
        }
        assert!(
            local_mid < uniform_mid / 2.0,
            "local {local_mid} vs uniform {uniform_mid}"
        );
    }

    #[test]
    fn connection_limit_slows_but_still_converges() {
        let topo = topologies::grid(&[5, 5]);
        let unlimited = SpatialSim::new(&topo, Spatial::Uniform).origin(topo.sites()[0]);
        let limited = SpatialSim::new(&topo, Spatial::Uniform)
            .origin(topo.sites()[0])
            .connection_limit(Some(1));
        let mut arena = SpatialArena::new();
        let mut t_unlimited = 0.0;
        let mut t_limited = 0.0;
        for seed in 0..10 {
            t_unlimited += f64::from(unlimited.run(&mut arena, seed, &mut ()).t_last);
            t_limited += f64::from(limited.run(&mut arena, seed, &mut ()).t_last);
        }
        assert!(t_limited > t_unlimited, "{t_limited} vs {t_unlimited}");
    }

    #[test]
    fn push_pull_rumor_on_ring_completes_with_generous_k() {
        let topo = topologies::ring(20);
        let sim = SpatialSim::new(&topo, Spatial::Uniform)
            .rumor(cfg(Direction::PushPull, 5))
            .origin(topo.sites()[0]);
        let mut arena = SpatialArena::new();
        let r = sim.run(&mut arena, 1, &mut ());
        assert!(r.complete, "residue {}", r.residue);
        assert!(r.update_traffic.total() > 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let topo = topologies::grid(&[4, 4]);
        let mut arena = SpatialArena::new();
        for rumor in [None, Some(cfg(Direction::PushPull, 3))] {
            let mut sim = SpatialSim::new(&topo, Spatial::QsPower { a: 1.5 });
            sim.rumor = rumor;
            let a = sim.run(&mut arena, 9, &mut ());
            let (t_last, residue, compare) = (a.t_last, a.residue, a.compare_traffic.clone());
            let b = sim.run(&mut arena, 9, &mut ());
            assert_eq!((t_last, residue), (b.t_last, b.residue), "{rumor:?}");
            assert_eq!(&compare, b.compare_traffic, "{rumor:?}");
        }
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
        // A run is a *catastrophic* failure when the rumor dies inside the
        // s–t pair and most of the network stays susceptible — the paper's
        // Figure 1 scenario. It essentially never happens under uniform
        // selection; under Qs^-2 it has significant probability.
        let mut arena = SpatialArena::new();
        let mut catastrophic = |spatial| {
            let sim = SpatialSim::new(&topo, spatial)
                .rumor(cfg(Direction::Push, 2))
                .origin(s);
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
        let sim = SpatialSim::new(&topo, Spatial::QsPower { a: 2.0 })
            .rumor(cfg(Direction::Push, k))
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
}
