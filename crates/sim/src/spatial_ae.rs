//! Anti-entropy with spatial partner selection on a topology
//! (paper §3.1, Tables 4 and 5).
//!
//! Each cycle, every database site initiates one anti-entropy conversation
//! with a partner drawn from a [`Spatial`] distribution. Conversations are
//! charged to every link on the shortest route between the participants:
//! *compare traffic* counts conversations per link per cycle, *update
//! traffic* counts the conversations in which the update actually had to be
//! sent. Connection limits follow Table 5's pessimistic model: a site can
//! *accept* at most `C` inbound conversations per cycle (its own outgoing
//! conversation is not charged against it, matching the paper's 0.63
//! success fraction at limit 1); rejected initiators may hunt. Limits and
//! hunting are the shared [`CycleEngine`]'s, applied to a
//! [`SpatialPartners`] policy.

use std::borrow::Cow;

use epidemic_core::rumor::RumorScratch;
use epidemic_core::{AntiEntropy, Comparison, Direction, ExchangeScratch, Replica};
use epidemic_db::SiteId;
use epidemic_net::{LinkTraffic, PartnerSampler, PartnerSelection, Routes, Spatial, Topology};
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::SeedableRng;

use crate::engine::{
    ContactStats, CycleEngine, EngineBuffers, EpidemicProtocol, Observer, ReceiveLog,
    RouteRecorder, SpatialPartners,
};
use crate::util::{pair_mut, reset_replicas};

/// Result of one spatial anti-entropy run (one update, one topology).
#[derive(Debug, Clone)]
pub struct SpatialRunResult<'r> {
    /// Cycles until the last site received the update.
    pub t_last: u32,
    /// Mean cycles from injection to receipt over all sites.
    pub t_ave: f64,
    /// Conversations charged per link, accumulated over the run: the
    /// counters of the arena the run was given.
    pub compare_traffic: &'r LinkTraffic,
    /// Update-bearing conversations charged per link, accumulated over the
    /// whole run.
    pub update_traffic: &'r LinkTraffic,
    /// Cycles simulated. The run stops at convergence, so this is `t_last`
    /// unless the cycle bound ended the run first.
    pub cycles: u32,
}

/// Everything a spatial single-update run keeps on the heap — the
/// replicas, the receive log, the per-link counters, the exchange and rumor
/// scratch and the engine's roster buffers — owned across runs, so that a
/// run on a warm arena allocates nothing. One arena serves
/// [`AntiEntropySim`] and
/// [`SpatialRumorSim`](crate::spatial_rumor::SpatialRumorSim) on any
/// topology; each run starts from a state indistinguishable from a fresh
/// one.
#[derive(Debug, Default)]
pub struct SpatialArena {
    replicas: Vec<Replica<u32, u32>>,
    pub(crate) received: ReceiveLog<u32>,
    pub(crate) compare: LinkTraffic,
    pub(crate) update: LinkTraffic,
    exchange: ExchangeScratch<u32>,
    pub(crate) rumor: RumorScratch<u32>,
    pub(crate) buffers: EngineBuffers,
}

impl SpatialArena {
    /// An empty arena. Allocates nothing until its first run.
    pub fn new() -> Self {
        SpatialArena::default()
    }

    /// Lends the replicas, the receive log and the link counters to one
    /// run on `sites`: every replica empty but the one at `origin` (drawn
    /// uniformly from `rng` when `None`), which holds the update and is the
    /// only one marked received, and the counters zeroed for `links` links
    /// in a recorder over `routes`. [`SpatialArena::restore`] takes them
    /// back.
    pub(crate) fn spread<'a>(
        &mut self,
        sites: &'a [SiteId],
        origin: Option<SiteId>,
        routes: &'a Routes,
        links: usize,
        rng: &mut StdRng,
    ) -> Spread<'a> {
        reset_replicas(&mut self.replicas, sites.iter().copied());
        let origin = origin.unwrap_or_else(|| *sites.choose(rng).expect("sites"));
        let origin_idx = sites.binary_search(&origin).expect("site exists");
        self.replicas[origin_idx].client_update(KEY, 1);
        self.received.reset(sites.len());
        self.received.mark(origin_idx, 0);
        Spread {
            origin: origin_idx,
            sites,
            replicas: std::mem::take(&mut self.replicas),
            received: std::mem::take(&mut self.received),
            recorder: RouteRecorder::reusing(
                routes,
                links,
                std::mem::take(&mut self.compare),
                std::mem::take(&mut self.update),
            ),
        }
    }

    /// Takes back what [`SpatialArena::spread`] lent.
    pub(crate) fn restore(&mut self, spread: Spread<'_>) {
        self.replicas = spread.replicas;
        self.received = spread.received;
        self.compare = spread.recorder.compare;
        self.update = spread.recorder.update;
    }
}

/// One spatial single-update run's state, lent out of a [`SpatialArena`]:
/// the replicas of the topology's sites, who has received the update and
/// when, and the per-link counters.
pub(crate) struct Spread<'a> {
    /// Index of the site the update was injected at.
    pub(crate) origin: usize,
    pub(crate) sites: &'a [SiteId],
    pub(crate) replicas: Vec<Replica<u32, u32>>,
    pub(crate) received: ReceiveLog<u32>,
    pub(crate) recorder: RouteRecorder<'a>,
}

/// Driver for the Table 4/5 experiments.
///
/// # Example
///
/// ```
/// use epidemic_net::{topologies, Spatial};
/// use epidemic_sim::spatial_ae::{AntiEntropySim, SpatialArena};
///
/// let topo = topologies::ring(24);
/// let sim = AntiEntropySim::new(&topo, Spatial::QsPower { a: 2.0 });
/// let mut arena = SpatialArena::new();
/// let result = sim.run(&mut arena, 7, &mut ());
/// assert!(result.t_last > 0);
/// ```
#[derive(Debug)]
pub struct AntiEntropySim<'a, S = PartnerSampler> {
    topology: &'a Topology,
    routes: Cow<'a, Routes>,
    sampler: S,
    origin: Option<SiteId>,
    connection_limit: Option<u32>,
    hunt_limit: u32,
    max_cycles: u32,
}

/// The single key the spreading update uses.
pub(crate) const KEY: u32 = 0;

impl<'a> AntiEntropySim<'a, PartnerSampler> {
    /// Builds a simulator for `topology` under the given spatial
    /// distribution. Routing tables and sampling tables are precomputed
    /// once; reuse the simulator across runs.
    pub fn new(topology: &'a Topology, spatial: Spatial) -> Self {
        let routes = Routes::compute(topology);
        let sampler = PartnerSampler::new(topology, &routes, spatial);
        Self::with_routes(topology, Cow::Owned(routes), sampler)
    }
}

impl<'a, S: PartnerSelection> AntiEntropySim<'a, S> {
    /// Builds a simulator with an arbitrary [`PartnerSelection`] strategy —
    /// e.g. the §4 [`HierarchicalSampler`](epidemic_net::HierarchicalSampler).
    pub fn with_selection(topology: &'a Topology, sampler: S) -> Self {
        Self::with_routes(topology, Cow::Owned(Routes::compute(topology)), sampler)
    }

    /// As [`AntiEntropySim::with_selection`] on routing tables the caller
    /// already has — `routes` must be [`Routes::compute`]`(topology)`. A
    /// sweep over several distributions on one topology computes them
    /// once and lends them to every simulator (`Cow::Borrowed`).
    pub fn with_routes(topology: &'a Topology, routes: Cow<'a, Routes>, sampler: S) -> Self {
        AntiEntropySim {
            topology,
            routes,
            sampler,
            origin: None,
            connection_limit: None,
            hunt_limit: 0,
            max_cycles: 10_000,
        }
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

    /// Runs one experiment — a single update, push-pull full-database
    /// anti-entropy each cycle, simulated until every site holds the
    /// update — on the heap state `arena` kept from earlier runs, reporting
    /// every contact and cycle boundary to `observer` (e.g. a
    /// [`TraceObserver`](crate::engine::trace::TraceObserver) or
    /// [`InvariantObserver`](crate::engine::trace::InvariantObserver);
    /// `&mut ()` for none). The result equals a fresh arena's, and once the
    /// arena has grown to this topology nothing is allocated.
    pub fn run<'s, 'r, O>(
        &'s self,
        arena: &'r mut SpatialArena,
        seed: u64,
        observer: &mut O,
    ) -> SpatialRunResult<'r>
    where
        O: Observer<SpatialAntiEntropyProtocol<'s>>,
    {
        let mut rng = StdRng::seed_from_u64(seed);
        let sites = self.topology.sites();
        let links = self.topology.link_count();
        let mut spread = arena.spread(sites, self.origin, &self.routes, links, &mut rng);
        // Pure anti-entropy: nothing is "hot".
        spread.replicas[spread.origin].hot_mut().clear();
        let mut protocol = SpatialAntiEntropyProtocol {
            exchange: AntiEntropy::new(Direction::PushPull, Comparison::Full),
            spread,
            scratch: std::mem::take(&mut arena.exchange),
        };
        let report = CycleEngine::new()
            .connection_limit(self.connection_limit)
            .hunt_limit(self.hunt_limit)
            .max_cycles(self.max_cycles)
            .run(
                &mut protocol,
                &SpatialPartners::new(sites, &self.sampler),
                &mut rng,
                observer,
                &mut arena.buffers,
            );
        arena.restore(protocol.spread);
        arena.exchange = protocol.scratch;
        SpatialRunResult {
            t_last: arena.received.t_last().unwrap_or(0),
            t_ave: arena.received.t_ave_all(report.cycles),
            compare_traffic: &arena.compare,
            update_traffic: &arena.update,
            cycles: report.cycles,
        }
    }
}

/// Push-pull full-database anti-entropy over a topology: every site
/// initiates each cycle, the run ends when every site holds the update,
/// and each conversation is charged along its shortest route.
///
/// Public so observers can be written against it (it is the `P` of
/// [`AntiEntropySim::run`]); construction stays crate-internal.
pub struct SpatialAntiEntropyProtocol<'a> {
    exchange: AntiEntropy,
    pub(crate) spread: Spread<'a>,
    scratch: ExchangeScratch<u32>,
}

impl EpidemicProtocol for SpatialAntiEntropyProtocol<'_> {
    fn site_count(&self) -> usize {
        self.spread.replicas.len()
    }

    fn finished(&self, _cycle: u32, _active: &[usize]) -> bool {
        self.spread.received.complete()
    }

    fn contact(&mut self, cycle: u32, i: usize, j: usize, _rng: &mut StdRng) -> ContactStats {
        let Spread {
            sites,
            replicas,
            received,
            recorder,
            ..
        } = &mut self.spread;
        // A site is marked exactly when it holds the update — the origin
        // from the start, everyone else from the contact that delivered it
        // — and there is one version of one key, so two sites with equal
        // marks hold equal databases: the conversation still happens and
        // is charged, but its diff is empty and need not be computed.
        if received.is_marked(i) == received.is_marked(j) {
            #[cfg(debug_assertions)]
            {
                let (a, b) = pair_mut(replicas, i, j);
                let stats = self.exchange.exchange_with(a, b, &mut self.scratch);
                assert!(
                    !stats.update_flowed(),
                    "sites {i} and {j} carry equal marks but exchanged {stats:?}"
                );
            }
            recorder.record(sites[i], sites[j], 0);
            return ContactStats::default();
        }
        let (a, b) = pair_mut(replicas, i, j);
        let stats = self.exchange.exchange_with(a, b, &mut self.scratch);
        let flowed = stats.update_flowed();
        recorder.record(sites[i], sites[j], u64::from(flowed));
        if flowed {
            for idx in [i, j] {
                if replicas[idx].db().entry(&KEY).is_some() {
                    received.mark(idx, cycle);
                }
            }
        }
        ContactStats {
            sent: u64::from(flowed),
            useful: u64::from(flowed),
        }
    }
}

impl crate::engine::SirView for SpatialAntiEntropyProtocol<'_> {
    fn sir_counts(&self) -> crate::engine::SirCounts {
        // Pure anti-entropy never removes: every informed site keeps
        // exchanging forever (the run just stops at full coverage).
        let have = self.spread.received.received_count();
        crate::engine::SirCounts {
            susceptible: self.spread.replicas.len() - have,
            infective: have,
            removed: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epidemic_net::topologies;

    #[test]
    fn converges_on_a_ring() {
        let topo = topologies::ring(20);
        let sim = AntiEntropySim::new(&topo, Spatial::Uniform).origin(topo.sites()[0]);
        let mut arena = SpatialArena::new();
        let r = sim.run(&mut arena, 1, &mut ());
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
        let uniform = AntiEntropySim::new(&topo, Spatial::Uniform).origin(topo.sites()[0]);
        let local = AntiEntropySim::new(&topo, Spatial::QsPower { a: 2.0 }).origin(topo.sites()[0]);
        let mid_link = topo
            .link_between(topo.sites()[14], topo.sites()[15])
            .unwrap();
        let mut arena = SpatialArena::new();
        let mut mid = |sim: &AntiEntropySim<'_>, seed| {
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
        let unlimited = AntiEntropySim::new(&topo, Spatial::Uniform).origin(topo.sites()[0]);
        let limited = AntiEntropySim::new(&topo, Spatial::Uniform)
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
    fn deterministic_given_seed() {
        let topo = topologies::ring(16);
        let sim = AntiEntropySim::new(&topo, Spatial::QsPower { a: 1.4 });
        let mut arena = SpatialArena::new();
        let a = sim.run(&mut arena, 5, &mut ());
        let (t_last, compare) = (a.t_last, a.compare_traffic.clone());
        let b = sim.run(&mut arena, 5, &mut ());
        assert_eq!(t_last, b.t_last);
        assert_eq!(&compare, b.compare_traffic);
    }
}
