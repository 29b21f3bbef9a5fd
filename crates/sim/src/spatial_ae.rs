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

use epidemic_core::{AntiEntropy, Comparison, Direction, ExchangeScratch, Replica};
use epidemic_db::SiteId;
use epidemic_net::{LinkTraffic, PartnerSampler, PartnerSelection, Routes, Spatial, Topology};
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::SeedableRng;

use crate::engine::{
    ContactStats, CycleEngine, EpidemicProtocol, ReceiveLog, RouteRecorder, SpatialPartners,
};
use crate::util::pair_mut;

/// Result of one spatial anti-entropy run (one update, one topology).
#[derive(Debug, Clone)]
pub struct SpatialRunResult {
    /// Cycles until the last site received the update.
    pub t_last: u32,
    /// Mean cycles from injection to receipt over all sites.
    pub t_ave: f64,
    /// Conversations charged per link, accumulated over `t_last` cycles.
    pub compare_traffic: LinkTraffic,
    /// Update-bearing conversations charged per link, accumulated over the
    /// whole run.
    pub update_traffic: LinkTraffic,
    /// Cycles simulated (equals `t_last`: the run stops at convergence).
    pub cycles: u32,
}

impl SpatialRunResult {
    /// Mean compare conversations per link *per cycle*.
    pub fn compare_per_link_cycle(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.compare_traffic.mean_per_link() / f64::from(self.cycles)
    }

    /// Mean update transmissions per link over the run.
    pub fn update_per_link(&self) -> f64 {
        self.update_traffic.mean_per_link()
    }
}

/// Driver for the Table 4/5 experiments.
///
/// # Example
///
/// ```
/// use epidemic_net::{topologies, Spatial};
/// use epidemic_sim::spatial_ae::AntiEntropySim;
///
/// let topo = topologies::ring(24);
/// let sim = AntiEntropySim::new(&topo, Spatial::QsPower { a: 2.0 });
/// let result = sim.run(7, None);
/// assert!(result.t_last > 0);
/// ```
#[derive(Debug)]
pub struct AntiEntropySim<'a, S = PartnerSampler> {
    topology: &'a Topology,
    routes: Cow<'a, Routes>,
    sampler: S,
    connection_limit: Option<u32>,
    hunt_limit: u32,
    max_cycles: u32,
}

/// The single key the spreading update uses.
const KEY: u32 = 0;

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
            connection_limit: None,
            hunt_limit: 0,
            max_cycles: 10_000,
        }
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

    /// Shortest-path routing tables (exposed for analysis).
    pub fn routes(&self) -> &Routes {
        &self.routes
    }

    /// Runs one experiment: a single update injected at `origin` (or at a
    /// random site when `None`), push-pull full-database anti-entropy each
    /// cycle, simulated until every site holds the update.
    pub fn run(&self, seed: u64, origin: Option<SiteId>) -> SpatialRunResult {
        self.run_observed(seed, origin, &mut ())
    }

    /// As [`AntiEntropySim::run`], reporting every contact and cycle
    /// boundary to `observer` — e.g. a
    /// [`TraceObserver`](crate::engine::trace::TraceObserver) or
    /// [`InvariantObserver`](crate::engine::trace::InvariantObserver).
    pub fn run_observed<'s, O>(
        &'s self,
        seed: u64,
        origin: Option<SiteId>,
        observer: &mut O,
    ) -> SpatialRunResult
    where
        O: crate::engine::Observer<SpatialAntiEntropyProtocol<'s>>,
    {
        let mut rng = StdRng::seed_from_u64(seed);
        let sites = self.topology.sites();
        let n = sites.len();
        let mut replicas: Vec<Replica<u32, u32>> = sites.iter().map(|&s| Replica::new(s)).collect();
        let origin = origin.unwrap_or_else(|| *sites.choose(&mut rng).expect("sites"));
        let origin_idx = sites.binary_search(&origin).expect("site exists");
        replicas[origin_idx].client_update(KEY, 1);
        replicas[origin_idx].hot_mut().clear(); // pure anti-entropy: nothing is "hot"
        let mut received = ReceiveLog::new(n);
        received.mark(origin_idx, 0);

        let mut protocol = SpatialAntiEntropyProtocol {
            exchange: AntiEntropy::new(Direction::PushPull, Comparison::Full),
            sites,
            replicas,
            received,
            recorder: RouteRecorder::new(&self.routes, self.topology.link_count()),
            scratch: ExchangeScratch::new(),
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
            );

        SpatialRunResult {
            t_last: protocol.received.t_last().unwrap_or(0),
            t_ave: protocol.received.t_ave_all(report.cycles),
            compare_traffic: protocol.recorder.compare,
            update_traffic: protocol.recorder.update,
            cycles: report.cycles,
        }
    }

    /// Runs `trials` experiments in parallel with seeds
    /// `seed_base + trial`, returning results in trial order — identical
    /// to a sequential loop over [`AntiEntropySim::run`] at any thread
    /// count.
    pub fn run_trials(
        &self,
        runner: crate::runner::TrialRunner,
        trials: u64,
        seed_base: u64,
        origin: Option<SiteId>,
    ) -> Vec<SpatialRunResult>
    where
        S: Sync,
    {
        runner.run(trials, seed_base, |seed| self.run(seed, origin))
    }
}

/// Push-pull full-database anti-entropy over a topology: every site
/// initiates each cycle, the run ends when every site holds the update,
/// and each conversation is charged along its shortest route.
///
/// Public so observers can be written against it (it is the `P` of
/// [`AntiEntropySim::run_observed`]); construction stays crate-internal.
pub struct SpatialAntiEntropyProtocol<'a> {
    exchange: AntiEntropy,
    pub(crate) sites: &'a [SiteId],
    pub(crate) replicas: Vec<Replica<u32, u32>>,
    received: ReceiveLog<u32>,
    recorder: RouteRecorder<'a>,
    scratch: ExchangeScratch<u32, u32>,
}

impl EpidemicProtocol for SpatialAntiEntropyProtocol<'_> {
    fn site_count(&self) -> usize {
        self.replicas.len()
    }

    fn finished(&self, _cycle: u32, _active: &[usize]) -> bool {
        self.received.complete()
    }

    fn contact(&mut self, cycle: u32, i: usize, j: usize, _rng: &mut StdRng) -> ContactStats {
        // A site is marked exactly when it holds the update — the origin
        // from the start, everyone else from the contact that delivered it
        // — and there is one version of one key, so two sites with equal
        // marks hold equal databases: the conversation still happens and
        // is charged, but its diff is empty and need not be computed.
        if self.received.is_marked(i) == self.received.is_marked(j) {
            #[cfg(debug_assertions)]
            {
                let (a, b) = pair_mut(&mut self.replicas, i, j);
                let stats = self.exchange.exchange_with(a, b, &mut self.scratch);
                assert!(
                    !stats.update_flowed(),
                    "sites {i} and {j} carry equal marks but exchanged {stats:?}"
                );
            }
            self.recorder.record(self.sites[i], self.sites[j], 0);
            return ContactStats::default();
        }
        let (a, b) = pair_mut(&mut self.replicas, i, j);
        let stats = self.exchange.exchange_with(a, b, &mut self.scratch);
        let flowed = stats.update_flowed();
        self.recorder
            .record(self.sites[i], self.sites[j], u64::from(flowed));
        if flowed {
            for idx in [i, j] {
                if self.replicas[idx].db().entry(&KEY).is_some() {
                    self.received.mark(idx, cycle);
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
        let have = self.received.received_count();
        crate::engine::SirCounts {
            susceptible: self.replicas.len() - have,
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
        let sim = AntiEntropySim::new(&topo, Spatial::Uniform);
        let r = sim.run(1, Some(topo.sites()[0]));
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
        let uniform = AntiEntropySim::new(&topo, Spatial::Uniform);
        let local = AntiEntropySim::new(&topo, Spatial::QsPower { a: 2.0 });
        let mut uniform_mid = 0.0;
        let mut local_mid = 0.0;
        let mid_link = topo
            .link_between(topo.sites()[14], topo.sites()[15])
            .unwrap();
        for seed in 0..10 {
            let ru = uniform.run(seed, Some(topo.sites()[0]));
            let rl = local.run(seed, Some(topo.sites()[0]));
            uniform_mid += ru.compare_traffic.at(mid_link) as f64 / f64::from(ru.cycles);
            local_mid += rl.compare_traffic.at(mid_link) as f64 / f64::from(rl.cycles);
        }
        assert!(
            local_mid < uniform_mid / 2.0,
            "local {local_mid} vs uniform {uniform_mid}"
        );
    }

    #[test]
    fn connection_limit_slows_but_still_converges() {
        let topo = topologies::grid(&[5, 5]);
        let unlimited = AntiEntropySim::new(&topo, Spatial::Uniform);
        let limited = AntiEntropySim::new(&topo, Spatial::Uniform).connection_limit(Some(1));
        let mut t_unlimited = 0.0;
        let mut t_limited = 0.0;
        for seed in 0..10 {
            t_unlimited += f64::from(unlimited.run(seed, Some(topo.sites()[0])).t_last);
            t_limited += f64::from(limited.run(seed, Some(topo.sites()[0])).t_last);
        }
        assert!(t_limited > t_unlimited, "{t_limited} vs {t_unlimited}");
    }

    #[test]
    fn deterministic_given_seed() {
        let topo = topologies::ring(16);
        let sim = AntiEntropySim::new(&topo, Spatial::QsPower { a: 1.4 });
        let a = sim.run(5, None);
        let b = sim.run(5, None);
        assert_eq!(a.t_last, b.t_last);
        assert_eq!(a.compare_traffic, b.compare_traffic);
    }
}
