//! Event-driven (asynchronous) anti-entropy simulation.
//!
//! The paper's simulations — and this crate's other drivers — use
//! synchronized cycles: every site acts once per cycle. Real Clearinghouse
//! servers were not synchronized; each ran anti-entropy on its own timer.
//! This driver replays the Table 4 experiment on a discrete-event queue
//! with per-site periods and jitter, as an *ablation of the synchrony
//! assumption*: convergence times (measured in periods) and per-link
//! traffic rates come out close to the round-synchronous results, so the
//! paper's conclusions do not hinge on lockstep cycles.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use epidemic_core::{AntiEntropy, Comparison, Direction, Replica};
use epidemic_db::SiteId;
use epidemic_net::{LinkTraffic, PartnerSampler, PartnerSelection, Routes, Spatial, Topology};
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::{RngExt, SeedableRng};

use crate::engine::{ReceiveLog, RouteCharge};

/// Time in microticks; one nominal anti-entropy period is
/// [`AsyncSpatialSim::PERIOD`] microticks.
pub(crate) type Micros = u64;

/// Result of one asynchronous run.
#[derive(Debug, Clone)]
pub struct AsyncRunResult {
    /// Time (in periods) until the last site received the update.
    pub t_last: f64,
    /// Mean time (in periods) from injection to receipt over all sites.
    pub t_ave: f64,
    /// Total exchanges performed until convergence.
    pub exchanges: u64,
    /// Conversations per link, accumulated over the run.
    pub compare_traffic: LinkTraffic,
    /// Update-bearing conversations per link.
    pub update_traffic: LinkTraffic,
    /// Conversations per link per period, averaged over links.
    pub compare_per_link_period: f64,
}

/// Discrete-event anti-entropy driver with per-site timers.
///
/// # Example
///
/// ```
/// use epidemic_net::{topologies, Spatial};
/// use epidemic_sim::event::AsyncSpatialSim;
///
/// let topo = topologies::ring(16);
/// let sim = AsyncSpatialSim::new(&topo, Spatial::Uniform, 0.2);
/// let r = sim.run(3, None);
/// assert!(r.t_last > 0.0);
/// ```
#[derive(Debug)]
pub struct AsyncSpatialSim<'a> {
    topology: &'a Topology,
    routes: Routes,
    sampler: PartnerSampler,
    jitter: f64,
}

const KEY: u32 = 0;

/// Safety bound on the exchanges of one run.
const MAX_EVENTS: u64 = 10_000_000;

impl<'a> AsyncSpatialSim<'a> {
    /// Nominal anti-entropy period in microticks.
    pub(crate) const PERIOD: Micros = 1_000;

    /// Builds the simulator. `jitter` is the fraction of the period by
    /// which each firing deviates, uniformly in `[-jitter, +jitter]`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= jitter < 1.0`.
    pub fn new(topology: &'a Topology, spatial: Spatial, jitter: f64) -> Self {
        assert!((0.0..1.0).contains(&jitter), "jitter must be in [0, 1)");
        let routes = Routes::compute(topology);
        let sampler = PartnerSampler::new(topology, &routes, spatial);
        AsyncSpatialSim {
            topology,
            routes,
            sampler,
            jitter,
        }
    }

    /// Runs one experiment: a single update injected at `origin` (random
    /// when `None`) at time 0; every site fires anti-entropy exchanges on
    /// its own jittered timer until all sites hold the update.
    pub fn run(&self, seed: u64, origin: Option<SiteId>) -> AsyncRunResult {
        let mut rng = StdRng::seed_from_u64(seed);
        let sites = self.topology.sites();
        let n = sites.len();
        let mut replicas: Vec<Replica<u32, u32>> = sites.iter().map(|&s| Replica::new(s)).collect();
        let origin = origin.unwrap_or_else(|| *sites.choose(&mut rng).expect("sites"));
        let origin_idx = sites.binary_search(&origin).expect("site exists");
        replicas[origin_idx].client_update(KEY, 1);
        replicas[origin_idx].hot_mut().clear();
        let mut received: ReceiveLog<Micros> = ReceiveLog::new(n);
        received.mark(origin_idx, 0);

        // Seed each site's first firing with a random phase so the fleet
        // starts fully desynchronized.
        let mut queue: BinaryHeap<Reverse<(Micros, usize)>> = (0..n)
            .map(|i| Reverse((rng.random_range(0..Self::PERIOD), i)))
            .collect();

        let protocol = AntiEntropy::new(Direction::PushPull, Comparison::Full);
        let mut scratch = epidemic_core::ExchangeScratch::new();
        let mut charge = RouteCharge::new(self.topology, &self.routes, 0);
        let mut exchanges = 0u64;
        let mut now = 0;

        while !received.complete() && exchanges < MAX_EVENTS {
            let Some(Reverse((t, i))) = queue.pop() else {
                break;
            };
            now = t;
            let j = self.sampler.select(i, &mut rng);
            let (a, b) = crate::util::pair_mut(&mut replicas, i, j);
            let stats = protocol.exchange_with(a, b, &mut scratch);
            exchanges += 1;
            let flowed = stats.update_flowed();
            charge.record(i, j, u64::from(flowed));
            if flowed {
                for idx in [i, j] {
                    if replicas[idx].db().entry(&KEY).is_some() {
                        received.mark(idx, now);
                    }
                }
            }
            // Schedule this site's next firing.
            let base = Self::PERIOD as f64;
            let jitter = 1.0 + self.jitter * (2.0 * rng.random::<f64>() - 1.0);
            let next = now + (base * jitter).max(1.0) as Micros;
            queue.push(Reverse((next, i)));
        }

        let period = Self::PERIOD as f64;
        let t_last = received.t_last().unwrap_or(0) as f64 / period;
        let t_ave = received.t_ave_all(now) / period;
        let periods_elapsed = (now as f64 / period).max(1.0);
        let compare_per_link_period = charge.compare.mean_per_link() / periods_elapsed;
        AsyncRunResult {
            t_last,
            t_ave,
            exchanges,
            compare_traffic: charge.compare,
            update_traffic: charge.update,
            compare_per_link_period,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spatial::{SpatialArena, SpatialSim};
    use epidemic_net::topologies;

    #[test]
    fn converges_and_accounts_traffic() {
        let topo = topologies::grid(&[5, 5]);
        let sim = AsyncSpatialSim::new(&topo, Spatial::Uniform, 0.2);
        let r = sim.run(1, Some(topo.sites()[0]));
        assert!(r.t_last > 0.0);
        assert!(r.t_ave <= r.t_last);
        assert!(r.update_traffic.total() > 0);
        assert!(r.exchanges >= 24);
    }

    #[test]
    fn asynchronous_matches_synchronous_convergence_roughly() {
        // The ablation claim: measured in periods, asynchronous t_last is
        // within a factor ~1.6 of the synchronous cycle count.
        let topo = topologies::grid(&[6, 6]);
        let sync = SpatialSim::new(&topo, Spatial::Uniform).origin(topo.sites()[0]);
        let async_ = AsyncSpatialSim::new(&topo, Spatial::Uniform, 0.3);
        let mut arena = SpatialArena::new();
        let trials = 15;
        let mut sync_mean = 0.0;
        let mut async_mean = 0.0;
        for seed in 0..trials {
            sync_mean += f64::from(sync.run(&mut arena, seed, &mut ()).t_last);
            async_mean += async_.run(seed, Some(topo.sites()[0])).t_last;
        }
        sync_mean /= f64::from(trials as u32);
        async_mean /= f64::from(trials as u32);
        let ratio = async_mean / sync_mean;
        assert!(
            (0.6..1.7).contains(&ratio),
            "async {async_mean} vs sync {sync_mean} (ratio {ratio})"
        );
    }

    #[test]
    fn jitter_zero_is_allowed_and_deterministic() {
        let topo = topologies::ring(12);
        let sim = AsyncSpatialSim::new(&topo, Spatial::QsPower { a: 2.0 }, 0.0);
        let a = sim.run(7, None);
        let b = sim.run(7, None);
        assert_eq!(a.exchanges, b.exchanges);
        assert_eq!(a.t_last, b.t_last);
    }

    #[test]
    #[should_panic(expected = "jitter")]
    fn rejects_out_of_range_jitter() {
        let topo = topologies::ring(6);
        AsyncSpatialSim::new(&topo, Spatial::Uniform, 1.5);
    }
}
