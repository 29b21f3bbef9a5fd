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

use epidemic_core::{AntiEntropy, Comparison, Direction};
use epidemic_db::SiteId;
use epidemic_net::{PartnerSampler, PartnerSelection, Routes, Spatial, Topology};
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::{RngExt, SeedableRng};

use crate::engine::RouteCharge;
use crate::mixing::MixingArena;
use crate::util::{reset_replicas, seed_quietly, KEY};

/// Time in microticks; one nominal anti-entropy period is
/// [`AsyncSpatialSim::PERIOD`] microticks.
pub(crate) type Micros = u64;

/// Result of one asynchronous run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AsyncRunResult {
    /// Time (in periods) until the last site received the update.
    pub t_last: f64,
    /// Mean time (in periods) from injection to receipt over all sites.
    pub t_ave: f64,
    /// Total exchanges performed until convergence.
    pub exchanges: u64,
    /// Conversations per link per period, averaged over links.
    pub compare_per_link_period: f64,
}

/// Discrete-event anti-entropy driver with per-site timers.
///
/// # Example
///
/// ```
/// use epidemic_net::{topologies, LinkTraffic, Routes, Spatial};
/// use epidemic_sim::engine::RouteCharge;
/// use epidemic_sim::event::AsyncSpatialSim;
/// use epidemic_sim::MixingArena;
///
/// let topo = topologies::ring(16);
/// let routes = Routes::compute(&topo);
/// let sim = AsyncSpatialSim::new(&topo, &routes, Spatial::Uniform, 0.2);
/// let mut counters = <[LinkTraffic; 2]>::default();
/// let mut charge = RouteCharge::new(&topo, &routes, 0, &mut counters);
/// assert!(sim.run(&mut MixingArena::new(), 3, None, &mut charge).t_last > 0.0);
/// ```
#[derive(Debug)]
pub struct AsyncSpatialSim<'a> {
    sites: &'a [SiteId],
    sampler: PartnerSampler,
    jitter: f64,
}

/// Safety bound on the exchanges of one run.
const MAX_EVENTS: u64 = 10_000_000;

impl<'a> AsyncSpatialSim<'a> {
    /// Nominal anti-entropy period in microticks.
    pub(crate) const PERIOD: Micros = 1_000;

    /// Builds the simulator for `topology`, sampling along `routes` (which
    /// must be [`Routes::compute`]`(topology)`). `jitter` is the fraction
    /// of the period by which each firing deviates, uniformly in
    /// `[-jitter, +jitter]`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= jitter < 1.0`.
    pub fn new(topology: &'a Topology, routes: &Routes, spatial: Spatial, jitter: f64) -> Self {
        assert!((0.0..1.0).contains(&jitter), "jitter must be in [0, 1)");
        AsyncSpatialSim {
            sites: topology.sites(),
            sampler: PartnerSampler::new(topology, routes, spatial),
            jitter,
        }
    }

    /// Runs one experiment: a single update injected at `origin` (random
    /// when `None`) at time 0; every site fires anti-entropy exchanges on
    /// its own jittered timer until all sites hold the update, each
    /// exchange charged to `charge` (built for this topology). The run
    /// keeps its replicas, log and queue in `arena`; the result equals a
    /// fresh arena's, and once the arena has grown to this topology
    /// nothing is allocated.
    pub fn run(
        &self,
        arena: &mut MixingArena,
        seed: u64,
        origin: Option<SiteId>,
        charge: &mut RouteCharge<'_>,
    ) -> AsyncRunResult {
        let mut rng = StdRng::seed_from_u64(seed);
        let sites = self.sites;
        let n = sites.len();
        let (replicas, scratch) = (&mut arena.state.sites, &mut arena.state.exchange);
        let (received, queue) = (&mut arena.timed, &mut arena.queue);
        reset_replicas(replicas, sites.iter().copied(), 0);
        let origin = origin.unwrap_or_else(|| *sites.choose(&mut rng).expect("sites"));
        let origin_idx = sites.binary_search(&origin).expect("site exists");
        seed_quietly(&mut replicas[origin_idx]);
        received.reset(n);
        received.mark(origin_idx, 0);

        // Seed each site's first firing with a random phase so the fleet
        // starts fully desynchronized.
        queue.clear();
        queue.extend((0..n).map(|i| Reverse((rng.random_range(0..Self::PERIOD), i))));

        let protocol = AntiEntropy::new(Direction::PushPull, Comparison::Full);
        let mut exchanges = 0u64;
        let mut now = 0;

        while !received.complete() && exchanges < MAX_EVENTS {
            let Some(Reverse((t, i))) = queue.pop() else {
                break;
            };
            now = t;
            let j = self.sampler.select(i, &mut rng);
            let (a, b) = crate::util::pair_mut(replicas, i, j);
            let stats = protocol.exchange_with(a, b, scratch);
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
        let periods_elapsed = (now as f64 / period).max(1.0);
        AsyncRunResult {
            t_last: received.t_last().unwrap_or(0) as f64 / period,
            t_ave: received.t_ave_all(now) / period,
            exchanges,
            compare_per_link_period: charge.compare.mean_per_link() / periods_elapsed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spatial::SpatialSim;
    use epidemic_net::{topologies, LinkTraffic};

    #[test]
    fn converges_and_accounts_traffic() {
        let topo = topologies::grid(&[5, 5]);
        let routes = Routes::compute(&topo);
        let sim = AsyncSpatialSim::new(&topo, &routes, Spatial::Uniform, 0.2);
        let mut counters = <[LinkTraffic; 2]>::default();
        let mut charge = RouteCharge::new(&topo, &routes, 0, &mut counters);
        let r = sim.run(
            &mut MixingArena::new(),
            1,
            Some(topo.sites()[0]),
            &mut charge,
        );
        assert!(r.t_last > 0.0);
        assert!(r.t_ave <= r.t_last);
        assert!(charge.update.total() > 0);
        assert!(r.exchanges >= 24);
    }

    #[test]
    fn asynchronous_matches_synchronous_convergence_roughly() {
        // The ablation claim: measured in periods, asynchronous t_last is
        // within a factor ~1.6 of the synchronous cycle count.
        let topo = topologies::grid(&[6, 6]);
        let routes = Routes::compute(&topo);
        let sync = SpatialSim::new(&topo, &routes, Spatial::Uniform).origin(topo.sites()[0]);
        let async_ = AsyncSpatialSim::new(&topo, &routes, Spatial::Uniform, 0.3);
        let mut arena = MixingArena::new();
        let mut counters = Default::default();
        let trials = 15;
        let mut sync_mean = 0.0;
        let mut async_mean = 0.0;
        for seed in 0..trials {
            sync_mean += sync.run(&mut arena, seed, &mut ()).t_last;
            let mut charge = RouteCharge::new(&topo, &routes, 0, &mut counters);
            let origin = Some(topo.sites()[0]);
            async_mean += async_.run(&mut arena, seed, origin, &mut charge).t_last;
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
    #[should_panic(expected = "jitter")]
    fn rejects_out_of_range_jitter() {
        let topo = topologies::ring(6);
        AsyncSpatialSim::new(&topo, &Routes::compute(&topo), Spatial::Uniform, 1.5);
    }
}
