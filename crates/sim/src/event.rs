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
//! Only the scheduling differs from [`SpatialSim`]'s Table 4 runs: the
//! same [`MixingProtocol`] makes every contact — push-pull anti-entropy
//! on the receive log's marks, with no replica built — its receipt times
//! in micro-ticks instead of cycles.

use std::cmp::Reverse;

use epidemic_db::SiteId;
use epidemic_net::{PartnerSelection, Routes, Spatial, Topology};
use epidemic_trace::TraceTotals;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::engine::protocols::MixingProtocol;
use crate::engine::{EpidemicProtocol, Observer};
use crate::mixing::MixingArena;
use crate::spatial::SpatialSim;

/// Result of one asynchronous run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AsyncRunResult {
    /// Time (in periods) until the last site received the update.
    pub t_last: f64,
    /// Mean time (in periods) from injection to receipt over the sites
    /// that received the update: all of them once the run completes.
    pub t_ave: f64,
    /// Total exchanges performed until convergence.
    pub exchanges: u64,
}

/// Discrete-event scheduler of [`SpatialSim`]'s anti-entropy runs, with
/// per-site timers in place of cycles.
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
    sim: SpatialSim<'a>,
    jitter: f64,
}

/// Nominal anti-entropy period in micro-ticks.
const PERIOD: u32 = 1_000;

/// Safety bound on a run's clock, in periods, as the cycle engine bounds
/// cycles. Every site fires at least once every two periods, so a run on
/// a connected topology converges long before it; the bound stops any
/// other while the clock, in micro-ticks, still fits the receive log's
/// `u32`.
const MAX_PERIODS: u32 = 100_000;

impl<'a> AsyncSpatialSim<'a> {
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
            sim: SpatialSim::new(topology, routes, spatial),
            jitter,
        }
    }

    /// Runs one experiment: a single update injected at `origin` (random
    /// when `None`) at time 0; every site fires anti-entropy exchanges on
    /// its own jittered timer until all sites hold the update. `observer`
    /// sees the run start, every exchange, with the 1-based period it fell
    /// in as its cycle, and the run's totals: e.g. a
    /// [`RouteCharge`](crate::engine::RouteCharge) built for this
    /// topology, and `&mut ()` for none. The run keeps its receive log
    /// and queue in `arena`; the result equals a fresh arena's, and once
    /// the arena has grown to this topology nothing is allocated.
    pub fn run<O: Observer<MixingProtocol>>(
        &self,
        arena: &mut MixingArena,
        seed: u64,
        origin: Option<SiteId>,
        observer: &mut O,
    ) -> AsyncRunResult {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut protocol = self.sim.start(&mut arena.state, origin, &mut rng);

        // Seed each site's first firing with a random phase so the fleet
        // starts fully desynchronized.
        let queue = &mut arena.queue;
        queue.clear();
        let n = protocol.site_count();
        queue.extend((0..n).map(|i| Reverse((rng.random_range(0..PERIOD), i))));

        observer.on_run_start(&protocol);
        let mut totals = TraceTotals::default();
        while !protocol.state.received.complete() {
            let Reverse((now, i)) = queue.pop().expect("every site has a firing queued");
            if now > MAX_PERIODS * PERIOD {
                break;
            }
            let j = self.sim.sampler.select(i, &mut rng);
            let stats = protocol.contact(now, i, j, &mut rng);
            stats.add_to(&mut totals);
            observer.on_contact(now / PERIOD + 1, i, j, &stats);
            // Schedule this site's next firing.
            let jitter = 1.0 + self.jitter * (2.0 * rng.random::<f64>() - 1.0);
            let next = now + (f64::from(PERIOD) * jitter).max(1.0) as u32;
            queue.push(Reverse((next, i)));
        }
        observer.on_run_end(&totals);

        let received = &protocol.state.received;
        let period = f64::from(PERIOD);
        let result = AsyncRunResult {
            t_last: f64::from(received.t_last().unwrap_or(0)) / period,
            t_ave: received.t_ave_received() / period,
            exchanges: totals.contacts,
        };
        arena.state = protocol.state;
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::RouteCharge;
    use epidemic_net::{topologies, LinkTraffic};
    use epidemic_trace::InvariantChecker;

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

    /// Observers only watch: a run under a charge and the invariant
    /// checker returns what the unobserved run does, and the checker finds
    /// the run's totals equal to the exchanges it saw.
    #[test]
    fn observing_a_run_changes_nothing() {
        let topo = topologies::grid(&[5, 5]);
        let routes = Routes::compute(&topo);
        let sim = AsyncSpatialSim::new(&topo, &routes, Spatial::QsPower { a: 2.0 }, 0.3);
        let mut arena = MixingArena::new();
        let mut counters = <[LinkTraffic; 2]>::default();
        for seed in 0..4 {
            let mut charge = RouteCharge::new(&topo, &routes, 0, &mut counters);
            let mut check = InvariantChecker::default();
            let observed = sim.run(&mut arena, seed, None, &mut (&mut charge, &mut check));
            assert_eq!(observed, sim.run(&mut arena, seed, None, &mut ()));
            assert_eq!(check.violation_count(), 0, "{:?}", check.violations());
            assert!(charge.compare.total() >= observed.exchanges);
        }
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
        let trials = 15;
        let mut sync_mean = 0.0;
        let mut async_mean = 0.0;
        for seed in 0..trials {
            sync_mean += sync.run(&mut arena, seed, &mut ()).t_last;
            let origin = Some(topo.sites()[0]);
            async_mean += async_.run(&mut arena, seed, origin, &mut ()).t_last;
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
