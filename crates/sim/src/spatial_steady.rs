//! Steady-state anti-entropy on a topology — the production Clearinghouse
//! configuration (paper §1.3 + §3.1 combined).
//!
//! Table 4's note: "the distinction between compare and update traffic can
//! be significant if checksums are used for database comparison". This
//! driver runs continuous update injection on a real topology with the
//! recent-update-list comparison, measuring per-link *entry* traffic — the
//! bytes-on-the-wire proxy — under different spatial distributions. It
//! shows that the spatial distribution's savings survive in steady state,
//! where most conversations carry a handful of recent entries rather than
//! one epidemic update.

use epidemic_core::{AntiEntropy, Comparison, Direction, ExchangeScratch, Replica};
use epidemic_db::SiteId;
use epidemic_net::{LinkTraffic, PartnerSampler, Routes, Spatial, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::engine::{
    ContactStats, CycleEngine, EngineBuffers, EpidemicProtocol, RouteRecorder, SpatialPartners,
    UpdateInjector,
};
use crate::util::{pair_mut, reset_replicas};

/// Configuration for the steady-state spatial experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpatialSteadyConfig {
    /// New updates injected per cycle at uniformly random sites.
    pub updates_per_cycle: f64,
    /// Comparison strategy for the per-cycle exchanges.
    pub comparison: Comparison,
    /// Warm-up cycles excluded from measurement.
    pub warmup: u32,
    /// Measured cycles.
    pub cycles: u32,
}

impl Default for SpatialSteadyConfig {
    fn default() -> Self {
        SpatialSteadyConfig {
            updates_per_cycle: 2.0,
            comparison: Comparison::RecentList { tau: 400 },
            warmup: 20,
            cycles: 60,
        }
    }
}

/// Measurements from one steady-state spatial run. With no measured
/// cycles, every per-cycle rate and `full_compare_rate` is 0.
#[derive(Debug, Clone)]
pub struct SpatialSteadyReport<'a> {
    /// Conversations per link per cycle (mean over links).
    pub conversations_per_link_cycle: f64,
    /// Entries transmitted per link per cycle (mean over links).
    pub entries_per_link_cycle: f64,
    /// Fraction of exchanges that fell back to a full comparison.
    pub full_compare_rate: f64,
    /// Entry traffic per link, for singling out critical links: the
    /// counters of the arena the run was given.
    pub entry_traffic: &'a LinkTraffic,
    /// Cycles measured.
    pub measured_cycles: u32,
    /// Conversations recorded during the measured cycles (the
    /// denominator behind `full_compare_rate`): exactly
    /// `sites × measured_cycles` when every site initiates each cycle.
    pub exchanges: u64,
}

/// Everything a [`SpatialSteadySim`] run keeps on the heap — the replicas,
/// the per-link counters, the exchange scratch and the engine's roster
/// buffers — owned across runs, so that a run on a warm arena allocates
/// nothing. One arena serves any sequence of simulators and topologies;
/// each run starts from a state indistinguishable from a fresh one.
#[derive(Debug, Default)]
pub struct SpatialSteadyArena {
    replicas: Vec<Replica<u32, u64>>,
    compare: LinkTraffic,
    update: LinkTraffic,
    scratch: ExchangeScratch<u32>,
    buffers: EngineBuffers,
}

impl SpatialSteadyArena {
    /// An empty arena. Allocates nothing until its first run.
    pub fn new() -> Self {
        SpatialSteadyArena::default()
    }
}

/// Driver: continuous updates + anti-entropy with spatial partner
/// selection on a topology.
///
/// # Example
///
/// ```
/// use epidemic_net::{topologies, Spatial};
/// use epidemic_sim::spatial_steady::{SpatialSteadyArena, SpatialSteadyConfig, SpatialSteadySim};
///
/// let topo = topologies::ring(16);
/// let sim = SpatialSteadySim::new(&topo, Spatial::QsPower { a: 2.0 },
///                                 SpatialSteadyConfig::default());
/// let mut arena = SpatialSteadyArena::new();
/// let report = sim.run(&mut arena, 3);
/// assert!(report.conversations_per_link_cycle > 0.0);
/// ```
#[derive(Debug)]
pub struct SpatialSteadySim<'a> {
    topology: &'a Topology,
    routes: Routes,
    sampler: PartnerSampler,
    config: SpatialSteadyConfig,
}

impl<'a> SpatialSteadySim<'a> {
    /// Builds the simulator (routing and sampling tables precomputed).
    pub fn new(topology: &'a Topology, spatial: Spatial, config: SpatialSteadyConfig) -> Self {
        let routes = Routes::compute(topology);
        let sampler = PartnerSampler::new(topology, &routes, spatial);
        SpatialSteadySim {
            topology,
            routes,
            sampler,
            config,
        }
    }

    /// Runs the workload on the heap state `arena` kept from earlier runs
    /// (of any simulator): the report equals a fresh arena's, and once
    /// the arena has grown to this run's size nothing is allocated. Trial
    /// loops hold one arena per worker.
    pub fn run<'r>(&self, arena: &'r mut SpatialSteadyArena, seed: u64) -> SpatialSteadyReport<'r> {
        let mut rng = StdRng::seed_from_u64(seed);
        let sites = self.topology.sites();
        reset_replicas(&mut arena.replicas, sites.iter().copied());
        let links = self.topology.link_count();
        let mut protocol = SpatialSteadyProtocol {
            exchange: AntiEntropy::new(Direction::PushPull, self.config.comparison),
            sites,
            replicas: &mut arena.replicas,
            injector: UpdateInjector::new(self.config.updates_per_cycle),
            warmup: self.config.warmup,
            exchanges: 0,
            full_compares: 0,
            recorder: RouteRecorder::reusing(
                &self.routes,
                links,
                std::mem::take(&mut arena.compare),
                std::mem::take(&mut arena.update),
            ),
            scratch: &mut arena.scratch,
        };
        CycleEngine::new()
            .max_cycles(self.config.warmup + self.config.cycles)
            .run(
                &mut protocol,
                &SpatialPartners::new(sites, &self.sampler),
                &mut rng,
                &mut (),
                &mut arena.buffers,
            );
        let (exchanges, full_compares) = (protocol.exchanges, protocol.full_compares);
        arena.compare = protocol.recorder.compare;
        arena.update = protocol.recorder.update;
        let per_cycle = |count: f64| match self.config.cycles {
            0 => 0.0,
            cycles => count / f64::from(cycles),
        };
        SpatialSteadyReport {
            conversations_per_link_cycle: per_cycle(arena.compare.mean_per_link()),
            entries_per_link_cycle: per_cycle(arena.update.mean_per_link()),
            full_compare_rate: match exchanges {
                0 => 0.0,
                exchanges => full_compares as f64 / exchanges as f64,
            },
            entry_traffic: &arena.update,
            measured_cycles: self.config.cycles,
            exchanges,
        }
    }
}

/// Steady-state push-pull anti-entropy on a topology: continuous update
/// injection, spatial partner selection, and per-link traffic recorded
/// only after the warm-up period.
struct SpatialSteadyProtocol<'a> {
    exchange: AntiEntropy,
    sites: &'a [SiteId],
    replicas: &'a mut [Replica<u32, u64>],
    injector: UpdateInjector,
    warmup: u32,
    exchanges: u64,
    full_compares: u64,
    recorder: RouteRecorder<'a>,
    scratch: &'a mut ExchangeScratch<u32>,
}

impl EpidemicProtocol for SpatialSteadyProtocol<'_> {
    fn site_count(&self) -> usize {
        self.replicas.len()
    }

    fn finished(&self, _cycle: u32, _active: &[usize]) -> bool {
        // The run length is fixed by the engine's cycle bound.
        false
    }

    fn begin_cycle(&mut self, cycle: u32, rng: &mut StdRng) {
        let time = u64::from(cycle) * 10;
        for r in self.replicas.iter_mut() {
            r.advance_clock(time);
        }
        let replicas = &mut *self.replicas;
        self.injector.inject(replicas.len(), rng, |site, key| {
            replicas[site].client_update(key, u64::from(cycle));
        });
    }

    fn contact(&mut self, cycle: u32, i: usize, j: usize, _rng: &mut StdRng) -> ContactStats {
        let (a, b) = pair_mut(self.replicas, i, j);
        let stats = self.exchange.exchange_with(a, b, self.scratch);
        let sent = stats.total_sent() as u64;
        // Record strictly after the warm-up: contacts run at cycle values
        // `1..=warmup + cycles`, so `cycle > warmup` admits exactly
        // `cycles` cycles — the same count `run()` divides by (audited;
        // pinned by `warmup_boundary_records_exactly_measured_cycles`).
        if cycle > self.warmup {
            self.exchanges += 1;
            self.full_compares += u64::from(stats.full_compare);
            self.recorder.record(self.sites[i], self.sites[j], sent);
        }
        ContactStats { sent, useful: sent }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epidemic_net::topologies;

    #[test]
    fn steady_state_stays_consistent_enough() {
        let topo = topologies::grid(&[5, 5]);
        let sim = SpatialSteadySim::new(&topo, Spatial::Uniform, SpatialSteadyConfig::default());
        let mut arena = SpatialSteadyArena::new();
        let report = sim.run(&mut arena, 1);
        // With τ well above the distribution time, the recent lists absorb
        // nearly everything.
        assert!(
            report.full_compare_rate < 0.1,
            "{}",
            report.full_compare_rate
        );
        assert!(report.entries_per_link_cycle > 0.0);
    }

    #[test]
    fn spatial_selection_cuts_steady_state_entry_traffic_on_far_links() {
        let topo = topologies::line(24);
        let far_link = topo
            .link_between(topo.sites()[11], topo.sites()[12])
            .unwrap();
        let measure = |spatial| {
            let sim = SpatialSteadySim::new(&topo, spatial, SpatialSteadyConfig::default());
            let mut arena = SpatialSteadyArena::new();
            let r = sim.run(&mut arena, 3);
            r.entry_traffic.at(far_link) as f64 / f64::from(r.measured_cycles)
        };
        let uniform = measure(Spatial::Uniform);
        let local = measure(Spatial::QsPower { a: 2.0 });
        assert!(local < uniform / 2.0, "local {local} vs uniform {uniform}");
    }

    #[test]
    fn warmup_boundary_records_exactly_measured_cycles() {
        // Audit of the suspected `cycle > warmup` off-by-one: the engine
        // runs contacts at cycle values `1..=warmup + cycles` (the counter
        // increments before `begin_cycle`), so `cycle > warmup` records
        // cycles `warmup + 1 ..= warmup + cycles` — exactly the `cycles`
        // count that `run()` divides by. Every site initiates once per
        // cycle with no connection limit, so the recorded conversation
        // count pins the boundary: one missed or extra cycle shifts it by
        // `n_sites`.
        let topo = topologies::ring(10);
        for (warmup, cycles) in [(20, 60), (0, 5), (7, 1)] {
            let sim = SpatialSteadySim::new(
                &topo,
                Spatial::Uniform,
                SpatialSteadyConfig {
                    warmup,
                    cycles,
                    ..SpatialSteadyConfig::default()
                },
            );
            let mut arena = SpatialSteadyArena::new();
            let report = sim.run(&mut arena, 4);
            assert_eq!(
                report.exchanges,
                10 * u64::from(cycles),
                "warmup={warmup} cycles={cycles}"
            );
            assert_eq!(report.measured_cycles, cycles);
        }
    }

    #[test]
    fn zero_measured_cycles_report_zero_rates() {
        let topo = topologies::ring(10);
        for warmup in [0, 3] {
            let config = SpatialSteadyConfig {
                warmup,
                cycles: 0,
                ..SpatialSteadyConfig::default()
            };
            let sim = SpatialSteadySim::new(&topo, Spatial::Uniform, config);
            let mut arena = SpatialSteadyArena::new();
            let r = sim.run(&mut arena, 2);
            assert_eq!(
                [
                    r.conversations_per_link_cycle,
                    r.entries_per_link_cycle,
                    r.full_compare_rate
                ],
                [0.0; 3],
                "warmup={warmup}"
            );
        }
    }

    #[test]
    fn a_used_arena_runs_like_a_fresh_one() {
        let ring = topologies::ring(12);
        let grid = topologies::grid(&[4, 4]);
        let config = SpatialSteadyConfig::default();
        let sim = SpatialSteadySim::new(&ring, Spatial::Uniform, config);
        let fresh = sim
            .run(&mut SpatialSteadyArena::new(), 6)
            .entry_traffic
            .clone();
        let mut arena = SpatialSteadyArena::new();
        SpatialSteadySim::new(&grid, Spatial::QsPower { a: 2.0 }, config).run(&mut arena, 1);
        let reused = sim.run(&mut arena, 6);
        assert_eq!(*reused.entry_traffic, fresh);
    }

    #[test]
    fn zero_rate_carries_no_entries() {
        let topo = topologies::ring(10);
        let sim = SpatialSteadySim::new(
            &topo,
            Spatial::Uniform,
            SpatialSteadyConfig {
                updates_per_cycle: 0.0,
                ..SpatialSteadyConfig::default()
            },
        );
        let mut arena = SpatialSteadyArena::new();
        let report = sim.run(&mut arena, 9);
        assert_eq!(report.entries_per_link_cycle, 0.0);
        assert!(report.conversations_per_link_cycle > 0.0);
    }
}
