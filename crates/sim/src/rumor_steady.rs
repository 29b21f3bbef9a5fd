//! Steady-state rumor mongering under continuous update injection —
//! §1.4's push-vs-pull trade-off.
//!
//! "If there are numerous independent updates a *pull* request is likely
//! to find a source with a non-empty rumor list, triggering useful
//! information flow. By contrast, if the database is quiescent, the *push*
//! algorithm ceases to introduce traffic overhead, while the *pull*
//! variation continues to inject fruitless requests for updates. Our own
//! CIN application has a high enough update rate to warrant the use of
//! pull."
//!
//! This driver injects updates at a configurable rate and measures, per
//! variant: updates delivered, update messages sent, *fruitless contacts*
//! (conversations that moved nothing — pull's idle polling, push's
//! redundant sends), and the residue of rumors that quiesced before
//! reaching everyone.

use epidemic_core::rumor::{self, RumorConfig, RumorScratch};
use epidemic_core::{Direction, Replica};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::engine::{
    ContactStats, CycleEngine, EngineBuffers, EpidemicProtocol, Roster, UniformPartners,
    UpdateInjector,
};
use crate::util::{pair_mut, reset_replicas, site_ids};

/// Configuration for the steady-state rumor experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RumorSteadyConfig {
    /// Number of sites.
    pub sites: usize,
    /// New updates injected per cycle at uniformly random sites.
    pub updates_per_cycle: f64,
    /// Cycles of injection.
    pub inject_cycles: u32,
    /// Additional drain cycles after injection stops (so every rumor can
    /// run to quiescence before measurement ends).
    pub drain_cycles: u32,
}

impl Default for RumorSteadyConfig {
    fn default() -> Self {
        RumorSteadyConfig {
            sites: 200,
            updates_per_cycle: 1.0,
            inject_cycles: 100,
            drain_cycles: 200,
        }
    }
}

/// Measurements from one steady-state rumor run. A run of zero cycles
/// reports 0 for both per-cycle rates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RumorSteadyReport {
    /// Updates injected over the run.
    pub injected: u32,
    /// Mean fraction of sites each update reached by the end.
    pub coverage: f64,
    /// Update messages sent per delivered copy (traffic efficiency).
    pub messages_per_delivery: f64,
    /// Conversations that transferred nothing, per cycle — pull's idle
    /// polling cost, push's redundant contacts.
    pub fruitless_per_cycle: f64,
    /// Conversations attempted per cycle (the fixed protocol overhead).
    pub contacts_per_cycle: f64,
}

/// Everything a [`RumorSteadySim`] run keeps on the heap — the replicas,
/// the rumor scratch and the engine's roster buffers — owned across runs,
/// so that a run on a warm arena allocates nothing. One arena serves any
/// sequence of configurations and site counts; each run starts from a
/// state indistinguishable from a fresh one.
#[derive(Debug, Default)]
pub struct RumorSteadyArena {
    sites: Vec<Replica<u32, u32>>,
    scratch: RumorScratch<u32>,
    buffers: EngineBuffers,
}

impl RumorSteadyArena {
    /// An empty arena. Allocates nothing until its first run.
    pub fn new() -> Self {
        RumorSteadyArena::default()
    }
}

/// Driver for steady-state rumor mongering under complete mixing.
///
/// # Example
///
/// ```
/// use epidemic_core::{Direction, Feedback, Removal, RumorConfig};
/// use epidemic_sim::rumor_steady::{RumorSteadyArena, RumorSteadyConfig, RumorSteadySim};
///
/// let cfg = RumorConfig::new(Direction::Pull, Feedback::Feedback,
///                            Removal::Counter { k: 2 });
/// let sim = RumorSteadySim::new(cfg, RumorSteadyConfig::default());
/// let report = sim.run(&mut RumorSteadyArena::new(), 7);
/// assert!(report.coverage > 0.9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RumorSteadySim {
    cfg: RumorConfig,
    config: RumorSteadyConfig,
}

impl RumorSteadySim {
    /// Creates the driver.
    pub fn new(cfg: RumorConfig, config: RumorSteadyConfig) -> Self {
        RumorSteadySim { cfg, config }
    }

    /// Runs the workload on the heap state `arena` kept from earlier runs
    /// (of any configuration): the report equals a fresh arena's, and once
    /// the arena has grown to this run's size nothing is allocated. Trial
    /// loops hold one arena per worker.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has fewer than two sites.
    pub fn run(&self, arena: &mut RumorSteadyArena, seed: u64) -> RumorSteadyReport {
        let n = self.config.sites;
        let mut rng = StdRng::seed_from_u64(seed);
        let policy = UniformPartners::new(n);
        reset_replicas(&mut arena.sites, site_ids(n));
        let total_cycles = self.config.inject_cycles + self.config.drain_cycles;
        let mut protocol = RumorSteadyProtocol {
            cfg: self.cfg,
            sites: &mut arena.sites,
            inject_cycles: self.config.inject_cycles,
            injector: UpdateInjector::new(self.config.updates_per_cycle),
            scratch: &mut arena.scratch,
        };
        let report = CycleEngine::new().max_cycles(total_cycles).run(
            &mut protocol,
            &policy,
            &mut rng,
            &mut (),
            &mut arena.buffers,
        );

        // Coverage: each injected key should be at (nearly) all n sites.
        let injected = protocol.injector.injected();
        let held: u64 = protocol.sites.iter().map(|s| s.db().len() as u64).sum();
        let coverage = if injected == 0 {
            1.0
        } else {
            held as f64 / (u64::from(injected) * n as u64) as f64
        };
        let totals = report.totals;
        let per_cycle = |count: u64| match total_cycles {
            0 => 0.0,
            cycles => count as f64 / f64::from(cycles),
        };
        RumorSteadyReport {
            injected,
            coverage,
            messages_per_delivery: if totals.useful == 0 {
                0.0
            } else {
                totals.sent as f64 / totals.useful as f64
            },
            fruitless_per_cycle: per_cycle(totals.fruitless),
            contacts_per_cycle: per_cycle(totals.contacts),
        }
    }
}

/// Continuous-injection rumor mongering: push rosters only the infective
/// sites (a quiescent network costs nothing), pull and push-pull poll from
/// every site every cycle. The engine's contact totals *are* the
/// measurement — fruitless contacts, messages sent, useful deliveries.
struct RumorSteadyProtocol<'a> {
    cfg: RumorConfig,
    sites: &'a mut [Replica<u32, u32>],
    inject_cycles: u32,
    injector: UpdateInjector,
    scratch: &'a mut RumorScratch<u32>,
}

impl EpidemicProtocol for RumorSteadyProtocol<'_> {
    fn site_count(&self) -> usize {
        self.sites.len()
    }

    fn roster(&self) -> Roster {
        match self.cfg.direction {
            Direction::Push => Roster::Active,
            Direction::Pull | Direction::PushPull => Roster::Everyone,
        }
    }

    fn is_active(&self, i: usize) -> bool {
        !self.sites[i].hot().is_empty()
    }

    fn finished(&self, _cycle: u32, _active: &[usize]) -> bool {
        // The run length is fixed: the engine's cycle bound is the
        // inject + drain budget, so the protocol itself never finishes.
        false
    }

    fn begin_cycle(&mut self, cycle: u32, rng: &mut StdRng) {
        let time = u64::from(cycle) * 10;
        for r in self.sites.iter_mut() {
            r.advance_clock(time);
        }
        if cycle <= self.inject_cycles {
            let sites = &mut *self.sites;
            self.injector.inject(sites.len(), rng, |site, key| {
                sites[site].client_update(key, cycle);
            });
        }
    }

    fn contact(&mut self, _cycle: u32, i: usize, j: usize, rng: &mut StdRng) -> ContactStats {
        let (a, b) = pair_mut(self.sites, i, j);
        rumor::contact_with(&self.cfg, a, b, rng, self.scratch).into()
    }

    fn end_cycle(&mut self, _cycle: u32, _rng: &mut StdRng) {
        if self.cfg.direction == Direction::Pull {
            for site in self.sites.iter_mut() {
                rumor::end_cycle(&self.cfg, site);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epidemic_core::{Feedback, Removal};

    fn cfg(direction: Direction, k: u32) -> RumorConfig {
        RumorConfig::new(direction, Feedback::Feedback, Removal::Counter { k })
    }

    #[test]
    fn quiescent_push_costs_nothing_but_pull_keeps_polling() {
        let config = RumorSteadyConfig {
            updates_per_cycle: 0.0,
            inject_cycles: 0,
            drain_cycles: 50,
            ..RumorSteadyConfig::default()
        };
        let push = RumorSteadySim::new(cfg(Direction::Push, 2), config)
            .run(&mut RumorSteadyArena::new(), 1);
        let pull = RumorSteadySim::new(cfg(Direction::Pull, 2), config)
            .run(&mut RumorSteadyArena::new(), 1);
        assert_eq!(push.contacts_per_cycle, 0.0, "§1.4: push goes silent");
        assert!(
            pull.fruitless_per_cycle > 100.0,
            "§1.4: pull keeps injecting fruitless requests: {}",
            pull.fruitless_per_cycle
        );
    }

    #[test]
    fn busy_network_makes_pull_efficient() {
        let config = RumorSteadyConfig {
            updates_per_cycle: 4.0,
            ..RumorSteadyConfig::default()
        };
        let pull = RumorSteadySim::new(cfg(Direction::Pull, 2), config)
            .run(&mut RumorSteadyArena::new(), 2);
        assert!(pull.coverage > 0.95, "coverage {}", pull.coverage);
        // At 4 updates/cycle most polls find a non-empty rumor list.
        assert!(
            pull.fruitless_per_cycle < 0.7 * pull.contacts_per_cycle,
            "fruitless {} of {}",
            pull.fruitless_per_cycle,
            pull.contacts_per_cycle
        );
    }

    #[test]
    fn push_and_pull_both_deliver_under_load() {
        let config = RumorSteadyConfig::default();
        for direction in [Direction::Push, Direction::Pull] {
            let r =
                RumorSteadySim::new(cfg(direction, 3), config).run(&mut RumorSteadyArena::new(), 3);
            assert!(r.coverage > 0.9, "{direction:?} coverage {}", r.coverage);
            assert!(r.messages_per_delivery >= 1.0);
        }
    }

    #[test]
    fn deterministic_per_seed_on_any_arena() {
        let sim = RumorSteadySim::new(cfg(Direction::Pull, 2), RumorSteadyConfig::default());
        let fresh = sim.run(&mut RumorSteadyArena::new(), 11);
        // An arena an earlier, larger push run has used is a fresh one.
        let mut arena = RumorSteadyArena::new();
        let larger = RumorSteadyConfig {
            sites: 300,
            ..RumorSteadyConfig::default()
        };
        RumorSteadySim::new(cfg(Direction::Push, 3), larger).run(&mut arena, 5);
        assert_eq!(sim.run(&mut arena, 11), fresh);
    }

    #[test]
    fn zero_cycles_report_zero_rates() {
        let config = RumorSteadyConfig {
            inject_cycles: 0,
            drain_cycles: 0,
            ..RumorSteadyConfig::default()
        };
        let r = RumorSteadySim::new(cfg(Direction::Pull, 2), config)
            .run(&mut RumorSteadyArena::new(), 1);
        assert_eq!((r.fruitless_per_cycle, r.contacts_per_cycle), (0.0, 0.0));
    }
}
