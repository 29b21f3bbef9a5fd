//! Steady-state epidemics under continuous update injection (§1.3, §1.4,
//! §3.1).
//!
//! The paper measures three mechanisms on a fleet under a constant update
//! rate, and this one driver runs all three:
//!
//! * §1.3's comparison strategies: the checksum and recent-list
//!   refinements only pay off while "the time required for an update to be
//!   sent to all sites is small relative to the expected time between new
//!   updates", and a window `τ` below the distribution time means
//!   "checksum comparisons will usually fail" — the full-compare rate
//!   measures exactly that;
//! * §3.1's spatial distributions in steady state, where most
//!   conversations carry a handful of recent entries rather than one
//!   epidemic update: per-link *entry* traffic, the bytes-on-the-wire
//!   proxy, charged along shortest routes;
//! * §1.4's push against pull: "if the database is quiescent, the *push*
//!   algorithm ceases to introduce traffic overhead, while the *pull*
//!   variation continues to inject fruitless requests for updates".
//!
//! A run injects `updates_per_cycle` client updates (fresh keys, uniformly
//! random sites) through the warm-up and measured cycles, then drains with
//! no injection. Every contact after the warm-up is measured.

use epidemic_core::rumor::{self, RumorConfig, RumorScratch};
use epidemic_core::{AntiEntropy, Comparison, Direction, ExchangeScratch, Replica};
use epidemic_db::SiteId;
use epidemic_net::{LinkTraffic, PartnerSampler, Routes, Spatial, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::bitset::BitSet;
use crate::engine::{
    ContactStats, CycleEngine, EngineBuffers, EpidemicProtocol, Partners, Roster, RouteRecorder,
    UniformPartners, UpdateInjector,
};
use crate::util::{pair_mut, reset_replicas, site_ids};

/// The measurement schedule of a steady-state run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SteadyConfig {
    /// New client updates injected per cycle, at uniformly random sites
    /// under fresh keys (fractional rates carry over).
    pub updates_per_cycle: f64,
    /// Warm-up cycles: updates are injected, nothing is measured.
    pub warmup: u32,
    /// Measured cycles with injection.
    pub cycles: u32,
    /// Measured cycles after injection stops, so every rumor can run to
    /// quiescence.
    pub drain: u32,
}

impl SteadyConfig {
    /// `fig-checksum-window`'s schedule (§1.3, 60 sites): 1 update a
    /// cycle, 30 warm-up cycles, 100 measured.
    pub const CHECKSUM_WINDOW: SteadyConfig = SteadyConfig {
        updates_per_cycle: 1.0,
        warmup: 30,
        cycles: 100,
        drain: 0,
    };

    /// `fig-cin-steady`'s schedule (§3.1, the CIN): 2 updates a cycle, 20
    /// warm-up cycles, 60 measured.
    pub const CIN_STEADY: SteadyConfig = SteadyConfig {
        updates_per_cycle: 2.0,
        warmup: 20,
        cycles: 60,
        drain: 0,
    };

    /// `fig-pull-vs-push-rate`'s schedule (§1.4, 200 sites) at its rate of
    /// 1 update a cycle: 100 cycles of injection, then 200 of drain.
    pub const PULL_VS_PUSH: SteadyConfig = SteadyConfig {
        updates_per_cycle: 1.0,
        warmup: 0,
        cycles: 100,
        drain: 200,
    };
}

/// What each contact runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mechanism {
    /// Push-pull anti-entropy under a §1.3 comparison strategy.
    AntiEntropy(Comparison),
    /// Rumor mongering (§1.4): a push roster holds only the sites with a
    /// hot rumor, so a quiescent network costs nothing; pull and push-pull
    /// poll from every site every cycle.
    Rumor(RumorConfig),
}

/// Measurements from one steady-state run. Every rate over the measured
/// cycles or their contacts is 0 when there were none.
#[derive(Debug, Clone)]
pub struct SteadyReport<'a> {
    /// Cycles measured: `cycles + drain`.
    pub measured_cycles: u32,
    /// Contacts during the measured cycles.
    pub exchanges: u64,
    /// Updates injected over the run.
    pub injected: u32,
    /// Mean fraction of sites each injected update reached by the end (1
    /// when nothing was injected).
    pub coverage: f64,
    /// Entries in site 0's database at the end of the run.
    pub final_db_len: usize,
    /// Fraction of exchanges that fell back to a full database comparison.
    pub full_compare_rate: f64,
    /// Mean entries transmitted per exchange.
    pub entries_per_exchange: f64,
    /// Mean entries *scanned* per exchange (the diffing work).
    pub scanned_per_exchange: f64,
    /// Entries transmitted per useful delivery (traffic efficiency).
    pub messages_per_delivery: f64,
    /// Contacts that delivered nothing new, per cycle — pull's idle
    /// polling cost, push's redundant contacts.
    pub fruitless_per_cycle: f64,
    /// Contacts per cycle (the fixed protocol overhead).
    pub contacts_per_cycle: f64,
    /// Conversations per link per cycle (mean over links; 0 under uniform
    /// partners, which have no links).
    pub conversations_per_link_cycle: f64,
    /// Entries transmitted per link per cycle (mean over links).
    pub entries_per_link_cycle: f64,
    /// Entry traffic per link, for singling out critical links: the
    /// counters of the arena the run was given (empty under uniform
    /// partners).
    pub entry_traffic: &'a LinkTraffic,
}

/// Everything a [`SteadySim`] run keeps on the heap — the replicas, the
/// per-link counters, the exchange and rumor scratch, the rumor holder
/// set and the engine's roster buffers — owned across runs, so that a
/// run on a warm arena allocates nothing. One arena serves any sequence
/// of simulators, mechanisms and topologies; each run starts from a
/// state indistinguishable from a fresh one.
#[derive(Debug, Default)]
pub struct SteadyArena {
    replicas: Vec<Replica<u32, u32>>,
    compare: LinkTraffic,
    update: LinkTraffic,
    exchange: ExchangeScratch<u32>,
    rumor: RumorScratch<u32>,
    /// Which site holds which key in a push or pull rumor run: bit `site *
    /// keys + key`, set when a key is injected at a site and when a site
    /// accepts it. A steady run writes each key once, at one site, and
    /// never deletes or supersedes it, so every copy of a key is the same
    /// version: an offer to a marked site is `AlreadyKnown`, and one to an
    /// unmarked site is accepted.
    holders: BitSet,
    buffers: EngineBuffers,
}

impl SteadyArena {
    /// An empty arena. Allocates nothing until its first run.
    pub fn new() -> Self {
        SteadyArena::default()
    }
}

/// The fleet a driver runs on.
#[derive(Debug)]
enum Fleet<'a> {
    /// Uniform complete mixing over this many sites.
    Uniform(usize),
    /// A spatial distribution on a topology, with per-link accounting.
    Spatial {
        topology: &'a Topology,
        routes: Routes,
        sampler: PartnerSampler,
    },
}

/// Driver: continuous updates and one mechanism, on uniform partners or
/// on a topology.
///
/// # Example
///
/// ```
/// use epidemic_core::{Comparison, Direction, Feedback, Removal, RumorConfig};
/// use epidemic_net::{topologies, Spatial};
/// use epidemic_sim::steady::{Mechanism, SteadyArena, SteadyConfig, SteadySim};
///
/// let config = SteadyConfig { updates_per_cycle: 1.0, warmup: 10, cycles: 30, drain: 0 };
/// let mut arena = SteadyArena::new();
///
/// let topo = topologies::ring(16);
/// let recent = Mechanism::AntiEntropy(Comparison::RecentList { tau: 400 });
/// let sim = SteadySim::spatial(&topo, Spatial::QsPower { a: 2.0 }, recent, config);
/// assert!(sim.run(&mut arena, 3).conversations_per_link_cycle > 0.0);
///
/// let pull = RumorConfig::new(Direction::Pull, Feedback::Feedback, Removal::Counter { k: 2 });
/// let config = SteadyConfig { warmup: 0, drain: 60, ..config };
/// let sim = SteadySim::uniform(100, Mechanism::Rumor(pull), config);
/// assert!(sim.run(&mut arena, 7).coverage > 0.9);
/// ```
#[derive(Debug)]
pub struct SteadySim<'a> {
    fleet: Fleet<'a>,
    mechanism: Mechanism,
    config: SteadyConfig,
}

impl<'a> SteadySim<'a> {
    /// A driver on `sites` sites under uniform complete mixing.
    ///
    /// # Panics
    ///
    /// Panics if `sites < 2`.
    pub fn uniform(sites: usize, mechanism: Mechanism, config: SteadyConfig) -> Self {
        assert!(sites >= 2, "an epidemic needs at least two sites");
        SteadySim {
            fleet: Fleet::Uniform(sites),
            mechanism,
            config,
        }
    }

    /// A driver on `topology` under `spatial` partner selection (routing
    /// and sampling tables precomputed), charging every measured
    /// conversation and its entries along the route.
    pub fn spatial(
        topology: &'a Topology,
        spatial: Spatial,
        mechanism: Mechanism,
        config: SteadyConfig,
    ) -> Self {
        let routes = Routes::compute(topology);
        let sampler = PartnerSampler::new(topology, &routes, spatial);
        SteadySim {
            fleet: Fleet::Spatial {
                topology,
                routes,
                sampler,
            },
            mechanism,
            config,
        }
    }

    /// Runs the workload on the heap state `arena` kept from earlier runs
    /// (of any simulator): the report equals a fresh arena's, and once
    /// the arena has grown to this run's size nothing is allocated. Trial
    /// loops hold one arena per worker.
    pub fn run<'r>(&self, arena: &'r mut SteadyArena, seed: u64) -> SteadyReport<'r> {
        let mut rng = StdRng::seed_from_u64(seed);
        let SteadyConfig { warmup, cycles, .. } = self.config;
        let (sites, recorder, partners) = match &self.fleet {
            Fleet::Uniform(n) => {
                reset_replicas(&mut arena.replicas, site_ids(*n));
                arena.compare.reset(0);
                arena.update.reset(0);
                (&[][..], None, Partners::Uniform(UniformPartners::new(*n)))
            }
            Fleet::Spatial {
                topology,
                routes,
                sampler,
            } => {
                let sites = topology.sites();
                reset_replicas(&mut arena.replicas, sites.iter().copied());
                let recorder = RouteRecorder::reusing(
                    routes,
                    topology.link_count(),
                    std::mem::take(&mut arena.compare),
                    std::mem::take(&mut arena.update),
                );
                (sites, Some(recorder), Partners::Drawn(sampler))
            }
        };
        let injector = UpdateInjector::new(self.config.updates_per_cycle);
        let inject_until = warmup + cycles;
        let mut schedule = injector;
        let keys = (0..inject_until).map(|_| schedule.due() as usize).sum();
        // Only a push or pull walk has one recipient to ask about.
        let holders = match self.mechanism {
            Mechanism::Rumor(cfg) if cfg.direction != Direction::PushPull => {
                arena.holders.reset(arena.replicas.len() * keys);
                Some(&mut arena.holders)
            }
            _ => None,
        };
        let mut protocol = SteadyProtocol {
            mechanism: self.mechanism,
            sites,
            replicas: &mut arena.replicas,
            injector,
            warmup,
            inject_until,
            recorder,
            exchange: &mut arena.exchange,
            rumor: &mut arena.rumor,
            holders,
            keys,
            tally: Tally::default(),
        };
        let measured_cycles = cycles + self.config.drain;
        CycleEngine::new().max_cycles(warmup + measured_cycles).run(
            &mut protocol,
            &partners,
            &mut rng,
            &mut (),
            &mut arena.buffers,
        );
        let SteadyProtocol {
            replicas,
            injector,
            recorder,
            tally,
            ..
        } = protocol;
        let injected = injector.injected();
        let held: u64 = replicas.iter().map(|r| r.db().len() as u64).sum();
        let coverage = if injected == 0 {
            1.0
        } else {
            held as f64 / (u64::from(injected) * replicas.len() as u64) as f64
        };
        let final_db_len = replicas[0].db().len();
        if let Some(recorder) = recorder {
            arena.compare = recorder.compare;
            arena.update = recorder.update;
        }
        let per_cycle = |count: f64| ratio(count, f64::from(measured_cycles));
        let per_exchange = |count: u64| ratio(count as f64, tally.contacts as f64);
        SteadyReport {
            measured_cycles,
            exchanges: tally.contacts,
            injected,
            coverage,
            final_db_len,
            full_compare_rate: per_exchange(tally.full_compares),
            entries_per_exchange: per_exchange(tally.sent),
            scanned_per_exchange: per_exchange(tally.scanned),
            messages_per_delivery: ratio(tally.sent as f64, tally.useful as f64),
            fruitless_per_cycle: per_cycle(tally.fruitless as f64),
            contacts_per_cycle: per_cycle(tally.contacts as f64),
            conversations_per_link_cycle: per_cycle(arena.compare.mean_per_link()),
            entries_per_link_cycle: per_cycle(arena.update.mean_per_link()),
            entry_traffic: &arena.update,
        }
    }
}

/// `count / over`, and 0 when there is nothing to divide by.
fn ratio(count: f64, over: f64) -> f64 {
    if over == 0.0 {
        0.0
    } else {
        count / over
    }
}

/// What the measured contacts added up to.
#[derive(Debug, Default)]
struct Tally {
    contacts: u64,
    sent: u64,
    useful: u64,
    fruitless: u64,
    full_compares: u64,
    scanned: u64,
}

/// One mechanism under continuous update injection: the clock advances ten
/// ticks a cycle, updates land at the start of every cycle up to
/// `inject_until`, and contacts after the warm-up are tallied (and charged
/// to links when there is a recorder).
struct SteadyProtocol<'a> {
    mechanism: Mechanism,
    sites: &'a [SiteId],
    replicas: &'a mut [Replica<u32, u32>],
    injector: UpdateInjector,
    warmup: u32,
    inject_until: u32,
    recorder: Option<RouteRecorder<'a>>,
    exchange: &'a mut ExchangeScratch<u32>,
    rumor: &'a mut RumorScratch<u32>,
    /// Push and pull rumor runs skip their offers to holders (see
    /// [`SteadyArena`]); the run injects `keys` keys.
    holders: Option<&'a mut BitSet>,
    keys: usize,
    tally: Tally,
}

impl EpidemicProtocol for SteadyProtocol<'_> {
    fn site_count(&self) -> usize {
        self.replicas.len()
    }

    fn roster(&self) -> Roster {
        match self.mechanism {
            Mechanism::Rumor(cfg) if cfg.direction == Direction::Push => Roster::Active,
            _ => Roster::Everyone,
        }
    }

    fn is_active(&self, i: usize) -> bool {
        !self.replicas[i].hot().is_empty()
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
        if cycle <= self.inject_until {
            let replicas = &mut *self.replicas;
            let (holders, keys) = (&mut self.holders, self.keys);
            self.injector.inject(replicas.len(), rng, |site, key| {
                replicas[site].client_update(key, cycle);
                if let Some(holders) = holders {
                    holders.set(site * keys + key as usize, true);
                }
            });
        }
    }

    fn contact(&mut self, cycle: u32, i: usize, j: usize, rng: &mut StdRng) -> ContactStats {
        let (a, b) = pair_mut(self.replicas, i, j);
        let (stats, full_compare, scanned) = match self.mechanism {
            Mechanism::AntiEntropy(comparison) => {
                let exchange = AntiEntropy::new(Direction::PushPull, comparison);
                let stats = exchange.exchange_with(a, b, self.exchange);
                let sent = stats.total_sent() as u64;
                let contact = ContactStats { sent, useful: sent };
                (contact, stats.full_compare, stats.entries_scanned)
            }
            Mechanism::Rumor(cfg) => {
                let stats = match &mut self.holders {
                    Some(holders) => {
                        let recipient = if cfg.direction.pushes() { j } else { i };
                        let first_bit = recipient * self.keys;
                        let mut fresh = 0;
                        // An unmarked recipient is marked before the offer,
                        // which it then accepts.
                        let stats =
                            rumor::contact_with_known(&cfg, a, b, rng, self.rumor, |&key| {
                                let bit = first_bit + key as usize;
                                let held = holders.get(bit);
                                holders.set(bit, true);
                                fresh += usize::from(!held);
                                held
                            });
                        debug_assert_eq!(stats.useful, fresh, "a holder was left unmarked");
                        stats
                    }
                    None => rumor::contact_with(&cfg, a, b, rng, self.rumor),
                };
                (stats.into(), false, 0)
            }
        };
        // Contacts run at cycle values `1..=warmup + cycles + drain`, so
        // `cycle > warmup` admits exactly the `cycles + drain` measured
        // cycles that the report divides by.
        if cycle > self.warmup {
            let tally = &mut self.tally;
            tally.contacts += 1;
            tally.sent += stats.sent;
            tally.useful += stats.useful;
            tally.fruitless += u64::from(stats.useful == 0);
            tally.full_compares += u64::from(full_compare);
            tally.scanned += scanned as u64;
            if let Some(recorder) = &mut self.recorder {
                recorder.record(self.sites[i], self.sites[j], stats.sent);
            }
        }
        stats
    }

    fn end_cycle(&mut self, _cycle: u32, _rng: &mut StdRng) {
        if let Mechanism::Rumor(cfg) = self.mechanism {
            if cfg.direction == Direction::Pull {
                for site in self.replicas.iter_mut() {
                    rumor::end_cycle(&cfg, site);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epidemic_core::{Feedback, Removal};
    use epidemic_net::topologies;

    const WINDOW: SteadyConfig = SteadyConfig::CHECKSUM_WINDOW;
    const CIN: SteadyConfig = SteadyConfig::CIN_STEADY;
    const RUMOR: SteadyConfig = SteadyConfig::PULL_VS_PUSH;
    const RECENT_400: Mechanism = Mechanism::AntiEntropy(Comparison::RecentList { tau: 400 });

    fn ae(comparison: Comparison) -> Mechanism {
        Mechanism::AntiEntropy(comparison)
    }

    fn rumor(direction: Direction, k: u32) -> Mechanism {
        Mechanism::Rumor(RumorConfig::new(
            direction,
            Feedback::Feedback,
            Removal::Counter { k },
        ))
    }

    #[test]
    fn windows_below_the_distribution_time_degenerate_to_full_compares() {
        // Distribution time on 60 sites is O(log n) ≈ 10 cycles = 100
        // ticks: τ = 400 is comfortable, while at τ = 10 (one cycle) the
        // paper predicts checksum comparisons "will usually fail".
        let mut arena = SteadyArena::new();
        let mut full_compare_rate = |tau, updates_per_cycle, seed| {
            let config = SteadyConfig {
                updates_per_cycle,
                ..WINDOW
            };
            let sim = SteadySim::uniform(60, ae(Comparison::RecentList { tau }), config);
            sim.run(&mut arena, seed).full_compare_rate
        };
        let (generous, tight) = (
            full_compare_rate(400, 1.0, 1),
            full_compare_rate(10, 1.0, 1),
        );
        assert!(generous < 0.05 && tight > 0.5, "{generous} {tight}");
        // A window that is generous at a slow rate is not at a fast one.
        let (slow, fast) = (
            full_compare_rate(150, 0.2, 5),
            full_compare_rate(150, 4.0, 5),
        );
        assert!(fast >= slow, "fast {fast} vs slow {slow}");
    }

    #[test]
    fn naive_checksums_fail_under_any_update_traffic() {
        // With one update/cycle somewhere in the network, two random sites
        // almost always have different contents at comparison time.
        let mut arena = SteadyArena::new();
        let r = SteadySim::uniform(60, ae(Comparison::Checksum), WINDOW).run(&mut arena, 2);
        assert!(r.full_compare_rate > 0.3, "{}", r.full_compare_rate);
    }

    #[test]
    fn peel_back_ships_only_the_diff() {
        let (mut a, mut b) = (SteadyArena::new(), SteadyArena::new());
        let full = SteadySim::uniform(60, ae(Comparison::Full), WINDOW).run(&mut a, 3);
        let peel = SteadySim::uniform(60, ae(Comparison::PeelBack), WINDOW).run(&mut b, 3);
        // Peel back scans far less than a full comparison of ~100-entry
        // databases while sending a similar number of entries.
        assert!(peel.scanned_per_exchange < full.scanned_per_exchange / 2.0);
        assert!(peel.entries_per_exchange <= full.entries_per_exchange + 1.0);
    }

    #[test]
    fn quiescent_network_costs_nothing_but_conversations() {
        let topo = topologies::ring(10);
        let quiet = SteadyConfig {
            updates_per_cycle: 0.0,
            ..CIN
        };
        let sim = SteadySim::spatial(&topo, Spatial::Uniform, ae(Comparison::Checksum), quiet);
        let mut arena = SteadyArena::new();
        let r = sim.run(&mut arena, 9);
        assert_eq!([r.full_compare_rate, r.entries_per_link_cycle], [0.0; 2]);
        assert_eq!((r.final_db_len, r.injected, r.coverage), (0, 0, 1.0));
        assert!(r.conversations_per_link_cycle > 0.0);
    }

    #[test]
    fn quiescent_push_costs_nothing_but_pull_keeps_polling() {
        let quiet = SteadyConfig {
            updates_per_cycle: 0.0,
            cycles: 0,
            drain: 50,
            ..RUMOR
        };
        let (mut a, mut b) = (SteadyArena::new(), SteadyArena::new());
        let push = SteadySim::uniform(200, rumor(Direction::Push, 2), quiet).run(&mut a, 1);
        let pull = SteadySim::uniform(200, rumor(Direction::Pull, 2), quiet).run(&mut b, 1);
        assert_eq!(push.contacts_per_cycle, 0.0, "§1.4: push goes silent");
        assert!(
            pull.fruitless_per_cycle > 100.0,
            "§1.4: pull keeps injecting fruitless requests: {}",
            pull.fruitless_per_cycle
        );
    }

    #[test]
    fn busy_network_makes_pull_efficient_and_both_deliver() {
        let mut arena = SteadyArena::new();
        // (k, updates per cycle, seed): a busy network, then the figure's rate.
        for (k, updates_per_cycle, seed) in [(2, 4.0, 2), (3, 1.0, 3)] {
            let config = SteadyConfig {
                updates_per_cycle,
                ..RUMOR
            };
            for direction in [Direction::Push, Direction::Pull] {
                let r = SteadySim::uniform(200, rumor(direction, k), config).run(&mut arena, seed);
                let label = format!("{direction:?} k={k} rate={updates_per_cycle}");
                assert!(r.coverage > 0.9, "{label}: coverage {}", r.coverage);
                assert!(r.messages_per_delivery >= 1.0, "{label}");
                // At 4 updates/cycle most polls find a non-empty rumor list.
                if direction == Direction::Pull && updates_per_cycle == 4.0 {
                    let (fruitless, contacts) = (r.fruitless_per_cycle, r.contacts_per_cycle);
                    assert!(r.coverage > 0.95, "{label}: coverage {}", r.coverage);
                    assert!(
                        fruitless < 0.7 * contacts,
                        "{label}: {fruitless} of {contacts}"
                    );
                }
            }
        }
    }

    #[test]
    fn steady_state_stays_consistent_enough() {
        // With τ well above the distribution time, the recent lists absorb
        // nearly everything.
        let grid = topologies::grid(&[5, 5]);
        let sim = SteadySim::spatial(&grid, Spatial::Uniform, RECENT_400, CIN);
        let mut arena = SteadyArena::new();
        let r = sim.run(&mut arena, 1);
        assert!(r.full_compare_rate < 0.1, "{}", r.full_compare_rate);
        assert!(r.entries_per_link_cycle > 0.0);
    }

    #[test]
    fn spatial_selection_cuts_steady_state_entry_traffic_on_far_links() {
        let topo = topologies::line(24);
        let far_link = topo
            .link_between(topo.sites()[11], topo.sites()[12])
            .unwrap();
        let measure = |spatial| {
            let sim = SteadySim::spatial(&topo, spatial, RECENT_400, CIN);
            let mut arena = SteadyArena::new();
            let r = sim.run(&mut arena, 3);
            r.entry_traffic.at(far_link) as f64 / f64::from(r.measured_cycles)
        };
        let uniform = measure(Spatial::Uniform);
        let local = measure(Spatial::QsPower { a: 2.0 });
        assert!(local < uniform / 2.0, "local {local} vs uniform {uniform}");
    }

    /// Every site initiates once per cycle with no connection limit, so
    /// the measured contact count pins the warm-up boundary: one missed or
    /// extra cycle shifts it by the site count.
    #[test]
    fn warmup_boundary_records_exactly_the_measured_cycles() {
        let topo = topologies::ring(10);
        let mut arena = SteadyArena::new();
        for (warmup, cycles, drain) in [(20, 60, 0), (0, 5, 0), (7, 1, 0), (3, 4, 5)] {
            let config = SteadyConfig {
                warmup,
                cycles,
                drain,
                ..CIN
            };
            let expected = 10 * u64::from(cycles + drain);
            let label = format!("warmup={warmup} cycles={cycles} drain={drain}");
            let spatial = SteadySim::spatial(&topo, Spatial::Uniform, RECENT_400, config);
            let r = spatial.run(&mut arena, 4);
            assert_eq!(r.exchanges, expected, "{label}");
            assert_eq!(r.measured_cycles, cycles + drain, "{label}");
            let pull = SteadySim::uniform(10, rumor(Direction::Pull, 2), config);
            assert_eq!(pull.run(&mut arena, 4).exchanges, expected);
        }
    }

    /// A run with no measured cycles reports 0 for every per-cycle and
    /// per-exchange rate, whatever the mechanism and the partners.
    #[test]
    fn zero_measured_cycles_report_zero_rates() {
        let topo = topologies::ring(10);
        let mut arena = SteadyArena::new();
        for mechanism in [RECENT_400, rumor(Direction::Push, 2)] {
            for warmup in [0, 3] {
                let config = SteadyConfig {
                    warmup,
                    cycles: 0,
                    drain: 0,
                    ..CIN
                };
                let sims = [
                    SteadySim::uniform(10, mechanism, config),
                    SteadySim::spatial(&topo, Spatial::Uniform, mechanism, config),
                ];
                for sim in &sims {
                    let r = sim.run(&mut arena, 2);
                    assert_eq!(
                        [
                            r.full_compare_rate,
                            r.entries_per_exchange,
                            r.scanned_per_exchange,
                            r.messages_per_delivery,
                            r.fruitless_per_cycle,
                            r.contacts_per_cycle,
                            r.conversations_per_link_cycle,
                            r.entries_per_link_cycle,
                        ],
                        [0.0; 8],
                        "{mechanism:?} warmup={warmup} {:?}",
                        sim.fleet
                    );
                    assert_eq!((r.measured_cycles, r.exchanges), (0, 0));
                }
            }
        }
    }

    #[test]
    fn a_used_arena_runs_like_a_fresh_one() {
        let ring = topologies::ring(12);
        let grid = topologies::grid(&[4, 4]);
        let on_ring = SteadySim::spatial(&ring, Spatial::Uniform, RECENT_400, CIN);
        let fresh_ring = on_ring
            .run(&mut SteadyArena::new(), 6)
            .entry_traffic
            .clone();
        // One arena through another topology, a larger push fleet and
        // both mechanisms in between.
        let mut arena = SteadyArena::new();
        SteadySim::spatial(&grid, Spatial::QsPower { a: 2.0 }, RECENT_400, CIN).run(&mut arena, 1);
        SteadySim::uniform(60, rumor(Direction::Push, 3), RUMOR).run(&mut arena, 5);
        assert_eq!(*on_ring.run(&mut arena, 6).entry_traffic, fresh_ring);
        // Push and pull under every feedback and removal rule skip their
        // offers to holders (made anyway, and checked, in debug builds).
        for direction in [Direction::Push, Direction::Pull] {
            for feedback in [Feedback::Feedback, Feedback::Blind] {
                for removal in [Removal::Counter { k: 2 }, Removal::Coin { k: 2 }] {
                    let cfg = RumorConfig::new(direction, feedback, removal);
                    let sim = SteadySim::uniform(30, Mechanism::Rumor(cfg), RUMOR);
                    let fresh = format!("{:?}", sim.run(&mut SteadyArena::new(), 11));
                    assert_eq!(format!("{:?}", sim.run(&mut arena, 11)), fresh, "{cfg:?}");
                }
            }
        }
    }
}
