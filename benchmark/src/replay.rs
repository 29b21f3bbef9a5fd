//! The layer replay: each workload's configuration re-enacted in this
//! process by calling only public functions of the leaf layers (`rand`,
//! `db`, `net`, `core`, `trace`), with a span around every call.
//!
//! It is not the program's engine and does not try to reproduce its
//! numbers bit for bit: it runs the same topology, site count, cycle
//! count, update rate, comparison strategy and protocol variants through
//! the same leaf calls, so that the cost of one `exchange_with`, one
//! partner draw or one route charge is priced *under the workload's own
//! data*, from outside the code ROADMAP items 2–4 will rewrite. What the
//! spans do not cover (roster, shuffle, admission, bookkeeping) is the
//! replay's self time.

use std::hash::Hash;
use std::hint::black_box;

use epidemic_core::rumor::{self, RumorConfig, RumorScratch};
use epidemic_core::{
    AntiEntropy, Comparison, Direction, ExchangeScratch, Feedback, Removal, Replica,
};
use epidemic_db::{Entry, LazyTable, SiteId, Timestamp};
use epidemic_net::topologies::{cin, CinConfig};
use epidemic_net::{DegreeGraph, LinkTraffic, PartnerSampler, Routes, Spatial, Topology};
use epidemic_trace::{AggregatingSink, Sir};
use rand::rngs::{ContactRng, StdRng};
use rand::seq::SliceRandom;
use rand::{Rng, RngExt, SeedableRng};

use crate::checks::ode_residue;
use crate::spans::{Op, Recorder};
use crate::workloads::{ReplayKind, Workload};

/// Trials the replay runs per mixing configuration; every other
/// configuration runs once.
const MIXING_REPLAY_TRIALS: u32 = 2;
/// Trials `repro` runs per configuration where `--trials` has no say.
const CIN_STEADY_TRIALS: f64 = 20.0;
const RUMOR_STEADY_TRIALS: f64 = 20.0;
const COVER_TIME_TRIALS: f64 = 50.0;
/// `repro`'s defaults when `--trials` is absent.
const DEFAULT_MIXING_TRIALS: u32 = 100;
const DEFAULT_SPATIAL_TRIALS: u32 = 250;
/// No epidemic here needs more; reaching it is a failed replay.
const MAX_CYCLES: u32 = 10_000;
/// The single key of the one-update epidemics.
const KEY: u32 = 0;

/// Exact counts taken at the span boundaries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    pub ae_exchanges: u64,
    pub ae_entries: u64,
    pub ae_useful: u64,
    pub ae_full_compares: u64,
    pub rumor_contacts: u64,
    pub rumor_useful: u64,
    pub hot_contacts: u64,
    pub hot_len_sum: u64,
    pub route_contacts: u64,
    pub route_links: u64,
}

pub struct Replay {
    pub rec: Recorder,
    pub counts: Counts,
    /// Contact-loop leaf seconds, each part scaled from the replay's trial
    /// count to the program's.
    pub leaf_scaled_s: f64,
    /// First way in which the replay's own outcome was implausible.
    pub failure: Option<String>,
    sink: AggregatingSink,
    /// The current cycle's contacts, handed to the sink in one batch:
    /// `(cycle, from, to, sent, useful)`.
    pending: Vec<(u32, usize, usize, u64, u64)>,
    seeds: std::vec::IntoIter<u64>,
}

/// Re-enacts `workload` with trial seeds drawn from `seed`; `spans` off
/// runs the identical work without reading a clock.
pub fn run(workload: &Workload, seed: u64, smoke: bool, spans: bool) -> Replay {
    let mut replay = Replay {
        rec: Recorder::new(spans),
        counts: Counts::default(),
        leaf_scaled_s: 0.0,
        failure: None,
        sink: AggregatingSink::new(),
        pending: Vec::new(),
        seeds: trial_seeds(seed).into_iter(),
    };
    let trials = |default: u32| f64::from(workload.effective_trials(smoke).unwrap_or(default));
    match workload.replay {
        ReplayKind::MixingRumor => replay.mixing_rumor(trials(DEFAULT_MIXING_TRIALS)),
        ReplayKind::SteadyCin => replay.steady_cin(),
        ReplayKind::SpatialAe => replay.spatial_ae(trials(DEFAULT_SPATIAL_TRIALS)),
        ReplayKind::SteadyRumor => replay.steady_rumor(),
        ReplayKind::Megascale => {
            replay.megascale(workload.max_n(smoke).expect("megascale has a size") as usize)
        }
    }
    replay
}

/// The replay's whole generated input: the seeds of its trials (and of
/// the scale-free graphs), in the order the parts consume them. No
/// workload needs more than 42.
pub fn trial_seeds(seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..64).map(|_| rng.next_u64()).collect()
}

fn pair_mut<T>(items: &mut [T], i: usize, j: usize) -> (&mut T, &mut T) {
    assert_ne!(i, j, "a site does not gossip with itself");
    if i < j {
        let (left, right) = items.split_at_mut(j);
        (&mut left[i], &mut right[0])
    } else {
        let (left, right) = items.split_at_mut(i);
        (&mut right[0], &mut left[j])
    }
}

/// Dense index of every site, by node id (relays map to `u32::MAX`).
fn site_index(topology: &Topology) -> Vec<u32> {
    let mut index = vec![u32::MAX; topology.node_count()];
    for (dense, site) in topology.sites().iter().enumerate() {
        index[site.as_usize()] = dense as u32;
    }
    index
}

/// The CIN with its routes and one sampler per distribution: what
/// `net.setup_s` prices.
struct CinNet {
    topology: Topology,
    routes: Routes,
    samplers: Vec<(Op, PartnerSampler)>,
}

impl Replay {
    fn next_seed(&mut self) -> u64 {
        self.seeds.next().expect("trial_seeds covers every part")
    }

    fn fail(&mut self, message: String) {
        self.failure.get_or_insert(message);
    }

    /// Runs one part of the replay and scales its contact-loop leaf time
    /// by `program_trials` per replayed trial.
    fn part(&mut self, scale: f64, f: impl FnOnce(&mut Self, u64)) {
        let before = self.rec.contact_loop_s();
        let seed = self.next_seed();
        f(self, seed);
        self.leaf_scaled_s += (self.rec.contact_loop_s() - before) * scale;
    }

    fn build_replicas<K, V>(&mut self, sites: impl Iterator<Item = SiteId>) -> Vec<Replica<K, V>>
    where
        K: Ord + Clone + Hash + Eq,
        V: Hash,
    {
        sites
            .map(|site| self.rec.span(Op::ReplicaNew, || Replica::new(site)))
            .collect()
    }

    /// One uniform partner per roster entry, never the initiator itself.
    fn draw_uniform(&mut self, roster: &[usize], n: usize, rng: &mut StdRng, out: &mut Vec<usize>) {
        out.clear();
        self.rec.batch(Op::StdRngDraw, || {
            for &i in roster {
                let j = rng.random_range(0..n - 1);
                out.push(if j >= i { j + 1 } else { j });
            }
            ((), roster.len() as u64)
        });
    }

    fn draw_spatial(
        &mut self,
        (op, sampler): &(Op, PartnerSampler),
        roster: &[usize],
        sites: &[SiteId],
        index: &[u32],
        rng: &mut StdRng,
        out: &mut Vec<usize>,
    ) {
        out.clear();
        self.rec.batch(*op, || {
            for &i in roster {
                out.push(index[sampler.sample(sites[i], rng).as_usize()] as usize);
            }
            ((), roster.len() as u64)
        });
    }

    fn flush_sink(&mut self) {
        let (sink, pending) = (&mut self.sink, &mut self.pending);
        self.rec.batch(Op::SinkContact, || {
            for &(cycle, from, to, sent, useful) in pending.iter() {
                sink.contact(cycle, from, to, sent, useful);
            }
            ((), pending.len() as u64)
        });
        pending.clear();
    }

    fn cin_net(&mut self, distributions: &[(Op, Spatial)]) -> CinNet {
        self.rec.span(Op::NetSetup, || {
            let topology = cin(&CinConfig::default()).topology;
            let routes = Routes::compute(&topology);
            let samplers = distributions
                .iter()
                .map(|&(op, spatial)| (op, PartnerSampler::new(&topology, &routes, spatial)))
                .collect();
            CinNet {
                topology,
                routes,
                samplers,
            }
        })
    }

    // ---- mixing_rumor, mixing_rumor_mt -------------------------------

    fn mixing_rumor(&mut self, program_trials: f64) {
        use Direction::{Pull, Push};
        use Feedback::{Blind, Feedback as Fb};
        let counter = |k| Removal::Counter { k };
        let coin = |k| Removal::Coin { k };
        let mut configs = Vec::new();
        configs.extend((1..=5).map(|k| RumorConfig::new(Push, Fb, counter(k)))); // Table 1
        configs.extend((1..=5).map(|k| RumorConfig::new(Push, Blind, coin(k)))); // Table 2
        configs.extend((1..=3).map(|k| RumorConfig::new(Pull, Fb, counter(k)))); // Table 3
        configs.extend((1..=8).map(|k| RumorConfig::new(Push, Fb, coin(k)))); // rumor ODE
        let scale = program_trials / f64::from(MIXING_REPLAY_TRIALS);
        for cfg in configs {
            for _ in 0..MIXING_REPLAY_TRIALS {
                self.part(scale, |replay, seed| {
                    replay.rumor_epidemic(&cfg, 1000, seed)
                });
            }
        }
    }

    /// One update spreading through `n` uniformly mixing sites until no
    /// site is infective.
    fn rumor_epidemic(&mut self, cfg: &RumorConfig, n: usize, seed: u64) {
        self.rec.begin_trial();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sites: Vec<Replica<u32, u32>> = self.build_replicas((0..n as u32).map(SiteId::new));
        let origin = rng.random_range(0..n);
        self.rec
            .span(Op::ClientUpdate, || sites[origin].client_update(KEY, 1));
        self.sink.run_start(Sir {
            susceptible: n - 1,
            infective: 1,
            removed: 0,
        });
        let mut scratch = RumorScratch::new();
        let (mut roster, mut partners) = (Vec::with_capacity(n), Vec::with_capacity(n));
        let mut cycle = 0;
        loop {
            // Push rosters the infective sites; pull polls from everyone
            // for as long as anyone is infective.
            roster.clear();
            roster.extend((0..n).filter(|&i| !sites[i].hot().is_empty()));
            if roster.is_empty() {
                break;
            }
            if cfg.direction != Direction::Push {
                roster.clear();
                roster.extend(0..n);
            }
            cycle += 1;
            if cycle > MAX_CYCLES {
                self.fail(format!("rumor epidemic {cfg:?} did not quiesce"));
                break;
            }
            roster.shuffle(&mut rng);
            self.draw_uniform(&roster, n, &mut rng, &mut partners);
            for (&i, &j) in roster.iter().zip(&partners) {
                let (a, b) = pair_mut(&mut sites, i, j);
                let stats = self.rec.span(Op::RumorContact, || {
                    rumor::contact_with(cfg, a, b, &mut rng, &mut scratch)
                });
                self.counts.rumor_contacts += 1;
                self.counts.rumor_useful += u64::from(stats.useful > 0);
                self.pending
                    .push((cycle, i, j, stats.sent as u64, stats.useful as u64));
            }
            if cfg.direction == Direction::Pull {
                self.rec.batch(Op::RumorEndCycle, || {
                    for site in sites.iter_mut() {
                        rumor::end_cycle(cfg, site);
                    }
                    ((), n as u64)
                });
            }
            self.flush_sink();
        }
        self.rec.end_trial();
    }

    // ---- steady_cin ---------------------------------------------------

    fn steady_cin(&mut self) {
        let net = self.cin_net(&[
            (Op::PartnerDrawUniform, Spatial::Uniform),
            (Op::PartnerDrawA1_2, Spatial::QsPower { a: 1.2 }),
            (Op::PartnerDrawA2_0, Spatial::QsPower { a: 2.0 }),
        ]);
        for sampler in &net.samplers {
            self.part(CIN_STEADY_TRIALS, |replay, seed| {
                replay.steady_cin_trial(&net, sampler, seed)
            });
        }
        let c = self.counts.clone();
        if c.ae_useful == 0 || c.ae_full_compares * 2 > c.ae_exchanges {
            self.fail(format!(
                "steady CIN replay: {} of {} exchanges moved an update, {} compared in full",
                c.ae_useful, c.ae_exchanges, c.ae_full_compares
            ));
        }
    }

    /// 20 warm-up and 60 measured cycles of recent-list (τ = 400) push-pull
    /// anti-entropy under two client updates per cycle, clocks advancing
    /// ten ticks a cycle: the program's `fig-cin-steady` configuration.
    fn steady_cin_trial(&mut self, net: &CinNet, sampler: &(Op, PartnerSampler), seed: u64) {
        const WARMUP: u32 = 20;
        const CYCLES: u32 = 60;
        const TAU: u64 = 400;
        let sites = net.topology.sites();
        let n = sites.len();
        let index = site_index(&net.topology);
        self.rec.begin_trial();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut replicas: Vec<Replica<u32, u64>> = self.build_replicas(sites.iter().copied());
        let exchange = AntiEntropy::new(Direction::PushPull, Comparison::RecentList { tau: TAU });
        let mut scratch = ExchangeScratch::new();
        let mut compare = LinkTraffic::new(net.topology.link_count());
        let mut update = LinkTraffic::new(net.topology.link_count());
        let mut next_key = 0u32;
        let mut roster: Vec<usize> = (0..n).collect();
        let mut partners = Vec::with_capacity(n);
        self.sink.run_start(Sir {
            susceptible: 0,
            infective: n,
            removed: 0,
        });
        let mut time = 0;
        for cycle in 1..=WARMUP + CYCLES {
            time = u64::from(cycle) * 10;
            for replica in replicas.iter_mut() {
                replica.advance_clock(time);
            }
            for _ in 0..2 {
                let site = rng.random_range(0..n);
                self.rec.span(Op::ClientUpdate, || {
                    replicas[site].client_update(next_key, u64::from(cycle))
                });
                next_key += 1;
            }
            roster.shuffle(&mut rng);
            self.draw_spatial(sampler, &roster, sites, &index, &mut rng, &mut partners);
            for (&i, &j) in roster.iter().zip(&partners) {
                let (a, b) = pair_mut(&mut replicas, i, j);
                let stats = self.rec.span(Op::AeExchange, || {
                    exchange.exchange_with(a, b, &mut scratch)
                });
                let sent = stats.total_sent() as u64;
                self.counts.ae_exchanges += 1;
                self.counts.ae_entries += sent;
                self.counts.ae_useful += u64::from(stats.update_flowed());
                self.counts.ae_full_compares += u64::from(stats.full_compare);
                if cycle > WARMUP {
                    // One route charge for the conversation, one per entry
                    // shipped: the program's compare and update traffic.
                    self.rec.batch(Op::RouteRecord, || {
                        compare.record_route(&net.routes, sites[i], sites[j]);
                        for _ in 0..sent {
                            update.record_route(&net.routes, sites[i], sites[j]);
                        }
                        ((), 1 + sent)
                    });
                    self.counts.route_contacts += 1;
                }
                self.pending.push((cycle, i, j, sent, sent));
            }
            self.flush_sink();
        }
        self.counts.route_links += compare.total();
        self.database_probes(&mut replicas, time, Some(TAU));
        self.rec.end_trial();
    }

    /// Prices what an exchange does inside the database, on the live end
    /// state of a trial: an offer of an entry the replica already holds
    /// (the read beside the write), an offer of a newer version of it, and
    /// — where the comparison uses them (`recent_tau`) — the checksum and
    /// the walk of the recent list.
    fn database_probes<V>(
        &mut self,
        replicas: &mut [Replica<u32, V>],
        now: u64,
        recent_tau: Option<u64>,
    ) where
        V: Clone + Hash + Eq + From<u32>,
    {
        const OFFERS: usize = 16;
        let mut held: Vec<(u32, Entry<V>)> = Vec::with_capacity(OFFERS);
        let mut newer: Vec<(u32, Entry<V>)> = Vec::with_capacity(OFFERS);
        for replica in replicas.iter_mut() {
            let site = replica.site();
            let at = Timestamp::new(now, site);
            held.clear();
            held.extend(
                replica
                    .db()
                    .newest_first()
                    .take(OFFERS)
                    .map(|(k, e)| (*k, e.clone())),
            );
            newer.clear();
            newer.extend(held.iter().enumerate().map(|(i, (k, _))| {
                let later = Timestamp::new(now + 1 + i as u64, site);
                (*k, Entry::live(V::from(*k), later))
            }));
            let db = replica.db_mut();
            self.rec.batch(Op::OfferStale, || {
                for (key, entry) in &held {
                    black_box(db.offer_ref(key, entry, at));
                }
                ((), held.len() as u64)
            });
            self.rec.batch(Op::OfferAccept, || {
                for (key, entry) in &newer {
                    black_box(db.offer_ref(key, entry, at));
                }
                ((), newer.len() as u64)
            });
        }
        let Some(tau) = recent_tau else {
            return;
        };
        for _ in 0..16 {
            self.rec.batch(Op::Checksum, || {
                for replica in replicas.iter() {
                    black_box(replica.db().checksum());
                }
                ((), replicas.len() as u64)
            });
        }
        for replica in replicas.iter() {
            self.rec.batch(Op::RecentScan, || {
                let mut entries = 0;
                for pair in replica.db().recent_index(now + OFFERS as u64, tau) {
                    black_box(pair);
                    entries += 1;
                }
                ((), entries)
            });
        }
    }

    // ---- spatial_ae ---------------------------------------------------

    fn spatial_ae(&mut self, program_trials: f64) {
        let net = self.cin_net(&[
            (Op::PartnerDrawUniform, Spatial::Uniform),
            (Op::PartnerDrawA1_2, Spatial::QsPower { a: 1.2 }),
            (Op::PartnerDrawA1_4, Spatial::QsPower { a: 1.4 }),
            (Op::PartnerDrawA1_6, Spatial::QsPower { a: 1.6 }),
            (Op::PartnerDrawA1_8, Spatial::QsPower { a: 1.8 }),
            (Op::PartnerDrawA2_0, Spatial::QsPower { a: 2.0 }),
        ]);
        // Table 4 (no connection limit), then Table 5 (limit 1, no hunting).
        for limit in [None, Some(1)] {
            for sampler in &net.samplers {
                self.part(program_trials, |replay, seed| {
                    replay.spatial_trial(&net, sampler, limit, seed)
                });
            }
        }
        // The cover-time figure: one bit per site under uniform mixing.
        for n in [100, 300, 1000, 3000, 10_000] {
            for direction in [Direction::Push, Direction::Pull, Direction::PushPull] {
                self.part(COVER_TIME_TRIALS, |replay, seed| {
                    replay.cover_time_trial(n, direction, seed)
                });
            }
        }
    }

    /// One update spreading over the CIN by push-pull full-compare
    /// anti-entropy until every site holds it. Under a connection limit a
    /// partner accepts that many conversations per cycle and refuses the
    /// rest.
    fn spatial_trial(
        &mut self,
        net: &CinNet,
        sampler: &(Op, PartnerSampler),
        limit: Option<u32>,
        seed: u64,
    ) {
        let sites = net.topology.sites();
        let n = sites.len();
        let index = site_index(&net.topology);
        self.rec.begin_trial();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut replicas: Vec<Replica<u32, u32>> = self.build_replicas(sites.iter().copied());
        let origin = rng.random_range(0..n);
        self.rec
            .span(Op::ClientUpdate, || replicas[origin].client_update(KEY, 1));
        replicas[origin].hot_mut().clear(); // pure anti-entropy: nothing is hot
        let exchange = AntiEntropy::new(Direction::PushPull, Comparison::Full);
        let mut scratch = ExchangeScratch::new();
        let mut compare = LinkTraffic::new(net.topology.link_count());
        let mut update = LinkTraffic::new(net.topology.link_count());
        let mut roster: Vec<usize> = (0..n).collect();
        let mut partners = Vec::with_capacity(n);
        let mut accepted = vec![0u32; n];
        let mut holders = 1;
        self.sink.run_start(Sir {
            susceptible: n - 1,
            infective: 1,
            removed: 0,
        });
        let mut cycle = 0;
        while holders < n {
            cycle += 1;
            if cycle > MAX_CYCLES {
                self.fail(format!(
                    "anti-entropy on the CIN did not converge under {:?}",
                    sampler.0
                ));
                break;
            }
            accepted.fill(0);
            roster.shuffle(&mut rng);
            self.draw_spatial(sampler, &roster, sites, &index, &mut rng, &mut partners);
            for (&i, &j) in roster.iter().zip(&partners) {
                if limit.is_some_and(|limit| accepted[j] >= limit) {
                    continue;
                }
                accepted[j] += 1;
                let (a, b) = pair_mut(&mut replicas, i, j);
                let stats = self.rec.span(Op::AeExchangeOneKey, || {
                    exchange.exchange_with(a, b, &mut scratch)
                });
                let flowed = stats.update_flowed();
                holders += usize::from(flowed);
                self.rec.batch(Op::RouteRecord, || {
                    compare.record_route(&net.routes, sites[i], sites[j]);
                    if flowed {
                        update.record_route(&net.routes, sites[i], sites[j]);
                    }
                    ((), 1 + u64::from(flowed))
                });
                self.counts.route_contacts += 1;
                self.pending
                    .push((cycle, i, j, u64::from(flowed), u64::from(flowed)));
            }
            self.flush_sink();
        }
        self.counts.route_links += compare.total();
        self.rec.end_trial();
    }

    /// §1.3 anti-entropy with one bit per site against the start-of-cycle
    /// snapshot, until every site is infected: the only leaf call per
    /// contact is the partner draw.
    fn cover_time_trial(&mut self, n: usize, direction: Direction, seed: u64) {
        self.rec.begin_trial();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut infected = vec![false; n];
        infected[rng.random_range(0..n)] = true;
        let mut snapshot = infected.clone();
        let mut count = 1;
        let mut roster: Vec<usize> = (0..n).collect();
        let mut partners = Vec::with_capacity(n);
        self.sink.run_start(Sir {
            susceptible: n - 1,
            infective: 1,
            removed: 0,
        });
        let mut cycle = 0;
        while count < n {
            cycle += 1;
            if cycle > MAX_CYCLES {
                self.fail(format!(
                    "bit anti-entropy {direction:?} did not cover {n} sites"
                ));
                break;
            }
            snapshot.copy_from_slice(&infected);
            roster.shuffle(&mut rng);
            self.draw_uniform(&roster, n, &mut rng, &mut partners);
            for (&i, &j) in roster.iter().zip(&partners) {
                let mut useful = 0u64;
                if direction.pushes() && snapshot[i] && !infected[j] {
                    infected[j] = true;
                    useful += 1;
                }
                if direction.pulls() && snapshot[j] && !infected[i] {
                    infected[i] = true;
                    useful += 1;
                }
                count += useful as usize;
                self.pending.push((cycle, i, j, useful, useful));
            }
            self.flush_sink();
        }
        self.rec.end_trial();
    }

    // ---- steady_rumor -------------------------------------------------

    fn steady_rumor(&mut self) {
        for rate in [0.0, 0.25, 1.0, 4.0] {
            for direction in [Direction::Push, Direction::Pull] {
                self.part(RUMOR_STEADY_TRIALS, |replay, seed| {
                    replay.steady_rumor_trial(rate, direction, seed)
                });
            }
        }
    }

    /// 100 cycles of client writes at `rate` per cycle then 200 drain
    /// cycles on 200 sites, feedback/counter k = 2: push rosters only the
    /// infective sites, pull polls from every site every cycle.
    fn steady_rumor_trial(&mut self, rate: f64, direction: Direction, seed: u64) {
        const SITES: usize = 200;
        const INJECT_CYCLES: u32 = 100;
        const DRAIN_CYCLES: u32 = 200;
        let n = SITES;
        let cfg = RumorConfig::new(direction, Feedback::Feedback, Removal::Counter { k: 2 });
        self.rec.begin_trial();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sites: Vec<Replica<u32, u32>> = self.build_replicas((0..n as u32).map(SiteId::new));
        let mut scratch = RumorScratch::new();
        let (mut roster, mut partners) = (Vec::with_capacity(n), Vec::with_capacity(n));
        let (mut carry, mut next_key) = (0.0, 0u32);
        self.sink.run_start(Sir {
            susceptible: 0,
            infective: n,
            removed: 0,
        });
        let mut time = 0;
        for cycle in 1..=INJECT_CYCLES + DRAIN_CYCLES {
            time = u64::from(cycle) * 10;
            for site in sites.iter_mut() {
                site.advance_clock(time);
            }
            if cycle <= INJECT_CYCLES {
                carry += rate;
                while carry >= 1.0 {
                    carry -= 1.0;
                    let site = rng.random_range(0..n);
                    self.rec.span(Op::ClientUpdate, || {
                        sites[site].client_update(next_key, cycle)
                    });
                    next_key += 1;
                }
            }
            roster.clear();
            match direction {
                Direction::Push => roster.extend((0..n).filter(|&i| !sites[i].hot().is_empty())),
                _ => roster.extend(0..n),
            }
            roster.shuffle(&mut rng);
            self.draw_uniform(&roster, n, &mut rng, &mut partners);
            for (&i, &j) in roster.iter().zip(&partners) {
                let (a, b) = pair_mut(&mut sites, i, j);
                // The sender's list is the one a contact walks.
                let sender = if direction == Direction::Push {
                    &*a
                } else {
                    &*b
                };
                self.counts.hot_len_sum += sender.hot().len() as u64;
                self.counts.hot_contacts += 1;
                let stats = self.rec.span(Op::RumorContactHot, || {
                    rumor::contact_with(&cfg, a, b, &mut rng, &mut scratch)
                });
                self.pending
                    .push((cycle, i, j, stats.sent as u64, stats.useful as u64));
            }
            if direction == Direction::Pull {
                self.rec.batch(Op::RumorEndCycle, || {
                    for site in sites.iter_mut() {
                        rumor::end_cycle(&cfg, site);
                    }
                    ((), n as u64)
                });
            }
            self.flush_sink();
        }
        if direction == Direction::Pull && next_key > 0 {
            let held: usize = sites.iter().map(|s| s.db().len()).sum();
            let coverage = held as f64 / (next_key as usize * n) as f64;
            if coverage < 0.9 {
                self.fail(format!(
                    "pull at {rate} updates per cycle covered only {coverage:.3}"
                ));
            }
        }
        self.database_probes(&mut sites, time, None);
        self.rec.end_trial();
    }

    // ---- megascale ----------------------------------------------------

    fn megascale(&mut self, max_n: usize) {
        for n in [10_000, 100_000, 1_000_000]
            .into_iter()
            .filter(|&n| n <= max_n)
        {
            self.part(1.0, |replay, seed| replay.megascale_trial(n, None, seed));
            let graph_seed = self.next_seed();
            let graph = self.rec.span(Op::ScaleFreeBuild, || {
                DegreeGraph::scale_free(n, 2, graph_seed)
            });
            self.part(1.0, |replay, seed| {
                replay.megascale_trial(n, Some(&graph), seed)
            });
        }
    }

    /// Push, feedback, coin k = 4 from site 0, the fast path's way: only
    /// infective sites act, each contact's draws come from its own
    /// `(seed, cycle, site)` stream in a draw phase, and a site's row is
    /// materialised on first receipt in the apply phase.
    fn megascale_trial(&mut self, n: usize, graph: Option<&DegreeGraph>, seed: u64) {
        const K: u32 = 4;
        self.rec.begin_trial();
        let mut has_entry = vec![false; n];
        let mut hot = vec![false; n];
        let mut table: LazyTable<u32> = LazyTable::new(n);
        has_entry[0] = true;
        hot[0] = true;
        table.push(0, 1, 0);
        let mut active: Vec<u32> = vec![0];
        let mut draws: Vec<(u32, bool)> = Vec::new();
        let mut fresh: Vec<u32> = Vec::new();
        self.sink.run_start(Sir {
            susceptible: n - 1,
            infective: 1,
            removed: 0,
        });
        let draw_op = if graph.is_some() {
            Op::NeighborDraw
        } else {
            Op::ContactRng
        };
        let mut cycle = 0u32;
        while !active.is_empty() {
            cycle += 1;
            if cycle > MAX_CYCLES {
                self.fail(format!("megascale epidemic at n={n} did not quiesce"));
                break;
            }
            draws.clear();
            self.rec.batch(draw_op, || {
                for &i in &active {
                    let mut rng = ContactRng::new(seed, u64::from(cycle), u64::from(i));
                    let to = match graph {
                        Some(graph) => {
                            let neighbors = graph.neighbors(i as usize);
                            neighbors[rng.random_range(0..neighbors.len())]
                        }
                        None => {
                            let j = rng.random_range(0..n as u32 - 1);
                            if j >= i {
                                j + 1
                            } else {
                                j
                            }
                        }
                    };
                    draws.push((to, rng.random_bool(1.0 / f64::from(K))));
                }
                ((), active.len() as u64)
            });
            for (&i, &(to, coin)) in active.iter().zip(&draws) {
                let useful = !has_entry[to as usize];
                if useful {
                    has_entry[to as usize] = true;
                    hot[to as usize] = true;
                    fresh.push(to);
                } else if coin {
                    hot[i as usize] = false;
                }
                self.pending
                    .push((cycle, i as usize, to as usize, 1, u64::from(useful)));
            }
            self.rec.batch(Op::LazyPush, || {
                for &site in &fresh {
                    table.push(site, 1, cycle);
                }
                ((), fresh.len() as u64)
            });
            active.retain(|&i| hot[i as usize]);
            active.append(&mut fresh);
            self.flush_sink();
        }
        let residue = 1.0 - table.len() as f64 / n as f64;
        let ode = ode_residue(K);
        if graph.is_none() && n >= 100_000 && (residue - ode).abs() > 0.15 * ode {
            self.fail(format!(
                "megascale replay at n={n}: residue {residue:.4} is not within 15 % of the ODE's {ode:.4}"
            ));
        }
        self.rec.end_trial();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::find;

    #[test]
    fn the_same_seed_replays_the_same_counts_and_another_seed_does_not() {
        let w = find("steady_rumor").unwrap();
        let a = run(w, 7, true, false);
        let b = run(w, 7, true, true);
        let c = run(w, 8, true, false);
        assert_eq!(a.counts, b.counts);
        assert_ne!(a.counts.hot_len_sum, c.counts.hot_len_sum);
        assert_eq!(a.failure, None);
        assert_eq!(trial_seeds(7), trial_seeds(7));
        assert_ne!(trial_seeds(7), trial_seeds(8));
    }

    #[test]
    fn steady_cin_replays_the_program_configuration() {
        let w = find("steady_cin").unwrap();
        let r = run(w, 1, true, true);
        assert_eq!(r.failure, None);
        // Three distributions, every site initiating in each of 80 cycles.
        assert_eq!(r.counts.ae_exchanges % (3 * 80), 0);
        let sites = r.counts.ae_exchanges / (3 * 80);
        assert!(sites > 200, "{sites} sites");
        assert_eq!(r.rec.stats(Op::ReplicaNew).calls, 3 * sites);
        assert_eq!(r.counts.route_contacts, 3 * 60 * sites);
        assert!(r.counts.route_links > r.counts.route_contacts);
        assert_eq!(r.rec.stats(Op::AeExchange).spans, r.counts.ae_exchanges);
        assert!(r.leaf_scaled_s > r.rec.contact_loop_s());
        assert!(r.rec.per_call_ns(&[Op::AeExchange]).unwrap().1.is_some());
    }

    #[test]
    fn small_megascale_replay_quiesces_with_the_ode_residue_in_sight() {
        let mut replay = run(find("megascale").unwrap(), 3, true, true);
        assert_eq!(replay.failure, None);
        assert!(replay.rec.stats(Op::LazyPush).calls > 90_000);
        assert_eq!(replay.rec.stats(Op::ScaleFreeBuild).spans, 2);
        replay.fail("first".to_string());
        replay.fail("second".to_string());
        assert_eq!(replay.failure.as_deref(), Some("first"));
    }

    #[test]
    fn pair_mut_hands_out_both_orders() {
        let mut v = [10, 20, 30];
        let (a, b) = pair_mut(&mut v, 2, 0);
        assert_eq!((*a, *b), (30, 10));
        let (a, b) = pair_mut(&mut v, 0, 1);
        assert_eq!((*a, *b), (10, 20));
    }
}
