//! Shared protocol building blocks and the single-update protocol.
//!
//! The building blocks: who has received the update ([`ReceiveLog`]),
//! per-link comparison/update traffic ([`RouteCharge`])
//! and Poisson-ish client-update injection (`UpdateInjector`).
//!
//! The protocol: `MixingProtocol`, one update spread by §1.4 rumor
//! mongering or by §1.3 anti-entropy, over complete mixing or a
//! topology's spatial partners, with the connection-limit/hunting
//! variants supplied by the engine. It holds no replica: with one version
//! of one key, a site's database is one bit, the receive log's mark, and
//! comparing two databases is comparing two bits. A rumor run adds, per
//! site, whether the update is hot there (the active set) and, under
//! counter removal, its `epidemic_core::rumor::Interest` record, which
//! `core::rumor`'s rules change exactly as they change a replica's hot
//! list. Its arms draw from any generator: the cycle engine's sequential
//! stream, or, for a sequential push run, the active-set engine's
//! per-contact streams (the megascale sweep). §1.2's direct mail runs in
//! the scenario engine, over `epidemic_core::direct_mail`.

use epidemic_core::rumor::{self, Interest, RumorConfig};
use epidemic_core::{Direction, Removal};
use epidemic_db::SiteId;
use epidemic_net::{LinkTraffic, Routes, Topology};
use epidemic_trace::Sir;
use rand::rngs::{ContactRng, StdRng};
use rand::Rng;

use super::{ActiveSetProtocol, ContactStats, EpidemicProtocol, Observer, Roster, SirView};
use crate::bitset::BitSet;

/// Who has received a single spreading update, with the count, sum and
/// maximum of the receive times, in the unit of the run's scheduler:
/// cycles under the cycle engines, micro-ticks under the event-driven
/// driver's timers. A caller that wants each site's time observes the
/// useful contacts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReceiveLog {
    /// One bit per site: it holds the update. A start-of-cycle "who holds
    /// the update" snapshot is a word copy.
    marks: BitSet,
    /// Number of marks, kept by [`ReceiveLog::mark`] so per-cycle readers
    /// (completion checks, SIR snapshots) need no scan.
    received: usize,
    /// Sum and maximum of the receive times, kept the same way for a
    /// run's result.
    sum: u64,
    last: u32,
}

impl ReceiveLog {
    /// A log for `n` sites, none of which has received the update.
    pub fn new(n: usize) -> Self {
        ReceiveLog {
            marks: BitSet::new(n),
            received: 0,
            sum: 0,
            last: 0,
        }
    }

    /// Makes this a log for `n` sites, none of which has received the
    /// update, keeping its capacity — [`ReceiveLog::new`] for a log that
    /// is reused across runs.
    pub(crate) fn reset(&mut self, n: usize) {
        self.marks.reset(n);
        self.received = 0;
        self.sum = 0;
        self.last = 0;
    }

    /// Records that site `i` received the update at time `t`, unless it
    /// already had it. Returns whether this was the first receipt.
    pub fn mark(&mut self, i: usize, t: u32) -> bool {
        if self.marks.get(i) {
            false
        } else {
            self.marks.set(i, true);
            self.received += 1;
            self.sum += u64::from(t);
            self.last = self.last.max(t);
            true
        }
    }

    /// Whether site `i` has received the update.
    pub fn is_marked(&self, i: usize) -> bool {
        self.marks.get(i)
    }

    /// The sites that have received the update, one bit per site.
    pub(crate) fn marks(&self) -> &BitSet {
        &self.marks
    }

    /// Number of sites.
    pub(crate) fn site_count(&self) -> usize {
        self.marks.len()
    }

    /// Whether every site has received the update.
    pub fn complete(&self) -> bool {
        self.received == self.site_count()
    }

    /// Number of sites that have received the update.
    pub fn received_count(&self) -> usize {
        self.received
    }

    /// Fraction of sites still missing the update (the paper's *residue*).
    pub fn residue(&self) -> f64 {
        (self.site_count() - self.received) as f64 / self.site_count() as f64
    }

    /// Latest receive time, if anyone received the update.
    pub fn t_last(&self) -> Option<u32> {
        (self.received > 0).then_some(self.last)
    }

    /// Mean receive time over sites that *did* receive the update
    /// (`0.0` if nobody did).
    pub fn t_ave_received(&self) -> f64 {
        if self.received == 0 {
            0.0
        } else {
            self.sum as f64 / self.received as f64
        }
    }
}

/// Paired comparison/update traffic counters, charged along shortest
/// routes: every contact charges one *comparison* unit to each link of its
/// route, and `units` *update* units more (entries shipped, or 1 when an
/// update flowed).
///
/// As an [`Observer`] it charges every contact of the cycles after `after`,
/// with the entries it sent as update units; dense site `i` is `sites[i]`.
/// Any protocol's run can be measured on a topology this way. The counters
/// are the caller's, so a sweep that keeps them beside its trial arenas
/// grows them once.
#[derive(Debug)]
pub struct RouteCharge<'a> {
    routes: &'a Routes,
    /// Site id of each dense site index.
    sites: &'a [SiteId],
    /// Cycles left uncharged (a warm-up).
    after: u32,
    /// Conversation (comparison) traffic: one route charge per contact.
    pub compare: &'a mut LinkTraffic,
    /// Update traffic: one route charge per transmitted unit.
    pub update: &'a mut LinkTraffic,
}

impl<'a> RouteCharge<'a> {
    /// Charges every contact of the cycles after `after` along `routes`
    /// to `counters` — compare traffic, then update traffic — zeroed here
    /// for `topology`. They keep their storage, so reused counters
    /// allocate only to grow.
    pub fn new(
        topology: &'a Topology,
        routes: &'a Routes,
        after: u32,
        counters: &'a mut [LinkTraffic; 2],
    ) -> Self {
        let [compare, update] = counters;
        compare.reset(topology.link_count());
        update.reset(topology.link_count());
        RouteCharge {
            routes,
            sites: topology.sites(),
            after,
            compare,
            update,
        }
    }

    /// Charges one conversation between dense sites `i` and `j` that
    /// shipped `units` units of update traffic.
    pub(crate) fn record(&mut self, i: usize, j: usize, units: u64) {
        let (from, to) = (self.sites[i], self.sites[j]);
        self.compare.record_route(self.routes, from, to);
        self.update.record_route_units(self.routes, from, to, units);
    }
}

impl<P: ?Sized> Observer<P> for RouteCharge<'_> {
    fn on_contact(&mut self, cycle: u32, i: usize, j: usize, stats: &ContactStats) {
        if cycle > self.after {
            self.record(i, j, stats.sent);
        }
    }
}

/// Fractional-rate client-update injection with carry accumulation.
///
/// At `rate` updates per cycle, `inject` fires `floor(carry + rate)`
/// updates this cycle and carries the remainder, so
/// e.g. `rate = 0.5` injects one update every other cycle. Keys are
/// sequential from zero, sites uniform random.
#[derive(Debug, Clone, Copy)]
pub(crate) struct UpdateInjector {
    rate: f64,
    carry: f64,
    next_key: u32,
}

impl UpdateInjector {
    /// An injector producing `rate` updates per cycle on average.
    pub(crate) fn new(rate: f64) -> Self {
        UpdateInjector {
            rate,
            carry: 0.0,
            next_key: 0,
        }
    }

    /// Advances the carry accumulator by one cycle and returns how many
    /// operations are due, for callers that place updates themselves
    /// (e.g. a weighted workload mix choosing among update/delete/read).
    /// Taking the whole part at once leaves exactly what subtracting 1
    /// that many times would, and it fits a `u32` at any rate
    /// `Scenario::validate` accepts.
    pub(crate) fn due(&mut self) -> u32 {
        self.carry += self.rate;
        let due = self.carry.floor();
        self.carry -= due;
        due as u32
    }

    /// Mints the next sequential key without drawing a site.
    pub(crate) fn alloc_key(&mut self) -> u32 {
        let key = self.next_key;
        // Checked-with-context rather than a silent debug-only wrap: a
        // run long enough to mint 2^32 keys would start
        // recycling update identities, corrupting every receive log.
        self.next_key = self
            .next_key
            .checked_add(1)
            .expect("update key space (u32) exhausted; shorten the run or widen the key type");
        key
    }

    /// Total updates injected so far (equivalently, the next unused key).
    pub(crate) fn injected(&self) -> u32 {
        self.next_key
    }
}

/// The heap state of a single-update run: what a
/// [`MixingArena`](crate::mixing::MixingArena) keeps between runs so the
/// next one allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct MixingState {
    /// Who holds the update, and since when: a site's whole database.
    pub(crate) received: ReceiveLog,
    /// "The update is hot here", one bit per site — the active set of a
    /// rumor run (empty under anti-entropy, where nothing is hot). A hot
    /// site holds the update.
    pub(crate) active: BitSet,
    /// Each site's interest in the update under counter removal, read
    /// only where `active` is set (empty under coin removal, whose rule
    /// reads no record, and under anti-entropy). A site that hears the
    /// update gets a fresh record.
    pub(crate) interest: Vec<Interest>,
    /// Start-of-cycle "holds the update" snapshot (synchronous runs).
    pub(crate) state0: BitSet,
    /// Start-of-cycle "is infective" snapshot (pull synchronous).
    pub(crate) hot0: BitSet,
}

impl MixingState {
    /// Delivers the update to site `i` at `cycle`; whether it was news.
    /// News makes the site hot with a fresh interest record (§1.4: "every
    /// person hearing the rumor also becomes active").
    fn deliver(&mut self, i: usize, cycle: u32) -> bool {
        let news = self.received.mark(i, cycle);
        if news {
            self.active.set(i, true);
            if let Some(record) = self.interest.get_mut(i) {
                *record = Interest::default();
            }
        }
        news
    }

    /// §1.4's interest-loss rule ([`rumor::lose_interest`]) at sender `i`
    /// after a contact judged `useful`; a site that loses interest leaves
    /// the active set. Under coin removal the rule reads only whether `i`
    /// is hot, so a hot sender lends it a blank record.
    fn lose_interest<R: Rng + ?Sized>(
        &mut self,
        cfg: &RumorConfig,
        i: usize,
        useful: bool,
        rng: &mut R,
    ) {
        let mut blank = Interest::default();
        let interest = if self.active.get(i) {
            Some(self.interest.get_mut(i).unwrap_or(&mut blank))
        } else {
            None
        };
        if rumor::lose_interest(cfg, interest, useful, rng) {
            self.active.set(i, false);
        }
    }
}

/// How the one update spreads.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Mechanism {
    /// §1.4 rumor mongering: push initiators are the infective sites,
    /// pull and push-pull initiators everyone; the run ends at quiescence.
    Rumor(RumorConfig),
    /// §1.3 anti-entropy resolving differences in this direction: everyone
    /// initiates and the run ends at full coverage.
    AntiEntropy(Direction),
}

/// One update spreading from one origin, by rumor mongering or by
/// anti-entropy (see `Mechanism`). Partners come from the engine's
/// policy: complete mixing or a topology's spatial distribution. A
/// synchronous run judges each contact against start-of-cycle snapshots
/// captured in `begin_cycle`.
///
/// Public so observers can be written against it (it is the `P` of
/// [`SpatialSim::run`](crate::spatial::SpatialSim::run)); construction
/// stays crate-internal.
pub struct MixingProtocol {
    pub(crate) mechanism: Mechanism,
    pub(crate) synchronous: bool,
    pub(crate) state: MixingState,
}

impl MixingProtocol {
    /// Seeds the update at dense site `origin` of `n` sites in `state` and
    /// marks it in the receive log. A rumor run also makes the origin hot
    /// with a fresh interest record; `contact`/`end_cycle` then keep "hot ⇒
    /// marked". Only synchronous runs take snapshots, and only rumors the
    /// infective one.
    pub(crate) fn new(
        mechanism: Mechanism,
        synchronous: bool,
        n: usize,
        origin: usize,
        mut state: MixingState,
    ) -> Self {
        state.received.reset(n);
        let snapshots = if synchronous { n } else { 0 };
        state.state0.reset(snapshots);
        let (rumor_sites, records) = match mechanism {
            Mechanism::Rumor(cfg) => (n, if counts(&cfg) { n } else { 0 }),
            Mechanism::AntiEntropy(_) => (0, 0),
        };
        state.active.reset(rumor_sites);
        state.hot0.reset(if synchronous { rumor_sites } else { 0 });
        state.interest.clear();
        state.interest.resize(records, Interest::default());
        if rumor_sites > 0 {
            state.active.set(origin, true);
        }
        state.received.mark(origin, 0);
        MixingProtocol {
            mechanism,
            synchronous,
            state,
        }
    }

    /// One anti-entropy conversation between `i` and `j`. There is one
    /// version of one key, so §1.3's compare of the two databases comes
    /// down to the two marks: a push delivers the update to `j` when `i`
    /// holds it, a pull to `i` when `j` does, and a delivery is useful
    /// when its receiver lacked it. A synchronous run judges who holds it
    /// at the start of the cycle. (Reading both marks before either
    /// delivery changes nothing in a sequential run: a push makes `j` hold
    /// it only when `i` already does, and then there is nothing to pull.)
    fn resolve(&mut self, direction: Direction, cycle: u32, i: usize, j: usize) -> ContactStats {
        let state = &mut self.state;
        let held = if self.synchronous {
            &state.state0
        } else {
            state.received.marks()
        };
        let (held_i, held_j) = (held.get(i), held.get(j));
        let pushed = direction.pushes() && held_i && state.received.mark(j, cycle);
        let pulled = direction.pulls() && held_j && state.received.mark(i, cycle);
        let useful = u64::from(pushed) + u64::from(pulled);
        ContactStats {
            sent: useful,
            useful,
        }
    }

    /// A push from `from` to `to`, or a pull by `to` from `from`: a sender
    /// that is hot offers the update, which is useful when `to` lacked it,
    /// and then applies the interest-loss rule. A synchronous run judges
    /// against the start of the cycle: the sender's feedback against
    /// whether `to` held the update then, and a pull source's hotness then.
    fn send<R: Rng + ?Sized>(
        &mut self,
        cfg: &RumorConfig,
        cycle: u32,
        from: usize,
        to: usize,
        rng: &mut R,
    ) -> ContactStats {
        let state = &mut self.state;
        let sends = match (cfg.direction, self.synchronous) {
            (Direction::Pull, true) => state.hot0.get(from),
            _ => state.active.get(from),
        };
        if !sends {
            return ContactStats::default();
        }
        debug_assert!(
            state.received.is_marked(from),
            "a hot sender holds the update"
        );
        let news = state.deliver(to, cycle);
        let useful = if self.synchronous {
            !state.state0.get(to)
        } else {
            news
        };
        state.lose_interest(cfg, from, useful, rng);
        ContactStats {
            sent: 1,
            useful: u64::from(news),
        }
    }

    /// A push-pull contact between `i` and `j`: each party hot at its
    /// start offers the update to the other, `i` first, and applies the
    /// interest-loss rule — or, under §1.4 minimization with both hot,
    /// `i`'s unnecessary offer settles both counters at once
    /// ([`rumor::minimize`]) and `j` offers nothing.
    fn push_pull<R: Rng + ?Sized>(
        &mut self,
        cfg: &RumorConfig,
        cycle: u32,
        i: usize,
        j: usize,
        rng: &mut R,
    ) -> ContactStats {
        let state = &mut self.state;
        let (hot_i, hot_j) = (state.active.get(i), state.active.get(j));
        let minimized = cfg.minimization && hot_i && hot_j;
        let mut stats = ContactStats::default();
        if hot_i {
            let news = state.deliver(j, cycle);
            stats.sent += 1;
            stats.useful += u64::from(news);
            if minimized && !news {
                let [a, b] = state
                    .interest
                    .get_disjoint_mut([i, j])
                    .expect("a site cannot exchange with itself");
                let [lost_i, lost_j] = rumor::minimize(cfg, a, b);
                state.active.set(i, !lost_i);
                state.active.set(j, !lost_j);
            } else {
                state.lose_interest(cfg, i, news, rng);
            }
        }
        if hot_j && !minimized {
            let news = state.deliver(i, cycle);
            stats.sent += 1;
            stats.useful += u64::from(news);
            state.lose_interest(cfg, j, news, rng);
        }
        stats
    }
}

/// Whether `cfg` removes by counter, the one rule that reads a record.
fn counts(cfg: &RumorConfig) -> bool {
    matches!(cfg.removal, Removal::Counter { .. })
}

/// The one validation of a rumor configuration, run by every driver
/// before it allocates: `k` must be positive, and §1.4 minimizes counters
/// (under coins a push-pull run whose every site is hot never quiesces).
pub(crate) fn check_rumor(cfg: &RumorConfig) -> Result<(), &'static str> {
    if cfg.removal.k() == 0 {
        Err("rumor removal threshold k must be positive")
    } else if cfg.minimization && !counts(cfg) {
        Err("rumor flag `minimize` needs counter removal: §1.4 minimizes counters")
    } else {
        Ok(())
    }
}

impl EpidemicProtocol for MixingProtocol {
    fn site_count(&self) -> usize {
        self.state.received.site_count()
    }

    fn roster(&self) -> Roster {
        match self.mechanism {
            Mechanism::Rumor(cfg) if cfg.direction == Direction::Push => Roster::Active,
            _ => Roster::Everyone,
        }
    }

    fn is_active(&self, i: usize) -> bool {
        match self.mechanism {
            Mechanism::Rumor(_) => self.state.active.get(i),
            Mechanism::AntiEntropy(_) => false,
        }
    }

    fn active_sites(&self, out: &mut Vec<usize>) {
        out.clear();
        out.extend(self.state.active.iter_ones());
    }

    fn finished(&self, _cycle: u32, active: &[usize]) -> bool {
        match self.mechanism {
            Mechanism::Rumor(_) => active.is_empty(),
            Mechanism::AntiEntropy(_) => self.state.received.complete(),
        }
    }

    fn begin_cycle(&mut self, _cycle: u32, _rng: &mut StdRng) {
        if !self.synchronous {
            return;
        }
        let state = &mut self.state;
        match self.mechanism {
            Mechanism::Rumor(cfg) if cfg.direction == Direction::PushPull => {}
            Mechanism::Rumor(cfg) if cfg.direction == Direction::Pull => {
                state.state0.copy_from(state.received.marks());
                state.hot0.copy_from(&state.active);
            }
            _ => state.state0.copy_from(state.received.marks()),
        }
    }

    fn contact(&mut self, cycle: u32, i: usize, j: usize, rng: &mut StdRng) -> ContactStats {
        let cfg = match self.mechanism {
            Mechanism::Rumor(cfg) => cfg,
            Mechanism::AntiEntropy(direction) => return self.resolve(direction, cycle, i, j),
        };
        match cfg.direction {
            Direction::Push => self.send(&cfg, cycle, i, j, rng),
            Direction::Pull => self.send(&cfg, cycle, j, i, rng),
            Direction::PushPull => self.push_pull(&cfg, cycle, i, j, rng),
        }
    }

    fn end_cycle(&mut self, _cycle: u32, _rng: &mut StdRng) {
        if let Mechanism::Rumor(
            cfg @ RumorConfig {
                direction: Direction::Pull,
                ..
            },
        ) = self.mechanism
        {
            // Pending pull feedback lives in hot sites' records, so only
            // active sites have any to settle (and only under counters:
            // a coin keeps no record and settles nothing).
            let MixingState {
                active, interest, ..
            } = &mut self.state;
            if counts(&cfg) {
                active.retain_ones(|i| interest[i].settle(&cfg));
            }
        }
    }
}

/// A sequential push run on the active-set engine: a cycle's initiators
/// are the sites hot at its start (the engine lists them before the first
/// contact), and each contact is the cycle engine's push arm, drawing from
/// the contact's own stream.
impl ActiveSetProtocol for MixingProtocol {
    fn active(&self) -> &BitSet {
        &self.state.active
    }

    fn contact(&mut self, cycle: u32, i: usize, j: usize, rng: &mut ContactRng) -> ContactStats {
        debug_assert!(!self.synchronous && self.roster() == Roster::Active);
        let Mechanism::Rumor(cfg) = self.mechanism else {
            unreachable!("the active-set engine runs push rumors")
        };
        self.send(&cfg, cycle, i, j, rng)
    }
}

impl SirView for MixingProtocol {
    fn sir_counts(&self) -> Sir {
        let received = &self.state.received;
        let have = received.received_count();
        let infective = match self.mechanism {
            Mechanism::Rumor(_) => self.state.active.count_ones(),
            // Anti-entropy never removes: every informed site keeps
            // exchanging forever (the run just stops at full coverage).
            Mechanism::AntiEntropy(_) => have,
        };
        Sir {
            susceptible: received.site_count() - have,
            infective,
            removed: have - infective,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epidemic_net::topologies;
    use rand::{RngExt, SeedableRng};

    /// Regression (hot-path sweep): the injector mints keys right up to
    /// the top of the `u32` range without wrapping.
    #[test]
    fn update_injector_issues_keys_to_the_top_of_the_range() {
        let mut injector = UpdateInjector::new(1.0);
        injector.next_key = u32::MAX - 2;
        let keys = [injector.alloc_key(), injector.alloc_key()];
        assert_eq!(keys, [u32::MAX - 2, u32::MAX - 1]);
    }

    /// Regression (hot-path sweep): exhausting the key space fails loudly
    /// with context instead of silently recycling update identities.
    #[test]
    #[should_panic(expected = "key space")]
    fn update_injector_panics_with_context_on_key_exhaustion() {
        let mut injector = UpdateInjector::new(1.0);
        injector.next_key = u32::MAX;
        injector.alloc_key();
    }

    #[test]
    fn receive_log_marks_once_and_reports() {
        let mut log = ReceiveLog::new(4);
        assert!(log.mark(1, 3));
        assert!(!log.mark(1, 9), "second receipt is ignored");
        assert!(log.mark(0, 5));
        assert!(!log.complete());
        assert_eq!(log.received_count(), 2);
        assert_eq!(log.t_last(), Some(5));
        assert!((log.t_ave_received() - 4.0).abs() < 1e-12);
        assert!(!log.is_marked(2) && !log.is_marked(3));
        assert!((log.residue() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn receive_log_count_equals_a_scan() {
        let mut log = ReceiveLog::new(64);
        let mut times = vec![None; 64];
        let mut rng = StdRng::seed_from_u64(3);
        for step in 0..400 {
            let i = rng.random_range(0..64);
            if log.mark(i, step) {
                times[i] = Some(step);
            }
            assert!((0..64).all(|i| log.is_marked(i) == times[i].is_some()));
            let received = times.iter().flatten();
            let scan = received.clone().count();
            assert_eq!(log.received_count(), scan);
            assert_eq!(log.complete(), scan == 64);
            assert_eq!(log.t_last(), received.clone().max().copied());
            let sum: u64 = received.map(|&t| u64::from(t)).sum();
            let mean = if scan == 0 {
                0.0
            } else {
                sum as f64 / scan as f64
            };
            assert_eq!(log.t_ave_received(), mean);
        }
        assert!(log.complete(), "400 draws over 64 sites cover them all");
        log.reset(64);
        assert_eq!((log.t_last(), log.t_ave_received()), (None, 0.0));
    }

    /// Each refusal of the one rumor validation, and one accepted
    /// configuration per direction.
    #[test]
    fn check_rumor_refuses_zero_k_and_minimization_without_counters() {
        use epidemic_core::Direction::{Pull, Push, PushPull};
        use epidemic_core::Feedback;
        let cfg = |direction, removal| RumorConfig::new(direction, Feedback::Feedback, removal);
        let (counter, coin) = (|k| Removal::Counter { k }, |k| Removal::Coin { k });
        let (zero_k, coin_min) = (Err("k must be positive"), Err("`minimize` needs counter"));
        for (cfg, verdict) in [
            (cfg(Push, counter(0)), zero_k),
            (cfg(Pull, coin(0)), zero_k),
            (cfg(PushPull, counter(0)).with_minimization(), zero_k),
            (cfg(PushPull, coin(2)).with_minimization(), coin_min),
            (cfg(Push, coin(1)).with_minimization(), coin_min),
            (cfg(Push, coin(4)), Ok(())),
            (cfg(Pull, counter(1)), Ok(())),
            (cfg(PushPull, counter(2)).with_minimization(), Ok(())),
        ] {
            let got = check_rumor(&cfg).map_err(|e| verdict.err().filter(|why| e.contains(why)));
            assert_eq!(got, verdict.map_err(Some), "{cfg:?}");
        }
    }

    #[test]
    fn route_charge_charges_compare_once_and_update_per_unit() {
        let topo = topologies::line(4);
        let routes = Routes::compute(&topo);
        let mut counters = Default::default();
        let mut charge = RouteCharge::new(&topo, &routes, 0, &mut counters);
        charge.record(0, 3, 2); // 3 links on the route
        assert_eq!(charge.compare.total(), 3);
        assert_eq!(charge.update.total(), 6);
        charge.record(0, 1, 0);
        assert_eq!(charge.compare.total(), 4);
        assert_eq!(charge.update.total(), 6);
        let charge = RouteCharge::new(&topo, &routes, 0, &mut counters);
        assert_eq!((charge.compare.total(), charge.update.total()), (0, 0));
    }

    #[test]
    fn injector_carries_fractional_rates() {
        let mut inj = UpdateInjector::new(0.5);
        let due: Vec<u32> = (0..6).map(|_| inj.due()).collect();
        assert_eq!(
            due,
            [0, 1, 0, 1, 0, 1],
            "rate 0.5 over 6 cycles fires thrice"
        );
    }
}
