//! Shared protocol building blocks and the single-update protocol.
//!
//! The building blocks: who has received the update and when
//! ([`ReceiveLog`]), per-link comparison/update traffic ([`RouteCharge`])
//! and Poisson-ish client-update injection (`UpdateInjector`).
//!
//! The protocol: `MixingProtocol`, one update spread by §1.4 rumor
//! mongering or by §1.3 anti-entropy, over complete mixing or a
//! topology's spatial partners, with the connection-limit/hunting
//! variants supplied by the engine. Its anti-entropy contact reads and
//! writes only the receive log's marks: with one version of one key,
//! comparing two databases is comparing two bits. §1.2's direct mail runs
//! in the scenario engine, over `epidemic_core::direct_mail`.

use epidemic_core::rumor::{self, RumorConfig, RumorScratch};
use epidemic_core::{Direction, Feedback, Removal, Replica};
use epidemic_db::SiteId;
use epidemic_net::{LinkTraffic, Routes, Topology};
use epidemic_trace::Sir;
use rand::rngs::StdRng;

use super::{ContactStats, EpidemicProtocol, Observer, Roster, SirView};
use crate::bitset::BitSet;
use crate::util::{pair_mut, reset_replicas, KEY};

/// Per-site receive times for a single spreading update, in the unit of
/// the run's scheduler: cycles under the cycle engine, micro-ticks under
/// the event-driven driver's timers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReceiveLog {
    times: Vec<Option<u32>>,
    /// One bit per site, set exactly where `times` is `Some`, so a
    /// start-of-cycle "who holds the update" snapshot is a word copy.
    marks: BitSet,
    /// Number of `Some` entries in `times`, kept by [`ReceiveLog::mark`] so
    /// per-cycle readers (completion checks, SIR snapshots) need no scan.
    received: usize,
}

impl ReceiveLog {
    /// A log for `n` sites, none of which has received the update.
    pub fn new(n: usize) -> Self {
        ReceiveLog {
            times: vec![None; n],
            marks: BitSet::new(n),
            received: 0,
        }
    }

    /// Makes this a log for `n` sites, none of which has received the
    /// update, keeping its capacity — [`ReceiveLog::new`] for a log that
    /// is reused across runs.
    pub(crate) fn reset(&mut self, n: usize) {
        self.times.clear();
        self.times.resize(n, None);
        self.marks.reset(n);
        self.received = 0;
    }

    /// Records that site `i` received the update at time `t`, unless it
    /// already had it. Returns whether this was the first receipt.
    pub fn mark(&mut self, i: usize, t: u32) -> bool {
        if self.marks.get(i) {
            false
        } else {
            self.marks.set(i, true);
            self.times[i] = Some(t);
            self.received += 1;
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

    /// Whether every site has received the update.
    pub fn complete(&self) -> bool {
        self.received == self.times.len()
    }

    /// Number of sites that have received the update.
    pub fn received_count(&self) -> usize {
        self.received
    }

    /// Fraction of sites still missing the update (the paper's *residue*).
    pub fn residue(&self) -> f64 {
        (self.times.len() - self.received_count()) as f64 / self.times.len() as f64
    }

    /// The raw per-site receive times.
    pub fn times(&self) -> &[Option<u32>] {
        &self.times
    }

    /// Latest receive time, if anyone received the update.
    pub fn t_last(&self) -> Option<u32> {
        self.times.iter().flatten().max().copied()
    }

    /// Mean receive time over sites that *did* receive the update
    /// (`0.0` if nobody did).
    pub fn t_ave_received(&self) -> f64 {
        if self.received == 0 {
            0.0
        } else {
            let sum: u64 = self.times.iter().flatten().map(|&t| u64::from(t)).sum();
            sum as f64 / self.received as f64
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
    /// One replica per site — a rumor run's state. Anti-entropy of one
    /// update needs none: the receive log's marks are its whole state.
    pub(crate) sites: Vec<Replica<u32, u32>>,
    pub(crate) received: ReceiveLog,
    /// "Hot list non-empty", one bit per site — the active set of a rumor
    /// run (empty under anti-entropy, which fills no hot list). `contact`
    /// refreshes the bits of the endpoints whose replicas it touched and
    /// `end_cycle` those of the sites it visits, so whenever the engine
    /// looks it equals the `is_active` scan.
    pub(crate) active: BitSet,
    /// Start-of-cycle "holds the update" snapshot (synchronous runs).
    pub(crate) state0: BitSet,
    /// Start-of-cycle "is infective" snapshot (pull synchronous).
    pub(crate) hot0: BitSet,
    /// Reused hot-key snapshot buffers for push-pull contacts.
    pub(crate) scratch: RumorScratch<u32>,
}

impl MixingState {
    /// Re-reads site `i`'s hot list into the active set.
    fn refresh(&mut self, i: usize) {
        self.active.set(i, !self.sites[i].hot().is_empty());
    }

    /// Marks site `i` as having received the update at `cycle`, if its
    /// replica holds it.
    fn mark_if_holding(&mut self, i: usize, cycle: u32) {
        if self.sites[i].db().entry(&KEY).is_some() {
            self.received.mark(i, cycle);
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
    /// Seeds the update at dense site `origin` of `sites` in `state` and
    /// marks it in the receive log — the one place that establishes
    /// "marked ⇔ holds the update". A rumor run also resets one empty
    /// replica per id and seeds the origin's, and marks it in the active
    /// set ("active ⇔ hot list non-empty"); `contact`/`end_cycle` then keep
    /// both. Only synchronous runs take snapshots, and only rumors the
    /// infective one.
    pub(crate) fn new(
        mechanism: Mechanism,
        synchronous: bool,
        sites: impl ExactSizeIterator<Item = SiteId>,
        origin: usize,
        mut state: MixingState,
    ) -> Self {
        let n = sites.len();
        state.received.reset(n);
        let snapshots = if synchronous { n } else { 0 };
        state.state0.reset(snapshots);
        match mechanism {
            Mechanism::Rumor(_) => {
                reset_replicas(&mut state.sites, sites, 0);
                state.active.reset(n);
                state.hot0.reset(snapshots);
                debug_assert!(
                    state
                        .sites
                        .iter()
                        .all(|site| site.db().is_empty() && site.hot().is_empty()),
                    "every site is empty before the update is seeded"
                );
                state.sites[origin].client_update(KEY, 1);
                state.active.set(origin, true);
            }
            Mechanism::AntiEntropy(_) => {
                state.active.reset(0);
                state.hot0.reset(0);
            }
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

    /// A synchronous push from `i`, which is hot and so holds the update,
    /// to `j`: feedback is judged against `j`'s start-of-cycle state, and a
    /// partner the log already marks is not offered the update (see
    /// [`offer`]).
    fn sync_push(
        &mut self,
        cfg: &RumorConfig,
        cycle: u32,
        i: usize,
        j: usize,
        rng: &mut StdRng,
    ) -> ContactStats {
        let MixingState {
            sites,
            received,
            state0,
            ..
        } = &mut self.state;
        let (a, b) = pair_mut(sites, i, j);
        let applied = offer(a, b, received.is_marked(j));
        rumor::record_feedback(cfg, a, &KEY, !state0.get(j), rng);
        self.state.refresh(i);
        if applied {
            self.state.received.mark(j, cycle);
            self.state.refresh(j);
        }
        ContactStats {
            sent: 1,
            useful: u64::from(applied),
        }
    }

    /// A synchronous pull by `i` from `j`, served from `j`'s start-of-cycle
    /// state: a source that was not hot then touches neither replica, and a
    /// requester the log already marks is not offered the update.
    fn sync_pull(
        &mut self,
        cfg: &RumorConfig,
        cycle: u32,
        i: usize,
        j: usize,
        rng: &mut StdRng,
    ) -> ContactStats {
        let MixingState {
            sites,
            received,
            state0,
            hot0,
            ..
        } = &mut self.state;
        if !hot0.get(j) {
            return ContactStats::default();
        }
        let (requester, source) = pair_mut(sites, i, j);
        let applied = offer(source, requester, received.is_marked(i));
        let needed = match cfg.feedback {
            Feedback::Feedback => !state0.get(i),
            Feedback::Blind => false,
        };
        match cfg.removal {
            Removal::Counter { .. } => source.hot_mut().record_pending(&KEY, needed),
            Removal::Coin { .. } => {
                rumor::record_feedback(cfg, source, &KEY, needed, rng);
            }
        }
        self.state.refresh(j);
        if applied {
            self.state.received.mark(i, cycle);
            self.state.refresh(i);
        }
        ContactStats {
            sent: 1,
            useful: u64::from(applied),
        }
    }

    /// An asynchronous push or pull, or a push-pull: `core::rumor`'s
    /// multi-key walk, after which both endpoints are re-read.
    fn walk(
        &mut self,
        cfg: &RumorConfig,
        cycle: u32,
        i: usize,
        j: usize,
        rng: &mut StdRng,
    ) -> ContactStats {
        let state = &mut self.state;
        let (a, b) = pair_mut(&mut state.sites, i, j);
        let stats = rumor::contact_with(cfg, a, b, rng, &mut state.scratch);
        for idx in [i, j] {
            state.mark_if_holding(idx, cycle);
            state.refresh(idx);
        }
        stats.into()
    }
}

/// Offers `from`'s update to `to`, whose receive-log mark is `marked`;
/// whether it was news. A site is marked exactly when it holds the only
/// version of the only key, so a marked site's offer is known to be
/// `AlreadyKnown` and is skipped (made anyway in debug builds).
fn offer(from: &Replica<u32, u32>, to: &mut Replica<u32, u32>, marked: bool) -> bool {
    rumor::offer(from, to, &KEY, marked).expect("a hot sender holds the update")
}

impl EpidemicProtocol for MixingProtocol {
    fn site_count(&self) -> usize {
        self.state.received.times().len()
    }

    fn roster(&self) -> Roster {
        match self.mechanism {
            Mechanism::Rumor(cfg) if cfg.direction == Direction::Push => Roster::Active,
            _ => Roster::Everyone,
        }
    }

    fn is_active(&self, i: usize) -> bool {
        match self.mechanism {
            Mechanism::Rumor(_) => !self.state.sites[i].hot().is_empty(),
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
        // A site holds the update exactly when the receive log has marked
        // it (every `contact` branch marks as the entry lands), so the
        // snapshot copies the log's marks, not each database.
        match self.mechanism {
            Mechanism::Rumor(cfg) if cfg.direction == Direction::PushPull => {}
            Mechanism::Rumor(cfg) if cfg.direction == Direction::Pull => {
                state.state0.copy_from(state.received.marks());
                // One key per run: a site is infective for it exactly when
                // its hot list is non-empty.
                debug_assert!(state
                    .sites
                    .iter()
                    .enumerate()
                    .all(|(i, site)| site.is_infective(&KEY) == state.active.get(i)));
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
        match (cfg.direction, self.synchronous) {
            (Direction::Push, true) => self.sync_push(&cfg, cycle, i, j, rng),
            (Direction::Pull, true) => self.sync_pull(&cfg, cycle, i, j, rng),
            _ => self.walk(&cfg, cycle, i, j, rng),
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
            // Pending pull feedback lives in hot items, so only active
            // sites have any to settle.
            let MixingState { sites, active, .. } = &mut self.state;
            active.retain_ones(|i| {
                rumor::end_cycle(&cfg, &mut sites[i]);
                !sites[i].hot().is_empty()
            });
        }
    }
}

impl SirView for MixingProtocol {
    fn sir_counts(&self) -> Sir {
        let have = self.state.received.received_count();
        let infective = match self.mechanism {
            Mechanism::Rumor(_) => self.state.active.count_ones(),
            // Anti-entropy never removes: every informed site keeps
            // exchanging forever (the run just stops at full coverage).
            Mechanism::AntiEntropy(_) => have,
        };
        Sir {
            susceptible: self.site_count() - have,
            infective,
            removed: have - infective,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{CycleEngine, EngineBuffers, UniformPartners};
    use crate::util::site_ids;
    use epidemic_net::{topologies, PartnerSampler, PartnerSelection, Spatial};
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
        assert_eq!(log.times()[2..], [None, None]);
        assert!((log.residue() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn receive_log_count_equals_a_scan() {
        let mut log = ReceiveLog::new(64);
        let mut rng = StdRng::seed_from_u64(3);
        for step in 0..400 {
            log.mark(rng.random_range(0..64), step);
            let scan = log.times().iter().flatten().count();
            assert_eq!(log.received_count(), scan);
            assert_eq!(log.complete(), scan == 64);
        }
        assert!(log.complete(), "400 draws over 64 sites cover them all");
    }

    /// Asserts that a rumor run's incremental state says exactly what
    /// probing every replica says: marks ≡ "database holds the update"
    /// (what `begin_cycle` snapshots), active set ≡ "hot list non-empty"
    /// (what `active_sites` yields), and `sir_counts` ≡ the counted probe.
    /// Anti-entropy runs hold no replicas to probe; the full replica
    /// compare they replace is `tests/spatial_skip_differential.rs`.
    fn assert_matches_the_probe(p: &MixingProtocol) {
        let state = &p.state;
        let (mut have, mut infective) = (0, 0);
        for (i, site) in state.sites.iter().enumerate() {
            let holds = site.db().entry(&KEY).is_some();
            assert_eq!(state.received.is_marked(i), holds, "mark of site {i}");
            assert_eq!(state.received.marks().get(i), holds, "mark bit of site {i}");
            assert_eq!(
                state.received.times()[i].is_some(),
                holds,
                "time of site {i}"
            );
            let hot = !site.hot().is_empty();
            assert_eq!(state.active.get(i), hot, "active bit of site {i}");
            have += usize::from(holds);
            infective += usize::from(hot);
        }
        let probed = Sir {
            susceptible: state.sites.len() - have,
            infective,
            removed: have - infective,
        };
        assert_eq!(p.sir_counts(), probed);
        let mut active = vec![usize::MAX];
        p.active_sites(&mut active);
        let scan: Vec<usize> = (0..p.site_count()).filter(|&i| p.is_active(i)).collect();
        assert_eq!(active, scan);
    }

    /// Probes at run start and after every cycle of a driver's run.
    struct ProbeCheck {
        cycles_checked: u32,
    }

    impl crate::engine::Observer<MixingProtocol> for ProbeCheck {
        fn on_run_start(&mut self, p: &MixingProtocol) {
            assert_matches_the_probe(p);
        }
        fn on_cycle_end(&mut self, _cycle: u32, p: &MixingProtocol) {
            assert_matches_the_probe(p);
            self.cycles_checked += 1;
        }
    }

    #[test]
    fn mixing_sir_counts_equal_the_database_probe() {
        use crate::{MixingArena, SpatialSim};
        for direction in [Direction::Push, Direction::Pull, Direction::PushPull] {
            let cfg = RumorConfig::new(direction, Feedback::Feedback, Removal::Counter { k: 2 });
            for synchronous in [true, false] {
                let driver = SpatialSim::mixing(200, cfg).synchronous(synchronous);
                let mut check = ProbeCheck { cycles_checked: 0 };
                driver.run(&mut MixingArena::new(), 11, &mut check);
                assert!(check.cycles_checked > 3, "{direction:?}: run too short");
            }
        }
    }

    /// A [`MixingProtocol`] that probes itself after every step the
    /// engine drives it through: each contact, each `begin_cycle`, and
    /// both sides of `end_cycle`.
    struct Probed {
        inner: MixingProtocol,
        contacts: u64,
    }

    impl EpidemicProtocol for Probed {
        fn site_count(&self) -> usize {
            self.inner.site_count()
        }
        fn roster(&self) -> Roster {
            self.inner.roster()
        }
        fn is_active(&self, i: usize) -> bool {
            self.inner.is_active(i)
        }
        fn active_sites(&self, out: &mut Vec<usize>) {
            self.inner.active_sites(out);
        }
        fn finished(&self, cycle: u32, active: &[usize]) -> bool {
            self.inner.finished(cycle, active)
        }
        fn begin_cycle(&mut self, cycle: u32, rng: &mut StdRng) {
            self.inner.begin_cycle(cycle, rng);
            assert_matches_the_probe(&self.inner);
        }
        fn contact(&mut self, cycle: u32, i: usize, j: usize, rng: &mut StdRng) -> ContactStats {
            let stats = self.inner.contact(cycle, i, j, rng);
            assert_matches_the_probe(&self.inner);
            self.contacts += 1;
            stats
        }
        fn end_cycle(&mut self, cycle: u32, rng: &mut StdRng) {
            assert_matches_the_probe(&self.inner);
            self.inner.end_cycle(cycle, rng);
            assert_matches_the_probe(&self.inner);
        }
    }

    /// Runs `inner` to its end under `policy` and connection limit
    /// `limit`, probing after every step; the contacts it made.
    fn probed_run(
        inner: MixingProtocol,
        policy: &impl PartnerSelection,
        limit: Option<u32>,
    ) -> u64 {
        let mut probed = Probed { inner, contacts: 0 };
        CycleEngine::new()
            .connection_limit(limit)
            .hunt_limit(1)
            .max_cycles(200)
            .run(
                &mut probed,
                policy,
                &mut StdRng::seed_from_u64(5),
                &mut (),
                &mut EngineBuffers::default(),
            );
        probed.contacts
    }

    /// The active set and the marks stay equal to the probe through every
    /// rumor variant's contacts, over complete mixing from site 0 and over
    /// a topology's spatial partners from another origin. Dropping the
    /// refresh of `i`, of `j` or of the sites `end_cycle` visits fails here
    /// (and trips the engine's debug cross-check in every other mixing
    /// test); so does seeding site 0 instead of the origin.
    #[test]
    fn active_set_and_marks_track_the_replicas_through_every_variant() {
        let n = 60;
        let policy = UniformPartners::new(n);
        let mut contacts = 0;
        for direction in [Direction::Push, Direction::Pull, Direction::PushPull] {
            for feedback in [Feedback::Feedback, Feedback::Blind] {
                for removal in [Removal::Counter { k: 2 }, Removal::Coin { k: 2 }] {
                    for synchronous in [true, false] {
                        let cfg = RumorConfig::new(direction, feedback, removal);
                        for limit in [None, Some(1)] {
                            let sites = site_ids(n);
                            let inner = MixingProtocol::new(
                                Mechanism::Rumor(cfg),
                                synchronous,
                                sites,
                                0,
                                MixingState::default(),
                            );
                            let made = probed_run(inner, &policy, limit);
                            assert!(made > 0, "{cfg:?} limit {limit:?}");
                            contacts += made;
                        }
                    }
                }
            }
        }
        let topo = topologies::grid(&[5, 5]);
        let routes = Routes::compute(&topo);
        let sampler = PartnerSampler::new(&topo, &routes, Spatial::QsPower { a: 2.0 });
        let origin = 7;
        let counter =
            |direction| RumorConfig::new(direction, Feedback::Feedback, Removal::Counter { k: 2 });
        for direction in [Direction::Push, Direction::Pull, Direction::PushPull] {
            let rumor = Mechanism::Rumor(counter(direction));
            let sites = topo.sites().iter().copied();
            let inner = MixingProtocol::new(rumor, false, sites, origin, MixingState::default());
            let seeded = &inner.state.sites[origin];
            assert!(
                seeded.db().entry(&KEY).is_some(),
                "{direction:?}: origin seeded"
            );
            let made = probed_run(inner, &sampler, Some(1));
            assert!(made > 0, "{direction:?}");
            contacts += made;
        }
        assert!(contacts > 10_000, "only {contacts} contacts probed");
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
