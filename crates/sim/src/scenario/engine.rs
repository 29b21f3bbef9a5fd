//! Lowering a declarative [`Scenario`] onto the shared [`CycleEngine`].
//!
//! [`ScenarioEngine`] compiles the spec once (validation, topology, routes
//! and partner sampler) and then runs it any number of times; each run is
//! a pure function of `(spec, seed)` — the engine draws from a single
//! [`StdRng`] in a fixed order (fault events, churn transitions, workload
//! operations, roster shuffle, partner draws, loss draws, contact
//! internals), so results are byte-identical at any `EPIDEMIC_THREADS`
//! (parallelism only ever runs *whole trials* concurrently, never splits
//! one run). A run keeps its heap state in a [`ScenarioArena`], so a trial
//! loop on a warm arena allocates nothing.
//!
//! The lowering uses the existing seams rather than a new loop:
//! partitions and lossy links mask contacts *after* the partner draw (a
//! blocked contact pays its RNG cost, exactly like the engine's admission
//! rule for down sites), the workload rides on `UpdateInjector`'s carry
//! accumulator, and per-scenario metrics come out of the same
//! [`ContactStats`]/[`TraceTotals`] plumbing as every other driver.
//!
//! Clocks advance [`TICKS_PER_CYCLE`] ticks a cycle, so a site stamping
//! several updates in one cycle stays within it; every duration of a spec
//! is in cycles and converted here. Coverage is marked where a key lands —
//! a client update, or an offer its receiver applies, as every exchange
//! path reports — and never probed.

use epidemic_core::activity::{ActivityList, PeelBackRumor};
use epidemic_core::direct_mail::MailStats;
use epidemic_core::rumor::{self, RumorConfig, RumorScratch};
use epidemic_core::{
    AntiEntropy, BackupAntiEntropy, Comparison, DirectMail, Direction, ExchangeScratch, MailSystem,
    Redistribution, Replica,
};
use epidemic_db::{GcPolicy, SiteId};
use epidemic_net::{topologies, PartnerSampler, PartnerSelection, Routes};
use epidemic_trace::{Sir, TraceTotals};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use super::spec::{
    AntiEntropySpec, FaultEvent, FaultKind, Scenario, SiteSet, SpecError, StopRule, TopologySpec,
    Workload, TICKS_PER_CYCLE,
};
use crate::bitset::BitSet;
use crate::engine::{
    ContactStats, CycleEngine, EngineBuffers, EpidemicProtocol, Observer, Roster, SirView,
    UniformPartners, UpdateInjector,
};
use crate::stats::Summary;
use crate::util::{self, pair_mut, reset_replicas};

/// Contact totals snapshotted at the moment a [`FaultEvent`] fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Milestone {
    /// Cycle at which the event fired.
    pub cycle: u32,
    /// The event's `FaultKind::label`.
    pub label: &'static str,
    /// Measured contacts completed before the event (see
    /// [`ScenarioReport::totals`]).
    pub contacts: u64,
    /// Database entries the measured contacts sent before the event.
    pub sent: u64,
    /// Sites holding every open key at that moment (`sites` when no key
    /// was open).
    pub covered: usize,
    /// Sites down at that moment (before the event applied).
    pub down: usize,
}

/// The outcome of one scenario run. Contact totals and exchange counts
/// cover the measured cycles, those after the spec's warm-up; every other
/// field covers the whole run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScenarioReport {
    /// Cycles executed.
    pub cycles: u32,
    /// Engine contact totals over the measured cycles.
    pub totals: TraceTotals,
    /// Cycle at which the stop rule held, `None` if the run hit
    /// [`Scenario::max_cycles`] first.
    pub converged_at: Option<u32>,
    /// Fraction of (site, key) deliveries still missing over all injected
    /// live keys — `0.0` when every key reached every site (the paper's
    /// residue, generalized to multi-update runs).
    pub residue: f64,
    /// Mean fraction of sites each injected update landed at by the end
    /// (1 when nothing was injected).
    pub coverage: f64,
    /// Entries sent per site over the measured cycles (the paper's
    /// traffic metric).
    pub traffic_per_site: f64,
    /// Distribution of per-key full-coverage delays in cycles (only keys
    /// that reached every site contribute).
    pub delay: Summary,
    /// Client updates injected (workload + fault events).
    pub updates: u64,
    /// Client deletes performed.
    pub deletes: u64,
    /// Client reads performed.
    pub reads: u64,
    /// Reads that found no live value.
    pub read_misses: u64,
    /// Contacts blocked by a partition cut or link loss.
    pub blocked_contacts: u64,
    /// Fraction of site-cycles spent down: down site-cycles over cycles ×
    /// sites, 0 when no cycle ran.
    pub down_fraction: f64,
    /// Dormant death certificates awakened by obsolete incoming data.
    pub awakened: u64,
    /// Entries shipped by anti-entropy exchanges.
    pub ae_sent: u64,
    /// Entries shipped by rumor or peel-back exchanges.
    pub rumor_sent: u64,
    /// Measured anti-entropy exchanges that fell back to a full database
    /// comparison.
    pub full_compares: u64,
    /// Entries the measured anti-entropy exchanges scanned while diffing.
    pub scanned: u64,
    /// Mail transport counters, when the spec has a mail line.
    pub mail: Option<MailStats>,
    /// Active death certificates remaining right after the last `gc`
    /// event, when the timeline had one.
    pub certs_after_gc: Option<u64>,
    /// Whether every deleted key's live copy is gone from every site.
    pub cancelled: bool,
    /// One snapshot per fired fault event, in firing order.
    pub milestones: Vec<Milestone>,
}

/// Which contact mechanism a cycle runs (at most one per cycle:
/// anti-entropy on its scheduled cycles, otherwise rumor or peel-back).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    AntiEntropy,
    Rumor,
    Peel,
    Idle,
}

/// An injected key that has not yet reached every site.
#[derive(Debug, Clone, Copy)]
struct OpenKey {
    key: u32,
    injected: u32,
}

/// Which site holds which minted key: bit `key * n + site`, set where the
/// key lands — its client update, or an offer the site applied — and a
/// holder count per key. In a write-once run (no deletes) every copy of a
/// key is the one version, so an offer to a marked site is `AlreadyKnown`
/// and one to an unmarked site is applied.
#[derive(Debug, Default)]
struct Holders {
    n: usize,
    bits: BitSet,
    count: Vec<u32>,
    /// Whether some key reached its last site since the last close scan.
    completed: bool,
}

impl Holders {
    /// No key minted yet, room for `keys` without growing.
    fn reset(&mut self, n: usize, keys: usize) {
        self.n = n;
        self.bits.reset(keys * n);
        self.count.clear();
        self.count.reserve(keys);
        self.completed = false;
    }

    /// Tracks the next key, held nowhere yet.
    fn mint(&mut self) {
        self.count.push(0);
        self.bits.grow(self.count.len() * self.n);
    }

    fn holds(&self, site: usize, key: u32) -> bool {
        self.bits.get(key as usize * self.n + site)
    }

    fn holders(&self, key: u32) -> usize {
        self.count[key as usize] as usize
    }

    /// Marks `keys` as landed at `site`; keys never minted (a deletion's
    /// certificate for an unknown key) are not tracked.
    fn land(&mut self, site: usize, keys: &[u32]) {
        for &key in keys {
            let Some(count) = self.count.get_mut(key as usize) else {
                continue;
            };
            let bit = key as usize * self.n + site;
            if !self.bits.get(bit) {
                self.bits.set(bit, true);
                *count += 1;
                self.completed |= *count as usize == self.n;
            }
        }
    }
}

/// Everything a scenario run keeps on the heap — replicas (their stores
/// sized for every key the run can mint), activity lists, per-site
/// vectors, the landed-key holder set, the mail transport, the exchange
/// and rumor scratch and the engine's roster buffers — owned across runs,
/// so that a run on a warm arena allocates nothing (fault milestones and
/// gc certificates aside). One arena serves any sequence
/// of specs; each run starts from a state indistinguishable from a fresh
/// one.
#[derive(Debug, Default)]
pub struct ScenarioArena {
    state: State,
    buffers: EngineBuffers,
}

impl ScenarioArena {
    /// An empty arena. Allocates nothing until its first run.
    pub fn new() -> Self {
        ScenarioArena::default()
    }

    /// The replicas as the last run left them.
    pub fn replicas(&self) -> &[Replica<u32, u32>] {
        &self.state.replicas
    }
}

#[derive(Debug, Default)]
struct State {
    replicas: Vec<Replica<u32, u32>>,
    lists: Vec<ActivityList<u32>>,
    everyone: Vec<SiteId>,
    up: Vec<bool>,
    group: Vec<u32>,
    skew: Vec<u64>,
    events: Vec<FaultEvent>,
    live_keys: Vec<u32>,
    deleted_keys: Vec<u32>,
    open: Vec<OpenKey>,
    holders: Holders,
    mail: MailSystem<u32, u32>,
    mailed: Vec<u32>,
    exchange: ExchangeScratch<u32>,
    rumor: RumorScratch<u32>,
}

/// A compiled scenario, ready to run.
///
/// # Example
///
/// ```
/// use epidemic_sim::scenario::{Scenario, ScenarioArena, ScenarioEngine};
///
/// let text = "\
/// scenario doc-example
/// sites 24
/// anti-entropy every 1 from 0 redistribute none
/// at 0 update site 0
/// until coverage
/// max-cycles 100
/// ";
/// let spec = Scenario::parse(text).unwrap();
/// let engine = ScenarioEngine::new(spec).unwrap();
/// let report = engine.run(&mut ScenarioArena::new(), 7, &mut ());
/// assert_eq!(report.residue, 0.0);
/// assert!(report.converged_at.is_some());
/// ```
#[derive(Debug, Clone)]
pub struct ScenarioEngine {
    spec: Scenario,
    /// The spec topology's site ids and partner sampler (none under
    /// uniform mixing).
    drawn: Option<(Vec<SiteId>, PartnerSampler)>,
}

impl ScenarioEngine {
    /// Validates `spec` and builds its topology, routes and partner
    /// sampler.
    pub fn new(spec: Scenario) -> Result<Self, SpecError> {
        spec.validate()?;
        let (topo, spatial) = match spec.topology {
            TopologySpec::Uniform => return Ok(ScenarioEngine { spec, drawn: None }),
            TopologySpec::Grid {
                rows,
                cols,
                spatial,
            } => (topologies::grid(&[rows, cols]), spatial),
            TopologySpec::Ring { spatial } => (topologies::ring(spec.sites), spatial),
        };
        let routes = Routes::compute(&topo);
        let sampler = PartnerSampler::new(&topo, &routes, spatial.to_net());
        let drawn = Some((topo.sites().to_vec(), sampler));
        Ok(ScenarioEngine { spec, drawn })
    }

    /// The spec back, to edit for the next engine without copying it.
    pub fn into_spec(self) -> Scenario {
        self.spec
    }

    /// Runs the scenario with the spec's own topology on the heap state
    /// `arena` kept from earlier runs, reporting every contact and cycle
    /// end to `observer` (`&mut ()` for none). The report equals a fresh
    /// arena's.
    pub fn run<O>(&self, arena: &mut ScenarioArena, seed: u64, observer: &mut O) -> ScenarioReport
    where
        O: Observer<ScenarioProtocol>,
    {
        match &self.drawn {
            None => {
                let uniform = UniformPartners::new(self.spec.sites);
                self.run_with_policy(arena, seed, &uniform, None, observer)
            }
            Some((sites, sampler)) => {
                self.run_with_policy(arena, seed, sampler, Some(sites), observer)
            }
        }
    }

    /// Runs the scenario against a caller-supplied partner strategy and
    /// site id list (`None` for `0..sites`), bypassing the spec's `topology`
    /// line: the churn ablation and `fig-cin-steady` run specs on the CIN's
    /// sampler this way. Draws exactly what [`ScenarioEngine::run`] draws
    /// for the same seed once its policy is built (building one draws
    /// nothing).
    pub fn run_with_policy<L, O>(
        &self,
        arena: &mut ScenarioArena,
        seed: u64,
        policy: &L,
        site_ids: Option<&[SiteId]>,
        observer: &mut O,
    ) -> ScenarioReport
    where
        L: PartnerSelection + ?Sized,
        O: Observer<ScenarioProtocol>,
    {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut state = std::mem::take(&mut arena.state);
        state.everyone.clear();
        match site_ids {
            Some(ids) => state.everyone.extend_from_slice(ids),
            None => state.everyone.extend(util::site_ids(self.spec.sites)),
        }
        assert_eq!(
            state.everyone.len(),
            self.spec.sites,
            "site id list must cover the spec's site count"
        );
        let mut protocol = ScenarioProtocol::new(&self.spec, state);
        // Cycle-0 events fire before the first engine cycle (initial
        // updates, a partition present from the start, churn from cycle 1).
        protocol.apply_due_events(0, &mut rng);
        let report = CycleEngine::new().max_cycles(self.spec.max_cycles).run(
            &mut protocol,
            policy,
            &mut rng,
            observer,
            &mut arena.buffers,
        );
        let (report, state) = protocol.into_report(&self.spec, report.cycles);
        arena.state = state;
        report
    }
}

/// The [`EpidemicProtocol`] a [`ScenarioEngine`] drives. Public so
/// observers can be written against it; construction stays internal.
pub struct ScenarioProtocol {
    // --- static configuration, copied out of the spec ---
    until: StopRule,
    rumor: Option<RumorConfig>,
    ae: Option<AntiEntropySpec>,
    redistribution: Redistribution,
    workload: Workload,
    warmup: u32,
    /// No delete anywhere in the spec: every key is written once.
    write_once: bool,
    // --- simulation state ---
    s: State,
    /// The spec has a mail line: `s.mail` is this run's transport.
    mailing: bool,
    partitioned: bool,
    loss: f64,
    churn: Option<(f64, f64)>,
    /// Cycles every up site's clock has jumped for gc events.
    clock_bump: u64,
    injector: UpdateInjector,
    ops_done: u64,
    closed: u64,
    next_event: usize,
    phase: Phase,
    // --- mechanism objects ---
    exchange: AntiEntropy,
    backup: BackupAntiEntropy,
    peel: Option<PeelBackRumor>,
    // --- counters: the report's as they accrue ---
    down_site_cycles: u64,
    r: ScenarioReport,
}

impl ScenarioProtocol {
    /// A protocol for `spec` on `s`, whose `everyone` already lists the
    /// site ids; everything else in it is reset.
    fn new(spec: &Scenario, mut s: State) -> Self {
        let n = spec.sites;
        let peel = spec.protocol.peel_back.map(PeelBackRumor::new);
        let rows = spec.store_keys();
        reset_replicas(&mut s.replicas, s.everyone.iter().copied(), rows);
        s.lists.clear();
        s.lists
            .resize_with(peel.map_or(0, |_| n), ActivityList::new);
        s.up.clear();
        s.up.resize(n, true);
        // Sized by the first partition and skew events.
        s.group.clear();
        s.skew.clear();
        s.events.clear();
        s.events.extend_from_slice(&spec.events);
        s.live_keys.clear();
        s.deleted_keys.clear();
        s.open.clear();
        // Room for every key the run can mint, up to 2²² holder bits.
        let keys = (spec.max_keys() as usize).min((1 << 22) / n);
        s.holders.reset(n, keys);
        s.open.reserve(keys);
        let ae = spec.protocol.anti_entropy;
        let redistribution = ae.map_or(Redistribution::None, |ae| ae.redistribution);
        if let Some(config) = spec.protocol.mail {
            s.mail.reset(n, config);
        }
        let comparison = match ae.map_or(Comparison::Full, |ae| ae.comparison) {
            // A window past the clock's range lists every entry.
            Comparison::RecentList { tau } => Comparison::RecentList {
                tau: tau.saturating_mul(TICKS_PER_CYCLE),
            },
            other => other,
        };
        let mut protocol = ScenarioProtocol {
            until: spec.until,
            rumor: spec.protocol.rumor,
            ae,
            redistribution,
            workload: spec.workload,
            warmup: spec.warmup,
            write_once: !spec.deletes(),
            s,
            mailing: spec.protocol.mail.is_some(),
            partitioned: false,
            loss: 0.0,
            churn: None,
            clock_bump: 0,
            injector: UpdateInjector::new(spec.workload.rate),
            ops_done: 0,
            closed: 0,
            next_event: 0,
            phase: Phase::Idle,
            exchange: AntiEntropy::new(Direction::PushPull, comparison),
            backup: BackupAntiEntropy::new(redistribution),
            peel,
            down_site_cycles: 0,
            r: ScenarioReport {
                delay: Summary::new(),
                ..ScenarioReport::default()
            },
        };
        // The roster/activity questions for cycle 1 are asked before
        // `begin_cycle(1)` recomputes the phase, so seed it here.
        protocol.phase = protocol.phase_for(1);
        protocol
    }

    fn phase_for(&self, cycle: u32) -> Phase {
        match self.ae {
            Some(ae) if cycle >= ae.from && cycle.is_multiple_of(ae.every) => Phase::AntiEntropy,
            _ if self.rumor.is_some() => Phase::Rumor,
            _ if self.peel.is_some() => Phase::Peel,
            _ => Phase::Idle,
        }
    }

    fn n(&self) -> usize {
        self.s.replicas.len()
    }

    /// Sites currently holding every open key (`n` when nothing is open).
    fn covered_count(&self) -> usize {
        let (open, holders) = (&self.s.open, &self.s.holders);
        (0..self.n())
            .filter(|&i| open.iter().all(|k| holders.holds(i, k.key)))
            .count()
    }

    fn resolve_set(&self, set: &SiteSet) -> std::ops::Range<usize> {
        let n = self.n();
        match *set {
            SiteSet::Site(i) => i..i + 1,
            SiteSet::Span { from, count } => from..from + count,
            SiteSet::Last(count) => n - count..n,
            // Sites 1..=floor(n·f), never site 0: it is conventionally the
            // injection origin and stays up (the legacy crash driver's
            // convention).
            SiteSet::Fraction(f) => 1..((n as f64 * f) as usize).min(n - 1) + 1,
            SiteSet::All => 0..n,
        }
    }

    /// Fires every event scheduled at or before `cycle`, in listed order,
    /// snapshotting a [`Milestone`] before each one applies.
    fn apply_due_events(&mut self, cycle: u32, rng: &mut StdRng) {
        while let Some(event) = self.s.events.get(self.next_event) {
            if event.cycle > cycle {
                break;
            }
            let kind = event.kind;
            self.next_event += 1;
            self.r.milestones.push(Milestone {
                cycle,
                label: kind.label(),
                contacts: self.r.totals.contacts,
                sent: self.r.totals.sent,
                covered: self.covered_count(),
                down: self.s.up.iter().filter(|&&u| !u).count(),
            });
            self.apply_event(cycle, kind, rng);
        }
    }

    fn apply_event(&mut self, cycle: u32, kind: FaultKind, rng: &mut StdRng) {
        let n = self.n();
        match kind {
            FaultKind::Update { site, count } => {
                for _ in 0..count {
                    let at = site.unwrap_or_else(|| rng.random_range(0..n));
                    self.inject_update(cycle, at, rng);
                }
            }
            FaultKind::Delete {
                site,
                key,
                retention,
            } => self.delete_key(site, key, retention),
            FaultKind::Crash(set) | FaultKind::Recover(set) => {
                let sites = self.resolve_set(&set);
                self.s.up[sites].fill(matches!(kind, FaultKind::Recover(_)));
            }
            FaultKind::Churn { fail, recover } => self.churn = Some((fail, recover)),
            FaultKind::ChurnStop => self.churn = None,
            FaultKind::Partition(groups) => {
                let group = |i| u32::try_from(i * groups / n).expect("group fits u32");
                self.s.group.clear();
                self.s.group.extend((0..n).map(group));
                self.partitioned = true;
            }
            FaultKind::Heal => self.partitioned = false,
            FaultKind::Loss(p) => self.loss = p,
            FaultKind::LossEnd => self.loss = 0.0,
            FaultKind::Gc { tau1, tau2 } => {
                // Jump every up site past the active window so the sweep
                // actually ages out certificates; down sites keep their
                // stale clocks until they recover.
                self.clock_bump += tau1 + 1;
                let policy = GcPolicy::Dormant {
                    tau1: tau1 * TICKS_PER_CYCLE,
                    tau2: tau2.saturating_mul(TICKS_PER_CYCLE),
                };
                let mut active_certs = 0u64;
                for i in 0..n {
                    if !self.s.up[i] {
                        continue;
                    }
                    let time = self.clock(cycle, i);
                    self.s.replicas[i].advance_clock(time);
                    self.s.replicas[i].collect_garbage(policy);
                    active_certs += self.s.replicas[i].db().dead_len() as u64;
                }
                self.r.certs_after_gc = Some(active_certs);
            }
            FaultKind::Skew { site, offset } => {
                self.s.skew.resize(n, 0);
                self.s.skew[site] = offset;
            }
        }
    }

    /// Site `i`'s clock reading at the start of `cycle`: the cycle plus
    /// the gc jumps and its skew, in ticks.
    fn clock(&self, cycle: u32, i: usize) -> u64 {
        let skew = self.s.skew.get(i).copied().unwrap_or(0);
        (u64::from(cycle) + self.clock_bump + skew) * TICKS_PER_CYCLE
    }

    /// Applies one client update under a fresh key at `site` and opens its
    /// coverage tracking; with a mail transport, the origin also
    /// broadcasts it.
    fn inject_update(&mut self, cycle: u32, site: usize, rng: &mut StdRng) {
        let key = self.injector.alloc_key();
        self.s.replicas[site].client_update(key, cycle);
        if self.rumor.is_none() && self.peel.is_none() {
            // No rumor mechanism will ever drain the hot list; clear it so
            // quiescence and activity stay meaningful (the legacy
            // anti-entropy drivers did exactly this after injecting).
            self.s.replicas[site].hot_mut().remove(&key);
        }
        if self.mailing {
            let s = &mut self.s;
            DirectMail.broadcast(&s.replicas[site], &s.everyone, &key, &mut s.mail, rng);
        }
        self.s.holders.mint();
        self.s.holders.land(site, &[key]);
        self.s.open.push(OpenKey {
            key,
            injected: cycle,
        });
        if self.workload.mix.delete > 0 {
            // Only the workload's deletes pick from the live keys.
            self.s.live_keys.push(key);
        }
        self.r.updates += 1;
    }

    fn delete_key(&mut self, site: usize, key: u32, retention: u32) {
        let n = self.n();
        let retention_sites: Vec<SiteId> = (0..retention as usize)
            .map(|t| self.s.everyone[(site + 1 + t) % n])
            .collect();
        self.s.replicas[site].client_delete_with_retention(&key, retention_sites);
        if self.rumor.is_none() && self.peel.is_none() {
            self.s.replicas[site].hot_mut().remove(&key);
        }
        self.s.live_keys.retain(|&k| k != key);
        self.s.open.retain(|k| k.key != key);
        if !self.s.deleted_keys.contains(&key) {
            self.s.deleted_keys.push(key);
        }
        self.r.deletes += 1;
    }

    /// Runs the weighted workload mix for one cycle.
    fn run_workload(&mut self, cycle: u32, rng: &mut StdRng) {
        if self.workload.rate <= 0.0 {
            return;
        }
        let mut due = u64::from(self.injector.due());
        if let Some(budget) = self.workload.budget {
            due = due.min(budget.saturating_sub(self.ops_done));
        }
        let mix = self.workload.mix;
        let total = mix.total();
        let n = self.n();
        for _ in 0..due {
            self.ops_done += 1;
            // Single-category mixes skip the kind draw: weights only cost
            // RNG state when there is a real choice to make.
            let roll = if total == mix.update {
                0
            } else if total == mix.delete {
                mix.update
            } else if total == mix.read {
                mix.update + mix.delete
            } else {
                rng.random_range(0..total)
            };
            let site = rng.random_range(0..n);
            if roll < mix.update {
                self.inject_update(cycle, site, rng);
            } else if roll < mix.update + mix.delete {
                if self.s.live_keys.is_empty() {
                    continue;
                }
                let idx = rng.random_range(0..self.s.live_keys.len());
                let key = self.s.live_keys[idx];
                self.delete_key(site, key, self.workload.retention);
            } else {
                self.r.reads += 1;
                let minted = self.injector.injected();
                if minted == 0 {
                    self.r.read_misses += 1;
                    continue;
                }
                let key = rng.random_range(0..minted);
                if self.s.replicas[site].db().get(&key).is_none() {
                    self.r.read_misses += 1;
                }
            }
        }
    }

    /// Whether the contact `i → j` is severed this cycle (partition cut
    /// first — no RNG — then one loss draw).
    fn contact_blocked(&mut self, i: usize, j: usize, rng: &mut StdRng) -> bool {
        if self.partitioned && self.s.group[i] != self.s.group[j] {
            return true;
        }
        self.loss > 0.0 && rng.random::<f64>() < self.loss
    }

    /// Closes, in the open list's order, every open key that now covers
    /// every site — scanned only when some key reached its last site.
    fn close_covered(&mut self, cycle: u32) {
        if !std::mem::take(&mut self.s.holders.completed) {
            return;
        }
        let n = self.n();
        let mut idx = 0;
        while idx < self.s.open.len() {
            if self.s.holders.holders(self.s.open[idx].key) == n {
                let done = self.s.open.swap_remove(idx);
                self.r.delay.push(f64::from(cycle - done.injected));
                self.closed += 1;
            } else {
                idx += 1;
            }
        }
    }

    /// Whether every open key's holder bits are what probing the databases
    /// says — the definition the landing reports must keep. Debug builds
    /// check it after every cycle. A key deleted before it was minted is
    /// left out: a site holding only that certificate has an entry but not
    /// the update.
    fn holders_match_the_databases(&self) -> bool {
        let (s, n) = (&self.s, self.n());
        let mut open = s.open.iter().filter(|k| !s.deleted_keys.contains(&k.key));
        open.all(|k| {
            let held = |i: usize| s.replicas[i].db().entry(&k.key).is_some();
            (0..n).all(|i| held(i) == s.holders.holds(i, k.key))
                && (0..n).filter(|&i| held(i)).count() == s.holders.holders(k.key)
        })
    }

    fn workload_done(&self) -> bool {
        self.workload.rate <= 0.0
            || self
                .workload
                .budget
                .is_some_and(|budget| self.ops_done >= budget)
    }

    fn databases_equal(&self) -> bool {
        let first = self.s.replicas[0].db();
        self.s.replicas.iter().skip(1).all(|r| r.db() == first)
    }

    fn all_cancelled(&self) -> bool {
        self.s
            .deleted_keys
            .iter()
            .all(|key| self.s.replicas.iter().all(|r| r.db().get(key).is_none()))
    }

    fn residue(&self) -> f64 {
        let n = self.n();
        let total_keys = self.closed + self.s.open.len() as u64;
        if total_keys == 0 {
            return 0.0;
        }
        let missing = |k: &OpenKey| (n - self.s.holders.holders(k.key)) as u64;
        let missing: u64 = self.s.open.iter().map(missing).sum();
        missing as f64 / (n as u64 * total_keys) as f64
    }

    fn into_report(mut self, spec: &Scenario, cycles: u32) -> (ScenarioReport, State) {
        let n = self.n();
        let held: u64 = self.s.holders.count.iter().map(|&c| u64::from(c)).sum();
        self.r.residue = self.residue();
        self.r.cancelled = !self.s.deleted_keys.is_empty() && self.all_cancelled();
        let r = &mut self.r;
        r.cycles = cycles;
        r.converged_at = (cycles < spec.max_cycles).then_some(cycles);
        r.coverage = if r.updates == 0 {
            1.0
        } else {
            held as f64 / (r.updates * n as u64) as f64
        };
        r.traffic_per_site = r.totals.sent as f64 / n as f64;
        if cycles > 0 {
            r.down_fraction = self.down_site_cycles as f64 / (f64::from(cycles) * n as f64);
        }
        r.mail = self.mailing.then(|| self.s.mail.stats());
        (self.r, self.s)
    }

    /// One anti-entropy exchange `i ↔ j`: plain under `redistribute none`,
    /// the §1.5 backup pass otherwise. Returns the entries sent.
    fn anti_entropy(&mut self, i: usize, j: usize, measured: bool, rng: &mut StdRng) -> u64 {
        let (a, b) = pair_mut(&mut self.s.replicas, i, j);
        let stats = if self.redistribution == Redistribution::None {
            self.exchange.exchange_with(a, b, &mut self.s.exchange)
        } else {
            let outcome = self.backup.exchange(a, b, &mut self.s.exchange);
            if self.mailing {
                for (key, entry) in outcome.remail {
                    for &to in &self.s.everyone {
                        self.s.mail.post(to, key, entry.clone(), rng);
                    }
                }
            }
            outcome.stats
        };
        self.r.awakened += stats.awakened as u64;
        if measured {
            self.r.full_compares += u64::from(stats.full_compare);
            self.r.scanned += stats.entries_scanned as u64;
        }
        let sent = u64::try_from(stats.total_sent()).unwrap_or(u64::MAX);
        self.r.ae_sent += sent;
        sent
    }

    /// One rumor contact `i → j`. In a write-once run push and pull skip
    /// their offers to holders (made anyway, and checked, in debug
    /// builds); push-pull never asks.
    fn rumor_contact(&mut self, i: usize, j: usize, rng: &mut StdRng) -> ContactStats {
        let cfg = self.rumor.expect("rumor phase has a config");
        let (a, b) = pair_mut(&mut self.s.replicas, i, j);
        let (holders, scratch, write_once) = (&self.s.holders, &mut self.s.rumor, self.write_once);
        let recipient = if cfg.direction.pushes() { j } else { i };
        let mut news = 0;
        let stats = rumor::contact_with_known(&cfg, a, b, rng, scratch, |&key| {
            let held = write_once && holders.holds(recipient, key);
            news += usize::from(!held);
            held
        });
        debug_assert!(
            !write_once || cfg.direction == Direction::PushPull || stats.useful == news,
            "an offer to a non-holder was refused"
        );
        self.r.rumor_sent += u64::try_from(stats.sent).unwrap_or(u64::MAX);
        stats.into()
    }
}

impl EpidemicProtocol for ScenarioProtocol {
    fn site_count(&self) -> usize {
        self.n()
    }

    fn roster(&self) -> Roster {
        match self.phase {
            Phase::AntiEntropy | Phase::Peel => Roster::Everyone,
            Phase::Rumor => match self.rumor.expect("rumor phase has a config").direction {
                Direction::Push => Roster::Active,
                Direction::Pull | Direction::PushPull => Roster::Everyone,
            },
            // An idle cycle costs nothing: the Active roster is empty.
            Phase::Idle => Roster::Active,
        }
    }

    fn is_active(&self, i: usize) -> bool {
        match self.phase {
            Phase::AntiEntropy | Phase::Peel => self.s.up[i],
            Phase::Rumor => self.s.up[i] && !self.s.replicas[i].hot().is_empty(),
            Phase::Idle => false,
        }
    }

    fn finished(&self, _cycle: u32, active: &[usize]) -> bool {
        if self.next_event < self.s.events.len() || !self.workload_done() {
            return false;
        }
        match self.until {
            StopRule::Bound => false,
            StopRule::Quiescent => active.is_empty(),
            StopRule::Coverage => self.s.open.is_empty(),
            StopRule::Converged => self.s.open.is_empty() && self.databases_equal(),
            StopRule::Cancelled => !self.s.deleted_keys.is_empty() && self.all_cancelled(),
        }
    }

    fn begin_cycle(&mut self, cycle: u32, rng: &mut StdRng) {
        // 1. Fault events scheduled for this cycle, in listed order.
        self.apply_due_events(cycle, rng);
        // 2. Churn transitions: exactly one draw per site per cycle while
        //    churn is on (the legacy churn driver's draw discipline).
        if let Some((fail, recover)) = self.churn {
            for status in self.s.up.iter_mut() {
                if *status {
                    if rng.random::<f64>() < fail {
                        *status = false;
                    }
                } else if rng.random::<f64>() < recover {
                    *status = true;
                }
            }
        }
        self.down_site_cycles += self.s.up.iter().filter(|&&u| !u).count() as u64;
        // 3. Clocks: up sites track the cycle count (plus GC jumps and any
        //    per-site skew); down sites stay frozen until they recover.
        for i in 0..self.n() {
            if self.s.up[i] {
                let time = self.clock(cycle, i);
                self.s.replicas[i].advance_clock(time);
            }
        }
        // 4. Weighted client workload.
        self.run_workload(cycle, rng);
        // 5. Mail delivery to up sites (queued letters survive an outage
        //    until the destination recovers or the queue overflows).
        if self.mailing {
            for i in 0..self.n() {
                if !self.s.up[i] {
                    continue;
                }
                let s = &mut self.s;
                s.mailed.clear();
                if DirectMail.deliver(&mut s.replicas[i], &mut s.mail, &mut s.mailed) > 0 {
                    s.holders.land(i, &s.mailed);
                    self.close_covered(cycle);
                }
            }
        }
        // 6. Which mechanism runs this cycle.
        self.phase = self.phase_for(cycle);
    }

    fn initiates(&self, i: usize) -> bool {
        self.phase != Phase::Idle && self.s.up[i]
    }

    fn admits(&self, j: usize) -> bool {
        self.s.up[j]
    }

    fn contact(&mut self, cycle: u32, i: usize, j: usize, rng: &mut StdRng) -> ContactStats {
        let measured = cycle > self.warmup;
        let stats = if self.contact_blocked(i, j, rng) {
            self.r.blocked_contacts += 1;
            ContactStats::default()
        } else {
            let (stats, by_rumor) = match self.phase {
                Phase::AntiEntropy => {
                    let sent = self.anti_entropy(i, j, measured, rng);
                    (ContactStats { sent, useful: sent }, false)
                }
                Phase::Rumor => (self.rumor_contact(i, j, rng), true),
                Phase::Peel => {
                    let peel = self.peel.as_ref().expect("peel phase has a protocol");
                    let (a, b) = pair_mut(&mut self.s.replicas, i, j);
                    let (la, lb) = pair_mut(&mut self.s.lists, i, j);
                    let stats = peel.exchange(a, la, b, lb, &mut self.s.exchange);
                    let sent = u64::try_from(stats.total_sent()).unwrap_or(u64::MAX);
                    self.r.rumor_sent += sent;
                    (ContactStats { sent, useful: sent }, false)
                }
                // `initiates` is false on idle cycles, so this cannot run;
                // keep it total instead of panicking in release builds.
                Phase::Idle => return ContactStats::default(),
            };
            let s = &mut self.s;
            let [at_i, at_j] = [&s.exchange.landed, &s.rumor.landed][usize::from(by_rumor)];
            s.holders.land(i, at_i);
            s.holders.land(j, at_j);
            self.close_covered(cycle);
            stats
        };
        if measured {
            stats.add_to(&mut self.r.totals);
        }
        stats
    }

    fn end_cycle(&mut self, _cycle: u32, _rng: &mut StdRng) {
        if let Some(cfg) = self.rumor {
            if cfg.direction == Direction::Pull {
                for site in &mut self.s.replicas {
                    rumor::end_cycle(&cfg, site);
                }
            }
        }
        debug_assert!(self.holders_match_the_databases());
    }
}

impl SirView for ScenarioProtocol {
    fn sir_counts(&self) -> Sir {
        let n = self.n();
        let covered = self.covered_count();
        let hot = self.s.replicas.iter().filter(|r| !r.hot().is_empty());
        let hot = hot.count();
        // Clamp so the compartments always sum to n even when a hot site
        // does not yet hold every open key (multi-update runs).
        let infective = hot.min(covered);
        Sir {
            susceptible: n - covered,
            infective,
            removed: covered - infective,
        }
    }
}
