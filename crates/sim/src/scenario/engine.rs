//! Lowering a declarative [`Scenario`] onto the shared [`CycleEngine`].
//!
//! [`ScenarioEngine`] compiles the spec once (validation, topology
//! construction) and then runs it any number of times; each run is a pure
//! function of `(spec, seed)` — the engine draws from a single
//! [`StdRng`] in a fixed order (fault events, churn transitions, workload
//! operations, roster shuffle, partner draws, loss draws, contact
//! internals), so results are byte-identical at any `EPIDEMIC_THREADS`
//! (parallelism only ever runs *whole trials* concurrently, never splits
//! one run).
//!
//! The lowering uses the existing seams rather than a new loop:
//! partitions and lossy links mask contacts *after* the partner draw (a
//! blocked contact pays its RNG cost, exactly like the engine's admission
//! rule for down sites), the workload rides on `UpdateInjector`'s carry
//! accumulator, and per-scenario metrics come out of the same
//! [`ContactStats`]/[`TraceTotals`] plumbing as every other driver.

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

use super::spec::{FaultEvent, FaultKind, Scenario, SiteSet, SpecError, StopRule, TopologySpec};
use crate::engine::{
    ContactStats, CycleEngine, EngineBuffers, EpidemicProtocol, Observer, Roster, SirView,
    UniformPartners, UpdateInjector,
};
use crate::stats::Summary;
use crate::util::{self, pair_mut};

/// Contact totals snapshotted at the moment a [`FaultEvent`] fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Milestone {
    /// Cycle at which the event fired.
    pub cycle: u32,
    /// The event's `FaultKind::label`.
    pub label: &'static str,
    /// Engine contacts completed before the event.
    pub contacts: u64,
    /// Database entries sent before the event.
    pub sent: u64,
    /// Sites holding every open key at that moment (`sites` when no key
    /// was open).
    pub covered: usize,
    /// Sites down at that moment (before the event applied).
    pub down: usize,
}

/// The outcome of one scenario run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// Scenario name (copied from the spec).
    pub name: String,
    /// Cycles executed.
    pub cycles: u32,
    /// Aggregate engine contact totals.
    pub totals: TraceTotals,
    /// Cycle at which the stop rule held, `None` if the run hit
    /// [`Scenario::max_cycles`] first.
    pub converged_at: Option<u32>,
    /// Fraction of (site, key) deliveries still missing over all injected
    /// live keys — `0.0` when every key reached every site (the paper's
    /// residue, generalized to multi-update runs).
    pub residue: f64,
    /// Entries sent per site (the paper's traffic metric).
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
#[derive(Debug, Clone)]
struct OpenKey {
    key: u32,
    injected: u32,
    have: Vec<bool>,
    have_count: usize,
}

/// A compiled scenario, ready to run.
///
/// # Example
///
/// ```
/// use epidemic_sim::scenario::{Scenario, ScenarioEngine};
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
/// let report = ScenarioEngine::new(spec).unwrap().run(7, &mut ());
/// assert_eq!(report.residue, 0.0);
/// assert!(report.converged_at.is_some());
/// ```
#[derive(Debug, Clone)]
pub struct ScenarioEngine {
    spec: Scenario,
}

impl ScenarioEngine {
    /// Validates and compiles `spec`.
    pub fn new(spec: Scenario) -> Result<Self, SpecError> {
        spec.validate()?;
        Ok(ScenarioEngine { spec })
    }

    /// Runs the scenario with the spec's own topology, reporting every
    /// contact and cycle end to `observer` (`&mut ()` for none).
    pub fn run<O>(&self, seed: u64, observer: &mut O) -> ScenarioReport
    where
        O: Observer<ScenarioProtocol>,
    {
        let (topo, spatial) = match self.spec.topology {
            TopologySpec::Uniform => {
                let policy = UniformPartners::new(self.spec.sites);
                return self.run_with_policy(seed, &policy, None, observer);
            }
            TopologySpec::Grid {
                rows,
                cols,
                spatial,
            } => (topologies::grid(&[rows, cols]), spatial),
            TopologySpec::Ring { spatial } => (topologies::ring(self.spec.sites), spatial),
        };
        let routes = Routes::compute(&topo);
        let sampler = PartnerSampler::new(&topo, &routes, spatial.to_net());
        self.run_with_policy(seed, &sampler, Some(topo.sites()), observer)
    }

    /// Runs the scenario against a caller-supplied partner strategy and
    /// site id list (`None` for `0..sites`), bypassing the spec's `topology`
    /// line: the churn ablation runs the bundled churn spec on the CIN's
    /// sampler this way. Draws exactly what [`ScenarioEngine::run`] draws
    /// for the same seed once its policy is built (building one draws
    /// nothing).
    pub fn run_with_policy<L, O>(
        &self,
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
        let everyone: Vec<SiteId> = match site_ids {
            Some(ids) => ids.to_vec(),
            None => util::site_ids(self.spec.sites).collect(),
        };
        assert_eq!(
            everyone.len(),
            self.spec.sites,
            "site id list must cover the spec's site count"
        );
        let mut protocol = ScenarioProtocol::new(&self.spec, everyone);
        // Cycle-0 events fire before the first engine cycle (initial
        // updates, a partition present from the start, churn from cycle 1).
        protocol.apply_due_events(0, &mut rng);
        let report = CycleEngine::new().max_cycles(self.spec.max_cycles).run(
            &mut protocol,
            policy,
            &mut rng,
            observer,
            &mut EngineBuffers::default(),
        );
        protocol.into_report(&self.spec, report)
    }
}

/// The [`EpidemicProtocol`] a [`ScenarioEngine`] drives. Public so
/// observers can be written against it; construction stays internal.
pub struct ScenarioProtocol {
    // --- static configuration, copied out of the spec ---
    events: Vec<FaultEvent>,
    until: StopRule,
    rumor: Option<RumorConfig>,
    ae: Option<super::spec::AntiEntropySpec>,
    redistribution: Redistribution,
    workload: super::spec::Workload,
    everyone: Vec<SiteId>,
    // --- simulation state ---
    replicas: Vec<Replica<u32, u64>>,
    lists: Vec<ActivityList<u32>>,
    mail: Option<MailSystem<u32, u64>>,
    up: Vec<bool>,
    group: Vec<u32>,
    partitioned: bool,
    loss: f64,
    churn: Option<(f64, f64)>,
    skew: Vec<u64>,
    clock_bump: u64,
    injector: UpdateInjector,
    ops_done: u64,
    live_keys: Vec<u32>,
    deleted_keys: Vec<u32>,
    open: Vec<OpenKey>,
    closed: u64,
    next_event: usize,
    phase: Phase,
    // --- mechanism objects and scratch ---
    exchange: AntiEntropy,
    backup: BackupAntiEntropy,
    peel: Option<PeelBackRumor>,
    direct: DirectMail,
    rumor_scratch: RumorScratch<u32>,
    ae_scratch: ExchangeScratch<u32>,
    newly_mailed: Vec<usize>,
    // --- counters ---
    updates: u64,
    deletes: u64,
    reads: u64,
    read_misses: u64,
    blocked_contacts: u64,
    down_site_cycles: u64,
    awakened: u64,
    ae_sent: u64,
    rumor_sent: u64,
    contacts: u64,
    sent: u64,
    delay: Summary,
    certs_after_gc: Option<u64>,
    milestones: Vec<Milestone>,
}

impl ScenarioProtocol {
    fn new(spec: &Scenario, everyone: Vec<SiteId>) -> Self {
        let n = spec.sites;
        let replicas: Vec<Replica<u32, u64>> = everyone.iter().map(|&s| Replica::new(s)).collect();
        let peel = spec.protocol.peel_back.map(PeelBackRumor::new);
        let lists = if peel.is_some() {
            vec![ActivityList::new(); n]
        } else {
            Vec::new()
        };
        let mut protocol = ScenarioProtocol {
            events: spec.events.clone(),
            until: spec.until,
            rumor: spec.protocol.rumor,
            ae: spec.protocol.anti_entropy,
            redistribution: spec
                .protocol
                .anti_entropy
                .map_or(Redistribution::None, |ae| ae.redistribution),
            workload: spec.workload,
            everyone,
            replicas,
            lists,
            mail: spec.protocol.mail.map(|config| MailSystem::new(n, config)),
            up: vec![true; n],
            group: vec![0; n],
            partitioned: false,
            loss: 0.0,
            churn: None,
            skew: vec![0; n],
            clock_bump: 0,
            injector: UpdateInjector::new(spec.workload.rate),
            ops_done: 0,
            live_keys: Vec::new(),
            deleted_keys: Vec::new(),
            open: Vec::new(),
            closed: 0,
            next_event: 0,
            phase: Phase::Idle,
            exchange: AntiEntropy::new(Direction::PushPull, Comparison::Full),
            backup: BackupAntiEntropy::new(
                spec.protocol
                    .anti_entropy
                    .map_or(Redistribution::None, |ae| ae.redistribution),
            ),
            peel,
            direct: DirectMail::new(),
            rumor_scratch: RumorScratch::new(),
            ae_scratch: ExchangeScratch::new(),
            newly_mailed: Vec::new(),
            updates: 0,
            deletes: 0,
            reads: 0,
            read_misses: 0,
            blocked_contacts: 0,
            down_site_cycles: 0,
            awakened: 0,
            ae_sent: 0,
            rumor_sent: 0,
            contacts: 0,
            sent: 0,
            delay: Summary::new(),
            certs_after_gc: None,
            milestones: Vec::new(),
        };
        // The roster/activity questions for cycle 1 are asked before
        // `begin_cycle(1)` recomputes the phase, so seed it here.
        protocol.phase = protocol.phase_for(1);
        protocol
    }

    fn phase_for(&self, cycle: u32) -> Phase {
        if let Some(ae) = &self.ae {
            if cycle >= ae.from && cycle.is_multiple_of(ae.every) {
                return Phase::AntiEntropy;
            }
        }
        if self.rumor.is_some() {
            return Phase::Rumor;
        }
        if self.peel.is_some() {
            return Phase::Peel;
        }
        Phase::Idle
    }

    fn site_count_internal(&self) -> usize {
        self.replicas.len()
    }

    /// Sites currently holding every open key (`n` when nothing is open).
    fn covered_count(&self) -> usize {
        let n = self.site_count_internal();
        if self.open.is_empty() {
            return n;
        }
        (0..n)
            .filter(|&i| self.open.iter().all(|k| k.have[i]))
            .count()
    }

    fn resolve_set(&self, set: &SiteSet) -> Vec<usize> {
        let n = self.site_count_internal();
        match set {
            SiteSet::Site(i) => vec![*i],
            SiteSet::Span { from, count } => (*from..from + count).collect(),
            SiteSet::Last(count) => (n - count..n).collect(),
            // Sites 1..=floor(n·f): site 0 is conventionally the injection
            // origin and stays up (the legacy crash driver's convention).
            SiteSet::Fraction(f) => (1..=((n as f64) * f) as usize).collect(),
            SiteSet::All => (0..n).collect(),
        }
    }

    /// Fires every event scheduled at or before `cycle`, in listed order,
    /// snapshotting a [`Milestone`] before each one applies.
    fn apply_due_events(&mut self, cycle: u32, rng: &mut StdRng) {
        while self.next_event < self.events.len() && self.events[self.next_event].cycle <= cycle {
            let event = self.events[self.next_event].clone();
            self.next_event += 1;
            self.milestones.push(Milestone {
                cycle,
                label: event.kind.label(),
                contacts: self.contacts,
                sent: self.sent,
                covered: self.covered_count(),
                down: self.up.iter().filter(|&&u| !u).count(),
            });
            self.apply_event(cycle, &event.kind, rng);
        }
    }

    fn apply_event(&mut self, cycle: u32, kind: &FaultKind, rng: &mut StdRng) {
        let n = self.site_count_internal();
        match *kind {
            FaultKind::Update { site, count } => {
                for _ in 0..count {
                    let at = site.unwrap_or_else(|| rng.random_range(0..n));
                    let key = self.injector.alloc_key();
                    self.inject_update(cycle, at, key, rng);
                }
            }
            FaultKind::Delete {
                site,
                key,
                retention,
            } => {
                self.delete_key(site, key, retention);
            }
            FaultKind::Crash(ref set) => {
                for i in self.resolve_set(set) {
                    self.up[i] = false;
                }
            }
            FaultKind::Recover(ref set) => {
                for i in self.resolve_set(set) {
                    self.up[i] = true;
                }
            }
            FaultKind::Churn { fail, recover } => self.churn = Some((fail, recover)),
            FaultKind::ChurnStop => self.churn = None,
            FaultKind::Partition(groups) => {
                for (i, g) in self.group.iter_mut().enumerate() {
                    *g = u32::try_from(i * groups / n).expect("group fits u32");
                }
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
                let mut active_certs = 0u64;
                for i in 0..n {
                    if !self.up[i] {
                        continue;
                    }
                    let time = u64::from(cycle) + self.clock_bump + self.skew[i];
                    self.replicas[i].advance_clock(time);
                    self.replicas[i].collect_garbage(GcPolicy::Dormant { tau1, tau2 });
                    active_certs += self.replicas[i].db().dead_len() as u64;
                }
                self.certs_after_gc = Some(active_certs);
            }
            FaultKind::Skew { site, offset } => self.skew[site] = offset,
        }
    }

    /// Applies one client update at `site` and registers its coverage
    /// tracking; with a mail transport, the origin also broadcasts it.
    fn inject_update(&mut self, cycle: u32, site: usize, key: u32, rng: &mut StdRng) {
        self.replicas[site].client_update(key, u64::from(cycle));
        if self.rumor.is_none() && self.peel.is_none() {
            // No rumor mechanism will ever drain the hot list; clear it so
            // quiescence and activity stay meaningful (the legacy
            // anti-entropy drivers did exactly this after injecting).
            self.replicas[site].hot_mut().remove(&key);
        }
        if let Some(mail) = &mut self.mail {
            self.direct
                .broadcast(&self.replicas[site], &self.everyone, &key, mail, rng);
        }
        let mut have = vec![false; self.site_count_internal()];
        have[site] = true;
        self.open.push(OpenKey {
            key,
            injected: cycle,
            have,
            have_count: 1,
        });
        self.live_keys.push(key);
        self.updates += 1;
    }

    fn delete_key(&mut self, site: usize, key: u32, retention: u32) {
        let n = self.site_count_internal();
        let retention_sites: Vec<SiteId> = (0..retention as usize)
            .map(|t| self.everyone[(site + 1 + t) % n])
            .collect();
        self.replicas[site].client_delete_with_retention(&key, retention_sites);
        if self.rumor.is_none() && self.peel.is_none() {
            self.replicas[site].hot_mut().remove(&key);
        }
        self.live_keys.retain(|&k| k != key);
        self.open.retain(|k| k.key != key);
        if !self.deleted_keys.contains(&key) {
            self.deleted_keys.push(key);
        }
        self.deletes += 1;
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
        let n = self.site_count_internal();
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
                let key = self.injector.alloc_key();
                self.inject_update(cycle, site, key, rng);
            } else if roll < mix.update + mix.delete {
                if self.live_keys.is_empty() {
                    continue;
                }
                let idx = rng.random_range(0..self.live_keys.len());
                let key = self.live_keys[idx];
                self.delete_key(site, key, self.workload.retention);
            } else {
                self.reads += 1;
                let minted = self.injector.injected();
                if minted == 0 {
                    self.read_misses += 1;
                    continue;
                }
                let key = rng.random_range(0..minted);
                if self.replicas[site].db().get(&key).is_none() {
                    self.read_misses += 1;
                }
            }
        }
    }

    /// Whether the contact `i → j` is severed this cycle (partition cut
    /// first — no RNG — then one loss draw).
    fn contact_blocked(&mut self, i: usize, j: usize, rng: &mut StdRng) -> bool {
        if self.partitioned && self.group[i] != self.group[j] {
            return true;
        }
        self.loss > 0.0 && rng.random::<f64>() < self.loss
    }

    /// Refreshes coverage flags for sites `i` and `j` after a contact and
    /// closes any key that now covers every site.
    fn mark_pair(&mut self, cycle: u32, i: usize, j: usize) {
        let n = self.site_count_internal();
        let mut idx = 0;
        while idx < self.open.len() {
            let key = self.open[idx].key;
            for site in [i, j] {
                if !self.open[idx].have[site] && self.replicas[site].db().entry(&key).is_some() {
                    self.open[idx].have[site] = true;
                    self.open[idx].have_count += 1;
                }
            }
            if self.open[idx].have_count == n {
                let done = self.open.swap_remove(idx);
                self.delay.push(f64::from(cycle - done.injected));
                self.closed += 1;
            } else {
                idx += 1;
            }
        }
    }

    /// Full coverage rescan for one site (used after mail delivery, which
    /// can inform a site without any engine contact).
    fn mark_site(&mut self, cycle: u32, site: usize) {
        self.mark_pair(cycle, site, site);
    }

    fn workload_done(&self) -> bool {
        self.workload.rate <= 0.0
            || self
                .workload
                .budget
                .is_some_and(|budget| self.ops_done >= budget)
    }

    fn databases_equal(&self) -> bool {
        let first = self.replicas[0].db();
        self.replicas.iter().skip(1).all(|r| r.db() == first)
    }

    fn all_cancelled(&self) -> bool {
        self.deleted_keys
            .iter()
            .all(|key| self.replicas.iter().all(|r| r.db().get(key).is_none()))
    }

    fn residue(&self) -> f64 {
        let n = self.site_count_internal();
        let total_keys = self.closed + self.open.len() as u64;
        if total_keys == 0 {
            return 0.0;
        }
        let missing: u64 = self.open.iter().map(|k| (n - k.have_count) as u64).sum();
        missing as f64 / (n as u64 * total_keys) as f64
    }

    fn into_report(self, spec: &Scenario, report: crate::engine::EngineReport) -> ScenarioReport {
        let n = self.site_count_internal();
        let finished_early = report.cycles < spec.max_cycles;
        let cancelled = !self.deleted_keys.is_empty() && self.all_cancelled();
        ScenarioReport {
            name: spec.name.clone(),
            cycles: report.cycles,
            totals: report.totals,
            converged_at: finished_early.then_some(report.cycles),
            residue: self.residue(),
            traffic_per_site: report.totals.sent as f64 / n as f64,
            delay: self.delay,
            updates: self.updates,
            deletes: self.deletes,
            reads: self.reads,
            read_misses: self.read_misses,
            blocked_contacts: self.blocked_contacts,
            down_fraction: if report.cycles == 0 {
                0.0
            } else {
                self.down_site_cycles as f64 / (f64::from(report.cycles) * n as f64)
            },
            awakened: self.awakened,
            ae_sent: self.ae_sent,
            rumor_sent: self.rumor_sent,
            mail: self.mail.as_ref().map(MailSystem::stats),
            certs_after_gc: self.certs_after_gc,
            cancelled,
            milestones: self.milestones,
        }
    }
}

impl EpidemicProtocol for ScenarioProtocol {
    fn site_count(&self) -> usize {
        self.replicas.len()
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
            Phase::AntiEntropy | Phase::Peel => self.up[i],
            Phase::Rumor => self.up[i] && !self.replicas[i].hot().is_empty(),
            Phase::Idle => false,
        }
    }

    fn finished(&self, _cycle: u32, active: &[usize]) -> bool {
        if self.next_event < self.events.len() || !self.workload_done() {
            return false;
        }
        match self.until {
            StopRule::Bound => false,
            StopRule::Quiescent => active.is_empty(),
            StopRule::Coverage => self.open.is_empty(),
            StopRule::Converged => self.open.is_empty() && self.databases_equal(),
            StopRule::Cancelled => !self.deleted_keys.is_empty() && self.all_cancelled(),
        }
    }

    fn begin_cycle(&mut self, cycle: u32, rng: &mut StdRng) {
        // 1. Fault events scheduled for this cycle, in listed order.
        self.apply_due_events(cycle, rng);
        // 2. Churn transitions: exactly one draw per site per cycle while
        //    churn is on (the legacy churn driver's draw discipline).
        if let Some((fail, recover)) = self.churn {
            for status in self.up.iter_mut() {
                if *status {
                    if rng.random::<f64>() < fail {
                        *status = false;
                    }
                } else if rng.random::<f64>() < recover {
                    *status = true;
                }
            }
        }
        self.down_site_cycles += self.up.iter().filter(|&&u| !u).count() as u64;
        // 3. Clocks: up sites track the cycle count (plus GC jumps and any
        //    per-site skew); down sites stay frozen until they recover.
        for i in 0..self.replicas.len() {
            if self.up[i] {
                let time = u64::from(cycle) + self.clock_bump + self.skew[i];
                self.replicas[i].advance_clock(time);
            }
        }
        // 4. Weighted client workload.
        self.run_workload(cycle, rng);
        // 5. Mail delivery to up sites (queued letters survive an outage
        //    until the destination recovers or the queue overflows).
        if self.mail.is_some() {
            self.newly_mailed.clear();
            let direct = self.direct;
            if let Some(mail) = &mut self.mail {
                for i in 0..self.replicas.len() {
                    if !self.up[i] {
                        continue;
                    }
                    if direct.deliver(&mut self.replicas[i], mail) > 0 {
                        self.newly_mailed.push(i);
                    }
                }
            }
            let delivered = std::mem::take(&mut self.newly_mailed);
            for &i in &delivered {
                self.mark_site(cycle, i);
            }
            self.newly_mailed = delivered;
        }
        // 6. Which mechanism runs this cycle.
        self.phase = self.phase_for(cycle);
    }

    fn initiates(&self, i: usize) -> bool {
        self.phase != Phase::Idle && self.up[i]
    }

    fn admits(&self, j: usize) -> bool {
        self.up[j]
    }

    fn contact(&mut self, cycle: u32, i: usize, j: usize, rng: &mut StdRng) -> ContactStats {
        self.contacts += 1;
        if self.contact_blocked(i, j, rng) {
            self.blocked_contacts += 1;
            return ContactStats::default();
        }
        let stats = match self.phase {
            Phase::AntiEntropy => {
                if self.redistribution == Redistribution::None {
                    let (a, b) = pair_mut(&mut self.replicas, i, j);
                    let stats = self.exchange.exchange_with(a, b, &mut self.ae_scratch);
                    self.awakened += stats.awakened as u64;
                    let sent = u64::try_from(stats.total_sent()).unwrap_or(u64::MAX);
                    self.ae_sent += sent;
                    ContactStats { sent, useful: sent }
                } else {
                    let (a, b) = pair_mut(&mut self.replicas, i, j);
                    let outcome = self.backup.exchange(a, b);
                    self.awakened += outcome.stats.awakened as u64;
                    let sent = u64::try_from(outcome.stats.total_sent()).unwrap_or(u64::MAX);
                    self.ae_sent += sent;
                    if let Some(mail) = &mut self.mail {
                        for (key, entry) in outcome.remail {
                            for &to in &self.everyone {
                                mail.post(to, key, entry.clone(), rng);
                            }
                        }
                    }
                    ContactStats { sent, useful: sent }
                }
            }
            Phase::Rumor => {
                let cfg = self.rumor.expect("rumor phase has a config");
                let (initiator, partner) = pair_mut(&mut self.replicas, i, j);
                let stats =
                    rumor::contact_with(&cfg, initiator, partner, rng, &mut self.rumor_scratch);
                self.rumor_sent += u64::try_from(stats.sent).unwrap_or(u64::MAX);
                stats.into()
            }
            Phase::Peel => {
                let peel = self.peel.as_ref().expect("peel phase has a protocol");
                let (a, b) = pair_mut(&mut self.replicas, i, j);
                let (la, lb) = pair_mut(&mut self.lists, i, j);
                let stats = peel.exchange(a, la, b, lb);
                let sent = u64::try_from(stats.total_sent()).unwrap_or(u64::MAX);
                self.rumor_sent += sent;
                ContactStats { sent, useful: sent }
            }
            // `initiates` is false on idle cycles, so this cannot run; keep
            // it total instead of panicking in release builds.
            Phase::Idle => ContactStats::default(),
        };
        self.mark_pair(cycle, i, j);
        self.sent += stats.sent;
        stats
    }

    fn end_cycle(&mut self, _cycle: u32, _rng: &mut StdRng) {
        if let Some(cfg) = self.rumor {
            if cfg.direction == Direction::Pull {
                for site in &mut self.replicas {
                    rumor::end_cycle(&cfg, site);
                }
            }
        }
    }
}

impl SirView for ScenarioProtocol {
    fn sir_counts(&self) -> Sir {
        let n = self.replicas.len();
        let covered = self.covered_count();
        let hot = self.replicas.iter().filter(|r| !r.hot().is_empty()).count();
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
