//! The declarative scenario specification: what to simulate, which
//! faults to inject when, and what workload to apply.
//!
//! A [`Scenario`] is pure data — site count, topology, protocol
//! composition, a weighted workload mix and a timeline of
//! [`FaultEvent`]s — and the simulated outcome is a pure function of
//! `(spec, seed)`. Specs render to a line-oriented text format
//! ([`Scenario::render`]) and parse back ([`Scenario::parse`]); the
//! grammar is documented in DESIGN.md §Scenario subsystem and
//! round-tripping (`parse(render(spec)) == spec`) is pinned by proptest.

use epidemic_core::{Comparison, MailConfig, Redistribution, RumorConfig};

use crate::engine::protocols::check_rumor;

/// Partner-distance bias for spatial topologies, mirroring
/// [`epidemic_net::Spatial`] (which is not `PartialEq`-comparable across
/// the net crate's cache state, hence this plain mirror type).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpatialSpec {
    /// Uniform partner selection over the topology's sites.
    Uniform,
    /// Distance-biased selection `Q(s) ∝ 1/d^a` (§3's `QsPower`).
    QsPower {
        /// The distance exponent `a`.
        a: f64,
    },
}

impl SpatialSpec {
    /// The equivalent [`epidemic_net::Spatial`] selection.
    pub(crate) fn to_net(self) -> epidemic_net::Spatial {
        match self {
            SpatialSpec::Uniform => epidemic_net::Spatial::Uniform,
            SpatialSpec::QsPower { a } => epidemic_net::Spatial::QsPower { a },
        }
    }
}

/// Where the sites live and how partners are drawn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TopologySpec {
    /// Complete mixing: any site may contact any other uniformly.
    Uniform,
    /// A `rows × cols` grid (`rows * cols` must equal the site count).
    Grid {
        /// Grid rows.
        rows: usize,
        /// Grid columns.
        cols: usize,
        /// Partner-distance bias.
        spatial: SpatialSpec,
    },
    /// A ring of `sites` sites.
    Ring {
        /// Partner-distance bias.
        spatial: SpatialSpec,
    },
}

/// Periodic anti-entropy backup configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AntiEntropySpec {
    /// How the two databases are compared (§1.3). A recent-list window
    /// `τ` is in cycles, like every duration of a spec. Backup
    /// redistribution always compares full databases.
    pub comparison: Comparison,
    /// Run anti-entropy on cycles divisible by `every` (1 = every cycle).
    pub every: u32,
    /// First cycle at which anti-entropy may run (0 = from the start) —
    /// §1.5's "backup arrives later" staging.
    pub from: u32,
    /// What to do with rediscovered updates (§1.5).
    pub redistribution: Redistribution,
}

impl AntiEntropySpec {
    /// Push-pull anti-entropy every cycle from the start under
    /// `comparison`, with no redistribution: the steady-state figures'
    /// protocol.
    pub fn every_cycle(comparison: Comparison) -> Self {
        AntiEntropySpec {
            comparison,
            every: 1,
            from: 0,
            redistribution: Redistribution::None,
        }
    }
}

/// The protocol composition a scenario runs: any subset of periodic
/// anti-entropy, rumor mongering, peel-back (activity-list) exchanges and
/// an unreliable direct-mail transport for initial distribution.
///
/// Per cycle at most one contact mechanism runs: anti-entropy on its
/// scheduled cycles, otherwise rumor mongering (if configured), otherwise
/// peel-back (if configured). Mail delivery happens at the start of every
/// cycle regardless. `rumor` and `peel_back` are mutually exclusive.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ProtocolSpec {
    /// Periodic push-pull full-database anti-entropy.
    pub anti_entropy: Option<AntiEntropySpec>,
    /// Per-cycle rumor mongering for hot updates.
    pub rumor: Option<RumorConfig>,
    /// Peel-back rumor with activity lists (§1.5's partition-friendly
    /// variant); the value is the batch size.
    pub peel_back: Option<usize>,
    /// Unreliable direct mail: injected updates are broadcast to every
    /// site, queued letters are delivered (to up sites) each cycle.
    pub mail: Option<MailConfig>,
}

/// Relative weights of the client operations in the workload mix.
/// Probabilities are `weight / sum(weights)` — weights need not sum to
/// any particular total (the rust_loadtest MULTI_SCENARIO convention).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadMix {
    /// Weight of `update` operations (new key, random site).
    pub update: u32,
    /// Weight of `delete` operations (random live key, death certificate
    /// with retention sites).
    pub delete: u32,
    /// Weight of `read` operations (random key, random site; misses are
    /// counted).
    pub read: u32,
}

impl WorkloadMix {
    /// Total weight (the probability denominator).
    pub(crate) fn total(&self) -> u32 {
        self.update + self.delete + self.read
    }
}

/// Continuous client workload: `rate` operations per cycle on average
/// (fractional rates carry over), drawn from the weighted mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Mean operations injected per cycle (0 disables the workload).
    pub rate: f64,
    /// Total operation budget (`None` = unlimited: the run then ends only
    /// at the cycle bound).
    pub budget: Option<u64>,
    /// Retention sites attached to each workload delete's certificate.
    pub retention: u32,
    /// The weighted operation mix.
    pub mix: WorkloadMix,
}

impl Default for Workload {
    fn default() -> Self {
        Workload {
            rate: 0.0,
            budget: None,
            retention: 1,
            mix: WorkloadMix {
                update: 1,
                delete: 0,
                read: 0,
            },
        }
    }
}

/// A deterministic selection of sites for crash/recover events.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SiteSet {
    /// One site by dense index.
    Site(usize),
    /// `count` consecutive sites starting at `from`.
    Span {
        /// First site index.
        from: usize,
        /// Number of sites.
        count: usize,
    },
    /// The last `count` sites.
    Last(usize),
    /// Sites `1..=min(floor(n * fraction), n - 1)` — never site 0, which
    /// scenarios conventionally use as the injection origin.
    Fraction(f64),
    /// Every site.
    All,
}

/// One scheduled fault or injection on the scenario timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// The cycle at whose start the event fires (0 = before the run).
    pub cycle: u32,
    /// What happens.
    pub kind: FaultKind,
}

/// The fault/injection vocabulary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Inject `count` client updates (a flash crowd when `count > 1`) at
    /// an explicit site, or at uniformly random sites when `site` is
    /// `None`. Keys are allocated sequentially from the shared injector.
    Update {
        /// Explicit site, or `None` for a random site per update.
        site: Option<usize>,
        /// Number of updates injected this cycle.
        count: u32,
    },
    /// Delete `key` at `site` with a death certificate carrying
    /// `retention` retention sites (the sites after `site` in index
    /// order).
    Delete {
        /// Deleting site.
        site: usize,
        /// Key to delete.
        key: u32,
        /// Number of retention sites (§2.3).
        retention: u32,
    },
    /// Take sites down (state intact; they neither initiate nor admit).
    Crash(SiteSet),
    /// Bring sites back up.
    Recover(SiteSet),
    /// Start per-cycle up/down churn with the given transition
    /// probabilities (the §2 hours-to-days downtime model).
    Churn {
        /// P(up site goes down) per cycle.
        fail: f64,
        /// P(down site comes back) per cycle.
        recover: f64,
    },
    /// Stop churn (sites keep their current up/down state).
    ChurnStop,
    /// Split the sites into `groups` contiguous equal partitions; contacts
    /// across a cut fail (after paying their partner draw).
    Partition(usize),
    /// Remove the partition.
    Heal,
    /// Drop each contact with the given probability (lossy links; the
    /// failed contact still pays its partner draw and one loss draw).
    Loss(f64),
    /// Remove link loss.
    LossEnd,
    /// Advance every up site's clock past `τ₁` and garbage-collect death
    /// certificates with the dormant policy (§2.1).
    Gc {
        /// Active retention window `τ₁` in cycles.
        tau1: u64,
        /// Dormant retention window `τ₂` in cycles.
        tau2: u64,
    },
    /// Run `site`'s clock `offset` cycles ahead of the cycle counter.
    Skew {
        /// The skewed site.
        site: usize,
        /// Clock offset in cycles.
        offset: u64,
    },
}

impl FaultKind {
    /// A stable label for milestones and reports.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            FaultKind::Update { .. } => "update",
            FaultKind::Delete { .. } => "delete",
            FaultKind::Crash(_) => "crash",
            FaultKind::Recover(_) => "recover",
            FaultKind::Churn { .. } => "churn",
            FaultKind::ChurnStop => "churn-stop",
            FaultKind::Partition(_) => "partition",
            FaultKind::Heal => "heal",
            FaultKind::Loss(_) => "loss",
            FaultKind::LossEnd => "loss-end",
            FaultKind::Gc { .. } => "gc",
            FaultKind::Skew { .. } => "skew",
        }
    }
}

/// When a scenario run stops (always bounded by
/// [`Scenario::max_cycles`]; every rule additionally waits until the
/// event timeline is exhausted and the workload budget is spent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopRule {
    /// Every injected live key reached every site and all databases are
    /// identical.
    Converged,
    /// Every injected live key reached every site.
    Coverage,
    /// No site holds a hot rumor.
    Quiescent,
    /// Every deleted key's live copy is gone from every site.
    Cancelled,
    /// Run to the cycle bound.
    Bound,
}

/// A complete declarative scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name (used for report labels and artifact files).
    pub name: String,
    /// Number of sites.
    pub sites: usize,
    /// Topology and partner selection.
    pub topology: TopologySpec,
    /// Protocol composition.
    pub protocol: ProtocolSpec,
    /// Continuous weighted workload.
    pub workload: Workload,
    /// Fault/injection timeline (kept in listed order; events fire at the
    /// start of their cycle, cycle-0 events before the run).
    pub events: Vec<FaultEvent>,
    /// Stop rule.
    pub until: StopRule,
    /// Safety bound on simulated cycles.
    pub max_cycles: u32,
    /// Cycles run before measurement starts: the report's contact totals
    /// and exchange counts cover only the cycles after them.
    pub warmup: u32,
}

/// A spec-validation failure (see [`Scenario::validate`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// Human-readable description of the inconsistency.
    pub message: String,
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid scenario: {}", self.message)
    }
}

impl std::error::Error for SpecError {}

/// Clock ticks a site's clock advances per cycle. Spec durations are in
/// cycles; the engine converts them.
pub(crate) const TICKS_PER_CYCLE: u64 = 10;

fn err(message: impl Into<String>) -> SpecError {
    SpecError {
        message: message.into(),
    }
}

fn check_prob(value: f64, what: &str) -> Result<(), SpecError> {
    if (0.0..=1.0).contains(&value) {
        Ok(())
    } else {
        Err(err(format!("{what} must be a probability in [0, 1]")))
    }
}

impl Scenario {
    /// A minimal scenario skeleton: `sites` sites under complete mixing,
    /// no protocol, no workload, no events, run to the cycle bound.
    pub fn new(name: impl Into<String>, sites: usize) -> Self {
        Scenario {
            name: name.into(),
            sites,
            topology: TopologySpec::Uniform,
            protocol: ProtocolSpec::default(),
            workload: Workload::default(),
            events: Vec::new(),
            until: StopRule::Bound,
            max_cycles: 1_000,
            warmup: 0,
        }
    }

    /// Checks internal consistency; [`super::ScenarioEngine::new`] calls
    /// this, so an engine can only be built around a coherent spec.
    pub fn validate(&self) -> Result<(), SpecError> {
        let n = self.sites;
        if n < 2 {
            return Err(err("sites must be at least 2"));
        }
        if self.name.is_empty() || !self.name.bytes().all(|b| b.is_ascii_graphic()) {
            return Err(err("name must be non-empty printable ASCII without spaces"));
        }
        if let TopologySpec::Grid { rows, cols, .. } = self.topology {
            if rows.checked_mul(cols) != Some(n) {
                return Err(err(format!("grid {rows}x{cols} does not cover {n} sites")));
            }
        }
        if self.protocol.rumor.is_some() && self.protocol.peel_back.is_some() {
            return Err(err("rumor and peel-back are mutually exclusive"));
        }
        if self.protocol.peel_back == Some(0) {
            return Err(err("peel-back batch must be positive"));
        }
        if let Some(rumor) = &self.protocol.rumor {
            check_rumor(rumor).map_err(err)?;
        }
        if let Some(ae) = &self.protocol.anti_entropy {
            if ae.every == 0 {
                return Err(err(
                    "anti-entropy every must be positive (omit the line instead)",
                ));
            }
            if ae.redistribution == Redistribution::Mail && self.protocol.mail.is_none() {
                return Err(err("redistribute mail requires a mail transport"));
            }
            if ae.redistribution != Redistribution::None && ae.comparison != Comparison::Full {
                return Err(err("backup redistribution compares full databases"));
            }
        }
        if self.warmup > self.max_cycles {
            return Err(err("warmup must not exceed max-cycles"));
        }
        if let Some(mail) = &self.protocol.mail {
            check_prob(mail.loss_probability, "mail loss")?;
        }
        // A cycle's operations are counted in a `u32`.
        if !(0.0..=f64::from(u32::MAX)).contains(&self.workload.rate) {
            return Err(err(
                "workload rate must lie in [0, 4294967295] operations a cycle",
            ));
        }
        if self.workload.rate > 0.0 && self.workload.mix.total() == 0 {
            return Err(err("a positive workload rate needs a non-empty mix"));
        }
        if self.workload.retention as usize >= n {
            return Err(err("workload retention must be below the site count"));
        }
        // Every update mints a `u32` key.
        if self.max_keys() > f64::from(u32::MAX) {
            return Err(err(
                "operations could exhaust the u32 key space: the workload budget \
                 (or rate × max-cycles) plus the update events' counts must stay \
                 within 4294967295",
            ));
        }
        if self.until == StopRule::Quiescent && self.protocol.rumor.is_none() {
            return Err(err("until quiescent requires a rumor protocol"));
        }
        if self.until == StopRule::Cancelled && !self.deletes() {
            return Err(err("until cancelled requires a delete somewhere"));
        }
        for event in &self.events {
            self.validate_event(event)?;
        }
        // A site's clock reads ticks-per-cycle × (cycle + Σ(τ₁ + 1) over
        // the gc events fired so far + its skew), and must stay within u64.
        let bumped = self
            .events
            .iter()
            .try_fold(u64::from(self.max_cycles), |clock, e| match e.kind {
                FaultKind::Gc { tau1, .. } => {
                    tau1.checked_add(1).and_then(|b| clock.checked_add(b))
                }
                _ => Some(clock),
            });
        let skew = self.events.iter().filter_map(|e| match e.kind {
            FaultKind::Skew { offset, .. } => Some(offset),
            _ => None,
        });
        if bumped
            .and_then(|clock| clock.checked_add(skew.max().unwrap_or(0)))
            .and_then(|clock| clock.checked_mul(TICKS_PER_CYCLE))
            .is_none()
        {
            return Err(err(
                "site clocks overflow u64: 10 × (max-cycles + each gc's tau1 + 1 + the largest skew)",
            ));
        }
        Ok(())
    }

    /// Whether the mix or the timeline deletes; if not, every key is
    /// written once.
    pub(crate) fn deletes(&self) -> bool {
        let event = |e: &FaultEvent| matches!(e.kind, FaultKind::Delete { .. });
        self.workload.mix.delete > 0 || self.events.iter().any(event)
    }

    /// The most keys a run can mint: the workload runs once a cycle, so it
    /// performs at most rate × max-cycles operations (fewer under a
    /// budget), and each update event fires once.
    pub(crate) fn max_keys(&self) -> f64 {
        let workload = (self.workload.rate * f64::from(self.max_cycles)).ceil();
        let workload = self
            .workload
            .budget
            .map_or(workload, |b| workload.min(b as f64));
        let events = self.events.iter().map(|e| match e.kind {
            FaultKind::Update { count, .. } => f64::from(count),
            _ => 0.0,
        });
        workload + events.sum::<f64>()
    }

    /// Rows each store is sized for before a run: the keys a budget of
    /// updates alone mints, up to 2¹⁸ rows across the sites; else 0 (the
    /// run may hold far fewer keys than it could mint: stores grow).
    pub(crate) fn store_keys(&self) -> usize {
        let mix = self.workload.mix;
        if self.workload.budget.is_none() || mix.delete + mix.read > 0 {
            return 0;
        }
        (self.max_keys() as usize).min((1 << 18) / self.sites)
    }

    fn validate_event(&self, event: &FaultEvent) -> Result<(), SpecError> {
        let n = self.sites;
        let site_ok = |site: usize, what: &str| {
            if site < n {
                Ok(())
            } else {
                Err(err(format!("{what} site {site} out of range (n = {n})")))
            }
        };
        match &event.kind {
            FaultKind::Update { site, count } => {
                if *count == 0 {
                    return Err(err("update count must be positive"));
                }
                if let Some(site) = site {
                    site_ok(*site, "update")?;
                }
            }
            FaultKind::Delete {
                site, retention, ..
            } => {
                site_ok(*site, "delete")?;
                if *retention as usize >= n {
                    return Err(err("delete retention must be below the site count"));
                }
            }
            FaultKind::Crash(set) | FaultKind::Recover(set) => match set {
                SiteSet::Site(i) => site_ok(*i, "crash/recover")?,
                SiteSet::Span { from, count } => {
                    if from.checked_add(*count).is_none_or(|end| end > n) {
                        return Err(err("crash/recover span out of range"));
                    }
                }
                SiteSet::Last(count) => {
                    if *count > n {
                        return Err(err("crash/recover last out of range"));
                    }
                }
                SiteSet::Fraction(f) => check_prob(*f, "crash/recover fraction")?,
                SiteSet::All => {}
            },
            FaultKind::Churn { fail, recover } => {
                check_prob(*fail, "churn fail")?;
                check_prob(*recover, "churn recover")?;
            }
            FaultKind::Partition(groups) => {
                if *groups < 2 || *groups > n {
                    return Err(err("partition groups must be in 2..=sites"));
                }
            }
            FaultKind::Loss(p) => check_prob(*p, "loss")?,
            FaultKind::Skew { site, .. } => site_ok(*site, "skew")?,
            FaultKind::ChurnStop | FaultKind::Heal | FaultKind::LossEnd | FaultKind::Gc { .. } => {}
        }
        Ok(())
    }

    /// Renders the spec in the `.scenario` text format. The output parses
    /// back to an equal spec ([`Scenario::parse`]); bundled scenario files
    /// are exactly this rendering.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "scenario {}", self.name);
        let _ = writeln!(out, "sites {}", self.sites);
        match self.topology {
            TopologySpec::Uniform => out.push_str("topology uniform\n"),
            TopologySpec::Grid {
                rows,
                cols,
                spatial,
            } => {
                let _ = writeln!(
                    out,
                    "topology grid {rows} {cols} {}",
                    render_spatial(spatial)
                );
            }
            TopologySpec::Ring { spatial } => {
                let _ = writeln!(out, "topology ring {}", render_spatial(spatial));
            }
        }
        if let Some(ae) = &self.protocol.anti_entropy {
            let redistribute = match ae.redistribution {
                Redistribution::None => "none",
                Redistribution::Rumor => "rumor",
                Redistribution::Mail => "mail",
            };
            let _ = write!(
                out,
                "anti-entropy every {} from {} redistribute {redistribute}",
                ae.every, ae.from
            );
            match ae.comparison {
                Comparison::Full => out.push('\n'),
                Comparison::Checksum => out.push_str(" comparison checksum\n"),
                Comparison::RecentList { tau } => {
                    let _ = writeln!(out, " comparison recent {tau}");
                }
                Comparison::PeelBack => out.push_str(" comparison peel-back\n"),
            }
        }
        if let Some(rumor) = &self.protocol.rumor {
            out.push_str(&render_rumor(rumor));
        }
        if let Some(batch) = self.protocol.peel_back {
            let _ = writeln!(out, "peel-back {batch}");
        }
        if let Some(mail) = &self.protocol.mail {
            let _ = writeln!(
                out,
                "mail loss {} capacity {}",
                mail.loss_probability, mail.queue_capacity
            );
        }
        let w = &self.workload;
        let _ = write!(out, "workload rate {}", w.rate);
        if let Some(budget) = w.budget {
            let _ = write!(out, " budget {budget}");
        }
        let _ = writeln!(out, " retention {}", w.retention);
        let _ = writeln!(
            out,
            "mix update {} delete {} read {}",
            w.mix.update, w.mix.delete, w.mix.read
        );
        for event in &self.events {
            out.push_str(&render_event(event));
        }
        let until = match self.until {
            StopRule::Converged => "converged",
            StopRule::Coverage => "coverage",
            StopRule::Quiescent => "quiescent",
            StopRule::Cancelled => "cancelled",
            StopRule::Bound => "bound",
        };
        let _ = writeln!(out, "until {until}");
        let _ = writeln!(out, "max-cycles {}", self.max_cycles);
        if self.warmup > 0 {
            let _ = writeln!(out, "warmup {}", self.warmup);
        }
        out
    }
}

fn render_spatial(spatial: SpatialSpec) -> String {
    match spatial {
        SpatialSpec::Uniform => "uniform".to_string(),
        SpatialSpec::QsPower { a } => format!("qspower {a}"),
    }
}

fn render_rumor(cfg: &RumorConfig) -> String {
    use epidemic_core::rumor::{Feedback, Removal};
    use epidemic_core::Direction;
    let direction = match cfg.direction {
        Direction::Push => "push",
        Direction::Pull => "pull",
        Direction::PushPull => "push-pull",
    };
    let feedback = match cfg.feedback {
        Feedback::Feedback => "feedback",
        Feedback::Blind => "blind",
    };
    let (removal, k) = match cfg.removal {
        Removal::Counter { k } => ("counter", k),
        Removal::Coin { k } => ("coin", k),
    };
    let mut line = format!("rumor {direction} {feedback} {removal} {k}");
    if cfg.reset_on_useful
        != RumorConfig::new(cfg.direction, cfg.feedback, cfg.removal).reset_on_useful
    {
        line.push_str(if cfg.reset_on_useful {
            " reset"
        } else {
            " no-reset"
        });
    }
    if cfg.minimization {
        line.push_str(" minimize");
    }
    line.push('\n');
    line
}

fn render_site_set(set: &SiteSet) -> String {
    match set {
        SiteSet::Site(i) => format!("site {i}"),
        SiteSet::Span { from, count } => format!("span {from} {count}"),
        SiteSet::Last(count) => format!("last {count}"),
        SiteSet::Fraction(f) => format!("fraction {f}"),
        SiteSet::All => "all".to_string(),
    }
}

fn render_event(event: &FaultEvent) -> String {
    let cycle = event.cycle;
    let body = match &event.kind {
        FaultKind::Update { site, count } => match site {
            Some(site) => format!("update site {site} count {count}"),
            None => format!("update count {count}"),
        },
        FaultKind::Delete {
            site,
            key,
            retention,
        } => format!("delete site {site} key {key} retention {retention}"),
        FaultKind::Crash(set) => format!("crash {}", render_site_set(set)),
        FaultKind::Recover(set) => format!("recover {}", render_site_set(set)),
        FaultKind::Churn { fail, recover } => format!("churn {fail} {recover}"),
        FaultKind::ChurnStop => "churn-stop".to_string(),
        FaultKind::Partition(groups) => format!("partition {groups}"),
        FaultKind::Heal => "heal".to_string(),
        FaultKind::Loss(p) => format!("loss {p}"),
        FaultKind::LossEnd => "loss-end".to_string(),
        FaultKind::Gc { tau1, tau2 } => format!("gc {tau1} {tau2}"),
        FaultKind::Skew { site, offset } => format!("skew site {site} offset {offset}"),
    };
    format!("at {cycle} {body}\n")
}
