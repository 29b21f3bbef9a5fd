//! Hand-rolled parser for the `.scenario` text format (the repo has no
//! crates.io access, so this follows the zero-dependency style of
//! `epidemic_trace`'s JSON writer: plain `&str` splitting, explicit
//! errors with line numbers, no parser combinators).
//!
//! The grammar is line-oriented: one directive per line, `#` starts a
//! comment, blank lines are ignored. [`Scenario::render`] emits the
//! canonical form and `parse(render(spec)) == spec` holds for every valid
//! spec (pinned by proptest, including float round-trips via Rust's
//! shortest-representation `Display`).

use super::spec::{
    AntiEntropySpec, FaultEvent, FaultKind, Scenario, SiteSet, SpatialSpec, StopRule, TopologySpec,
    Workload, WorkloadMix,
};
use epidemic_core::rumor::{Feedback, Removal};
use epidemic_core::{Comparison, Direction, MailConfig, Redistribution, RumorConfig};

use crate::engine::protocols::check_rumor;

/// A syntax or consistency error in `.scenario` text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based source line (0 for whole-file errors).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(f, "scenario: {}", self.message)
        } else {
            write!(f, "scenario line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for ParseError {}

/// One directive line split into tokens, consumed left to right.
struct Cursor<'a> {
    line: usize,
    tokens: std::str::SplitWhitespace<'a>,
}

impl<'a> Cursor<'a> {
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line,
            message: message.into(),
        }
    }

    fn next(&mut self, what: &str) -> Result<&'a str, ParseError> {
        self.tokens
            .next()
            .ok_or_else(|| self.err(format!("expected {what}")))
    }

    fn peek_done(&mut self) -> Option<&'a str> {
        self.tokens.next()
    }

    fn parse<T: std::str::FromStr>(&mut self, what: &str) -> Result<T, ParseError> {
        let token = self.next(what)?;
        token
            .parse()
            .map_err(|_| self.err(format!("invalid {what}: {token:?}")))
    }

    fn finish(mut self) -> Result<(), ParseError> {
        match self.peek_done() {
            None => Ok(()),
            Some(extra) => Err(self.err(format!("unexpected trailing token {extra:?}"))),
        }
    }
}

impl Scenario {
    /// Parses `.scenario` text. Syntax errors carry the offending line;
    /// the parsed spec is also [validated](Scenario::validate), so a
    /// successfully parsed scenario is always runnable.
    pub fn parse(text: &str) -> Result<Scenario, ParseError> {
        let mut spec = Scenario::new(String::new(), 2);
        let mut saw_name = false;
        let mut saw_sites = false;
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut cur = Cursor {
                line: idx + 1,
                tokens: line.split_whitespace(),
            };
            let directive = cur.next("a directive")?;
            match directive {
                "scenario" => {
                    spec.name = cur.next("a scenario name")?.to_string();
                    saw_name = true;
                }
                "sites" => {
                    spec.sites = cur.parse("site count")?;
                    saw_sites = true;
                }
                "topology" => spec.topology = parse_topology(&mut cur)?,
                "anti-entropy" => spec.protocol.anti_entropy = Some(parse_anti_entropy(&mut cur)?),
                "rumor" => spec.protocol.rumor = Some(parse_rumor(&mut cur)?),
                "peel-back" => spec.protocol.peel_back = Some(cur.parse("peel-back batch")?),
                "mail" => spec.protocol.mail = Some(parse_mail(&mut cur)?),
                "workload" => spec.workload = parse_workload(&mut cur, spec.workload)?,
                "mix" => spec.workload.mix = parse_mix(&mut cur)?,
                "at" => spec.events.push(parse_event(&mut cur)?),
                "until" => spec.until = parse_until(&mut cur)?,
                "max-cycles" => spec.max_cycles = cur.parse("cycle bound")?,
                "warmup" => spec.warmup = cur.parse("warm-up cycles")?,
                other => return Err(cur.err(format!("unknown directive {other:?}"))),
            }
            cur.finish()?;
        }
        if !saw_name {
            return Err(whole_file("missing `scenario <name>` directive"));
        }
        if !saw_sites {
            return Err(whole_file("missing `sites <n>` directive"));
        }
        spec.validate().map_err(|e| whole_file(e.message))?;
        Ok(spec)
    }
}

fn whole_file(message: impl Into<String>) -> ParseError {
    ParseError {
        line: 0,
        message: message.into(),
    }
}

fn parse_spatial(cur: &mut Cursor<'_>) -> Result<SpatialSpec, ParseError> {
    match cur.next("a spatial kind (uniform|qspower)")? {
        "uniform" => Ok(SpatialSpec::Uniform),
        "qspower" => Ok(SpatialSpec::QsPower {
            a: cur.parse("qspower exponent")?,
        }),
        other => Err(cur.err(format!("unknown spatial kind {other:?}"))),
    }
}

fn parse_topology(cur: &mut Cursor<'_>) -> Result<TopologySpec, ParseError> {
    match cur.next("a topology kind (uniform|grid|ring)")? {
        "uniform" => Ok(TopologySpec::Uniform),
        "grid" => Ok(TopologySpec::Grid {
            rows: cur.parse("grid rows")?,
            cols: cur.parse("grid cols")?,
            spatial: parse_spatial(cur)?,
        }),
        "ring" => Ok(TopologySpec::Ring {
            spatial: parse_spatial(cur)?,
        }),
        other => Err(cur.err(format!("unknown topology {other:?}"))),
    }
}

fn parse_anti_entropy(cur: &mut Cursor<'_>) -> Result<AntiEntropySpec, ParseError> {
    expect_word(cur, "every")?;
    let every = cur.parse("anti-entropy period")?;
    expect_word(cur, "from")?;
    let from = cur.parse("anti-entropy start cycle")?;
    expect_word(cur, "redistribute")?;
    let redistribution = match cur.next("a redistribution (none|rumor|mail)")? {
        "none" => Redistribution::None,
        "rumor" => Redistribution::Rumor,
        "mail" => Redistribution::Mail,
        other => return Err(cur.err(format!("unknown redistribution {other:?}"))),
    };
    let comparison = match cur.peek_done() {
        None => Comparison::Full,
        Some("comparison") => match cur.next("a comparison (full|checksum|recent|peel-back)")? {
            "full" => Comparison::Full,
            "checksum" => Comparison::Checksum,
            "recent" => Comparison::RecentList {
                tau: cur.parse("recent-list window")?,
            },
            "peel-back" => Comparison::PeelBack,
            other => return Err(cur.err(format!("unknown comparison {other:?}"))),
        },
        Some(other) => return Err(cur.err(format!("unknown anti-entropy field {other:?}"))),
    };
    Ok(AntiEntropySpec {
        comparison,
        every,
        from,
        redistribution,
    })
}

fn parse_rumor(cur: &mut Cursor<'_>) -> Result<RumorConfig, ParseError> {
    let direction = match cur.next("a direction (push|pull|push-pull)")? {
        "push" => Direction::Push,
        "pull" => Direction::Pull,
        "push-pull" => Direction::PushPull,
        other => return Err(cur.err(format!("unknown direction {other:?}"))),
    };
    let feedback = match cur.next("feedback|blind")? {
        "feedback" => Feedback::Feedback,
        "blind" => Feedback::Blind,
        other => return Err(cur.err(format!("unknown feedback mode {other:?}"))),
    };
    let removal_kind = cur.next("counter|coin")?.to_string();
    let k = cur.parse("removal threshold k")?;
    let removal = match removal_kind.as_str() {
        "counter" => Removal::Counter { k },
        "coin" => Removal::Coin { k },
        other => return Err(cur.err(format!("unknown removal rule {other:?}"))),
    };
    // A line means what `RumorConfig::new` means (pull resets its
    // counters); the flags override that default by presence.
    let mut cfg = RumorConfig::new(direction, feedback, removal);
    while let Some(flag) = cur.peek_done() {
        match flag {
            "reset" => cfg.reset_on_useful = true,
            "no-reset" => cfg.reset_on_useful = false,
            "minimize" => cfg.minimization = true,
            other => return Err(cur.err(format!("unknown rumor flag {other:?}"))),
        }
    }
    check_rumor(&cfg).map_err(|refusal| cur.err(refusal))?;
    Ok(cfg)
}

fn parse_mail(cur: &mut Cursor<'_>) -> Result<MailConfig, ParseError> {
    expect_word(cur, "loss")?;
    let loss_probability = cur.parse("mail loss probability")?;
    expect_word(cur, "capacity")?;
    let queue_capacity = cur.parse("mail queue capacity")?;
    Ok(MailConfig {
        loss_probability,
        queue_capacity,
    })
}

fn parse_workload(cur: &mut Cursor<'_>, base: Workload) -> Result<Workload, ParseError> {
    expect_word(cur, "rate")?;
    let mut workload = Workload {
        rate: cur.parse("workload rate")?,
        ..base
    };
    while let Some(field) = cur.peek_done() {
        match field {
            "budget" => workload.budget = Some(cur.parse("workload budget")?),
            "retention" => workload.retention = cur.parse("workload retention")?,
            other => return Err(cur.err(format!("unknown workload field {other:?}"))),
        }
    }
    Ok(workload)
}

fn parse_mix(cur: &mut Cursor<'_>) -> Result<WorkloadMix, ParseError> {
    expect_word(cur, "update")?;
    let update = cur.parse("update weight")?;
    expect_word(cur, "delete")?;
    let delete = cur.parse("delete weight")?;
    expect_word(cur, "read")?;
    let read = cur.parse("read weight")?;
    Ok(WorkloadMix {
        update,
        delete,
        read,
    })
}

fn parse_site_set(cur: &mut Cursor<'_>) -> Result<SiteSet, ParseError> {
    match cur.next("a site set (site|span|last|fraction|all)")? {
        "site" => Ok(SiteSet::Site(cur.parse("site index")?)),
        "span" => Ok(SiteSet::Span {
            from: cur.parse("span start")?,
            count: cur.parse("span count")?,
        }),
        "last" => Ok(SiteSet::Last(cur.parse("last count")?)),
        "fraction" => Ok(SiteSet::Fraction(cur.parse("fraction")?)),
        "all" => Ok(SiteSet::All),
        other => Err(cur.err(format!("unknown site set {other:?}"))),
    }
}

fn parse_event(cur: &mut Cursor<'_>) -> Result<FaultEvent, ParseError> {
    let cycle = cur.parse("event cycle")?;
    let kind = match cur.next("an event kind")? {
        "update" => {
            let mut site = None;
            let mut count = 1;
            while let Some(field) = cur.peek_done() {
                match field {
                    "site" => site = Some(cur.parse("update site")?),
                    "count" => count = cur.parse("update count")?,
                    other => return Err(cur.err(format!("unknown update field {other:?}"))),
                }
            }
            FaultKind::Update { site, count }
        }
        "delete" => {
            expect_word(cur, "site")?;
            let site = cur.parse("delete site")?;
            expect_word(cur, "key")?;
            let key = cur.parse("delete key")?;
            expect_word(cur, "retention")?;
            let retention = cur.parse("delete retention")?;
            FaultKind::Delete {
                site,
                key,
                retention,
            }
        }
        "crash" => FaultKind::Crash(parse_site_set(cur)?),
        "recover" => FaultKind::Recover(parse_site_set(cur)?),
        "churn" => FaultKind::Churn {
            fail: cur.parse("churn fail probability")?,
            recover: cur.parse("churn recover probability")?,
        },
        "churn-stop" => FaultKind::ChurnStop,
        "partition" => FaultKind::Partition(cur.parse("partition groups")?),
        "heal" => FaultKind::Heal,
        "loss" => FaultKind::Loss(cur.parse("loss probability")?),
        "loss-end" => FaultKind::LossEnd,
        "gc" => FaultKind::Gc {
            tau1: cur.parse("gc tau1")?,
            tau2: cur.parse("gc tau2")?,
        },
        "skew" => {
            expect_word(cur, "site")?;
            let site = cur.parse("skew site")?;
            expect_word(cur, "offset")?;
            let offset = cur.parse("skew offset")?;
            FaultKind::Skew { site, offset }
        }
        other => return Err(cur.err(format!("unknown event kind {other:?}"))),
    };
    Ok(FaultEvent { cycle, kind })
}

fn parse_until(cur: &mut Cursor<'_>) -> Result<StopRule, ParseError> {
    match cur.next("a stop rule")? {
        "converged" => Ok(StopRule::Converged),
        "coverage" => Ok(StopRule::Coverage),
        "quiescent" => Ok(StopRule::Quiescent),
        "cancelled" => Ok(StopRule::Cancelled),
        "bound" => Ok(StopRule::Bound),
        other => Err(cur.err(format!("unknown stop rule {other:?}"))),
    }
}

fn expect_word(cur: &mut Cursor<'_>, word: &str) -> Result<(), ParseError> {
    let token = cur.next(&format!("`{word}`"))?;
    if token == word {
        Ok(())
    } else {
        Err(cur.err(format!("expected `{word}`, found {token:?}")))
    }
}
