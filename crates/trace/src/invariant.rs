//! Runtime checking of epidemic-protocol invariants.
//!
//! [`InvariantChecker`] consumes the same event stream a tracer does
//! (run start, contacts, cycle snapshots, run end) and verifies the
//! structural properties every protocol in the paper must uphold. A
//! violated invariant is *reported*, never panicked on: simulations keep
//! running and the caller inspects [`InvariantChecker::violations`]
//! afterwards, so a single bad cycle in trial 400 of 1000 produces a
//! diagnosable record instead of a dead run.
//!
//! Checked invariants:
//!
//! 1. **Conservation** — `s + i + r` equals the site count `n` fixed at
//!    run start (no site appears or vanishes).
//! 2. **Monotone susceptible** — `s` never increases (a site that has
//!    heard an update cannot unhear it).
//! 3. **Monotone removed** — `r` never decreases (removal is permanent in
//!    every variant of §1.4's rumor mongering).
//! 4. **Infection needs traffic** — the per-cycle drop in `s` is at most
//!    the useful units delivered that cycle (nobody learns the update
//!    without a transmission carrying it).
//! 5. **Useful ≤ sent** — per contact, a recipient cannot apply more
//!    units than were sent.
//! 6. **Totals consistency** — contact-by-contact accumulation matches
//!    the engine's aggregate report (`contacts`/`sent`/`useful`/
//!    `fruitless`).
//! 7. **Coverage ⇒ convergence** — once `s == 0` every site's database
//!    digest must be identical: with no susceptible sites left, full
//!    coverage means replica agreement (the paper's consistency goal).

use crate::json::JsonObject;
use crate::record::TraceTotals;
use crate::Sir;

/// Cap on stored violations; beyond it only the count grows.
const MAX_STORED: usize = 100;

/// One detected invariant violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Cycle during which the violation was detected (`0` = run start /
    /// final report).
    pub cycle: u64,
    /// Stable machine-readable rule name (e.g. `"conservation"`).
    pub rule: &'static str,
    /// Human-readable specifics.
    pub detail: String,
}

impl Violation {
    /// Serializes the violation as one JSON object.
    pub(crate) fn to_json(&self) -> String {
        let mut obj = JsonObject::new();
        obj.field_str("event", "violation")
            .field_u64("cycle", self.cycle)
            .field_str("rule", self.rule)
            .field_str("detail", &self.detail);
        obj.finish()
    }
}

/// Streaming invariant checker; see the [module docs](self) for the rule
/// set.
#[derive(Debug, Clone, Default)]
pub struct InvariantChecker {
    n: Option<u64>,
    prev: Option<Sir>,
    cycle_useful: u64,
    acc: TraceTotals,
    violations: Vec<Violation>,
    /// Total violations detected, including ones dropped past the
    /// storage cap.
    detected: u64,
    /// Per-site digests of the current cycle, refilled only at full
    /// coverage.
    digests: Vec<u64>,
}

impl InvariantChecker {
    fn report(&mut self, cycle: u64, rule: &'static str, detail: String) {
        self.detected += 1;
        if self.violations.len() < MAX_STORED {
            self.violations.push(Violation {
                cycle,
                rule,
                detail,
            });
        }
    }

    /// Fixes the population size from the initial SIR counts.
    pub fn start(&mut self, sir: Sir) {
        self.n = Some((sir.susceptible + sir.infective + sir.removed) as u64);
        self.prev = Some(sir);
        self.cycle_useful = 0;
        self.acc = TraceTotals::default();
    }

    /// Checks one contact's stats (rule 5) and accumulates totals for
    /// rule 6.
    pub fn contact(&mut self, cycle: u64, sent: u64, useful: u64) {
        self.acc.contacts += 1;
        self.acc.sent += sent;
        self.acc.useful += useful;
        if useful == 0 {
            self.acc.fruitless += 1;
        }
        self.cycle_useful += useful;
        if useful > sent {
            self.report(
                cycle,
                "useful_le_sent",
                format!("contact applied {useful} useful units but only {sent} were sent"),
            );
        }
    }

    /// Checks rules 1–4 against the post-cycle SIR counts and, once no
    /// site is susceptible, rule 7 against the per-site database digests
    /// that `digests` appends to its buffer. `digests` is called only
    /// then, so the digests are never computed while rule 7 cannot fire.
    pub fn cycle(&mut self, cycle: u64, sir: Sir, digests: impl FnOnce(&mut Vec<u64>)) {
        let total = (sir.susceptible + sir.infective + sir.removed) as u64;
        if let Some(n) = self.n {
            if total != n {
                self.report(
                    cycle,
                    "conservation",
                    format!(
                        "s+i+r = {total} but the run started with {n} sites \
                         (s={}, i={}, r={})",
                        sir.susceptible, sir.infective, sir.removed
                    ),
                );
            }
        }
        if let Some(prev) = self.prev {
            if sir.susceptible > prev.susceptible {
                self.report(
                    cycle,
                    "monotone_susceptible",
                    format!(
                        "susceptible grew from {} to {}",
                        prev.susceptible, sir.susceptible
                    ),
                );
            }
            if sir.removed < prev.removed {
                self.report(
                    cycle,
                    "monotone_removed",
                    format!("removed shrank from {} to {}", prev.removed, sir.removed),
                );
            }
            let newly_infected = prev.susceptible.saturating_sub(sir.susceptible) as u64;
            if newly_infected > self.cycle_useful {
                self.report(
                    cycle,
                    "infection_needs_traffic",
                    format!(
                        "{newly_infected} sites were infected this cycle but only {} \
                         useful units were delivered",
                        self.cycle_useful
                    ),
                );
            }
        }
        if sir.susceptible == 0 {
            self.digests.clear();
            digests(&mut self.digests);
            if let Some((&first, rest)) = self.digests.split_first() {
                if let Some(pos) = rest.iter().position(|&d| d != first) {
                    let detail = format!(
                        "susceptible = 0 but site {} digest {:#x} differs from \
                         site 0 digest {first:#x}",
                        pos + 1,
                        rest[pos]
                    );
                    self.report(cycle, "coverage_convergence", detail);
                }
            }
        }
        self.prev = Some(sir);
        self.cycle_useful = 0;
    }

    /// Final check: the engine's aggregate totals must match contact-level
    /// accumulation (rule 6). Rule 7 already ran at the last cycle end.
    pub fn finish(&mut self, engine: TraceTotals) {
        if engine != self.acc {
            self.report(
                0,
                "totals_consistency",
                format!(
                    "engine reported {engine:?} but per-contact accumulation gives {:?}",
                    self.acc
                ),
            );
        }
    }

    /// How many violations were detected, counting the ones dropped past the
    /// storage cap of [`InvariantChecker::violations`]; `0` on a clean run.
    pub fn violation_count(&self) -> u64 {
        self.detected
    }

    /// Violations stored so far, capped at an internal limit;
    /// [`InvariantChecker::violation_count`] still counts the ones dropped
    /// past it.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// All stored violations as JSONL (one object per line); empty string
    /// when clean.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for v in &self.violations {
            out.push_str(&v.to_json());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sir(s: usize, i: usize, r: usize) -> Sir {
        Sir {
            susceptible: s,
            infective: i,
            removed: r,
        }
    }

    /// A digest closure supplying `digests` and counting its calls.
    fn counted<'a>(calls: &'a mut u32, digests: &'a [u64]) -> impl FnOnce(&mut Vec<u64>) + 'a {
        move |out| {
            *calls += 1;
            out.extend_from_slice(digests);
        }
    }

    #[test]
    fn clean_run_reports_nothing() {
        let mut ck = InvariantChecker::default();
        let mut calls = 0;
        ck.start(sir(3, 1, 0));
        ck.contact(1, 1, 1);
        ck.cycle(1, sir(2, 2, 0), counted(&mut calls, &[7, 7, 7, 7]));
        assert_eq!(calls, 0, "no digests while a site is susceptible");
        ck.contact(2, 2, 2);
        ck.cycle(2, sir(0, 2, 2), counted(&mut calls, &[7, 7, 7, 7]));
        ck.cycle(3, sir(0, 0, 4), counted(&mut calls, &[7, 7, 7, 7]));
        assert_eq!(calls, 2, "digests once per cycle at full coverage");
        ck.finish(TraceTotals {
            contacts: 2,
            sent: 3,
            useful: 3,
            fruitless: 0,
        });
        assert_eq!(ck.violation_count(), 0, "{:?}", ck.violations());
        assert_eq!(ck.to_jsonl(), "");
    }

    #[test]
    fn conservation_violation_is_reported_not_panicked() {
        let mut ck = InvariantChecker::default();
        ck.start(sir(4, 1, 0));
        ck.cycle(1, sir(3, 1, 0), |_| {}); // 4 sites — one vanished
        assert_ne!(ck.violation_count(), 0);
        assert_eq!(ck.violations()[0].rule, "conservation");
        assert!(ck.to_jsonl().contains(r#""rule":"conservation""#));
    }

    #[test]
    fn monotonicity_violations() {
        let mut ck = InvariantChecker::default();
        ck.start(sir(2, 1, 1));
        ck.contact(1, 1, 1);
        ck.contact(1, 1, 1);
        ck.contact(1, 1, 1);
        ck.cycle(1, sir(3, 1, 0), |_| {}); // s grew AND r shrank
        let rules: Vec<_> = ck.violations().iter().map(|v| v.rule).collect();
        assert!(rules.contains(&"monotone_susceptible"), "{rules:?}");
        assert!(rules.contains(&"monotone_removed"), "{rules:?}");
    }

    #[test]
    fn infection_without_traffic_is_caught() {
        let mut ck = InvariantChecker::default();
        ck.start(sir(5, 1, 0));
        ck.contact(1, 1, 0); // fruitless
        ck.cycle(1, sir(3, 3, 0), |_| {}); // 2 infected with 0 useful units
        assert_eq!(ck.violations()[0].rule, "infection_needs_traffic");
    }

    #[test]
    fn useful_exceeding_sent_is_caught() {
        let mut ck = InvariantChecker::default();
        ck.start(sir(1, 1, 0));
        ck.contact(1, 1, 2);
        assert_eq!(ck.violations()[0].rule, "useful_le_sent");
    }

    #[test]
    fn totals_mismatch_is_caught() {
        let mut ck = InvariantChecker::default();
        ck.start(sir(1, 1, 0));
        ck.contact(1, 1, 1);
        ck.cycle(1, sir(0, 2, 0), |_| {});
        ck.finish(TraceTotals {
            contacts: 5,
            sent: 5,
            useful: 5,
            fruitless: 0,
        });
        assert_eq!(ck.violations()[0].rule, "totals_consistency");
    }

    #[test]
    fn divergent_digests_after_coverage_are_caught() {
        let mut ck = InvariantChecker::default();
        let mut calls = 0;
        ck.start(sir(1, 1, 0));
        ck.contact(1, 1, 1);
        ck.cycle(1, sir(0, 2, 0), counted(&mut calls, &[1, 2]));
        assert_eq!(calls, 1);
        assert_eq!(ck.violations()[0].rule, "coverage_convergence");
        // With susceptible sites remaining, digests may differ freely and
        // are never computed.
        let mut ok = InvariantChecker::default();
        let mut calls = 0;
        ok.start(sir(2, 1, 0));
        ok.cycle(1, sir(2, 1, 0), counted(&mut calls, &[1, 2, 3]));
        assert_eq!(calls, 0);
        assert_eq!(ok.violation_count(), 0);
    }

    #[test]
    fn storage_cap_keeps_counting() {
        let mut ck = InvariantChecker::default();
        ck.start(sir(1, 1, 0));
        for c in 0..150 {
            ck.contact(c, 0, 1); // useful > sent, every time
        }
        assert_eq!(ck.violations().len(), 100);
        assert_eq!(ck.violation_count(), 150);
    }
}
