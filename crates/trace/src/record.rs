//! Structured run tracing: per-contact events, per-cycle snapshots, a
//! per-link traffic matrix, and a run summary — serialized as JSONL.
//!
//! [`RunTracer`] is deliberately independent of the simulation crates: it
//! consumes plain numbers (`cycle`, site indices, contact stats, SIR
//! counts) and produces deterministic JSONL text. The simulator makes it
//! an engine observer (`epidemic_sim::engine::trace`); the bench harness
//! concatenates per-trial tracer outputs in trial order, which is what
//! keeps trace files byte-identical at any worker-thread count.
//!
//! Every line is one JSON object with an `"event"` discriminator:
//!
//! | event       | emitted | fields |
//! |-------------|---------|--------|
//! | `run_start` | once    | labels, `s`/`i`/`r` at injection |
//! | `contact`   | per contact (optional) | `cycle`, `from`, `to`, `sent`, `useful` |
//! | `cycle`     | per cycle (optional)   | `cycle`, `s`/`i`/`r`, `contacts`, `sent`, `useful` |
//! | `link`      | at finish (optional)   | `from`, `to`, `contacts`, `sent`, `useful` |
//! | `run_end`   | once    | `cycles`, totals, final `s`/`i`/`r` |
//!
//! No field is wall-clock derived; trace content is reproducible by
//! construction.

use std::collections::BTreeMap;

use crate::json::JsonObject;
use crate::Sir;

/// Which record streams a [`RunTracer`] emits.
///
/// Per-contact events and the link matrix are precise but heavy
/// (O(contacts) lines, O(distinct pairs) state); per-cycle snapshots are
/// cheap. Table-scale traces keep cycles only; single-run deep dives turn
/// everything on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Emit one `contact` line per executed contact.
    pub contacts: bool,
    /// Emit one `cycle` line per completed cycle.
    pub cycles: bool,
    /// Accumulate the per-ordered-pair traffic matrix and emit `link`
    /// lines at finish — the §3 critical-link view.
    pub links: bool,
}

impl TraceConfig {
    /// Cycle snapshots only — the table-scale default.
    pub fn cycles_only() -> Self {
        TraceConfig {
            contacts: false,
            cycles: true,
            links: false,
        }
    }

    /// Everything on — single-run deep dives.
    pub fn full() -> Self {
        TraceConfig {
            contacts: true,
            cycles: true,
            links: true,
        }
    }
}

/// Aggregate contact totals carried by a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceTotals {
    /// Contacts recorded.
    pub contacts: u64,
    /// Units sent across all contacts.
    pub sent: u64,
    /// Units that were news to the recipient.
    pub useful: u64,
    /// Contacts with zero useful units.
    pub fruitless: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct LinkCell {
    contacts: u64,
    sent: u64,
    useful: u64,
}

/// Records one run's events and renders them as JSONL. See the
/// [module docs](self) for the line schema.
#[derive(Debug, Clone)]
pub struct RunTracer {
    config: TraceConfig,
    /// `"name":<raw json>` fragments stamped onto every line.
    labels: Vec<(String, String)>,
    out: String,
    links: BTreeMap<(u64, u64), LinkCell>,
    totals: TraceTotals,
    cycle_acc: TraceTotals,
    last_sir: Option<Sir>,
    cycles: u64,
    started: bool,
}

impl RunTracer {
    /// A tracer emitting the streams selected by `config`.
    pub fn new(config: TraceConfig) -> Self {
        RunTracer {
            config,
            labels: Vec::new(),
            out: String::new(),
            links: BTreeMap::new(),
            totals: TraceTotals::default(),
            cycle_acc: TraceTotals::default(),
            last_sir: None,
            cycles: 0,
            started: false,
        }
    }

    /// Stamps an integer label (e.g. `k`, `trial`) onto every line.
    #[must_use]
    pub fn label_u64(mut self, name: &str, value: u64) -> Self {
        self.labels.push((name.to_string(), value.to_string()));
        self
    }

    /// Stamps a string label (e.g. the experiment name) onto every line.
    #[must_use]
    pub fn label_str(mut self, name: &str, value: &str) -> Self {
        let mut quoted = String::from("\"");
        crate::json::escape_into(&mut quoted, value);
        quoted.push('"');
        self.labels.push((name.to_string(), quoted));
        self
    }

    fn line(&self, event: &str) -> JsonObject {
        let mut obj = JsonObject::new();
        obj.field_str("event", event);
        for (name, raw) in &self.labels {
            obj.field_raw(name, raw);
        }
        obj
    }

    fn emit(&mut self, obj: JsonObject) {
        self.out.push_str(&obj.finish());
        self.out.push('\n');
    }

    fn sir_fields(obj: &mut JsonObject, sir: Sir) {
        obj.field_u64("s", sir.susceptible as u64)
            .field_u64("i", sir.infective as u64)
            .field_u64("r", sir.removed as u64);
    }

    /// Records the state at injection (before any cycle).
    pub fn run_start(&mut self, sir: Sir) {
        debug_assert!(!self.started, "run_start called twice");
        self.started = true;
        self.last_sir = Some(sir);
        let mut obj = self.line("run_start");
        Self::sir_fields(&mut obj, sir);
        self.emit(obj);
    }

    /// Records one executed contact.
    pub fn contact(&mut self, cycle: u64, from: u64, to: u64, sent: u64, useful: u64) {
        self.totals.contacts += 1;
        self.totals.sent += sent;
        self.totals.useful += useful;
        self.cycle_acc.contacts += 1;
        self.cycle_acc.sent += sent;
        self.cycle_acc.useful += useful;
        if useful == 0 {
            self.totals.fruitless += 1;
            self.cycle_acc.fruitless += 1;
        }
        if self.config.links {
            let cell = self.links.entry((from, to)).or_default();
            cell.contacts += 1;
            cell.sent += sent;
            cell.useful += useful;
        }
        if self.config.contacts {
            let mut obj = self.line("contact");
            obj.field_u64("cycle", cycle)
                .field_u64("from", from)
                .field_u64("to", to)
                .field_u64("sent", sent)
                .field_u64("useful", useful);
            self.emit(obj);
        }
    }

    /// Records the state after one completed cycle.
    pub fn cycle(&mut self, cycle: u64, sir: Sir) {
        self.cycles = cycle;
        self.last_sir = Some(sir);
        let acc = std::mem::take(&mut self.cycle_acc);
        if self.config.cycles {
            let mut obj = self.line("cycle");
            obj.field_u64("cycle", cycle);
            Self::sir_fields(&mut obj, sir);
            obj.field_u64("contacts", acc.contacts)
                .field_u64("sent", acc.sent)
                .field_u64("useful", acc.useful);
            self.emit(obj);
        }
    }

    /// Aggregate totals recorded so far.
    pub fn totals(&self) -> TraceTotals {
        self.totals
    }

    /// Emits the link matrix (if configured) and the `run_end` summary,
    /// returning the complete JSONL text.
    pub fn finish(mut self) -> String {
        let links = std::mem::take(&mut self.links);
        for ((from, to), cell) in links {
            let mut obj = self.line("link");
            obj.field_u64("from", from)
                .field_u64("to", to)
                .field_u64("contacts", cell.contacts)
                .field_u64("sent", cell.sent)
                .field_u64("useful", cell.useful);
            self.emit(obj);
        }
        let totals = self.totals;
        let cycles = self.cycles;
        let last = self.last_sir;
        let mut obj = self.line("run_end");
        obj.field_u64("cycles", cycles)
            .field_u64("contacts", totals.contacts)
            .field_u64("sent", totals.sent)
            .field_u64("useful", totals.useful)
            .field_u64("fruitless", totals.fruitless);
        if let Some(sir) = last {
            Self::sir_fields(&mut obj, sir);
        }
        self.emit(obj);
        self.out
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

    #[test]
    fn full_trace_has_every_stream() {
        let mut tracer = RunTracer::new(TraceConfig::full())
            .label_str("experiment", "demo")
            .label_u64("trial", 3);
        tracer.run_start(sir(3, 1, 0));
        tracer.contact(1, 0, 2, 1, 1);
        tracer.contact(1, 0, 1, 1, 0);
        tracer.cycle(1, sir(2, 2, 0));
        tracer.contact(2, 2, 0, 1, 0);
        tracer.cycle(2, sir(2, 0, 2));
        let text = tracer.finish();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1 + 3 + 2 + 3 + 1, "{text}");
        assert!(lines[0].starts_with(r#"{"event":"run_start","experiment":"demo","trial":3,"s":3"#));
        assert!(lines[1].contains(r#""event":"contact""#));
        assert!(lines[3].contains(r#""event":"cycle""#));
        assert!(lines[3].contains(r#""contacts":2,"sent":2,"useful":1"#));
        // Link matrix is sorted by (from, to) and aggregates repeats.
        let link_lines: Vec<&&str> = lines
            .iter()
            .filter(|l| l.contains(r#""event":"link""#))
            .collect();
        assert_eq!(link_lines.len(), 3);
        assert!(link_lines[0].contains(r#""from":0,"to":1"#));
        assert!(link_lines[2].contains(r#""from":2,"to":0"#));
        let end = lines.last().unwrap();
        assert!(end.contains(r#""cycles":2,"contacts":3,"sent":3,"useful":1,"fruitless":2"#));
        assert!(end.ends_with(r#""s":2,"i":0,"r":2}"#));
    }

    #[test]
    fn cycles_only_suppresses_contacts_and_links() {
        let mut tracer = RunTracer::new(TraceConfig::cycles_only());
        tracer.run_start(sir(1, 1, 0));
        tracer.contact(1, 0, 1, 2, 2);
        tracer.cycle(1, sir(0, 2, 0));
        let text = tracer.finish();
        assert!(!text.contains(r#""event":"contact""#));
        assert!(!text.contains(r#""event":"link""#));
        assert_eq!(text.lines().count(), 3);
        assert_eq!(
            RunTracer::new(TraceConfig::cycles_only()).totals(),
            TraceTotals::default()
        );
    }

    #[test]
    fn totals_accumulate_across_cycles() {
        let mut tracer = RunTracer::new(TraceConfig::cycles_only());
        tracer.run_start(sir(2, 1, 0));
        tracer.contact(1, 0, 1, 3, 1);
        tracer.cycle(1, sir(1, 2, 0));
        tracer.contact(2, 1, 2, 2, 0);
        tracer.cycle(2, sir(1, 1, 1));
        assert_eq!(
            tracer.totals(),
            TraceTotals {
                contacts: 2,
                sent: 5,
                useful: 1,
                fruitless: 1
            }
        );
    }
}
