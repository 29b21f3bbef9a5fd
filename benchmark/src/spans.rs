//! Spans around calls into the leaf layers, recorded from the benchmark's
//! own files.
//!
//! Every span is aggregated in memory per operation (count, sum, min, max,
//! log₂ buckets, and one per-call sample per span); full
//! `{name, start_ns, end_ns, parent, trial}` records are kept for trial 0
//! only and written out when the run ends. A span's two clock reads cost
//! about as much as the cheapest calls they bracket, so that cost is
//! calibrated at start-up and subtracted, and the cheapest calls are
//! spanned a batch at a time.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::{alloc, stats};

/// The operations the replay prices: `(layer.op, inside the contact loop)`.
/// Loop operations are the ones whose scaled time is subtracted from the
/// program's `engine.contact_loop` phase to leave the engine's own time.
macro_rules! ops {
    ($($variant:ident => $name:literal, $in_loop:literal;)*) => {
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Op { $($variant),* }
        impl Op {
            pub const ALL: &'static [Op] = &[$(Op::$variant),*];
            pub fn name(self) -> &'static str { match self { $(Op::$variant => $name),* } }
            pub fn in_contact_loop(self) -> bool { match self { $(Op::$variant => $in_loop),* } }
        }
    };
}

ops! {
    StdRngDraw => "rand.stdrng_draw", true;
    ContactRng => "rand.contact_rng", true;
    ClientUpdate => "db.client_update", false;
    OfferAccept => "db.offer_accept", false;
    OfferStale => "db.offer_stale", false;
    Checksum => "db.checksum", false;
    RecentScan => "db.recent_scan", false;
    LazyPush => "db.lazy_push", true;
    NetSetup => "net.setup", false;
    PartnerDrawUniform => "net.partner_draw.uniform", true;
    PartnerDrawA1_2 => "net.partner_draw.a1_2", true;
    PartnerDrawA1_4 => "net.partner_draw.a1_4", true;
    PartnerDrawA1_6 => "net.partner_draw.a1_6", true;
    PartnerDrawA1_8 => "net.partner_draw.a1_8", true;
    PartnerDrawA2_0 => "net.partner_draw.a2_0", true;
    RouteRecord => "net.route_record", true;
    ScaleFreeBuild => "net.scale_free_build", false;
    NeighborDraw => "net.neighbor_draw", true;
    AeExchange => "core.ae_exchange", true;
    AeExchangeOneKey => "core.ae_exchange_1key", true;
    RumorContact => "core.rumor_contact", true;
    RumorContactHot => "core.rumor_contact_hot", true;
    RumorEndCycle => "core.rumor_end_cycle", false;
    ReplicaNew => "core.replica_new", false;
    SinkContact => "trace.sink_contact", false;
}

/// Every partner-draw operation, for the combined `net.partner_draw_ns`.
pub const PARTNER_DRAWS: [Op; 6] = [
    Op::PartnerDrawUniform,
    Op::PartnerDrawA1_2,
    Op::PartnerDrawA1_4,
    Op::PartnerDrawA1_6,
    Op::PartnerDrawA1_8,
    Op::PartnerDrawA2_0,
];

const BUCKETS: usize = 40;

/// In-memory aggregate of one operation's spans.
#[derive(Debug, Clone)]
pub struct OpStats {
    pub spans: u64,
    pub calls: u64,
    pub sum_ns: u64,
    pub min_ns: u64,
    pub max_ns: u64,
    /// Heap allocations requested inside the spans.
    pub allocs: u64,
    /// Spans by ⌊log₂(duration in ns)⌋.
    pub buckets: [u64; BUCKETS],
    /// One sample per span: overhead-corrected nanoseconds per call, and
    /// the calls the span covered.
    per_call_ns: Vec<(f32, u32)>,
}

impl Default for OpStats {
    fn default() -> Self {
        OpStats {
            spans: 0,
            calls: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
            allocs: 0,
            buckets: [0; BUCKETS],
            per_call_ns: Vec::new(),
        }
    }
}

struct FullSpan {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
}

pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    /// Median cost of an empty span, subtracted from every sample.
    pub overhead_ns: f64,
    ops: Vec<OpStats>,
    trial: u32,
    in_trial: bool,
    /// Index into `full` of the open trial span while trial 0 runs.
    open_trial: Option<u32>,
    trial_start_ns: u64,
    /// Nanoseconds of all trial spans, and of the spans inside them.
    trials_ns: u64,
    children_ns: u64,
    full: Vec<FullSpan>,
}

impl Recorder {
    /// A disabled recorder runs the closures and reads no clock: the same
    /// replay without spans, for the overhead ratio.
    pub fn new(enabled: bool) -> Recorder {
        let mut recorder = Recorder {
            enabled,
            epoch: Instant::now(),
            overhead_ns: 0.0,
            ops: vec![OpStats::default(); Op::ALL.len()],
            trial: 0,
            in_trial: false,
            open_trial: None,
            trial_start_ns: 0,
            trials_ns: 0,
            children_ns: 0,
            full: Vec::new(),
        };
        if enabled {
            recorder.calibrate();
        }
        recorder
    }

    fn calibrate(&mut self) {
        let mut empty: Vec<f64> = (0..20_000)
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(());
                start.elapsed().as_nanos() as f64
            })
            .collect();
        empty.sort_by(f64::total_cmp);
        self.overhead_ns = empty[empty.len() / 2];
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens the root span of the next trial; full spans are kept for the
    /// first trial only.
    pub fn begin_trial(&mut self) {
        if !self.enabled {
            return;
        }
        self.in_trial = true;
        self.trial_start_ns = self.now_ns();
        if self.trial == 0 {
            self.open_trial = Some(self.full.len() as u32);
            self.full.push(FullSpan {
                name: "replay.trial",
                start_ns: self.trial_start_ns,
                end_ns: self.trial_start_ns,
                parent: None,
            });
        }
    }

    pub fn end_trial(&mut self) {
        if !self.enabled {
            return;
        }
        let end = self.now_ns();
        self.in_trial = false;
        self.trials_ns += end - self.trial_start_ns;
        if let Some(root) = self.open_trial.take() {
            self.full[root as usize].end_ns = end;
        }
        self.trial += 1;
    }

    /// Spans one call of `op`.
    #[inline]
    pub fn span<T>(&mut self, op: Op, f: impl FnOnce() -> T) -> T {
        self.batch(op, || (f(), 1))
    }

    /// Spans a batch of calls of `op`; the closure reports how many it
    /// made. A batch of zero calls is timed but contributes no sample.
    #[inline]
    pub fn batch<T>(&mut self, op: Op, f: impl FnOnce() -> (T, u64)) -> T {
        if !self.enabled {
            return f().0;
        }
        let allocs_before = alloc::allocations();
        let start = Instant::now();
        let (value, calls) = f();
        let end = Instant::now();
        let allocs = alloc::allocations() - allocs_before;
        let ns = end.duration_since(start).as_nanos() as u64;
        if self.in_trial {
            self.children_ns += ns;
        }
        let stats = &mut self.ops[op as usize];
        stats.spans += 1;
        stats.calls += calls;
        stats.sum_ns += ns;
        stats.allocs += allocs;
        stats.min_ns = stats.min_ns.min(ns);
        stats.max_ns = stats.max_ns.max(ns);
        stats.buckets[(ns.max(1).ilog2() as usize).min(BUCKETS - 1)] += 1;
        if calls > 0 {
            let corrected = (ns as f64 - self.overhead_ns).max(0.0);
            let weight = u32::try_from(calls).unwrap_or(u32::MAX);
            stats
                .per_call_ns
                .push(((corrected / calls as f64) as f32, weight));
        }
        if let Some(root) = self.open_trial {
            let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
            self.full.push(FullSpan {
                name: op.name(),
                start_ns,
                end_ns: start_ns + ns,
                parent: Some(root),
            });
        }
        value
    }

    pub fn stats(&self, op: Op) -> &OpStats {
        &self.ops[op as usize]
    }

    /// Median and, from 1000 spans on, the 99th percentile of the
    /// nanoseconds per call over all spans of `ops`. A span weighs as many
    /// calls as it covered, so a cycle with three active sites does not
    /// count like one with a million.
    pub fn per_call_ns(&self, ops: &[Op]) -> Option<(f64, Option<f64>)> {
        let mut samples: Vec<(f64, u64)> = ops
            .iter()
            .flat_map(|&op| &self.ops[op as usize].per_call_ns)
            .map(|&(ns, calls)| (f64::from(ns), u64::from(calls)))
            .collect();
        samples.sort_by(|a, b| a.0.total_cmp(&b.0));
        let median = stats::weighted_quantile(&samples, 0.5)?;
        let p99 = (samples.len() >= 1000)
            .then(|| stats::weighted_quantile(&samples, 0.99))
            .flatten();
        Some((median, p99))
    }

    /// Seconds spent in spans of operations inside the contact loop, less
    /// the spans' own clock reads.
    pub fn contact_loop_s(&self) -> f64 {
        Op::ALL
            .iter()
            .filter(|op| op.in_contact_loop())
            .map(|&op| {
                let stats = &self.ops[op as usize];
                (stats.sum_ns as f64 - stats.spans as f64 * self.overhead_ns).max(0.0) / 1e9
            })
            .sum()
    }

    /// Heap allocations per call of `op`.
    pub fn allocs_per_call(&self, op: Op) -> Option<f64> {
        let stats = &self.ops[op as usize];
        (stats.calls > 0).then(|| stats.allocs as f64 / stats.calls as f64)
    }

    /// Time of the trial spans not covered by any child span: the replay's
    /// own roster, shuffle and bookkeeping.
    pub fn self_s(&self) -> f64 {
        self.trials_ns.saturating_sub(self.children_ns) as f64 / 1e9
    }

    /// Writes the full spans of trial 0, one JSON object per line.
    pub fn write_spans(&self, path: &Path) -> Result<(), String> {
        let err = |e: std::io::Error| format!("{}: {e}", path.display());
        let mut out = std::io::BufWriter::new(std::fs::File::create(path).map_err(err)?);
        for span in &self.full {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"trial\":0}}",
                span.name, span.start_ns, span.end_ns
            )
            .map_err(err)?;
        }
        out.flush().map_err(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_aggregate_per_op_and_keep_trial_zero_in_full() {
        let mut r = Recorder::new(true);
        r.begin_trial();
        assert_eq!(r.span(Op::AeExchange, || 7), 7);
        r.batch(Op::StdRngDraw, || ((), 100));
        r.batch(Op::StdRngDraw, || ((), 0));
        r.end_trial();
        r.begin_trial();
        r.span(Op::AeExchange, || ());
        r.end_trial();
        assert_eq!(r.stats(Op::AeExchange).spans, 2);
        assert_eq!(r.stats(Op::StdRngDraw).calls, 100);
        assert_eq!(r.stats(Op::StdRngDraw).per_call_ns.len(), 1);
        // Root + three spans of trial 0; trial 1 is aggregated only.
        assert_eq!(r.full.len(), 4);
        assert!(r.full[1..].iter().all(|s| s.parent == Some(0)));
        assert!(r.full[0].end_ns >= r.full[3].end_ns);
        assert!(r.trials_ns >= r.children_ns);
        let (median, p99) = r.per_call_ns(&[Op::AeExchange]).unwrap();
        assert!(median >= 0.0 && p99.is_none());
        assert!(r.per_call_ns(&[Op::Checksum]).is_none());
    }

    #[test]
    fn a_disabled_recorder_only_runs_the_closure() {
        let mut r = Recorder::new(false);
        r.begin_trial();
        assert_eq!(r.span(Op::Checksum, || 3), 3);
        r.end_trial();
        assert_eq!(r.stats(Op::Checksum).spans, 0);
        assert!(r.full.is_empty() && r.trials_ns == 0);
    }

    #[test]
    fn op_names_are_layer_dot_operation_and_unique() {
        let mut names: Vec<&str> = Op::ALL.iter().map(|op| op.name()).collect();
        assert!(names.iter().all(|n| {
            let layer = n.split('.').next().unwrap();
            ["rand", "db", "net", "core", "trace"].contains(&layer)
        }));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Op::ALL.len());
    }
}
