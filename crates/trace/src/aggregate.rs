//! Streaming run aggregation: bounded-memory analytics over contact
//! streams.
//!
//! [`RunTracer`](crate::RunTracer) records every event verbatim, which is
//! perfect for small runs and differential tests but unusable at
//! megascale (a single n=10⁶ push epidemic makes ~2·10⁷ contacts). The
//! [`AggregatingSink`] consumes the same event stream and folds it into an
//! [`RunAggregate`] whose memory is bounded regardless of run length:
//!
//! * a fixed-bucket [`Histogram`] of per-update propagation delay — the
//!   cycle at which each site first *provably holds* the update, i.e. its
//!   first contact that transferred at least one useful unit (for push
//!   that is the recipient, for pull the initiator, for push-pull both) —
//!   plus the exact maximum;
//! * a per-link traffic matrix, dense while small and first-come
//!   [`LINK_CAP`]-capped with an overflow cell beyond that, so n=10⁶
//!   stays bounded;
//! * per-cycle SIR curves as elementwise sums plus a runs-reaching-cycle
//!   count, so mean curves over trials of different lengths are exact;
//! * the same contact totals a full trace carries.
//!
//! Every part of the state merges deterministically: folding per-trial
//! aggregates in trial order yields byte-identical
//! [`RunAggregate::to_json`] output at any `EPIDEMIC_THREADS`, mirroring
//! the JSONL guarantee of [`RunTracer`](crate::RunTracer). Like the rest
//! of this crate, aggregates carry **no wall-clock fields**.
//!
//! The origin site has no receipt event, so it records one sample at its
//! own first useful contact — a one-in-n bias toward small delays that is
//! irrelevant for n ≥ 100 and keeps the rule uniform (and exactly
//! reproducible by a post-hoc scan of a full JSONL trace, which the
//! differential tests exploit).

use crate::json::JsonObject;
use crate::metrics::Histogram;
use crate::record::TraceTotals;
use crate::Sir;

/// Delay-histogram bucket bounds (cycles). Unit-wide up to 16 cycles —
/// where `log₂n + ln n` lands for every n this workspace sweeps short of
/// megascale — then coarsening geometrically to 512.
pub const DELAY_BUCKETS: [f64; 28] = [
    1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 20.0,
    24.0, 28.0, 32.0, 40.0, 48.0, 64.0, 96.0, 128.0, 192.0, 256.0, 512.0,
];

/// Maximum distinct `(from, to)` pairs a [`LinkAggregate`] keeps.
///
/// Admission is first-come: the first `LINK_CAP` distinct pairs seen get
/// cells, traffic on any later *new* pair folds into one overflow cell
/// (traffic on retained pairs always updates them). First-come admission
/// is deterministic under the fixed trial-fold order, unlike
/// eviction-based top-K schemes whose contents depend on interleaving.
pub const LINK_CAP: usize = 4096;

/// Below this many tracked pairs the JSON export lists every cell
/// ("dense for small n"); above it only the `LINK_TOP_K` heaviest.
const LINK_DENSE_EXPORT: usize = 256;

/// Cells exported once the matrix is no longer dense: the top K by
/// `sent` (descending), ties broken by `(from, to)` ascending.
const LINK_TOP_K: usize = 32;

/// Traffic accumulated over one directed site pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkCell {
    /// Contacts over this pair.
    pub contacts: u64,
    /// Units sent over this pair.
    pub sent: u64,
    /// Units that were news to the recipient.
    pub useful: u64,
}

impl LinkCell {
    fn add(&mut self, other: &LinkCell) {
        self.contacts += other.contacts;
        self.sent += other.sent;
        self.useful += other.useful;
    }
}

/// A bounded per-link traffic matrix (see [`LINK_CAP`]).
///
/// A flat first-come table: `keys`/`cells` hold the tracked pairs in
/// admission order and `index` is an open-addressing (linear-probe) hash
/// index over them. All three grow geometrically with the pairs actually
/// seen — a ten-contact run holds ten cells and a 32-slot index — and stop
/// at [`LINK_CAP`] pairs. Admission order is bookkeeping only: exports are
/// sorted by `(from, to)` and equality compares the tracked *set*.
#[derive(Debug, Clone, Default)]
pub struct LinkAggregate {
    keys: Vec<(u64, u64)>,
    cells: Vec<LinkCell>,
    /// `position + 1` into `keys`/`cells`, `0` for an empty slot. Empty
    /// until the first admission, then a power of two kept at most half
    /// full (so at most `2 * LINK_CAP` slots).
    index: Vec<u32>,
    overflow: LinkCell,
}

/// Where a pair sits in a [`LinkAggregate`]'s index.
enum Probe {
    /// Tracked, at this position of `keys`/`cells`.
    Found(usize),
    /// Not tracked; this index slot is where it would go.
    Vacant(usize),
}

impl LinkAggregate {
    /// Smallest non-empty index.
    const MIN_SLOTS: usize = 16;

    /// Records one contact over the directed pair `(from, to)`.
    pub fn record(&mut self, from: u64, to: u64, sent: u64, useful: u64) {
        self.record_cell(
            from,
            to,
            &LinkCell {
                contacts: 1,
                sent,
                useful,
            },
        );
    }

    /// Home slot of `(from, to)` in an index of `slots` (a power of two)
    /// entries. Keys are site indices from inside the program, so a fixed
    /// multiplicative mix is enough; the shift keeps the well-mixed high
    /// bits.
    fn home(from: u64, to: u64, slots: usize) -> usize {
        const MIX: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut h = (from ^ to.rotate_left(32)).wrapping_mul(MIX);
        h = (h ^ (h >> 32)).wrapping_mul(MIX);
        (h >> (64 - slots.trailing_zeros())) as usize
    }

    fn probe(&self, from: u64, to: u64) -> Probe {
        let mask = self.index.len() - 1;
        let mut slot = Self::home(from, to, self.index.len());
        loop {
            match self.index[slot] {
                0 => return Probe::Vacant(slot),
                entry => {
                    let pos = entry as usize - 1;
                    if self.keys[pos] == (from, to) {
                        return Probe::Found(pos);
                    }
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Doubles the index (or creates it) and re-seats every tracked pair.
    fn grow_index(&mut self) {
        let slots = (self.index.len() * 2).max(Self::MIN_SLOTS);
        self.index.clear();
        self.index.resize(slots, 0);
        for (pos, &(from, to)) in self.keys.iter().enumerate() {
            let mut slot = Self::home(from, to, slots);
            while self.index[slot] != 0 {
                slot = (slot + 1) & (slots - 1);
            }
            self.index[slot] = pos as u32 + 1;
        }
    }

    fn record_cell(&mut self, from: u64, to: u64, cell: &LinkCell) {
        if self.index.is_empty() {
            self.grow_index();
        }
        match self.probe(from, to) {
            Probe::Found(pos) => self.cells[pos].add(cell),
            Probe::Vacant(_) if self.keys.len() >= LINK_CAP => self.overflow.add(cell),
            Probe::Vacant(slot) => {
                self.keys.push((from, to));
                self.cells.push(*cell);
                self.index[slot] = self.keys.len() as u32;
                if self.keys.len() * 2 > self.index.len() {
                    self.grow_index();
                }
            }
        }
    }

    /// Folds `other` into `self`; `other`'s cells are admitted in
    /// `(from, to)` order under the same first-come cap.
    pub fn merge(&mut self, other: &LinkAggregate) {
        // The admission order only decides *which* of `other`'s new pairs
        // get the remaining cells, so it matters only when this merge can
        // cross the cap; otherwise every order tracks the same set with
        // the same sums and the sort is skipped.
        let may_cross_cap =
            self.keys.len() < LINK_CAP && self.keys.len() + other.keys.len() > LINK_CAP;
        if may_cross_cap {
            for pos in other.sorted_positions() {
                let (from, to) = other.keys[pos];
                self.record_cell(from, to, &other.cells[pos]);
            }
        } else {
            for (&(from, to), cell) in other.keys.iter().zip(&other.cells) {
                self.record_cell(from, to, cell);
            }
        }
        self.overflow.add(&other.overflow);
    }

    /// Positions of the tracked pairs in ascending `(from, to)` order.
    fn sorted_positions(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.keys.len()).collect();
        order.sort_unstable_by_key(|&pos| self.keys[pos]);
        order
    }

    /// Distinct pairs currently tracked.
    pub fn tracked_pairs(&self) -> usize {
        self.keys.len()
    }

    /// Traffic folded into the overflow cell (pairs past the cap).
    pub fn overflow(&self) -> &LinkCell {
        &self.overflow
    }

    /// Grand totals over every recorded contact, tracked or overflowed.
    pub fn totals(&self) -> LinkCell {
        let mut t = self.overflow;
        for cell in &self.cells {
            t.add(cell);
        }
        t
    }

    /// The tracked cell for `(from, to)`, if retained.
    pub fn get(&self, from: u64, to: u64) -> Option<&LinkCell> {
        if self.index.is_empty() {
            return None;
        }
        match self.probe(from, to) {
            Probe::Found(pos) => Some(&self.cells[pos]),
            Probe::Vacant(_) => None,
        }
    }

    /// Tracked cells in `(from, to)` order.
    pub fn cells(&self) -> Vec<((u64, u64), LinkCell)> {
        self.sorted_positions()
            .into_iter()
            .map(|pos| (self.keys[pos], self.cells[pos]))
            .collect()
    }

    /// The `k` heaviest tracked cells by `sent` (descending), ties broken
    /// by `(from, to)` ascending.
    pub fn top(&self, k: usize) -> Vec<((u64, u64), LinkCell)> {
        let mut all: Vec<((u64, u64), LinkCell)> = self
            .keys
            .iter()
            .copied()
            .zip(self.cells.iter().copied())
            .collect();
        all.sort_unstable_by(|a, b| b.1.sent.cmp(&a.1.sent).then(a.0.cmp(&b.0)));
        all.truncate(k);
        all
    }
}

/// Value equality: the same tracked pairs with the same cells and the same
/// overflow, whatever order the pairs were admitted in.
impl PartialEq for LinkAggregate {
    fn eq(&self, other: &LinkAggregate) -> bool {
        self.overflow == other.overflow
            && self.keys.len() == other.keys.len()
            && self
                .keys
                .iter()
                .zip(&self.cells)
                .all(|(&(from, to), cell)| other.get(from, to) == Some(cell))
    }
}

/// The bounded-memory summary of one or more runs (see the module docs).
///
/// Built by an [`AggregatingSink`] or by [`RunAggregate::merge`]-ing
/// per-trial aggregates; serialized by [`RunAggregate::to_json`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunAggregate {
    runs: u64,
    sites: u64,
    delay: Histogram,
    delay_max: u64,
    links: LinkAggregate,
    sir_s: Vec<u64>,
    sir_i: Vec<u64>,
    sir_r: Vec<u64>,
    sir_runs: Vec<u64>,
    totals: TraceTotals,
    max_cycle: u64,
}

impl Default for RunAggregate {
    fn default() -> Self {
        RunAggregate {
            runs: 0,
            sites: 0,
            delay: Histogram::new(&DELAY_BUCKETS),
            delay_max: 0,
            links: LinkAggregate::default(),
            sir_s: Vec::new(),
            sir_i: Vec::new(),
            sir_r: Vec::new(),
            sir_runs: Vec::new(),
            totals: TraceTotals::default(),
            max_cycle: 0,
        }
    }
}

impl RunAggregate {
    /// An empty aggregate.
    pub fn new() -> Self {
        RunAggregate::default()
    }

    /// Runs folded into this aggregate.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Largest site count seen at any run start.
    pub fn sites(&self) -> u64 {
        self.sites
    }

    /// The propagation-delay histogram (cycles to first possession).
    pub fn delay(&self) -> &Histogram {
        &self.delay
    }

    /// The bounded per-link traffic matrix.
    pub fn links(&self) -> &LinkAggregate {
        &self.links
    }

    /// Contact totals over every folded run.
    pub fn totals(&self) -> TraceTotals {
        self.totals
    }

    /// Highest cycle number any folded run reached.
    pub fn max_cycle(&self) -> u64 {
        self.max_cycle
    }

    fn record_sir(&mut self, index: usize, sir: Sir) {
        if self.sir_s.len() <= index {
            self.sir_s.resize(index + 1, 0);
            self.sir_i.resize(index + 1, 0);
            self.sir_r.resize(index + 1, 0);
            self.sir_runs.resize(index + 1, 0);
        }
        self.sir_s[index] += sir.susceptible as u64;
        self.sir_i[index] += sir.infective as u64;
        self.sir_r[index] += sir.removed as u64;
        self.sir_runs[index] += 1;
    }

    /// Folds `other` into `self`. Deterministic: merging per-trial
    /// aggregates in trial order yields identical state no matter how the
    /// trials were scheduled.
    ///
    /// # Panics
    ///
    /// Panics if the delay histograms were built over different bounds;
    /// aggregates built by this module always share [`DELAY_BUCKETS`].
    pub fn merge(&mut self, other: &RunAggregate) {
        self.runs += other.runs;
        self.sites = self.sites.max(other.sites);
        self.delay.merge(&other.delay);
        self.delay_max = self.delay_max.max(other.delay_max);
        self.links.merge(&other.links);
        if self.sir_s.len() < other.sir_s.len() {
            let len = other.sir_s.len();
            self.sir_s.resize(len, 0);
            self.sir_i.resize(len, 0);
            self.sir_r.resize(len, 0);
            self.sir_runs.resize(len, 0);
        }
        for (idx, (((&s, &i), &r), &n)) in other
            .sir_s
            .iter()
            .zip(&other.sir_i)
            .zip(&other.sir_r)
            .zip(&other.sir_runs)
            .enumerate()
        {
            self.sir_s[idx] += s;
            self.sir_i[idx] += i;
            self.sir_r[idx] += r;
            self.sir_runs[idx] += n;
        }
        self.totals.contacts += other.totals.contacts;
        self.totals.sent += other.totals.sent;
        self.totals.useful += other.totals.useful;
        self.totals.fruitless += other.totals.fruitless;
        self.max_cycle = self.max_cycle.max(other.max_cycle);
    }

    /// Serializes the aggregate as one JSON object. Deterministic by
    /// construction and free of wall-clock fields; the link section lists
    /// every cell while dense and the heaviest `LINK_TOP_K` (plus
    /// totals) beyond `LINK_DENSE_EXPORT` pairs.
    pub fn to_json(&self) -> String {
        let mut delay = JsonObject::new();
        delay
            .field_u64("count", self.delay.count())
            .field_f64("sum", self.delay.sum())
            .field_f64("mean", self.delay.mean())
            .field_f64("p50", self.delay.quantile(0.50))
            .field_f64("p90", self.delay.quantile(0.90))
            .field_f64("p99", self.delay.quantile(0.99))
            .field_u64("max", self.delay_max)
            .field_f64_array("bounds", self.delay.bounds().iter().copied())
            .field_u64_array("buckets", self.delay.bucket_counts().iter().copied());

        let link_totals = self.links.totals();
        let truncated = self.links.tracked_pairs() > LINK_DENSE_EXPORT;
        let exported = if truncated {
            self.links.top(LINK_TOP_K)
        } else {
            self.links.cells()
        };
        let cells = crate::json::array_of(exported.iter().map(|((from, to), cell)| {
            let mut o = JsonObject::new();
            o.field_u64("from", *from)
                .field_u64("to", *to)
                .field_u64("contacts", cell.contacts)
                .field_u64("sent", cell.sent)
                .field_u64("useful", cell.useful);
            o.finish()
        }));
        let mut links = JsonObject::new();
        links
            .field_u64("tracked_pairs", self.links.tracked_pairs() as u64)
            .field_bool("truncated", truncated)
            .field_raw("totals", &link_cell_json(&link_totals))
            .field_raw("overflow", &link_cell_json(self.links.overflow()))
            .field_raw("cells", &cells);

        let mut totals = JsonObject::new();
        totals
            .field_u64("contacts", self.totals.contacts)
            .field_u64("sent", self.totals.sent)
            .field_u64("useful", self.totals.useful)
            .field_u64("fruitless", self.totals.fruitless);

        let mut sir = JsonObject::new();
        sir.field_u64("cycles", self.sir_s.len() as u64)
            .field_u64_array("runs", self.sir_runs.iter().copied())
            .field_u64_array("s", self.sir_s.iter().copied())
            .field_u64_array("i", self.sir_i.iter().copied())
            .field_u64_array("r", self.sir_r.iter().copied());

        let mut root = JsonObject::new();
        root.field_u64("runs", self.runs)
            .field_u64("sites", self.sites)
            .field_u64("max_cycle", self.max_cycle)
            .field_raw("totals", &totals.finish())
            .field_raw("delay", &delay.finish())
            .field_raw("links", &links.finish())
            .field_raw("sir", &sir.finish());
        root.finish()
    }
}

fn link_cell_json(cell: &LinkCell) -> String {
    let mut o = JsonObject::new();
    o.field_u64("contacts", cell.contacts)
        .field_u64("sent", cell.sent)
        .field_u64("useful", cell.useful);
    o.finish()
}

/// Folds a contact/cycle event stream into a [`RunAggregate`].
///
/// The event surface mirrors [`RunTracer`](crate::RunTracer): call
/// [`run_start`](AggregatingSink::run_start) once per run, then
/// [`contact`](AggregatingSink::contact) for every contact and
/// [`cycle`](AggregatingSink::cycle) at each cycle end (cycles are
/// numbered from 1; the run-start snapshot is cycle 0). One sink may
/// observe several runs back-to-back — the per-run seen-set resets at
/// each `run_start` while the aggregate keeps accumulating.
#[derive(Debug, Clone, Default)]
pub struct AggregatingSink {
    agg: RunAggregate,
    seen: Vec<bool>,
}

impl AggregatingSink {
    /// A sink with an empty aggregate.
    pub fn new() -> Self {
        AggregatingSink::default()
    }

    /// Begins a run of `sir.total()` sites in the given start state.
    pub fn run_start(&mut self, sir: Sir) {
        let n = sir.total();
        self.seen.clear();
        self.seen.resize(n, false);
        self.agg.runs += 1;
        self.agg.sites = self.agg.sites.max(n as u64);
        self.agg.record_sir(0, sir);
    }

    /// Records one contact: `from` initiated, `to` responded, `sent`
    /// units moved of which `useful` were news. A useful contact marks
    /// both endpoints as holding the update (first mark records the
    /// delay).
    pub fn contact(&mut self, cycle: u32, from: usize, to: usize, sent: u64, useful: u64) {
        self.agg.totals.contacts += 1;
        self.agg.totals.sent += sent;
        self.agg.totals.useful += useful;
        if useful == 0 {
            self.agg.totals.fruitless += 1;
        } else {
            for site in [from, to] {
                if let Some(slot) = self.seen.get_mut(site) {
                    if !*slot {
                        *slot = true;
                        self.agg.delay.observe(f64::from(cycle));
                        self.agg.delay_max = self.agg.delay_max.max(u64::from(cycle));
                    }
                }
            }
        }
        self.agg.links.record(from as u64, to as u64, sent, useful);
    }

    /// Records the SIR state at the end of `cycle` (numbered from 1).
    pub fn cycle(&mut self, cycle: u32, sir: Sir) {
        self.agg.record_sir(cycle as usize, sir);
        self.agg.max_cycle = self.agg.max_cycle.max(u64::from(cycle));
    }

    /// A view of the aggregate accumulated so far.
    pub fn aggregate(&self) -> &RunAggregate {
        &self.agg
    }

    /// Consumes the sink, returning its aggregate.
    pub fn finish(self) -> RunAggregate {
        self.agg
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

    /// A tiny scripted run: 4 sites, origin 0, push-style contacts.
    fn scripted_sink() -> AggregatingSink {
        let mut sink = AggregatingSink::new();
        sink.run_start(sir(3, 1, 0));
        sink.contact(1, 0, 2, 1, 1); // 0 and 2 first hold at cycle 1
        sink.cycle(1, sir(2, 2, 0));
        sink.contact(2, 2, 1, 1, 1); // 1 first holds at cycle 2
        sink.contact(2, 0, 2, 1, 0); // fruitless
        sink.cycle(2, sir(1, 3, 0));
        sink.contact(3, 1, 3, 1, 1); // 3 first holds at cycle 3
        sink.cycle(3, sir(0, 3, 1));
        sink
    }

    #[test]
    fn delay_marks_each_site_once_at_first_useful_contact() {
        let agg = scripted_sink().finish();
        // Four sites marked: origin + 2 at cycle 1, site 1 at 2, site 3
        // at 3 → delays [1, 1, 2, 3].
        assert_eq!(agg.delay().count(), 4);
        assert_eq!(agg.delay_max, 3);
        assert!((agg.delay().sum() - 7.0).abs() < 1e-12);
        assert_eq!(agg.totals().contacts, 4);
        assert_eq!(agg.totals().fruitless, 1);
        assert_eq!(agg.max_cycle(), 3);
        assert_eq!(agg.sites(), 4);
        assert_eq!(agg.runs(), 1);
    }

    #[test]
    fn link_matrix_tracks_directed_pairs() {
        let agg = scripted_sink().finish();
        assert_eq!(agg.links().tracked_pairs(), 3);
        let cell = agg.links().get(0, 2).expect("pair (0,2) tracked");
        assert_eq!(cell.contacts, 2);
        assert_eq!(cell.sent, 2);
        assert_eq!(cell.useful, 1);
        assert_eq!(agg.links().totals().contacts, 4);
        assert_eq!(agg.links().overflow().contacts, 0);
    }

    #[test]
    fn link_cap_folds_new_pairs_into_overflow() {
        let mut links = LinkAggregate::default();
        for i in 0..(LINK_CAP as u64 + 10) {
            links.record(i, i + 1, 1, 1);
        }
        assert_eq!(links.tracked_pairs(), LINK_CAP);
        assert_eq!(links.overflow().contacts, 10);
        // A retained pair still updates in place.
        links.record(0, 1, 5, 0);
        assert_eq!(links.get(0, 1).unwrap().sent, 6);
        assert_eq!(links.totals().contacts, LINK_CAP as u64 + 11);
    }

    #[test]
    fn table_memory_follows_the_pairs_seen_not_the_cap() {
        let mut links = LinkAggregate::default();
        assert_eq!(links.index.capacity(), 0, "an unused matrix owns nothing");
        for i in 0..10 {
            links.record(i, i + 1, 1, 1);
        }
        assert_eq!(links.index.len(), 32);
        assert!(links.keys.capacity() < 64 && links.cells.capacity() < 64);
        // At the cap the index is exactly half full and stops growing.
        for i in 0..(2 * LINK_CAP as u64) {
            links.record(i, i + 1, 1, 1);
        }
        assert_eq!(links.index.len(), 2 * LINK_CAP);
    }

    #[test]
    fn sir_curve_sums_and_run_counts() {
        let agg = scripted_sink().finish();
        assert_eq!(agg.sir_s, [3, 2, 1, 0]);
        assert_eq!(agg.sir_i, [1, 2, 3, 3]);
        assert_eq!(agg.sir_r, [0, 0, 0, 1]);
        assert_eq!(agg.sir_runs, [1, 1, 1, 1]);
    }

    #[test]
    fn merge_matches_one_sink_observing_both_runs() {
        // Two runs through one sink...
        let mut both = AggregatingSink::new();
        both.run_start(sir(1, 1, 0));
        both.contact(1, 0, 1, 2, 1);
        both.cycle(1, sir(0, 2, 0));
        both.run_start(sir(2, 1, 0));
        both.contact(1, 1, 2, 1, 1);
        both.cycle(1, sir(1, 2, 0));
        both.contact(2, 1, 0, 1, 1);
        both.cycle(2, sir(0, 3, 0));
        // ...must equal two single-run sinks merged in the same order.
        let mut a = AggregatingSink::new();
        a.run_start(sir(1, 1, 0));
        a.contact(1, 0, 1, 2, 1);
        a.cycle(1, sir(0, 2, 0));
        let mut b = AggregatingSink::new();
        b.run_start(sir(2, 1, 0));
        b.contact(1, 1, 2, 1, 1);
        b.cycle(1, sir(1, 2, 0));
        b.contact(2, 1, 0, 1, 1);
        b.cycle(2, sir(0, 3, 0));
        let mut merged = a.finish();
        merged.merge(&b.finish());
        let direct = both.finish();
        assert_eq!(merged, direct);
        assert_eq!(merged.to_json(), direct.to_json());
        assert_eq!(merged.runs(), 2);
        assert_eq!(merged.sites(), 3);
    }

    #[test]
    fn seen_set_resets_between_runs() {
        let mut sink = AggregatingSink::new();
        sink.run_start(sir(1, 1, 0));
        sink.contact(1, 0, 1, 1, 1);
        sink.run_start(sir(1, 1, 0));
        sink.contact(2, 0, 1, 1, 1);
        let agg = sink.finish();
        // Both runs mark both sites: 4 delay samples, two at 1, two at 2.
        assert_eq!(agg.delay().count(), 4);
        assert!((agg.delay().sum() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn json_has_percentiles_and_no_wall_clock_fields() {
        let json = scripted_sink().finish().to_json();
        for key in [
            r#""runs":1"#,
            r#""sites":4"#,
            r#""p50":"#,
            r#""p90":"#,
            r#""p99":"#,
            r#""max":3"#,
            r#""tracked_pairs":3"#,
            r#""cells":[{"from":0"#,
        ] {
            assert!(json.contains(key), "{key} missing from {json}");
        }
        for forbidden in ["seconds", "nanos", "time", "rss"] {
            assert!(!json.contains(forbidden), "{forbidden} leaked into {json}");
        }
    }

    #[test]
    fn dense_export_lists_every_cell_and_truncated_export_caps() {
        let mut dense = AggregatingSink::new();
        dense.run_start(sir(9, 1, 0));
        for i in 0..5u32 {
            dense.contact(1, i as usize, i as usize + 1, 1, 1);
        }
        let dense_json = dense.finish().to_json();
        assert!(dense_json.contains(r#""truncated":false"#));

        let mut agg = RunAggregate::new();
        for i in 0..(LINK_DENSE_EXPORT as u64 + 1) {
            agg.links.record(i, i + 1, i + 1, 0);
        }
        let json = agg.to_json();
        assert!(json.contains(r#""truncated":true"#));
        // Top-K export: the heaviest cell leads.
        let heaviest = format!(r#""from":{}"#, LINK_DENSE_EXPORT);
        assert!(json.contains(&heaviest), "{json}");
        let cell_count = json.matches(r#""from":"#).count();
        assert_eq!(cell_count, LINK_TOP_K);
    }
}
