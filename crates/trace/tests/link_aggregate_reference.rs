//! Differential tests: the flat first-come [`LinkAggregate`] is
//! observationally equivalent to the `BTreeMap` link matrix it replaced.
//!
//! The model below *is* the old implementation — a tree keyed by
//! `(from, to)` under the same first-come [`LINK_CAP`] and overflow cell,
//! whose `merge` walks the other tree in key order. Generated histories of
//! per-trial `record` streams folded by `merge` (several of them crossing
//! the cap, some with adversarial key shapes for the hash index) must leave
//! both with the same tracked set, every cell, the overflow, `totals`,
//! `top(k)` and — through [`AggregatingSink`]/[`RunAggregate`] — the same
//! `to_json` bytes. The crate stays dependency-free, so histories come from
//! a local SplitMix64 stream rather than a property-testing crate.

use std::collections::BTreeMap;

use epidemic_trace::aggregate::LINK_CAP;
use epidemic_trace::json::{array_of, JsonObject};
use epidemic_trace::{AggregatingSink, LinkAggregate, LinkCell, RunAggregate, Sir};

/// The reference: the pre-flat-table `LinkAggregate`, verbatim in shape.
#[derive(Debug, Clone, Default)]
struct Model {
    cells: BTreeMap<(u64, u64), LinkCell>,
    overflow: LinkCell,
}

fn add(into: &mut LinkCell, cell: &LinkCell) {
    into.contacts += cell.contacts;
    into.sent += cell.sent;
    into.useful += cell.useful;
}

impl Model {
    fn record(&mut self, from: u64, to: u64, sent: u64, useful: u64) {
        let cell = LinkCell {
            contacts: 1,
            sent,
            useful,
        };
        self.record_cell(from, to, &cell);
    }

    fn record_cell(&mut self, from: u64, to: u64, cell: &LinkCell) {
        if let Some(slot) = self.cells.get_mut(&(from, to)) {
            add(slot, cell);
        } else if self.cells.len() < LINK_CAP {
            self.cells.insert((from, to), *cell);
        } else {
            add(&mut self.overflow, cell);
        }
    }

    fn merge(&mut self, other: &Model) {
        for (&(from, to), cell) in &other.cells {
            self.record_cell(from, to, cell);
        }
        add(&mut self.overflow, &other.overflow);
    }

    fn totals(&self) -> LinkCell {
        let mut t = self.overflow;
        for cell in self.cells.values() {
            add(&mut t, cell);
        }
        t
    }

    fn sorted(&self) -> Vec<((u64, u64), LinkCell)> {
        self.cells.iter().map(|(&key, &cell)| (key, cell)).collect()
    }

    fn top(&self, k: usize) -> Vec<((u64, u64), LinkCell)> {
        let mut all = self.sorted();
        all.sort_by(|a, b| b.1.sent.cmp(&a.1.sent).then(a.0.cmp(&b.0)));
        all.truncate(k);
        all
    }

    /// The `"links"` object of `RunAggregate::to_json`, rendered from the
    /// model under the documented export rule (every cell up to 256 pairs,
    /// else the 32 heaviest).
    fn links_json(&self) -> String {
        let cell_json = |cell: &LinkCell| {
            let mut o = JsonObject::new();
            o.field_u64("contacts", cell.contacts)
                .field_u64("sent", cell.sent)
                .field_u64("useful", cell.useful);
            o.finish()
        };
        let truncated = self.cells.len() > 256;
        let exported = if truncated {
            self.top(32)
        } else {
            self.sorted()
        };
        let cells = array_of(exported.iter().map(|((from, to), cell)| {
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
            .field_u64("tracked_pairs", self.cells.len() as u64)
            .field_bool("truncated", truncated)
            .field_raw("totals", &cell_json(&self.totals()))
            .field_raw("overflow", &cell_json(&self.overflow))
            .field_raw("cells", &cells);
        links.finish()
    }
}

fn assert_equivalent(flat: &LinkAggregate, model: &Model, ctx: &str) {
    assert_eq!(flat.tracked_pairs(), model.cells.len(), "{ctx}: tracked");
    assert_eq!(flat.cells(), model.sorted(), "{ctx}: cells in key order");
    assert_eq!(flat.overflow(), &model.overflow, "{ctx}: overflow");
    assert_eq!(flat.totals(), model.totals(), "{ctx}: totals");
    for (&(from, to), cell) in &model.cells {
        assert_eq!(flat.get(from, to), Some(cell), "{ctx}: get({from},{to})");
    }
    for k in [0, 1, 32, LINK_CAP + 1] {
        assert_eq!(flat.top(k), model.top(k), "{ctx}: top({k})");
    }
}

/// SplitMix64: the test's only source of "randomness".
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// How a history's site indices are shaped. The last three stress the
/// hash index: runs of adjacent pairs, keys that differ only above bit 32,
/// and keys that differ only in `to`.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// Uniform pairs over `sites²` (crosses the cap when `sites² > 4096`).
    Uniform { sites: u64 },
    /// `(i, i + 1)` chains.
    Chain { sites: u64 },
    /// Indices shifted into the high half of the word.
    HighBits { sites: u64 },
    /// One hub initiating to many partners.
    Hub { partners: u64 },
}

impl Shape {
    fn pair(self, g: &mut Gen) -> (u64, u64) {
        match self {
            Shape::Uniform { sites } => (g.below(sites), g.below(sites)),
            Shape::Chain { sites } => {
                let i = g.below(sites);
                (i, i + 1)
            }
            Shape::HighBits { sites } => (g.below(sites) << 40, g.below(sites) << 33),
            Shape::Hub { partners } => (7, g.below(partners)),
        }
    }
}

/// One generated history: `trials` contact streams, each recorded into a
/// fresh aggregate and folded into a running total in trial order —
/// exactly what the trial runner does with per-trial sinks.
fn run_history(seed: u64, shape: Shape, trials: usize, contacts: usize) {
    let mut g = Gen(seed);
    let mut total_flat = LinkAggregate::default();
    let mut total_model = Model::default();
    let mut total_run = RunAggregate::new();
    for trial in 0..trials {
        let ctx = format!("seed {seed} {shape:?} trial {trial}");
        let mut flat = LinkAggregate::default();
        let mut model = Model::default();
        let mut sink = AggregatingSink::new();
        sink.run_start(Sir {
            susceptible: 9,
            infective: 1,
            removed: 0,
        });
        // Vary the stream length so some trials stay under the cap while
        // the fold crosses it.
        let len = 1 + g.below(contacts as u64) as usize;
        for _ in 0..len {
            let (from, to) = shape.pair(&mut g);
            let sent = g.below(4);
            let useful = g.below(sent + 1);
            flat.record(from, to, sent, useful);
            model.record(from, to, sent, useful);
            sink.contact(1, from as usize, to as usize, sent, useful);
        }
        assert_equivalent(&flat, &model, &format!("{ctx} (per-trial)"));

        total_flat.merge(&flat);
        total_model.merge(&model);
        total_run.merge(&sink.finish());
        assert_equivalent(&total_flat, &total_model, &format!("{ctx} (fold)"));
        assert_eq!(
            total_run.links(),
            &total_flat,
            "{ctx}: sink path ≡ direct path"
        );
    }
    let json = total_run.to_json();
    let expected = format!(r#""links":{}"#, total_model.links_json());
    assert!(
        json.contains(&expected),
        "seed {seed} {shape:?}: links JSON differs from the model\nmodel: {expected}\nflat:  {json}"
    );
}

#[test]
fn flat_table_matches_the_btreemap_model_on_generated_histories() {
    let shapes = [
        // Small and dense: every cell exported, nothing overflows.
        (Shape::Uniform { sites: 6 }, 6, 200),
        // Truncated export, under the cap.
        (Shape::Uniform { sites: 40 }, 6, 900),
        // Each trial under the cap, the fold crosses it.
        (Shape::Uniform { sites: 80 }, 8, 2_500),
        // Each trial crosses the cap on its own (the n = 1000 figures).
        (Shape::Uniform { sites: 1_000 }, 4, 9_000),
        (Shape::Chain { sites: 6_000 }, 5, 5_000),
        (Shape::HighBits { sites: 90 }, 5, 5_000),
        (Shape::Hub { partners: 5_000 }, 5, 5_000),
    ];
    for (shape, trials, contacts) in shapes {
        for seed in 0..4 {
            run_history(seed, shape, trials, contacts);
        }
    }
}

#[test]
fn a_cap_crossing_merge_admits_in_key_order_not_contact_order() {
    // `total` is one pair short of the cap.
    let mut total = LinkAggregate::default();
    let mut total_model = Model::default();
    for i in 0..(LINK_CAP as u64 - 1) {
        total.record(1_000 + i, 0, 1, 1);
        total_model.record(1_000 + i, 0, 1, 1);
    }
    // The trial met (9, 9) first and (1, 1) second — contact order would
    // hand the last cell to (9, 9).
    let mut trial = LinkAggregate::default();
    let mut trial_model = Model::default();
    for (from, to) in [(9, 9), (1, 1)] {
        trial.record(from, to, 5, 2);
        trial_model.record(from, to, 5, 2);
    }
    total.merge(&trial);
    total_model.merge(&trial_model);

    assert_eq!(total.tracked_pairs(), LINK_CAP);
    let kept = LinkCell {
        contacts: 1,
        sent: 5,
        useful: 2,
    };
    assert_eq!(
        total.get(1, 1),
        Some(&kept),
        "(1, 1) sorts first and is admitted"
    );
    assert_eq!(total.get(9, 9), None, "(9, 9) arrives past the cap");
    assert_eq!(total.overflow(), &kept, "and folds into the overflow cell");
    assert_equivalent(&total, &total_model, "cap-crossing merge");
}

#[test]
fn equality_is_by_tracked_set_not_admission_order() {
    let contacts = [(3, 4, 2, 1), (0, 1, 1, 0), (3, 4, 1, 1), (8, 2, 0, 0)];
    let mut forward = LinkAggregate::default();
    let mut backward = LinkAggregate::default();
    for &(from, to, sent, useful) in &contacts {
        forward.record(from, to, sent, useful);
    }
    for &(from, to, sent, useful) in contacts.iter().rev() {
        backward.record(from, to, sent, useful);
    }
    assert_eq!(forward, backward);
    backward.record(8, 2, 1, 0);
    assert_ne!(forward, backward);
    assert_ne!(LinkAggregate::default(), forward);
}
