//! Property-based tests for the replica store invariants.
//!
//! The central claims: replicas form a join semilattice (merge is
//! commutative, associative, idempotent), the incremental checksum always
//! matches a from-scratch recomputation, and the peel-back order is sound.

use epidemic_db::{Database, Entry, OfferOutcome, SiteId, Timestamp};
use proptest::prelude::*;

/// An abstract update operation for generating random histories.
#[derive(Debug, Clone)]
enum Op {
    Put {
        key: u8,
        value: u16,
        time: u64,
        site: u8,
    },
    Del {
        key: u8,
        time: u64,
        site: u8,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), any::<u16>(), 1u64..500, 0u8..8).prop_map(|(key, value, time, site)| {
            Op::Put {
                key,
                value,
                time,
                site,
            }
        }),
        (any::<u8>(), 1u64..500, 0u8..8).prop_map(|(key, time, site)| Op::Del { key, time, site }),
    ]
}

fn as_entry(op: &Op) -> (u8, Entry<u16>) {
    match *op {
        Op::Put {
            key,
            value,
            time,
            site,
        } => (
            key,
            Entry::live(value, Timestamp::new(time, SiteId::new(site as u32))),
        ),
        Op::Del { key, time, site } => (
            key,
            Entry::dead(Timestamp::new(time, SiteId::new(site as u32))),
        ),
    }
}

/// Offers a received entry. These histories never park a dormant
/// certificate, so the offer is the plain §1.1 merge and its receipt
/// stamp is never read.
fn merge(db: &mut Database<u8, u16>, key: u8, entry: &Entry<u16>) -> OfferOutcome {
    db.offer_ref(&key, entry, Timestamp::new(0, SiteId::new(0)))
}

fn replay(ops: &[Op]) -> Database<u8, u16> {
    let mut db = Database::new();
    for op in ops {
        let (k, e) = as_entry(op);
        merge(&mut db, k, &e);
    }
    db
}

proptest! {
    /// Merging the same operations in any order yields identical replicas —
    /// the convergence property that makes anti-entropy correct.
    #[test]
    fn merge_is_order_independent(ops in prop::collection::vec(op_strategy(), 0..60), seed in any::<u64>()) {
        let forward = replay(&ops);
        let mut shuffled = ops.clone();
        // Deterministic Fisher–Yates driven by the seed.
        let mut state = seed | 1;
        for i in (1..shuffled.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            shuffled.swap(i, j);
        }
        let backward = replay(&shuffled);
        prop_assert_eq!(&forward, &backward);
        prop_assert_eq!(forward.checksum(), backward.checksum());
    }

    /// Applying any entry twice is a no-op the second time.
    #[test]
    fn merge_is_idempotent(ops in prop::collection::vec(op_strategy(), 1..40)) {
        let mut db = replay(&ops);
        let checksum = db.checksum();
        let len = db.len();
        for op in &ops {
            let (k, e) = as_entry(op);
            let out = merge(&mut db, k, &e);
            prop_assert_ne!(out, OfferOutcome::Applied);
        }
        prop_assert_eq!(db.checksum(), checksum);
        prop_assert_eq!(db.len(), len);
    }

    /// The incremental checksum never drifts from a full recomputation.
    #[test]
    fn incremental_checksum_is_exact(ops in prop::collection::vec(op_strategy(), 0..80)) {
        let mut db = Database::new();
        for op in &ops {
            let (k, e) = as_entry(op);
            merge(&mut db, k, &e);
            prop_assert_eq!(db.checksum(), db.recompute_checksum());
        }
    }

    /// Equal checksums coincide with equal contents on random histories
    /// (no collisions at this scale), and unequal contents give unequal
    /// checksums.
    #[test]
    fn checksum_discriminates(a in prop::collection::vec(op_strategy(), 0..40),
                              b in prop::collection::vec(op_strategy(), 0..40)) {
        let da = replay(&a);
        let db_ = replay(&b);
        prop_assert_eq!(da == db_, da.checksum() == db_.checksum());
    }

    /// newest_first yields every entry exactly once, in non-increasing
    /// timestamp order (ties are possible only because this generator may
    /// reuse a timestamp across keys; real clocks never do).
    #[test]
    fn peel_back_order_is_sound(ops in prop::collection::vec(op_strategy(), 0..60)) {
        let db = replay(&ops);
        let listed: Vec<_> = db.newest_first().collect();
        prop_assert_eq!(listed.len(), db.len());
        for w in listed.windows(2) {
            prop_assert!(w[0].1.timestamp() >= w[1].1.timestamp());
        }
        let mut keys: Vec<_> = listed.iter().map(|(k, _)| **k).collect();
        keys.sort_unstable();
        keys.dedup();
        prop_assert_eq!(keys.len(), db.len());
    }

    /// The final value of each key equals the maximum-timestamp operation
    /// on that key (last-writer-wins semantics).
    #[test]
    fn last_writer_wins(ops in prop::collection::vec(op_strategy(), 0..60)) {
        let db = replay(&ops);
        let mut expected: std::collections::BTreeMap<u8, Entry<u16>> = Default::default();
        for op in &ops {
            let (k, e) = as_entry(op);
            match expected.get(&k) {
                Some(cur) if !e.supersedes(cur) => {}
                _ => { expected.insert(k, e); }
            }
        }
        prop_assert_eq!(db.len(), expected.len());
        for (k, e) in &expected {
            prop_assert_eq!(db.entry(k), Some(e));
        }
    }
}
