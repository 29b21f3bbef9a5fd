//! The main-store layout behind [`Database`](crate::Database): one flat
//! column of rows per replica.
//!
//! [`FlatStore`] keeps the main store as one contiguous column of
//! `(key, entry)` rows sorted ascending by `(timestamp, key)` — precisely
//! the §1.3 peel-back order reversed. The recent-update list, the
//! timestamp index and peel-back iteration are all *derived* from the
//! column order by walking it backwards; nothing maintains a second tree.
//! Key lookup goes through a small position index (`by_key`, row positions
//! sorted by key) that only exists once the store holds two or more rows —
//! a single-row site, the common case in epidemic spreading experiments,
//! is just one heap block.
//!
//! Cost model:
//!
//! * an empty store allocates nothing and a site's first entry costs
//!   **one** allocation (the row column, `reserve_exact(1)`);
//! * supersession of the newest entry (the steady-state epidemic path) is
//!   a pop-and-push at the column tail, no rebalancing;
//! * any other mutation is `O(rows)` per site (a `Vec` shift plus an index
//!   fix-up) — the trade is deliberate: per-site databases in every
//!   experiment hold from one to a few hundred entries, while site
//!   *count* is large.
//!
//! The `flat_store_reference` suite pins the store against a naive
//! `BTreeMap` model over random update/delete/GC/offer histories.

use std::cmp::Ordering;
use std::hash::Hash;

use crate::checksum::Checksum;
use crate::item::{ApplyOutcome, Entry};
use crate::timestamp::Timestamp;

/// Mutable views of the invariants [`Database`](crate::Database) owns —
/// the incremental checksum and the live count — lent to each mutating
/// call so the store updates them inline, at the single probe that
/// located the row.
#[derive(Debug)]
pub struct Aux<'a> {
    /// The order-independent checksum over all `(key, entry)` pairs (§1.3).
    pub checksum: &'a mut Checksum,
    /// Number of live (non-death-certificate) entries.
    pub live: &'a mut usize,
}

/// Flat timestamp-sorted main store; see the module docs.
#[derive(Debug, Clone, Default)]
pub struct FlatStore<K, V> {
    /// Rows ascending by `(timestamp, key)`; walking backwards yields the
    /// peel-back (newest-first) order.
    rows: Vec<(K, Entry<V>)>,
    /// Row positions sorted by key — the lookup index. Empty while the
    /// store holds fewer than two rows (a lone row needs no index).
    by_key: Vec<u32>,
}

impl<K, V> FlatStore<K, V>
where
    K: Ord + Clone + Hash,
    V: Hash,
{
    /// Creates an empty store. Allocates nothing.
    pub fn new() -> Self {
        FlatStore {
            rows: Vec::new(),
            by_key: Vec::new(),
        }
    }

    /// Number of stored entries (live values plus death certificates).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The entry for `key`, if present.
    pub fn get(&self, key: &K) -> Option<&Entry<V>> {
        match self.lookup(key) {
            Ok((_, pos)) => Some(&self.rows[pos].1),
            Err(_) => None,
        }
    }

    /// Merges an owned entry under the §1.1 supersession rule.
    pub fn apply(&mut self, key: K, entry: Entry<V>, aux: Aux<'_>) -> ApplyOutcome {
        match self.lookup(&key) {
            Ok((rank, pos)) => {
                let current = &self.rows[pos].1;
                if !entry.supersedes(current) {
                    return if current.timestamp() == entry.timestamp() {
                        ApplyOutcome::AlreadyKnown
                    } else {
                        ApplyOutcome::Obsolete
                    };
                }
                self.replace(rank, pos, entry, aux);
                ApplyOutcome::Applied
            }
            Err(rank) => {
                self.insert_fresh(rank, key, entry, aux);
                ApplyOutcome::Applied
            }
        }
    }

    /// [`FlatStore::apply`] from borrowed data: clones the entry (and key)
    /// only when the offer actually supersedes.
    pub fn apply_ref(&mut self, key: &K, entry: &Entry<V>, aux: Aux<'_>) -> ApplyOutcome
    where
        V: Clone,
    {
        match self.lookup(key) {
            Ok((rank, pos)) => {
                let current = &self.rows[pos].1;
                if !entry.supersedes(current) {
                    return if current.timestamp() == entry.timestamp() {
                        ApplyOutcome::AlreadyKnown
                    } else {
                        ApplyOutcome::Obsolete
                    };
                }
                self.replace(rank, pos, entry.clone(), aux);
                ApplyOutcome::Applied
            }
            Err(rank) => {
                self.insert_fresh(rank, key.clone(), entry.clone(), aux);
                ApplyOutcome::Applied
            }
        }
    }

    /// Installs an entry unconditionally (client updates and deletions).
    pub fn install(&mut self, key: K, entry: Entry<V>, aux: Aux<'_>) {
        match self.lookup(&key) {
            Ok((rank, pos)) => self.replace(rank, pos, entry, aux),
            Err(rank) => self.insert_fresh(rank, key, entry, aux),
        }
    }

    /// Removes an entry outright (garbage collection), returning it.
    pub fn remove(&mut self, key: &K, aux: Aux<'_>) -> Option<Entry<V>> {
        let (rank, pos) = self.lookup(key).ok()?;
        let (k, old) = self.remove_row(rank, pos);
        aux.checksum.toggle(&(&k, &old));
        if !old.is_dead() {
            *aux.live -= 1;
        }
        Some(old)
    }

    /// Locates `key`: `Ok((rank, pos))` gives its rank in key order and
    /// its row position; `Err(rank)` gives the key-order insertion rank.
    fn lookup(&self, key: &K) -> Result<(usize, usize), usize> {
        if self.rows.len() < 2 {
            return match self.rows.first() {
                None => Err(0),
                Some((k, _)) => match k.cmp(key) {
                    Ordering::Equal => Ok((0, 0)),
                    Ordering::Less => Err(1),
                    Ordering::Greater => Err(0),
                },
            };
        }
        match self
            .by_key
            .binary_search_by(|&p| self.rows[p as usize].0.cmp(key))
        {
            Ok(rank) => Ok((rank, self.by_key[rank] as usize)),
            Err(rank) => Err(rank),
        }
    }

    /// Row position where an entry stamped `at` under `key` belongs. The
    /// common case — a fresh timestamp newer than everything held — is a
    /// single comparison against the column tail.
    fn row_position(&self, at: Timestamp, key: &K) -> usize {
        match self.rows.last() {
            Some((k, e)) if (e.timestamp(), k) < (at, key) => self.rows.len(),
            None => 0,
            _ => self
                .rows
                .partition_point(|(k, e)| (e.timestamp(), k) < (at, key)),
        }
    }

    /// Inserts a row at column position `pos` / key rank `rank`,
    /// maintaining the lookup index.
    fn insert_row(&mut self, rank: usize, pos: usize, key: K, entry: Entry<V>) {
        if self.rows.is_empty() {
            // One exact block for the ubiquitous single-entry site; the
            // allocator's doubling growth takes over beyond that.
            self.rows.reserve_exact(1);
        }
        self.rows.insert(pos, (key, entry));
        match self.rows.len() {
            1 => {}
            2 => self.rebuild_index(),
            _ => {
                let pos32 = u32::try_from(pos).expect("flat store holds at most u32::MAX rows");
                for p in &mut self.by_key {
                    if *p >= pos32 {
                        *p += 1;
                    }
                }
                self.by_key.insert(rank, pos32);
            }
        }
    }

    /// Removes the row at column position `pos` / key rank `rank`,
    /// maintaining the lookup index, and returns it.
    fn remove_row(&mut self, rank: usize, pos: usize) -> (K, Entry<V>) {
        let row = self.rows.remove(pos);
        if self.rows.len() < 2 {
            self.by_key.clear();
        } else {
            let pos32 = u32::try_from(pos).expect("flat store holds at most u32::MAX rows");
            self.by_key.remove(rank);
            for p in &mut self.by_key {
                if *p > pos32 {
                    *p -= 1;
                }
            }
        }
        row
    }

    /// Rebuilds the lookup index from the rows (used on the 1 → 2 row
    /// transition; the cleared index retains its capacity thereafter).
    fn rebuild_index(&mut self) {
        self.by_key.clear();
        let len = u32::try_from(self.rows.len()).expect("flat store holds at most u32::MAX rows");
        self.by_key.extend(0..len);
        let rows = &self.rows;
        self.by_key
            .sort_unstable_by(|&a, &b| rows[a as usize].0.cmp(&rows[b as usize].0));
    }

    /// Installs a key not currently present.
    fn insert_fresh(&mut self, rank: usize, key: K, entry: Entry<V>, aux: Aux<'_>) {
        aux.checksum.toggle(&(&key, &entry));
        if !entry.is_dead() {
            *aux.live += 1;
        }
        let pos = self.row_position(entry.timestamp(), &key);
        self.insert_row(rank, pos, key, entry);
    }

    /// Replaces the entry of the key at `(rank, pos)`, re-sorting the row
    /// to its new timestamp position. The key's rank is unchanged (no
    /// other key moves in key order), so the index round-trips exactly.
    fn replace(&mut self, rank: usize, pos: usize, new: Entry<V>, aux: Aux<'_>) {
        let (key, old) = self.remove_row(rank, pos);
        aux.checksum.toggle(&(&key, &old));
        if !old.is_dead() {
            *aux.live -= 1;
        }
        aux.checksum.toggle(&(&key, &new));
        if !new.is_dead() {
            *aux.live += 1;
        }
        let pos = self.row_position(new.timestamp(), &key);
        self.insert_row(rank, pos, key, new);
    }

    /// Iterates `(key, entry)` pairs in key order.
    pub fn iter(&self) -> KeyOrderIter<'_, K, V> {
        KeyOrderIter {
            rows: &self.rows,
            by_key: &self.by_key,
            idx: 0,
        }
    }

    /// Iterates entries in reverse `(timestamp, key)` order — the §1.3
    /// peel-back order, i.e. the column walked backwards.
    pub fn newest_first(&self) -> impl Iterator<Item = (&K, &Entry<V>)> {
        self.rows.iter().rev().map(|(k, e)| (k, e))
    }

    /// The derived timestamp index as bare `(timestamp, key)` pairs,
    /// newest first.
    pub fn timestamp_index(&self) -> impl Iterator<Item = (Timestamp, &K)> {
        self.rows.iter().rev().map(|(k, e)| (e.timestamp(), k))
    }

    /// Capacities of the row column and the lookup index: what the store
    /// holds on the heap.
    #[cfg(test)]
    pub(crate) fn capacities(&self) -> (usize, usize) {
        (self.rows.capacity(), self.by_key.capacity())
    }

    /// Asserts the internal invariants (row order, index consistency).
    /// Exposed for the differential test suite.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        assert!(
            self.rows
                .windows(2)
                .all(|w| (w[0].1.timestamp(), &w[0].0) < (w[1].1.timestamp(), &w[1].0)),
            "rows must be strictly ascending by (timestamp, key)"
        );
        if self.rows.len() < 2 {
            assert!(self.by_key.is_empty(), "small stores carry no index");
        } else {
            assert_eq!(self.by_key.len(), self.rows.len(), "index covers all rows");
            assert!(
                self.by_key
                    .windows(2)
                    .all(|w| self.rows[w[0] as usize].0 < self.rows[w[1] as usize].0),
                "index must be strictly ascending by key"
            );
        }
    }
}

/// Key-order iterator over a [`FlatStore`]: follows the lookup index when
/// present, or the bare column when the store holds at most one row (whose
/// order is trivially the key order).
#[derive(Debug, Clone)]
pub struct KeyOrderIter<'a, K, V> {
    rows: &'a [(K, Entry<V>)],
    by_key: &'a [u32],
    idx: usize,
}

impl<'a, K, V> Iterator for KeyOrderIter<'a, K, V> {
    type Item = (&'a K, &'a Entry<V>);

    fn next(&mut self) -> Option<Self::Item> {
        let row = if self.by_key.is_empty() {
            self.rows.get(self.idx)?
        } else {
            &self.rows[*self.by_key.get(self.idx)? as usize]
        };
        self.idx += 1;
        Some((&row.0, &row.1))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.rows.len() - self.idx;
        (left, Some(left))
    }
}

impl<K, V> ExactSizeIterator for KeyOrderIter<'_, K, V> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timestamp::SiteId;

    fn ts(t: u64) -> Timestamp {
        Timestamp::new(t, SiteId::new(0))
    }

    /// Drives a store through scripted operations with live aux state.
    struct Harness {
        store: FlatStore<u32, u32>,
        checksum: Checksum,
        live: usize,
    }

    impl Harness {
        fn new() -> Self {
            Harness {
                store: FlatStore::new(),
                checksum: Checksum::new(),
                live: 0,
            }
        }

        fn remove(&mut self, key: u32) -> Option<Entry<u32>> {
            let aux = Aux {
                checksum: &mut self.checksum,
                live: &mut self.live,
            };
            let out = self.store.remove(&key, aux);
            self.store.check_invariants();
            out
        }

        fn apply(&mut self, key: u32, entry: Entry<u32>) -> ApplyOutcome {
            let aux = Aux {
                checksum: &mut self.checksum,
                live: &mut self.live,
            };
            let out = self.store.apply(key, entry, aux);
            self.store.check_invariants();
            out
        }
    }

    #[test]
    fn apply_respects_supersession() {
        let mut h = Harness::new();
        assert_eq!(h.apply(7, Entry::live(1, ts(1))), ApplyOutcome::Applied);
        assert_eq!(
            h.apply(7, Entry::live(1, ts(1))),
            ApplyOutcome::AlreadyKnown
        );
        assert_eq!(h.apply(7, Entry::live(2, ts(2))), ApplyOutcome::Applied);
        assert_eq!(h.apply(7, Entry::live(1, ts(1))), ApplyOutcome::Obsolete);
        assert_eq!(h.store.get(&7).unwrap().value(), Some(&2));
        assert_eq!(h.live, 1);
    }

    #[test]
    fn iteration_orders_agree_with_definitions() {
        let mut h = Harness::new();
        for (key, t) in [(30u32, 4), (10, 2), (20, 9), (40, 1)] {
            h.apply(key, Entry::live(key, ts(t)));
        }
        let key_order: Vec<u32> = h.store.iter().map(|(k, _)| *k).collect();
        assert_eq!(key_order, [10, 20, 30, 40]);
        let peel: Vec<u32> = h.store.newest_first().map(|(k, _)| *k).collect();
        assert_eq!(peel, [20, 30, 10, 40]);
        let index: Vec<u64> = h.store.timestamp_index().map(|(t, _)| t.time()).collect();
        assert_eq!(index, [9, 4, 2, 1]);
    }

    #[test]
    fn remove_keeps_index_consistent_through_size_transitions() {
        let mut h = Harness::new();
        for key in 0..5u32 {
            h.apply(key, Entry::live(key, ts(u64::from(key) + 1)));
        }
        for key in [2u32, 0, 4, 3, 1] {
            assert!(h.remove(key).is_some());
        }
        assert_eq!(h.store.len(), 0);
        assert_eq!(h.live, 0);
        assert_eq!(h.checksum, Checksum::new());
    }

    #[test]
    fn single_row_store_needs_no_index() {
        let mut h = Harness::new();
        h.apply(3, Entry::live(1, ts(1)));
        assert!(h.store.by_key.is_empty());
        assert_eq!(h.store.get(&3).unwrap().value(), Some(&1));
        assert_eq!(h.store.get(&4), None);
        // Supersede in place: still one row, still no index.
        h.apply(3, Entry::live(2, ts(5)));
        assert!(h.store.by_key.is_empty());
        assert_eq!(h.store.len(), 1);
    }

    #[test]
    fn out_of_order_timestamps_sort_into_the_column() {
        let mut h = Harness::new();
        h.apply(1, Entry::live(1, ts(100)));
        h.apply(2, Entry::live(2, ts(50))); // older arrives later
        h.apply(3, Entry::live(3, ts(75)));
        // A reused timestamp is ordered by key, on either side of key 3.
        h.apply(4, Entry::live(4, ts(75)));
        h.apply(0, Entry::live(0, ts(75)));
        let order: Vec<(u64, u32)> = h
            .store
            .timestamp_index()
            .map(|(t, k)| (t.time(), *k))
            .collect();
        assert_eq!(order, [(100, 1), (75, 4), (75, 3), (75, 0), (50, 2)]);
    }
}
