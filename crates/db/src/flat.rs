//! The main-store layout behind [`Database`](crate::Database): one flat
//! column of rows per replica.
//!
//! [`FlatStore`] keeps the main store as one contiguous column of
//! `(key, entry)` rows sorted ascending by `(timestamp, key)` — precisely
//! the §1.3 peel-back order reversed. The recent-update list, the
//! timestamp index and peel-back iteration are all *derived* from the
//! column order by walking it backwards; nothing maintains a second tree.
//! Key lookup goes through a small key-inline index (`by_key`, `(key, row
//! position)` pairs sorted by key) that only exists once the store holds
//! two or more rows — a single-row site, the common case in epidemic
//! spreading experiments, is just one heap block.
//!
//! Cost model:
//!
//! * an empty store allocates nothing and a site's first entry costs
//!   **one** allocation (the row column, `reserve_exact(1)`);
//! * a probe never reads a row: it binary-searches the index's own copy
//!   of the keys, so a rejected offer (most rumor offers are) touches the
//!   dense index and then the one row it names. The index holds the only
//!   second copy of each key, cloned once when the key is first stored and
//!   never on supersession — intern wide keys;
//! * placement is tail-first: the column position of a new or superseding
//!   row is found by galloping backwards from the newest row, the few
//!   rows it displaces at the tail are re-indexed by key, and a row that
//!   lands at the very tail displaces nothing — so updates that arrive
//!   newest-first-ish stay in the rows already in cache;
//! * a mutation far from the tail is `O(rows)` per site (a memmove of the
//!   rows between the old and the new position plus one pass over the
//!   index) — the trade is deliberate: per-site databases in every
//!   experiment hold from one to a few hundred entries, while site
//!   *count* is large.
//!
//! The `flat_store_reference` suite pins the store against a naive
//! `BTreeMap` model over random update/delete/GC/offer histories.

use std::cmp::Ordering;
use std::hash::Hash;
use std::ops::Range;

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

/// A row position as the index stores it.
fn position(pos: usize) -> u32 {
    u32::try_from(pos).expect("flat store holds at most u32::MAX rows")
}

/// The partition point of `pred`, true on a prefix of `rows` and false
/// on every row from `hi` on: gallop backwards from `hi` (1, 2, 4… rows),
/// then bisect the bracket, so a boundary `d` rows below `hi` costs
/// `O(log d)` reads.
fn gallop_back<T>(rows: &[T], mut hi: usize, pred: impl Fn(&T) -> bool) -> usize {
    let mut step = 1;
    while hi > 0 {
        let lo = hi.saturating_sub(step);
        if pred(&rows[lo]) {
            return lo + 1 + rows[lo + 1..hi].partition_point(pred);
        }
        (hi, step) = (lo, step * 2);
    }
    0
}

/// Flat timestamp-sorted main store; see the module docs.
#[derive(Debug, Clone, Default)]
pub struct FlatStore<K, V> {
    /// Rows ascending by `(timestamp, key)`; walking backwards yields the
    /// peel-back (newest-first) order.
    rows: Vec<(K, Entry<V>)>,
    /// `(key, row position)` pairs sorted by key — the lookup index, with
    /// the keys inline so a probe never dereferences a row. Empty while
    /// the store holds fewer than two rows (a lone row needs no index).
    by_key: Vec<(K, u32)>,
    /// Where the last [`FlatStore::recent_len`] found the list's oldest
    /// row: the next call gallops from here.
    finger: u32,
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
            finger: 0,
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

    /// Drops every row and keeps both heap blocks, so a store that is
    /// refilled to its former size allocates nothing.
    pub(crate) fn clear(&mut self) {
        self.rows.clear();
        self.by_key.clear();
        self.finger = 0;
    }

    /// The entry for `key`, if present.
    pub fn get(&self, key: &K) -> Option<&Entry<V>> {
        match self.lookup(key) {
            Ok((_, pos)) => Some(&self.rows[pos].1),
            Err(_) => None,
        }
    }

    /// Merges a received entry under the §1.1 supersession rule, from
    /// borrowed data: the entry (and key) is cloned only when the offer
    /// actually supersedes.
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
        let rank = self.by_key.binary_search_by(|(k, _)| k.cmp(key))?;
        Ok((rank, self.by_key[rank].1 as usize))
    }

    /// Row position where an entry stamped `at` under `key` belongs: the
    /// number of rows ordered before `(at, key)`, galloped for from the
    /// newest row — so a timestamp newer than everything held costs one
    /// comparison and one among the recent rows reads only the column tail.
    fn row_position(&self, at: Timestamp, key: &K) -> usize {
        let before = |(k, e): &(K, Entry<V>)| (e.timestamp(), k) < (at, key);
        gallop_back(&self.rows, self.rows.len(), before)
    }

    /// Brings the index up to date with the rows now at positions `moved`,
    /// which a row inserted, removed or relocated beside them has just
    /// shifted by `delta` (±1). Placement is tail-first, so the typical
    /// shift moves a handful of rows at the column tail: those are looked
    /// up by key and handed their position. A shift of a large part of
    /// the column (an old key superseded, say) is one pass over the index
    /// instead. A shift at the very tail moves no row and costs nothing.
    fn reindex(&mut self, moved: Range<usize>, delta: i32) {
        // A bisection step costs about what two pairs of the pass do.
        let steps_per_lookup = (usize::BITS - self.by_key.len().leading_zeros()) as usize;
        if moved.len() * steps_per_lookup * 2 < self.by_key.len() {
            for pos in moved {
                let key = &self.rows[pos].0;
                let rank = self
                    .by_key
                    .binary_search_by(|(k, _)| k.cmp(key))
                    .expect("every row but the one being placed is indexed");
                self.by_key[rank].1 = position(pos);
            }
        } else {
            let moved = position(moved.start)..position(moved.end);
            // Branch-free: after out-of-order supersessions positions are
            // scattered over key order, and a test per pair mispredicts.
            for (_, p) in &mut self.by_key {
                let shifted = p.wrapping_add_signed(delta);
                *p = if moved.contains(&shifted) {
                    shifted
                } else {
                    *p
                };
            }
        }
    }

    /// Installs a key not currently present, at key rank `rank`.
    fn insert_fresh(&mut self, rank: usize, key: K, entry: Entry<V>, aux: Aux<'_>) {
        aux.checksum.toggle(&(&key, &entry));
        if !entry.is_dead() {
            *aux.live += 1;
        }
        let pos = self.row_position(entry.timestamp(), &key);
        if self.rows.is_empty() {
            // One exact block for the ubiquitous single-entry site; the
            // allocator's doubling growth takes over beyond that.
            self.rows.reserve_exact(1);
        }
        self.rows.insert(pos, (key, entry));
        match self.rows.len() {
            // A lone row needs no index.
            1 => return,
            // The second row brings the index into being, lone row first.
            2 => {
                let lone = 1 - pos;
                self.by_key
                    .push((self.rows[lone].0.clone(), position(lone)));
            }
            len => self.reindex(pos + 1..len, 1),
        }
        self.by_key
            .insert(rank, (self.rows[pos].0.clone(), position(pos)));
    }

    /// Removes the row at column position `pos` / key rank `rank`,
    /// maintaining the lookup index, and returns it.
    fn remove_row(&mut self, rank: usize, pos: usize) -> (K, Entry<V>) {
        let row = self.rows.remove(pos);
        if self.rows.len() < 2 {
            self.by_key.clear();
        } else {
            self.by_key.remove(rank);
            self.reindex(pos..self.rows.len(), -1);
        }
        row
    }

    /// Replaces the entry of the key at `(rank, pos)`, moving the row to
    /// its new timestamp position. The key's rank is unchanged (no other
    /// key moves in key order), so its index pair stays where it is and
    /// only positions are patched: no key is cloned.
    fn replace(&mut self, rank: usize, pos: usize, new: Entry<V>, aux: Aux<'_>) {
        let (key, old) = &self.rows[pos];
        aux.checksum.toggle(&(key, old));
        if !old.is_dead() {
            *aux.live -= 1;
        }
        aux.checksum.toggle(&(key, &new));
        if !new.is_dead() {
            *aux.live += 1;
        }
        // The old row is still in the column and counts towards the
        // position when it is ordered before the new entry.
        let among_all = self.row_position(new.timestamp(), key);
        let dest = if among_all > pos {
            among_all - 1
        } else {
            among_all
        };
        if dest == pos {
            self.rows[pos].1 = new;
            return;
        }
        // Two memmoves that together cover only the rows between the old
        // and the new position.
        let (key, _) = self.rows.remove(pos);
        self.rows.insert(dest, (key, new));
        if dest > pos {
            self.reindex(pos..dest, -1);
        } else {
            self.reindex(dest + 1..pos + 1, 1);
        }
        // A lone row never moves, so the pair exists.
        self.by_key[rank].1 = position(dest);
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

    /// Number of rows at most `tau` old at `now`: ages fall along the
    /// column, so those rows are its tail. The search gallops from where
    /// the last call found the list's start, so it costs `O(log d)` in how
    /// far that boundary has moved since — one or two row reads in steady
    /// state.
    pub fn recent_len(&mut self, now: u64, tau: u64) -> usize {
        let old = |(_, e): &(K, Entry<V>)| e.timestamp().age(now) > tau;
        // Gallop forwards while the rows are old, then back to the start.
        let (len, mut hi, mut step) = (self.rows.len(), self.finger as usize, 1);
        while hi < len && old(&self.rows[hi]) {
            (hi, step) = ((hi + step).min(len), step * 2);
        }
        let start = gallop_back(&self.rows, hi.min(len), old);
        debug_assert_eq!(start, self.rows.partition_point(old), "finger search");
        self.finger = position(start);
        self.rows.len() - start
    }

    /// The row `rank` places below the newest: [`FlatStore::newest_first`]'s
    /// item at `rank`, read in `O(1)`.
    pub(crate) fn nth_newest(&self, rank: usize) -> Option<(&K, &Entry<V>)> {
        self.rows.iter().rev().nth(rank).map(|(k, e)| (k, e))
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
                self.by_key.windows(2).all(|w| w[0].0 < w[1].0),
                "index must be strictly ascending by key"
            );
            assert!(
                self.by_key
                    .iter()
                    .all(|(k, p)| self.rows.get(*p as usize).is_some_and(|row| row.0 == *k)),
                "every index pair names the row that holds its key"
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
    by_key: &'a [(K, u32)],
    idx: usize,
}

impl<'a, K, V> Iterator for KeyOrderIter<'a, K, V> {
    type Item = (&'a K, &'a Entry<V>);

    fn next(&mut self) -> Option<Self::Item> {
        let row = if self.by_key.is_empty() {
            self.rows.get(self.idx)?
        } else {
            &self.rows[self.by_key.get(self.idx)?.1 as usize]
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
            let out = self.store.apply_ref(&key, &entry, aux);
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
        let times: Vec<u64> = h
            .store
            .newest_first()
            .map(|(_, e)| e.timestamp().time())
            .collect();
        assert_eq!(times, [9, 4, 2, 1]);
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

    /// The backward gallop is the whole-slice bisection from every bound
    /// at or above the boundary of every small slice.
    #[test]
    fn gallop_back_is_the_partition_point_from_every_bound() {
        for len in 0..=9 {
            for point in 0..=len {
                let rows: Vec<bool> = (0..len).map(|i| i < point).collect();
                for hi in point..=len {
                    let found = gallop_back(&rows, hi, |&before| before);
                    assert_eq!(found, point, "{len} rows, bound {hi}");
                }
            }
        }
    }

    /// The finger rests where the recent list starts; `clear()` resets it.
    #[test]
    fn the_finger_rests_where_the_recent_list_starts() {
        let mut h = Harness::new();
        for t in 1..=9 {
            h.apply(t, Entry::live(0, ts(u64::from(t))));
        }
        assert_eq!((h.store.recent_len(9, 3), h.store.finger), (4, 5));
        h.store.clear();
        assert_eq!(h.store.finger, 0);
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
            .newest_first()
            .map(|(k, e)| (e.timestamp().time(), *k))
            .collect();
        assert_eq!(order, [(100, 1), (75, 4), (75, 3), (75, 0), (50, 2)]);
    }
}
