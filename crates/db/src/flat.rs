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
//! spreading experiments, is just one heap block. Each row carries its
//! key's rank in that index, in padding its entry leaves free (a `u32`
//! key's row stays 32 bytes), so the pair naming a row is found without a
//! search.
//!
//! Cost model:
//!
//! * an empty store allocates nothing and a site's first entry costs
//!   **one** allocation (the row column, `reserve_exact(1)`); a run that
//!   knows how many keys it can mint sizes both blocks once, through
//!   [`Database::clear`](crate::Database::clear), so they never grow by
//!   doubling;
//! * a probe never reads a row: it binary-searches the index's own copy
//!   of the keys, so a rejected offer (most rumor offers are) touches the
//!   dense index and then the one row it names. The index holds the only second copy of
//!   each key, cloned once when the key is first stored and never on
//!   supersession — intern wide keys;
//! * placement is tail-first: the column position of a new or superseding
//!   row is found by galloping backwards from the newest row, and each row
//!   it displaces writes its new position into the pair its rank names —
//!   a row that lands at the very tail displaces nothing, so updates that
//!   arrive newest-first-ish stay in the rows already in cache;
//! * a key new to the index shifts the ranks of the keys after it by one,
//!   and a removed key those after it back: one write per shifted rank,
//!   none for a key that sorts last;
//! * a mutation far from the tail is `O(rows)` per site (a memmove of the
//!   rows between the old and the new position plus one write per row
//!   moved) — the trade is deliberate: per-site databases in every
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

/// One row of the column: a key, its entry and the key's rank in the
/// lookup index (0 while the store has no index).
#[derive(Debug, Clone)]
struct Row<K, V> {
    key: K,
    entry: Entry<V>,
    rank: u32,
}

/// Flat timestamp-sorted main store; see the module docs.
#[derive(Debug, Clone, Default)]
pub struct FlatStore<K, V> {
    /// Rows ascending by `(timestamp, key)`; walking backwards yields the
    /// peel-back (newest-first) order.
    rows: Vec<Row<K, V>>,
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

    /// Drops every row and keeps both heap blocks, growing each to hold
    /// `keys` rows if it is smaller, so a store that is refilled to its
    /// former size, or to `keys`, allocates nothing.
    pub(crate) fn clear(&mut self, keys: usize) {
        self.rows.clear();
        self.by_key.clear();
        self.finger = 0;
        self.rows.reserve_exact(keys);
        if keys > 1 {
            self.by_key.reserve_exact(keys);
        }
    }

    /// The entry for `key`, if present.
    pub fn get(&self, key: &K) -> Option<&Entry<V>> {
        match self.lookup(key) {
            Ok((_, pos)) => Some(&self.rows[pos].entry),
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
                let current = &self.rows[pos].entry;
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
        let row = self.remove_row(rank, pos);
        aux.checksum.toggle(&(&row.key, &row.entry));
        if !row.entry.is_dead() {
            *aux.live -= 1;
        }
        Some(row.entry)
    }

    /// Locates `key`: `Ok((rank, pos))` gives its rank in key order and
    /// its row position; `Err(rank)` gives the key-order insertion rank.
    fn lookup(&self, key: &K) -> Result<(usize, usize), usize> {
        if self.rows.len() < 2 {
            return match self.rows.first() {
                None => Err(0),
                Some(row) => match row.key.cmp(key) {
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
        let before = |row: &Row<K, V>| (row.entry.timestamp(), &row.key) < (at, key);
        gallop_back(&self.rows, self.rows.len(), before)
    }

    /// Hands each row at positions `moved` its position, in the index pair
    /// its rank names.
    fn patch(&mut self, moved: Range<usize>) {
        for pos in moved {
            self.by_key[self.rows[pos].rank as usize].1 = position(pos);
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
        let row = Row {
            key,
            entry,
            rank: position(rank),
        };
        self.rows.insert(pos, row);
        match self.rows.len() {
            // A lone row needs no index.
            1 => return,
            // The second row brings the index into being, lone row first.
            2 => {
                let lone = 1 - pos;
                self.by_key
                    .push((self.rows[lone].key.clone(), position(lone)));
            }
            len => self.patch(pos + 1..len),
        }
        self.by_key
            .insert(rank, (self.rows[pos].key.clone(), position(pos)));
        // Every key after the new one moved up a rank.
        for &(_, p) in &self.by_key[rank + 1..] {
            self.rows[p as usize].rank += 1;
        }
    }

    /// Removes the row at column position `pos` / key rank `rank`,
    /// maintaining the lookup index, and returns it.
    fn remove_row(&mut self, rank: usize, pos: usize) -> Row<K, V> {
        let row = self.rows.remove(pos);
        if self.rows.len() < 2 {
            self.by_key.clear();
            if let Some(lone) = self.rows.first_mut() {
                lone.rank = 0;
            }
        } else {
            self.patch(pos..self.rows.len());
            self.by_key.remove(rank);
            // Every key after the removed one moved down a rank.
            for &(_, p) in &self.by_key[rank..] {
                self.rows[p as usize].rank -= 1;
            }
        }
        row
    }

    /// Replaces the entry of the key at `(rank, pos)`, moving the row to
    /// its new timestamp position. The key's rank is unchanged (no other
    /// key moves in key order), so only positions are patched: no key is
    /// cloned.
    fn replace(&mut self, rank: usize, pos: usize, new: Entry<V>, aux: Aux<'_>) {
        let (key, old) = (&self.rows[pos].key, &self.rows[pos].entry);
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
            self.rows[pos].entry = new;
            return;
        }
        // Two memmoves that together cover only the rows between the old
        // and the new position; the row keeps its rank.
        let row = self.rows.remove(pos);
        debug_assert_eq!(row.rank as usize, rank, "a row carries its rank");
        self.rows.insert(dest, Row { entry: new, ..row });
        self.patch(pos.min(dest)..pos.max(dest) + 1);
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
        self.rows.iter().rev().map(|row| (&row.key, &row.entry))
    }

    /// Number of rows at most `tau` old at `now`: ages fall along the
    /// column, so those rows are its tail. The search gallops from where
    /// the last call found the list's start, so it costs `O(log d)` in how
    /// far that boundary has moved since — one or two row reads in steady
    /// state.
    pub fn recent_len(&mut self, now: u64, tau: u64) -> usize {
        let old = |row: &Row<K, V>| row.entry.timestamp().age(now) > tau;
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
        self.rows
            .iter()
            .rev()
            .nth(rank)
            .map(|row| (&row.key, &row.entry))
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
            self.rows.windows(2).all(|w| {
                (w[0].entry.timestamp(), &w[0].key) < (w[1].entry.timestamp(), &w[1].key)
            }),
            "rows must be strictly ascending by (timestamp, key)"
        );
        if self.rows.len() < 2 {
            assert!(self.by_key.is_empty(), "small stores carry no index");
            assert!(
                self.rows.iter().all(|row| row.rank == 0),
                "a lone row has rank 0"
            );
        } else {
            assert_eq!(self.by_key.len(), self.rows.len(), "index covers all rows");
            assert!(
                self.by_key.windows(2).all(|w| w[0].0 < w[1].0),
                "index must be strictly ascending by key"
            );
            assert!(
                self.by_key
                    .iter()
                    .all(|(k, p)| self.rows.get(*p as usize).is_some_and(|row| row.key == *k)),
                "every index pair names the row that holds its key"
            );
            assert!(
                (0..).zip(&self.rows).all(|(pos, row)| {
                    self.by_key
                        .get(row.rank as usize)
                        .is_some_and(|p| p.1 == pos)
                }),
                "every row's rank names its own index pair"
            );
        }
    }
}

/// Key-order iterator over a [`FlatStore`]: follows the lookup index when
/// present, or the bare column when the store holds at most one row (whose
/// order is trivially the key order).
#[derive(Debug, Clone)]
pub struct KeyOrderIter<'a, K, V> {
    rows: &'a [Row<K, V>],
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
        Some((&row.key, &row.entry))
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

    /// Applies `(key, time)` updates to `store`, checking the invariants
    /// after each one.
    fn fill(store: &mut FlatStore<u32, u32>, updates: impl IntoIterator<Item = (u32, u64)>) {
        let (mut checksum, mut live) = (Checksum::new(), 0);
        for (key, t) in updates {
            let entry = Entry::live(key, Timestamp::new(t, SiteId::new(0)));
            let aux = Aux {
                checksum: &mut checksum,
                live: &mut live,
            };
            store.apply_ref(&key, &entry, aux);
            store.check_invariants();
        }
    }

    /// A row's size is what a column walk, a placement memmove and the
    /// lockstep recent-list walk pay per row: a `u32` key's row carries its
    /// rank in the padding beside its entry. `clear(keys)` sizes both
    /// blocks for `keys` rows at once: filling them grows neither.
    #[test]
    fn rows_stay_small_and_clear_sizes_both_blocks() {
        assert_eq!(std::mem::size_of::<Row<u32, u32>>(), 32);
        assert!(std::mem::size_of::<Row<u32, u64>>() <= 40);
        let mut store = FlatStore::new();
        fill(&mut store, [(1, 1)]);
        store.clear(6);
        assert_eq!(store.capacities(), (6, 6));
        fill(&mut store, (0..6).map(|key| (5 - key, u64::from(key))));
        assert_eq!((store.len(), store.capacities()), (6, (6, 6)));
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
        let mut store = FlatStore::new();
        fill(&mut store, (1..=9).map(|t| (t, u64::from(t))));
        assert_eq!((store.recent_len(9, 3), store.finger), (4, 5));
        store.clear(0);
        assert_eq!(store.finger, 0);
    }
}
