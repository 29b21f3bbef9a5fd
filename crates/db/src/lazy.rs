//! Lazily materialized site rows: storage that grows with *receipts*,
//! not with the fleet.
//!
//! Every other container in this crate is built per site, up front. At
//! the megascale sweep's 10⁶–10⁷ sites that is the dominant cost of the
//! whole experiment, paid mostly for *susceptible* sites: they hold no
//! data yet, and a single-update epidemic touches each at most once.
//!
//! [`LazyTable`] inverts the construction: a site gets **no row at all
//! until its first write**. Rows are appended in write order into three
//! parallel columns (site, value, write cycle), the struct-of-arrays
//! discipline of [`crate::flat::FlatStore`] shared by the whole fleet; a
//! value type of `()` (the megascale fast path's) makes its column free.
//! Address space follows `n`: the columns are reserved for every site up
//! front, so no push copies a column. Resident memory follows receipts:
//! only the pages of pushed rows are ever touched.
//!
//! The table is deliberately minimal: one (implicit) key, first write
//! wins, no deletions — exactly the shape of a single-update epidemic,
//! where a receipt is immutable history. Callers that need "has this
//! site a row?" in O(1) keep a bitset alongside (the megascale fast
//! path's `has_entry`); the table itself never scans.

/// An append-only, first-write-wins columnar table of per-site rows.
///
/// `V` is the replicated value type. Row order is write order, which for
/// deterministic callers makes the whole table a pure function of the
/// run — the differential suites compare tables across engines
/// byte-for-byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LazyTable<V> {
    n: usize,
    sites: Vec<u32>,
    values: Vec<V>,
    cycles: Vec<u32>,
}

impl<V> LazyTable<V> {
    /// An empty table over a fleet of `n` sites, its columns reserved
    /// for `n` rows: a reservation is address space, and a row's pages
    /// become resident only when it is pushed.
    pub fn new(n: usize) -> Self {
        LazyTable {
            n,
            sites: Vec::with_capacity(n),
            values: Vec::with_capacity(n),
            cycles: Vec::with_capacity(n),
        }
    }

    /// Materializes `site`'s row: its first (and only) write of `value`
    /// at `cycle`.
    ///
    /// The caller guarantees first-write — the megascale protocol gates
    /// on its `has_entry` bitset. Debug builds verify it.
    pub fn push(&mut self, site: u32, value: V, cycle: u32) {
        debug_assert!((site as usize) < self.n, "site {site} out of range");
        debug_assert!(
            !self.sites.contains(&site),
            "site {site} already materialized"
        );
        self.sites.push(site);
        self.values.push(value);
        self.cycles.push(cycle);
    }

    /// Number of sites in the fleet (materialized or not).
    pub fn site_count(&self) -> usize {
        self.n
    }

    /// Number of materialized rows.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// Whether no site has materialized a row yet.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// Write cycles, in write order.
    pub fn cycles(&self) -> &[u32] {
        &self.cycles
    }

    /// Rows as `(site, value, cycle)`, in write order.
    pub fn rows(&self) -> impl Iterator<Item = (u32, &V, u32)> + '_ {
        self.sites
            .iter()
            .zip(self.values.iter())
            .zip(self.cycles.iter())
            .map(|((&s, v), &c)| (s, v, c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_materialize_in_write_order_only() {
        let mut table: LazyTable<u32> = LazyTable::new(100);
        assert!(table.is_empty());
        assert_eq!(table.site_count(), 100);
        table.push(7, 70, 1);
        table.push(3, 30, 2);
        table.push(99, 990, 2);
        assert_eq!(table.len(), 3);
        assert_eq!(
            table.rows().collect::<Vec<_>>(),
            vec![(7, &70, 1), (3, &30, 2), (99, &990, 2)]
        );
        assert_eq!(table.cycles(), &[1, 2, 2]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "already materialized")]
    fn double_write_is_a_bug() {
        let mut table: LazyTable<u32> = LazyTable::new(10);
        table.push(1, 1, 0);
        table.push(1, 2, 1);
    }
}
