//! Lazily materialized site rows: storage that grows with *receipts*,
//! not with the fleet — the layer the benchmark's megascale replay
//! prices (the simulator's megascale sweep keeps two bits per site and
//! no rows).
//!
//! [`LazyTable`] gives a site **no row at all until its first write**.
//! Rows are appended in write order into three parallel columns (site,
//! value, write cycle), the struct-of-arrays discipline of
//! [`crate::flat::FlatStore`] shared by the whole fleet. Address space
//! follows `n`: the columns are reserved for every site up front, so no
//! push copies a column. Resident memory follows receipts: only the pages
//! of pushed rows are ever touched.
//!
//! The table is deliberately minimal: one (implicit) key, first write
//! wins, no deletions — exactly the shape of a single-update epidemic,
//! where a receipt is immutable history. Callers that need "has this
//! site a row?" in O(1) keep a bitset alongside; the table never scans.

/// An append-only, first-write-wins columnar table of per-site rows.
///
/// `V` is the replicated value type. Row order is write order, which for
/// deterministic callers makes the whole table a pure function of the
/// run.
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
    /// The caller guarantees first-write (a bitset of holders gates it).
    /// Debug builds verify it.
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

    /// Number of materialized rows.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// Whether no site has materialized a row yet.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_materialize_in_write_order_only() {
        let mut table: LazyTable<u32> = LazyTable::new(100);
        assert!(table.is_empty());
        table.push(7, 70, 1);
        table.push(3, 30, 2);
        table.push(99, 990, 2);
        assert_eq!(table.len(), 3);
        assert_eq!(
            (table.sites, table.values, table.cycles),
            (vec![7, 3, 99], vec![70, 30, 990], vec![1, 2, 2])
        );
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
