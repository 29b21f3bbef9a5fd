//! Lazily materialized site rows: storage that grows with *receipts*,
//! not with the fleet.
//!
//! Every other container in this crate is built per site, up front — a
//! [`Database`](crate::Database) (or a whole `Replica`) for each of `n`
//! sites, before the first update flows. At CIN scale that is free; at
//! the megascale sweep's 10⁶–10⁷ sites it is the dominant cost of the
//! whole experiment, paid mostly for sites that are *susceptible*: they
//! hold no data yet, and a single-update epidemic touches each of them
//! at most once.
//!
//! [`LazyTable`] inverts the construction: a site gets **no row at all
//! until its first write**. Rows are appended in write order into three
//! parallel columns (site, value, write cycle) — the same
//! struct-of-arrays discipline as the per-replica store
//! ([`crate::flat::FlatStore`]), but shared by the entire fleet instead
//! of instantiated per replica. Startup cost and resident footprint are
//! both proportional to the number of sites that actually received
//! something.
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
    /// An empty table over a fleet of `n` sites. Allocates nothing
    /// per-site: capacity grows only as rows are pushed.
    pub fn new(n: usize) -> Self {
        LazyTable {
            n,
            sites: Vec::new(),
            values: Vec::new(),
            cycles: Vec::new(),
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

    /// Values, in write order.
    pub fn values(&self) -> &[V] {
        &self.values
    }

    /// Write cycles, in write order (parallel to [`LazyTable::values`]).
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
    fn identical_histories_produce_identical_tables() {
        let build = || {
            let mut t: LazyTable<u8> = LazyTable::new(10);
            t.push(0, 1, 0);
            t.push(4, 1, 3);
            t
        };
        assert_eq!(build(), build());
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
