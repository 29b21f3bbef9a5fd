//! Internal helpers shared by the simulation drivers.

use std::hash::Hash;

use epidemic_core::Replica;
use epidemic_db::SiteId;

/// Site ids `0..n`.
pub(crate) fn site_ids(n: usize) -> impl ExactSizeIterator<Item = SiteId> {
    (0..n).map(|i| SiteId::new(u32::try_from(i).expect("site count fits u32")))
}

/// Makes `replicas` the replicas [`Replica::new`] builds for `sites`, in
/// order, resetting the ones already there so a trial arena keeps every
/// capacity an earlier run grew, each store sized for `keys` entries.
pub(crate) fn reset_replicas<V: Hash>(
    replicas: &mut Vec<Replica<u32, V>>,
    sites: impl ExactSizeIterator<Item = SiteId>,
    keys: usize,
) {
    replicas.truncate(sites.len());
    for (i, site) in sites.enumerate() {
        if i == replicas.len() {
            replicas.push(Replica::new(site));
        }
        replicas[i].reset(site, keys);
    }
}

/// Mutable references to two distinct elements of a slice.
///
/// # Panics
///
/// Panics if `i == j` or either index is out of bounds.
pub(crate) fn pair_mut<T>(slice: &mut [T], i: usize, j: usize) -> (&mut T, &mut T) {
    let [a, b] = slice
        .get_disjoint_mut([i, j])
        .expect("a site cannot exchange with itself");
    (a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_mut_returns_requested_elements() {
        let mut v = [10, 20, 30, 40];
        let (a, b) = pair_mut(&mut v, 3, 1);
        assert_eq!((*a, *b), (40, 20));
        *a = 0;
        *b = 1;
        assert_eq!(v, [10, 1, 30, 0]);
    }

    #[test]
    #[should_panic(expected = "itself")]
    fn pair_mut_rejects_equal_indices() {
        let mut v = [1, 2];
        let _ = pair_mut(&mut v, 1, 1);
    }
}
