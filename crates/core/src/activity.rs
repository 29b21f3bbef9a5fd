//! Peel back ∪ rumor mongering: the failure-free hot-rumor list (§1.5).
//!
//! "Whereas before we needed a search tree to maintain reverse timestamp
//! order, we now use a doubly-linked list to maintain a *local activity
//! order*: sites send updates according to their local list order, and they
//! receive the usual rumor feedback that tells them when an update was
//! useful. The useful updates are moved to the front of their respective
//! lists, while the useless updates slip gradually deeper."
//!
//! Batches are sent from the head of the list until checksum agreement is
//! reached, so — unlike plain rumor mongering — the combined protocol has
//! **no failure probability**: any update can become hot again, and a full
//! pass over both lists is a complete anti-entropy exchange. Each entry it
//! ships is accounted exactly as §1.3's exchanges account theirs (landed
//! keys, awakened certificates); only the activity-list feedback is its
//! own.

use std::collections::VecDeque;
use std::hash::Hash;

use epidemic_db::{Entry, Timestamp};

use crate::anti_entropy::{count_delivery, ExchangeScratch, ExchangeStats};
use crate::replica::Replica;

/// A replica's *local activity order* over all of its keys: hottest first.
///
/// # Example
///
/// ```
/// use epidemic_core::activity::ActivityList;
/// let mut list: ActivityList<&str> = ActivityList::new();
/// list.touch("a");
/// list.touch("b");
/// list.touch("a"); // useful again: back to the front
/// assert_eq!(list.iter().copied().collect::<Vec<_>>(), ["a", "b"]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ActivityList<K> {
    order: VecDeque<K>,
}

impl<K: Eq + Clone> ActivityList<K> {
    /// Creates an empty list.
    pub fn new() -> Self {
        ActivityList {
            order: VecDeque::new(),
        }
    }

    /// Moves `key` to the front (inserting it if unseen) — called when the
    /// key was updated locally or proved useful to a partner.
    pub fn touch(&mut self, key: K) {
        self.order.retain(|k| k != &key);
        self.order.push_front(key);
    }

    /// Removes `key` (its entry was garbage-collected).
    pub(crate) fn forget(&mut self, key: &K) {
        self.order.retain(|k| k != key);
    }

    /// Iterates keys in activity order, hottest first.
    pub fn iter(&self) -> impl Iterator<Item = &K> {
        self.order.iter()
    }

    /// The key at `position` in activity order, if any.
    pub(crate) fn get(&self, position: usize) -> Option<&K> {
        self.order.get(position)
    }

    /// Brings the list in sync with the replica's database: keys missing
    /// from the list are prepended (newest timestamp first — fresh updates
    /// are the hottest); keys no longer in the database are dropped.
    pub(crate) fn sync_with<V: std::hash::Hash>(&mut self, replica: &Replica<K, V>)
    where
        K: Ord + Hash,
    {
        self.order.retain(|k| replica.db().entry(k).is_some());
        let mut fresh: Vec<(Timestamp, K)> = replica
            .db()
            .iter()
            .filter(|(k, _)| !self.order.contains(k))
            .map(|(k, e)| (e.timestamp(), k.clone()))
            .collect();
        fresh.sort_unstable_by_key(|a| a.0); // oldest first
        for (_, k) in fresh {
            self.order.push_front(k); // newest ends up at the very front
        }
    }
}

/// The combined peel-back / rumor-mongering exchange of §1.5.
///
/// Each conversation ships batches of entries from the head of each
/// participant's activity list until the two databases' checksums agree.
/// Useful updates move to the front of both parties' lists; sends of
/// already-known updates let them sink.
///
/// # Example
///
/// ```
/// use epidemic_core::activity::{ActivityList, PeelBackRumor};
/// use epidemic_core::{ExchangeScratch, Replica};
/// use epidemic_db::SiteId;
///
/// let mut a = Replica::new(SiteId::new(0));
/// let mut b = Replica::new(SiteId::new(1));
/// let (mut la, mut lb) = (ActivityList::new(), ActivityList::new());
/// a.client_update("k", 1);
///
/// let protocol = PeelBackRumor::new(4);
/// let mut scratch = ExchangeScratch::new();
/// protocol.exchange(&mut a, &mut la, &mut b, &mut lb, &mut scratch);
/// assert_eq!(a.db(), b.db());
/// assert_eq!(scratch.landed, [vec![], vec!["k"]]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PeelBackRumor {
    batch: usize,
}

impl PeelBackRumor {
    /// Creates the protocol with the given batch size (entries shipped per
    /// round before re-checking checksums).
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0`.
    pub fn new(batch: usize) -> Self {
        assert!(batch > 0, "batch size must be positive");
        PeelBackRumor { batch }
    }

    /// One conversation. Returns exchange statistics, and reports the keys
    /// it landed in `scratch` (see [`ExchangeScratch::landed`]); afterwards
    /// the two databases are identical (zero failure probability).
    pub fn exchange<K, V>(
        &self,
        a: &mut Replica<K, V>,
        a_list: &mut ActivityList<K>,
        b: &mut Replica<K, V>,
        b_list: &mut ActivityList<K>,
        scratch: &mut ExchangeScratch<K>,
    ) -> ExchangeStats
    where
        K: Ord + Clone + Hash + Eq,
        V: Clone + Hash + Eq,
    {
        let mut stats = ExchangeStats::default();
        scratch.landed.iter_mut().for_each(Vec::clear);
        let [landed_a, landed_b] = &mut scratch.landed;
        a_list.sync_with(a);
        b_list.sync_with(b);
        stats.checksum_exchanges += 1;
        if a.db().checksum() == b.db().checksum() {
            return stats;
        }
        let (mut ia, mut ib) = (0usize, 0usize);
        loop {
            let mut progressed = false;
            // One batch from each side, alternating.
            for _ in 0..self.batch {
                if let Some(key) = a_list.get(ia).cloned() {
                    ia += 1;
                    progressed = true;
                    let lists = (&mut *a_list, &mut *b_list);
                    Self::send_one(a, b, &key, true, lists, landed_b, &mut stats);
                }
                if let Some(key) = b_list.get(ib).cloned() {
                    ib += 1;
                    progressed = true;
                    let lists = (&mut *b_list, &mut *a_list);
                    Self::send_one(b, a, &key, false, lists, landed_a, &mut stats);
                }
            }
            stats.checksum_exchanges += 1;
            if a.db().checksum() == b.db().checksum() {
                return stats;
            }
            if !progressed {
                // Both lists exhausted; databases must now agree.
                debug_assert_eq!(a.db().checksum(), b.db().checksum());
                return stats;
            }
        }
    }

    /// Ships one entry `sender → receiver` with rumor feedback: useful
    /// updates are promoted to the front of both activity lists.
    fn send_one<K, V>(
        sender: &mut Replica<K, V>,
        receiver: &mut Replica<K, V>,
        key: &K,
        a_to_b: bool,
        (sender_list, receiver_list): (&mut ActivityList<K>, &mut ActivityList<K>),
        landed: &mut Vec<K>,
        stats: &mut ExchangeStats,
    ) where
        K: Ord + Clone + Hash + Eq,
        V: Clone + Hash + Eq,
    {
        let Some(entry) = sender.db().entry(key) else {
            sender_list.forget(key);
            return;
        };
        let receiver_ts = receiver.db().entry(key).map(Entry::timestamp);
        if receiver_ts == Some(entry.timestamp()) {
            return; // both sides already agree on this key: nothing to send
        }
        if a_to_b {
            stats.sent_ab += 1;
        } else {
            stats.sent_ba += 1;
        }
        stats.entries_scanned += 1;
        let outcome = receiver.receive_quietly_ref(key, entry);
        if outcome.was_useful() {
            // Rumor feedback: the update was news — to the front at both.
            sender_list.touch(key.clone());
            receiver_list.touch(key.clone());
        }
        count_delivery(outcome, key, landed, stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epidemic_db::SiteId;

    type R = Replica<&'static str, u32>;
    type L = ActivityList<&'static str>;

    fn exchange(p: PeelBackRumor, a: &mut R, la: &mut L, b: &mut R, lb: &mut L) -> ExchangeStats {
        p.exchange(a, la, b, lb, &mut ExchangeScratch::new())
    }

    fn setup() -> (R, L, R, L) {
        (
            Replica::new(SiteId::new(0)),
            ActivityList::new(),
            Replica::new(SiteId::new(1)),
            ActivityList::new(),
        )
    }

    #[test]
    fn converges_disjoint_databases() {
        let (mut a, mut la, mut b, mut lb) = setup();
        a.client_update("x", 1);
        b.client_update("y", 2);
        let stats = exchange(PeelBackRumor::new(2), &mut a, &mut la, &mut b, &mut lb);
        assert_eq!(a.db(), b.db());
        assert_eq!(stats.total_sent(), 2);
    }

    #[test]
    fn identical_databases_cost_one_checksum() {
        let (mut a, mut la, mut b, mut lb) = setup();
        a.client_update("x", 1);
        let p = PeelBackRumor::new(2);
        exchange(p, &mut a, &mut la, &mut b, &mut lb);
        let stats = exchange(p, &mut a, &mut la, &mut b, &mut lb);
        assert_eq!(stats.checksum_exchanges, 1);
        assert_eq!(stats.total_sent(), 0);
    }

    #[test]
    fn fresh_updates_ship_before_the_backlog() {
        let (mut a, mut la, mut b, mut lb) = setup();
        // Converge a large shared backlog first.
        let keys: Vec<&'static str> = (0..30)
            .map(|i| Box::leak(format!("k{i}").into_boxed_str()) as &'static str)
            .collect();
        for (i, k) in keys.iter().enumerate() {
            a.client_update(k, i as u32);
        }
        let p = PeelBackRumor::new(4);
        exchange(p, &mut a, &mut la, &mut b, &mut lb);
        assert_eq!(a.db(), b.db());
        // One fresh divergent update: only it (and at most a batch of
        // redundant candidates) is examined.
        a.client_update("fresh", 99);
        let stats = exchange(p, &mut a, &mut la, &mut b, &mut lb);
        assert_eq!(stats.total_sent(), 1, "only the fresh entry ships");
        assert_eq!(a.db(), b.db());
    }

    #[test]
    fn useful_updates_move_to_front_of_both_lists() {
        let (mut a, mut la, mut b, mut lb) = setup();
        a.client_update("old", 1);
        a.client_update("new", 2);
        exchange(PeelBackRumor::new(1), &mut a, &mut la, &mut b, &mut lb);
        // "new" shipped first (it heads a's activity list), then "old";
        // each useful transfer promotes its key, so "old" — the most
        // recently useful — now heads both lists.
        assert_eq!(la.get(0), Some(&"old"));
        assert_eq!(lb.get(0), Some(&"old"));
        assert_eq!(la.iter().count(), 2);
        assert_eq!(lb.iter().count(), 2);
    }

    #[test]
    fn sync_with_drops_vanished_keys_and_adds_fresh_ones() {
        let mut a: R = Replica::new(SiteId::new(0));
        let mut list = ActivityList::new();
        list.touch("ghost");
        a.client_update("real", 1);
        list.sync_with(&a);
        assert_eq!(list.iter().copied().collect::<Vec<_>>(), ["real"]);
    }

    #[test]
    fn never_fails_even_with_cold_rumors() {
        // Unlike plain rumor mongering, convergence is guaranteed no matter
        // the activity state: run many divergent updates through repeated
        // exchanges.
        let (mut a, mut la, mut b, mut lb) = setup();
        for i in 0..20u32 {
            if i % 2 == 0 {
                a.client_update(
                    Box::leak(format!("a{i}").into_boxed_str()) as &'static str,
                    i,
                );
            } else {
                b.client_update(
                    Box::leak(format!("b{i}").into_boxed_str()) as &'static str,
                    i,
                );
            }
        }
        exchange(PeelBackRumor::new(3), &mut a, &mut la, &mut b, &mut lb);
        assert_eq!(a.db(), b.db());
        assert_eq!(a.db().len(), 20);
    }
}
