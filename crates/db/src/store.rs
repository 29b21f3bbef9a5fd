//! The versioned replica store (paper §1.1).

use std::collections::BTreeMap;
use std::hash::Hash;

use crate::checksum::Checksum;
use crate::death::{DeathCertificate, DeathStage, GcPolicy, GcStats};
use crate::flat::{Aux, FlatStore, KeyOrderIter};
use crate::item::{ApplyOutcome, Entry};
use crate::timestamp::{SimClock, SiteId, Timestamp};

/// One replica of the database: the time-varying partial function
/// `ValueOf : K → (v ∪ NIL, t)` of §1.1.
///
/// The replica maintains three auxiliary structures the paper's protocols
/// need, all kept consistent incrementally:
///
/// * an order-independent [`Checksum`] of all entries (§1.3),
/// * an inverted timestamp (peel-back) order over the entries (§1.3),
///   derived from the [`FlatStore`] column order,
/// * a side store of *dormant* death certificates (§2.1) that are held but
///   neither counted in the checksum nor propagated.
///
/// # Example
///
/// ```
/// use epidemic_db::{Database, SimClock, SiteId};
///
/// let mut clock = SimClock::new(SiteId::new(0));
/// let mut db = Database::new();
/// db.update("user:alice", "MV:PARC", &mut clock);
/// db.update("user:bob", "MV:SDD", &mut clock);
/// assert_eq!(db.live_len(), 2);
///
/// db.delete(&"user:bob", &mut clock);
/// assert_eq!(db.live_len(), 1);
/// assert_eq!(db.len(), 2); // the death certificate still occupies space
/// ```
#[derive(Debug, Clone)]
pub struct Database<K, V> {
    store: FlatStore<K, V>,
    dormant: BTreeMap<K, DeathCertificate>,
    checksum: Checksum,
    live: usize,
}

/// Outcome of [`Database::offer_ref`], which adds dormant-death-certificate
/// handling (§2.2–2.3) on top of the plain [`ApplyOutcome`] merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OfferOutcome {
    /// The entry was newer and was installed.
    Applied,
    /// The replica already held this exact version.
    AlreadyKnown,
    /// The replica held a strictly newer version.
    Obsolete,
    /// The entry was an obsolete copy of an item with a *dormant* death
    /// certificate here; the certificate was awakened (its activation
    /// timestamp set to now) and reinstalled for propagation. The caller
    /// should treat the certificate as a new hot rumor (§2.3).
    AwakenedDormant,
}

impl OfferOutcome {
    /// True if the receiving replica needed the offered entry.
    pub fn was_useful(self) -> bool {
        matches!(self, OfferOutcome::Applied)
    }
}

impl From<ApplyOutcome> for OfferOutcome {
    fn from(outcome: ApplyOutcome) -> Self {
        match outcome {
            ApplyOutcome::Applied => OfferOutcome::Applied,
            ApplyOutcome::AlreadyKnown => OfferOutcome::AlreadyKnown,
            ApplyOutcome::Obsolete => OfferOutcome::Obsolete,
        }
    }
}

impl<K, V> Database<K, V>
where
    K: Ord + Clone + Hash,
    V: Hash,
{
    /// Creates an empty replica. Allocates nothing until the first entry.
    pub fn new() -> Self {
        Database {
            store: FlatStore::new(),
            dormant: BTreeMap::new(),
            checksum: Checksum::new(),
            live: 0,
        }
    }

    /// Returns the replica to its [`Database::new`] state — no entries, no
    /// dormant certificates, the empty checksum — keeping the main store's
    /// capacity and growing it to `keys` entries if it holds fewer, so a
    /// replica reused for another run, or sized for the keys a run can
    /// mint, refills without allocating.
    pub fn clear(&mut self, keys: usize) {
        self.store.clear(keys);
        self.dormant.clear();
        self.checksum = Checksum::new();
        self.live = 0;
    }

    /// The checksum and live count, lent to one store mutation.
    fn aux(&mut self) -> (&mut FlatStore<K, V>, Aux<'_>) {
        (
            &mut self.store,
            Aux {
                checksum: &mut self.checksum,
                live: &mut self.live,
            },
        )
    }

    /// Number of entries, live values plus (non-dormant) death certificates.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether the replica holds no entries at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of live (non-deleted) values.
    pub fn live_len(&self) -> usize {
        self.live
    }

    /// Number of death certificates held in the main store.
    pub fn dead_len(&self) -> usize {
        self.len() - self.live
    }

    /// Number of dormant death certificates held in the side store.
    pub fn dormant_len(&self) -> usize {
        self.dormant.len()
    }

    /// The client-visible value for `key`: `None` both for absent keys and
    /// for keys with a death certificate (§1.1: a NIL pair "is the same as
    /// `ValueOf[k]` is undefined" from a client's perspective).
    pub fn get(&self, key: &K) -> Option<&V> {
        self.entry(key).and_then(Entry::value)
    }

    /// The full versioned entry for `key`, including death certificates.
    pub fn entry(&self, key: &K) -> Option<&Entry<V>> {
        self.store.get(key)
    }

    /// The dormant death certificate for `key`, if this site retains one.
    pub fn dormant_certificate(&self, key: &K) -> Option<&DeathCertificate> {
        self.dormant.get(key)
    }

    /// Whether [`Database::offer_ref`]ing an entry for `key` stamped
    /// `timestamp` would change this database — either by installing the
    /// entry or by touching a dormant death certificate. A borrow-only
    /// prefilter: senders consult it to avoid cloning entries the
    /// recipient already holds.
    pub fn would_accept(&self, key: &K, timestamp: Timestamp) -> bool {
        if self.dormant.contains_key(key) {
            // The offer either awakens the certificate (obsolete data) or
            // supersedes and drops it — a state change either way.
            return true;
        }
        match self.entry(key) {
            Some(current) => timestamp > current.timestamp(),
            None => true,
        }
    }

    /// The incrementally maintained checksum over all `(key, entry)` pairs
    /// in the main store (§1.3).
    pub fn checksum(&self) -> Checksum {
        self.checksum
    }

    /// Performs the client `Update` operation of §1.1: stamps `value` with a
    /// fresh timestamp from the local clock and installs it.
    ///
    /// Returns the timestamp assigned to the update.
    pub fn update(&mut self, key: K, value: V, clock: &mut SimClock) -> Timestamp {
        let at = clock.now();
        self.install(key, Entry::live(value, at));
        at
    }

    /// Deletes `key` by installing a death certificate (§2) with no
    /// retention sites. Returns the deletion timestamp.
    pub fn delete(&mut self, key: &K, clock: &mut SimClock) -> Timestamp {
        let at = clock.now();
        self.install(key.clone(), Entry::dead(at));
        at
    }

    /// Deletes `key` with a death certificate whose dormant copies will be
    /// retained at the given sites (§2.1). Returns the deletion timestamp.
    pub fn delete_with_retention(
        &mut self,
        key: &K,
        retention: Vec<SiteId>,
        clock: &mut SimClock,
    ) -> Timestamp {
        let at = clock.now();
        self.install(
            key.clone(),
            Entry::dead_with(DeathCertificate::with_retention(at, retention)),
        );
        at
    }

    /// Merges a received entry under the §1.1 supersession rule: install it
    /// iff its timestamp is strictly newer than what the replica holds.
    /// The entry is cloned only when it actually supersedes, so an
    /// obsolete or already-known offer costs a single store probe.
    ///
    /// This is the pure semilattice join; [`Database::offer_ref`] also
    /// honors dormant death certificates.
    pub(crate) fn apply_ref(&mut self, key: &K, entry: &Entry<V>) -> ApplyOutcome
    where
        V: Clone,
    {
        let (store, aux) = self.aux();
        store.apply_ref(key, entry, aux)
    }

    /// Merges a received entry, first consulting the dormant
    /// death-certificate store (§2.2–2.3). Every protocol offers the
    /// sender's entry by reference; it is cloned only when the offer
    /// changes this database.
    ///
    /// If the entry is an obsolete copy of an item whose certificate lies
    /// dormant here, the certificate is *awakened*: its activation timestamp
    /// is set to `now`, it moves back into the main store, and
    /// [`OfferOutcome::AwakenedDormant`] asks the caller to propagate it
    /// afresh. If the entry is *newer* than the dormant certificate (a
    /// legitimate reinstatement or re-deletion), the certificate is simply
    /// superseded and dropped.
    pub fn offer_ref(&mut self, key: &K, entry: &Entry<V>, now: Timestamp) -> OfferOutcome
    where
        V: Clone,
    {
        if let Some(dc) = self.dormant.get(key) {
            if entry.timestamp() <= dc.deleted_at() {
                let mut dc = self.dormant.remove(key).expect("checked above");
                dc.reactivate(now);
                self.install(key.clone(), Entry::dead_with(dc));
                return OfferOutcome::AwakenedDormant;
            }
            self.dormant.remove(key);
        }
        self.apply_ref(key, entry).into()
    }

    /// Installs an entry unconditionally, maintaining checksum, peel-back
    /// order and live count. Client mutation funnels through here.
    fn install(&mut self, key: K, entry: Entry<V>) {
        let (store, aux) = self.aux();
        store.install(key, entry, aux)
    }

    /// Iterates over all `(key, entry)` pairs in key order.
    pub fn iter(&self) -> KeyOrderIter<'_, K, V> {
        self.store.iter()
    }

    /// Iterates over entries in **reverse timestamp order** — the *peel
    /// back* order of §1.3/§1.5.
    pub fn newest_first(&self) -> impl Iterator<Item = (&K, &Entry<V>)> {
        self.store.newest_first()
    }

    /// The *recent update list* (§1.3) as bare `(timestamp, key)` pairs:
    /// the entries whose timestamp age relative to `now` is at most `tau`,
    /// newest first, read straight off the peel-back order so that no
    /// entry is cloned until a recipient actually takes it.
    pub fn recent_index(&self, now: u64, tau: u64) -> impl Iterator<Item = (Timestamp, &K)> {
        self.newest_first()
            .map(|(k, e)| (e.timestamp(), k))
            .take_while(move |(t, _)| t.age(now) <= tau)
    }

    /// Length of the recent update list — what
    /// [`Database::recent_index`]`(now, tau)` yields — found by a finger
    /// search from where the last call found the list's end.
    pub fn recent_len(&mut self, now: u64, tau: u64) -> usize {
        self.store.recent_len(now, tau)
    }

    /// The entry `rank` places below the newest: [`Database::newest_first`]'s
    /// item at `rank`, read in `O(1)`.
    pub fn nth_newest(&self, rank: usize) -> Option<(&K, &Entry<V>)> {
        self.store.nth_newest(rank)
    }

    /// Discards or parks death certificates according to `policy`, as
    /// evaluated at `site` with local time `now` (§2.1).
    ///
    /// Under [`GcPolicy::Dormant`], certificates entering their dormant
    /// stage at a retention site move to the side store (no longer counted
    /// in the checksum, no longer propagated); everywhere else they are
    /// discarded. Expired dormant copies are discarded too.
    pub fn collect_garbage(&mut self, site: SiteId, now: u64, policy: GcPolicy) -> GcStats {
        let mut stats = GcStats::default();
        let mut discard = Vec::new();
        let mut park = Vec::new();
        for (key, entry) in self.iter() {
            let Entry::Dead(dc) = entry else { continue };
            match policy {
                GcPolicy::KeepForever => stats.active += 1,
                GcPolicy::FixedThreshold { .. } => {
                    if policy.discards(dc, site, now) {
                        discard.push(key.clone());
                    } else {
                        stats.active += 1;
                    }
                }
                GcPolicy::Dormant { tau1, tau2 } => match dc.stage(site, now, tau1, tau2) {
                    DeathStage::Active => stats.active += 1,
                    DeathStage::Dormant => park.push(key.clone()),
                    DeathStage::Expired => discard.push(key.clone()),
                },
            }
        }
        for key in discard {
            self.remove_entry(&key);
            stats.discarded += 1;
        }
        for key in park {
            if let Some(Entry::Dead(dc)) = self.remove_entry(&key) {
                self.dormant.insert(key, *dc);
                stats.dormant += 1;
            }
        }
        // Expire dormant copies that have outlived tau1 + tau2.
        if let GcPolicy::Dormant { tau1, tau2 } = policy {
            let before = self.dormant.len();
            self.dormant
                .retain(|_, dc| dc.stage(site, now, tau1, tau2) != DeathStage::Expired);
            stats.discarded += before - self.dormant.len();
            stats.dormant = self.dormant.len();
        }
        stats
    }

    /// Removes an entry outright, maintaining the auxiliary structures.
    /// Used by garbage collection; ordinary deletion goes through
    /// [`Database::delete`] so that a death certificate is left behind.
    fn remove_entry(&mut self, key: &K) -> Option<Entry<V>> {
        let (store, aux) = self.aux();
        store.remove(key, aux)
    }

    /// Recomputes the checksum from scratch. Exposed for tests and
    /// invariant audits; always equals [`Database::checksum`].
    pub fn recompute_checksum(&self) -> Checksum {
        let mut sum = Checksum::new();
        for (k, e) in self.iter() {
            sum.toggle(&(k, e));
        }
        sum
    }
}

impl<K, V> Default for Database<K, V>
where
    K: Ord + Clone + Hash,
    V: Hash,
{
    fn default() -> Self {
        Database::new()
    }
}

impl<K, V> PartialEq for Database<K, V>
where
    K: Ord + Clone + Hash,
    V: Hash + PartialEq,
{
    /// Two replicas are equal when their main stores agree — the
    /// convergence goal `∀ s, s′ : s.ValueOf = s′.ValueOf` of §1.1.
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl<K, V> Eq for Database<K, V>
where
    K: Ord + Clone + Hash,
    V: Hash + Eq,
{
}

impl<'a, K, V> IntoIterator for &'a Database<K, V>
where
    K: Ord + Clone + Hash,
    V: Hash,
{
    type Item = (&'a K, &'a Entry<V>);
    type IntoIter = KeyOrderIter<'a, K, V>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clock(site: u32) -> SimClock {
        SimClock::new(SiteId::new(site))
    }

    #[test]
    fn update_then_get() {
        let mut c = clock(0);
        let mut db = Database::new();
        db.update("k", 1, &mut c);
        assert_eq!(db.get(&"k"), Some(&1));
        db.update("k", 2, &mut c);
        assert_eq!(db.get(&"k"), Some(&2));
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn delete_leaves_death_certificate() {
        let mut c = clock(0);
        let mut db = Database::new();
        db.update("k", 1, &mut c);
        db.delete(&"k", &mut c);
        assert_eq!(db.get(&"k"), None);
        assert!(db.entry(&"k").is_some_and(Entry::is_dead));
        assert_eq!(db.live_len(), 0);
        assert_eq!(db.dead_len(), 1);
    }

    #[test]
    fn checksum_tracks_content_not_history() {
        let mut c0 = clock(0);
        let mut c1 = clock(1);
        let mut a = Database::new();
        let mut b = Database::new();
        let ta = a.update("x", 10, &mut c0);
        let tb = a.update("y", 20, &mut c0);
        // b receives the same updates in the opposite order.
        b.apply_ref(&"y", &Entry::live(20, tb));
        b.apply_ref(&"x", &Entry::live(10, ta));
        assert_eq!(a.checksum(), b.checksum());
        // A divergent update makes the checksums differ.
        b.update("z", 30, &mut c1);
        assert_ne!(a.checksum(), b.checksum());
    }

    #[test]
    fn gc_fixed_threshold_discards_old_certificates() {
        let mut c = clock(0);
        let mut db = Database::new();
        db.update("k", 1, &mut c);
        db.delete(&"k", &mut c);
        let policy = GcPolicy::FixedThreshold { tau: 10 };
        let stats = db.collect_garbage(SiteId::new(0), c.peek() + 100, policy);
        assert_eq!(stats.discarded, 1);
        assert_eq!(db.len(), 0);
        assert_eq!(db.checksum(), Checksum::new());
    }

    #[test]
    fn gc_dormant_parks_at_retention_site_only() {
        let retention = SiteId::new(1);
        let policy = GcPolicy::Dormant {
            tau1: 10,
            tau2: 100,
        };
        for (site, expect_dormant) in [(retention, true), (SiteId::new(2), false)] {
            let mut c = clock(0);
            let mut db = Database::new();
            db.update("k", 1, &mut c);
            db.delete_with_retention(&"k", vec![retention], &mut c);
            let stats = db.collect_garbage(site, c.peek() + 50, policy);
            assert_eq!(db.len(), 0);
            if expect_dormant {
                assert_eq!(stats.dormant, 1);
                assert!(db.dormant_certificate(&"k").is_some());
            } else {
                assert_eq!(stats.discarded, 1);
                assert_eq!(db.dormant_len(), 0);
            }
        }
    }

    #[test]
    fn offer_awakens_dormant_certificate_on_obsolete_data() {
        let retention = SiteId::new(0);
        let mut c = clock(0);
        let mut db = Database::new();
        let t_old = c.now(); // timestamp of the obsolete remote copy
        db.update("k", 1, &mut c);
        db.delete_with_retention(&"k", vec![retention], &mut c);
        db.collect_garbage(
            retention,
            c.peek() + 50,
            GcPolicy::Dormant {
                tau1: 10,
                tau2: 1000,
            },
        );
        assert_eq!(db.len(), 0);

        // An obsolete copy arrives from a badly out-of-date replica.
        let now = Timestamp::new(c.peek() + 50, SiteId::new(9));
        let outcome = db.offer_ref(&"k", &Entry::live(1, t_old), now);
        assert_eq!(outcome, OfferOutcome::AwakenedDormant);
        let entry = db.entry(&"k").unwrap();
        assert!(entry.is_dead());
        let dc = entry.death_certificate().unwrap();
        assert_eq!(dc.activation(), now);
        assert!(dc.deleted_at() < now); // ordinary timestamp unchanged
        assert_eq!(db.dormant_len(), 0);
        assert_eq!(db.checksum(), db.recompute_checksum());
    }

    #[test]
    fn offer_lets_newer_update_supersede_dormant_certificate() {
        let retention = SiteId::new(0);
        let mut c = clock(0);
        let mut db = Database::new();
        db.update("k", 1, &mut c);
        db.delete_with_retention(&"k", vec![retention], &mut c);
        db.collect_garbage(
            retention,
            c.peek() + 50,
            GcPolicy::Dormant {
                tau1: 10,
                tau2: 1000,
            },
        );

        // A *reinstatement* newer than the deletion must not be cancelled
        // (§2.2's correctness concern).
        let mut remote_clock = clock(5);
        remote_clock.advance_to(c.peek() + 60);
        let t_new = remote_clock.now();
        let now = Timestamp::new(c.peek() + 61, SiteId::new(9));
        let outcome = db.offer_ref(&"k", &Entry::live(2, t_new), now);
        assert_eq!(outcome, OfferOutcome::Applied);
        assert_eq!(db.get(&"k"), Some(&2));
        assert_eq!(db.dormant_len(), 0);
    }

    /// The recent list's length, found by a finger search from a boundary
    /// the column has moved under: an old row arriving below it, a GC
    /// removal below it, a cleared and refilled store, a clock earlier
    /// than `tau`.
    #[test]
    fn recent_len_counts_the_recent_entries() {
        let (mut c, at) = (clock(0), |t| Timestamp::new(t, SiteId::new(1)));
        let mut db = Database::new();
        for key in 0..8u32 {
            c.advance_to(10 * u64::from(key));
            db.update(key, key, &mut c);
        }
        let check = |db: &mut Database<u32, u32>, now, tau, want: usize| {
            let listed = db.recent_index(now, tau).count();
            assert_eq!([listed, db.recent_len(now, tau)], [want; 2], "{now} {tau}");
        };
        check(&mut db, 100, 45, 2);
        assert!(db.recent_index(100, 45).map(|(_, k)| *k).eq([7, 6]));
        assert_eq!(db.nth_newest(1).map(|(k, _)| *k), Some(6));
        db.apply_ref(&8, &Entry::live(8, at(2)));
        check(&mut db, 100, 45, 2);
        db.apply_ref(&0, &Entry::dead(at(3)));
        let gc = db.collect_garbage(SiteId::new(0), 100, GcPolicy::FixedThreshold { tau: 50 });
        assert_eq!((gc.discarded, db.nth_newest(8)), (1, None));
        check(&mut db, 100, 45, 2);
        check(&mut db, 100, 5, 0);
        check(&mut db, 100, 95, 7);
        check(&mut db, 20, 45, 8);
        db.clear(0);
        check(&mut db, 100, 45, 0);
        db.update(9, 9, &mut c);
        check(&mut db, 100, 45, 1);
    }

    /// The property the flat layout is chosen for: footprint follows
    /// entries, one heap block for the ubiquitous single-entry site.
    #[test]
    fn empty_store_allocates_nothing_and_the_first_entry_one_block() {
        let mut c = clock(0);
        let mut db: Database<u32, u32> = Database::new();
        assert_eq!(db.store.capacities(), (0, 0));
        db.update(7, 1, &mut c);
        assert_eq!(db.store.capacities(), (1, 0));
        // Superseding the lone entry reuses the block.
        db.update(7, 2, &mut c);
        assert_eq!(db.store.capacities(), (1, 0));
        // A second key brings the lookup index into being: one block for
        // it, and the row column's first doubling.
        db.update(9, 1, &mut c);
        let (rows, index) = db.store.capacities();
        assert!(rows >= 2 && index >= 2, "capacities ({rows}, {index})");
        db.update(9, 2, &mut c);
        db.update(7, 3, &mut c);
        assert_eq!(
            db.store.capacities(),
            (rows, index),
            "supersession allocates nothing"
        );
        // Back to one row: the index is cleared but keeps its block, so a
        // site hovering between one and two rows allocates it only once.
        db.delete(&9, &mut c);
        db.collect_garbage(
            SiteId::new(0),
            c.peek() + 100,
            GcPolicy::FixedThreshold { tau: 10 },
        );
        assert_eq!(db.len(), 1);
        db.store.check_invariants(); // a lone row carries no index pairs
        assert_eq!(db.store.capacities(), (rows, index));
        db.update(9, 3, &mut c);
        db.store.check_invariants();
        assert_eq!(db.store.capacities(), (rows, index));
    }

    /// What a trial arena relies on: a cleared replica is a new one —
    /// main store, dormant side store, checksum and live count — that
    /// still owns the blocks it grew, so refilling it allocates nothing.
    #[test]
    fn clear_is_a_new_database_that_keeps_its_capacity() {
        let site = SiteId::new(0);
        let mut c = clock(0);
        let mut db: Database<u32, u32> = Database::new();
        for key in 0..5 {
            db.update(key, key, &mut c);
        }
        db.delete_with_retention(&4, vec![site], &mut c);
        let policy = GcPolicy::Dormant {
            tau1: 10,
            tau2: 1000,
        };
        db.collect_garbage(site, c.peek() + 50, policy);
        assert_eq!((db.len(), db.dormant_len()), (4, 1));
        let grown = db.store.capacities();

        db.clear(0);
        assert_eq!(db, Database::new());
        assert_eq!(db.checksum(), Checksum::new());
        assert_eq!((db.len(), db.live_len(), db.dormant_len()), (0, 0, 0));
        assert_eq!(db.dormant_certificate(&4), None);
        db.store.check_invariants();
        assert_eq!(db.store.capacities(), grown);

        // Refilled, it is the database a new one would be, in the same blocks.
        let mut fresh: Database<u32, u32> = Database::new();
        let (mut c1, mut c2) = (clock(0), clock(0));
        for key in 0..4 {
            db.update(key, key + 1, &mut c1);
            fresh.update(key, key + 1, &mut c2);
        }
        assert_eq!(db, fresh);
        assert_eq!(db.checksum(), fresh.checksum());
        assert_eq!(db.store.capacities(), grown);
    }

    #[test]
    fn ref_into_iterator_walks_entries() {
        let mut clock = SimClock::new(SiteId::new(0));
        let mut db: Database<&str, u32> = Database::new();
        db.update("a", 1, &mut clock);
        db.update("b", 2, &mut clock);
        let keys: Vec<_> = (&db).into_iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, ["a", "b"]);
    }
}
