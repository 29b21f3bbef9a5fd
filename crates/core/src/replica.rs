//! A database site: replica store, local clock and rumor state.

use std::hash::Hash;

use epidemic_db::store::OfferOutcome;
use epidemic_db::{Database, Entry, GcPolicy, GcStats, SimClock, SiteId, Timestamp};

use crate::hot::HotList;

/// One site of the replicated database: the unit the epidemic protocols
/// exchange between.
///
/// Bundles the [`Database`] with the site's local [`SimClock`] and its
/// infective list ([`HotList`]). With respect to a given update a replica is
/// *susceptible* (no entry), *infective* (entry present and hot) or
/// *removed* (entry present, no longer hot) — the S/I/R states of §1.4.
///
/// # Example
///
/// ```
/// use epidemic_core::Replica;
/// use epidemic_db::SiteId;
///
/// let mut r = Replica::new(SiteId::new(3));
/// r.client_update("printer:daisy", "building-35");
/// assert!(r.is_infective(&"printer:daisy"));
/// assert_eq!(r.db().get(&"printer:daisy"), Some(&"building-35"));
/// ```
#[derive(Debug, Clone)]
pub struct Replica<K, V> {
    site: SiteId,
    clock: SimClock,
    db: Database<K, V>,
    hot: HotList<K>,
}

impl<K, V> Replica<K, V>
where
    K: Ord + Clone + Hash + Eq,
    V: Hash,
{
    /// Creates an empty replica for `site`.
    pub fn new(site: SiteId) -> Self {
        Replica {
            site,
            clock: SimClock::new(site),
            db: Database::new(),
            hot: HotList::new(),
        }
    }

    /// Returns the replica to the state [`Replica::new`]`(site)` builds —
    /// empty database, no dormant certificates, empty hot list, a fresh
    /// clock — keeping the capacity of its store and hot list, so a
    /// simulator can reuse one set of replicas across trials without
    /// allocating. The store is grown to hold `keys` entries
    /// ([`Database::clear`]): a run that bounds the keys it mints sizes
    /// it once.
    pub fn reset(&mut self, site: SiteId, keys: usize) {
        self.site = site;
        self.clock = SimClock::new(site);
        self.db.clear(keys);
        self.hot.clear();
    }

    /// This replica's site id.
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// The underlying store.
    pub fn db(&self) -> &Database<K, V> {
        &self.db
    }

    /// Mutable access to the underlying store, for protocol internals and
    /// tests. Mutations made here do not touch the rumor state.
    pub fn db_mut(&mut self) -> &mut Database<K, V> {
        &mut self.db
    }

    /// The infective list.
    pub fn hot(&self) -> &HotList<K> {
        &self.hot
    }

    /// Mutable access to the infective list.
    pub fn hot_mut(&mut self) -> &mut HotList<K> {
        &mut self.hot
    }

    /// Whether this replica is actively spreading `key`.
    pub fn is_infective(&self, key: &K) -> bool {
        self.hot.position(key).is_some()
    }

    /// Local clock reading.
    pub fn local_time(&self) -> u64 {
        self.clock.peek()
    }

    /// Consumes and returns a fresh, globally unique timestamp.
    pub fn now(&mut self) -> Timestamp {
        self.clock.now()
    }

    /// A non-consuming observation timestamp: the current local clock
    /// reading paired with this site's id. Used to stamp death-certificate
    /// activations on receipt — activation timestamps control dormancy
    /// windows, not supersession, so they need not be unique, and taking
    /// one must not advance local time (a replica receiving thousands of
    /// entries would otherwise drift far ahead of real time and corrupt
    /// every age-based window).
    pub(crate) fn observation(&self) -> Timestamp {
        Timestamp::new(self.clock.peek(), self.site)
    }

    /// Advances the local clock to global simulated time `time` (the
    /// simulator calls this once per cycle).
    pub fn advance_clock(&mut self, time: u64) {
        self.clock.advance_to(time);
    }

    /// Client `Update` operation (§1.1): writes a value at this site and
    /// makes it a hot rumor. Returns the assigned timestamp.
    pub fn client_update(&mut self, key: K, value: V) -> Timestamp {
        let at = self.db.update(key.clone(), value, &mut self.clock);
        self.hot.insert(key);
        at
    }

    /// Client deletion (§2): installs a death certificate with no retention
    /// sites and makes it hot.
    pub fn client_delete(&mut self, key: &K) -> Timestamp {
        let at = self.db.delete(key, &mut self.clock);
        self.hot.insert(key.clone());
        at
    }

    /// Client deletion whose certificate keeps dormant copies at the given
    /// retention sites (§2.1).
    pub fn client_delete_with_retention(&mut self, key: &K, retention: Vec<SiteId>) -> Timestamp {
        let at = self
            .db
            .delete_with_retention(key, retention, &mut self.clock);
        self.hot.insert(key.clone());
        at
    }

    /// Receives an entry through a *rumor-carrying* channel (direct mail,
    /// rumor mongering, redistribution): if it is news, it becomes a hot
    /// rumor here (§1.4: "every person hearing the rumor also becomes
    /// active"). Dormant death certificates are honored and awakened ones
    /// also become hot (§2.3). The entry is offered by reference
    /// ([`Database::offer_ref`](epidemic_db::Database::offer_ref)), so the
    /// offers the recipient rejects cost one probe of its database and no
    /// clone.
    pub fn receive_rumor_ref(&mut self, key: &K, entry: &Entry<V>) -> OfferOutcome
    where
        V: Clone,
    {
        let now = self.observation();
        let outcome = self.db.offer_ref(key, entry, now);
        match outcome {
            OfferOutcome::Applied | OfferOutcome::AwakenedDormant => self.hot.insert(key.clone()),
            OfferOutcome::AlreadyKnown | OfferOutcome::Obsolete => {}
        }
        outcome
    }

    /// Receives an entry through a *quiet* channel (plain anti-entropy):
    /// the entry is merged but does **not** become a hot rumor — except for
    /// an awakened dormant death certificate, which must propagate again
    /// (§2.2) and is therefore marked hot. Offered by reference, like
    /// [`Replica::receive_rumor_ref`]: only an entry that changes state is
    /// cloned.
    pub fn receive_quietly_ref(&mut self, key: &K, entry: &Entry<V>) -> OfferOutcome
    where
        V: Clone,
    {
        let now = self.observation();
        let outcome = self.db.offer_ref(key, entry, now);
        if outcome == OfferOutcome::AwakenedDormant {
            self.hot.insert(key.clone());
        }
        outcome
    }

    /// Runs death-certificate garbage collection (§2.1) with this site's
    /// identity and local time.
    pub fn collect_garbage(&mut self, policy: GcPolicy) -> GcStats {
        self.db
            .collect_garbage(self.site, self.clock.peek(), policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn replica(site: u32) -> Replica<&'static str, u32> {
        Replica::new(SiteId::new(site))
    }

    #[test]
    fn client_update_is_infective() {
        let mut r = replica(0);
        assert!(r.db().entry(&"k").is_none());
        r.client_update("k", 7);
        assert!(r.is_infective(&"k"));
        assert!(r.db().entry(&"k").is_some());
    }

    #[test]
    fn receive_rumor_ref_becomes_hot_only_when_news() {
        let mut a = replica(0);
        let mut b = replica(1);
        let at = a.client_update("k", 7);
        let entry = Entry::live(7, at);
        assert_eq!(b.receive_rumor_ref(&"k", &entry), OfferOutcome::Applied);
        assert!(b.is_infective(&"k"));
        b.hot_mut().remove(&"k");
        assert_eq!(
            b.receive_rumor_ref(&"k", &entry),
            OfferOutcome::AlreadyKnown
        );
        assert!(!b.is_infective(&"k")); // stale news does not re-ignite
    }

    #[test]
    fn receive_quietly_ref_never_ignites_fresh_updates() {
        let mut a = replica(0);
        let mut b = replica(1);
        let at = a.client_update("k", 7);
        assert_eq!(
            b.receive_quietly_ref(&"k", &Entry::live(7, at)),
            OfferOutcome::Applied
        );
        assert!(!b.is_infective(&"k"));
    }

    #[test]
    fn awakened_dormant_certificate_is_hot_even_quietly() {
        let mut a = replica(0);
        let retention = a.site();
        a.client_update("k", 1);
        let t_old = a.db().entry(&"k").unwrap().timestamp();
        a.client_delete_with_retention(&"k", vec![retention]);
        a.hot_mut().clear();
        // Age the certificate past tau1 so it goes dormant at this site.
        a.advance_clock(1_000);
        a.collect_garbage(GcPolicy::Dormant {
            tau1: 10,
            tau2: 100_000,
        });
        assert_eq!(a.db().len(), 0);
        // An obsolete copy arrives via plain anti-entropy.
        let outcome = a.receive_quietly_ref(&"k", &Entry::live(1, t_old));
        assert_eq!(outcome, OfferOutcome::AwakenedDormant);
        assert!(a.is_infective(&"k"));
    }

    /// Every outcome an offer can meet, and whether it ignites a rumor.
    #[test]
    fn receive_rumor_ref_meets_every_offer_outcome() {
        // A replica holding "k" live at t=5 (no longer hot) and a dormant
        // death certificate for "gone" deleted at t=20.
        let mut base = replica(0);
        base.advance_clock(5);
        let held = base.client_update("k", 1);
        base.advance_clock(20);
        base.client_update("gone", 2);
        let deleted = base.client_delete_with_retention(&"gone", vec![base.site()]);
        base.hot_mut().clear();
        base.advance_clock(1_000);
        base.collect_garbage(GcPolicy::Dormant {
            tau1: 10,
            tau2: 100_000,
        });
        assert!(base.db().dormant_certificate(&"gone").is_some());

        let remote = |t: u64| Timestamp::new(t, SiteId::new(7));
        let cases = [
            ("fresh", Entry::live(9, remote(3)), OfferOutcome::Applied),
            ("k", Entry::live(3, remote(900)), OfferOutcome::Applied),
            ("k", Entry::dead(remote(900)), OfferOutcome::Applied),
            ("k", Entry::live(1, held), OfferOutcome::AlreadyKnown),
            ("k", Entry::live(0, remote(2)), OfferOutcome::Obsolete),
            // An obsolete copy of the deleted item awakens the certificate…
            (
                "gone",
                Entry::live(2, remote(deleted.time() - 1)),
                OfferOutcome::AwakenedDormant,
            ),
            // …while a reinstatement newer than the deletion supersedes it.
            ("gone", Entry::live(4, remote(500)), OfferOutcome::Applied),
        ];
        for (key, entry, expected) in cases {
            let mut site = base.clone();
            assert_eq!(
                site.receive_rumor_ref(&key, &entry),
                expected,
                "{key} {entry:?}"
            );
            assert_eq!(site.db().checksum(), site.db().recompute_checksum());
            // Both dormant cases leave the side store: awakened or superseded.
            let dormant = usize::from(key != "gone");
            assert_eq!(site.db().dormant_len(), dormant, "{key} {entry:?}");
            let ignites = matches!(
                expected,
                OfferOutcome::Applied | OfferOutcome::AwakenedDormant
            );
            assert_eq!(site.is_infective(&key), ignites);
        }
    }

    #[test]
    fn clocks_advance_monotonically() {
        let mut r = replica(0);
        r.advance_clock(50);
        assert_eq!(r.local_time(), 50);
        r.advance_clock(10);
        assert_eq!(r.local_time(), 50);
        let t = r.client_update("k", 1);
        assert_eq!(t.time(), 50);
    }
}
