//! Direct mail: best-effort immediate notification (paper §1.2).
//!
//! "Each new update is immediately mailed from its entry site to all other
//! sites. This is timely and reasonably efficient but not entirely
//! reliable." The `PostMail` operation queues messages on stable storage,
//! yet still loses them when queues overflow or destinations stay
//! unreachable — and the sender's list of sites may be incomplete. Both
//! failure modes are modelled here; they are what anti-entropy exists to
//! repair.

use std::collections::VecDeque;
use std::hash::Hash;

use epidemic_db::{Entry, SiteId};
use rand::{Rng, RngExt};

use crate::replica::Replica;

/// Failure model for the mail system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MailConfig {
    /// Probability that any posted message is silently lost in transit
    /// (destination unreachable for too long, server mishap).
    pub loss_probability: f64,
    /// Bound on each destination's inbound queue; messages posted to a full
    /// queue are discarded, the paper's "physical queue overflow".
    pub queue_capacity: usize,
}

impl Default for MailConfig {
    fn default() -> Self {
        MailConfig {
            loss_probability: 0.0,
            queue_capacity: usize::MAX,
        }
    }
}

/// One queued update notification.
#[derive(Debug, Clone)]
struct Letter<K, V> {
    /// Key the update concerns.
    key: K,
    /// The updated entry.
    entry: Entry<V>,
}

/// Counters describing the mail system's lifetime behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MailStats {
    /// Messages accepted into a queue.
    pub posted: usize,
    /// Messages lost in transit.
    pub lost: usize,
    /// Messages dropped because a queue was full.
    pub overflowed: usize,
    /// Messages handed to their destination.
    pub delivered: usize,
}

/// A store-and-forward mail transport with bounded queues and message loss —
/// the paper's fallible `PostMail` (§1.2).
///
/// # Example
///
/// ```
/// use epidemic_core::{MailConfig, MailSystem};
/// use epidemic_db::{Entry, SiteId, Timestamp};
/// use rand::SeedableRng;
///
/// let mut mail: MailSystem<&str, u32> = MailSystem::new(3, MailConfig::default());
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let entry = Entry::live(7, Timestamp::new(1, SiteId::new(0)));
/// mail.post(SiteId::new(2), "k", entry, &mut rng);
/// assert_eq!(mail.stats().posted, 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MailSystem<K, V> {
    config: MailConfig,
    queues: Vec<VecDeque<Letter<K, V>>>,
    stats: MailStats,
}

impl<K, V> MailSystem<K, V> {
    /// Creates a mail system serving sites `0..sites`.
    pub fn new(sites: usize, config: MailConfig) -> Self {
        MailSystem {
            config,
            queues: (0..sites).map(|_| VecDeque::new()).collect(),
            stats: MailStats::default(),
        }
    }

    /// Returns the transport to the state [`MailSystem::new`] builds: no
    /// letters, zeroed counters. Every queue keeps its block, so a run that
    /// reuses the transport allocates nothing its queues have not held
    /// before.
    pub fn reset(&mut self, sites: usize, config: MailConfig) {
        self.config = config;
        self.queues.truncate(sites);
        self.queues.iter_mut().for_each(VecDeque::clear);
        self.queues.resize_with(sites, VecDeque::new);
        self.stats = MailStats::default();
    }

    /// Posts one update notification to `to`. Returns `false` if the
    /// message was lost or the destination queue was full.
    pub fn post<R: Rng + ?Sized>(
        &mut self,
        to: SiteId,
        key: K,
        entry: Entry<V>,
        rng: &mut R,
    ) -> bool {
        if self.config.loss_probability > 0.0 && rng.random::<f64>() < self.config.loss_probability
        {
            self.stats.lost += 1;
            return false;
        }
        let queue = &mut self.queues[to.as_usize()];
        if queue.len() >= self.config.queue_capacity {
            self.stats.overflowed += 1;
            return false;
        }
        queue.push_back(Letter { key, entry });
        self.stats.posted += 1;
        true
    }

    /// Lifetime counters.
    pub fn stats(&self) -> MailStats {
        self.stats
    }
}

/// The direct-mail protocol of §1.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DirectMail;

impl DirectMail {
    /// Executes `FOR EACH s' ∈ S DO PostMail[...]` at the update's entry
    /// site: mails `key`'s current entry to every site in `recipients`
    /// (the origin's possibly *incomplete* view of S).
    ///
    /// Returns the number of messages successfully queued.
    pub fn broadcast<K, V, R>(
        &self,
        origin: &Replica<K, V>,
        recipients: &[SiteId],
        key: &K,
        mail: &mut MailSystem<K, V>,
        rng: &mut R,
    ) -> usize
    where
        K: Ord + Clone + Hash + Eq,
        V: Clone + Hash,
        R: Rng + ?Sized,
    {
        let Some(entry) = origin.db().entry(key).cloned() else {
            return 0;
        };
        recipients
            .iter()
            .filter(|&&to| to != origin.site())
            .filter(|&&to| mail.post(to, key.clone(), entry.clone(), rng))
            .count()
    }

    /// Delivers the site's queued mail into its replica: `IF s.ValueOf.t <
    /// t THEN s.ValueOf ← (v, t)`. Mailed updates are merged quietly — in a
    /// direct-mail system receipt does not trigger further mailing.
    ///
    /// Appends the key of every letter that carried news to `landed` and
    /// returns how many did.
    pub fn deliver<K, V>(
        &self,
        replica: &mut Replica<K, V>,
        mail: &mut MailSystem<K, V>,
        landed: &mut Vec<K>,
    ) -> usize
    where
        K: Ord + Clone + Hash + Eq,
        V: Clone + Hash,
    {
        let before = landed.len();
        let queue = &mut mail.queues[replica.site().as_usize()];
        mail.stats.delivered += queue.len();
        for letter in queue.drain(..) {
            let outcome = replica.receive_quietly_ref(&letter.key, &letter.entry);
            if outcome.was_useful() {
                landed.push(letter.key);
            }
        }
        landed.len() - before
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    /// Delivers `site`'s queue into a fresh replica: the letters it held.
    fn drain(mail: &mut MailSystem<&'static str, u32>, site: u32) -> usize {
        let before = mail.stats().delivered;
        let mut replica = Replica::new(SiteId::new(site));
        DirectMail.deliver(&mut replica, mail, &mut Vec::new());
        mail.stats().delivered - before
    }

    #[test]
    fn broadcast_reaches_all_recipients() {
        let mut rng = rng();
        let mut mail = MailSystem::new(4, MailConfig::default());
        let mut origin: Replica<&str, u32> = Replica::new(SiteId::new(0));
        origin.client_update("k", 9);
        let all: Vec<SiteId> = (0..4).map(SiteId::new).collect();
        let sent = DirectMail.broadcast(&origin, &all, &"k", &mut mail, &mut rng);
        assert_eq!(sent, 3, "origin does not mail itself");
        let mut r1: Replica<&str, u32> = Replica::new(SiteId::new(1));
        let mut landed = Vec::new();
        let news = DirectMail.deliver(&mut r1, &mut mail, &mut landed);
        assert_eq!((news, landed), (1, vec!["k"]));
        assert_eq!(r1.db().get(&"k"), Some(&9));
        assert!(!r1.is_infective(&"k"), "mail delivery is quiet");
    }

    #[test]
    fn lossy_mail_drops_messages() {
        let mut rng = rng();
        let mut mail: MailSystem<&str, u32> = MailSystem::new(
            2,
            MailConfig {
                loss_probability: 1.0,
                queue_capacity: usize::MAX,
            },
        );
        let entry = Entry::live(1, epidemic_db::Timestamp::new(1, SiteId::new(0)));
        assert!(!mail.post(SiteId::new(1), "k", entry, &mut rng));
        assert_eq!(mail.stats().lost, 1);
        assert_eq!(drain(&mut mail, 1), 0);
    }

    #[test]
    fn full_queues_overflow() {
        let mut rng = rng();
        let mut mail: MailSystem<&str, u32> = MailSystem::new(
            2,
            MailConfig {
                loss_probability: 0.0,
                queue_capacity: 2,
            },
        );
        let entry = Entry::live(1, epidemic_db::Timestamp::new(1, SiteId::new(0)));
        assert!(mail.post(SiteId::new(1), "a", entry.clone(), &mut rng));
        assert!(mail.post(SiteId::new(1), "b", entry.clone(), &mut rng));
        assert!(!mail.post(SiteId::new(1), "c", entry, &mut rng));
        assert_eq!(mail.stats().overflowed, 1);
        assert_eq!(drain(&mut mail, 1), 2);
        assert_eq!(drain(&mut mail, 1), 0, "delivery empties the queue");
    }

    #[test]
    fn incomplete_site_view_misses_sites() {
        let mut rng = rng();
        let mut mail = MailSystem::new(3, MailConfig::default());
        let mut origin: Replica<&str, u32> = Replica::new(SiteId::new(0));
        origin.client_update("k", 1);
        // The origin only knows about site 1, not site 2.
        let stale_view = [SiteId::new(0), SiteId::new(1)];
        DirectMail.broadcast(&origin, &stale_view, &"k", &mut mail, &mut rng);
        assert_eq!((drain(&mut mail, 1), drain(&mut mail, 2)), (1, 0));
    }

    #[test]
    fn stale_mail_does_not_regress_newer_data() {
        let mut rng = rng();
        let mut mail = MailSystem::new(2, MailConfig::default());
        let mut origin: Replica<&str, u32> = Replica::new(SiteId::new(0));
        let mut dest: Replica<&str, u32> = Replica::new(SiteId::new(1));
        origin.client_update("k", 1);
        DirectMail.broadcast(&origin, &[SiteId::new(1)], &"k", &mut mail, &mut rng);
        dest.advance_clock(100);
        dest.client_update("k", 2); // newer local value
        let news = DirectMail.deliver(&mut dest, &mut mail, &mut Vec::new());
        assert_eq!(news, 0);
        assert_eq!(dest.db().get(&"k"), Some(&2));
    }

    #[test]
    fn broadcast_of_unknown_key_is_a_noop() {
        let mut rng = rng();
        let mut mail = MailSystem::new(2, MailConfig::default());
        let origin: Replica<&str, u32> = Replica::new(SiteId::new(0));
        let sent = DirectMail.broadcast(&origin, &[SiteId::new(1)], &"k", &mut mail, &mut rng);
        assert_eq!(sent, 0);
    }
}
