//! Backing up a complex epidemic with anti-entropy (paper §1.5).
//!
//! Rumor mongering can fail: all copies of a rumor can go cold while some
//! sites remain susceptible. Running anti-entropy infrequently eliminates
//! that possibility. The interesting question is what to do when an
//! anti-entropy exchange *discovers* a missing update:
//!
//! * [`Redistribution::None`] — just reconcile the pair and let
//!   anti-entropy finish the job (the "conservative" response);
//! * [`Redistribution::Rumor`] — make the discovered updates hot rumors
//!   again at both participants, which is cheap even in the worst case;
//! * [`Redistribution::Mail`] — re-mail them to everyone. The paper's
//!   Clearinghouse originally did this and had to abandon it: if half the
//!   sites miss an update, the next anti-entropy round generates `O(n²)`
//!   mail messages.
//!
//! The backup pass *is* §1.3's push-pull full comparison: it runs the one
//! resolve loop of [`anti_entropy`](crate::anti_entropy), and only the
//! per-key delivery — the policy above — is its own. A discovered update is
//! redistributed as it is delivered, so a re-ignited rumor takes its place
//! in both hot lists in offer order.

use std::hash::Hash;

use epidemic_db::store::OfferOutcome;
use epidemic_db::Entry;

use crate::anti_entropy::{full_resolve, ExchangeScratch, ExchangeStats};
use crate::replica::Replica;
use crate::Direction;

/// What to do with updates discovered missing during backup anti-entropy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Redistribution {
    /// Reconcile the pair only.
    None,
    /// Re-ignite discovered updates as hot rumors at both participants.
    Rumor,
    /// Hand discovered updates back for re-mailing to all sites (the
    /// caller mails them; see [`BackupOutcome::remail`]).
    Mail,
}

/// Result of one backup anti-entropy exchange.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackupOutcome<K, V> {
    /// Ordinary exchange statistics.
    pub stats: ExchangeStats,
    /// Updates the caller should re-mail (only under
    /// [`Redistribution::Mail`]).
    pub remail: Vec<(K, Entry<V>)>,
}

/// Anti-entropy configured as the backup for a complex epidemic (§1.5).
///
/// The backup pass always compares full databases push-pull — it runs
/// infrequently, and its purpose is certainty.
///
/// # Example
///
/// ```
/// use epidemic_core::{BackupAntiEntropy, ExchangeScratch, Redistribution, Replica};
/// use epidemic_db::SiteId;
///
/// let mut a = Replica::new(SiteId::new(0));
/// let mut b = Replica::new(SiteId::new(1));
/// a.client_update("k", 1);
/// a.hot_mut().clear(); // the rumor died before reaching b
///
/// let backup = BackupAntiEntropy::new(Redistribution::Rumor);
/// let mut scratch = ExchangeScratch::new();
/// let outcome = backup.exchange(&mut a, &mut b, &mut scratch);
/// assert_eq!(outcome.stats.sent_ab, 1);
/// assert_eq!(scratch.landed, [vec![], vec!["k"]]);
/// // Both participants now treat the update as a hot rumor again.
/// assert!(a.is_infective(&"k") && b.is_infective(&"k"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BackupAntiEntropy {
    redistribution: Redistribution,
}

impl BackupAntiEntropy {
    /// Creates a backup pass with the given redistribution policy.
    pub const fn new(redistribution: Redistribution) -> Self {
        BackupAntiEntropy { redistribution }
    }

    /// One push-pull full-database exchange with redistribution: §1.3's
    /// full resolve, diffing in `scratch`'s buffers and reporting the keys
    /// it landed there (see [`ExchangeScratch::landed`]), with this
    /// policy's delivery.
    pub fn exchange<K, V>(
        &self,
        a: &mut Replica<K, V>,
        b: &mut Replica<K, V>,
        scratch: &mut ExchangeScratch<K>,
    ) -> BackupOutcome<K, V>
    where
        K: Ord + Clone + Hash + Eq,
        V: Clone + Hash + Eq,
    {
        let mut stats = ExchangeStats::default();
        let mut remail = Vec::new();
        scratch.landed.iter_mut().for_each(Vec::clear);
        full_resolve(
            Direction::PushPull,
            a,
            b,
            scratch,
            &mut stats,
            |to, from, key| self.deliver(to, from, key, &mut remail),
        );
        BackupOutcome { stats, remail }
    }

    /// Delivers one discovered update, offered by reference from `sender`
    /// to `receiver`, applying the redistribution policy at once: a
    /// re-ignited rumor is hot at both ends before the next key is offered.
    fn deliver<K, V>(
        &self,
        receiver: &mut Replica<K, V>,
        sender: &mut Replica<K, V>,
        key: &K,
        remail: &mut Vec<(K, Entry<V>)>,
    ) -> OfferOutcome
    where
        K: Ord + Clone + Hash + Eq,
        V: Clone + Hash + Eq,
    {
        let entry = sender.db().entry(key).expect("listed by the diff");
        match self.redistribution {
            Redistribution::None => receiver.receive_quietly_ref(key, entry),
            Redistribution::Rumor => {
                // Re-ignite at both ends: the receiver just heard news, and
                // the sender just learned its partner was missing it.
                let outcome = receiver.receive_rumor_ref(key, entry);
                if outcome.was_useful() {
                    sender.hot_mut().insert(key.clone());
                }
                outcome
            }
            Redistribution::Mail => {
                let outcome = receiver.receive_quietly_ref(key, entry);
                if outcome.was_useful() {
                    remail.push((key.clone(), entry.clone()));
                }
                outcome
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epidemic_db::SiteId;

    fn cold_pair() -> (R, R) {
        let mut a = Replica::new(SiteId::new(0));
        let b = Replica::new(SiteId::new(1));
        a.client_update("k", 1);
        a.hot_mut().clear(); // rumor died at a before spreading
        (a, b)
    }

    type R = Replica<&'static str, u32>;

    fn exchange(policy: Redistribution, a: &mut R, b: &mut R) -> BackupOutcome<&'static str, u32> {
        BackupAntiEntropy::new(policy).exchange(a, b, &mut ExchangeScratch::new())
    }

    #[test]
    fn conservative_backup_reconciles_without_reigniting() {
        let (mut a, mut b) = cold_pair();
        let outcome = exchange(Redistribution::None, &mut a, &mut b);
        assert_eq!(outcome.stats.sent_ab, 1);
        assert_eq!(b.db().get(&"k"), Some(&1));
        assert!(!a.is_infective(&"k") && !b.is_infective(&"k"));
        assert!(outcome.remail.is_empty());
    }

    #[test]
    fn rumor_redistribution_reignites_both_parties() {
        let (mut a, mut b) = cold_pair();
        let outcome = exchange(Redistribution::Rumor, &mut a, &mut b);
        assert!(outcome.remail.is_empty());
        assert!(a.is_infective(&"k") && b.is_infective(&"k"));
    }

    #[test]
    fn mail_redistribution_hands_back_updates() {
        let (mut a, mut b) = cold_pair();
        let outcome = exchange(Redistribution::Mail, &mut a, &mut b);
        assert_eq!(outcome.remail.len(), 1);
        assert_eq!(outcome.remail[0].0, "k");
        assert!(!b.is_infective(&"k"));
    }

    #[test]
    fn redundant_exchange_redistributes_nothing() {
        let (mut a, mut b) = cold_pair();
        exchange(Redistribution::Rumor, &mut a, &mut b);
        a.hot_mut().clear();
        b.hot_mut().clear();
        let outcome = exchange(Redistribution::Rumor, &mut a, &mut b);
        assert_eq!(outcome.stats.total_sent(), 0);
        assert!(!a.is_infective(&"k") && !b.is_infective(&"k"));
    }

    #[test]
    fn backup_flows_both_directions() {
        let (mut a, mut b) = cold_pair();
        b.client_update("j", 9);
        b.hot_mut().clear();
        let outcome = exchange(Redistribution::Rumor, &mut a, &mut b);
        assert_eq!(outcome.stats.sent_ab, 1);
        assert_eq!(outcome.stats.sent_ba, 1);
        assert!(a.is_infective(&"j") && b.is_infective(&"k"));
        assert_eq!(a.db(), b.db());
    }
}
