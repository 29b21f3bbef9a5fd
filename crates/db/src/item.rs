//! Database entries and the timestamp-supersession rule (paper §1.1).

use crate::death::DeathCertificate;
use crate::timestamp::Timestamp;

/// One versioned database entry: either a live value or a death certificate.
///
/// This is the pair `(v : V ∪ {NIL}) × (t : T)` of §1.1, with the `NIL` case
/// carrying the extra bookkeeping of §2 (activation timestamp, retention
/// sites) needed for dormant death certificates.
///
/// # Example
///
/// ```
/// use epidemic_db::{Entry, SiteId, Timestamp};
/// let live = Entry::live("v", Timestamp::new(3, SiteId::new(0)));
/// let dead = Entry::<&str>::dead(Timestamp::new(5, SiteId::new(1)));
/// assert!(dead.supersedes(&live));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Entry<V> {
    /// The key has the given value as of the given timestamp.
    Live {
        /// Current value.
        value: V,
        /// Timestamp of the update that wrote the value.
        at: Timestamp,
    },
    /// The key was deleted; the certificate carries the deletion timestamp.
    /// It lives out of line so that the rows of a store stay small — a
    /// certificate is three times the size of a live `u32` entry, and
    /// deletions are rare beside the updates every column walk reads.
    Dead(Box<DeathCertificate>),
}

impl<V> Entry<V> {
    /// Creates a live entry.
    pub fn live(value: V, at: Timestamp) -> Self {
        Entry::Live { value, at }
    }

    /// Creates a deleted entry (simple death certificate with no retention
    /// sites; see [`DeathCertificate::with_retention`] for dormant ones).
    pub fn dead(at: Timestamp) -> Self {
        Entry::dead_with(DeathCertificate::new(at))
    }

    /// Creates a deleted entry carrying `certificate`.
    pub fn dead_with(certificate: DeathCertificate) -> Self {
        Entry::Dead(Box::new(certificate))
    }

    /// The entry's *ordinary* timestamp — the one supersession compares.
    ///
    /// For death certificates this is the deletion timestamp, not the
    /// activation timestamp (§2.2: "a death certificate still cancels a
    /// corresponding data item if its ordinary timestamp is greater").
    pub fn timestamp(&self) -> Timestamp {
        match self {
            Entry::Live { at, .. } => *at,
            Entry::Dead(dc) => dc.deleted_at(),
        }
    }

    /// The live value, if any.
    pub(crate) fn value(&self) -> Option<&V> {
        match self {
            Entry::Live { value, .. } => Some(value),
            Entry::Dead(_) => None,
        }
    }

    /// Whether the entry is a death certificate.
    pub fn is_dead(&self) -> bool {
        matches!(self, Entry::Dead(_))
    }

    /// The death certificate, if this entry is one.
    pub fn death_certificate(&self) -> Option<&DeathCertificate> {
        match self {
            Entry::Dead(dc) => Some(dc),
            Entry::Live { .. } => None,
        }
    }

    /// Whether this entry supersedes `other` under the §1.1 rule: a strictly
    /// larger ordinary timestamp always wins. Equal timestamps denote the
    /// same update (timestamps are globally unique), so neither supersedes.
    pub fn supersedes(&self, other: &Entry<V>) -> bool {
        self.timestamp() > other.timestamp()
    }
}

/// Outcome of the plain §1.1 supersession merge of a received entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ApplyOutcome {
    /// The received entry was newer and was installed.
    Applied,
    /// The replica already held this exact version. This is the "unnecessary
    /// contact" feedback signal that drives rumor-mongering counters (§1.4).
    AlreadyKnown,
    /// The replica held a strictly newer version; the received entry was
    /// discarded. The *sender* is the out-of-date party.
    Obsolete,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timestamp::SiteId;

    fn ts(t: u64) -> Timestamp {
        Timestamp::new(t, SiteId::new(0))
    }

    #[test]
    fn newer_live_supersedes_older_live() {
        let old = Entry::live(1, ts(1));
        let new = Entry::live(2, ts(2));
        assert!(new.supersedes(&old));
        assert!(!old.supersedes(&new));
    }

    #[test]
    fn equal_timestamps_do_not_supersede() {
        let a = Entry::live(1, ts(1));
        let b = Entry::live(1, ts(1));
        assert!(!a.supersedes(&b));
        assert!(!b.supersedes(&a));
    }

    #[test]
    fn death_certificate_supersedes_older_value() {
        let live = Entry::live("x", ts(1));
        let dead = Entry::<&str>::dead(ts(2));
        assert!(dead.supersedes(&live));
        assert!(dead.is_dead());
        assert_eq!(dead.value(), None);
    }

    #[test]
    fn newer_value_supersedes_death_certificate() {
        // Reinstating a deleted item (§2.2) must be possible.
        let dead = Entry::<&str>::dead(ts(5));
        let reinstated = Entry::live("back", ts(6));
        assert!(reinstated.supersedes(&dead));
    }

    #[test]
    fn ordinary_timestamp_of_dead_entry_is_deletion_time() {
        let dead = Entry::<u32>::dead(ts(9));
        assert_eq!(dead.timestamp(), ts(9));
        assert!(dead.death_certificate().is_some());
    }
}
