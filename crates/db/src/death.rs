//! Death certificates, dormancy and reactivation (paper §2).
//!
//! Deleting an item by merely removing it would let the propagation
//! mechanism *resurrect* it from other replicas. Deletions are therefore
//! recorded as death certificates that spread like ordinary data (§2). This
//! module adds the paper's two space-reclamation schemes:
//!
//! * **fixed threshold** — discard a certificate once it is older than `τ`;
//! * **dormant death certificates** (§2.1) — discard at most sites after
//!   `τ₁`, but keep *dormant* copies at `r` randomly chosen retention sites
//!   until `τ₁ + τ₂`, reactivating them (§2.2–2.3) whenever an obsolete copy
//!   of the item is encountered.
//!
//! Reactivation uses a second *activation timestamp* so that a revived
//! certificate does not cancel legitimate updates (such as a reinstatement)
//! that are newer than the original deletion but older than the revival.

use crate::timestamp::{SiteId, Timestamp};

/// A death certificate: tombstone for a deleted item (§2).
///
/// Carries the *ordinary* (deletion) timestamp used for supersession, the
/// *activation* timestamp that governs dormancy and propagation (§2.2), and
/// the list of retention sites that keep dormant copies (§2.1).
///
/// # Example
///
/// ```
/// use epidemic_db::{DeathCertificate, SiteId, Timestamp};
/// let del = Timestamp::new(10, SiteId::new(0));
/// let mut dc = DeathCertificate::with_retention(del, vec![SiteId::new(3)]);
/// assert_eq!(dc.activation(), del);
/// dc.reactivate(Timestamp::new(99, SiteId::new(1)));
/// assert_eq!(dc.deleted_at(), del);          // supersession unchanged
/// assert_eq!(dc.activation().time(), 99);    // propagates afresh
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DeathCertificate {
    deleted_at: Timestamp,
    activation: Timestamp,
    retention: Vec<SiteId>,
}

impl DeathCertificate {
    /// Creates a certificate with no retention sites. Its activation
    /// timestamp starts equal to the deletion timestamp (§2.2).
    pub(crate) fn new(deleted_at: Timestamp) -> Self {
        DeathCertificate {
            deleted_at,
            activation: deleted_at,
            retention: Vec::new(),
        }
    }

    /// Creates a certificate whose dormant copies will be retained at the
    /// given sites (chosen at random by the deleting site, §2.1).
    pub fn with_retention(deleted_at: Timestamp, retention: Vec<SiteId>) -> Self {
        DeathCertificate {
            deleted_at,
            activation: deleted_at,
            retention,
        }
    }

    /// The ordinary timestamp: when the item was deleted. This is what
    /// cancels old copies of the item.
    pub fn deleted_at(&self) -> Timestamp {
        self.deleted_at
    }

    /// The activation timestamp: controls dormancy and propagation (§2.2).
    pub fn activation(&self) -> Timestamp {
        self.activation
    }

    /// Whether `site` is one of the retention sites.
    pub(crate) fn retains_at(&self, site: SiteId) -> bool {
        self.retention.contains(&site)
    }

    /// Reactivates the certificate: sets the activation timestamp to `now`,
    /// leaving the ordinary timestamp unchanged (§2.2). Called when a
    /// dormant certificate meets an obsolete copy of its item.
    pub fn reactivate(&mut self, now: Timestamp) {
        debug_assert!(now >= self.activation, "activation must not go backwards");
        self.activation = now;
    }

    /// The certificate's lifecycle stage at local time `now` under a dormant
    /// scheme with thresholds `τ₁` and `τ₂`, as seen from `site`.
    pub(crate) fn stage(&self, site: SiteId, now: u64, tau1: u64, tau2: u64) -> DeathStage {
        let age = self.activation.age(now);
        if age <= tau1 {
            DeathStage::Active
        } else if age - tau1 <= tau2 && self.retains_at(site) {
            DeathStage::Dormant
        } else {
            DeathStage::Expired
        }
    }
}

/// Lifecycle stage of a death certificate under the dormant scheme (§2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum DeathStage {
    /// Younger than `τ₁`: held at every site and propagated normally.
    Active,
    /// Between `τ₁` and `τ₁+τ₂` at a retention site: held but **not**
    /// propagated by anti-entropy (§2.2) until reactivated.
    Dormant,
    /// Older than its retention window (or past `τ₁` at a non-retention
    /// site): may be discarded.
    Expired,
}

/// Garbage-collection policy for death certificates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GcPolicy {
    /// Keep every certificate forever (baseline; unbounded space).
    KeepForever,
    /// Discard certificates older than `tau` at every site (§2's "30 days"
    /// strategy). Risks resurrection of items deleted longer ago than `tau`.
    FixedThreshold {
        /// Retention window in ticks.
        tau: u64,
    },
    /// Dormant death certificates (§2.1): discard after `tau1` except at the
    /// certificate's retention sites, which hold a dormant copy until
    /// `tau1 + tau2`.
    Dormant {
        /// Active window `τ₁` in ticks.
        tau1: u64,
        /// Additional dormant window `τ₂` in ticks.
        tau2: u64,
    },
}

impl GcPolicy {
    /// Whether a certificate with the given activation age may be discarded
    /// at `site`.
    pub fn discards(&self, dc: &DeathCertificate, site: SiteId, now: u64) -> bool {
        match *self {
            GcPolicy::KeepForever => false,
            GcPolicy::FixedThreshold { tau } => dc.activation().age(now) > tau,
            GcPolicy::Dormant { tau1, tau2 } => {
                dc.stage(site, now, tau1, tau2) == DeathStage::Expired
            }
        }
    }

    /// Whether a certificate should be *propagated* by anti-entropy at
    /// `site`/`now`: dormant certificates are held but not sent (§2.2).
    pub fn propagates(&self, dc: &DeathCertificate, site: SiteId, now: u64) -> bool {
        match *self {
            GcPolicy::KeepForever | GcPolicy::FixedThreshold { .. } => true,
            GcPolicy::Dormant { tau1, tau2 } => {
                dc.stage(site, now, tau1, tau2) == DeathStage::Active
            }
        }
    }

    /// The equal-space dormant window `τ₂ = (τ − τ₁)·n/r` of §2.1: the
    /// history extension obtained by retaining dormant copies at `r` of `n`
    /// sites instead of full copies everywhere for `τ`.
    ///
    /// # Panics
    ///
    /// Panics if `r == 0` or `tau < tau1`.
    pub fn equal_space_tau2(tau: u64, tau1: u64, n: u64, r: u64) -> u64 {
        assert!(r > 0, "at least one retention site is required");
        assert!(tau >= tau1, "tau must be at least tau1");
        (tau - tau1) * n / r
    }
}

/// Statistics from a garbage-collection sweep
/// ([`Database::collect_garbage`](crate::Database::collect_garbage)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct GcStats {
    /// Certificates discarded by the sweep.
    pub discarded: usize,
    /// Certificates kept in the active stage.
    pub active: usize,
    /// Certificates kept as dormant copies.
    pub dormant: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(t: u64) -> Timestamp {
        Timestamp::new(t, SiteId::new(0))
    }

    #[test]
    fn stages_progress_with_age() {
        let dc = DeathCertificate::with_retention(ts(100), vec![SiteId::new(1)]);
        let (tau1, tau2) = (10, 50);
        let retained = SiteId::new(1);
        let other = SiteId::new(2);
        assert_eq!(dc.stage(retained, 105, tau1, tau2), DeathStage::Active);
        assert_eq!(dc.stage(other, 105, tau1, tau2), DeathStage::Active);
        assert_eq!(dc.stage(retained, 130, tau1, tau2), DeathStage::Dormant);
        assert_eq!(dc.stage(other, 130, tau1, tau2), DeathStage::Expired);
        assert_eq!(dc.stage(retained, 200, tau1, tau2), DeathStage::Expired);
    }

    #[test]
    fn an_unbounded_dormant_window_never_expires() {
        // τ₂ = u64::MAX keeps dormant copies forever: τ₁ + τ₂ must not wrap.
        let dc = DeathCertificate::with_retention(ts(0), vec![SiteId::new(1)]);
        let policy = GcPolicy::Dormant {
            tau1: 10,
            tau2: u64::MAX,
        };
        for now in [11, 1_000, u64::MAX] {
            assert_eq!(
                dc.stage(SiteId::new(1), now, 10, u64::MAX),
                DeathStage::Dormant
            );
            assert!(!policy.discards(&dc, SiteId::new(1), now));
        }
    }

    #[test]
    fn reactivation_resets_stage_but_not_supersession() {
        let mut dc = DeathCertificate::with_retention(ts(100), vec![SiteId::new(1)]);
        assert_eq!(dc.stage(SiteId::new(1), 130, 10, 50), DeathStage::Dormant);
        dc.reactivate(Timestamp::new(130, SiteId::new(1)));
        assert_eq!(dc.stage(SiteId::new(1), 130, 10, 50), DeathStage::Active);
        assert_eq!(dc.deleted_at(), ts(100));
    }

    #[test]
    fn fixed_threshold_discards_old_certificates_everywhere() {
        let dc = DeathCertificate::new(ts(100));
        let policy = GcPolicy::FixedThreshold { tau: 30 };
        assert!(!policy.discards(&dc, SiteId::new(0), 120));
        assert!(policy.discards(&dc, SiteId::new(0), 131));
    }

    #[test]
    fn keep_forever_never_discards() {
        let dc = DeathCertificate::new(ts(1));
        assert!(!GcPolicy::KeepForever.discards(&dc, SiteId::new(0), u64::MAX));
    }

    #[test]
    fn dormant_certificates_are_not_propagated() {
        let dc = DeathCertificate::with_retention(ts(100), vec![SiteId::new(1)]);
        let policy = GcPolicy::Dormant { tau1: 10, tau2: 50 };
        assert!(policy.propagates(&dc, SiteId::new(1), 105));
        assert!(!policy.propagates(&dc, SiteId::new(1), 130));
    }

    #[test]
    fn equal_space_law_matches_paper_example() {
        // §2.1: "increase the effective history from 30 days to several
        // years": τ=30, τ₁=15, n=300, r=4 → τ₂ = 15*300/4 = 1125 days.
        assert_eq!(GcPolicy::equal_space_tau2(30, 15, 300, 4), 1125);
    }

    #[test]
    #[should_panic(expected = "retention site")]
    fn equal_space_requires_retention_sites() {
        GcPolicy::equal_space_tau2(30, 15, 300, 0);
    }
}

#[cfg(test)]
mod reactivation_aging_tests {
    use super::*;

    fn ts(t: u64) -> Timestamp {
        Timestamp::new(t, SiteId::new(0))
    }

    #[test]
    fn reactivated_certificates_age_from_their_new_activation() {
        // A certificate awakened at t=500 must survive another full τ1
        // from that moment, then go dormant/expire again — the §2.2
        // lifecycle is driven entirely by the activation timestamp.
        let site = SiteId::new(1);
        let (tau1, tau2) = (100, 1_000);
        let mut dc = DeathCertificate::with_retention(ts(0), vec![site]);
        assert_eq!(dc.stage(site, 150, tau1, tau2), DeathStage::Dormant);
        dc.reactivate(Timestamp::new(500, SiteId::new(2)));
        assert_eq!(dc.stage(site, 550, tau1, tau2), DeathStage::Active);
        assert_eq!(dc.stage(site, 700, tau1, tau2), DeathStage::Dormant);
        assert_eq!(dc.stage(site, 1_700, tau1, tau2), DeathStage::Expired);
        // The supersession timestamp never moved.
        assert_eq!(dc.deleted_at(), ts(0));
    }

    #[test]
    fn non_retention_sites_drop_straight_to_expired() {
        let dc = DeathCertificate::with_retention(ts(0), vec![SiteId::new(1)]);
        let outsider = SiteId::new(9);
        assert_eq!(dc.stage(outsider, 50, 100, 1_000), DeathStage::Active);
        assert_eq!(dc.stage(outsider, 150, 100, 1_000), DeathStage::Expired);
    }

    #[test]
    fn retention_listing_is_exact() {
        let dc = DeathCertificate::with_retention(ts(1), vec![SiteId::new(3), SiteId::new(5)]);
        assert!(dc.retains_at(SiteId::new(3)));
        assert!(dc.retains_at(SiteId::new(5)));
        assert!(!dc.retains_at(SiteId::new(4)));
    }
}
