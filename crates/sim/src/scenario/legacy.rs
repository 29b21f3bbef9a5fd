//! The historical scenario drivers that still have callers, re-expressed
//! as declarative specs (paper §1.2, §1.5, §2).
//!
//! Each public type below used to hand-roll its own simulation loop;
//! now each is a thin adapter: its `to_scenario` builds the
//! equivalent [`Scenario`] spec (byte-identical to the bundled
//! `.scenario` file of the same name — pinned in [`super::bundled`]) and
//! `run` maps the [`super::ScenarioReport`] back onto the original report
//! shape. The partition and crash scenarios have no adapter: they are
//! their bundled files. The behavioral assertions all four old drivers
//! carried (goldened thresholds, not RNG streams — the bespoke loops drew
//! randomness in driver-specific orders no shared engine could
//! reproduce) live on in this module's tests.

use epidemic_core::rumor::{Feedback, Removal, RumorConfig};
use epidemic_core::{AntiEntropy, Comparison, Direction, MailConfig, Redistribution, Replica};
use epidemic_db::SiteId;
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::engine::ScenarioEngine;
use super::spec::{
    AntiEntropySpec, FaultEvent, FaultKind, Scenario, SiteSet, StopRule, Workload, WorkloadMix,
};
use crate::engine::protocols::random_pair;
use crate::util::{pair_mut, site_ids};

/// An update-only workload injecting `rate` updates per cycle until
/// `budget` have been placed.
fn update_workload(rate: f64, budget: u64) -> Workload {
    Workload {
        rate,
        budget: Some(budget),
        retention: 1,
        mix: WorkloadMix {
            update: 1,
            delete: 0,
            read: 0,
        },
    }
}

/// Configuration for the Clearinghouse-style workload (§1.5): direct mail
/// for initial distribution (fallible), periodic anti-entropy as the
/// backup, with a configurable redistribution policy.
#[derive(Debug, Clone, PartialEq)]
pub struct ClearinghouseScenario {
    /// Number of database sites.
    pub sites: usize,
    /// Failure model of the mail transport.
    pub mail: MailConfig,
    /// Client updates injected, one per cycle starting at cycle 1, each at
    /// a random site.
    pub updates: usize,
    /// Anti-entropy runs every this many cycles (0 disables it).
    pub anti_entropy_every: u32,
    /// What anti-entropy does with discovered updates (§1.5).
    pub redistribution: Redistribution,
    /// When `Some(k)`, sites run push rumor mongering with feedback
    /// counters at threshold `k` — the initial-distribution role rumors
    /// play in §1.5, and what makes [`Redistribution::Rumor`] actually
    /// spread rediscovered updates.
    pub rumor_k: Option<u32>,
    /// Safety bound on simulated cycles.
    pub max_cycles: u32,
}

impl Default for ClearinghouseScenario {
    fn default() -> Self {
        ClearinghouseScenario {
            sites: 50,
            mail: MailConfig {
                loss_probability: 0.05,
                queue_capacity: 1_000,
            },
            updates: 20,
            anti_entropy_every: 5,
            redistribution: Redistribution::None,
            rumor_k: None,
            max_cycles: 10_000,
        }
    }
}

/// Outcome of a Clearinghouse workload run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClearinghouseReport {
    /// First cycle at which every replica was identical (after all updates
    /// were injected); `None` if never within the bound.
    pub consistent_at: Option<u32>,
    /// Mail messages lost or dropped by overflow.
    pub mail_failures: usize,
    /// Mail messages delivered.
    pub mail_delivered: usize,
    /// Entries shipped by anti-entropy (the repairs).
    pub ae_repairs: usize,
}

impl ClearinghouseScenario {
    /// The equivalent declarative spec.
    pub(crate) fn to_scenario(&self) -> Scenario {
        let mut spec = Scenario::new("clearinghouse", self.sites);
        spec.protocol.mail = Some(self.mail);
        if self.anti_entropy_every > 0 {
            spec.protocol.anti_entropy = Some(AntiEntropySpec {
                every: self.anti_entropy_every,
                from: 0,
                redistribution: self.redistribution,
            });
        }
        spec.protocol.rumor = self
            .rumor_k
            .map(|k| RumorConfig::new(Direction::Push, Feedback::Feedback, Removal::Counter { k }));
        spec.workload = update_workload(1.0, self.updates as u64);
        spec.until = StopRule::Converged;
        spec.max_cycles = self.max_cycles;
        spec
    }

    /// Runs the workload to consistency (or the cycle bound).
    pub fn run(&self, seed: u64) -> ClearinghouseReport {
        let report = ScenarioEngine::new(self.to_scenario())
            .expect("clearinghouse spec is valid")
            .run(seed, &mut ());
        let mail = report.mail.expect("clearinghouse always mails");
        ClearinghouseReport {
            consistent_at: report.converged_at,
            mail_failures: mail.lost + mail.overflowed,
            mail_delivered: mail.delivered,
            ae_repairs: usize::try_from(report.ae_sent).unwrap_or(usize::MAX),
        }
    }
}

/// Demonstrates §2's motivating failure: if a site deletes an item by
/// simply forgetting it (no death certificate), anti-entropy resurrects the
/// item from the other replicas. Returns `true` if the item is back at the
/// deleting site afterwards (it always is).
///
/// This one deliberately stays a hand-written loop: its "deletion" is
/// rebuilding a replica without the item — an operation outside any sane
/// spec vocabulary, which is rather the point of the demonstration.
pub fn resurrection_without_certificates(sites: usize, seed: u64) -> bool {
    assert!(sites >= 3);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut replicas: Vec<Replica<&str, u32>> = site_ids(sites).map(Replica::new).collect();
    let ae = AntiEntropy::new(Direction::PushPull, Comparison::Full);
    replicas[0].client_update("item", 7);
    converge(&mut replicas, &ae, &mut rng);

    // "Delete" at site 0 by rebuilding its replica without the item — the
    // naive removal the paper warns against.
    let fresh = Replica::new(SiteId::new(0));
    replicas[0] = fresh;

    converge(&mut replicas, &ae, &mut rng);
    replicas[0].db().get(&"item") == Some(&7)
}

/// Runs random push-pull anti-entropy rounds until all replicas agree.
fn converge(replicas: &mut [Replica<&'static str, u32>], ae: &AntiEntropy, rng: &mut StdRng) {
    let n = replicas.len();
    let mut scratch = epidemic_core::ExchangeScratch::new();
    for _ in 0..50 * n {
        let (i, j) = random_pair(n, rng);
        let (a, b) = pair_mut(replicas, i, j);
        ae.exchange_with(a, b, &mut scratch);
        let first = &replicas[0];
        if replicas[1..].iter().all(|r| r.db() == first.db()) {
            return;
        }
    }
    panic!("replicas failed to converge within the exchange budget");
}

/// Configuration for the dormant-death-certificate scenario (§2.1–2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DormantDeathScenario {
    /// Number of sites (including the one that goes down).
    pub sites: usize,
    /// Active retention window `τ₁` in ticks.
    pub tau1: u64,
    /// Dormant retention window `τ₂` in ticks.
    pub tau2: u64,
    /// Number of retention sites `r` for the certificate.
    pub retention: usize,
}

impl Default for DormantDeathScenario {
    fn default() -> Self {
        DormantDeathScenario {
            sites: 20,
            tau1: 50,
            tau2: 100_000,
            retention: 2,
        }
    }
}

/// Outcome of the dormant-certificate run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DormantReport {
    /// Dormant certificates awakened during the rejoin.
    pub awakened: usize,
    /// Whether the obsolete item was cancelled everywhere at the end.
    pub obsolete_cancelled: bool,
    /// Sites still holding a (non-dormant) death certificate after GC —
    /// should be 0 once `τ₁` has passed.
    pub certificates_active_after_gc: usize,
}

impl DormantDeathScenario {
    /// The equivalent declarative spec:
    ///
    /// 1. all sites converge on an item (anti-entropy every cycle);
    /// 2. the last site goes down;
    /// 3. the item is deleted with `r` retention sites; the deletion
    ///    propagates and the `gc` event garbage-collects past `τ₁`
    ///    (dormant copies remain only at retention sites);
    /// 4. the down site rejoins with its obsolete copy — a dormant
    ///    certificate must awaken and cancel it everywhere.
    pub(crate) fn to_scenario(self) -> Scenario {
        let mut spec = Scenario::new("dormant-death", self.sites);
        spec.protocol.anti_entropy = Some(AntiEntropySpec {
            every: 1,
            from: 0,
            redistribution: Redistribution::None,
        });
        spec.events = vec![
            FaultEvent {
                cycle: 0,
                kind: FaultKind::Update {
                    site: Some(0),
                    count: 1,
                },
            },
            FaultEvent {
                cycle: 10,
                kind: FaultKind::Crash(SiteSet::Last(1)),
            },
            FaultEvent {
                cycle: 12,
                kind: FaultKind::Delete {
                    site: 0,
                    key: 0,
                    retention: u32::try_from(self.retention).expect("retention fits u32"),
                },
            },
            FaultEvent {
                cycle: 26,
                kind: FaultKind::Gc {
                    tau1: self.tau1,
                    tau2: self.tau2,
                },
            },
            FaultEvent {
                cycle: 28,
                kind: FaultKind::Recover(SiteSet::All),
            },
        ];
        spec.until = StopRule::Cancelled;
        spec.max_cycles = 400;
        spec
    }

    /// Runs the scenario.
    pub fn run(&self, seed: u64) -> DormantReport {
        assert!(self.sites >= 4);
        assert!(self.retention >= 1 && self.retention < self.sites - 1);
        let report = ScenarioEngine::new(self.to_scenario())
            .expect("dormant-death spec is valid")
            .run(seed, &mut ());
        DormantReport {
            awakened: usize::try_from(report.awakened).unwrap_or(usize::MAX),
            obsolete_cancelled: report.cancelled,
            certificates_active_after_gc: usize::try_from(report.certs_after_gc.unwrap_or(0))
                .unwrap_or(usize::MAX),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::bundled::by_name;
    use super::*;

    #[test]
    fn clearinghouse_reaches_consistency_despite_lossy_mail() {
        let scenario = ClearinghouseScenario {
            sites: 30,
            mail: MailConfig {
                loss_probability: 0.2,
                queue_capacity: 100,
            },
            updates: 10,
            anti_entropy_every: 3,
            redistribution: Redistribution::None,
            rumor_k: None,
            max_cycles: 2_000,
        };
        let report = scenario.run(11);
        assert!(report.consistent_at.is_some());
        assert!(report.mail_failures > 0, "the mail should actually fail");
        assert!(report.ae_repairs > 0, "anti-entropy should repair losses");
    }

    #[test]
    fn without_anti_entropy_lossy_mail_leaves_holes() {
        let scenario = ClearinghouseScenario {
            sites: 30,
            mail: MailConfig {
                loss_probability: 0.2,
                queue_capacity: 100,
            },
            updates: 10,
            anti_entropy_every: 0, // disabled
            redistribution: Redistribution::None,
            rumor_k: None,
            max_cycles: 300,
        };
        let report = scenario.run(11);
        assert_eq!(report.consistent_at, None);
    }

    #[test]
    fn perfect_mail_needs_no_repairs() {
        let scenario = ClearinghouseScenario {
            sites: 20,
            mail: MailConfig::default(),
            updates: 5,
            anti_entropy_every: 4,
            redistribution: Redistribution::None,
            rumor_k: None,
            max_cycles: 500,
        };
        let report = scenario.run(3);
        assert!(report.consistent_at.is_some());
        assert_eq!(report.mail_failures, 0);
    }

    #[test]
    fn naive_deletion_resurrects() {
        assert!(resurrection_without_certificates(10, 5));
    }

    #[test]
    fn dormant_certificates_cancel_rejoining_obsolete_data() {
        let report = DormantDeathScenario::default().run(17);
        assert!(report.awakened >= 1, "a dormant certificate must awaken");
        assert!(report.obsolete_cancelled);
        assert_eq!(
            report.certificates_active_after_gc, 0,
            "no active certificates should remain after tau1"
        );
    }

    /// The bundled `partition` scenario (§1.5: the peel-back ∪ rumor
    /// protocol "behaves well when a network partitions and rejoins") with
    /// `updates_per_half` updates injected in each half while split.
    fn partition(updates_per_half: u64) -> ScenarioEngine {
        let mut spec = by_name("partition").expect("bundled");
        spec.workload.budget = Some(2 * updates_per_half);
        let heal = spec.events.iter_mut().find(|e| e.kind == FaultKind::Heal);
        heal.expect("the partition heals").cycle = u32::try_from(updates_per_half).unwrap() + 4;
        ScenarioEngine::new(spec).expect("partition spec is valid")
    }

    #[test]
    fn partition_rejoin_converges_with_bounded_traffic() {
        let report = partition(12).run(21, &mut ());
        assert!(report.converged_at.is_some());
        // Each update must cross to 8 other sites: entries shipped after
        // the heal is bounded by a small multiple of updates x sites.
        let at_heal = report.milestones.iter().find(|m| m.label == "heal");
        let at_heal = at_heal.expect("the heal event fires");
        assert!(report.totals.sent - at_heal.sent < 24 * 16 * 4);
    }

    #[test]
    fn partition_rejoin_handles_conflicts() {
        // Concurrent writes race on both sides of the partition:
        // timestamps decide, and both halves agree after rejoin.
        let engine = partition(6);
        for seed in 0..3 {
            assert!(engine.run(seed, &mut ()).converged_at.is_some());
        }
    }

    /// The bundled `crash` scenario (§1.4's failure mode with §1.5's
    /// remedy) with `down_fraction` of the sites down while a rumor with
    /// counter `k` spreads: how many sites the rumor had missed when they
    /// recovered, and whether backup anti-entropy reached full coverage.
    fn crash(down_fraction: f64, k: u32, seed: u64) -> (usize, bool) {
        let mut spec = by_name("crash").expect("bundled");
        for event in &mut spec.events {
            if let FaultKind::Crash(set) = &mut event.kind {
                *set = SiteSet::Fraction(down_fraction);
            }
        }
        spec.protocol.rumor.as_mut().expect("a rumor stage").removal = Removal::Counter { k };
        let sites = spec.sites;
        let report = ScenarioEngine::new(spec)
            .expect("crash spec is valid")
            .run(seed, &mut ());
        let at_recover = report.milestones.iter().find(|m| m.label == "recover");
        let at_recover = at_recover.expect("the recover event fires");
        (sites - at_recover.covered, report.residue == 0.0)
    }

    #[test]
    fn downed_sites_miss_rumors_but_backup_repairs() {
        let (missed_by_rumor, repaired) = crash(0.3, 2, 5);
        assert!(
            missed_by_rumor >= 12,
            "the down sites cannot hear the rumor: {missed_by_rumor}"
        );
        assert!(repaired);
    }

    #[test]
    fn crash_free_run_misses_almost_nobody() {
        let (missed_by_rumor, repaired) = crash(0.0, 4, 6);
        assert!(missed_by_rumor <= 2, "{missed_by_rumor}");
        assert!(repaired);
    }
}
