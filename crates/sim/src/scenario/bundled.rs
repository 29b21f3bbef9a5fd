//! The `.scenario` files shipped with the crate (`crates/sim/scenarios/`).
//!
//! Four re-express the historical drivers (§1.5's Clearinghouse, §2.3's
//! dormant death certificates, a partition that heals and a crash during
//! a rumor); their callers run them as specs, editing fields for their
//! variants. The rest are new runs only expressible declaratively: §2's
//! site churn on a grid (which `ablation-churn` edits and runs on the
//! CIN), a flash crowd under lossy links, and churn across a partition
//! heal. `repro fig-scenarios` sweeps all of them.

use super::spec::{FaultKind, Scenario, TopologySpec};
use crate::engine::UpdateInjector;

/// Name → source text of every bundled scenario, in sweep order.
pub const SOURCES: &[(&str, &str)] = &[
    (
        "clearinghouse",
        include_str!("../../scenarios/clearinghouse.scenario"),
    ),
    (
        "dormant-death",
        include_str!("../../scenarios/dormant-death.scenario"),
    ),
    (
        "partition",
        include_str!("../../scenarios/partition.scenario"),
    ),
    ("crash", include_str!("../../scenarios/crash.scenario")),
    ("churn", include_str!("../../scenarios/churn.scenario")),
    (
        "flash-crowd-lossy",
        include_str!("../../scenarios/flash-crowd-lossy.scenario"),
    ),
    (
        "churn-partition-heal",
        include_str!("../../scenarios/churn-partition-heal.scenario"),
    ),
];

/// Parses every bundled scenario. Panics only if a shipped file is
/// malformed, which the tests below rule out.
pub fn all() -> Vec<Scenario> {
    SOURCES
        .iter()
        .map(|(name, text)| {
            let spec = Scenario::parse(text)
                .unwrap_or_else(|e| panic!("bundled scenario {name} is malformed: {e}"));
            assert_eq!(&spec.name, name, "bundled file name matches its spec");
            spec
        })
        .collect()
}

/// Parses the bundled scenario with the given name, if one exists.
pub fn by_name(name: &str) -> Option<Scenario> {
    SOURCES
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(n, text)| Scenario::parse(text).unwrap_or_else(|e| panic!("bundled {n}: {e}")))
}

/// The bundled `churn` spec on `sites` sites under the per-cycle churn
/// rates `fail` and `recover`, its update at a random site: §2's churn
/// ablation, for [`ScenarioEngine::run_with_policy`] on a topology's own
/// sampler, which stands in for the spec's grid (dropped here).
///
/// [`ScenarioEngine::run_with_policy`]: super::ScenarioEngine::run_with_policy
pub fn churn(sites: usize, fail: f64, recover: f64) -> Scenario {
    let mut spec = by_name("churn").expect("bundled");
    spec.sites = sites;
    spec.topology = TopologySpec::Uniform;
    for event in &mut spec.events {
        match &mut event.kind {
            FaultKind::Update { site, .. } => *site = None,
            FaultKind::Churn {
                fail: f,
                recover: r,
            } => (*f, *r) = (fail, recover),
            _ => {}
        }
    }
    spec
}

/// A steady-state workload on `sites` uniformly mixed sites and no
/// protocol yet: `rate` client updates a cycle, at random sites under
/// fresh keys, through `warmup` unmeasured and `cycles` measured cycles,
/// then `drain` measured cycles without injection — the schedule of the
/// §1.3, §1.4 and §3.1 steady-state figures, which set the protocol.
pub fn steady(sites: usize, rate: f64, [warmup, cycles, drain]: [u32; 3]) -> Scenario {
    let (mut spec, mut carry) = (Scenario::new("steady", sites), UpdateInjector::new(rate));
    spec.workload.rate = rate;
    // What the carry accumulator injects over those cycles, exactly.
    spec.workload.budget = Some((0..warmup + cycles).map(|_| u64::from(carry.due())).sum());
    spec.warmup = warmup;
    spec.max_cycles = warmup + cycles + drain;
    spec
}

#[cfg(test)]
mod tests {
    use epidemic_core::rumor::Removal;
    use epidemic_core::MailConfig;

    use super::*;
    use crate::scenario::{
        AntiEntropySpec, ScenarioArena, ScenarioEngine, ScenarioReport, SiteSet,
    };

    fn run(spec: Scenario, seed: u64) -> ScenarioReport {
        let engine = ScenarioEngine::new(spec).expect("spec is valid");
        engine.run(&mut ScenarioArena::new(), seed, &mut ())
    }

    #[test]
    fn every_bundled_scenario_parses_and_validates() {
        let specs = all();
        assert_eq!(specs.len(), SOURCES.len());
        for spec in &specs {
            spec.validate().expect("bundled specs are coherent");
        }
    }

    /// Stores are sized only for a budget of updates, ≤ 2¹⁸ rows in all.
    #[test]
    fn stores_are_sized_only_for_a_budget_of_updates() {
        assert_eq!(steady(200, 4.0, [0, 100, 200]).store_keys(), 400);
        let mut spec = steady(64, 1.0, [0, 100_000, 0]);
        assert_eq!(spec.store_keys(), (1 << 18) / 64);
        spec.workload.mix.read = 1;
        assert_eq!(spec.store_keys(), 0, "reads draw from the budget");
        (spec.workload.mix.read, spec.workload.budget) = (0, None);
        assert_eq!(spec.store_keys(), 0, "unbudgeted");
    }

    #[test]
    fn bundled_files_round_trip_through_render() {
        for spec in all() {
            let rendered = spec.render();
            let reparsed = Scenario::parse(&rendered).expect("render output parses");
            assert_eq!(reparsed, spec, "render/parse round-trip for {}", spec.name);
        }
    }

    /// A bundled file without comments is exactly its spec's canonical
    /// rendering, so regenerating one after a spec change is `render()`.
    #[test]
    fn every_comment_free_bundled_file_is_its_own_canonical_rendering() {
        let plain: Vec<_> = SOURCES
            .iter()
            .filter(|(_, text)| !text.lines().any(|line| line.starts_with('#')))
            .collect();
        assert_eq!(plain.len(), 4, "the four historical drivers");
        for (name, text) in plain {
            assert_eq!(*text, by_name(name).unwrap().render(), "{name}");
        }
    }

    /// The bundled `clearinghouse` run (§1.5: fallible direct mail with
    /// anti-entropy every `ae_every` cycles as the backup, or none).
    fn clearinghouse(
        sites: usize,
        mail: MailConfig,
        updates: u64,
        ae_every: Option<u32>,
    ) -> Scenario {
        let mut spec = by_name("clearinghouse").expect("bundled");
        spec.sites = sites;
        spec.protocol.mail = Some(mail);
        let ae = spec.protocol.anti_entropy.take().expect("a backup");
        spec.protocol.anti_entropy = ae_every.map(|every| AntiEntropySpec { every, ..ae });
        spec.workload.budget = Some(updates);
        spec
    }

    const LOSSY: MailConfig = MailConfig {
        loss_probability: 0.2,
        queue_capacity: 100,
    };

    #[test]
    fn clearinghouse_reaches_consistency_despite_lossy_mail() {
        let mut spec = clearinghouse(30, LOSSY, 10, Some(3));
        spec.max_cycles = 2_000;
        let report = run(spec, 11);
        let mail = report.mail.expect("the spec mails");
        assert!(report.converged_at.is_some());
        assert!(
            mail.lost + mail.overflowed > 0,
            "the mail should actually fail"
        );
        assert!(report.ae_sent > 0, "anti-entropy should repair losses");
    }

    #[test]
    fn without_anti_entropy_lossy_mail_leaves_holes() {
        let mut spec = clearinghouse(30, LOSSY, 10, None);
        spec.max_cycles = 300;
        assert_eq!(run(spec, 11).converged_at, None);
    }

    #[test]
    fn perfect_mail_needs_no_repairs() {
        let mut spec = clearinghouse(20, MailConfig::default(), 5, Some(4));
        spec.max_cycles = 500;
        let report = run(spec, 3);
        let mail = report.mail.expect("the spec mails");
        assert!(report.converged_at.is_some());
        assert_eq!(mail.lost + mail.overflowed, 0);
    }

    /// The bundled `dormant-death` run (§2.3): a site sleeps through a
    /// deletion and the certificate's active window, then rejoins with the
    /// obsolete item. τ₂ = u64::MAX keeps the dormant copies forever.
    #[test]
    fn dormant_certificates_cancel_rejoining_obsolete_data() {
        for tau2 in [100_000, u64::MAX] {
            let mut spec = by_name("dormant-death").expect("bundled");
            for event in &mut spec.events {
                if let FaultKind::Gc { tau2: t, .. } = &mut event.kind {
                    *t = tau2;
                }
            }
            let report = run(spec, 17);
            assert!(
                report.awakened >= 1,
                "τ₂ = {tau2}: a dormant certificate must awaken"
            );
            assert!(report.cancelled, "τ₂ = {tau2}");
            assert_eq!(
                report.certs_after_gc,
                Some(0),
                "no active certificates should remain after τ₁"
            );
        }
    }

    /// The bundled `churn` scenario: a third of the fleet is down at any
    /// moment, and distribution still completes (§2's premise for why
    /// anti-entropy does not stall where snapshot protocols do).
    #[test]
    fn anti_entropy_survives_heavy_churn() {
        let engine = ScenarioEngine::new(by_name("churn").expect("bundled")).expect("valid");
        for seed in 0..10 {
            let report = engine.run(&mut ScenarioArena::new(), seed, &mut ());
            assert_eq!(report.residue, 0.0, "seed {seed}");
            // The chain's stationary down fraction, fail / (fail + recover).
            let down = report.down_fraction;
            assert!((down - 1.0 / 3.0).abs() < 0.15, "seed {seed}: {down}");
        }
    }

    /// Churn slows anti-entropy down but does not stop it; with no churn
    /// every site stays up.
    #[test]
    fn churn_slows_but_does_not_stop_convergence() {
        let engine = |fail, recover| ScenarioEngine::new(churn(36, fail, recover)).expect("valid");
        let (quiet, stormy) = (engine(0.0, 1.0), engine(0.2, 0.2));
        let (mut quiet_t, mut stormy_t) = (0, 0);
        for seed in 0..10 {
            let arena = &mut ScenarioArena::new();
            let (q, s) = (
                quiet.run(arena, seed, &mut ()),
                stormy.run(arena, seed, &mut ()),
            );
            assert_eq!(
                [q.residue, q.down_fraction, s.residue],
                [0.0; 3],
                "seed {seed}"
            );
            (quiet_t, stormy_t) = (quiet_t + q.cycles, stormy_t + s.cycles);
        }
        assert!(stormy_t > quiet_t, "stormy {stormy_t} vs quiet {quiet_t}");
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
        let report = partition(12).run(&mut ScenarioArena::new(), 21, &mut ());
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
            let report = engine.run(&mut ScenarioArena::new(), seed, &mut ());
            assert!(report.converged_at.is_some());
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
        let report = run(spec, seed);
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
