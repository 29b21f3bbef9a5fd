//! Cross-crate integration: the §2 deletion machinery end to end.

use epidemics::core::{AntiEntropy, Comparison, Direction, Replica};
use epidemics::db::{Entry, GcPolicy, SiteId};
use epidemics::sim::scenario::{bundled, FaultKind, ScenarioArena, ScenarioEngine, ScenarioReport};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn converge(replicas: &mut [Replica<&'static str, u32>], rng: &mut StdRng) {
    let protocol = AntiEntropy::new(Direction::PushPull, Comparison::Full);
    let n = replicas.len();
    for _ in 0..100 * n {
        let i = rng.random_range(0..n);
        let mut j = rng.random_range(0..n - 1);
        if j >= i {
            j += 1;
        }
        let [a, b] = replicas.get_disjoint_mut([i, j]).unwrap();
        protocol.exchange(a, b);
        if replicas[1..].iter().all(|r| r.db() == replicas[0].db()) {
            return;
        }
    }
    panic!("failed to converge");
}

/// The bundled §2.3 dormant-death run at `sites` sites, its deletion
/// keeping dormant copies at `retention` sites: the last site goes down
/// holding the item, the item is deleted, certificates are collected past
/// τ₁ and the down site rejoins.
fn dormant_death(sites: usize, retention: u32, seed: u64) -> ScenarioReport {
    let mut spec = bundled::by_name("dormant-death").expect("bundled");
    spec.sites = sites;
    for event in &mut spec.events {
        if let FaultKind::Delete { retention: r, .. } = &mut event.kind {
            *r = retention;
        }
    }
    let engine = ScenarioEngine::new(spec).unwrap();
    engine.run(&mut ScenarioArena::new(), seed, &mut ())
}

/// §2's motivating failure: with no retention site no certificate
/// survives τ₁, so the item comes back exactly when the site that slept
/// through the deletion went down holding it.
#[test]
fn naive_deletion_always_resurrects() {
    let mut resurrected = 0;
    for seed in 0..50 {
        let report = dormant_death(20, 0, seed);
        let crash = report.milestones.iter().find(|m| m.label == "crash");
        let held = crash.expect("the crash event fires").covered == 20;
        assert_eq!(!report.cancelled, held, "seed {seed}");
        resurrected += usize::from(!report.cancelled);
    }
    assert!(resurrected > 0, "the failure mode reproduces");
}

#[test]
fn death_certificates_prevent_resurrection() {
    let mut rng = StdRng::seed_from_u64(2);
    let mut replicas: Vec<Replica<&str, u32>> =
        (0..10).map(|i| Replica::new(SiteId::new(i))).collect();
    replicas[0].client_update("doomed", 1);
    converge(&mut replicas, &mut rng);
    replicas[4].client_delete(&"doomed");
    converge(&mut replicas, &mut rng);
    for r in &replicas {
        assert_eq!(r.db().get(&"doomed"), None);
        assert!(r.db().entry(&"doomed").is_some_and(Entry::is_dead));
    }
}

#[test]
fn deleted_items_can_be_reinstated() {
    let mut rng = StdRng::seed_from_u64(3);
    let mut replicas: Vec<Replica<&str, u32>> =
        (0..8).map(|i| Replica::new(SiteId::new(i))).collect();
    replicas[0].client_update("phoenix", 1);
    converge(&mut replicas, &mut rng);
    replicas[1].client_delete(&"phoenix");
    converge(&mut replicas, &mut rng);
    // A newer update reinstates the item (§2.2's correctness requirement).
    for r in replicas.iter_mut() {
        r.advance_clock(10_000);
    }
    replicas[5].client_update("phoenix", 2);
    converge(&mut replicas, &mut rng);
    for r in &replicas {
        assert_eq!(r.db().get(&"phoenix"), Some(&2));
    }
}

#[test]
fn fixed_threshold_gc_reclaims_space_at_every_site() {
    let mut rng = StdRng::seed_from_u64(4);
    let mut replicas: Vec<Replica<&str, u32>> =
        (0..6).map(|i| Replica::new(SiteId::new(i))).collect();
    replicas[0].client_update("a", 1);
    replicas[0].client_update("b", 2);
    converge(&mut replicas, &mut rng);
    replicas[2].client_delete(&"a");
    converge(&mut replicas, &mut rng);
    let later = replicas.iter().map(Replica::local_time).max().unwrap() + 100;
    for r in replicas.iter_mut() {
        r.advance_clock(later);
        let stats = r.collect_garbage(GcPolicy::FixedThreshold { tau: 10 });
        assert_eq!(stats.discarded, 1);
        assert_eq!(r.db().len(), 1);
        assert_eq!(r.db().get(&"b"), Some(&2));
    }
}

/// §2.3's remedy: with retention sites a dormant certificate awakens and
/// cancels the rejoining obsolete copy.
#[test]
fn dormant_scenario_is_robust_across_seeds_and_sizes() {
    for (sites, retention, seed) in [(10, 1, 1), (20, 2, 2), (30, 3, 3)] {
        let report = dormant_death(sites, retention, seed);
        assert!(
            report.cancelled,
            "sites={sites} retention={retention} seed={seed}: {report:?}"
        );
        assert!(report.awakened >= 1);
    }
}

#[test]
fn reactivated_certificate_does_not_cancel_newer_reinstatement() {
    // The subtle §2.2 case: update x, delete x, certificate goes dormant,
    // x is *reinstated*, and only then an obsolete copy of the original x
    // arrives. The awakened certificate's ordinary timestamp is older than
    // the reinstatement, so the reinstated value must survive everywhere.
    let site = SiteId::new(0);
    let mut a: Replica<&str, u32> = Replica::new(site);
    a.client_update("x", 1);
    let old_entry = a.db().entry(&"x").unwrap().clone();
    a.client_delete_with_retention(&"x", vec![site]);
    a.advance_clock(1_000);
    a.collect_garbage(GcPolicy::Dormant {
        tau1: 10,
        tau2: 1_000_000,
    });
    assert_eq!(a.db().len(), 0);
    assert_eq!(a.db().dormant_len(), 1);

    // Reinstatement arrives (from another site, newer timestamp).
    let mut other: Replica<&str, u32> = Replica::new(SiteId::new(1));
    other.advance_clock(2_000);
    let t_new = other.client_update("x", 2);
    let outcome = a.receive_quietly_ref(&"x", &Entry::live(2, t_new));
    assert!(outcome.was_useful());
    assert_eq!(a.db().get(&"x"), Some(&2));
    assert_eq!(a.db().dormant_len(), 0, "superseded certificate dropped");

    // Even if the obsolete original shows up later, it cannot displace the
    // reinstated value.
    let outcome = a.receive_quietly_ref(&"x", &old_entry);
    assert!(!outcome.was_useful());
    assert_eq!(a.db().get(&"x"), Some(&2));
}
