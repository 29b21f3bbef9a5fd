//! Cross-crate integration: every propagation strategy drives a fleet of
//! replicas to the same converged state.

use epidemics::core::activity::{ActivityList, PeelBackRumor};
use epidemics::core::rumor;
use epidemics::core::{
    AntiEntropy, BackupAntiEntropy, Comparison, Direction, ExchangeScratch, Feedback,
    Redistribution, Removal, Replica, RumorConfig, RumorScratch,
};
use epidemics::db::SiteId;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

type Fleet = Vec<Replica<u32, u64>>;

fn fleet(n: usize) -> Fleet {
    (0..n)
        .map(|i| Replica::new(SiteId::new(i as u32)))
        .collect()
}

fn random_pair(rng: &mut StdRng, n: usize) -> (usize, usize) {
    let i = rng.random_range(0..n);
    let mut j = rng.random_range(0..n - 1);
    if j >= i {
        j += 1;
    }
    (i, j)
}

fn split_pair<T>(items: &mut [T], i: usize, j: usize) -> (&mut T, &mut T) {
    let [a, b] = items.get_disjoint_mut([i, j]).expect("two distinct sites");
    (a, b)
}

fn all_equal(replicas: &Fleet) -> bool {
    replicas[1..].iter().all(|r| r.db() == replicas[0].db())
}

/// Scatter `updates` client writes over the fleet at distinct timestamps.
fn scatter_updates(replicas: &mut Fleet, updates: usize, rng: &mut StdRng) {
    let n = replicas.len();
    for u in 0..updates {
        let site = rng.random_range(0..n);
        let time = (u as u64 + 1) * 10;
        for r in replicas.iter_mut() {
            r.advance_clock(time);
        }
        replicas[site].client_update(u as u32 % 50, u as u64);
    }
}

#[test]
fn anti_entropy_converges_under_every_comparison_strategy() {
    let strategies = [
        Comparison::Full,
        Comparison::Checksum,
        Comparison::RecentList { tau: 50 },
        Comparison::PeelBack,
    ];
    let mut finals = Vec::new();
    for comparison in strategies {
        let mut rng = StdRng::seed_from_u64(42);
        let mut replicas = fleet(25);
        scatter_updates(&mut replicas, 120, &mut rng);
        let protocol = AntiEntropy::new(Direction::PushPull, comparison);
        let mut exchanges = 0;
        while !all_equal(&replicas) {
            let (i, j) = random_pair(&mut rng, 25);
            let (a, b) = split_pair(&mut replicas, i, j);
            protocol.exchange(a, b);
            exchanges += 1;
            assert!(exchanges < 20_000, "no convergence under {comparison:?}");
        }
        finals.push(replicas[0].db().checksum());
    }
    // All strategies converge to the *same* state (same updates, same
    // last-writer-wins resolution).
    assert!(finals.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn push_only_anti_entropy_still_converges() {
    let mut rng = StdRng::seed_from_u64(7);
    let mut replicas = fleet(15);
    scatter_updates(&mut replicas, 40, &mut rng);
    let protocol = AntiEntropy::new(Direction::Push, Comparison::Full);
    let mut exchanges = 0;
    while !all_equal(&replicas) {
        let (i, j) = random_pair(&mut rng, 15);
        let (a, b) = split_pair(&mut replicas, i, j);
        protocol.exchange(a, b);
        exchanges += 1;
        assert!(exchanges < 50_000);
    }
}

#[test]
fn rumor_mongering_with_backup_never_loses_updates() {
    let mut rng = StdRng::seed_from_u64(99);
    let n = 30;
    let mut replicas = fleet(n);
    let cfg = RumorConfig::new(
        Direction::Push,
        Feedback::Feedback,
        Removal::Counter { k: 1 },
    );
    // Inject 10 rumors; k = 1 push dies early, leaving susceptible sites.
    for u in 0..10u32 {
        let site = rng.random_range(0..n);
        replicas[site].client_update(u, u64::from(u));
    }
    // Run rumor mongering to quiescence.
    let mut guard = 0;
    while replicas.iter().any(|r| !r.hot().is_empty()) {
        let infective: Vec<usize> = (0..n).filter(|&i| !replicas[i].hot().is_empty()).collect();
        for i in infective {
            let mut j = rng.random_range(0..n - 1);
            if j >= i {
                j += 1;
            }
            let (a, b) = split_pair(&mut replicas, i, j);
            rumor::contact_with(&cfg, a, b, &mut rng, &mut RumorScratch::new());
        }
        guard += 1;
        assert!(guard < 10_000);
    }
    let converged_by_rumor = all_equal(&replicas);
    // Back up with anti-entropy: redistributionless, pure repair.
    let backup = BackupAntiEntropy::new(Redistribution::None);
    let mut scratch = ExchangeScratch::new();
    let mut exchanges = 0;
    while !all_equal(&replicas) {
        let (i, j) = random_pair(&mut rng, n);
        let (a, b) = split_pair(&mut replicas, i, j);
        backup.exchange(a, b, &mut scratch);
        exchanges += 1;
        assert!(exchanges < 20_000);
    }
    // The interesting case is when the rumor alone did NOT finish the job.
    if !converged_by_rumor {
        assert!(exchanges > 0);
    }
    assert_eq!(replicas[0].db().len(), 10);
}

#[test]
fn peel_back_rumor_combination_is_failure_free() {
    // §1.5: the activity-list protocol converges with probability 1 —
    // exercise it as the *only* mechanism on a multi-update workload.
    let mut rng = StdRng::seed_from_u64(5);
    let n = 12;
    let mut replicas = fleet(n);
    let mut lists: Vec<ActivityList<u32>> = (0..n).map(|_| ActivityList::new()).collect();
    scatter_updates(&mut replicas, 60, &mut rng);
    let protocol = PeelBackRumor::new(4);
    let mut scratch = ExchangeScratch::new();
    let mut exchanges = 0;
    while !all_equal(&replicas) {
        let (i, j) = random_pair(&mut rng, n);
        let (a, b) = split_pair(&mut replicas, i, j);
        let (la, lb) = split_pair(&mut lists, i, j);
        protocol.exchange(a, la, b, lb, &mut scratch);
        exchanges += 1;
        assert!(exchanges < 10_000);
    }
    assert!(all_equal(&replicas));
}

#[test]
fn concurrent_writes_resolve_by_timestamp_everywhere() {
    let mut replicas = fleet(5);
    // Two sites write the same key; the later timestamp must win at all
    // sites regardless of delivery order.
    replicas[1].advance_clock(100);
    replicas[1].client_update(7, 111);
    replicas[3].advance_clock(200);
    replicas[3].client_update(7, 333);
    let protocol = AntiEntropy::new(Direction::PushPull, Comparison::Full);
    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..200 {
        let (i, j) = random_pair(&mut rng, 5);
        let (a, b) = split_pair(&mut replicas, i, j);
        protocol.exchange(a, b);
    }
    for r in &replicas {
        assert_eq!(r.db().get(&7), Some(&333));
    }
}

#[test]
fn a_new_site_catches_up_entirely_through_anti_entropy() {
    // Site addition needs no protocol beyond anti-entropy itself (§0.2
    // contrasts this with Sarin & Lynch's explicit site-addition
    // machinery): a fresh replica simply starts gossiping.
    let mut rng = StdRng::seed_from_u64(12);
    let mut replicas = fleet(10);
    scatter_updates(&mut replicas, 50, &mut rng);
    let protocol = AntiEntropy::new(Direction::PushPull, Comparison::Full);
    let mut budget = 0;
    while !all_equal(&replicas) {
        let (i, j) = random_pair(&mut rng, replicas.len());
        let (a, b) = split_pair(&mut replicas, i, j);
        protocol.exchange(a, b);
        budget += 1;
        assert!(budget < 10_000);
    }
    // The new site joins with an empty database.
    replicas.push(Replica::new(SiteId::new(10)));
    let mut exchanges_to_catch_up = 0;
    while !all_equal(&replicas) {
        let (i, j) = random_pair(&mut rng, replicas.len());
        let (a, b) = split_pair(&mut replicas, i, j);
        protocol.exchange(a, b);
        exchanges_to_catch_up += 1;
        assert!(exchanges_to_catch_up < 10_000);
    }
    assert_eq!(replicas[10].db().len(), replicas[0].db().len());
}

#[test]
fn checksum_anti_entropy_is_cheap_once_converged() {
    let mut rng = StdRng::seed_from_u64(13);
    let mut replicas = fleet(8);
    scatter_updates(&mut replicas, 30, &mut rng);
    let full = AntiEntropy::new(Direction::PushPull, Comparison::Full);
    for _ in 0..200 {
        let (i, j) = random_pair(&mut rng, 8);
        let (a, b) = split_pair(&mut replicas, i, j);
        full.exchange(a, b);
    }
    assert!(all_equal(&replicas));
    // From now on, checksum comparisons short-circuit every exchange.
    let cheap = AntiEntropy::new(Direction::PushPull, Comparison::Checksum);
    for _ in 0..50 {
        let (i, j) = random_pair(&mut rng, 8);
        let (a, b) = split_pair(&mut replicas, i, j);
        let stats = cheap.exchange(a, b);
        assert!(!stats.full_compare);
        assert_eq!(stats.total_sent(), 0);
        assert_eq!(stats.checksum_exchanges, 1);
    }
}
