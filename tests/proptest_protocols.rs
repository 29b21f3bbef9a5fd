//! Property-based integration tests: convergence is invariant to protocol
//! choice, exchange schedule and delivery order.

use epidemics::core::{AntiEntropy, Comparison, Direction, Replica};
use epidemics::db::SiteId;
use proptest::prelude::*;

type Fleet = Vec<Replica<u8, u16>>;

#[derive(Debug, Clone)]
struct Workload {
    // (site, key, value) triples; timestamps are assigned in sequence so
    // every execution of the same workload has the same winners.
    writes: Vec<(u8, u8, u16)>,
    deletes: Vec<(u8, u8)>,
}

fn workload() -> impl Strategy<Value = Workload> {
    (
        prop::collection::vec((0u8..6, any::<u8>(), any::<u16>()), 1..40),
        prop::collection::vec((0u8..6, any::<u8>()), 0..10),
    )
        .prop_map(|(writes, deletes)| Workload { writes, deletes })
}

fn apply_workload(replicas: &mut Fleet, w: &Workload) {
    let mut time = 10;
    for &(site, key, value) in &w.writes {
        for r in replicas.iter_mut() {
            r.advance_clock(time);
        }
        replicas[site as usize].client_update(key, value);
        time += 10;
    }
    for &(site, key) in &w.deletes {
        for r in replicas.iter_mut() {
            r.advance_clock(time);
        }
        replicas[site as usize].client_delete(&key);
        time += 10;
    }
}

fn run_schedule(replicas: &mut Fleet, protocol: &AntiEntropy, schedule: &[(u8, u8)]) {
    for &(i, j) in schedule {
        let (i, j) = (i as usize % replicas.len(), j as usize % replicas.len());
        if i == j {
            continue;
        }
        let [a, b] = replicas.get_disjoint_mut([i, j]).unwrap();
        protocol.exchange(a, b);
    }
}

/// A "round robin of pairs" schedule guaranteed to connect 6 sites several
/// times over.
fn saturating_schedule() -> Vec<(u8, u8)> {
    let mut schedule = Vec::new();
    for _ in 0..6 {
        for i in 0..6u8 {
            for j in (i + 1)..6u8 {
                schedule.push((i, j));
            }
        }
    }
    schedule
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Push-pull anti-entropy converges every workload under a saturating
    /// schedule, and the final state is identical for every comparison
    /// strategy.
    #[test]
    fn all_strategies_agree(w in workload()) {
        let mut reference: Option<u64> = None;
        for comparison in [
            Comparison::Full,
            Comparison::Checksum,
            Comparison::RecentList { tau: 30 },
            Comparison::PeelBack,
        ] {
            let mut replicas: Fleet =
                (0..6).map(|i| Replica::new(SiteId::new(i))).collect();
            apply_workload(&mut replicas, &w);
            let protocol = AntiEntropy::new(Direction::PushPull, comparison);
            run_schedule(&mut replicas, &protocol, &saturating_schedule());
            for r in &replicas[1..] {
                prop_assert_eq!(r.db(), replicas[0].db(), "{:?}", comparison);
            }
            let checksum = replicas[0].db().checksum().value();
            match reference {
                None => reference = Some(checksum),
                Some(expected) => prop_assert_eq!(checksum, expected),
            }
        }
    }

    /// The exchange schedule's order does not change the converged state.
    #[test]
    fn schedule_order_is_irrelevant(w in workload(), seed in any::<u64>()) {
        let protocol = AntiEntropy::new(Direction::PushPull, Comparison::Full);
        let forward = {
            let mut replicas: Fleet =
                (0..6).map(|i| Replica::new(SiteId::new(i))).collect();
            apply_workload(&mut replicas, &w);
            run_schedule(&mut replicas, &protocol, &saturating_schedule());
            replicas[0].db().checksum()
        };
        let mut shuffled = saturating_schedule();
        let mut state = seed | 1;
        for i in (1..shuffled.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (state >> 33) as usize % (i + 1);
            shuffled.swap(i, j);
        }
        let backward = {
            let mut replicas: Fleet =
                (0..6).map(|i| Replica::new(SiteId::new(i))).collect();
            apply_workload(&mut replicas, &w);
            run_schedule(&mut replicas, &protocol, &shuffled);
            replicas[0].db().checksum()
        };
        prop_assert_eq!(forward, backward);
    }

    /// After convergence, every key's winner is the workload operation with
    /// the greatest timestamp (deletes included).
    #[test]
    fn winners_are_the_latest_operations(w in workload()) {
        let mut replicas: Fleet =
            (0..6).map(|i| Replica::new(SiteId::new(i))).collect();
        apply_workload(&mut replicas, &w);
        let protocol = AntiEntropy::new(Direction::PushPull, Comparison::Full);
        run_schedule(&mut replicas, &protocol, &saturating_schedule());
        // Reconstruct expectations: writes then deletes in time order.
        let mut expected: std::collections::BTreeMap<u8, Option<u16>> = Default::default();
        for &(_, key, value) in &w.writes {
            expected.insert(key, Some(value));
        }
        for &(_, key) in &w.deletes {
            expected.insert(key, None);
        }
        for (key, value) in expected {
            prop_assert_eq!(replicas[0].db().get(&key), value.as_ref());
        }
    }
}
