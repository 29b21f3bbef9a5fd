//! Property-based tests for the protocol layer: no mix of protocol
//! actions can lose or regress data, and rumor bookkeeping stays sound.

use epidemic_core::rumor::{self, RumorConfig, RumorScratch};
use epidemic_core::{
    AntiEntropy, BackupAntiEntropy, Comparison, Direction, ExchangeScratch, Feedback,
    Redistribution, Removal, Replica,
};
use epidemic_db::{Entry, GcPolicy, SiteId, Timestamp};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SITES: usize = 5;

/// One protocol action in a random schedule.
#[derive(Debug, Clone)]
enum Action {
    Write {
        site: u8,
        key: u8,
        value: u16,
    },
    Delete {
        site: u8,
        key: u8,
    },
    AntiEntropy {
        a: u8,
        b: u8,
        comparison: u8,
        direction: u8,
    },
    Rumor {
        a: u8,
        b: u8,
        cfg: RumorConfig,
    },
    Backup {
        a: u8,
        b: u8,
        policy: u8,
    },
    EndCycle {
        site: u8,
    },
}

fn action() -> impl Strategy<Value = Action> {
    prop_oneof![
        (any::<u8>(), 0u8..12, any::<u16>()).prop_map(|(site, key, value)| Action::Write {
            site,
            key,
            value
        }),
        (any::<u8>(), 0u8..12).prop_map(|(site, key)| Action::Delete { site, key }),
        (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()).prop_map(
            |(a, b, comparison, direction)| Action::AntiEntropy {
                a,
                b,
                comparison,
                direction
            }
        ),
        rumor(Direction::Push),
        rumor(Direction::Pull),
        rumor(Direction::PushPull),
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(a, b, policy)| Action::Backup {
            a,
            b,
            policy
        }),
        any::<u8>().prop_map(|site| Action::EndCycle { site }),
    ]
}

/// A rumor contact in `direction` under `rumor_config`'s other settings.
fn rumor(direction: Direction) -> impl Strategy<Value = Action> {
    (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(move |(a, b, code)| Action::Rumor {
        a,
        b,
        cfg: RumorConfig {
            direction,
            ..rumor_config(code)
        },
    })
}

fn rumor_config(code: u8) -> RumorConfig {
    let direction = match code % 3 {
        0 => Direction::Push,
        1 => Direction::Pull,
        _ => Direction::PushPull,
    };
    let feedback = if code & 4 == 0 {
        Feedback::Feedback
    } else {
        Feedback::Blind
    };
    let k = u32::from(code >> 5) + 1;
    let removal = if code & 8 == 0 {
        Removal::Counter { k }
    } else {
        Removal::Coin { k }
    };
    let cfg = RumorConfig::new(direction, feedback, removal);
    if code & 16 == 0 {
        cfg
    } else {
        cfg.with_minimization()
    }
}

fn comparison(code: u8) -> Comparison {
    match code % 4 {
        0 => Comparison::Full,
        1 => Comparison::Checksum,
        2 => Comparison::RecentList { tau: 40 },
        _ => Comparison::PeelBack,
    }
}

fn split_pair(
    replicas: &mut [Replica<u8, u16>],
    i: usize,
    j: usize,
) -> (&mut Replica<u8, u16>, &mut Replica<u8, u16>) {
    let [a, b] = replicas
        .get_disjoint_mut([i, j])
        .expect("two distinct sites");
    (a, b)
}

/// Executes a schedule and after every action checks the safety
/// invariants:
/// * per-replica, per-key timestamps never decrease (no regression);
/// * every entry anywhere corresponds to an operation some client made
///   (here: timestamps only ever originate from client writes/deletes).
fn run_schedule(actions: &[Action]) -> Vec<Replica<u8, u16>> {
    let mut rng = StdRng::seed_from_u64(7);
    let mut replicas: Vec<Replica<u8, u16>> = (0..SITES)
        .map(|i| Replica::new(SiteId::new(i as u32)))
        .collect();
    let mut watermark: Vec<std::collections::BTreeMap<u8, Timestamp>> =
        vec![Default::default(); SITES];
    let mut time = 10;
    for action in actions {
        time += 10;
        for r in replicas.iter_mut() {
            r.advance_clock(time);
        }
        match action {
            Action::Write { site, key, value } => {
                let s = *site as usize % SITES;
                replicas[s].client_update(*key, *value);
            }
            Action::Delete { site, key } => {
                let s = *site as usize % SITES;
                replicas[s].client_delete(key);
            }
            Action::AntiEntropy {
                a,
                b,
                comparison: c,
                direction,
            } => {
                let (i, j) = (*a as usize % SITES, *b as usize % SITES);
                if i != j {
                    let dir = match direction % 3 {
                        0 => Direction::Push,
                        1 => Direction::Pull,
                        _ => Direction::PushPull,
                    };
                    let protocol = AntiEntropy::new(dir, comparison(*c));
                    let (x, y) = split_pair(&mut replicas, i, j);
                    protocol.exchange(x, y);
                }
            }
            Action::Rumor { a, b, cfg } => {
                let (i, j) = (*a as usize % SITES, *b as usize % SITES);
                if i != j {
                    let (x, y) = split_pair(&mut replicas, i, j);
                    rumor::contact_with(cfg, x, y, &mut rng, &mut RumorScratch::new());
                }
            }
            Action::Backup { a, b, policy } => {
                let (i, j) = (*a as usize % SITES, *b as usize % SITES);
                if i != j {
                    let redistribution = match policy % 3 {
                        0 => Redistribution::None,
                        1 => Redistribution::Rumor,
                        _ => Redistribution::Mail,
                    };
                    let (x, y) = split_pair(&mut replicas, i, j);
                    BackupAntiEntropy::new(redistribution).exchange(
                        x,
                        y,
                        &mut ExchangeScratch::new(),
                    );
                }
            }
            Action::EndCycle { site } => {
                let s = *site as usize % SITES;
                let cfg = rumor_config(*site);
                rumor::end_cycle(&cfg, &mut replicas[s]);
            }
        }
        // Safety: no replica's view of any key may move backwards.
        for (idx, replica) in replicas.iter().enumerate() {
            for (key, entry) in replica.db().iter() {
                let ts = entry.timestamp();
                let prev = watermark[idx].entry(*key).or_insert(ts);
                assert!(
                    ts >= *prev,
                    "replica {idx} key {key} regressed from {prev} to {ts}"
                );
                *prev = ts;
            }
        }
    }
    replicas
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any interleaving of client operations and protocol actions
    /// preserves per-key timestamp monotonicity at every replica.
    #[test]
    fn no_action_sequence_regresses_any_replica(actions in prop::collection::vec(action(), 0..80)) {
        run_schedule(&actions);
    }

    /// After any schedule, a saturating round of push-pull anti-entropy
    /// converges all replicas to one state in which every key carries the
    /// globally maximal timestamp observed for it.
    #[test]
    fn full_anti_entropy_always_heals(actions in prop::collection::vec(action(), 0..60)) {
        let mut replicas = run_schedule(&actions);
        let protocol = AntiEntropy::new(Direction::PushPull, Comparison::Full);
        for _ in 0..3 {
            for i in 0..SITES {
                for j in (i + 1)..SITES {
                    let (a, b) = split_pair(&mut replicas, i, j);
                    protocol.exchange(a, b);
                }
            }
        }
        // Global max timestamp per key across all replicas.
        let mut global: std::collections::BTreeMap<u8, Timestamp> = Default::default();
        for r in &replicas {
            for (k, e) in r.db().iter() {
                let ts = e.timestamp();
                global
                    .entry(*k)
                    .and_modify(|t| *t = (*t).max(ts))
                    .or_insert(ts);
            }
        }
        for r in &replicas[1..] {
            prop_assert_eq!(r.db(), replicas[0].db());
        }
        for (k, e) in replicas[0].db().iter() {
            prop_assert_eq!(e.timestamp(), global[k]);
        }
    }

    /// Rumor contacts never fabricate entries: every entry held anywhere
    /// is observable at the replica that wrote it or superseded.
    #[test]
    fn rumor_traffic_is_conservative(actions in prop::collection::vec(action(), 0..60)) {
        let replicas = run_schedule(&actions);
        // Keys present anywhere must have been written/deleted by some
        // client action (keys are drawn from 0..12 by construction).
        for r in &replicas {
            for (k, _) in r.db().iter() {
                prop_assert!(*k < 12);
            }
        }
    }

    /// Hot-list counters never exceed the configured threshold k after a
    /// contact (they are removed exactly at k).
    #[test]
    fn counters_never_exceed_k(cfg_code in any::<u8>(), contacts in 1usize..30) {
        let cfg = rumor_config(cfg_code);
        let Removal::Counter { k } = cfg.removal else { return Ok(()); };
        let mut rng = StdRng::seed_from_u64(3);
        let mut a: Replica<u8, u16> = Replica::new(SiteId::new(0));
        let mut b: Replica<u8, u16> = Replica::new(SiteId::new(1));
        a.client_update(1, 1);
        b.client_update(1, 2); // b newer? same tick, site tie-break: b wins
        for _ in 0..contacts {
            rumor::contact_with(&cfg, &mut a, &mut b, &mut rng, &mut RumorScratch::new());
            rumor::end_cycle(&cfg, &mut a);
            rumor::end_cycle(&cfg, &mut b);
            for r in [&a, &b] {
                for key in r.hot().keys() {
                    let counter = r.hot().counter(key).expect("a listed key is hot");
                    prop_assert!(counter < k, "counter {counter} vs k {k}");
                }
            }
        }
    }

    /// Death certificates propagate through any protocol like ordinary
    /// data: if a delete's timestamp is globally maximal for its key,
    /// healing converges everyone to the tombstone.
    #[test]
    fn deletes_win_when_newest(actions in prop::collection::vec(action(), 0..40)) {
        let mut replicas = run_schedule(&actions);
        // Issue a final delete, then heal.
        let t = 1_000_000;
        for r in replicas.iter_mut() {
            r.advance_clock(t);
        }
        replicas[0].client_delete(&5);
        let protocol = AntiEntropy::new(Direction::PushPull, Comparison::Full);
        for _ in 0..2 {
            for i in 0..SITES {
                for j in (i + 1)..SITES {
                    let (a, b) = split_pair(&mut replicas, i, j);
                    protocol.exchange(a, b);
                }
            }
        }
        for r in &replicas {
            prop_assert_eq!(r.db().get(&5), None);
            prop_assert!(r.db().entry(&5).is_some_and(Entry::is_dead));
        }
    }
}

/// One step in the life of a single replica, chosen to reach every piece
/// of state a replica owns: live entries, death certificates, *dormant*
/// certificates (retained here, then parked by garbage collection), hot
/// items with counters, and the local clock.
#[derive(Debug, Clone)]
enum LocalOp {
    Write { key: u8, value: u16 },
    Delete { key: u8 },
    DeleteRetainedHere { key: u8 },
    Advance { by: u16 },
    ParkOldCertificates,
    Receive { key: u8, value: u16, time: u16 },
    Bump { key: u8 },
}

fn local_op() -> impl Strategy<Value = LocalOp> {
    prop_oneof![
        (0u8..8, any::<u16>()).prop_map(|(key, value)| LocalOp::Write { key, value }),
        (0u8..8).prop_map(|key| LocalOp::Delete { key }),
        (0u8..8).prop_map(|key| LocalOp::DeleteRetainedHere { key }),
        (1u16..400).prop_map(|by| LocalOp::Advance { by }),
        Just(LocalOp::ParkOldCertificates),
        (0u8..8, any::<u16>(), any::<u16>()).prop_map(|(key, value, time)| LocalOp::Receive {
            key,
            value,
            time
        }),
        (0u8..8).prop_map(|key| LocalOp::Bump { key }),
    ]
}

fn apply_local(replica: &mut Replica<u8, u16>, op: &LocalOp) {
    match *op {
        LocalOp::Write { key, value } => {
            replica.client_update(key, value);
        }
        LocalOp::Delete { key } => {
            replica.client_delete(&key);
        }
        LocalOp::DeleteRetainedHere { key } => {
            let here = replica.site();
            replica.client_delete_with_retention(&key, vec![here]);
        }
        LocalOp::Advance { by } => {
            let now = replica.local_time() + u64::from(by);
            replica.advance_clock(now);
        }
        LocalOp::ParkOldCertificates => {
            replica.collect_garbage(GcPolicy::Dormant {
                tau1: 100,
                tau2: 1_000_000,
            });
        }
        LocalOp::Receive { key, value, time } => {
            let at = Timestamp::new(u64::from(time), SiteId::new(9));
            replica.receive_rumor_ref(&key, &Entry::live(value, at));
        }
        LocalOp::Bump { key } => {
            replica.hot_mut().bump_counter(&key, 1);
        }
    }
}

/// Everything observable about a replica, compared piece by piece.
fn assert_same_replica(a: &Replica<u8, u16>, b: &Replica<u8, u16>) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.site(), b.site());
    prop_assert_eq!(a.local_time(), b.local_time());
    prop_assert_eq!(a.db(), b.db());
    prop_assert_eq!(a.db().checksum(), b.db().checksum());
    prop_assert_eq!(a.db().live_len(), b.db().live_len());
    prop_assert_eq!(a.db().dormant_len(), b.db().dormant_len());
    for key in 0u8..8 {
        prop_assert_eq!(
            a.db().dormant_certificate(&key),
            b.db().dormant_certificate(&key)
        );
    }
    prop_assert_eq!(a.hot(), b.hot());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `Replica::reset(site, keys)` is `Replica::new(site)`: whatever room
    /// it reserves and whatever the replica lived through — deletions whose
    /// certificates went dormant here, clock advances, hot items with
    /// counters — the reset replica equals a new one and stays equal to it
    /// through any later history.
    #[test]
    fn reset_is_new_after_any_history(
        before in prop::collection::vec(local_op(), 0..60),
        after in prop::collection::vec(local_op(), 0..40),
        old_site in 0u32..4,
        site in 0u32..4,
        keys in 0usize..8,
    ) {
        let mut used: Replica<u8, u16> = Replica::new(SiteId::new(old_site));
        for op in &before {
            apply_local(&mut used, op);
        }
        used.reset(SiteId::new(site), keys);
        let mut fresh: Replica<u8, u16> = Replica::new(SiteId::new(site));
        assert_same_replica(&used, &fresh)?;
        prop_assert_eq!(used.db().checksum(), used.db().recompute_checksum());
        for op in &after {
            apply_local(&mut used, op);
            apply_local(&mut fresh, op);
        }
        assert_same_replica(&used, &fresh)?;
        prop_assert_eq!(used.db().checksum(), used.db().recompute_checksum());
    }
}
