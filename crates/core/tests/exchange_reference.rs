//! Differential property test for the zero-copy exchange path.
//!
//! [`AntiEntropy::exchange_with`] earns its speed through borrowed walks, a
//! lockstep index merge that stops where the remainder checksums agree,
//! and reused scratch buffers — all of which must be
//! *observationally invisible*. This test pins that claim against a naive
//! reference implementation written the obvious, allocation-happy way:
//! owned snapshots, fresh `Vec`s per conversation, clone-everything offers
//! through the public [`Replica`] API. For random update/delete/GC
//! histories, every direction × comparison strategy must produce an
//! identical [`ExchangeStats`], landed keys and final replica states, with
//! one dirty scratch threaded through all of the optimized runs. Peel
//! back's two work counters are the one exception: the reference walks the
//! merged snapshot key by key, the exchange walks each direction with the
//! recent-list walk and its checksum stop, so they count different steps. The §1.5
//! backup pass ([`BackupAntiEntropy`]) is held to the same reference under
//! every [`Redistribution`] policy, its re-mail list included.

use epidemic_core::{
    AntiEntropy, BackupAntiEntropy, Comparison, Direction, ExchangeScratch, ExchangeStats,
    Redistribution, Replica,
};
use epidemic_db::{Entry, GcPolicy, OfferOutcome, SiteId, Timestamp};
use proptest::prelude::*;

type Rep = Replica<u8, u16>;

/// Keys landed at the initiator (`[0]`) and at the partner (`[1]`).
type Landed = [Vec<u8>; 2];

/// Quiet offer of a snapshotted entry with awakened-certificate and
/// landed-key accounting.
fn offer(
    to: &mut Rep,
    key: u8,
    entry: Entry<u16>,
    landed: &mut Vec<u8>,
    stats: &mut ExchangeStats,
) {
    match to.receive_quietly_ref(&key, &entry) {
        OfferOutcome::Applied => landed.push(key),
        OfferOutcome::AwakenedDormant => stats.awakened += 1,
        OfferOutcome::AlreadyKnown | OfferOutcome::Obsolete => {}
    }
}

/// A snapshotted difference: the keys to send one way, with their entries.
type SendList = Vec<(u8, Entry<u16>)>;

/// Full database comparison the snapshot-happy way: clone both databases
/// into sorted vectors, merge-walk them, clone every difference into fresh
/// send lists, then offer.
fn reference_full_resolve(
    direction: Direction,
    a: &mut Rep,
    b: &mut Rep,
    landed: &mut Landed,
    stats: &mut ExchangeStats,
) {
    let (a_to_b, b_to_a) = reference_diff(direction, a, b, stats);
    for (k, e) in a_to_b {
        stats.sent_ab += 1;
        offer(b, k, e, &mut landed[1], stats);
    }
    for (k, e) in b_to_a {
        stats.sent_ba += 1;
        offer(a, k, e, &mut landed[0], stats);
    }
}

/// The two one-way differences of a full comparison, cloned out of owned
/// snapshots of both databases, counting every entry scanned.
fn reference_diff(
    direction: Direction,
    a: &Rep,
    b: &Rep,
    stats: &mut ExchangeStats,
) -> (SendList, SendList) {
    let snap_a: Vec<(u8, Entry<u16>)> = a.db().iter().map(|(k, e)| (*k, e.clone())).collect();
    let snap_b: Vec<(u8, Entry<u16>)> = b.db().iter().map(|(k, e)| (*k, e.clone())).collect();
    let mut a_to_b = SendList::new();
    let mut b_to_a = SendList::new();
    let (mut i, mut j) = (0, 0);
    loop {
        match (snap_a.get(i), snap_b.get(j)) {
            (None, None) => break,
            (Some((ka, ea)), None) => {
                if direction.pushes() {
                    a_to_b.push((*ka, ea.clone()));
                }
                i += 1;
            }
            (None, Some((kb, eb))) => {
                if direction.pulls() {
                    b_to_a.push((*kb, eb.clone()));
                }
                j += 1;
            }
            (Some((ka, ea)), Some((kb, eb))) => match ka.cmp(kb) {
                std::cmp::Ordering::Less => {
                    if direction.pushes() {
                        a_to_b.push((*ka, ea.clone()));
                    }
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    if direction.pulls() {
                        b_to_a.push((*kb, eb.clone()));
                    }
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    if ea.timestamp() > eb.timestamp() {
                        if direction.pushes() {
                            a_to_b.push((*ka, ea.clone()));
                        }
                    } else if eb.timestamp() > ea.timestamp() && direction.pulls() {
                        b_to_a.push((*kb, eb.clone()));
                    }
                    i += 1;
                    j += 1;
                }
            },
        }
        stats.entries_scanned += 1;
    }
    (a_to_b, b_to_a)
}

/// One direction of the recent-list exchange, snapshot style: clone the
/// whole window up front, offer every listed entry, count each as wire
/// traffic whether or not it lands.
fn reference_offer_recent(
    from: &Rep,
    to: &mut Rep,
    tau: u64,
    landed: &mut Vec<u8>,
    stats: &mut ExchangeStats,
) -> usize {
    let now = from.local_time();
    let listed: Vec<(u8, Entry<u16>)> = from
        .db()
        .newest_first()
        .take_while(|(_, e)| e.timestamp().age(now) <= tau)
        .map(|(k, e)| (*k, e.clone()))
        .collect();
    let count = listed.len();
    for (k, e) in listed {
        offer(to, k, e, landed, stats);
    }
    count
}

/// Peel back with owned index snapshots: newest-first `(timestamp, key)`
/// vectors for both sides, merged walk, checksum after every key — the
/// long way the exchange's two walks must match in everything but the
/// steps they count.
fn reference_peel_back(a: &mut Rep, b: &mut Rep, landed: &mut Landed, stats: &mut ExchangeStats) {
    stats.checksum_exchanges += 1;
    if a.db().checksum() == b.db().checksum() {
        return;
    }
    let av: Vec<(Timestamp, u8)> = a
        .db()
        .newest_first()
        .map(|(k, e)| (e.timestamp(), *k))
        .collect();
    let bv: Vec<(Timestamp, u8)> = b
        .db()
        .newest_first()
        .map(|(k, e)| (e.timestamp(), *k))
        .collect();
    let (mut i, mut j) = (0, 0);
    while i < av.len() || j < bv.len() {
        let take_a = match (av.get(i), bv.get(j)) {
            (Some(x), Some(y)) => x.0 >= y.0,
            (Some(_), None) => true,
            _ => false,
        };
        let key = if take_a {
            let k = av[i].1;
            i += 1;
            k
        } else {
            let k = bv[j].1;
            j += 1;
            k
        };
        stats.entries_scanned += 1;
        let ta = a.db().entry(&key).map(Entry::timestamp);
        let tb = b.db().entry(&key).map(Entry::timestamp);
        if ta > tb {
            let entry = a.db().entry(&key).expect("ta is Some").clone();
            stats.sent_ab += 1;
            offer(b, key, entry, &mut landed[1], stats);
        } else if tb > ta {
            let entry = b.db().entry(&key).expect("tb is Some").clone();
            stats.sent_ba += 1;
            offer(a, key, entry, &mut landed[0], stats);
        }
        stats.checksum_exchanges += 1;
        if a.db().checksum() == b.db().checksum() {
            return;
        }
    }
}

/// The naive conversation: same protocol skeleton as
/// [`AntiEntropy::exchange_with`], but every stage works on owned
/// snapshots and freshly allocated buffers.
fn reference_exchange(
    direction: Direction,
    comparison: Comparison,
    a: &mut Rep,
    b: &mut Rep,
) -> (ExchangeStats, Landed) {
    let mut stats = ExchangeStats::default();
    let mut landed = Landed::default();
    match comparison {
        Comparison::Full => {
            stats.full_compare = true;
            reference_full_resolve(direction, a, b, &mut landed, &mut stats);
        }
        Comparison::Checksum => {
            stats.checksum_exchanges += 1;
            if a.db().checksum() != b.db().checksum() {
                stats.full_compare = true;
                reference_full_resolve(direction, a, b, &mut landed, &mut stats);
            }
        }
        Comparison::RecentList { tau } => {
            let [landed_a, landed_b] = &mut landed;
            if direction.pushes() {
                stats.sent_ab += reference_offer_recent(&*a, b, tau, landed_b, &mut stats);
            }
            if direction.pulls() {
                stats.sent_ba += reference_offer_recent(&*b, a, tau, landed_a, &mut stats);
            }
            stats.checksum_exchanges += 1;
            if a.db().checksum() != b.db().checksum() {
                stats.full_compare = true;
                reference_full_resolve(direction, a, b, &mut landed, &mut stats);
            }
        }
        Comparison::PeelBack => reference_peel_back(a, b, &mut landed, &mut stats),
    }
    (stats, landed)
}

/// The §1.5 backup pass written out on its own: a push-pull full
/// comparison of owned snapshots, then every difference offered and
/// redistributed per key — a rumor offer and the sender's re-ignition, or a
/// quiet offer and, for news, a re-mail entry. Returns the stats, the
/// landed keys and the re-mail list.
fn reference_backup(
    policy: Redistribution,
    a: &mut Rep,
    b: &mut Rep,
) -> (ExchangeStats, Landed, SendList) {
    let mut stats = ExchangeStats {
        full_compare: true,
        ..ExchangeStats::default()
    };
    let mut landed = Landed::default();
    let mut remail = SendList::new();
    let (a_to_b, b_to_a) = reference_diff(Direction::PushPull, a, b, &mut stats);
    for (k, e) in a_to_b {
        stats.sent_ab += 1;
        let news = redistribute(policy, b, a, k, e, &mut remail, &mut stats);
        landed[1].extend(news);
    }
    for (k, e) in b_to_a {
        stats.sent_ba += 1;
        let news = redistribute(policy, a, b, k, e, &mut remail, &mut stats);
        landed[0].extend(news);
    }
    (stats, landed, remail)
}

/// Delivers one backup difference `from → to` under `policy`; returns the
/// key if the receiver applied it.
fn redistribute(
    policy: Redistribution,
    to: &mut Rep,
    from: &mut Rep,
    key: u8,
    entry: Entry<u16>,
    remail: &mut SendList,
    stats: &mut ExchangeStats,
) -> Option<u8> {
    let outcome = match policy {
        Redistribution::Rumor => to.receive_rumor_ref(&key, &entry),
        Redistribution::None | Redistribution::Mail => to.receive_quietly_ref(&key, &entry),
    };
    match outcome {
        OfferOutcome::Applied => {
            match policy {
                Redistribution::None => {}
                Redistribution::Rumor => from.hot_mut().insert(key),
                Redistribution::Mail => remail.push((key, entry)),
            }
            Some(key)
        }
        OfferOutcome::AwakenedDormant => {
            stats.awakened += 1;
            None
        }
        OfferOutcome::AlreadyKnown | OfferOutcome::Obsolete => None,
    }
}

/// One step of a random pair history. Deletes with retention plus dormant
/// GC park dormant death certificates, steering the exchange into the
/// awakening path the lockstep shortcut must stand aside for.
#[derive(Debug, Clone)]
enum Hist {
    Write { on_b: bool, key: u8, value: u16 },
    Delete { on_b: bool, key: u8 },
    DeleteRetained { on_b: bool, key: u8 },
    Advance { dt: u16 },
    Sync,
    Gc { on_b: bool },
}

fn write_step() -> impl Strategy<Value = Hist> {
    (any::<bool>(), 0u8..12, any::<u16>()).prop_map(|(on_b, key, value)| Hist::Write {
        on_b,
        key,
        value,
    })
}

fn hist_step() -> impl Strategy<Value = Hist> {
    prop_oneof![
        write_step(),
        write_step(),
        (any::<bool>(), 0u8..12).prop_map(|(on_b, key)| Hist::Delete { on_b, key }),
        (any::<bool>(), 0u8..12).prop_map(|(on_b, key)| Hist::DeleteRetained { on_b, key }),
        (1u16..400).prop_map(|dt| Hist::Advance { dt }),
        Just(Hist::Sync),
        any::<bool>().prop_map(|on_b| Hist::Gc { on_b }),
    ]
}

/// A random history, or one ending in a `Sync` and zero to three writes:
/// a pair converged but for its newest entries, where the recent-list
/// walk's checksum stop fires mid-window.
fn history() -> impl Strategy<Value = Vec<Hist>> {
    prop_oneof![
        prop::collection::vec(hist_step(), 0..50),
        (
            prop::collection::vec(hist_step(), 0..50),
            prop::collection::vec(write_step(), 0..=3),
        )
            .prop_map(|(mut hist, writes)| {
                hist.push(Hist::Sync);
                hist.extend(writes);
                hist
            }),
    ]
}

/// Replays a history onto a fresh pair. Clocks stay loosely coupled: both
/// advance together on `Advance`, so recent windows overlap realistically.
fn run_history(hist: &[Hist]) -> (Rep, Rep) {
    let mut a: Rep = Replica::new(SiteId::new(0));
    let mut b: Rep = Replica::new(SiteId::new(1));
    let mut time = 10;
    for step in hist {
        time += 10;
        a.advance_clock(time);
        b.advance_clock(time);
        match step {
            Hist::Write { on_b, key, value } => {
                let r = if *on_b { &mut b } else { &mut a };
                r.client_update(*key, *value);
            }
            Hist::Delete { on_b, key } => {
                let r = if *on_b { &mut b } else { &mut a };
                r.client_delete(key);
            }
            Hist::DeleteRetained { on_b, key } => {
                let r = if *on_b { &mut b } else { &mut a };
                r.client_delete_with_retention(key, vec![SiteId::new(0), SiteId::new(1)]);
            }
            Hist::Advance { dt } => {
                time += u64::from(*dt);
                a.advance_clock(time);
                b.advance_clock(time);
            }
            Hist::Sync => {
                AntiEntropy::new(Direction::PushPull, Comparison::Full).exchange(&mut a, &mut b);
            }
            Hist::Gc { on_b } => {
                let r = if *on_b { &mut b } else { &mut a };
                r.collect_garbage(GcPolicy::Dormant {
                    tau1: 50,
                    tau2: 2_000,
                });
            }
        }
    }
    (a, b)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1_000))]

    /// For any history, every direction × strategy conversation run through
    /// one dirty reused scratch matches the naive reference bit for bit:
    /// same stats, same landed keys, same databases, same hot lists. Under
    /// peel back the steps are masked out of the stats, and the exchange's
    /// own must still cost one checksum per step plus the opening one.
    #[test]
    fn scratch_exchange_matches_naive_reference(
        hist in history(),
        tau in prop_oneof![Just(1u64), 1u64..1_500, Just(1_000_000u64)],
    ) {
        let (a0, b0) = run_history(&hist);
        let mut scratch = ExchangeScratch::new();
        for direction in [Direction::Push, Direction::Pull, Direction::PushPull] {
            for comparison in [
                Comparison::Full,
                Comparison::Checksum,
                Comparison::RecentList { tau },
                Comparison::PeelBack,
            ] {
                let (mut ar, mut br) = (a0.clone(), b0.clone());
                let (mut ax, mut bx) = (a0.clone(), b0.clone());
                let (mut want, landed) = reference_exchange(direction, comparison, &mut ar, &mut br);
                let mut got = AntiEntropy::new(direction, comparison)
                    .exchange_with(&mut ax, &mut bx, &mut scratch);
                if comparison == Comparison::PeelBack {
                    prop_assert_eq!(got.checksum_exchanges, 1 + got.entries_scanned);
                    for stats in [&mut want, &mut got] {
                        (stats.checksum_exchanges, stats.entries_scanned) = (0, 0);
                    }
                }
                prop_assert_eq!(want, got, "stats diverge: {:?} {:?}", direction, comparison);
                prop_assert_eq!(&landed, &scratch.landed, "landed keys diverge: {:?} {:?}", direction, comparison);
                prop_assert_eq!(ar.db(), ax.db(), "initiator db diverges: {:?} {:?}", direction, comparison);
                prop_assert_eq!(br.db(), bx.db(), "partner db diverges: {:?} {:?}", direction, comparison);
                prop_assert_eq!(ar.hot(), ax.hot(), "initiator hot list diverges: {:?} {:?}", direction, comparison);
                prop_assert_eq!(br.hot(), bx.hot(), "partner hot list diverges: {:?} {:?}", direction, comparison);
            }
        }
    }

    /// For any history — dormant certificates included — the backup pass
    /// under every redistribution policy, through the same dirty scratch,
    /// matches the naive reference: stats, landed keys, re-mail list in
    /// order, both databases and both hot lists in order.
    #[test]
    fn backup_exchange_matches_naive_reference(hist in history()) {
        let (a0, b0) = run_history(&hist);
        let mut scratch = ExchangeScratch::new();
        for policy in [Redistribution::None, Redistribution::Rumor, Redistribution::Mail] {
            let (mut ar, mut br) = (a0.clone(), b0.clone());
            let (mut ax, mut bx) = (a0.clone(), b0.clone());
            let (want, landed, remail) = reference_backup(policy, &mut ar, &mut br);
            let got = BackupAntiEntropy::new(policy).exchange(&mut ax, &mut bx, &mut scratch);
            prop_assert_eq!(want, got.stats, "stats diverge: {:?}", policy);
            prop_assert_eq!(&landed, &scratch.landed, "landed keys diverge: {:?}", policy);
            prop_assert_eq!(remail, got.remail, "re-mail list diverges: {:?}", policy);
            prop_assert_eq!(ar.db(), ax.db(), "initiator db diverges: {:?}", policy);
            prop_assert_eq!(br.db(), bx.db(), "partner db diverges: {:?}", policy);
            prop_assert_eq!(ar.hot(), ax.hot(), "initiator hot list diverges: {:?}", policy);
            prop_assert_eq!(br.hot(), bx.hot(), "partner hot list diverges: {:?}", policy);
        }
    }
}
