//! Differential property tests: [`FlatStore`] against a naive model.
//!
//! The store and an in-test `BTreeMap` model replay the *same* random
//! history of client updates, deletions (with and without retention
//! sites), remote offers, garbage collection and clock advances, lowered
//! to the three store mutations (`install`, `apply_ref`, `remove`). After every single operation the pair must agree on
//! everything a protocol can observe: entry contents, the live count, the
//! incremental checksum, key-order iteration, peel-back order, the
//! recent-update window and its length — where the model sorts
//! on demand and recomputes checksum and live count from scratch. A
//! second property checks the §1.1 goal on two whole [`Database`]s:
//! push-pull exchange to fixpoint leaves equal stores.

use std::cmp::Reverse;
use std::collections::BTreeMap;

use epidemic_db::{
    ApplyOutcome, Aux, Checksum, Database, DeathCertificate, Entry, FlatStore, GcPolicy, SimClock,
    SiteId, Timestamp,
};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    /// Client `Update` at this site.
    Update { key: u8, value: u16 },
    /// Client deletion (plain death certificate).
    Delete { key: u8 },
    /// Client deletion with a dormant-retention site.
    Retain { key: u8, site: u8 },
    /// A remote entry arrives through `offer_ref`. `value: None` offers a
    /// death certificate.
    Offer {
        key: u8,
        value: Option<u16>,
        stamp: Stamp,
        site: u8,
    },
    /// Local clock advances (makes GC and recency windows bite).
    Advance { dt: u64 },
    /// Death-certificate garbage collection.
    Gc { policy: GcPolicy },
}

impl Op {
    /// This op with its key folded into `0..3`: a history of such ops
    /// keeps crossing the 0 → 1 → 2 → 1 row transitions, where the lookup
    /// index comes and goes and the rows' ranks bootstrap.
    fn narrowed(mut self) -> Op {
        match &mut self {
            Op::Update { key, .. } | Op::Delete { key } => *key %= 3,
            Op::Retain { key, .. } | Op::Offer { key, .. } => *key %= 3,
            Op::Advance { .. } | Op::Gc { .. } => {}
        }
        self
    }
}

/// When an offered entry claims to have been written.
#[derive(Debug, Clone, Copy)]
enum Stamp {
    /// An absolute time. The local clock soon runs past the range these
    /// are drawn from, so most of them sort into the old end of the column.
    At(u64),
    /// The time of the row this many places below the newest (wrapping
    /// round the column): placement lands at the tail, in the middle and
    /// at the front alike, and times are reused across keys so that the
    /// site id and the key break ties.
    Behind(u8),
}

impl Stamp {
    /// The offered time, given the timestamps held, newest first.
    fn resolve(self, held: usize, mut newest_first: impl Iterator<Item = Timestamp>) -> u64 {
        match self {
            Stamp::At(time) => time,
            Stamp::Behind(_) if held == 0 => 1,
            Stamp::Behind(back) => newest_first
                .nth(usize::from(back) % held)
                .expect("within the column")
                .time(),
        }
    }
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), any::<u16>()).prop_map(|(key, value)| Op::Update { key, value }),
        any::<u8>().prop_map(|key| Op::Delete { key }),
        (any::<u8>(), 0u8..4).prop_map(|(key, site)| Op::Retain { key, site }),
        (
            any::<u8>(),
            any::<u16>(),
            any::<bool>(),
            prop_oneof![
                (1u64..400).prop_map(Stamp::At),
                any::<u8>().prop_map(Stamp::Behind),
            ],
            1u8..8,
        )
            .prop_map(|(key, value, live, stamp, site)| Op::Offer {
                key,
                value: live.then_some(value),
                stamp,
                site,
            }),
        (1u64..120).prop_map(|dt| Op::Advance { dt }),
        prop_oneof![
            Just(GcPolicy::KeepForever),
            (1u64..80).prop_map(|tau| GcPolicy::FixedThreshold { tau }),
            (1u64..60, 1u64..200).prop_map(|(tau1, tau2)| GcPolicy::Dormant { tau1, tau2 }),
        ]
        .prop_map(|policy| Op::Gc { policy }),
    ]
}

const LOCAL: SiteId = SiteId::new(0);

/// The naive model of the main store: a key-ordered map and nothing else.
/// Every order is a sort, every aggregate a full scan.
#[derive(Default)]
struct Model {
    entries: BTreeMap<u8, Entry<u16>>,
}

impl Model {
    fn apply_ref(&mut self, key: &u8, entry: &Entry<u16>) -> ApplyOutcome {
        match self.entries.get(key).map(Entry::timestamp) {
            Some(held) if held == entry.timestamp() => ApplyOutcome::AlreadyKnown,
            Some(held) if held > entry.timestamp() => ApplyOutcome::Obsolete,
            _ => {
                self.entries.insert(*key, entry.clone());
                ApplyOutcome::Applied
            }
        }
    }

    fn install(&mut self, key: u8, entry: Entry<u16>) {
        self.entries.insert(key, entry);
    }

    fn remove(&mut self, key: &u8) -> Option<Entry<u16>> {
        self.entries.remove(key)
    }

    /// The §1.3 peel-back order: reverse `(timestamp, key)`.
    fn newest_first(&self) -> Vec<(&u8, &Entry<u16>)> {
        let mut rows: Vec<_> = self.entries.iter().collect();
        rows.sort_by_key(|&(k, e)| Reverse((e.timestamp(), *k)));
        rows
    }

    fn checksum(&self) -> Checksum {
        let mut sum = Checksum::new();
        for (k, e) in &self.entries {
            sum.toggle(&(k, e));
        }
        sum
    }

    fn live(&self) -> usize {
        self.entries.values().filter(|e| !e.is_dead()).count()
    }
}

/// The store under test with the auxiliary state a [`Database`] would
/// lend it, the model beside it, and the local clock driving both.
struct Pair {
    flat: FlatStore<u8, u16>,
    checksum: Checksum,
    live: usize,
    model: Model,
    clock: SimClock,
}

impl Pair {
    fn new() -> Self {
        Pair {
            flat: FlatStore::new(),
            checksum: Checksum::new(),
            live: 0,
            model: Model::default(),
            clock: SimClock::new(LOCAL),
        }
    }

    /// A client mutation: installs the entry `stamped` builds from a fresh
    /// local timestamp.
    fn install(&mut self, key: u8, stamped: impl FnOnce(Timestamp) -> Entry<u16>) {
        let entry = stamped(self.clock.now());
        let aux = Aux {
            checksum: &mut self.checksum,
            live: &mut self.live,
        };
        self.flat.install(key, entry.clone(), aux);
        self.model.install(key, entry);
    }

    /// Lowers `op` to store mutations on both sides, comparing whatever
    /// the mutations return.
    fn step(&mut self, op: &Op) -> Result<(), TestCaseError> {
        match *op {
            Op::Update { key, value } => self.install(key, |at| Entry::live(value, at)),
            Op::Delete { key } => self.install(key, Entry::dead),
            Op::Retain { key, site } => self.install(key, |at| {
                let retention = vec![LOCAL, SiteId::new(u32::from(site))];
                Entry::dead_with(DeathCertificate::with_retention(at, retention))
            }),
            Op::Offer {
                key,
                value,
                stamp,
                site,
            } => {
                let held = self.flat.newest_first().map(|(_, e)| e.timestamp());
                let time = stamp.resolve(self.flat.len(), held);
                let entry = offered(value, time, site);
                let aux = Aux {
                    checksum: &mut self.checksum,
                    live: &mut self.live,
                };
                let got = self.flat.apply_ref(&key, &entry, aux);
                let want = self.model.apply_ref(&key, &entry);
                prop_assert_eq!(got, want, "apply outcome diverged on {:?}", op);
            }
            Op::Advance { dt } => {
                let now = self.clock.peek();
                self.clock.advance_to(now + dt);
            }
            Op::Gc { policy } => {
                // Whatever leaves the main store under `policy` — parked
                // or discarded — is a `remove` at this level.
                let now = self.clock.peek();
                let leaving: Vec<u8> = self
                    .model
                    .entries
                    .iter()
                    .filter_map(|(k, e)| e.death_certificate().map(|dc| (*k, dc)))
                    .filter(|(_, dc)| {
                        policy.discards(dc, LOCAL, now) || !policy.propagates(dc, LOCAL, now)
                    })
                    .map(|(k, _)| k)
                    .collect();
                for key in leaving {
                    let aux = Aux {
                        checksum: &mut self.checksum,
                        live: &mut self.live,
                    };
                    prop_assert_eq!(self.flat.remove(&key, aux), self.model.remove(&key));
                }
            }
        }
        Ok(())
    }

    /// Full observational comparison of the store against the model.
    fn check(&mut self) -> Result<(), TestCaseError> {
        let (flat, model) = (&mut self.flat, &self.model);
        flat.check_invariants();
        prop_assert_eq!(flat.len(), model.entries.len());
        prop_assert_eq!(flat.is_empty(), model.entries.is_empty());
        prop_assert_eq!(self.checksum, model.checksum());
        prop_assert_eq!(self.live, model.live());
        prop_assert!(
            flat.iter().eq(model.entries.iter()),
            "key-order walk diverged"
        );
        for key in 0..=u8::MAX {
            prop_assert_eq!(flat.get(&key), model.entries.get(&key));
        }
        let peel = model.newest_first();
        prop_assert!(
            flat.newest_first().eq(peel.iter().copied()),
            "peel-back order diverged"
        );
        // The recent-update list is the prefix of the peel-back order no
        // older than tau; the model filters instead of stopping early.
        let now = self.clock.peek();
        for tau in [0, 5, 50, u64::MAX] {
            let listed = flat.recent_len(now, tau);
            let recent = flat
                .newest_first()
                .take_while(|(_, e)| e.timestamp().age(now) <= tau);
            let expected = peel
                .iter()
                .copied()
                .filter(|(_, e)| e.timestamp().age(now) <= tau);
            prop_assert_eq!(listed, expected.clone().count(), "finger at tau={}", tau);
            prop_assert!(recent.eq(expected), "recent list diverged at tau={}", tau);
        }
        Ok(())
    }
}

fn offered(value: Option<u16>, time: u64, site: u8) -> Entry<u16> {
    let at = Timestamp::new(time, SiteId::new(u32::from(site)));
    match value {
        Some(v) => Entry::live(v, at),
        None => Entry::dead(at),
    }
}

/// Replays `op` on a whole [`Database`] at `site`, dormant-certificate
/// handling included. Offers are canonicalized (see the `Offer` arm).
fn step_database(db: &mut Database<u8, u16>, clock: &mut SimClock, site: SiteId, op: &Op) {
    match *op {
        Op::Update { key, value } => {
            db.update(key, value, clock);
        }
        Op::Delete { key } => {
            db.delete(&key, clock);
        }
        Op::Retain { key, site: keeper } => {
            let retention = vec![site, SiteId::new(u32::from(keeper))];
            db.delete_with_retention(&key, retention, clock);
        }
        Op::Offer {
            key,
            value: _,
            stamp,
            site: from,
        } => {
            // The offered entry is a pure function of its timestamp: the
            // site id moves into the 2+ range (clear of both replicas'
            // client clocks) and kind and value derive from `(time, site)`,
            // so two independent histories that collide on a timestamp
            // still agree on its payload.
            let held = db.newest_first().map(|(_, e)| e.timestamp());
            let time = stamp.resolve(db.len(), held);
            let from = 2 + from % 6;
            let live = !(time + u64::from(from) + u64::from(key)).is_multiple_of(4);
            let value = live.then_some((time as u16) ^ (u16::from(from) << 9));
            let entry = offered(value, time, from);
            let now = Timestamp::new(clock.peek(), site);
            db.offer_ref(&key, &entry, now);
        }
        Op::Advance { dt } => {
            let now = clock.peek();
            clock.advance_to(now + dt);
        }
        Op::Gc { policy } => {
            db.collect_garbage(site, clock.peek(), policy);
        }
    }
}

proptest! {
    /// After every operation of a random history, and of the same history
    /// on 3 keys, the store agrees with the model on every observable:
    /// entries, live count, checksum, and all three iteration orders.
    #[test]
    fn flat_store_matches_reference(ops in prop::collection::vec(op_strategy(), 0..120)) {
        for narrow in [false, true] {
            let mut pair = Pair::new();
            for op in &ops {
                pair.step(&if narrow { op.clone().narrowed() } else { op.clone() })?;
                pair.check()?;
            }
        }
    }

    /// Anti-entropy exchange between two replicas with independent
    /// histories converges to equal databases with equal checksums and
    /// timestamp indexes — the §1.1 goal.
    ///
    /// Offered entries are derived deterministically from their timestamp
    /// (see [`step_database`]) so a timestamp collision between the two
    /// histories can never manufacture two irreconcilable versions — the
    /// same guarantee unique real-world timestamps give the paper.
    #[test]
    fn push_pull_exchange_converges(
        ops_a in prop::collection::vec(op_strategy(), 0..60),
        ops_b in prop::collection::vec(op_strategy(), 0..60),
    ) {
        // Disjoint client site ids, so update timestamps never collide
        // across replicas; remote offers use sites 2+.
        let (site_a, site_b) = (LOCAL, SiteId::new(1));
        let (mut a, mut clock_a) = (Database::new(), SimClock::new(site_a));
        let (mut b, mut clock_b) = (Database::new(), SimClock::new(site_b));
        for op in &ops_a {
            step_database(&mut a, &mut clock_a, site_a, op);
        }
        for op in &ops_b {
            step_database(&mut b, &mut clock_b, site_b, op);
        }
        // Push-pull full exchanges until fixpoint: one round can awaken a
        // dormant certificate whose reinstalled copy only crosses over on
        // the next round, so loop (awakenings strictly shrink the dormant
        // stores, guaranteeing termination long before the bound).
        for _ in 0..6 {
            let now_b = Timestamp::new(clock_b.peek(), site_b);
            let from_a: Vec<_> = a.iter().map(|(k, e)| (*k, e.clone())).collect();
            for (k, e) in &from_a {
                b.offer_ref(k, e, now_b);
            }
            let now_a = Timestamp::new(clock_a.peek(), site_a);
            let from_b: Vec<_> = b.iter().map(|(k, e)| (*k, e.clone())).collect();
            for (k, e) in &from_b {
                a.offer_ref(k, e, now_a);
            }
            if a == b {
                break;
            }
        }
        // Dormant stores may legitimately differ (awakenings depend on what
        // arrived), but main stores and checksums must agree.
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.checksum(), b.checksum());
        prop_assert!(a.recent_index(0, u64::MAX).eq(b.recent_index(0, u64::MAX)));
    }
}
