//! Reference-merge property test for the cycle engine, in the style of
//! `crates/core/tests/exchange_reference.rs`.
//!
//! A minimal database-bearing anti-entropy protocol is driven through the
//! [`CycleEngine`] over random update histories. The claims are the ones
//! that must hold *regardless* of the contact schedule:
//!
//! * the run converges, and converges to the per-key timestamp maximum
//!   over the injected history, computed here by an independent reference
//!   merge;
//! * the report's aggregate totals equal the contact-by-contact
//!   accumulation over the run's own observer event stream (no lost or
//!   double-counted contacts).

use std::collections::BTreeMap;

use epidemic_core::{AntiEntropy, Comparison, Direction, ExchangeScratch, Replica};
use epidemic_db::{Entry, SiteId};
use epidemic_sim::engine::{
    ContactStats, CycleEngine, EngineBuffers, EpidemicProtocol, Observer, UniformPartners,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

type Rep = Replica<u8, u32>;

/// One injected client update: which site, which key, which value.
type Update = (usize, u8, u32);

fn db_image(r: &Rep) -> Vec<(u8, Entry<u32>)> {
    r.db().iter().map(|(k, e)| (*k, e.clone())).collect()
}

/// Full-database anti-entropy over plain replicas — no traffic charging,
/// no receive log, just the databases themselves. Runs until every site
/// holds the same database.
struct DiffAe {
    exchange: AntiEntropy,
    replicas: Vec<Rep>,
    scratch: ExchangeScratch<u8>,
}

impl DiffAe {
    fn new(n: usize, direction: Direction, updates: &[Update]) -> Self {
        let mut replicas: Vec<Rep> = (0..n)
            .map(|i| Replica::new(SiteId::new(u32::try_from(i).expect("small site index"))))
            .collect();
        for &(site, key, value) in updates {
            replicas[site % n].client_update(key, value);
        }
        DiffAe {
            exchange: AntiEntropy::new(direction, Comparison::Full),
            replicas,
            scratch: ExchangeScratch::new(),
        }
    }

    fn converged(&self) -> bool {
        let first = db_image(&self.replicas[0]);
        self.replicas.iter().skip(1).all(|r| db_image(r) == first)
    }
}

fn split_pair(replicas: &mut [Rep], i: usize, j: usize) -> (&mut Rep, &mut Rep) {
    let [a, b] = replicas
        .get_disjoint_mut([i, j])
        .expect("a site cannot exchange with itself");
    (a, b)
}

fn stats_of(stats: &epidemic_core::ExchangeStats) -> ContactStats {
    ContactStats {
        sent: stats.total_sent() as u64,
        useful: u64::from(stats.update_flowed()),
    }
}

impl EpidemicProtocol for DiffAe {
    fn site_count(&self) -> usize {
        self.replicas.len()
    }

    fn finished(&self, _cycle: u32, _active: &[usize]) -> bool {
        self.converged()
    }

    fn contact(&mut self, _cycle: u32, i: usize, j: usize, _rng: &mut StdRng) -> ContactStats {
        let (a, b) = split_pair(&mut self.replicas, i, j);
        let stats = self.exchange.exchange_with(a, b, &mut self.scratch);
        stats_of(&stats)
    }
}

/// The database every site must converge to: per key, the entry with the
/// greatest timestamp over the whole injected history. Independent of any
/// engine — computed straight off the initial replica states.
fn reference_merge(initial: &DiffAe) -> Vec<(u8, Entry<u32>)> {
    let mut best: BTreeMap<u8, Entry<u32>> = BTreeMap::new();
    for r in &initial.replicas {
        for (k, e) in r.db().iter() {
            match best.get(k) {
                Some(cur) if cur.timestamp() >= e.timestamp() => {}
                _ => {
                    best.insert(*k, e.clone());
                }
            }
        }
    }
    best.into_iter().collect()
}

#[derive(Default)]
struct EventLog {
    events: Vec<(u32, usize, usize, u64, u64)>,
}

impl<P: ?Sized> Observer<P> for EventLog {
    fn on_contact(&mut self, cycle: u32, i: usize, j: usize, stats: &ContactStats) {
        self.events.push((cycle, i, j, stats.sent, stats.useful));
    }
}

/// Totals accumulated the obvious way from the event stream; must equal
/// the engine's own `EngineReport` totals.
fn accumulate(log: &EventLog) -> (u64, u64, u64, u64) {
    let contacts = log.events.len() as u64;
    let sent = log.events.iter().map(|e| e.3).sum();
    let useful = log.events.iter().map(|e| e.4).sum();
    let fruitless = log.events.iter().filter(|e| e.4 == 0).count() as u64;
    (contacts, sent, useful, fruitless)
}

const MAX_CYCLES: u32 = 2_000;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn the_engine_converges_to_the_reference_merge(
        n in 2usize..10,
        dir in 0u8..3,
        updates in prop::collection::vec((0usize..10, 0u8..8, any::<u32>()), 1..20),
        seed in any::<u64>(),
    ) {
        let direction = match dir {
            0 => Direction::Push,
            1 => Direction::Pull,
            _ => Direction::PushPull,
        };
        let expected = reference_merge(&DiffAe::new(n, direction, &updates));
        let policy = UniformPartners::new(n);

        let mut protocol = DiffAe::new(n, direction, &updates);
        let mut log = EventLog::default();
        let mut rng = StdRng::seed_from_u64(seed);
        let report = CycleEngine::new()
            .max_cycles(MAX_CYCLES)
            .run(&mut protocol, &policy, &mut rng, &mut log, &mut EngineBuffers::default());
        prop_assert!(report.cycles < MAX_CYCLES, "the run must converge");
        for r in &protocol.replicas {
            prop_assert_eq!(db_image(r), expected.clone(), "converged database");
        }
        let (contacts, sent, useful, fruitless) = accumulate(&log);
        prop_assert_eq!(report.totals.contacts, contacts);
        prop_assert_eq!(report.totals.sent, sent);
        prop_assert_eq!(report.totals.useful, useful);
        prop_assert_eq!(report.totals.fruitless, fruitless);
    }
}
