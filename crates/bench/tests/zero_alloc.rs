//! Proves the tentpole's zero-allocation claim with an allocator, not a
//! profiler: on a converged pair, a steady-state anti-entropy conversation
//! must complete without asking the heap for a single byte, for every §1.3
//! comparison strategy.
//!
//! This file registers [`CountingAlloc`] as the test binary's global
//! allocator, which is why it holds exactly one test: any sibling test
//! running concurrently would bleed allocations into the measured window.
//! It is compiled out entirely without the `count-allocs` feature (default
//! builds keep the stock allocator); run it with
//!
//! ```text
//! cargo test -p epidemic-bench --features count-allocs --test zero_alloc --release
//! ```

#![cfg(feature = "count-allocs")]

use std::hint::black_box;

use epidemic_bench::alloc_counter::{allocations, CountingAlloc};
use epidemic_core::{AntiEntropy, Comparison, Direction, ExchangeScratch, Replica};
use epidemic_db::SiteId;
use epidemic_sim::scenario::{bundled, AntiEntropySpec, ScenarioArena, ScenarioEngine};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const ENTRIES: u32 = 1_000;
/// Recent window comfortably covering the whole history, so the
/// `RecentList` branch walks a non-trivial list instead of an empty one.
const TAU: u64 = 1_000_000;

/// Allocation count of the cleanest of several measurement windows.
///
/// The counter is process-global, so the libtest harness thread can bleed
/// a stray allocation into any single window (it does so regularly on a
/// single-CPU machine, where the scheduler interleaves the harness's wait
/// loop with the test thread). The *minimum* over independent windows
/// isolates the measured code path itself: a path that truly allocates is
/// dirty in every window, while external noise is transient.
fn min_allocations(attempts: usize, mut f: impl FnMut()) -> u64 {
    (0..attempts)
        .map(|_| {
            let before = allocations();
            f();
            allocations() - before
        })
        .min()
        .expect("at least one attempt")
}

/// A pair that has fully converged on `ENTRIES` entries.
fn converged_pair() -> (Replica<u32, u64>, Replica<u32, u64>) {
    let mut a: Replica<u32, u64> = Replica::new(SiteId::new(0));
    let mut b: Replica<u32, u64> = Replica::new(SiteId::new(1));
    for key in 0..ENTRIES {
        a.client_update(key, u64::from(key));
    }
    AntiEntropy::new(Direction::PushPull, Comparison::Full).exchange(&mut a, &mut b);
    (a, b)
}

#[test]
fn converged_exchanges_do_not_allocate() {
    let strategies = [
        ("full", Comparison::Full),
        ("checksum", Comparison::Checksum),
        ("recent_list", Comparison::RecentList { tau: TAU }),
        ("peel_back", Comparison::PeelBack),
    ];
    for (label, comparison) in strategies {
        let (mut a, mut b) = converged_pair();
        let protocol = AntiEntropy::new(Direction::PushPull, comparison);
        let mut scratch = ExchangeScratch::new();
        // Warm-up: let any lazily-grown scratch capacity settle before the
        // measured window (on a converged pair there should be none, but
        // the assertion is about steady state, not the first contact).
        for _ in 0..2 {
            black_box(protocol.exchange_with(&mut a, &mut b, &mut scratch));
        }
        let mut stats = Default::default();
        let delta = min_allocations(5, || {
            for _ in 0..100 {
                stats = black_box(protocol.exchange_with(&mut a, &mut b, &mut scratch));
            }
        });
        assert_eq!(
            delta, 0,
            "{label}: converged steady-state exchange allocated {delta} times over 100 contacts"
        );
        // Sanity-check the exchange did real comparison work. Note the
        // `recent_list` expectation: every listed entry counts as wire
        // traffic whether or not the receiver accepts it (offered ≠
        // accepted), so a converged pair still reports `ENTRIES` sent each
        // way — and the zero-allocation assertion above proves all of them
        // were rejected without cloning a single one.
        match comparison {
            Comparison::Full => {
                assert!(stats.full_compare, "{label}: full compare not recorded");
                assert!(stats.entries_scanned > 0, "{label}: no diff work recorded");
                assert_eq!(stats.sent_ab + stats.sent_ba, 0, "{label}: shipped entries");
            }
            Comparison::Checksum | Comparison::PeelBack => {
                assert!(
                    stats.checksum_exchanges > 0,
                    "{label}: no checksum compared"
                );
                assert_eq!(stats.sent_ab + stats.sent_ba, 0, "{label}: shipped entries");
            }
            Comparison::RecentList { .. } => {
                assert_eq!(
                    stats.sent_ab, ENTRIES as usize,
                    "{label}: recent list not walked"
                );
                assert_eq!(
                    stats.sent_ba, ENTRIES as usize,
                    "{label}: recent list not walked"
                );
                assert!(
                    !stats.full_compare,
                    "{label}: converged pair fell back to full compare"
                );
            }
        }
    }

    // The *engine* around those exchanges must be allocation-free per cycle
    // too: two identical steady-state runs differing only in their cycle
    // count must allocate *identically* — the longer run is a strict
    // superset of the shorter one, so any difference is per-cycle engine
    // overhead. Zero update injection keeps the replicas converged-empty
    // (isolating the engine), and two sites force deterministic partner
    // choice.
    let run_allocs = |cycles: u32| {
        let mut spec = bundled::steady(2, 0.0, [4, cycles, 0]);
        let recent = Comparison::RecentList { tau: 40 };
        spec.protocol.anti_entropy = Some(AntiEntropySpec::every_cycle(recent));
        let engine = ScenarioEngine::new(spec).expect("a steady spec is valid");
        min_allocations(5, || {
            let mut arena = ScenarioArena::new();
            black_box(engine.run(&mut arena, 11, &mut ()));
        })
    };
    let short = run_allocs(6);
    let long = run_allocs(56);
    assert_eq!(
        long,
        short,
        "the cycle engine allocated {} times over 50 extra steady-state cycles",
        long.saturating_sub(short)
    );
}
