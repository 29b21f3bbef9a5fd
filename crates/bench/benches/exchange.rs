//! Microbenchmarks of one anti-entropy conversation per §1.3 comparison
//! strategy, on the two regimes that bracket steady-state behaviour:
//!
//! * **converged** — both replicas hold identical databases. This is the
//!   common case in a running fleet and the tentpole's zero-allocation
//!   path: the exchange must decide "nothing to do" without cloning a
//!   single entry. The pair is reused across iterations because a
//!   converged exchange is a no-op by definition.
//! * **divergent** — one side holds fresh updates the other lacks, so the
//!   conversation actually ships entries. Pairs are rebuilt per batch
//!   (cloned from a template) since the exchange mutates them.
//!
//! Both regimes thread one reused [`ExchangeScratch`] through
//! `exchange_with`, exactly as the steady-state sim drivers do.
//!
//! Two more groups price the recent-list walk's checksum stop rule on
//! push-pull recent-list exchanges of a 1k-entry window, at its best and
//! its worst. In both the receiving side supersedes a row in place, so the
//! measured offers move no memory:
//!
//! * **converged but newest** — `a` holds a newer version of the newest
//!   shared key, so the push walk stops after two entries and the pull
//!   walk before its first;
//! * **diverged at oldest** — `b` holds a newer version of the oldest
//!   shared key, so the remainders never agree: both walks visit, and
//!   digest, every row.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use epidemic_core::{AntiEntropy, Comparison, Direction, ExchangeScratch, Replica};
use epidemic_db::{Entry, SiteId};

const SHARED: u32 = 1_000;
const FRESH: u32 = 20;
/// Window comfortably covering the fresh updates' ages.
const TAU: u64 = 1_000_000;

fn strategies() -> [(&'static str, Comparison); 4] {
    [
        ("full", Comparison::Full),
        ("checksum", Comparison::Checksum),
        ("recent_list", Comparison::RecentList { tau: TAU }),
        ("peel_back", Comparison::PeelBack),
    ]
}

/// A pair that has fully converged on `SHARED` entries, with clocks close
/// enough that the tail of the shared history sits inside the recent
/// window (so `recent_list` does real list work, not an empty walk).
fn converged_pair() -> (Replica<u32, u64>, Replica<u32, u64>) {
    let mut a: Replica<u32, u64> = Replica::new(SiteId::new(0));
    let mut b: Replica<u32, u64> = Replica::new(SiteId::new(1));
    for key in 0..SHARED {
        a.client_update(key, u64::from(key));
    }
    AntiEntropy::new(Direction::PushPull, Comparison::Full).exchange(&mut a, &mut b);
    (a, b)
}

/// A converged pair plus `FRESH` updates known only to `a`.
fn divergent_pair() -> (Replica<u32, u64>, Replica<u32, u64>) {
    let (mut a, b) = converged_pair();
    for key in 0..FRESH {
        a.client_update(SHARED + key, 2);
    }
    (a, b)
}

/// A converged pair in which `a` has since rewritten the newest key.
fn converged_but_newest_pair() -> (Replica<u32, u64>, Replica<u32, u64>) {
    let (mut a, b) = converged_pair();
    let rewrite = Entry::live(2, a.now());
    a.receive_quietly_ref(&(SHARED - 1), &rewrite);
    (a, b)
}

/// A converged pair in which `b` holds a newer version of the oldest key.
fn diverged_at_oldest_pair() -> (Replica<u32, u64>, Replica<u32, u64>) {
    let (a, _) = converged_pair();
    let mut b: Replica<u32, u64> = Replica::new(SiteId::new(1));
    // Stamped (1, site 1): newer than `a`'s (1, site 0) for key 0, older
    // than every other row.
    b.client_update(0, 1);
    for (key, entry) in a.db().iter() {
        b.receive_quietly_ref(key, entry);
    }
    (a, b)
}

fn bench_converged(c: &mut Criterion) {
    let mut group = c.benchmark_group("exchange_converged_1k");
    for (label, comparison) in strategies() {
        group.bench_function(BenchmarkId::from_parameter(label), |bench| {
            let protocol = AntiEntropy::new(Direction::PushPull, comparison);
            let (mut a, mut b) = converged_pair();
            let mut scratch = ExchangeScratch::new();
            bench.iter(|| black_box(protocol.exchange_with(&mut a, &mut b, &mut scratch)))
        });
    }
    group.finish();
}

fn bench_divergent(c: &mut Criterion) {
    let mut group = c.benchmark_group("exchange_divergent_1k_20_fresh");
    for (label, comparison) in strategies() {
        group.bench_function(BenchmarkId::from_parameter(label), |bench| {
            let protocol = AntiEntropy::new(Direction::PushPull, comparison);
            let template = divergent_pair();
            let mut scratch = ExchangeScratch::new();
            bench.iter_batched(
                || template.clone(),
                |(mut a, mut b)| black_box(protocol.exchange_with(&mut a, &mut b, &mut scratch)),
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

/// One push-pull recent-list exchange per sample, on a fresh copy of
/// `template`'s pair.
fn bench_recent_list(
    c: &mut Criterion,
    group: &str,
    template: (Replica<u32, u64>, Replica<u32, u64>),
) {
    let mut group = c.benchmark_group(group);
    group.bench_function(BenchmarkId::from_parameter("recent_list"), |bench| {
        let protocol = AntiEntropy::new(Direction::PushPull, Comparison::RecentList { tau: TAU });
        let mut scratch = ExchangeScratch::new();
        bench.iter_batched(
            || template.clone(),
            |(mut a, mut b)| black_box(protocol.exchange_with(&mut a, &mut b, &mut scratch)),
            criterion::BatchSize::LargeInput,
        )
    });
    group.finish();
}

fn bench_converged_but_newest(c: &mut Criterion) {
    bench_recent_list(
        c,
        "exchange_converged_but_newest_1k",
        converged_but_newest_pair(),
    );
}

fn bench_diverged_at_oldest(c: &mut Criterion) {
    bench_recent_list(
        c,
        "exchange_diverged_at_oldest_1k",
        diverged_at_oldest_pair(),
    );
}

criterion_group! {
    name = exchange;
    config = Criterion::default().sample_size(10);
    targets = bench_converged, bench_divergent, bench_converged_but_newest, bench_diverged_at_oldest
}
criterion_main!(exchange);
