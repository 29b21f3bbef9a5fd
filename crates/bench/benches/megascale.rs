//! Microbenchmarks of one megascale contact cycle at `n = 10⁴` (active-set
//! scan, counter RNG, two bits per site).
//!
//! Each sample runs `max_cycles(1)` from a cold start, so it prices
//! exactly what the path optimizes: site-state set-up plus one cycle's
//! contact loop. At cycle 1 only the origin site is hot, so a sample costs
//! two bitsets and a single contact — anything O(n) creeping back into
//! set-up shows here first.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use epidemic_net::DegreeGraph;
use epidemic_sim::MegascaleSim;

const N: usize = 10_000;

fn bench_one_cycle(c: &mut Criterion) {
    let graph = DegreeGraph::scale_free(N, 2, 1987);
    let uniform = MegascaleSim::uniform(N).max_cycles(1);
    let scale_free = MegascaleSim::scale_free(&graph).max_cycles(1);

    let mut group = c.benchmark_group("megascale_one_cycle_n10k");
    group.bench_function(BenchmarkId::from_parameter("uniform"), |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed = seed.wrapping_add(1);
            black_box(uniform.run(seed, &mut ()))
        })
    });
    group.bench_function(BenchmarkId::from_parameter("scale_free_m2"), |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed = seed.wrapping_add(1);
            black_box(scale_free.run(seed, &mut ()))
        })
    });
    group.finish();
}

criterion_group! {
    name = megascale;
    config = Criterion::default().sample_size(10);
    targets = bench_one_cycle
}
criterion_main!(megascale);
