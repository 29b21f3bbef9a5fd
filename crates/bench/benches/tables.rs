//! Criterion benches that regenerate the paper's tables and figures.
//!
//! Every table and figure of the registry is first printed at a fifth of
//! its full trial count (so `cargo bench` output contains the
//! paper-shaped rows), then a single representative trial of each table
//! is timed. Full-fidelity runs live in the `repro` binary; the megascale
//! sweep and the scenarios have benches and tests of their own.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use epidemic_bench::registry::{self, Ctx, Group};
use epidemic_core::{Direction, Feedback, Removal, RumorConfig};
use epidemic_net::topologies::{cin, CinConfig};
use epidemic_net::{LinkTraffic, Routes, Spatial};
use epidemic_sim::engine::RouteCharge;
use epidemic_sim::{MixingArena, SpatialSim};

const N: usize = registry::N;

/// Prints every experiment of `group` at reduced trial counts.
fn print_group(group: Group) {
    let rows = registry::all().iter().filter(|e| e.group == group);
    for experiment in rows.filter(|e| e.name != "fig-megascale") {
        let full = experiment.ctx(None, false);
        let ctx = Ctx {
            trials: (full.trials / 5).max(1),
            ..full
        };
        print!("{}", experiment.run(&ctx).text());
    }
}

fn bench_mixing_tables(c: &mut Criterion) {
    print_group(Group::Tables);
    for (name, direction, feedback, removal) in [
        (
            "table1/one_trial_k3",
            Direction::Push,
            Feedback::Feedback,
            Removal::Counter { k: 3 },
        ),
        (
            "table2/one_trial_k3",
            Direction::Push,
            Feedback::Blind,
            Removal::Coin { k: 3 },
        ),
        (
            "table3/one_trial_k2",
            Direction::Pull,
            Feedback::Feedback,
            Removal::Counter { k: 2 },
        ),
    ] {
        let driver = SpatialSim::mixing(N, RumorConfig::new(direction, feedback, removal));
        let mut arena = MixingArena::new();
        c.bench_function(name, |b| {
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                black_box(driver.run(&mut arena, seed, &mut ()))
            })
        });
    }
}

fn bench_spatial_tables(c: &mut Criterion) {
    let net = cin(&CinConfig::default());
    let (topo, routes) = (&net.topology, Routes::compute(&net.topology));
    for (name, limit) in [("table4/one_run_a2", None), ("table5/one_run_a2", Some(1))] {
        let sim =
            SpatialSim::new(topo, &routes, Spatial::QsPower { a: 2.0 }).connection_limit(limit);
        let mut arena = MixingArena::new();
        let mut counters = <[LinkTraffic; 2]>::default();
        c.bench_function(name, |b| {
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                let mut charge = RouteCharge::new(topo, &routes, 0, &mut counters);
                black_box(sim.run(&mut arena, seed, &mut charge).t_last)
            })
        });
    }
}

fn bench_figures(c: &mut Criterion) {
    print_group(Group::Figures);
    c.bench_function("figures/rumor_ode_residue", |b| {
        b.iter(|| black_box(epidemic_analysis::RumorOde::new(4).final_residue()))
    });
}

criterion_group! {
    name = tables;
    config = Criterion::default().sample_size(10);
    targets = bench_mixing_tables, bench_spatial_tables, bench_figures
}
criterion_main!(tables);
