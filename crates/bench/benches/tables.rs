//! Criterion benches that regenerate the paper's tables and figures.
//!
//! Each bench first prints the table at reduced trial counts (so `cargo
//! bench` output contains the paper-shaped rows), then times a single
//! representative trial. Full-fidelity runs live in the `repro` binary.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use epidemic_bench::figures;
use epidemic_bench::tables::{
    print_mixing, print_spatial, table1, table2, table3, table45, PAPER_TABLE1, PAPER_TABLE2,
    PAPER_TABLE3,
};
use epidemic_core::{Direction, Feedback, Removal, RumorConfig};
use epidemic_net::topologies::{cin, CinConfig};
use epidemic_net::Spatial;
use epidemic_sim::mixing::RumorEpidemic;
use epidemic_sim::runner::TrialRunner;
use epidemic_sim::spatial_ae::AntiEntropySim;

const N: usize = 1000;
const TRIALS: u64 = 30;
const SPATIAL_TRIALS: u64 = 30;

fn bench_table1(c: &mut Criterion) {
    print_mixing(
        "Table 1: push, feedback, counter, n=1000",
        &table1(N, TRIALS),
        &PAPER_TABLE1,
    );
    let driver = RumorEpidemic::new(RumorConfig::new(
        Direction::Push,
        Feedback::Feedback,
        Removal::Counter { k: 3 },
    ));
    c.bench_function("table1/one_trial_k3", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            black_box(driver.run(N, seed))
        })
    });
}

fn bench_table2(c: &mut Criterion) {
    print_mixing(
        "Table 2: push, blind, coin, n=1000",
        &table2(N, TRIALS),
        &PAPER_TABLE2,
    );
    let driver = RumorEpidemic::new(RumorConfig::new(
        Direction::Push,
        Feedback::Blind,
        Removal::Coin { k: 3 },
    ));
    c.bench_function("table2/one_trial_k3", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            black_box(driver.run(N, seed))
        })
    });
}

fn bench_table3(c: &mut Criterion) {
    print_mixing(
        "Table 3: pull, feedback, counter, n=1000",
        &table3(N, TRIALS),
        &PAPER_TABLE3,
    );
    let driver = RumorEpidemic::new(RumorConfig::new(
        Direction::Pull,
        Feedback::Feedback,
        Removal::Counter { k: 2 },
    ));
    c.bench_function("table3/one_trial_k2", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            black_box(driver.run(N, seed))
        })
    });
}

fn bench_table4(c: &mut Criterion) {
    print_spatial(
        "Table 4: push-pull anti-entropy on the synthetic CIN, no connection limit",
        &table45(SPATIAL_TRIALS, None),
    );
    let net = cin(&CinConfig::default());
    let sim = AntiEntropySim::new(&net.topology, Spatial::QsPower { a: 2.0 });
    c.bench_function("table4/one_run_a2", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            black_box(sim.run(seed, None))
        })
    });
}

fn bench_table5(c: &mut Criterion) {
    print_spatial(
        "Table 5: anti-entropy with connection limit 1, hunt limit 0",
        &table45(SPATIAL_TRIALS, Some(1)),
    );
    let net = cin(&CinConfig::default());
    let sim =
        AntiEntropySim::new(&net.topology, Spatial::QsPower { a: 2.0 }).connection_limit(Some(1));
    c.bench_function("table5/one_run_a2", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            black_box(sim.run(seed, None))
        })
    });
}

fn bench_figures(c: &mut Criterion) {
    // The dispatcher (`figures::print_figure`) pins full-fidelity trial
    // counts, so figures whose count the bench reduces call their table
    // builders directly and print the same `FigTable`s.
    figures::print_figure("fig-rumor-ode", N, TRIALS);
    figures::print_figure("fig-residue-traffic", N, TRIALS);
    figures::print_figure("fig-ae-convergence", N, TRIALS);
    figures::line_traffic_table().print();
    figures::figure1_table(100).print();
    figures::figure2_table(100).print();
    for table in figures::death_certificates_tables() {
        table.print();
    }
    figures::dc_scaling_table(20).print();
    figures::spatial_rumor_table(figures::spatial_rumor(10, 20)).print();
    figures::counter_reset_table(N, TRIALS).print();
    figures::hunting_table(N, TRIALS).print();
    figures::comparison_table().print();
    figures::redistribution_table(5).print();
    figures::checksum_window_table().print();
    figures::sir_curve_table(N, TRIALS).print();
    figures::async_ablation_table(10).print();
    figures::hierarchy_table(10).print();
    figures::cin_steady_table(TrialRunner::new(), 3).print();
    figures::weighted_cin_table(5).print();
    figures::churn_table(5).print();
    figures::topology_robustness_table(5).print();
    figures::pull_vs_push_rate_table(TrialRunner::new(), 3).print();
    c.bench_function("figures/rumor_ode_residue", |b| {
        b.iter(|| black_box(epidemic_analysis::RumorOde::new(4).final_residue()))
    });
}

criterion_group! {
    name = tables;
    config = Criterion::default().sample_size(10);
    targets = bench_table1, bench_table2, bench_table3, bench_table4, bench_table5, bench_figures
}
criterion_main!(tables);
