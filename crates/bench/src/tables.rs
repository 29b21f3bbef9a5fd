//! Reproductions of the paper's numbered tables.

use std::borrow::Cow;

use epidemic_core::{Direction, Feedback, Removal, RumorConfig};
use epidemic_net::topologies::{cin, Cin, CinConfig};
use epidemic_net::{PartnerSampler, Routes, Spatial};
use epidemic_sim::mixing::{MixingArena, RumorEpidemic};
use epidemic_sim::spatial_ae::AntiEntropySim;

use epidemic_sim::runner::TrialRunner;

use crate::parallel_trials_with;
use crate::render::{fmt, render_table};

/// One row of a Table 1/2/3-style complete-mixing experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MixRow {
    /// The `k` parameter.
    pub k: u32,
    /// Mean residue `s`.
    pub residue: f64,
    /// Mean traffic `m` (updates per site).
    pub traffic: f64,
    /// Mean average delay.
    pub t_ave: f64,
    /// Mean last delay.
    pub t_last: f64,
}

/// Runs a complete-mixing sweep over `ks` for the given protocol factory.
pub fn mixing_sweep(
    n: usize,
    trials: u64,
    ks: &[u32],
    make: impl Fn(u32) -> RumorEpidemic + Sync,
) -> Vec<MixRow> {
    mixing_sweep_with(TrialRunner::new(), n, trials, ks, make)
}

/// As [`mixing_sweep`] but on a caller-provided [`TrialRunner`]. Each
/// worker runs its trials in one [`MixingArena`], so only its first trial
/// allocates.
pub fn mixing_sweep_with(
    runner: TrialRunner,
    n: usize,
    trials: u64,
    ks: &[u32],
    make: impl Fn(u32) -> RumorEpidemic + Sync,
) -> Vec<MixRow> {
    ks.iter()
        .map(|&k| {
            let driver = make(k);
            let (residue, traffic, t_ave, t_last) = runner.fold_with(
                trials,
                0,
                MixingArena::new,
                |arena, seed| {
                    let seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ u64::from(k);
                    let r = driver.run_in(arena, n, seed, &mut ());
                    (r.residue, r.traffic, r.t_ave, r.t_last)
                },
                (0.0, 0.0, 0.0, 0.0),
                |acc, r| (acc.0 + r.0, acc.1 + r.1, acc.2 + r.2, acc.3 + r.3),
            );
            let t = trials as f64;
            MixRow {
                k,
                residue: residue / t,
                traffic: traffic / t,
                t_ave: t_ave / t,
                t_last: t_last / t,
            }
        })
        .collect()
}

/// As [`mixing_sweep_with`], additionally streaming every trial through
/// an [`AggregateObserver`](epidemic_sim::engine::AggregateObserver) and
/// merging the per-trial aggregates in trial order — one
/// [`RunAggregate`](epidemic_trace::RunAggregate) per `k`, deterministic
/// at any thread count. Observers never touch the RNG, so the returned
/// [`MixRow`]s are identical to [`mixing_sweep_with`]'s.
pub fn mixing_sweep_aggregated(
    runner: TrialRunner,
    n: usize,
    trials: u64,
    ks: &[u32],
    make: impl Fn(u32) -> RumorEpidemic + Sync,
) -> Vec<(MixRow, epidemic_trace::RunAggregate)> {
    use epidemic_sim::engine::AggregateObserver;
    ks.iter()
        .map(|&k| {
            let driver = make(k);
            let (residue, traffic, t_ave, t_last, agg) = runner.fold_with(
                trials,
                0,
                MixingArena::new,
                |arena, seed| {
                    let seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ u64::from(k);
                    let mut sink = AggregateObserver::new();
                    let r = driver.run_in(arena, n, seed, &mut sink);
                    (r.residue, r.traffic, r.t_ave, r.t_last, sink.finish())
                },
                (0.0, 0.0, 0.0, 0.0, epidemic_trace::RunAggregate::default()),
                |acc, r| {
                    let (residue, traffic, t_ave, t_last, mut agg) = acc;
                    agg.merge(&r.4);
                    (residue + r.0, traffic + r.1, t_ave + r.2, t_last + r.3, agg)
                },
            );
            let t = trials as f64;
            (
                MixRow {
                    k,
                    residue: residue / t,
                    traffic: traffic / t,
                    t_ave: t_ave / t,
                    t_last: t_last / t,
                },
                agg,
            )
        })
        .collect()
}

/// Table 1: push rumor mongering with feedback and counters, n sites.
pub fn table1(n: usize, trials: u64) -> Vec<MixRow> {
    table1_with(TrialRunner::new(), n, trials)
}

/// As [`table1`] but on a caller-provided [`TrialRunner`] (golden tests).
pub fn table1_with(runner: TrialRunner, n: usize, trials: u64) -> Vec<MixRow> {
    mixing_sweep_with(runner, n, trials, &[1, 2, 3, 4, 5], |k| {
        RumorEpidemic::new(
            RumorConfig::new(Direction::Push, Feedback::Feedback, Removal::Counter { k })
                .with_reset_on_useful(true),
        )
    })
}

/// Table 2: push rumor mongering, blind with coins.
pub fn table2(n: usize, trials: u64) -> Vec<MixRow> {
    mixing_sweep(n, trials, &[1, 2, 3, 4, 5], |k| {
        RumorEpidemic::new(RumorConfig::new(
            Direction::Push,
            Feedback::Blind,
            Removal::Coin { k },
        ))
    })
}

/// Table 3: pull rumor mongering with feedback and counters (footnote
/// counter semantics).
pub fn table3(n: usize, trials: u64) -> Vec<MixRow> {
    mixing_sweep(n, trials, &[1, 2, 3], |k| {
        RumorEpidemic::new(RumorConfig::new(
            Direction::Pull,
            Feedback::Feedback,
            Removal::Counter { k },
        ))
    })
}

/// Prints a mixing table next to the paper's reference values.
pub fn print_mixing(title: &str, rows: &[MixRow], paper: &[[f64; 4]]) {
    print!("{}", render_mixing(title, rows, paper));
}

/// Renders a mixing table to a `String` (golden tests pin this text).
pub fn render_mixing(title: &str, rows: &[MixRow], paper: &[[f64; 4]]) -> String {
    let data: Vec<Vec<String>> = rows
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let mut row = vec![
                r.k.to_string(),
                fmt(r.residue),
                fmt(r.traffic),
                fmt(r.t_ave),
                fmt(r.t_last),
            ];
            if let Some(p) = paper.get(i) {
                row.extend(p.iter().map(|&x| fmt(x)));
            }
            row
        })
        .collect();
    render_table(
        title,
        &[
            "k",
            "residue",
            "traffic",
            "t_ave",
            "t_last",
            "paper s",
            "paper m",
            "paper t_ave",
            "paper t_last",
        ],
        &data,
    )
}

/// One row of a Table 4/5-style spatial anti-entropy experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct SpatialRow {
    /// Distribution label ("uniform" or the exponent `a`).
    pub label: String,
    /// Mean `t_last` over runs.
    pub t_last: f64,
    /// Mean `t_ave` over runs.
    pub t_ave: f64,
    /// Compare conversations per link per cycle, averaged over links & runs.
    pub cmp_avg: f64,
    /// Compare conversations per cycle on the Bushey transatlantic link.
    pub cmp_bushey: f64,
    /// Update transmissions per link over a run, averaged over links & runs.
    pub upd_avg: f64,
    /// Update transmissions on the Bushey link over a run.
    pub upd_bushey: f64,
}

/// The spatial distributions swept by Tables 4 and 5.
pub fn table45_distributions() -> Vec<(String, Spatial)> {
    let mut out = vec![("uniform".to_string(), Spatial::Uniform)];
    for a in [1.2, 1.4, 1.6, 1.8, 2.0] {
        out.push((format!("a = {a:.1}"), Spatial::QsPower { a }));
    }
    out
}

/// The simulator for one Table 4/5 distribution, on the routing tables the
/// sweep computed once for `net` (an all-pairs computation per simulator
/// would be most of the cost of a short sweep).
pub(crate) fn table45_sim<'a>(
    net: &'a Cin,
    routes: &'a Routes,
    spatial: Spatial,
    connection_limit: Option<u32>,
) -> AntiEntropySim<'a> {
    let sampler = PartnerSampler::new(&net.topology, routes, spatial);
    AntiEntropySim::with_routes(&net.topology, Cow::Borrowed(routes), sampler)
        .connection_limit(connection_limit)
}

/// Shared driver for Tables 4 and 5 on the synthetic CIN.
pub fn table45(trials: u64, connection_limit: Option<u32>) -> Vec<SpatialRow> {
    let net = cin(&CinConfig::default());
    table45_on(&net, trials, connection_limit)
}

/// As [`table45`] but on a caller-provided CIN (for tests with smaller
/// networks).
pub fn table45_on(net: &Cin, trials: u64, connection_limit: Option<u32>) -> Vec<SpatialRow> {
    table45_on_with(TrialRunner::new(), net, trials, connection_limit)
}

/// As [`table45_on`] but on a caller-provided [`TrialRunner`].
pub fn table45_on_with(
    runner: TrialRunner,
    net: &Cin,
    trials: u64,
    connection_limit: Option<u32>,
) -> Vec<SpatialRow> {
    let routes = Routes::compute(&net.topology);
    table45_distributions()
        .into_iter()
        .map(|(label, spatial)| {
            let sim = table45_sim(net, &routes, spatial, connection_limit);
            let acc = parallel_trials_with(
                runner,
                trials,
                |seed| {
                    let r = sim.run(seed.wrapping_mul(0x2545_F491_4F6C_DD1D) + 1, None);
                    let cycles = f64::from(r.cycles.max(1));
                    (
                        f64::from(r.t_last),
                        r.t_ave,
                        r.compare_traffic.mean_per_link() / cycles,
                        r.compare_traffic.at(net.bushey_link) as f64 / cycles,
                        r.update_traffic.mean_per_link(),
                        r.update_traffic.at(net.bushey_link) as f64,
                    )
                },
                [0.0f64; 6],
                |mut acc, r| {
                    for (a, v) in acc.iter_mut().zip([r.0, r.1, r.2, r.3, r.4, r.5]) {
                        *a += v;
                    }
                    acc
                },
            );
            let t = trials as f64;
            SpatialRow {
                label,
                t_last: acc[0] / t,
                t_ave: acc[1] / t,
                cmp_avg: acc[2] / t,
                cmp_bushey: acc[3] / t,
                upd_avg: acc[4] / t,
                upd_bushey: acc[5] / t,
            }
        })
        .collect()
}

/// Prints a Table 4/5-style result.
pub fn print_spatial(title: &str, rows: &[SpatialRow]) {
    print!("{}", render_spatial(title, rows));
}

/// Renders a Table 4/5-style result to a `String` (golden tests).
pub fn render_spatial(title: &str, rows: &[SpatialRow]) -> String {
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.label.clone(),
                fmt(r.t_last),
                fmt(r.t_ave),
                fmt(r.cmp_avg),
                fmt(r.cmp_bushey),
                fmt(r.upd_avg),
                fmt(r.upd_bushey),
            ]
        })
        .collect();
    render_table(
        title,
        &[
            "distribution",
            "t_last",
            "t_ave",
            "cmp avg",
            "cmp Bushey",
            "upd avg",
            "upd Bushey",
        ],
        &data,
    )
}

/// Title printed above Table 1 (shared by the plain and traced repro paths).
pub const TITLE_TABLE1: &str = "Table 1: push, feedback, counter, n=1000";
/// Title printed above Table 2.
pub const TITLE_TABLE2: &str = "Table 2: push, blind, coin, n=1000";
/// Title printed above Table 3.
pub const TITLE_TABLE3: &str = "Table 3: pull, feedback, counter, n=1000 (footnote semantics)";
/// Title printed above Table 4.
pub const TITLE_TABLE4: &str = "Table 4: push-pull anti-entropy on the synthetic CIN, no connection limit (paper: uniform 7.8/5.3/5.9/75.7/5.8/74.4 ... a=2.0 13.3/7.8/1.4/2.4/1.9/5.9)";
/// Title printed above Table 5.
pub const TITLE_TABLE5: &str = "Table 5: as Table 4 with connection limit 1, hunt limit 0 (paper: uniform 11.0/7.0/3.7/47.5/5.8/75.2 ... a=2.0 24.6/14.1/0.7/0.9/1.9/4.8)";

/// The paper's Table 1 reference values `[s, m, t_ave, t_last]` per k.
pub const PAPER_TABLE1: [[f64; 4]; 5] = [
    [0.18, 1.7, 11.0, 16.8],
    [0.037, 3.3, 12.1, 16.9],
    [0.011, 4.5, 12.5, 17.4],
    [0.0036, 5.6, 12.7, 17.5],
    [0.0012, 6.7, 12.8, 17.7],
];

/// The paper's Table 2 reference values.
pub const PAPER_TABLE2: [[f64; 4]; 5] = [
    [0.96, 0.04, 19.0, 38.0],
    [0.20, 1.6, 17.0, 33.0],
    [0.060, 2.8, 15.0, 32.0],
    [0.021, 3.9, 14.1, 32.0],
    [0.008, 4.9, 13.8, 32.0],
];

/// The paper's Table 3 reference values.
pub const PAPER_TABLE3: [[f64; 4]; 3] = [
    [3.1e-2, 2.7, 9.97, 17.6],
    [5.8e-4, 4.5, 10.07, 15.4],
    [4.0e-6, 6.1, 10.08, 14.0],
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_small_scale_matches_paper_shape() {
        // 200 sites, 40 trials: residue falls with k, traffic rises.
        let rows = table1(200, 40);
        assert_eq!(rows.len(), 5);
        for w in rows.windows(2) {
            assert!(w[1].residue <= w[0].residue + 0.02);
            assert!(w[1].traffic > w[0].traffic);
        }
        // k=1 residue should be in the vicinity of the ODE's 20%.
        assert!((rows[0].residue - 0.20).abs() < 0.08, "{}", rows[0].residue);
    }

    #[test]
    fn table2_k1_dies_immediately() {
        let rows = table2(200, 30);
        assert!(rows[0].residue > 0.85);
        assert!(rows[0].traffic < 0.2);
        // Blind coin converges more slowly than feedback counter.
        assert!(rows[4].t_last > 20.0);
    }

    #[test]
    fn table3_pull_residues_are_tiny() {
        let rows = table3(300, 40);
        assert!(rows[0].residue < 0.08);
        assert!(rows[1].residue < rows[0].residue + 1e-9);
    }

    #[test]
    fn aggregated_sweep_matches_plain_rows() {
        let make = |k| {
            RumorEpidemic::new(RumorConfig::new(
                Direction::Push,
                Feedback::Feedback,
                Removal::Counter { k },
            ))
        };
        let plain = mixing_sweep(150, 6, &[1, 3], make);
        let agged = mixing_sweep_aggregated(TrialRunner::new(), 150, 6, &[1, 3], make);
        assert_eq!(plain.len(), agged.len());
        for (p, (row, agg)) in plain.iter().zip(&agged) {
            assert_eq!(p, row, "observer must not perturb k={}", p.k);
            assert_eq!(agg.runs(), 6);
            assert_eq!(agg.sites(), 150);
            assert!((agg.totals().sent as f64 / (6.0 * 150.0) - row.traffic).abs() < 1e-9);
        }
    }

    #[test]
    fn table45_uniform_hammers_the_bushey_link() {
        use epidemic_net::topologies::{cin, CinConfig};
        let net = cin(&CinConfig {
            na_regions: 4,
            sites_per_region: 10,
            europe_sites: 10,
            backbone_chords: 2,
            seed: 7,
            ..CinConfig::default()
        });
        let rows = table45_on(&net, 10, None);
        let uniform = &rows[0];
        let a20 = rows.last().unwrap();
        // Uniform selection loads the transatlantic link far above the
        // mean; a = 2.0 brings it near (or below) the mean. (On this small
        // 50-site CIN the contrast is milder than the full-size network's.)
        assert!(
            uniform.cmp_bushey > 2.0 * uniform.cmp_avg,
            "bushey {} vs avg {}",
            uniform.cmp_bushey,
            uniform.cmp_avg
        );
        assert!(a20.cmp_bushey < uniform.cmp_bushey / 2.0);
        // Locality slows convergence somewhat.
        assert!(a20.t_last >= uniform.t_last);
    }
}
