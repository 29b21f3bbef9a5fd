//! Reproductions of the paper's figures, displayed equations and ablation
//! studies (everything in the evaluation that is not a numbered table).
//!
//! Every figure is expressed as one or more [`FigTable`]s plus (for the
//! statistically deep sweeps) streaming [`AggEntry`] aggregates, behind a
//! single [`figure_data`] dispatcher. `repro` prints through
//! [`print_figure`] and writes `--trace`/`--json` artifacts through
//! [`figure_artifacts`], so no experiment is ever untraced.

use epidemic_analysis::{
    mean_line_traffic, pull_cycles_until, push_epidemic_time, residue_from_traffic, RumorOde,
};
use epidemic_core::anti_entropy::{AntiEntropy, Comparison};
use epidemic_core::{Direction, Feedback, Removal, Replica, RumorConfig};
use epidemic_db::SiteId;
use epidemic_net::topologies::{self, cin, CinConfig};
use epidemic_net::Spatial;
use epidemic_sim::engine::{AggregateObserver, SirObserver};
use epidemic_sim::mixing::{AntiEntropyEpidemic, MixingArena, RumorEpidemic};
use epidemic_sim::runner::TrialRunner;
use epidemic_sim::scenario::legacy::{
    resurrection_without_certificates, ClearinghouseScenario, DormantDeathScenario,
};
use epidemic_sim::spatial_rumor::{failure_probability, minimum_k_with, SpatialRumorSim};
use epidemic_trace::RunAggregate;

use crate::render::{fmt, FigTable};
use crate::tables::mixing_sweep_aggregated;
use crate::trace::{agg_json, AggEntry, TableArtifacts};
use crate::{parallel_trials, parallel_trials_with};

/// §1.4 rumor ODE: predicted residue `s = e^{-(k+1)(1-s)}` versus the
/// simulated feedback+coin epidemic. Returns the formatted rows plus one
/// merged streaming aggregate per `k` (observers never touch the RNG, so
/// the rows are identical to an unobserved sweep's).
pub fn rumor_ode_data(
    runner: TrialRunner,
    n: usize,
    trials: u64,
) -> (Vec<Vec<String>>, Vec<AggEntry>) {
    let ks = [1, 2, 3, 4, 5, 6, 7, 8];
    let swept = mixing_sweep_aggregated(runner, n, trials, &ks, |k| {
        RumorEpidemic::new(RumorConfig::new(
            Direction::Push,
            Feedback::Feedback,
            Removal::Coin { k },
        ))
    });
    let mut rows = Vec::new();
    let mut aggregates = Vec::new();
    for (row, agg) in swept {
        let k = row.k;
        let ode = RumorOde::new(k).final_residue();
        rows.push(vec![
            k.to_string(),
            fmt(ode),
            fmt(row.residue),
            fmt(row.traffic),
        ]);
        aggregates.push(AggEntry {
            label: format!("k={k}"),
            params: vec![
                ("n".to_string(), n.to_string()),
                ("trials".to_string(), trials.to_string()),
                ("k".to_string(), k.to_string()),
            ],
            observed: vec![
                ("ode_residue".to_string(), ode),
                ("residue".to_string(), row.residue),
                ("traffic".to_string(), row.traffic),
            ],
            agg,
        });
    }
    (rows, aggregates)
}

/// The rows of [`rumor_ode_data`] on a default runner (pinned by tests).
pub fn rumor_ode(n: usize, trials: u64) -> Vec<Vec<String>> {
    rumor_ode_data(TrialRunner::new(), n, trials).0
}

/// §1.4 `s = e^{-m}` law: measured (m, s) pairs for several push variants
/// against the prediction, including the connection-limited λ variants.
pub fn residue_traffic(n: usize, trials: u64) -> Vec<Vec<String>> {
    let variants: Vec<(&str, RumorConfig, Option<u32>)> = vec![
        (
            "feedback+counter",
            RumorConfig::new(
                Direction::Push,
                Feedback::Feedback,
                Removal::Counter { k: 2 },
            ),
            None,
        ),
        (
            "blind+coin",
            RumorConfig::new(Direction::Push, Feedback::Blind, Removal::Coin { k: 3 }),
            None,
        ),
        (
            "feedback+counter, climit 1",
            RumorConfig::new(
                Direction::Push,
                Feedback::Feedback,
                Removal::Counter { k: 2 },
            ),
            Some(1),
        ),
        (
            "minimization (push-pull)",
            RumorConfig::new(
                Direction::PushPull,
                Feedback::Feedback,
                Removal::Counter { k: 2 },
            )
            .with_minimization(),
            None,
        ),
    ];
    variants
        .into_iter()
        .map(|(label, cfg, climit)| {
            let driver = RumorEpidemic::new(cfg).connection_limit(climit);
            let (s, m) = TrialRunner::new().fold_with(
                trials,
                0,
                MixingArena::new,
                |arena, seed| {
                    let r = driver.run_in(arena, n, seed ^ 0xABCD, &mut ());
                    (r.residue, r.traffic)
                },
                (0.0, 0.0),
                |a, r| (a.0 + r.0, a.1 + r.1),
            );
            let (s, m) = (s / trials as f64, m / trials as f64);
            vec![
                label.to_string(),
                fmt(m),
                fmt(s),
                fmt(residue_from_traffic(m)),
                fmt(epidemic_analysis::push_connection_limited_residue(m)),
            ]
        })
        .collect()
}

/// §1.3 anti-entropy convergence: measured cover time for push vs the
/// `log₂n + ln n` prediction, and pull's doubly-exponential tail. The
/// push direction (the one the closed form predicts) streams through an
/// [`AggregateObserver`], yielding one merged aggregate per `n`.
pub fn ae_convergence_data(runner: TrialRunner, trials: u64) -> (Vec<Vec<String>>, Vec<AggEntry>) {
    let mut rows = Vec::new();
    let mut aggregates = Vec::new();
    for &n in &[100usize, 300, 1000, 3000, 10_000] {
        let (push_sum, agg) = parallel_trials_with(
            runner,
            trials,
            |seed| {
                let mut sink = AggregateObserver::new();
                let r = AntiEntropyEpidemic::new(Direction::Push).run_observed(n, seed, &mut sink);
                (f64::from(r.cycles), sink.finish())
            },
            (0.0f64, RunAggregate::default()),
            |(sum, mut agg), (cycles, trial_agg)| {
                agg.merge(&trial_agg);
                (sum + cycles, agg)
            },
        );
        let push = push_sum / trials as f64;
        let mean = |direction| {
            parallel_trials_with(
                runner,
                trials,
                |seed| f64::from(AntiEntropyEpidemic::new(direction).run(n, seed).cycles),
                0.0,
                |a, x| a + x,
            ) / trials as f64
        };
        let pull = mean(Direction::Pull);
        let pushpull = mean(Direction::PushPull);
        let predicted = push_epidemic_time(n as f64);
        rows.push(vec![
            n.to_string(),
            fmt(push),
            fmt(predicted),
            fmt(pull),
            fmt(pushpull),
            // Pull tail: cycles from 10% susceptible to < 1/n by p².
            fmt(f64::from(pull_cycles_until(0.1, 1.0 / n as f64))),
        ]);
        aggregates.push(AggEntry {
            label: format!("push n={n}"),
            params: vec![
                ("n".to_string(), n.to_string()),
                ("trials".to_string(), trials.to_string()),
                ("direction".to_string(), "push".to_string()),
            ],
            observed: vec![
                ("cycles_mean".to_string(), push),
                ("predicted_log2_ln".to_string(), predicted),
            ],
            agg,
        });
    }
    (rows, aggregates)
}

/// The rows of [`ae_convergence_data`] on a default runner (pinned by
/// tests).
pub fn ae_convergence(trials: u64) -> Vec<Vec<String>> {
    ae_convergence_data(TrialRunner::new(), trials).0
}

/// §3 line-traffic scaling `T(n)` for `d^-a`: exact expectation per regime.
pub fn line_traffic() -> Vec<Vec<String>> {
    let sizes = [100usize, 200, 400, 800, 1600, 3200];
    let exps = [0.0, 1.0, 1.5, 2.0, 3.0];
    sizes
        .iter()
        .map(|&n| {
            let mut row = vec![n.to_string()];
            for &a in &exps {
                row.push(fmt(mean_line_traffic(n, a)));
            }
            row
        })
        .collect()
}

/// [`line_traffic`] as a [`FigTable`].
pub fn line_traffic_table() -> FigTable {
    FigTable::new(
        "Fig: T(n), expected traffic/link on a line for p ~ d^-a (O(n), n/log n, n^(2-a), log n, O(1))",
        &["n", "a=0 (uniform)", "a=1", "a=1.5", "a=2", "a=3"],
        line_traffic(),
    )
}

/// Figure 1 pathology: failure probability of push and pull rumor
/// mongering between the s–t pair under `Q_s(d)^-2`, per `k`.
pub fn figure1(trials: u32) -> Vec<Vec<String>> {
    let topo = topologies::figure1(30);
    let s = topo.node_by_label("s").expect("site s exists");
    (1..=6u32)
        .map(|k| {
            let push = failure_probability(
                &topo,
                Spatial::QsPower { a: 2.0 },
                RumorConfig::new(Direction::Push, Feedback::Feedback, Removal::Counter { k }),
                trials,
                Some(s),
            );
            let pull = failure_probability(
                &topo,
                Spatial::QsPower { a: 2.0 },
                RumorConfig::new(Direction::Pull, Feedback::Feedback, Removal::Counter { k }),
                trials,
                Some(s),
            );
            let uniform_push = failure_probability(
                &topo,
                Spatial::Uniform,
                RumorConfig::new(Direction::Push, Feedback::Feedback, Removal::Counter { k }),
                trials,
                Some(s),
            );
            vec![k.to_string(), fmt(push), fmt(pull), fmt(uniform_push)]
        })
        .collect()
}

/// [`figure1`] as a [`FigTable`].
pub fn figure1_table(trials: u32) -> FigTable {
    FigTable::new(
        "Fig 1: failure probability on the s-t pathology (m=30, Qs^-2), update injected at s",
        &["k", "push Qs^-2", "pull Qs^-2", "push uniform"],
        figure1(trials),
    )
}

/// Figure 2 pathology: probability that the distant site `s` misses a
/// push rumor injected inside the binary tree.
pub fn figure2(trials: u32) -> Vec<Vec<String>> {
    let topo = topologies::figure2(5, 7); // 31 tree sites + distant s
    let root = topo.node_by_label("t0").expect("root exists");
    let s = topo.node_by_label("s").expect("site s exists");
    (1..=6u32)
        .map(|k| {
            let cfg = RumorConfig::new(Direction::Push, Feedback::Feedback, Removal::Counter { k });
            let sim = SpatialRumorSim::new(&topo, Spatial::QsPower { a: 2.0 }, cfg);
            let missed_s = parallel_trials(
                u64::from(trials),
                |t| {
                    let r = sim.run(t + 17, Some(root));
                    r.susceptible_sites.contains(&s)
                },
                0usize,
                |acc, missed| acc + usize::from(missed),
            );
            let total_failures =
                failure_probability(&topo, Spatial::QsPower { a: 2.0 }, cfg, trials, Some(root));
            vec![
                k.to_string(),
                fmt(missed_s as f64 / f64::from(trials)),
                fmt(total_failures),
            ]
        })
        .collect()
}

/// [`figure2`] as a [`FigTable`].
pub fn figure2_table(trials: u32) -> FigTable {
    FigTable::new(
        "Fig 2: binary tree + distant site s (push, Qs^-2), update injected at the root",
        &["k", "P(distant s missed)", "P(any failure)"],
        figure2(trials),
    )
}

/// §2 death certificates: the equal-space law, the resurrection failure
/// and the dormant-certificate immune response (two tables).
pub fn death_certificates_tables() -> Vec<FigTable> {
    // Equal-space law τ₂ = (τ - τ₁)·n/r (§2.1).
    let rows: Vec<Vec<String>> = [
        (30u64, 15u64, 300u64, 4u64),
        (30, 15, 300, 8),
        (60, 30, 1000, 6),
    ]
    .iter()
    .map(|&(tau, tau1, n, r)| {
        vec![
            tau.to_string(),
            tau1.to_string(),
            n.to_string(),
            r.to_string(),
            epidemic_db::GcPolicy::equal_space_tau2(tau, tau1, n, r).to_string(),
        ]
    })
    .collect();
    let equal_space = FigTable::new(
        "§2.1: dormant window τ2 = (τ-τ1)n/r at equal space",
        &["τ", "τ1", "n", "r", "τ2"],
        rows,
    );

    let resurrected = resurrection_without_certificates(12, 3);
    let report = DormantDeathScenario::default().run(11);
    let semantics = FigTable::new(
        "§2: deletion semantics",
        &["scenario", "outcome"],
        vec![
            vec![
                "naive delete (no certificate)".into(),
                format!("item resurrected = {resurrected}"),
            ],
            vec![
                "dormant certificate, obsolete site rejoins".into(),
                format!(
                    "awakened = {}, obsolete cancelled = {}",
                    report.awakened, report.obsolete_cancelled
                ),
            ],
        ],
    );
    vec![equal_space, semantics]
}

/// §3.2: push-pull rumor mongering on the CIN with a spatial distribution —
/// find the minimal `k` giving 100% distribution, then measure its traffic
/// and convergence (the paper found them "nearly identical to Table 4").
pub fn spatial_rumor(trials: u32, measure_runs: u64) -> Vec<Vec<String>> {
    let net = cin(&CinConfig::default());
    spatial_rumor_on(
        TrialRunner::new(),
        &net,
        &[
            ("uniform".to_string(), Spatial::Uniform),
            ("a = 1.2".to_string(), Spatial::QsPower { a: 1.2 }),
            ("a = 2.0".to_string(), Spatial::QsPower { a: 2.0 }),
        ],
        trials,
        40,
        measure_runs,
    )
}

/// As [`spatial_rumor`] but on a caller-provided CIN, distribution list
/// and [`TrialRunner`] (golden tests pin one cell of this on a small
/// network).
pub fn spatial_rumor_on(
    runner: TrialRunner,
    net: &topologies::Cin,
    distributions: &[(String, Spatial)],
    trials: u32,
    max_k: u32,
    measure_runs: u64,
) -> Vec<Vec<String>> {
    let base = RumorConfig::new(
        Direction::PushPull,
        Feedback::Feedback,
        Removal::Counter { k: 1 },
    );
    let mut rows = Vec::new();
    for (label, spatial) in distributions.iter().cloned() {
        let Some(k) = minimum_k_with(runner, &net.topology, spatial, base, trials, max_k) else {
            rows.push(vec![
                label,
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]);
            continue;
        };
        let cfg = RumorConfig {
            removal: Removal::Counter { k },
            ..base
        };
        let sim = SpatialRumorSim::new(&net.topology, spatial, cfg);
        let acc = parallel_trials_with(
            runner,
            measure_runs,
            |seed| {
                let r = sim.run(seed + 1000, None);
                let cycles = f64::from(r.cycles.max(1));
                (
                    f64::from(r.t_last),
                    r.compare_traffic.mean_per_link() / cycles,
                    r.compare_traffic.at(net.bushey_link) as f64 / cycles,
                    r.update_traffic.mean_per_link(),
                )
            },
            [0.0f64; 4],
            |mut a, r| {
                for (x, v) in a.iter_mut().zip([r.0, r.1, r.2, r.3]) {
                    *x += v;
                }
                a
            },
        );
        let t = measure_runs as f64;
        rows.push(vec![
            label,
            k.to_string(),
            fmt(acc[0] / t),
            fmt(acc[1] / t),
            fmt(acc[2] / t),
            fmt(acc[3] / t),
        ]);
    }
    rows
}

/// [`spatial_rumor`]-shaped rows as a [`FigTable`].
pub fn spatial_rumor_table(rows: Vec<Vec<String>>) -> FigTable {
    FigTable::new(
        "§3.2: push-pull rumor mongering on the CIN — minimal k for 100% distribution",
        &[
            "distribution",
            "min k",
            "t_last",
            "cmp avg",
            "cmp Bushey",
            "upd avg",
        ],
        rows,
    )
}

/// Renders [`spatial_rumor`]-shaped rows to a `String` (golden tests).
pub fn render_spatial_rumor(rows: &[Vec<String>]) -> String {
    spatial_rumor_table(rows.to_vec()).render()
}

/// Ablation: Table 3's counter-reset-on-useful-contact rule versus
/// monotone counters (pull, feedback, counter).
pub fn counter_reset_table(n: usize, trials: u64) -> FigTable {
    let rows: Vec<Vec<String>> = [true, false]
        .iter()
        .map(|&reset| {
            let rows = crate::tables::mixing_sweep(n, trials, &[1, 2, 3], |k| {
                RumorEpidemic::new(
                    RumorConfig::new(Direction::Pull, Feedback::Feedback, Removal::Counter { k })
                        .with_reset_on_useful(reset),
                )
            });
            let cells: Vec<String> = rows
                .iter()
                .flat_map(|r| [fmt(r.residue), fmt(r.traffic)])
                .collect();
            let mut row = vec![if reset {
                "reset (footnote)"
            } else {
                "monotone"
            }
            .to_string()];
            row.extend(cells);
            row
        })
        .collect();
    FigTable::new(
        "Ablation: pull counter semantics (residue, traffic per k)",
        &["rule", "s k=1", "m k=1", "s k=2", "m k=2", "s k=3", "m k=3"],
        rows,
    )
}

/// Ablation: hunting under connection limit 1 (§1.4: infinite hunting
/// makes push and pull equivalent to a complete permutation).
pub fn hunting_table(n: usize, trials: u64) -> FigTable {
    let rows: Vec<Vec<String>> = [0u32, 1, 4, 16, u32::MAX]
        .iter()
        .map(|&hunt| {
            let driver = RumorEpidemic::new(RumorConfig::new(
                Direction::Push,
                Feedback::Feedback,
                Removal::Counter { k: 2 },
            ))
            .connection_limit(Some(1))
            .hunt_limit(hunt.min(1_000));
            let (s, m) = TrialRunner::new().fold_with(
                trials,
                0,
                MixingArena::new,
                |arena, seed| {
                    let r = driver.run_in(arena, n, seed ^ 0x5EED, &mut ());
                    (r.residue, r.traffic)
                },
                (0.0, 0.0),
                |a, r| (a.0 + r.0, a.1 + r.1),
            );
            vec![
                if hunt == u32::MAX {
                    "~inf".into()
                } else {
                    hunt.to_string()
                },
                fmt(s / trials as f64),
                fmt(m / trials as f64),
            ]
        })
        .collect();
    FigTable::new(
        "Ablation: hunt limit under connection limit 1 (push, feedback, counter k=2)",
        &["hunt limit", "residue", "traffic m"],
        rows,
    )
}

/// Ablation: comparison strategies (§1.3) on a pair of replicas with a
/// large shared history and a small fresh divergence.
pub fn comparison_table() -> FigTable {
    let rows: Vec<Vec<String>> = [
        ("full", Comparison::Full),
        ("checksum", Comparison::Checksum),
        ("recent list τ=100", Comparison::RecentList { tau: 100 }),
        ("peel back", Comparison::PeelBack),
    ]
    .iter()
    .map(|&(label, comparison)| {
        // 500 shared entries, 3 fresh updates on one side.
        let mut a: Replica<u32, u64> = Replica::new(SiteId::new(0));
        let mut b: Replica<u32, u64> = Replica::new(SiteId::new(1));
        for key in 0..500u32 {
            a.client_update(key, u64::from(key));
        }
        AntiEntropy::new(Direction::PushPull, Comparison::Full).exchange(&mut a, &mut b);
        a.advance_clock(10_000);
        b.advance_clock(10_000);
        for key in 1_000..1_003u32 {
            a.client_update(key, 1);
        }
        let protocol = AntiEntropy::new(Direction::PushPull, comparison);
        let stats = protocol.exchange(&mut a, &mut b);
        assert_eq!(a.db(), b.db(), "all strategies must converge");
        vec![
            label.to_string(),
            stats.total_sent().to_string(),
            stats.entries_scanned.to_string(),
            stats.checksum_exchanges.to_string(),
            stats.full_compare.to_string(),
        ]
    })
    .collect();
    FigTable::new(
        "Ablation: §1.3 comparison strategies (500 shared entries, 3 fresh updates)",
        &[
            "strategy",
            "entries sent",
            "entries scanned",
            "checksums",
            "full compare",
        ],
        rows,
    )
}

/// Ablation: §1.5 redistribution policies in the Clearinghouse workload.
pub fn redistribution_table(trials: u64) -> FigTable {
    use epidemic_core::{MailConfig, Redistribution};
    let rows: Vec<Vec<String>> = [
        ("none (conservative)", Redistribution::None),
        ("rumor", Redistribution::Rumor),
        ("re-mail (original CH)", Redistribution::Mail),
    ]
    .iter()
    .map(|&(label, redistribution)| {
        let scenario = ClearinghouseScenario {
            sites: 40,
            mail: MailConfig {
                loss_probability: 0.3,
                queue_capacity: 200,
            },
            updates: 15,
            anti_entropy_every: 8,
            redistribution,
            rumor_k: Some(2),
            max_cycles: 3_000,
        };
        let acc = parallel_trials(
            trials,
            |seed| {
                let r = scenario.run(seed);
                (
                    r.consistent_at.map_or(3_000.0, f64::from),
                    r.mail_delivered as f64,
                    r.ae_repairs as f64,
                )
            },
            (0.0, 0.0, 0.0),
            |a, r| (a.0 + r.0, a.1 + r.1, a.2 + r.2),
        );
        let t = trials as f64;
        vec![
            label.to_string(),
            fmt(acc.0 / t),
            fmt(acc.1 / t),
            fmt(acc.2 / t),
        ]
    })
    .collect();
    FigTable::new(
        "Ablation: §1.5 redistribution policy (30% mail loss, 40 sites, 15 updates)",
        &[
            "policy",
            "cycles to consistency",
            "mail delivered",
            "AE repairs",
        ],
        rows,
    )
}

/// §1.3 checksum-window experiment: full-comparison rate and traffic as a
/// function of the recent-update-list window `τ` under a steady update
/// rate. The paper: choose `τ` below the distribution time and "checksum
/// comparisons will usually fail".
pub fn checksum_window_table() -> FigTable {
    use epidemic_sim::steady::SteadyStateSim;
    let sim = SteadyStateSim::default();
    let mut rows: Vec<Vec<String>> = Vec::new();
    let full = sim.run(Comparison::Full, 11);
    rows.push(vec![
        "full (baseline)".into(),
        "1.00".into(),
        fmt(full.entries_per_exchange),
        fmt(full.scanned_per_exchange),
    ]);
    let naive = sim.run(Comparison::Checksum, 11);
    rows.push(vec![
        "naive checksum".into(),
        fmt(naive.full_compare_rate),
        fmt(naive.entries_per_exchange),
        fmt(naive.scanned_per_exchange),
    ]);
    for tau in [10u64, 20, 30, 40, 50, 100, 200, 400] {
        let r = sim.run(Comparison::RecentList { tau }, 11);
        rows.push(vec![
            format!("recent list τ={tau}"),
            fmt(r.full_compare_rate),
            fmt(r.entries_per_exchange),
            fmt(r.scanned_per_exchange),
        ]);
    }
    let peel = sim.run(Comparison::PeelBack, 11);
    rows.push(vec![
        "peel back".into(),
        "0".into(),
        fmt(peel.entries_per_exchange),
        fmt(peel.scanned_per_exchange),
    ]);
    FigTable::new(
        "§1.3: checksum window — 60 sites, 1 update/cycle (10 ticks/cycle), distribution time ≈ 100 ticks",
        &["strategy", "full-compare rate", "entries/exchange", "scanned/exchange"],
        rows,
    )
}

/// Ablation of the synchronous-cycle assumption: the Table 4 experiment
/// re-run on the event-driven simulator with per-site jittered timers.
pub fn async_ablation_table(trials: u64) -> FigTable {
    use epidemic_sim::event::AsyncAntiEntropySim;
    use epidemic_sim::spatial_ae::AntiEntropySim;
    let net = cin(&CinConfig::default());
    let mut rows = Vec::new();
    for (label, spatial) in [
        ("uniform".to_string(), Spatial::Uniform),
        ("a = 2.0".to_string(), Spatial::QsPower { a: 2.0 }),
    ] {
        let sync = AntiEntropySim::new(&net.topology, spatial);
        let asynchronous = AsyncAntiEntropySim::new(&net.topology, spatial, 0.3);
        let acc = parallel_trials(
            trials,
            |seed| {
                let s = sync.run(seed + 71, None);
                let a = asynchronous.run(seed + 71, None);
                (
                    f64::from(s.t_last),
                    a.t_last,
                    s.compare_traffic.mean_per_link() / f64::from(s.cycles.max(1)),
                    a.compare_per_link_period,
                )
            },
            [0.0f64; 4],
            |mut acc, r| {
                for (x, v) in acc.iter_mut().zip([r.0, r.1, r.2, r.3]) {
                    *x += v;
                }
                acc
            },
        );
        let t = trials as f64;
        rows.push(vec![
            label,
            fmt(acc[0] / t),
            fmt(acc[1] / t),
            fmt(acc[2] / t),
            fmt(acc[3] / t),
        ]);
    }
    FigTable::new(
        "Ablation: synchronous cycles vs event-driven timers (±30% jitter) on the CIN",
        &[
            "distribution",
            "t_last sync (cycles)",
            "t_last async (periods)",
            "cmp/link/cycle sync",
            "cmp/link/period async",
        ],
        rows,
    )
}

/// §4 future work: the dynamic hierarchy against flat spatial selection on
/// the CIN — convergence, average traffic and the Bushey hot spot.
pub fn hierarchy_table(trials: u64) -> FigTable {
    use epidemic_net::{HierarchicalSampler, Routes};
    use epidemic_sim::spatial_ae::AntiEntropySim;
    let net = cin(&CinConfig::default());
    let routes = Routes::compute(&net.topology);
    let mut rows = Vec::new();

    let mut measure =
        |label: String, sim: &(dyn Fn(u64) -> epidemic_sim::SpatialRunResult + Sync)| {
            let acc = parallel_trials(
                trials,
                |seed| {
                    let r = sim(seed + 13);
                    let cycles = f64::from(r.cycles.max(1));
                    (
                        f64::from(r.t_last),
                        r.compare_traffic.mean_per_link() / cycles,
                        r.compare_traffic.at(net.bushey_link) as f64 / cycles,
                    )
                },
                [0.0f64; 3],
                |mut a, r| {
                    for (x, v) in a.iter_mut().zip([r.0, r.1, r.2]) {
                        *x += v;
                    }
                    a
                },
            );
            let t = trials as f64;
            rows.push(vec![
                label,
                fmt(acc[0] / t),
                fmt(acc[1] / t),
                fmt(acc[2] / t),
            ]);
        };

    for (label, spatial) in [
        ("uniform".to_string(), Spatial::Uniform),
        ("flat a = 2.0".to_string(), Spatial::QsPower { a: 2.0 }),
    ] {
        let sim = AntiEntropySim::new(&net.topology, spatial);
        measure(label, &|seed| sim.run(seed, None));
    }
    for (reps, long_range) in [(8usize, 0.3f64), (16, 0.3), (16, 0.6)] {
        let sampler = HierarchicalSampler::new(
            &net.topology,
            &routes,
            reps,
            long_range,
            Spatial::QsPower { a: 2.0 },
        );
        let sim = AntiEntropySim::with_selection(&net.topology, sampler);
        measure(format!("hierarchy r={reps} p={long_range}"), &|seed| {
            sim.run(seed, None)
        });
    }
    FigTable::new(
        "§4 future work: dynamic hierarchy vs flat spatial selection (CIN)",
        &[
            "strategy",
            "t_last",
            "cmp avg/link/cycle",
            "cmp Bushey/cycle",
        ],
        rows,
    )
}

/// The §1.4 epidemic trajectory: the simulated infective fraction along
/// the phase curve `i(s)` against the ODE's closed form, sampled at fixed
/// susceptible fractions.
pub fn sir_curve_table(n: usize, trials: u64) -> FigTable {
    let k = 2;
    let cfg = RumorConfig::new(Direction::Push, Feedback::Feedback, Removal::Coin { k });
    let driver = RumorEpidemic::new(cfg);
    // Average the infective fraction observed at (just below) each sampled
    // susceptible level across trials.
    let samples = [0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1];
    let sums = TrialRunner::new().fold_with(
        trials,
        0,
        || (MixingArena::new(), SirObserver::new()),
        |(arena, sir), seed| {
            sir.points.clear();
            driver.run_in(arena, n, seed ^ 0xC0FFEE, sir);
            let mut at = [f64::NAN; 9];
            for &(s, i, _) in &sir.points {
                for (slot, &level) in at.iter_mut().zip(&samples) {
                    if s <= level && slot.is_nan() {
                        *slot = i;
                    }
                }
            }
            at
        },
        ([0.0f64; 9], [0u64; 9]),
        |(mut acc, mut counts), at| {
            for idx in 0..9 {
                if !at[idx].is_nan() {
                    acc[idx] += at[idx];
                    counts[idx] += 1;
                }
            }
            (acc, counts)
        },
    );
    let ode = RumorOde::new(k);
    let rows: Vec<Vec<String>> = samples
        .iter()
        .enumerate()
        .map(|(idx, &s)| {
            let sim = if sums.1[idx] > 0 {
                fmt(sums.0[idx] / sums.1[idx] as f64)
            } else {
                "-".into()
            };
            vec![
                fmt(s),
                fmt(ode.i_of_s(s).max(0.0)),
                sim,
                format!("{}/{trials}", sums.1[idx]),
            ]
        })
        .collect();
    FigTable::new(
        "Fig: S/I/R phase curve i(s) — ODE vs simulation (push, feedback, coin, k=2)",
        &["s", "i(s) ODE", "i(s) sim", "trials reaching s"],
        rows,
    )
}

/// Steady-state anti-entropy on the CIN with recent-update lists: entry
/// traffic (the wire-cost proxy) per link under each distribution — the
/// production Clearinghouse configuration.
pub fn cin_steady_table(runner: TrialRunner, trials: u64) -> FigTable {
    use epidemic_sim::spatial_steady::{SpatialSteadyConfig, SpatialSteadySim};
    let net = cin(&CinConfig::default());
    let config = SpatialSteadyConfig::default();
    let mut rows = Vec::new();
    for (label, spatial) in [
        ("uniform".to_string(), Spatial::Uniform),
        ("a = 1.2".to_string(), Spatial::QsPower { a: 1.2 }),
        ("a = 2.0".to_string(), Spatial::QsPower { a: 2.0 }),
    ] {
        let sim = SpatialSteadySim::new(&net.topology, spatial, config);
        let acc = parallel_trials_with(
            runner,
            trials,
            |seed| {
                let r = sim.run(seed + 31);
                (
                    r.conversations_per_link_cycle,
                    r.entries_per_link_cycle,
                    r.entry_traffic.at(net.bushey_link) as f64 / f64::from(r.measured_cycles),
                    r.full_compare_rate,
                )
            },
            [0.0f64; 4],
            |mut a, r| {
                for (x, v) in a.iter_mut().zip([r.0, r.1, r.2, r.3]) {
                    *x += v;
                }
                a
            },
        );
        let t = trials as f64;
        rows.push(vec![
            label,
            fmt(acc[0] / t),
            fmt(acc[1] / t),
            fmt(acc[2] / t),
            fmt(acc[3] / t),
        ]);
    }
    FigTable::new(
        "Steady state on the CIN: recent-list anti-entropy, 2 updates/cycle",
        &[
            "distribution",
            "conv/link/cycle",
            "entries/link/cycle",
            "entries Bushey/cycle",
            "full-compare rate",
        ],
        rows,
    )
}

/// Weighted-CIN ablation: modelling the transatlantic phone lines as
/// high-cost links. `d`-seen distance pushes `Q_s(d)`'s sorted lists
/// around, so Europe appears "farther" and crossing traffic falls further
/// still — at the price of slower transatlantic convergence.
pub fn weighted_cin_table(trials: u64) -> FigTable {
    use epidemic_sim::spatial_ae::AntiEntropySim;
    let mut rows = Vec::new();
    for cost in [1u32, 3, 6] {
        let net = cin(&CinConfig {
            transatlantic_cost: cost,
            ..CinConfig::default()
        });
        let sim = AntiEntropySim::new(&net.topology, Spatial::QsPower { a: 2.0 });
        let acc = parallel_trials(
            trials,
            |seed| {
                let r = sim.run(seed + 47, None);
                let cycles = f64::from(r.cycles.max(1));
                (
                    f64::from(r.t_last),
                    r.compare_traffic.mean_per_link() / cycles,
                    r.compare_traffic.at(net.bushey_link) as f64 / cycles,
                )
            },
            [0.0f64; 3],
            |mut a, r| {
                for (x, v) in a.iter_mut().zip([r.0, r.1, r.2]) {
                    *x += v;
                }
                a
            },
        );
        let t = trials as f64;
        rows.push(vec![
            cost.to_string(),
            fmt(acc[0] / t),
            fmt(acc[1] / t),
            fmt(acc[2] / t),
        ]);
    }
    FigTable::new(
        "Ablation: transatlantic link cost under Qs^-2 anti-entropy (CIN)",
        &[
            "transatlantic cost",
            "t_last",
            "cmp avg/link/cycle",
            "cmp Bushey/cycle",
        ],
        rows,
    )
}

/// §2.1's scaling warning: dormant death certificates fail catastrophically
/// once the expected propagation time exceeds `τ₁`, so `τ₁` (and the space
/// at each server) "eventually must grow as O(log n)". We estimate
/// `P(cover time > τ₁)` for push-pull anti-entropy across network sizes.
pub fn dc_scaling_table(trials: u64) -> FigTable {
    let taus = [8u32, 10, 12, 14];
    let rows: Vec<Vec<String>> = [64usize, 256, 1024, 4096]
        .iter()
        .map(|&n| {
            let driver = AntiEntropyEpidemic::new(Direction::PushPull);
            let cover_times: Vec<f64> = {
                parallel_trials(
                    trials,
                    |seed| f64::from(driver.run(n, seed ^ 0xDC).cycles),
                    Vec::new(),
                    |mut v, x| {
                        v.push(x);
                        v
                    },
                )
            };
            let mut row = vec![
                n.to_string(),
                fmt(cover_times.iter().sum::<f64>() / cover_times.len() as f64),
            ];
            for &tau in &taus {
                let exceed = cover_times.iter().filter(|&&c| c > f64::from(tau)).count();
                row.push(fmt(exceed as f64 / cover_times.len() as f64));
            }
            row
        })
        .collect();
    FigTable::new(
        "§2.1: P(propagation time > τ1) vs n — why τ1 must grow as O(log n)",
        &[
            "n",
            "mean cover time",
            "P(>8)",
            "P(>10)",
            "P(>12)",
            "P(>14)",
        ],
        rows,
    )
}

/// Churn ablation: spatial anti-entropy on the CIN while a fraction of the
/// fleet is down at any moment (§2's hours-to-days outages). Anti-entropy
/// completes regardless; convergence stretches roughly like 1/(up
/// fraction)².
pub fn churn_table(trials: u64) -> FigTable {
    use epidemic_sim::failures::{Churn, ChurnedAntiEntropySim};
    let net = cin(&CinConfig::default());
    let mut rows = Vec::new();
    for (label, churn) in [
        (
            "0% down",
            Churn {
                fail: 0.0,
                recover: 1.0,
            },
        ),
        (
            "~10% down",
            Churn {
                fail: 0.02,
                recover: 0.18,
            },
        ),
        (
            "~25% down",
            Churn {
                fail: 0.05,
                recover: 0.15,
            },
        ),
        (
            "~50% down",
            Churn {
                fail: 0.10,
                recover: 0.10,
            },
        ),
    ] {
        let sim = ChurnedAntiEntropySim::new(&net.topology, Spatial::QsPower { a: 2.0 }, churn);
        let acc = parallel_trials(
            trials,
            |seed| {
                let r = sim.run(seed + 91, None);
                (
                    f64::from(r.t_last),
                    r.observed_down_fraction,
                    f64::from(u8::from(r.complete)),
                )
            },
            (0.0, 0.0, 0.0),
            |a, r| (a.0 + r.0, a.1 + r.1, a.2 + r.2),
        );
        let t = trials as f64;
        rows.push(vec![
            label.to_string(),
            fmt(acc.1 / t),
            fmt(acc.0 / t),
            fmt(acc.2 / t),
        ]);
    }
    FigTable::new(
        "Ablation: site churn under Qs^-2 anti-entropy (CIN)",
        &[
            "churn",
            "observed down fraction",
            "t_last",
            "completion rate",
        ],
        rows,
    )
}

/// §4 asks to "characterize the pathological topologies": sweep topology
/// families and report how uniform vs `Q_s(d)^-2` anti-entropy behaves on
/// each — convergence time and the hottest link's load.
pub fn topology_robustness_table(trials: u64) -> FigTable {
    use epidemic_net::topologies::{binary_tree, grid, line, random_connected, ring, waxman};
    use epidemic_sim::spatial_ae::AntiEntropySim;
    let topos: Vec<(&str, epidemic_net::Topology)> = vec![
        ("line(64)", line(64)),
        ("ring(64)", ring(64)),
        ("grid(8x8)", grid(&[8, 8])),
        ("tree(depth 6)", binary_tree(6)),
        ("ER(64, p=.05)", random_connected(64, 0.05, 5)),
        ("waxman(64)", waxman(64, 0.9, 0.15, 5)),
    ];
    let mut rows = Vec::new();
    for (label, topo) in &topos {
        let mut cells = vec![label.to_string()];
        for spatial in [Spatial::Uniform, Spatial::QsPower { a: 2.0 }] {
            let sim = AntiEntropySim::new(topo, spatial);
            let acc = parallel_trials(
                trials,
                |seed| {
                    let r = sim.run(seed + 3, None);
                    let cycles = f64::from(r.cycles.max(1));
                    let hottest = r
                        .compare_traffic
                        .hottest()
                        .map_or(0.0, |(_, c)| c as f64 / cycles);
                    (f64::from(r.t_last), hottest)
                },
                (0.0, 0.0),
                |a, r| (a.0 + r.0, a.1 + r.1),
            );
            let t = trials as f64;
            cells.push(fmt(acc.0 / t));
            cells.push(fmt(acc.1 / t));
        }
        rows.push(cells);
    }
    FigTable::new(
        "Fig: topology robustness — anti-entropy across families (64 sites)",
        &[
            "topology",
            "t_last unif",
            "hot link unif",
            "t_last Qs^-2",
            "hot link Qs^-2",
        ],
        rows,
    )
}

/// §1.4's update-rate trade-off: push goes silent on a quiescent network
/// while pull keeps polling; under load, pull's polls almost always find
/// rumors and its superior residue pays off — "our own CIN application has
/// a high enough update rate to warrant the use of pull".
pub fn pull_vs_push_rate_table(runner: TrialRunner, trials: u64) -> FigTable {
    use epidemic_sim::rumor_steady::{RumorSteadyConfig, RumorSteadySim};
    let mut rows = Vec::new();
    for rate in [0.0f64, 0.25, 1.0, 4.0] {
        for (label, direction) in [("push", Direction::Push), ("pull", Direction::Pull)] {
            let cfg = RumorConfig::new(direction, Feedback::Feedback, Removal::Counter { k: 2 });
            let config = RumorSteadyConfig {
                updates_per_cycle: rate,
                ..RumorSteadyConfig::default()
            };
            let sim = RumorSteadySim::new(cfg, config);
            let acc = parallel_trials_with(
                runner,
                trials,
                |seed| {
                    let r = sim.run(seed + 5);
                    (
                        r.coverage,
                        r.messages_per_delivery,
                        r.fruitless_per_cycle,
                        r.contacts_per_cycle,
                    )
                },
                [0.0f64; 4],
                |mut a, r| {
                    for (x, v) in a.iter_mut().zip([r.0, r.1, r.2, r.3]) {
                        *x += v;
                    }
                    a
                },
            );
            let t = trials as f64;
            rows.push(vec![
                format!("{rate} upd/cycle, {label}"),
                fmt(acc[0] / t),
                fmt(acc[1] / t),
                fmt(acc[2] / t),
                fmt(acc[3] / t),
            ]);
        }
    }
    FigTable::new(
        "§1.4: push vs pull across update rates (200 sites, k=2)",
        &[
            "workload",
            "coverage",
            "msgs/delivery",
            "fruitless/cycle",
            "contacts/cycle",
        ],
        rows,
    )
}

/// Environment variable capping the largest `n` in the megascale sweep.
///
/// The default sweep runs to 10⁶ sites, which is minutes of wall clock
/// and hundreds of MB of RSS — right for `repro`, wrong for a test or a
/// CI smoke job. Setting e.g. `EPIDEMIC_MEGASCALE_MAX_N=10000` keeps
/// only the points with `n ≤ 10⁴`; raising it to `10000000` unlocks the
/// 10⁷ point.
pub const MEGASCALE_MAX_N_ENV: &str = "EPIDEMIC_MEGASCALE_MAX_N";

/// Largest `n` swept when [`MEGASCALE_MAX_N_ENV`] is unset.
const MEGASCALE_DEFAULT_MAX_N: usize = 1_000_000;

/// Reads [`MEGASCALE_MAX_N_ENV`]: `Ok(None)` when unset, `Ok(Some(n))` for
/// a `usize`.
///
/// # Errors
///
/// Returns a message naming the variable and the offending value when it
/// is set to anything else. `repro` refuses to start on it; a library
/// caller of [`megascale_fig`] gets the default cap instead.
pub fn megascale_max_n_override() -> Result<Option<usize>, String> {
    let Some(raw) = std::env::var_os(MEGASCALE_MAX_N_ENV) else {
        return Ok(None);
    };
    raw.to_str()
        .and_then(|v| v.trim().parse().ok())
        .map(Some)
        .ok_or_else(|| format!("{MEGASCALE_MAX_N_ENV}={raw:?} is not a non-negative integer"))
}

/// Measures one sweep point: wall clock, allocations, and high-water-mark
/// delta around `run`, pushing one rendered row and one [`AggEntry`].
fn megascale_point(
    n: usize,
    topology: &str,
    rows: &mut Vec<Vec<String>>,
    aggregates: &mut Vec<AggEntry>,
    run: impl FnOnce(&mut AggregateObserver) -> epidemic_sim::EpidemicResult,
) {
    let allocs_before = crate::alloc_counter::allocations();
    let rss_before = crate::rss::peak_rss_kb();
    let start = std::time::Instant::now();
    let mut sink = AggregateObserver::new();
    let r = run(&mut sink);
    let seconds = start.elapsed().as_secs_f64();
    let allocations = crate::alloc_counter::allocations() - allocs_before;
    let rss_delta_kb = crate::rss::peak_rss_kb().saturating_sub(rss_before);
    rows.push(vec![
        n.to_string(),
        topology.to_string(),
        fmt(r.residue),
        fmt(r.t_last),
        fmt(r.traffic),
        r.cycles.to_string(),
        format!("{seconds:.2}"),
        if crate::alloc_counter::enabled() {
            allocations.to_string()
        } else {
            "n/a".to_string()
        },
        (rss_delta_kb / 1024).to_string(),
    ]);
    aggregates.push(AggEntry {
        label: format!("n={n} {topology}"),
        params: vec![
            ("n".to_string(), n.to_string()),
            ("topology".to_string(), topology.to_string()),
        ],
        observed: vec![
            ("residue".to_string(), r.residue),
            ("t_last".to_string(), r.t_last),
            ("traffic".to_string(), r.traffic),
            ("cycles".to_string(), f64::from(r.cycles)),
        ],
        agg: sink.finish(),
    });
}

/// Fig-megascale: the paper's workhorse rumor variant (push, feedback,
/// coin `k=4`) at 10⁴–10⁷ sites (capped by [`MEGASCALE_MAX_N_ENV`]), on
/// uniform complete mixing and on a Barabási–Albert scale-free contact
/// graph (`m = 2`), on the active-set contact loop with counter RNG and
/// lazy site materialization ([`epidemic_sim::FastRumorProtocol`]) — what
/// makes 10⁶ cheap and 10⁷ feasible at all.
///
/// Every run streams through an [`AggregateObserver`] — bounded memory
/// even at n = 10⁷ — and yields one row and one [`AggEntry`] per
/// `(n, topology)` point. The cost columns are volatile: present in the
/// rendered text, dropped from the JSON artifact so `--trace`/`--json`
/// output stays byte-reproducible. Allocations need the `count-allocs`
/// build ("n/a" otherwise); the RSS column is the per-point delta of the
/// process high-water mark — how far this row pushed the peak, 0 if it
/// fit inside an earlier row's footprint (see [`crate::rss`]).
pub fn megascale_fig() -> (FigTable, Vec<AggEntry>) {
    use epidemic_net::DegreeGraph;
    use epidemic_sim::MegascaleSim;

    let max_n = megascale_max_n_override()
        .ok()
        .flatten()
        .unwrap_or(MEGASCALE_DEFAULT_MAX_N);
    let sim = MegascaleSim::new();
    let mut rows = Vec::new();
    let mut aggregates = Vec::new();
    for n in [10_000usize, 100_000, 1_000_000, 10_000_000] {
        if n > max_n {
            continue;
        }
        let seed = 1987 ^ n as u64;
        megascale_point(n, "uniform", &mut rows, &mut aggregates, |sink| {
            sim.run_uniform_fast_observed(n, seed, sink)
        });
        let graph = DegreeGraph::scale_free(n, 2, 1987);
        megascale_point(n, "scale-free m=2", &mut rows, &mut aggregates, |sink| {
            sim.run_scale_free_fast_observed(&graph, seed, sink)
        });
    }
    let table = FigTable::new(
        "Fig: megascale rumor epidemics (push, feedback, coin k=4) — \
         n x topology",
        &[
            "n",
            "topology",
            "residue",
            "t_last",
            "traffic m",
            "cycles",
            "seconds",
            "allocations",
            "RSS delta MB",
        ],
        rows,
    )
    .volatile(&[6, 7, 8]);
    (table, aggregates)
}

/// One figure experiment's complete output: its rendered tables plus the
/// streaming aggregates of its statistically deep sweeps (empty for
/// figures whose value is a handful of derived numbers rather than a
/// delay/traffic distribution).
#[derive(Debug, Clone)]
pub struct FigData {
    /// The figure's tables, in print order.
    pub tables: Vec<FigTable>,
    /// Merged per-configuration streaming aggregates (may be empty).
    pub aggregates: Vec<AggEntry>,
}

impl FigData {
    fn table(table: FigTable) -> Self {
        FigData {
            tables: vec![table],
            aggregates: Vec::new(),
        }
    }

    fn with_aggregates((table, aggregates): (FigTable, Vec<AggEntry>)) -> Self {
        FigData {
            tables: vec![table],
            aggregates,
        }
    }
}

/// The single dispatcher behind every figure experiment: resolves `name`
/// to its tables (and aggregates), or `None` for non-figure names. The
/// per-figure trial counts are fixed here — the same counts `repro` has
/// always used — except for the sweeps that scale with `--trials`
/// (`mix_trials`, on `n` sites).
pub fn figure_data(runner: TrialRunner, name: &str, n: usize, mix_trials: u64) -> Option<FigData> {
    let data = match name {
        "fig-rumor-ode" => {
            let (rows, aggregates) = rumor_ode_data(runner, n, mix_trials);
            FigData::with_aggregates((
                FigTable::new(
                    "Fig: rumor ODE residue s = e^-(k+1)(1-s) vs simulation (push, feedback, coin)",
                    &["k", "ODE residue", "sim residue", "sim traffic m"],
                    rows,
                ),
                aggregates,
            ))
        }
        "fig-residue-traffic" => FigData::table(FigTable::new(
            "Fig: residue vs traffic — s = e^-m law and connection-limited variants",
            &["variant", "m", "s (sim)", "e^-m", "e^-1.582m"],
            residue_traffic(n, mix_trials),
        )),
        "fig-ae-convergence" => {
            let (rows, aggregates) = ae_convergence_data(runner, 50);
            FigData::with_aggregates((
                FigTable::new(
                    "Fig: anti-entropy cover time — push vs log2(n)+ln(n), pull, push-pull",
                    &[
                        "n",
                        "push (sim)",
                        "log2+ln",
                        "pull (sim)",
                        "push-pull (sim)",
                        "pull tail p^2",
                    ],
                    rows,
                ),
                aggregates,
            ))
        }
        "fig-line-traffic" => FigData::table(line_traffic_table()),
        "fig1-pathology" => FigData::table(figure1_table(500)),
        "fig2-pathology" => FigData::table(figure2_table(500)),
        "death-certs" => FigData {
            tables: death_certificates_tables(),
            aggregates: Vec::new(),
        },
        "fig-dc-scaling" => FigData::table(dc_scaling_table(200)),
        "fig-spatial-rumor" => FigData::table(spatial_rumor_table(spatial_rumor(50, 100))),
        "fig-sir-curve" => FigData::table(sir_curve_table(n, mix_trials)),
        "fig-checksum-window" => FigData::table(checksum_window_table()),
        "fig-async" => FigData::table(async_ablation_table(50)),
        "fig-cin-steady" => FigData::table(cin_steady_table(runner, 20)),
        "fig-megascale" => FigData::with_aggregates(megascale_fig()),
        "ablation-hierarchy" => FigData::table(hierarchy_table(50)),
        "ablation-weighted-cin" => FigData::table(weighted_cin_table(50)),
        "ablation-churn" => FigData::table(churn_table(30)),
        "fig-topology-robustness" => FigData::table(topology_robustness_table(40)),
        "fig-pull-vs-push-rate" => FigData::table(pull_vs_push_rate_table(runner, 20)),
        "ablation-counter-reset" => FigData::table(counter_reset_table(n, mix_trials)),
        "ablation-hunting" => FigData::table(hunting_table(n, mix_trials)),
        "ablation-comparison" => FigData::table(comparison_table()),
        "ablation-redistribution" => FigData::table(redistribution_table(20)),
        _ => return None,
    };
    Some(data)
}

/// The plain `repro` path: prints a figure's tables to stdout. `false`
/// for non-figure names.
pub fn print_figure(name: &str, n: usize, mix_trials: u64) -> bool {
    match figure_data(TrialRunner::new(), name, n, mix_trials) {
        Some(data) => {
            for table in &data.tables {
                table.print();
            }
            true
        }
        None => false,
    }
}

/// Runs a figure experiment and packages it in the same artifact-bundle
/// shape as the traced tables and scenarios, so `repro --trace/--json`
/// covers every experiment. Figures have no per-contact JSONL trace
/// (`jsonl` is empty and `repro` skips the file); their machine-readable
/// rows exclude volatile wall-clock columns, so every written byte is
/// reproducible at any thread count.
pub fn figure_artifacts(
    runner: TrialRunner,
    name: &str,
    n: usize,
    mix_trials: u64,
) -> Option<TableArtifacts> {
    use epidemic_trace::json::{array_of, JsonObject};
    let data = figure_data(runner, name, n, mix_trials)?;
    let rendered: String = data.tables.iter().map(FigTable::render).collect();
    let mut rows = JsonObject::new();
    rows.field_str("experiment", name)
        .field_str("kind", "figure")
        .field_raw(
            "tables",
            &array_of(data.tables.iter().map(FigTable::to_json)),
        );
    let rows = rows.finish();
    let mut summary = JsonObject::new();
    summary
        .field_raw("table", &rows)
        .field_u64("trace_lines", 0);
    Some(TableArtifacts {
        rendered,
        jsonl: String::new(),
        summary: summary.finish(),
        rows,
        agg: agg_json(name, "figure", &data.aggregates),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rumor_ode_rows_track_theory() {
        let rows = rumor_ode(300, 20);
        assert_eq!(rows.len(), 8);
        // Column 1 is the ODE residue for k=1 ≈ 0.2.
        let ode_k1: f64 = rows[0][1].parse().unwrap();
        assert!((ode_k1 - 0.2032).abs() < 0.01);
    }

    #[test]
    fn ae_convergence_rows_are_ordered() {
        let rows = ae_convergence(5);
        // Cover time grows with n for push.
        let push: Vec<f64> = rows.iter().map(|r| r[1].parse().unwrap()).collect();
        assert!(push.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn line_traffic_rows_have_expected_shape() {
        let rows = line_traffic();
        // Uniform column roughly doubles per size doubling; a=3 column is flat.
        let first: f64 = rows[0][1].parse().unwrap();
        let last: f64 = rows[5][1].parse().unwrap();
        assert!(last / first > 16.0);
        let a3_first: f64 = rows[0][5].parse().unwrap();
        let a3_last: f64 = rows[5][5].parse().unwrap();
        assert!(a3_last / a3_first < 1.5);
    }

    #[test]
    fn figure1_failure_decreases_in_k() {
        let rows = figure1(60);
        let k1: f64 = rows[0][1].parse().unwrap();
        let k6: f64 = rows[5][1].parse().unwrap();
        assert!(k6 <= k1);
    }
}
