//! Reproductions of the paper's figures, displayed equations and ablation
//! studies (everything in the evaluation that is not a numbered table).
//!
//! Every figure is one or more [`FigTable`]s; the statistically deep
//! sweeps (`rumor_ode`, `ae_convergence`, `megascale`) also yield
//! streaming [`AggEntry`] aggregates when artifacts were asked for. The
//! registry ([`crate::registry`]) binds each to its experiment name and
//! trial count; every trial loop here runs on `ctx.runner` for
//! `ctx.trials` trials.

use epidemic_analysis::{
    mean_line_traffic, pull_cycles_until, push_epidemic_time, residue_from_traffic, RumorOde,
};
use epidemic_core::anti_entropy::{AntiEntropy, Comparison};
use epidemic_core::{Direction, Feedback, Removal, Replica, RumorConfig};
use epidemic_db::SiteId;
use epidemic_net::topologies::{self, cin, Cin, CinConfig};
use epidemic_net::{LinkTraffic, PartnerSampler, PartnerSelection, Routes, Spatial, Topology};
use epidemic_sim::engine::{RouteCharge, SirObserver};
use epidemic_sim::mixing::MixingArena;
use epidemic_sim::runner::Arenas;
use epidemic_sim::scenario::{
    bundled, AntiEntropySpec, FaultKind, Scenario, ScenarioArena, ScenarioEngine,
};
use epidemic_sim::spatial::{failure_probability, minimum_k, SpatialSim};

use crate::registry::{Ctx, Output};
use crate::render::{fmt, labelled, FigTable};
use crate::tables::{mixing_entry, mixing_sweep};
use crate::trace::{observed, AggEntry, Seen, Sinks};

/// §1.4 rumor ODE: predicted residue `s = e^{-(k+1)(1-s)}` versus the
/// simulated feedback+coin epidemic, with one merged streaming aggregate
/// per `k` when observed.
pub(crate) fn rumor_ode(ctx: &Ctx<'_>) -> Output {
    let mut rows = Vec::new();
    let mut aggregates = Vec::new();
    mixing_sweep(
        ctx,
        &Arenas::default(),
        Sinks::Aggregate,
        &[1, 2, 3, 4, 5, 6, 7, 8],
        |k| RumorConfig::new(Direction::Push, Feedback::Feedback, Removal::Coin { k }),
        |(k, [residue, traffic, ..]), seen| {
            let ode = RumorOde::new(k).final_residue();
            rows.push(labelled(k.to_string(), [ode, residue, traffic]));
            aggregates.extend(seen.agg.map(|agg| {
                let observed = [
                    ("ode_residue", ode),
                    ("residue", residue),
                    ("traffic", traffic),
                ];
                mixing_entry(ctx, k, &observed, agg)
            }));
        },
    );
    let table = FigTable::new(
        "Fig: rumor ODE residue s = e^-(k+1)(1-s) vs simulation (push, feedback, coin)",
        &["k", "ODE residue", "sim residue", "sim traffic m"],
        rows,
    );
    Output::figure(ctx, vec![table], aggregates)
}

/// §1.4 `s = e^{-m}` law: measured (m, s) pairs for several push variants
/// against the prediction, including the connection-limited λ variants.
pub(crate) fn residue_traffic_table(ctx: &Ctx<'_>) -> FigTable {
    let counter =
        |direction| RumorConfig::new(direction, Feedback::Feedback, Removal::Counter { k: 2 });
    let push = counter(Direction::Push);
    let blind_coin = RumorConfig::new(Direction::Push, Feedback::Blind, Removal::Coin { k: 3 });
    let minimized = counter(Direction::PushPull).with_minimization();
    let variants = [
        ("feedback+counter", push, None),
        ("blind+coin", blind_coin, None),
        ("feedback+counter, climit 1", push, Some(1)),
        ("minimization (push-pull)", minimized, None),
    ];
    let arenas = Arenas::<MixingArena>::default();
    let rows = variants
        .into_iter()
        .map(|(label, cfg, climit)| {
            let driver = SpatialSim::mixing(ctx.n, cfg).connection_limit(climit);
            let [s, m] = ctx.mean(
                || arenas.take(),
                |arena, seed| {
                    let r = driver.run(arena, seed ^ 0xABCD, &mut ());
                    [r.residue, r.traffic]
                },
            );
            vec![
                label.to_string(),
                fmt(m),
                fmt(s),
                fmt(residue_from_traffic(m)),
                fmt(epidemic_analysis::push_connection_limited_residue(m)),
            ]
        })
        .collect();
    FigTable::new(
        "Fig: residue vs traffic — s = e^-m law and connection-limited variants",
        &["variant", "m", "s (sim)", "e^-m", "e^-1.582m"],
        rows,
    )
}

/// §1.3 anti-entropy convergence: measured cover time for push vs the
/// `log₂n + ln n` prediction, and pull's doubly-exponential tail. The
/// push direction (the one the closed form predicts) yields one merged
/// aggregate per `n` when observed.
pub(crate) fn ae_convergence(ctx: &Ctx<'_>) -> Output {
    let sinks = ctx.sinks(Sinks::Aggregate);
    let arenas = Arenas::<MixingArena>::default();
    let mut rows = Vec::new();
    let mut aggregates = Vec::new();
    for &n in &[100usize, 300, 1000, 3000, 10_000] {
        let push_driver = SpatialSim::anti_entropy(n, Direction::Push);
        let ([push], seen) = ctx.mean_seen(
            || arenas.take(),
            |arena, seed| {
                let (r, seen) = observed!(sinks, ctx.tracer(), |observer| {
                    push_driver.run(arena, seed, observer)
                });
                ([f64::from(r.cycles)], seen)
            },
        );
        let mean = |direction| {
            let driver = SpatialSim::anti_entropy(n, direction);
            ctx.mean(
                || arenas.take(),
                |arena, seed| [f64::from(driver.run(arena, seed, &mut ()).cycles)],
            )[0]
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
        aggregates.extend(seen.agg.map(|agg| {
            AggEntry::new(
                format!("push n={n}"),
                &[
                    ("n", n.to_string()),
                    ("trials", ctx.trials.to_string()),
                    ("direction", "push".to_string()),
                ],
                &[("cycles_mean", push), ("predicted_log2_ln", predicted)],
                agg,
            )
        }));
    }
    let table = FigTable::new(
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
    );
    Output::figure(ctx, vec![table], aggregates)
}

/// §3 line-traffic scaling `T(n)` for `d^-a`: exact expectation per regime.
pub(crate) fn line_traffic_table() -> FigTable {
    let sizes = [100usize, 200, 400, 800, 1600, 3200];
    let exps = [0.0, 1.0, 1.5, 2.0, 3.0];
    let rows = sizes
        .iter()
        .map(|&n| {
            let mut row = vec![n.to_string()];
            for &a in &exps {
                row.push(fmt(mean_line_traffic(n, a)));
            }
            row
        })
        .collect();
    FigTable::new(
        "Fig: T(n), expected traffic/link on a line for p ~ d^-a (O(n), n/log n, n^(2-a), log n, O(1))",
        &["n", "a=0 (uniform)", "a=1", "a=1.5", "a=2", "a=3"],
        rows,
    )
}

/// Figure 1 pathology: failure probability of push and pull rumor
/// mongering between the s–t pair under `Q_s(d)^-2`, per `k`.
pub(crate) fn figure1_table(ctx: &Ctx<'_>) -> FigTable {
    let topo = topologies::figure1(30);
    let s = topo.node_by_label("s").expect("site s exists");
    let routes = Routes::compute(&topo);
    let qs2 = PartnerSampler::new(&topo, &routes, Spatial::QsPower { a: 2.0 });
    let uniform = PartnerSampler::new(&topo, &routes, Spatial::Uniform);
    let arenas = Arenas::default();
    let rows = (1..=6u32)
        .map(|k| {
            let fails = |sampler: &PartnerSampler, direction| {
                let cfg = RumorConfig::new(direction, Feedback::Feedback, Removal::Counter { k });
                let sim = SpatialSim::with_selection(&topo, sampler)
                    .rumor(cfg)
                    .origin(s);
                failure_probability(ctx.runner, &arenas, &sim, ctx.trials)
            };
            vec![
                k.to_string(),
                fmt(fails(&qs2, Direction::Push)),
                fmt(fails(&qs2, Direction::Pull)),
                fmt(fails(&uniform, Direction::Push)),
            ]
        })
        .collect();
    FigTable::new(
        "Fig 1: failure probability on the s-t pathology (m=30, Qs^-2), update injected at s",
        &["k", "push Qs^-2", "pull Qs^-2", "push uniform"],
        rows,
    )
}

/// Figure 2 pathology: probability that the distant site `s` misses a
/// push rumor injected inside the binary tree.
pub(crate) fn figure2_table(ctx: &Ctx<'_>) -> FigTable {
    let topo = topologies::figure2(5, 7); // 31 tree sites + distant s
    let root = topo.node_by_label("t0").expect("root exists");
    let s = topo.node_by_label("s").expect("site s exists");
    // A run's receive log is indexed by position in the site list.
    let s_at = topo.sites().binary_search(&s).expect("site s exists");
    let routes = Routes::compute(&topo);
    let qs2 = PartnerSampler::new(&topo, &routes, Spatial::QsPower { a: 2.0 });
    let arenas = Arenas::default();
    let rows = (1..=6u32)
        .map(|k| {
            let cfg = RumorConfig::new(Direction::Push, Feedback::Feedback, Removal::Counter { k });
            let sim = SpatialSim::with_selection(&topo, &qs2)
                .rumor(cfg)
                .origin(root);
            let [missed_s] = ctx.mean(
                || arenas.take(),
                |arena, t| {
                    sim.run(arena, t + 17, &mut ());
                    [f64::from(u8::from(!arena.received().is_marked(s_at)))]
                },
            );
            let any = failure_probability(ctx.runner, &arenas, &sim, ctx.trials);
            vec![k.to_string(), fmt(missed_s), fmt(any)]
        })
        .collect();
    FigTable::new(
        "Fig 2: binary tree + distant site s (push, Qs^-2), update injected at the root",
        &["k", "P(distant s missed)", "P(any failure)"],
        rows,
    )
}

/// §2 death certificates: the equal-space law, the resurrection failure
/// and the dormant-certificate immune response (two tables).
pub(crate) fn death_certificates_tables() -> Vec<FigTable> {
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

    let dormant = bundled::by_name("dormant-death").expect("bundled");
    let run = |spec, seed| {
        ScenarioEngine::new(spec)
            .expect("bundled spec is valid")
            .run(&mut ScenarioArena::new(), seed, &mut ())
    };
    // Naive deletion: no certificate survives τ₁ (retention 0), so the
    // site that slept through the deletion brings the item back.
    let mut naive = dormant.clone();
    for event in &mut naive.events {
        if let FaultKind::Delete { retention, .. } = &mut event.kind {
            *retention = 0;
        }
    }
    let resurrected = !run(naive, 3).cancelled;
    let report = run(dormant, 11);
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
                    report.awakened, report.cancelled
                ),
            ],
        ],
    );
    vec![equal_space, semantics]
}

/// §3.2: push-pull rumor mongering on the CIN with a spatial distribution —
/// find the minimal `k` giving 100% distribution in each of `ctx.trials`
/// runs, then measure its traffic and convergence over twice as many
/// (the paper found them "nearly identical to Table 4").
pub(crate) fn spatial_rumor_table(ctx: &Ctx<'_>) -> FigTable {
    let net = cin(&CinConfig::default());
    spatial_rumor_on(
        ctx,
        &net,
        &[
            ("uniform".to_string(), Spatial::Uniform),
            ("a = 1.2".to_string(), Spatial::QsPower { a: 1.2 }),
            ("a = 2.0".to_string(), Spatial::QsPower { a: 2.0 }),
        ],
        40,
        2 * ctx.trials,
    )
}

/// As `spatial_rumor_table` but on a caller-provided CIN, distribution
/// list, `k` bound and measuring-run count (golden tests pin one cell of
/// this on a small network).
pub fn spatial_rumor_on(
    ctx: &Ctx<'_>,
    net: &topologies::Cin,
    distributions: &[(String, Spatial)],
    max_k: u32,
    measure_runs: u64,
) -> FigTable {
    let base = RumorConfig::new(
        Direction::PushPull,
        Feedback::Feedback,
        Removal::Counter { k: 1 },
    );
    let search_trials = u32::try_from(ctx.trials).expect("search trials fit u32");
    let measure = Ctx {
        trials: measure_runs,
        ..*ctx
    };
    let routes = Routes::compute(&net.topology);
    let (arenas, counters) = (Arenas::default(), Arenas::<[LinkTraffic; 2]>::default());
    let mut rows = Vec::new();
    for (label, spatial) in distributions.iter().cloned() {
        let sampler = PartnerSampler::new(&net.topology, &routes, spatial);
        let min_k = minimum_k(
            ctx.runner,
            &arenas,
            &net.topology,
            &sampler,
            base,
            search_trials,
            max_k,
        );
        let Some(k) = min_k else {
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
        let sim = SpatialSim::with_selection(&net.topology, &sampler).rumor(cfg);
        let [t_last, cmp_avg, cmp_bushey, upd_avg] = measure.mean(
            || (arenas.take(), counters.take()),
            |(arena, counters), seed| {
                let mut charge = RouteCharge::new(&net.topology, &routes, 0, counters);
                let r = sim.run(arena, seed + 1000, &mut charge);
                let cycles = f64::from(r.cycles.max(1));
                [
                    r.t_last,
                    charge.compare.mean_per_link() / cycles,
                    charge.compare.at(net.bushey_link) as f64 / cycles,
                    charge.update.mean_per_link(),
                ]
            },
        );
        rows.push(vec![
            label,
            k.to_string(),
            fmt(t_last),
            fmt(cmp_avg),
            fmt(cmp_bushey),
            fmt(upd_avg),
        ]);
    }
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

/// Ablation: Table 3's counter-reset-on-useful-contact rule versus
/// monotone counters (pull, feedback, counter).
pub(crate) fn counter_reset_table(ctx: &Ctx<'_>) -> FigTable {
    let arenas = Arenas::default();
    let rows = [true, false]
        .iter()
        .map(|&reset| {
            let mut row = vec![if reset {
                "reset (footnote)"
            } else {
                "monotone"
            }
            .to_string()];
            mixing_sweep(
                ctx,
                &arenas,
                Sinks::Off,
                &[1, 2, 3],
                |k| {
                    RumorConfig::new(Direction::Pull, Feedback::Feedback, Removal::Counter { k })
                        .with_reset_on_useful(reset)
                },
                |(_, [residue, traffic, ..]), _| row.extend([fmt(residue), fmt(traffic)]),
            );
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
pub(crate) fn hunting_table(ctx: &Ctx<'_>) -> FigTable {
    let arenas = Arenas::<MixingArena>::default();
    let rows = [0u32, 1, 4, 16, u32::MAX]
        .iter()
        .map(|&hunt| {
            let driver = SpatialSim::mixing(
                ctx.n,
                RumorConfig::new(
                    Direction::Push,
                    Feedback::Feedback,
                    Removal::Counter { k: 2 },
                ),
            )
            .connection_limit(Some(1))
            .hunt_limit(hunt.min(1_000));
            let means = ctx.mean(
                || arenas.take(),
                |arena, seed| {
                    let r = driver.run(arena, seed ^ 0x5EED, &mut ());
                    [r.residue, r.traffic]
                },
            );
            let label = if hunt == u32::MAX {
                "~inf".into()
            } else {
                hunt.to_string()
            };
            labelled(label, means)
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
pub(crate) fn comparison_table() -> FigTable {
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
pub(crate) fn redistribution_table(ctx: &Ctx<'_>) -> FigTable {
    use epidemic_core::{MailConfig, Redistribution};
    let mut spec = bundled::by_name("clearinghouse").expect("bundled");
    spec.sites = 40;
    spec.protocol.mail = Some(MailConfig {
        loss_probability: 0.3,
        queue_capacity: 200,
    });
    spec.protocol.rumor = Some(RumorConfig::new(
        Direction::Push,
        Feedback::Feedback,
        Removal::Counter { k: 2 },
    ));
    spec.workload.budget = Some(15);
    spec.max_cycles = 3_000;
    let arenas = Arenas::<ScenarioArena>::default();
    let rows = [
        ("none (conservative)", Redistribution::None),
        ("rumor", Redistribution::Rumor),
        ("re-mail (original CH)", Redistribution::Mail),
    ]
    .iter()
    .map(|&(label, redistribution)| {
        let mut spec = spec.clone();
        spec.protocol.anti_entropy = Some(AntiEntropySpec {
            every: 8,
            redistribution,
            ..AntiEntropySpec::every_cycle(Comparison::Full)
        });
        let engine = ScenarioEngine::new(spec).expect("clearinghouse spec is valid");
        let means = ctx.mean(
            || arenas.take(),
            |arena, seed| {
                let r = engine.run(arena, seed, &mut ());
                let mail = r.mail.expect("the spec mails");
                [
                    r.converged_at.map_or(3_000.0, f64::from),
                    mail.delivered as f64,
                    r.ae_sent as f64,
                ]
            },
        );
        labelled(label, means)
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

/// `count / over`, and 0 when there is nothing to divide by.
fn ratio(count: f64, over: f64) -> f64 {
    if over == 0.0 {
        0.0
    } else {
        count / over
    }
}

/// `spec` running push-pull anti-entropy every cycle under `comparison`.
fn anti_entropy(mut spec: Scenario, comparison: Comparison) -> ScenarioEngine {
    spec.protocol.anti_entropy = Some(AntiEntropySpec::every_cycle(comparison));
    ScenarioEngine::new(spec).expect("a steady spec is valid")
}

/// §1.3 checksum-window experiment: full-comparison rate and traffic as a
/// function of the recent-update-list window `τ` under a steady update
/// rate. The paper: choose `τ` below the distribution time and "checksum
/// comparisons will usually fail".
pub(crate) fn checksum_window_table() -> FigTable {
    let (spec, mut arena) = (bundled::steady(60, 1.0, [30, 100, 0]), ScenarioArena::new());
    let mut row = |label: String, comparison| {
        let r = anti_entropy(spec.clone(), comparison).run(&mut arena, 11, &mut ());
        let per_exchange = |count: u64| ratio(count as f64, r.totals.contacts as f64);
        let full_compare_rate = match comparison {
            Comparison::Full => "1.00".into(),
            Comparison::PeelBack => "0".into(),
            _ => fmt(per_exchange(r.full_compares)),
        };
        vec![
            label,
            full_compare_rate,
            fmt(per_exchange(r.totals.sent)),
            fmt(per_exchange(r.scanned)),
        ]
    };
    let mut rows = vec![
        row("full (baseline)".into(), Comparison::Full),
        row("naive checksum".into(), Comparison::Checksum),
    ];
    // Windows in cycles, labelled in ticks.
    for tau in [1u64, 2, 3, 4, 5, 10, 20, 40] {
        rows.push(row(
            format!("recent list τ={}", tau * 10),
            Comparison::RecentList { tau },
        ));
    }
    rows.push(row("peel back".into(), Comparison::PeelBack));
    FigTable::new(
        "§1.3: checksum window — 60 sites, 1 update/cycle (10 ticks/cycle), distribution time ≈ 100 ticks",
        &["strategy", "full-compare rate", "entries/exchange", "scanned/exchange"],
        rows,
    )
}

/// Ablation of the synchronous-cycle assumption: the Table 4 experiment
/// re-run on the event-driven simulator with per-site jittered timers.
pub(crate) fn async_ablation_table(ctx: &Ctx<'_>) -> FigTable {
    use epidemic_sim::event::AsyncSpatialSim;
    let net = cin(&CinConfig::default());
    let (topo, routes) = (&net.topology, Routes::compute(&net.topology));
    let arenas = Charged::default();
    let mut rows = Vec::new();
    for (label, spatial) in [
        ("uniform".to_string(), Spatial::Uniform),
        ("a = 2.0".to_string(), Spatial::QsPower { a: 2.0 }),
    ] {
        let sync = SpatialSim::new(topo, &routes, spatial);
        let asynchronous = AsyncSpatialSim::new(topo, &routes, spatial, 0.3);
        let means = ctx.mean(
            || arenas.take(),
            |state, seed| {
                let (arena, counters) = &mut **state;
                let mut charge = RouteCharge::new(topo, &routes, 0, counters);
                let s = sync.run(arena, seed + 71, &mut charge);
                let sync_cmp = charge.compare.mean_per_link() / f64::from(s.cycles.max(1));
                let mut charge = RouteCharge::new(topo, &routes, 0, counters);
                let a = asynchronous.run(arena, seed + 71, None, &mut charge);
                let async_cmp = charge.compare.mean_per_link() / a.t_last.max(1.0);
                [s.t_last, a.t_last, sync_cmp, async_cmp]
            },
        );
        rows.push(labelled(label, means));
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

/// Trial arenas, each beside the link counters its trials' charges fill.
type Charged = Arenas<(MixingArena, [LinkTraffic; 2])>;

/// Mean `t_last` of `sim`'s runs on `net` (along `routes`) at seeds
/// `offset..`, with the mean compare conversations per link per cycle, and
/// on the Bushey link per cycle.
fn convergence_and_load<S: PartnerSelection + Sync>(
    ctx: &Ctx<'_>,
    arenas: &Charged,
    sim: &SpatialSim<'_, S>,
    (net, routes): (&Cin, &Routes),
    offset: u64,
) -> [f64; 3] {
    ctx.mean(
        || arenas.take(),
        |state, seed| {
            let (arena, counters) = &mut **state;
            let mut charge = RouteCharge::new(&net.topology, routes, 0, counters);
            let r = sim.run(arena, seed + offset, &mut charge);
            let cycles = f64::from(r.cycles.max(1));
            let compare = &charge.compare;
            let bushey = compare.at(net.bushey_link) as f64;
            [r.t_last, compare.mean_per_link() / cycles, bushey / cycles]
        },
    )
}

/// §4 future work: the dynamic hierarchy against flat spatial selection on
/// the CIN — convergence, average traffic and the Bushey hot spot.
pub(crate) fn hierarchy_table(ctx: &Ctx<'_>) -> FigTable {
    use epidemic_net::HierarchicalSampler;
    let net = cin(&CinConfig::default());
    let routes = Routes::compute(&net.topology);
    let arenas = Charged::default();
    let mut rows = Vec::new();
    for (label, spatial) in [
        ("uniform".to_string(), Spatial::Uniform),
        ("flat a = 2.0".to_string(), Spatial::QsPower { a: 2.0 }),
    ] {
        let sim = SpatialSim::new(&net.topology, &routes, spatial);
        let means = convergence_and_load(ctx, &arenas, &sim, (&net, &routes), 13);
        rows.push(labelled(label, means));
    }
    for (reps, long_range) in [(8usize, 0.3f64), (16, 0.3), (16, 0.6)] {
        let sampler = HierarchicalSampler::new(
            &net.topology,
            &routes,
            reps,
            long_range,
            Spatial::QsPower { a: 2.0 },
        );
        let sim = SpatialSim::with_selection(&net.topology, sampler);
        let means = convergence_and_load(ctx, &arenas, &sim, (&net, &routes), 13);
        rows.push(labelled(
            format!("hierarchy r={reps} p={long_range}"),
            means,
        ));
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
pub(crate) fn sir_curve_table(ctx: &Ctx<'_>) -> FigTable {
    let k = 2;
    let cfg = RumorConfig::new(Direction::Push, Feedback::Feedback, Removal::Coin { k });
    let driver = SpatialSim::mixing(ctx.n, cfg);
    // Average the infective fraction observed at (just below) each sampled
    // susceptible level across trials.
    let samples = [0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1];
    let sums = ctx.runner.fold_with(
        ctx.trials,
        0,
        || (MixingArena::new(), SirObserver::new()),
        |(arena, sir), seed| {
            sir.points.clear();
            driver.run(arena, seed ^ 0xC0FFEE, sir);
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
    let rows = samples
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
                format!("{}/{}", sums.1[idx], ctx.trials),
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
pub(crate) fn cin_steady_table(ctx: &Ctx<'_>) -> FigTable {
    const WARMUP: u32 = 20;
    let net = cin(&CinConfig::default());
    let topo = &net.topology;
    let (sites, routes) = (topo.sites(), Routes::compute(topo));
    let spec = bundled::steady(sites.len(), 2.0, [WARMUP, 60, 0]);
    let engine = anti_entropy(spec, Comparison::RecentList { tau: 40 });
    let arenas = Arenas::<(ScenarioArena, [LinkTraffic; 2])>::default();
    let mut rows = Vec::new();
    for (label, spatial) in [
        ("uniform".to_string(), Spatial::Uniform),
        ("a = 1.2".to_string(), Spatial::QsPower { a: 1.2 }),
        ("a = 2.0".to_string(), Spatial::QsPower { a: 2.0 }),
    ] {
        let sampler = PartnerSampler::new(topo, &routes, spatial);
        let means = ctx.mean(
            || arenas.take(),
            |state, seed| {
                let (arena, counters) = &mut **state;
                let charge = &mut RouteCharge::new(topo, &routes, WARMUP, counters);
                let r = engine.run_with_policy(arena, seed + 31, &sampler, Some(sites), charge);
                let per_cycle = |count: f64| ratio(count, f64::from(r.cycles - WARMUP));
                let (compare, update) = (&charge.compare, &charge.update);
                [
                    per_cycle(compare.mean_per_link()),
                    per_cycle(update.mean_per_link()),
                    update.at(net.bushey_link) as f64 / f64::from(r.cycles - WARMUP),
                    ratio(r.full_compares as f64, r.totals.contacts as f64),
                ]
            },
        );
        rows.push(labelled(label, means));
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
pub(crate) fn weighted_cin_table(ctx: &Ctx<'_>) -> FigTable {
    let arenas = Charged::default();
    let mut rows = Vec::new();
    for cost in [1u32, 3, 6] {
        let net = cin(&CinConfig {
            transatlantic_cost: cost,
            ..CinConfig::default()
        });
        let routes = Routes::compute(&net.topology);
        let sim = SpatialSim::new(&net.topology, &routes, Spatial::QsPower { a: 2.0 });
        let means = convergence_and_load(ctx, &arenas, &sim, (&net, &routes), 47);
        rows.push(labelled(cost.to_string(), means));
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
pub(crate) fn dc_scaling_table(ctx: &Ctx<'_>) -> FigTable {
    let taus = [8u32, 10, 12, 14];
    let arenas = Arenas::<MixingArena>::default();
    let rows = [64usize, 256, 1024, 4096]
        .iter()
        .map(|&n| {
            let driver = SpatialSim::anti_entropy(n, Direction::PushPull);
            let cover_times: Vec<f64> = ctx.runner.fold_with(
                ctx.trials,
                0,
                || arenas.take(),
                |arena, seed| f64::from(driver.run(arena, seed ^ 0xDC, &mut ()).cycles),
                Vec::new(),
                |mut v, x| {
                    v.push(x);
                    v
                },
            );
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
pub(crate) fn churn_table(ctx: &Ctx<'_>) -> FigTable {
    let net = cin(&CinConfig::default());
    let sites = net.topology.sites();
    let routes = Routes::compute(&net.topology);
    let sampler = PartnerSampler::new(&net.topology, &routes, Spatial::QsPower { a: 2.0 });
    let arenas = Arenas::<ScenarioArena>::default();
    let mut rows = Vec::new();
    for (label, fail, recover) in [
        ("0% down", 0.0, 1.0),
        ("~10% down", 0.02, 0.18),
        ("~25% down", 0.05, 0.15),
        ("~50% down", 0.10, 0.10),
    ] {
        let spec = bundled::churn(sites.len(), fail, recover);
        let engine = ScenarioEngine::new(spec).expect("churn spec is valid");
        let means = ctx.mean(
            || arenas.take(),
            |arena, seed| {
                let r = engine.run_with_policy(arena, seed + 91, &sampler, Some(sites), &mut ());
                [
                    r.down_fraction,
                    f64::from(r.cycles),
                    f64::from(u8::from(r.residue == 0.0)),
                ]
            },
        );
        rows.push(labelled(label, means));
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
pub(crate) fn topology_robustness_table(ctx: &Ctx<'_>) -> FigTable {
    use epidemic_net::topologies::{binary_tree, grid, line, random_connected, ring, waxman};
    let topos: Vec<(&str, Topology)> = vec![
        ("line(64)", line(64)),
        ("ring(64)", ring(64)),
        ("grid(8x8)", grid(&[8, 8])),
        ("tree(depth 6)", binary_tree(6)),
        ("ER(64, p=.05)", random_connected(64, 0.05, 5)),
        ("waxman(64)", waxman(64, 0.9, 0.15, 5)),
    ];
    let arenas = Charged::default();
    let mut rows = Vec::new();
    for (label, topo) in &topos {
        let mut cells = vec![label.to_string()];
        let routes = Routes::compute(topo);
        for spatial in [Spatial::Uniform, Spatial::QsPower { a: 2.0 }] {
            let sim = SpatialSim::new(topo, &routes, spatial);
            let means = ctx.mean(
                || arenas.take(),
                |state, seed| {
                    let (arena, counters) = &mut **state;
                    let mut charge = RouteCharge::new(topo, &routes, 0, counters);
                    let r = sim.run(arena, seed + 3, &mut charge);
                    let cycles = f64::from(r.cycles.max(1));
                    let hottest = charge.compare.hottest();
                    [r.t_last, hottest.map_or(0.0, |(_, c)| c as f64 / cycles)]
                },
            );
            cells.extend(means.map(fmt));
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
pub(crate) fn pull_vs_push_rate_table(ctx: &Ctx<'_>) -> FigTable {
    let arenas = Arenas::<ScenarioArena>::default();
    let mut rows = Vec::new();
    for rate in [0.0f64, 0.25, 1.0, 4.0] {
        let mut spec = bundled::steady(200, rate, [0, 100, 200]);
        for (label, direction) in [("push", Direction::Push), ("pull", Direction::Pull)] {
            let cfg = RumorConfig::new(direction, Feedback::Feedback, Removal::Counter { k: 2 });
            spec.protocol.rumor = Some(cfg);
            let engine = ScenarioEngine::new(spec).expect("a steady spec is valid");
            let means = ctx.mean(
                || arenas.take(),
                |arena, seed| {
                    let r = engine.run(arena, seed + 5, &mut ());
                    let per_cycle = |count: u64| ratio(count as f64, f64::from(r.cycles));
                    [
                        r.coverage,
                        ratio(r.totals.sent as f64, r.totals.useful as f64),
                        per_cycle(r.totals.fruitless),
                        per_cycle(r.totals.contacts),
                    ]
                },
            );
            rows.push(labelled(format!("{rate} upd/cycle, {label}"), means));
            spec = engine.into_spec();
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
/// caller of the megascale sweep gets the default cap instead.
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
/// delta around `run`, pushing one rendered row and — when observed — one
/// [`AggEntry`].
fn megascale_point(
    n: usize,
    topology: &str,
    rows: &mut Vec<Vec<String>>,
    aggregates: &mut Vec<AggEntry>,
    run: impl FnOnce() -> (epidemic_sim::EpidemicResult, Seen),
) {
    let allocs_before = crate::alloc_counter::allocations();
    let rss_before = crate::rss::peak_rss_kb();
    let start = std::time::Instant::now();
    let (r, seen) = run();
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
    aggregates.extend(seen.agg.map(|agg| {
        AggEntry::new(
            format!("n={n} {topology}"),
            &[("n", n.to_string()), ("topology", topology.to_string())],
            &[
                ("residue", r.residue),
                ("t_last", r.t_last),
                ("traffic", r.traffic),
                ("cycles", f64::from(r.cycles)),
            ],
            agg,
        )
    }));
}

/// Fig-megascale: the paper's workhorse rumor variant (push, feedback,
/// coin `k=4`) at 10⁴–10⁷ sites (capped by [`MEGASCALE_MAX_N_ENV`]), on
/// uniform complete mixing and on a Barabási–Albert scale-free contact
/// graph (`m = 2`): [`epidemic_sim::MegascaleSim`], the Tables 1–3 push
/// arm on the active-set contact loop with counter RNG and two bits per
/// site — what makes 10⁶ cheap and 10⁷ feasible at all.
///
/// One row per `(n, topology)` point, and when observed one [`AggEntry`]
/// from a streaming aggregate — bounded memory even at n = 10⁷. The cost
/// columns are volatile: present in the rendered text, dropped from the
/// JSON artifact so `--trace`/`--json` output stays byte-reproducible.
/// Allocations need the `count-allocs` build ("n/a" otherwise); the RSS
/// column is the per-point delta of the process high-water mark — how far
/// this row pushed the peak, 0 if it fit inside an earlier row's
/// footprint (see [`crate::rss`]).
pub(crate) fn megascale(ctx: &Ctx<'_>) -> Output {
    use epidemic_net::DegreeGraph;
    use epidemic_sim::MegascaleSim;

    let max_n = megascale_max_n_override()
        .ok()
        .flatten()
        .unwrap_or(MEGASCALE_DEFAULT_MAX_N);
    let sinks = ctx.sinks(Sinks::Aggregate);
    let mut rows = Vec::new();
    let mut aggregates = Vec::new();
    for n in [10_000usize, 100_000, 1_000_000, 10_000_000] {
        if n > max_n {
            continue;
        }
        let seed = 1987 ^ n as u64;
        megascale_point(n, "uniform", &mut rows, &mut aggregates, || {
            observed!(sinks, ctx.tracer(), |observer| MegascaleSim::uniform(n)
                .run(seed, observer))
        });
        let graph = DegreeGraph::scale_free(n, 2, 1987);
        megascale_point(n, "scale-free m=2", &mut rows, &mut aggregates, || {
            observed!(sinks, ctx.tracer(), |observer| MegascaleSim::scale_free(
                &graph
            )
            .run(seed, observer))
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
    Output::figure(ctx, vec![table], aggregates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::run_small;

    /// The first table of the registry row `name` at reduced scale.
    fn table(name: &str, n: usize, trials: u64) -> FigTable {
        run_small(name, n, trials, false).tables.swap_remove(0)
    }

    #[test]
    fn rumor_ode_rows_track_theory() {
        let rows = table("fig-rumor-ode", 300, 20).rows;
        assert_eq!(rows.len(), 8);
        // Column 1 is the ODE residue for k=1 ≈ 0.2.
        let ode_k1: f64 = rows[0][1].parse().unwrap();
        assert!((ode_k1 - 0.2032).abs() < 0.01);
    }

    #[test]
    fn ae_convergence_rows_are_ordered() {
        let rows = table("fig-ae-convergence", 0, 5).rows;
        // Cover time grows with n for push.
        let push: Vec<f64> = rows.iter().map(|r| r[1].parse().unwrap()).collect();
        assert!(push.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn line_traffic_rows_have_expected_shape() {
        let rows = line_traffic_table().rows;
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
        let rows = table("fig1-pathology", 0, 60).rows;
        let k1: f64 = rows[0][1].parse().unwrap();
        let k6: f64 = rows[5][1].parse().unwrap();
        assert!(k6 <= k1);
    }
}
