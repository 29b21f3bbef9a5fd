//! Property tests for the `.scenario` grammar: `parse(render(spec))`
//! equals the original spec for arbitrary valid specs (floats included —
//! Rust's shortest-representation `Display` round-trips exactly), the
//! parser never panics on arbitrary input, malformed input reports the
//! offending line, and any workload rate either fails validation or,
//! under an operation budget, runs.

use epidemic_core::rumor::{Feedback, Removal, RumorConfig};
use epidemic_core::{Comparison, Direction, MailConfig, Redistribution};
use epidemic_sim::scenario::{
    AntiEntropySpec, FaultEvent, FaultKind, Scenario, ScenarioArena, ScenarioEngine, SiteSet,
    SpatialSpec, StopRule, TopologySpec, Workload, WorkloadMix,
};
use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;

/// `Option`-valued strategy (the vendored proptest has no `option::of`).
fn opt<S>(strategy: S) -> BoxedStrategy<Option<S::Value>>
where
    S: Strategy + 'static,
    S::Value: Clone + 'static,
{
    prop_oneof![Just(None), strategy.prop_map(Some)].boxed()
}

/// Probabilities drawn from a hundredth grid: representative decimals
/// whose `Display` output (`0.07`, `1`, …) must re-parse to identical
/// bits.
fn prob() -> impl Strategy<Value = f64> {
    (0u32..=100).prop_map(|p| f64::from(p) / 100.0)
}

fn spatial() -> impl Strategy<Value = SpatialSpec> {
    prop_oneof![
        Just(SpatialSpec::Uniform),
        (1u32..=40).prop_map(|a| SpatialSpec::QsPower {
            a: f64::from(a) / 10.0
        }),
    ]
}

/// Topology together with a consistent site count (grid dims must cover
/// the sites exactly; rings need at least three).
fn topology_and_sites() -> impl Strategy<Value = (TopologySpec, usize)> {
    prop_oneof![
        (2usize..=64).prop_map(|n| (TopologySpec::Uniform, n)),
        (1usize..=6, 2usize..=6, spatial()).prop_map(|(rows, cols, spatial)| {
            (
                TopologySpec::Grid {
                    rows,
                    cols,
                    spatial,
                },
                rows * cols,
            )
        }),
        (3usize..=32, spatial()).prop_map(|(n, spatial)| (TopologySpec::Ring { spatial }, n)),
    ]
}

fn rumor_config() -> impl Strategy<Value = RumorConfig> {
    (
        0u8..3,
        any::<bool>(),
        (1u32..=6, any::<bool>()),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(
            |(direction, feedback, (k, coin), reset_on_useful, minimization)| RumorConfig {
                direction: match direction {
                    0 => Direction::Push,
                    1 => Direction::Pull,
                    _ => Direction::PushPull,
                },
                feedback: if feedback {
                    Feedback::Feedback
                } else {
                    Feedback::Blind
                },
                removal: if coin {
                    Removal::Coin { k }
                } else {
                    Removal::Counter { k }
                },
                reset_on_useful,
                // §1.4 minimizes counters; `minimize` under coins is refused.
                minimization: minimization && !coin,
            },
        )
}

fn site_set(n: usize) -> BoxedStrategy<SiteSet> {
    prop_oneof![
        (0..n).prop_map(SiteSet::Site),
        (0..n).prop_flat_map(move |from| {
            (0..=n - from).prop_map(move |count| SiteSet::Span { from, count })
        }),
        (0..=n).prop_map(SiteSet::Last),
        prob().prop_map(SiteSet::Fraction),
        Just(SiteSet::All),
    ]
    .boxed()
}

fn fault_kind(n: usize) -> BoxedStrategy<FaultKind> {
    let retention = u32::try_from(n - 1).expect("site count fits u32");
    prop_oneof![
        (opt(0..n), 1u32..=20).prop_map(|(site, count)| FaultKind::Update { site, count }),
        (0..n, 0u32..=30, 0..=retention).prop_map(|(site, key, retention)| FaultKind::Delete {
            site,
            key,
            retention
        }),
        site_set(n).prop_map(FaultKind::Crash),
        site_set(n).prop_map(FaultKind::Recover),
        (prob(), prob()).prop_map(|(fail, recover)| FaultKind::Churn { fail, recover }),
        Just(FaultKind::ChurnStop),
        (2..=n).prop_map(FaultKind::Partition),
        Just(FaultKind::Heal),
        prob().prop_map(FaultKind::Loss),
        Just(FaultKind::LossEnd),
        (0u64..=1_000, 0u64..=100_000).prop_map(|(tau1, tau2)| FaultKind::Gc { tau1, tau2 }),
        (0..n, 0u64..=500).prop_map(|(site, offset)| FaultKind::Skew { site, offset }),
    ]
    .boxed()
}

fn anti_entropy() -> impl Strategy<Value = AntiEntropySpec> {
    let comparison = prop_oneof![
        Just(Comparison::Full),
        Just(Comparison::Checksum),
        (0u64..=100).prop_map(|tau| Comparison::RecentList { tau }),
        Just(Comparison::PeelBack),
    ];
    (1u32..=10, 0u32..=50, 0u8..3, comparison).prop_map(|(every, from, r, comparison)| {
        AntiEntropySpec {
            comparison,
            every,
            from,
            redistribution: match r {
                0 => Redistribution::None,
                1 => Redistribution::Rumor,
                _ => Redistribution::Mail,
            },
        }
    })
}

fn mail() -> impl Strategy<Value = MailConfig> {
    (prob(), 1usize..=500).prop_map(|(loss_probability, queue_capacity)| MailConfig {
        loss_probability,
        queue_capacity,
    })
}

fn workload(sites: usize) -> impl Strategy<Value = Workload> {
    let max_retention = u32::try_from(sites - 1).expect("site count fits u32");
    (
        0u32..=50,
        opt(1u64..=200),
        0..=max_retention,
        (1u32..=10, 0u32..=10, 0u32..=10),
    )
        .prop_map(
            |(rate, budget, retention, (update, delete, read))| Workload {
                rate: f64::from(rate) / 10.0,
                budget,
                retention,
                mix: WorkloadMix {
                    update,
                    delete,
                    read,
                },
            },
        )
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (topology_and_sites(), "[a-z][a-z0-9-]{0,15}").prop_flat_map(|((topology, sites), name)| {
        let events = prop::collection::vec(
            (0u32..=200, fault_kind(sites)).prop_map(|(cycle, kind)| FaultEvent { cycle, kind }),
            0..6,
        );
        let contact = prop_oneof![
            Just((None, None)),
            rumor_config().prop_map(|cfg| (Some(cfg), None)),
            (1usize..=8).prop_map(|batch| (None, Some(batch))),
        ];
        (
            events,
            contact,
            (opt(anti_entropy()), opt(mail())),
            workload(sites),
            0u8..5,
            (1u32..=100_000, 0u32..=300),
        )
            .prop_map(
                move |(events, (rumor, peel_back), (mut ae, mail), workload, until, cycles)| {
                    let mut spec = Scenario::new(name.clone(), sites);
                    spec.topology = topology;
                    // Repair the handful of cross-field rules validate()
                    // enforces, so every generated spec is valid.
                    if let Some(ae) = &mut ae {
                        if ae.redistribution == Redistribution::Mail && mail.is_none() {
                            ae.redistribution = Redistribution::None;
                        }
                        if ae.redistribution != Redistribution::None {
                            ae.comparison = Comparison::Full;
                        }
                    }
                    spec.protocol.anti_entropy = ae;
                    spec.protocol.rumor = rumor;
                    spec.protocol.peel_back = peel_back;
                    spec.protocol.mail = mail;
                    spec.workload = workload;
                    spec.events = events;
                    let has_delete = workload.mix.delete > 0
                        || spec
                            .events
                            .iter()
                            .any(|e| matches!(e.kind, FaultKind::Delete { .. }));
                    spec.until = match until {
                        0 => StopRule::Converged,
                        1 => StopRule::Coverage,
                        2 if rumor.is_some() => StopRule::Quiescent,
                        3 if has_delete => StopRule::Cancelled,
                        _ => StopRule::Bound,
                    };
                    (spec.max_cycles, spec.warmup) = (cycles.0, cycles.1.min(cycles.0));
                    spec
                },
            )
    })
}

proptest! {
    /// The tentpole grammar property: rendering is the exact inverse of
    /// parsing for every valid spec.
    #[test]
    fn parse_render_round_trips(spec in scenario()) {
        prop_assert!(spec.validate().is_ok(), "generator produced invalid spec");
        let rendered = spec.render();
        let reparsed = Scenario::parse(&rendered)
            .map_err(|e| proptest::test_runner::TestCaseError::fail(
                format!("{e}\n--- rendered ---\n{rendered}")
            ))?;
        prop_assert_eq!(reparsed, spec);
    }

    /// Any `f64` workload rate either fails validation (negative, not
    /// finite, or more operations a cycle than a `u32` counts) or runs the
    /// spec without a panic to just past its last event, under a budget of
    /// at most 200 operations. Without a budget, a validated rate near
    /// `u32::MAX` would still mint keys until the `u32` key space ran out.
    #[test]
    fn any_rate_validates_or_runs(spec in scenario(), bits in any::<u64>(), seed in any::<u64>()) {
        let mut spec = spec;
        spec.workload.rate = f64::from_bits(bits);
        spec.workload.budget = Some(spec.workload.budget.unwrap_or(200));
        let accepted = (0.0..=f64::from(u32::MAX)).contains(&spec.workload.rate);
        prop_assert_eq!(spec.validate().is_ok(), accepted);
        if accepted {
            let last_event = spec.events.iter().map(|e| e.cycle).max().unwrap_or(0);
            spec.max_cycles = spec.max_cycles.min(last_event + 1);
            spec.warmup = spec.warmup.min(spec.max_cycles);
            ScenarioEngine::new(spec).expect("validated").run(&mut ScenarioArena::new(), seed, &mut ());
        }
    }

    /// The parser is total: arbitrary text yields `Ok` or a structured
    /// error, never a panic.
    #[test]
    fn parser_never_panics(text in "[ -~\n\t]{0,60}") {
        let _ = Scenario::parse(&text);
    }

    /// Corrupting any single line of a canonical rendering either still
    /// parses or reports that very line (header-dependency failures are
    /// whole-file errors, line 0).
    #[test]
    fn errors_carry_the_offending_line(spec in scenario(), garbage in "[a-z]{1,8}") {
        let rendered = spec.render();
        let lines: Vec<&str> = rendered.lines().collect();
        for corrupt_at in 0..lines.len() {
            let mut mutated: Vec<String> = lines.iter().map(|l| (*l).to_string()).collect();
            mutated[corrupt_at] = format!("{garbage}-bogus");
            let text = mutated.join("\n");
            if let Err(e) = Scenario::parse(&text) {
                prop_assert!(
                    e.line == corrupt_at + 1 || e.line == 0,
                    "error line {} for corruption at {} ({e})",
                    e.line,
                    corrupt_at + 1
                );
            }
        }
    }
}

/// A rumor line means what `RumorConfig::new` means — pull resets its
/// counters on a useful contact — and `reset`/`no-reset` override that.
#[test]
fn a_rumor_line_starts_from_the_configs_defaults() {
    let rumor = |line: &str| {
        Scenario::parse(&format!("scenario x\nsites 4\n{line}\n"))
            .unwrap()
            .protocol
            .rumor
            .unwrap()
    };
    let pull = RumorConfig::new(
        Direction::Pull,
        Feedback::Feedback,
        Removal::Counter { k: 2 },
    );
    assert_eq!(rumor("rumor pull feedback counter 2"), pull);
    assert_eq!(
        rumor("rumor pull feedback counter 2 no-reset"),
        pull.with_reset_on_useful(false)
    );
    let push = RumorConfig::new(Direction::Push, Feedback::Blind, Removal::Coin { k: 3 });
    assert_eq!(rumor("rumor push blind coin 3"), push);
    assert_eq!(
        rumor("rumor push blind coin 3 reset"),
        push.with_reset_on_useful(true)
    );
}

// ---------------------------------------------------------------------------
// Deterministic malformed-input cases: exact error surfaces.
// ---------------------------------------------------------------------------

#[test]
fn missing_header_directives_are_whole_file_errors() {
    let e = Scenario::parse("sites 4\n").unwrap_err();
    assert_eq!(e.line, 0);
    assert!(e.message.contains("scenario"), "{e}");

    let e = Scenario::parse("scenario x\n").unwrap_err();
    assert_eq!(e.line, 0);
    assert!(e.message.contains("sites"), "{e}");
}

#[test]
fn unknown_directive_reports_its_line() {
    let e = Scenario::parse("scenario x\nsites 4\nfrobnicate 3\n").unwrap_err();
    assert_eq!(e.line, 3);
    assert!(e.message.contains("frobnicate"), "{e}");
}

#[test]
fn bad_numbers_and_trailing_tokens_are_rejected() {
    let e = Scenario::parse("scenario x\nsites many\n").unwrap_err();
    assert_eq!(e.line, 2);
    assert!(e.message.contains("site count"), "{e}");

    let e = Scenario::parse("scenario x\nsites 4\nuntil bound extra\n").unwrap_err();
    assert_eq!(e.line, 3);
    assert!(e.message.contains("trailing"), "{e}");
}

#[test]
fn validation_failures_surface_after_parsing() {
    // Grid dims that don't cover the site count: syntactically fine,
    // semantically rejected (whole-file error).
    let e = Scenario::parse("scenario x\nsites 5\ntopology grid 2 2 uniform\n").unwrap_err();
    assert_eq!(e.line, 0);
    assert!(e.message.contains("grid"), "{e}");

    // Grid dims whose product wraps around to the site count.
    let e = Scenario::parse("scenario x\nsites 4\ntopology grid 9223372036854775810 2 uniform\n")
        .unwrap_err();
    assert_eq!(e.line, 0);
    assert!(e.message.contains("grid"), "{e}");

    // A crash span whose end overflows.
    let e = Scenario::parse("scenario x\nsites 4\nat 1 crash span 18446744073709551615 2\n")
        .unwrap_err();
    assert_eq!(e.line, 0);
    assert!(e.message.contains("span out of range"), "{e}");

    // Mutually exclusive contact protocols.
    let e = Scenario::parse("scenario x\nsites 4\nrumor push feedback counter 2\npeel-back 3\n")
        .unwrap_err();
    assert_eq!(e.line, 0);
    assert!(e.message.contains("mutually exclusive"), "{e}");

    // Probabilities outside [0, 1].
    let e = Scenario::parse("scenario x\nsites 4\nat 0 loss 1.5\n").unwrap_err();
    assert_eq!(e.line, 0);
    assert!(e.message.contains("probability"), "{e}");

    // Site clocks that would pass u64 (a gc jump past τ₁, or a skew), and
    // per-cycle counts past u32 (1e18 hung the injector: from 2^53 up,
    // `carry - 1.0 == carry`; 5e9 overflowed its count).
    for (line, message) in [
        ("at 26 gc 18446744073709551615 5", "clocks overflow"),
        (
            "at 0 skew site 3 offset 18446744073709551615",
            "clocks overflow",
        ),
        ("workload rate 1e18 budget 20", "4294967295]"),
        ("workload rate 5e9 budget 20", "4294967295]"),
        // 5·10⁶ a cycle over the default 1000 cycles: 5·10⁹ keys.
        ("workload rate 5000000", "key space"),
    ] {
        let e = Scenario::parse(&format!("scenario x\nsites 4\n{line}\n")).unwrap_err();
        assert_eq!(e.line, 0);
        assert!(e.message.contains(message), "{line}: {e}");
    }
    // The largest skew the default 1000-cycle bound leaves room for at 10
    // ticks a cycle.
    let text = "scenario x\nsites 4\nat 0 skew site 3 offset 1844674407370954161\n";
    let spec = Scenario::parse(text).expect("fits u64");
    ScenarioEngine::new(spec)
        .unwrap()
        .run(&mut ScenarioArena::new(), 1, &mut ());
    let text = "scenario x\nsites 4\nat 0 skew site 3 offset 1844674407370954162\n";
    assert!(Scenario::parse(text)
        .unwrap_err()
        .message
        .contains("clocks overflow"));
    // A budget bounds the same rate's keys.
    Scenario::parse("scenario x\nsites 4\nworkload rate 5000000 budget 20\n")
        .expect("a budget bounds the key count");
}

#[test]
fn comparison_and_warmup_errors_are_located() {
    let ae = "anti-entropy every 1 from 0 redistribute";
    for (line, at, message) in [
        (format!("{ae} none comparison"), 3, "expected a comparison"),
        (
            format!("{ae} none comparison fast"),
            3,
            "unknown comparison",
        ),
        (
            format!("{ae} none comparison recent"),
            3,
            "recent-list window",
        ),
        (format!("{ae} none compare full"), 3, "anti-entropy field"),
        ("warmup soon".into(), 3, "warm-up cycles"),
        (
            format!("{ae} rumor comparison checksum"),
            0,
            "full databases",
        ),
        ("warmup 1001".into(), 0, "warmup must not exceed"),
    ] {
        let e = Scenario::parse(&format!("scenario x\nsites 4\n{line}\n")).unwrap_err();
        assert_eq!(e.line, at, "{line}: {e}");
        assert!(e.message.contains(message), "{line}: {e}");
    }
}

/// `fraction 1` selects every site but site 0: a crash and a recover of
/// them run, and the update reaches everyone once they are back.
#[test]
fn whole_fractions_crash_and_recover_all_but_site_zero() {
    for f in ["1", "1.0"] {
        let text = format!(
            "scenario x\nsites 10\nanti-entropy every 1 from 0 redistribute none\n\
             at 0 update site 0\nat 1 crash fraction {f}\nat 3 recover fraction {f}\n\
             until coverage\nmax-cycles 50\n"
        );
        let engine = ScenarioEngine::new(Scenario::parse(&text).expect("a whole fraction"));
        let report = engine.unwrap().run(&mut ScenarioArena::new(), 1, &mut ());
        let down: Vec<usize> = report.milestones.iter().map(|m| m.down).collect();
        assert_eq!((down, report.residue), (vec![0, 0, 9], 0.0));
    }
}

#[test]
fn zero_removal_threshold_is_a_located_error() {
    // Coin `k = 0` would run as `k = 1`; counter `k = 0` would drop every
    // hot rumor at pull's end of cycle, served or not.
    for rule in ["counter", "coin"] {
        let text = format!("scenario x\nsites 4\nrumor pull feedback {rule} 0\n");
        let e = Scenario::parse(&text).unwrap_err();
        assert_eq!(e.line, 3, "{e}");
        assert!(e.message.contains("threshold k must be positive"), "{e}");
    }
}

#[test]
fn minimize_under_coins_is_a_located_error() {
    let text = "scenario x\nsites 4\nrumor push-pull feedback coin 2 minimize\n";
    let e = Scenario::parse(text).unwrap_err();
    assert!(
        e.line == 3 && e.message.contains("`minimize` needs counter"),
        "{e}"
    );
    let mut spec = Scenario::parse(&text.replace("coin", "counter")).expect("counters minimize");
    spec.protocol.rumor.as_mut().expect("a rumor stage").removal = Removal::Coin { k: 2 };
    assert!(spec.validate().unwrap_err().message.contains("`minimize`"));
}

#[test]
fn zero_removal_threshold_fails_validation() {
    let mut spec =
        Scenario::parse("scenario x\nsites 4\nrumor push feedback coin 1\n").expect("k = 1 parses");
    assert!(spec.validate().is_ok());
    for removal in [Removal::Coin { k: 0 }, Removal::Counter { k: 0 }] {
        spec.protocol.rumor.as_mut().expect("a rumor stage").removal = removal;
        let e = spec.validate().unwrap_err();
        assert!(e.message.contains("threshold k must be positive"), "{e}");
    }
}

#[test]
fn comments_and_blank_lines_are_ignored() {
    let spec = Scenario::parse(
        "# header comment\n\nscenario x # trailing comment\nsites 4\n\n# middle\nuntil bound\n",
    )
    .expect("comments parse");
    assert_eq!(spec.name, "x");
    assert_eq!(spec.sites, 4);
    assert_eq!(spec.until, StopRule::Bound);
}
