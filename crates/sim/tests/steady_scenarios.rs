//! The steady-state workloads as scenarios: §1.3's comparison windows,
//! §1.4's push against pull and §3.1's distributions in steady state, run
//! by [`ScenarioEngine`] on [`bundled::steady`] schedules. Each behaviour
//! the paper claims for them is one case of [`steady_behaviours`].
//!
//! In debug builds every run also checks, after every cycle, that the
//! engine's landed-key holder set equals probing each database; the runs
//! here and [`landed_keys_equal_the_probe`] drive that check over every
//! bundled spec, the redistribution variants and the three steady
//! schedules.

use epidemic_core::{Comparison, Direction, Feedback, Redistribution, Removal, RumorConfig};
use epidemic_net::{topologies, LinkTraffic, PartnerSampler, Routes, Spatial, Topology};
use epidemic_sim::engine::RouteCharge;
use epidemic_sim::scenario::{
    bundled, AntiEntropySpec, Scenario, ScenarioArena, ScenarioEngine, ScenarioReport,
};

/// `fig-checksum-window`'s schedule: warm-up, measured and drain cycles.
const WINDOW: [u32; 3] = [30, 100, 0];
/// `fig-cin-steady`'s schedule.
const CIN: [u32; 3] = [20, 60, 0];
/// `fig-pull-vs-push-rate`'s schedule.
const RUMOR: [u32; 3] = [0, 100, 200];
const UNIFORM: Spatial = Spatial::Uniform;
const QS2: Spatial = Spatial::QsPower { a: 2.0 };
/// A recent-list window of 40 cycles (400 ticks).
const RECENT: Comparison = Comparison::RecentList { tau: 40 };

/// `rate` updates a cycle on `schedule` under push-pull anti-entropy.
fn ae(comparison: Comparison, rate: f64, schedule: [u32; 3]) -> Scenario {
    let mut spec = bundled::steady(2, rate, schedule);
    spec.protocol.anti_entropy = Some(AntiEntropySpec::every_cycle(comparison));
    spec
}

/// `rate` updates a cycle on `schedule` under feedback counter rumors.
fn rumor(direction: Direction, k: u32, rate: f64, schedule: [u32; 3]) -> Scenario {
    let mut spec = bundled::steady(2, rate, schedule);
    let removal = Removal::Counter { k };
    spec.protocol.rumor = Some(RumorConfig::new(direction, Feedback::Feedback, removal));
    spec
}

/// `count / over`, and 0 when there is nothing to divide by.
fn ratio(count: f64, over: f64) -> f64 {
    if over == 0.0 {
        0.0
    } else {
        count / over
    }
}

/// What one steady run measured: the report, the measured cycles and, on
/// a topology, the per-link conversations and entries.
#[derive(Debug)]
struct Steady(ScenarioReport, u32, LinkTraffic, LinkTraffic);

impl Steady {
    fn per_exchange(&self, count: u64) -> f64 {
        ratio(count as f64, self.0.totals.contacts as f64)
    }

    fn per_cycle(&self, count: f64) -> f64 {
        ratio(count, f64::from(self.1))
    }

    fn full_compare_rate(&self) -> f64 {
        self.per_exchange(self.0.full_compares)
    }
}

/// Runs `spec` on `n` uniformly mixed sites, or on a topology under a
/// spatial distribution with every measured contact charged to its route.
fn run(
    arena: &mut ScenarioArena,
    on: Result<usize, (&Topology, Spatial)>,
    mut spec: Scenario,
    seed: u64,
) -> Steady {
    spec.sites = on.unwrap_or_else(|(topo, _)| topo.sites().len());
    let after = spec.warmup;
    let engine = ScenarioEngine::new(spec).expect("a steady spec is valid");
    let measured = |r: ScenarioReport| (r.cycles - after, r);
    let Err((topo, spatial)) = on else {
        let (cycles, r) = measured(engine.run(arena, seed, &mut ()));
        return Steady(r, cycles, LinkTraffic::new(0), LinkTraffic::new(0));
    };
    let routes = Routes::compute(topo);
    let sampler = PartnerSampler::new(topo, &routes, spatial);
    let mut counters = Default::default();
    let mut charge = RouteCharge::new(topo, &routes, after, &mut counters);
    let sites = Some(topo.sites());
    let (cycles, r) = measured(engine.run_with_policy(arena, seed, &sampler, sites, &mut charge));
    let [compare, update] = counters;
    Steady(r, cycles, compare, update)
}

/// Recent-list windows below the distribution time degenerate to full
/// comparisons. Distribution time on 60 sites is O(log n) ≈ 10 cycles:
/// τ = 40 is comfortable, while at τ = 1 the paper predicts checksum
/// comparisons "will usually fail".
fn window_degeneration(arena: &mut ScenarioArena) {
    let mut rate = |tau, rate, seed| {
        let spec = ae(Comparison::RecentList { tau }, rate, WINDOW);
        run(arena, Ok(60), spec, seed).full_compare_rate()
    };
    let (generous, tight) = (rate(40, 1.0, 1), rate(1, 1.0, 1));
    assert!(generous < 0.05 && tight > 0.5, "{generous} {tight}");
    // A window that is generous at a slow rate is not at a fast one.
    let (slow, fast) = (rate(15, 0.2, 5), rate(15, 4.0, 5));
    assert!(fast >= slow, "fast {fast} vs slow {slow}");
}

/// Naive checksums fail under any update traffic: with one update a cycle
/// somewhere in the network, two random sites almost always differ.
fn naive_checksums(arena: &mut ScenarioArena) {
    let r = run(arena, Ok(60), ae(Comparison::Checksum, 1.0, WINDOW), 2);
    assert!(r.full_compare_rate() > 0.3, "{}", r.full_compare_rate());
}

/// Peel back scans far less than a full comparison of ~100-entry
/// databases while sending a similar number of entries.
fn peel_back_diff(arena: &mut ScenarioArena) {
    let full = run(arena, Ok(60), ae(Comparison::Full, 1.0, WINDOW), 3);
    let peel = run(arena, Ok(60), ae(Comparison::PeelBack, 1.0, WINDOW), 3);
    let [full_scanned, peel_scanned] = [&full, &peel].map(|r| r.per_exchange(r.0.scanned));
    let [full_sent, peel_sent] = [&full, &peel].map(|r| r.per_exchange(r.0.totals.sent));
    assert!(peel_scanned < full_scanned / 2.0, "{peel_scanned}");
    assert!(peel_sent <= full_sent + 1.0, "{peel_sent} {full_sent}");
}

/// A quiescent network costs nothing but conversations.
fn quiescent_network(arena: &mut ScenarioArena) {
    let ring = topologies::ring(10);
    let quiet = ae(Comparison::Checksum, 0.0, CIN);
    let r = run(arena, Err((&ring, UNIFORM)), quiet, 9);
    let entries = r.per_cycle(r.3.mean_per_link());
    assert_eq!([r.full_compare_rate(), entries], [0.0; 2]);
    let site0_db_len = arena.replicas()[0].db().len();
    assert_eq!((site0_db_len, r.0.updates, r.0.coverage), (0, 0, 1.0));
    assert!(r.per_cycle(r.2.mean_per_link()) > 0.0);
}

/// §1.4: quiescent push costs nothing, but pull keeps polling.
fn quiescent_push_against_pull(arena: &mut ScenarioArena) {
    let quiet = [0, 0, 50];
    let push = run(arena, Ok(200), rumor(Direction::Push, 2, 0.0, quiet), 1);
    let pull = run(arena, Ok(200), rumor(Direction::Pull, 2, 0.0, quiet), 1);
    assert_eq!(push.per_cycle(push.0.totals.contacts as f64), 0.0);
    let fruitless = pull.per_cycle(pull.0.totals.fruitless as f64);
    assert!(fruitless > 100.0, "{fruitless}");
}

/// A busy network makes pull efficient, and both deliver: at 4 updates a
/// cycle, then at the figure's rate.
fn busy_network(arena: &mut ScenarioArena) {
    for (k, rate, seed) in [(2, 4.0, 2), (3, 1.0, 3)] {
        for direction in [Direction::Push, Direction::Pull] {
            let Steady(r, ..) = run(arena, Ok(200), rumor(direction, k, rate, RUMOR), seed);
            let label = format!("{direction:?} k={k} rate={rate}: {r:?}");
            let (t, coverage) = (r.totals, r.coverage);
            let per_delivery = ratio(t.sent as f64, t.useful as f64);
            assert!(coverage > 0.9 && per_delivery >= 1.0, "{label}");
            // At 4 updates a cycle most polls find a non-empty rumor list.
            if direction == Direction::Pull && rate == 4.0 {
                assert!(coverage > 0.95, "{label}");
                assert!((t.fruitless as f64) < 0.7 * t.contacts as f64, "{label}");
            }
        }
    }
}

/// With τ well above the distribution time, the recent lists absorb nearly
/// everything: the steady state stays consistent enough.
fn steady_consistency(arena: &mut ScenarioArena) {
    let grid = topologies::grid(&[5, 5]);
    let r = run(arena, Err((&grid, UNIFORM)), ae(RECENT, 2.0, CIN), 1);
    assert!(r.full_compare_rate() < 0.1, "{}", r.full_compare_rate());
    assert!(r.per_cycle(r.3.mean_per_link()) > 0.0);
}

/// Spatial selection cuts steady-state entry traffic on far links.
fn far_link_traffic(arena: &mut ScenarioArena) {
    let line = topologies::line(24);
    let far_link = line.link_between(line.sites()[11], line.sites()[12]);
    let mut measure = |spatial| {
        let r = run(arena, Err((&line, spatial)), ae(RECENT, 2.0, CIN), 3);
        r.per_cycle(r.3.at(far_link.unwrap()) as f64)
    };
    let (uniform, local) = (measure(UNIFORM), measure(QS2));
    assert!(local < uniform / 2.0, "local {local} vs uniform {uniform}");
}

/// Every site initiates once a cycle with no connection limit, so the
/// measured contact count pins the warm-up boundary: one missed or extra
/// cycle shifts it by the site count.
fn warmup_boundary(arena: &mut ScenarioArena) {
    let ring = topologies::ring(10);
    for schedule in [[20, 60, 0], [0, 5, 0], [7, 1, 0], [3, 4, 5]] {
        let measured = schedule[1] + schedule[2];
        let r = run(arena, Err((&ring, UNIFORM)), ae(RECENT, 2.0, schedule), 4);
        let contacts = 10 * u64::from(measured);
        assert_eq!((r.0.totals.contacts, r.1), (contacts, measured));
        let pull = run(arena, Ok(10), rumor(Direction::Pull, 2, 2.0, schedule), 4);
        assert_eq!(pull.0.totals.contacts, contacts);
    }
}

/// A run with no measured cycles reports 0 for every per-cycle and
/// per-exchange rate, whatever the protocol and the partners.
fn zero_measured_cycles(arena: &mut ScenarioArena) {
    let ring = topologies::ring(10);
    for warmup in [0, 3] {
        for on in [Ok(10), Err((&ring, UNIFORM))] {
            let recent = ae(RECENT, 2.0, [warmup, 0, 0]);
            let push = rumor(Direction::Push, 2, 2.0, [warmup, 0, 0]);
            for spec in [recent, push] {
                let r = run(arena, on, spec, 2);
                let t = r.0.totals;
                let rates = [
                    r.full_compare_rate(),
                    r.per_exchange(t.sent),
                    r.per_exchange(r.0.scanned),
                    ratio(t.sent as f64, t.useful as f64),
                    r.per_cycle(t.fruitless as f64),
                    r.per_cycle(t.contacts as f64),
                    r.per_cycle(r.2.mean_per_link()),
                    r.per_cycle(r.3.mean_per_link()),
                ];
                assert_eq!(rates, [0.0; 8], "warmup={warmup} {on:?}");
                assert_eq!((r.1, t.contacts), (0, 0));
            }
        }
    }
}

/// A used arena runs like a fresh one.
fn used_arena(arena: &mut ScenarioArena) {
    let (ring, grid) = (topologies::ring(12), topologies::grid(&[4, 4]));
    let on_ring = |arena: &mut _| run(arena, Err((&ring, UNIFORM)), ae(RECENT, 2.0, CIN), 6).3;
    let fresh_ring = on_ring(&mut ScenarioArena::new());
    // The arena through another topology, a larger push fleet and both
    // mechanisms in between.
    run(arena, Err((&grid, QS2)), ae(RECENT, 2.0, CIN), 1);
    run(arena, Ok(60), rumor(Direction::Push, 3, 1.0, RUMOR), 5);
    assert_eq!(on_ring(arena), fresh_ring);
    // A used mail transport delivers like a new one.
    let mail = ScenarioEngine::new(bundled::by_name("clearinghouse").expect("bundled"));
    let mail = mail.expect("a bundled spec is valid");
    mail.run(arena, 2, &mut ());
    assert_eq!(
        mail.run(arena, 3, &mut ()),
        mail.run(&mut ScenarioArena::new(), 3, &mut ())
    );
    // Push and pull under every feedback and removal rule skip their
    // offers to holders (made anyway, and checked, in debug builds).
    for direction in [Direction::Push, Direction::Pull] {
        for feedback in [Feedback::Feedback, Feedback::Blind] {
            for removal in [Removal::Counter { k: 2 }, Removal::Coin { k: 2 }] {
                let mut spec = rumor(direction, 2, 1.0, RUMOR);
                spec.protocol.rumor = Some(RumorConfig::new(direction, feedback, removal));
                let fresh = run(&mut ScenarioArena::new(), Ok(30), spec.clone(), 11);
                let used = run(arena, Ok(30), spec, 11);
                assert_eq!(format!("{used:?}"), format!("{fresh:?}"));
            }
        }
    }
}

/// Every behaviour, on one arena that each case leaves used for the next.
#[test]
fn steady_behaviours() {
    let cases: [fn(&mut ScenarioArena); 11] = [
        window_degeneration,
        naive_checksums,
        peel_back_diff,
        quiescent_network,
        quiescent_push_against_pull,
        busy_network,
        steady_consistency,
        far_link_traffic,
        warmup_boundary,
        zero_measured_cycles,
        used_arena,
    ];
    let mut arena = ScenarioArena::new();
    for case in cases {
        case(&mut arena);
    }
}

/// The landing reports against the databases, over every bundled spec,
/// §1.5's redistribution variants (backup anti-entropy with re-mail and
/// with rumor re-ignition) and the CIN's steady schedule.
#[test]
fn landed_keys_equal_the_probe() {
    let mut arena = ScenarioArena::new();
    let mut specs = bundled::all();
    for redistribution in [Redistribution::Rumor, Redistribution::Mail] {
        let mut spec = bundled::by_name("clearinghouse").expect("bundled");
        let ae = spec.protocol.anti_entropy.as_mut().expect("anti-entropy");
        (ae.every, ae.redistribution) = (8, redistribution);
        spec.protocol.rumor = rumor(Direction::Push, 2, 0.0, RUMOR).protocol.rumor;
        specs.push(spec);
    }
    for (seed, spec) in (0..3).flat_map(|seed| specs.iter().map(move |spec| (seed, spec))) {
        let report = ScenarioEngine::new(spec.clone())
            .unwrap()
            .run(&mut arena, seed, &mut ());
        assert!(report.cycles > 0, "{}", spec.name);
    }
    let net = topologies::cin(&topologies::CinConfig::default());
    let cin = Err((&net.topology, QS2));
    run(&mut arena, cin, ae(RECENT, 2.0, CIN), 1);
}
