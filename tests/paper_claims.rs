//! Golden tests: the paper's headline quantitative claims, asserted
//! end-to-end at reduced scale with tolerances wide enough to be stable
//! across platforms but tight enough to catch semantic regressions.
//! (Full-fidelity numbers live in EXPERIMENTS.md / `repro`.)

use epidemics::analysis::{push_epidemic_time, residue_for_counter, RumorOde};
use epidemics::core::{Direction, Feedback, Removal, RumorConfig};
use epidemics::net::topologies::{cin, Cin, CinConfig};
use epidemics::net::{expected_cut_conversations, LinkTraffic, Routes, Spatial};
use epidemics::sim::engine::RouteCharge;
use epidemics::sim::mixing::{EpidemicResult, MixingArena};
use epidemics::sim::spatial::SpatialSim;

fn mean<T>(trials: u64, mut f: impl FnMut(u64) -> T) -> f64
where
    T: Into<f64>,
{
    (0..trials).map(|s| f(s).into()).sum::<f64>() / trials as f64
}

/// Mean of `measure` over `trials` runs of the 1000-site rumor epidemic
/// `cfg`, one arena throughout.
fn rumor_mean(cfg: RumorConfig, trials: u64, measure: impl Fn(EpidemicResult) -> f64) -> f64 {
    let driver = SpatialSim::mixing(1000, cfg);
    let mut arena = MixingArena::new();
    mean(trials, |s| measure(driver.run(&mut arena, s, &mut ())))
}

/// Runs `trials` Table 4-style anti-entropy runs on the CIN (seeds
/// `0..trials`, one arena throughout), handing `each` every run's result
/// with the compare and update traffic its links were charged.
fn on_cin(
    net: &Cin,
    spatial: Spatial,
    limit: Option<u32>,
    trials: u64,
    mut each: impl FnMut(EpidemicResult, &LinkTraffic, &LinkTraffic),
) {
    let (topo, routes) = (&net.topology, Routes::compute(&net.topology));
    let sim = SpatialSim::new(topo, &routes, spatial).connection_limit(limit);
    let mut arena = MixingArena::new();
    let mut counters = Default::default();
    for seed in 0..trials {
        let mut charge = RouteCharge::new(topo, &routes, 0, &mut counters);
        let r = sim.run(&mut arena, seed, &mut charge);
        each(r, charge.compare, charge.update);
    }
}

#[test]
fn table1_k1_residue_is_about_18_percent() {
    let cfg = RumorConfig::new(
        Direction::Push,
        Feedback::Feedback,
        Removal::Counter { k: 1 },
    )
    .with_reset_on_useful(true);
    let residue = rumor_mean(cfg, 40, |r| r.residue);
    assert!((residue - 0.18).abs() < 0.03, "residue {residue}");
}

#[test]
fn table1_k5_traffic_is_about_6_point_7() {
    let cfg = RumorConfig::new(
        Direction::Push,
        Feedback::Feedback,
        Removal::Counter { k: 5 },
    )
    .with_reset_on_useful(true);
    let m = rumor_mean(cfg, 20, |r| r.traffic);
    assert!((m - 6.7).abs() < 0.4, "traffic {m}");
}

#[test]
fn table2_k1_dies_with_96_percent_residue() {
    let cfg = RumorConfig::new(Direction::Push, Feedback::Blind, Removal::Coin { k: 1 });
    let residue = rumor_mean(cfg, 40, |r| r.residue);
    assert!((residue - 0.96).abs() < 0.03, "residue {residue}");
}

#[test]
fn table3_pull_k2_residue_is_under_a_thousandth() {
    let cfg = RumorConfig::new(
        Direction::Pull,
        Feedback::Feedback,
        Removal::Counter { k: 2 },
    );
    let residue = rumor_mean(cfg, 40, |r| r.residue);
    assert!(residue < 2e-3, "residue {residue}");
}

#[test]
fn ode_quotes_20_and_6_percent() {
    assert!((residue_for_counter(1) - 0.20).abs() < 0.01);
    assert!((residue_for_counter(2) - 0.06).abs() < 0.005);
    // And the fixed-point equation is satisfied.
    let s = RumorOde::new(3).final_residue();
    assert!((s - (-(4.0) * (1.0 - s)).exp()).abs() < 1e-9);
}

#[test]
fn push_anti_entropy_cover_time_is_log2_plus_ln() {
    let driver = SpatialSim::anti_entropy(1000, Direction::Push);
    let mut arena = MixingArena::new();
    let measured = mean(25, |s| driver.run(&mut arena, s, &mut ()).cycles);
    let predicted = push_epidemic_time(1000.0);
    assert!(
        (measured - predicted).abs() / predicted < 0.15,
        "measured {measured} vs predicted {predicted}"
    );
}

#[test]
fn uniform_selection_loads_the_cut_at_the_formula_rate() {
    // Conversations crossing the transatlantic cut of the CIN per cycle
    // under uniform selection, against 2·n1·n2/(n1+n2).
    let net = cin(&CinConfig::default());
    let mut crossing = 0.0;
    let mut cycles = 0.0;
    on_cin(&net, Spatial::Uniform, None, 10, |r, compare, _| {
        crossing += (compare.at(net.bushey_link) + compare.at(net.second_transatlantic)) as f64;
        cycles += f64::from(r.cycles);
    });
    let predicted =
        expected_cut_conversations(net.europe.len() as f64, net.north_america.len() as f64);
    let ratio = crossing / cycles / predicted;
    assert!((0.8..1.2).contains(&ratio), "ratio {ratio}");
}

#[test]
fn qs2_cuts_critical_link_traffic_by_an_order_of_magnitude() {
    let net = cin(&CinConfig::default());
    let per_cycle = |spatial| {
        let mut bushey = 0.0;
        let mut cycles = 0.0;
        let mut t_last = 0.0;
        on_cin(&net, spatial, None, 10, |r, compare, _| {
            bushey += compare.at(net.bushey_link) as f64;
            cycles += f64::from(r.cycles);
            t_last += r.t_last;
        });
        (bushey / cycles, t_last / 10.0)
    };
    let (uniform_bushey, uniform_t) = per_cycle(Spatial::Uniform);
    let (local_bushey, local_t) = per_cycle(Spatial::QsPower { a: 2.0 });
    // "traffic on certain critical links [reduced] by a factor of 30" —
    // allow ≥10x on the synthetic topology.
    assert!(
        uniform_bushey > 10.0 * local_bushey,
        "uniform {uniform_bushey} vs local {local_bushey}"
    );
    // "convergence time t_last degrades by less than a factor of 2" — we
    // allow up to 2.6x on the synthetic CIN (its mean distances differ).
    assert!(
        local_t < 2.6 * uniform_t,
        "local {local_t} vs uniform {uniform_t}"
    );
}

#[test]
fn connection_limit_one_keeps_total_update_traffic_constant() {
    let net = cin(&CinConfig::default());
    let update_avg = |limit| {
        let mut total = 0.0;
        on_cin(&net, Spatial::Uniform, limit, 8, |_, _, update| {
            total += update.mean_per_link();
        });
        total / 8.0
    };
    let unlimited = update_avg(None);
    let limited = update_avg(Some(1));
    assert!(
        (limited - unlimited).abs() / unlimited < 0.1,
        "limited {limited} vs unlimited {unlimited}"
    );
}

#[test]
fn connection_limit_success_fraction_is_one_minus_e_inverse() {
    let net = cin(&CinConfig::default());
    let cmp_per_cycle = |limit| {
        let mut total = 0.0;
        on_cin(&net, Spatial::Uniform, limit, 8, |r, compare, _| {
            total += compare.mean_per_link() / f64::from(r.cycles.max(1));
        });
        total / 8.0
    };
    let fraction = cmp_per_cycle(Some(1)) / cmp_per_cycle(None);
    let predicted = 1.0 - (-1.0f64).exp(); // ≈ 0.632
    assert!(
        (fraction - predicted).abs() < 0.06,
        "fraction {fraction} vs {predicted}"
    );
}
