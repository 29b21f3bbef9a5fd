//! A guided tour of the paper, section by section, at demo scale.
//!
//! ```text
//! cargo run --release --example paper_tour
//! ```
//!
//! Walks the storyline of Demers et al. (1987) with live mini-experiments:
//! §1.2 direct mail fails; §1.3 anti-entropy repairs and scales like
//! `log₂n + ln n`; §1.4 rumor mongering trades residue for traffic; §2
//! deletions need death certificates; §3 spatial distributions save the
//! transatlantic link.

use epidemics::analysis::{push_epidemic_time, residue_for_counter};
use epidemics::core::{Direction, Feedback, Removal, RumorConfig};
use epidemics::net::topologies::{cin, CinConfig};
use epidemics::net::{Routes, Spatial};
use epidemics::sim::engine::RouteCharge;
use epidemics::sim::mixing::MixingArena;
use epidemics::sim::scenario::{bundled, FaultKind, ScenarioArena, ScenarioEngine};
use epidemics::sim::spatial::SpatialSim;

fn main() {
    println!("== §1.3: anti-entropy is a simple epidemic ==");
    let n = 1024;
    // One trial arena serves every single-update run below.
    let mut arena = MixingArena::new();
    let push = SpatialSim::anti_entropy(n, Direction::Push);
    let cycles: f64 = (0..10)
        .map(|s| f64::from(push.run(&mut arena, s, &mut ()).cycles))
        .sum::<f64>()
        / 10.0;
    println!(
        "  push cover time on {n} sites: {cycles:.1} cycles (theory log2+ln = {:.1})",
        push_epidemic_time(n as f64)
    );

    println!("\n== §1.4: rumor mongering trades residue for traffic ==");
    println!("  k | residue (sim) | residue (ODE) | traffic m");
    for k in 1..=4 {
        let driver = SpatialSim::mixing(
            1000,
            RumorConfig::new(Direction::Push, Feedback::Feedback, Removal::Counter { k })
                .with_reset_on_useful(true),
        );
        let mut residue = 0.0;
        let mut m = 0.0;
        for seed in 0..10 {
            let r = driver.run(&mut arena, seed, &mut ());
            residue += r.residue;
            m += r.traffic;
        }
        println!(
            "  {k} | {:13.4} | {:13.4} | {:9.2}",
            residue / 10.0,
            residue_for_counter(k),
            m / 10.0
        );
    }

    println!("\n== §2: deletion needs death certificates ==");
    let dormant = bundled::by_name("dormant-death").expect("bundled");
    let mut naive = dormant.clone();
    for event in &mut naive.events {
        if let FaultKind::Delete { retention, .. } = &mut event.kind {
            *retention = 0; // no certificate survives τ1
        }
    }
    let naive = ScenarioEngine::new(naive)
        .unwrap()
        .run(&mut ScenarioArena::new(), 1, &mut ());
    println!("  naive deletion resurrects: {}", !naive.cancelled);
    let report = ScenarioEngine::new(dormant)
        .unwrap()
        .run(&mut ScenarioArena::new(), 1, &mut ());
    println!(
        "  dormant certificate awakens and cancels a rejoining obsolete item: {}",
        report.cancelled
    );

    println!("\n== §3: spatial distributions rescue the Bushey link ==");
    let net = cin(&CinConfig::default());
    let (topo, routes) = (&net.topology, Routes::compute(&net.topology));
    let mut counters = Default::default();
    for (label, spatial) in [
        ("uniform ", Spatial::Uniform),
        ("Qs(d)^-2", Spatial::QsPower { a: 2.0 }),
    ] {
        let sim = SpatialSim::new(topo, &routes, spatial);
        let mut t_last = 0.0;
        let mut bushey = 0.0;
        let mut cycles = 0.0;
        for seed in 0..10 {
            let mut charge = RouteCharge::new(topo, &routes, 0, &mut counters);
            let r = sim.run(&mut arena, seed, &mut charge);
            t_last += r.t_last;
            bushey += charge.compare.at(net.bushey_link) as f64;
            cycles += f64::from(r.cycles);
        }
        println!(
            "  {label}: t_last {:5.1} cycles, Bushey link {:5.1} conversations/cycle",
            t_last / 10.0,
            bushey / cycles
        );
    }
    println!("\n(Each number is a 10-trial mean; see `repro all` for full fidelity.)");
}
