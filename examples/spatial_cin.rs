//! Spatial distributions on the synthetic Corporate Internet (paper §3.1):
//! how `Q_s(d)^-2` partner selection rescues the transatlantic link.
//!
//! ```text
//! cargo run --release --example spatial_cin
//! ```
//!
//! Reproduces the shape of Table 4 on the generated CIN stand-in: uniform
//! partner selection floods the Bushey link with an order of magnitude more
//! conversations than the average link; the `a = 2.0` distribution brings
//! it below twice the mean at a modest cost in convergence time.

use epidemics::net::topologies::{cin, CinConfig};
use epidemics::net::{expected_cut_conversations, Routes, Spatial};
use epidemics::sim::engine::RouteCharge;
use epidemics::sim::{MixingArena, SpatialSim};

fn main() {
    let net = cin(&CinConfig::default());
    let n_eu = net.europe.len();
    let n_na = net.north_america.len();
    println!(
        "synthetic CIN: {} sites ({} Europe, {} North America), {} links, 2 transatlantic",
        net.topology.site_count(),
        n_eu,
        n_na,
        net.topology.link_count()
    );
    println!(
        "§3.1 prediction for uniform selection: ≈ {:.0} conversations/cycle across the cut\n",
        expected_cut_conversations(n_eu as f64, n_na as f64)
    );

    println!(
        "{:<10} {:>7} {:>7} {:>9} {:>11} {:>9} {:>11}",
        "dist", "t_last", "t_ave", "cmp avg", "cmp Bushey", "upd avg", "upd Bushey"
    );
    let runs = 40;
    let (topo, routes) = (&net.topology, Routes::compute(&net.topology));
    let mut arena = MixingArena::new();
    let mut counters = Default::default();
    for (label, spatial) in [
        ("uniform".to_string(), Spatial::Uniform),
        ("a = 1.2".to_string(), Spatial::QsPower { a: 1.2 }),
        ("a = 1.6".to_string(), Spatial::QsPower { a: 1.6 }),
        ("a = 2.0".to_string(), Spatial::QsPower { a: 2.0 }),
    ] {
        let sim = SpatialSim::new(topo, &routes, spatial);
        let mut t_last = 0.0;
        let mut t_ave = 0.0;
        let mut cmp_avg = 0.0;
        let mut cmp_bushey = 0.0;
        let mut upd_avg = 0.0;
        let mut upd_bushey = 0.0;
        for seed in 0..runs {
            let mut charge = RouteCharge::new(topo, &routes, 0, &mut counters);
            let r = sim.run(&mut arena, seed, &mut charge);
            let cycles = f64::from(r.cycles.max(1));
            let (compare, update) = (charge.compare, charge.update);
            t_last += r.t_last;
            t_ave += r.t_ave;
            cmp_avg += compare.mean_per_link() / cycles;
            cmp_bushey += compare.at(net.bushey_link) as f64 / cycles;
            upd_avg += update.mean_per_link();
            upd_bushey += update.at(net.bushey_link) as f64;
        }
        let t = f64::from(runs as u32);
        println!(
            "{:<10} {:>7.1} {:>7.1} {:>9.2} {:>11.2} {:>9.2} {:>11.2}",
            label,
            t_last / t,
            t_ave / t,
            cmp_avg / t,
            cmp_bushey / t,
            upd_avg / t,
            upd_bushey / t
        );
    }

    println!(
        "\nAs in the paper's Table 4: the spatial distribution cuts average link\n\
         traffic several-fold and critical-link traffic by an order of magnitude,\n\
         while convergence time less than doubles."
    );
}
