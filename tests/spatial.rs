//! Cross-crate integration: spatial distributions, traffic accounting and
//! the synthetic CIN.

use epidemics::net::topologies::{cin, figure1, grid, line, CinConfig};
use epidemics::net::{expected_cut_conversations, PartnerSampler, Routes, Spatial};
use epidemics::sim::spatial::{SpatialArena, SpatialSim};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn uniform_cut_traffic_matches_the_papers_formula() {
    // Measure conversations crossing the transatlantic cut on the CIN
    // under uniform selection and compare with 2·n1·n2/(n1+n2).
    let net = cin(&CinConfig::default());
    let sim = SpatialSim::new(&net.topology, Spatial::Uniform);
    let mut arena = SpatialArena::new();
    let mut crossing = 0.0;
    let mut cycles = 0.0;
    for seed in 0..10 {
        let r = sim.run(&mut arena, seed, &mut ());
        crossing += (r.compare_traffic.at(net.bushey_link)
            + r.compare_traffic.at(net.second_transatlantic)) as f64;
        cycles += f64::from(r.cycles);
    }
    let measured_per_cycle = crossing / cycles;
    let predicted =
        expected_cut_conversations(net.europe.len() as f64, net.north_america.len() as f64);
    let ratio = measured_per_cycle / predicted;
    assert!(
        (0.8..1.2).contains(&ratio),
        "measured {measured_per_cycle} vs predicted {predicted}"
    );
}

#[test]
fn compare_traffic_equals_sum_of_route_lengths() {
    // Conservation: total compare traffic must equal the sum of route
    // lengths over all conversations. With n sites and c cycles there are
    // n·c conversations, each of mean route length ≥ 1.
    let topo = grid(&[5, 5]);
    let sim = SpatialSim::new(&topo, Spatial::Uniform).origin(topo.sites()[0]);
    let mut arena = SpatialArena::new();
    let r = sim.run(&mut arena, 3, &mut ());
    let conversations = 25 * r.cycles as u64;
    let total = r.compare_traffic.total();
    assert!(total >= conversations, "every conversation crosses ≥1 link");
    // Mean route length on a 5x5 grid is well under 5.
    assert!(total < conversations * 5);
}

#[test]
fn qs_distribution_adapts_to_local_dimension() {
    // §3: Qs(d)-parameterized distributions adapt to the mesh dimension.
    // On a 1-D line and a 2-D grid of similar size, Qs^-2 must prefer the
    // nearest neighbor strongly in both.
    for topo in [line(49), grid(&[7, 7])] {
        let routes = Routes::compute(&topo);
        let sampler = PartnerSampler::new(&topo, &routes, Spatial::QsPower { a: 2.0 });
        let center = topo.sites()[topo.site_count() / 2];
        let mut rng = StdRng::seed_from_u64(9);
        let mut near = 0;
        let trials = 20_000;
        for _ in 0..trials {
            let p = sampler.sample(center, &mut rng);
            if routes.distance(center, p) == 1 {
                near += 1;
            }
        }
        let frac = f64::from(near) / f64::from(trials);
        assert!(frac > 0.35, "nearest-neighbor fraction {frac}");
    }
}

#[test]
fn spatial_anti_entropy_converges_on_every_zoo_topology() {
    use epidemics::net::topologies::{binary_tree, complete, ring, star};
    let topos = vec![
        line(12),
        ring(12),
        grid(&[4, 4]),
        complete(10),
        binary_tree(4),
        star(10),
        figure1(8),
    ];
    let mut arena = SpatialArena::new();
    for topo in &topos {
        for spatial in [Spatial::Uniform, Spatial::QsPower { a: 2.0 }] {
            let sim = SpatialSim::new(topo, spatial).origin(topo.sites()[0]);
            let r = sim.run(&mut arena, 11, &mut ());
            assert!(
                r.cycles < 1_000,
                "slow convergence on {} sites under {spatial:?}",
                topo.site_count()
            );
        }
    }
}

#[test]
fn cin_regenerates_identically_and_respects_config() {
    let config = CinConfig {
        na_regions: 5,
        sites_per_region: 12,
        europe_sites: 14,
        backbone_chords: 3,
        seed: 123,
        ..CinConfig::default()
    };
    let a = cin(&config);
    let b = cin(&config);
    assert_eq!(a.topology.links(), b.topology.links());
    assert_eq!(a.europe.len(), 14);
    assert_eq!(a.north_america.len(), 60);
    // The declared transatlantic links do connect the continents.
    let (x, y) = a.topology.endpoints(a.bushey_link);
    assert!(a.topology.label(x).contains("gw") || a.topology.label(y).contains("gw"));
}

#[test]
fn hunting_restores_convergence_speed_under_connection_limit() {
    let topo = grid(&[6, 6]);
    let mean_t_last = |hunt: u32| {
        let sim = SpatialSim::new(&topo, Spatial::Uniform)
            .origin(topo.sites()[0])
            .connection_limit(Some(1))
            .hunt_limit(hunt);
        let mut arena = SpatialArena::new();
        (0..15)
            .map(|s| f64::from(sim.run(&mut arena, s, &mut ()).t_last))
            .sum::<f64>()
            / 15.0
    };
    let no_hunt = mean_t_last(0);
    let with_hunt = mean_t_last(10);
    assert!(
        with_hunt <= no_hunt,
        "hunting should not slow convergence: {with_hunt} vs {no_hunt}"
    );
}
