//! Cross-crate integration: spatial distributions, traffic accounting and
//! the synthetic CIN.

use epidemics::core::{Direction, Feedback, Removal, RumorConfig};
use epidemics::net::topologies::{cin, figure1, grid, line, ring, CinConfig};
use epidemics::net::{PartnerSampler, Routes, Spatial};
use epidemics::sim::engine::{ContactStats, Observer, RouteCharge};
use epidemics::sim::{MixingArena, SpatialSim};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Every conversation of a run: its cycle, dense site pair and stats.
#[derive(Default, Debug, PartialEq)]
struct Conversations(Vec<(u32, usize, usize, ContactStats)>);

impl<P: ?Sized> Observer<P> for Conversations {
    fn on_contact(&mut self, cycle: u32, i: usize, j: usize, stats: &ContactStats) {
        self.0.push((cycle, i, j, *stats));
    }
}

#[test]
fn compare_traffic_equals_sum_of_route_lengths() {
    // Conservation: total compare traffic equals the sum of route lengths
    // over all conversations. And charging is observation only: the same
    // run uncharged makes the same contacts with the same outcomes.
    let rumor = |d| RumorConfig::new(d, Feedback::Feedback, Removal::Counter { k: 3 });
    let rumors = [Direction::Push, Direction::Pull, Direction::PushPull].map(rumor);
    let cases = [None].into_iter().chain(rumors.map(Some));
    let cases = cases.flat_map(|m| [(m, None), (m, Some(1))]);
    let (mut charged_arena, mut plain_arena) = (MixingArena::new(), MixingArena::new());
    let mut counters = Default::default();
    for (topo, (mechanism, limit)) in cases.flat_map(|c| [(grid(&[5, 5]), c), (ring(16), c)]) {
        let (routes, sites, n) = (Routes::compute(&topo), topo.sites(), topo.site_count());
        let sim = SpatialSim::new(&topo, &routes, Spatial::Uniform).connection_limit(limit);
        let sim = mechanism.map_or(sim.clone(), |cfg| sim.rumor(cfg));
        for seed in 0..3 {
            let case = format!("{mechanism:?} {limit:?} on {n} sites, seed {seed}");
            let mut conversations = Conversations::default();
            let mut charge = RouteCharge::new(&topo, &routes, 0, &mut counters);
            let observer = &mut (&mut charge, &mut conversations);
            let charged = sim.run(&mut charged_arena, seed, observer);
            let mut plain = Conversations::default();
            let uncharged = sim.run(&mut plain_arena, seed, &mut plain);
            assert_eq!((charged, &conversations), (uncharged, &plain), "{case}");
            let route = |&(_, i, j, _): &(u32, usize, usize, ContactStats)| {
                routes.route_links(sites[i], sites[j]).len()
            };
            let links: usize = conversations.0.iter().map(route).sum();
            assert!(links >= conversations.0.len() && links > 0, "{case}");
            assert_eq!(charge.compare.total(), links as u64, "{case}");
        }
    }
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
    let mut arena = MixingArena::new();
    for topo in &topos {
        let routes = Routes::compute(topo);
        for spatial in [Spatial::Uniform, Spatial::QsPower { a: 2.0 }] {
            let sim = SpatialSim::new(topo, &routes, spatial).origin(topo.sites()[0]);
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
        let sim = SpatialSim::new(&topo, &Routes::compute(&topo), Spatial::Uniform)
            .origin(topo.sites()[0])
            .connection_limit(Some(1))
            .hunt_limit(hunt);
        let mut arena = MixingArena::new();
        (0..15)
            .map(|s| sim.run(&mut arena, s, &mut ()).t_last)
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
