//! Property-based tests for topologies, routing and spatial sampling on
//! randomly generated connected graphs, and the exhaustive edge-of-cell
//! check of the sampler's guide-table draw against a binary search.

use epidemic_net::{
    topologies, DegreeGraph, HierarchicalSampler, PartnerSampler, PartnerSelection, Routes,
    Spatial, Topology, TopologyBuilder,
};
use proptest::prelude::*;
use rand::rngs::{ContactRng, StdRng};
use rand::{Rng, RngExt, SeedableRng};

/// Strategy: a random connected graph of `n` nodes — a random spanning
/// tree plus extra random edges; a random subset of nodes (at least two)
/// are database sites.
fn random_topology() -> impl Strategy<Value = Topology> {
    (3usize..24)
        .prop_flat_map(|n| {
            (
                Just(n),
                // parent[i] < i gives a random spanning tree.
                prop::collection::vec(any::<prop::sample::Index>(), n - 1),
                prop::collection::vec(
                    (any::<prop::sample::Index>(), any::<prop::sample::Index>()),
                    0..8,
                ),
                prop::collection::vec(any::<bool>(), n),
            )
        })
        .prop_map(|(n, parents, extras, site_flags)| {
            let mut b = TopologyBuilder::new();
            let nodes: Vec<_> = (0..n)
                .map(|i| {
                    // Guarantee at least two sites (nodes 0 and 1).
                    if i < 2 || site_flags[i] {
                        b.add_site(format!("n{i}"))
                    } else {
                        b.add_relay(format!("r{i}"))
                    }
                })
                .collect();
            for (i, parent) in parents.iter().enumerate() {
                let child = i + 1;
                let p = parent.index(child); // 0..child
                b.link(nodes[p], nodes[child]);
            }
            for (x, y) in extras {
                let a = x.index(n);
                let c = y.index(n);
                if a != c {
                    b.link(nodes[a], nodes[c]);
                }
            }
            b.build().expect("spanning tree keeps the graph connected")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Distances are a metric: symmetric, zero iff equal, triangle
    /// inequality (over sampled triples).
    #[test]
    fn distances_form_a_metric(topo in random_topology()) {
        let routes = Routes::compute(&topo);
        let nodes = topo.node_count() as u32;
        for a in 0..nodes {
            for b in 0..nodes {
                let ab = routes.distance(a.into(), b.into());
                prop_assert_eq!(ab, routes.distance(b.into(), a.into()));
                prop_assert_eq!(ab == 0, a == b);
                for c in 0..nodes {
                    let ac = routes.distance(a.into(), c.into());
                    let cb = routes.distance(c.into(), b.into());
                    prop_assert!(ab <= ac + cb);
                }
            }
        }
    }

    /// Every route is a connected path of the correct length joining its
    /// endpoints.
    #[test]
    fn routes_are_valid_paths(topo in random_topology()) {
        let routes = Routes::compute(&topo);
        for &a in topo.sites() {
            for &b in topo.sites() {
                let links = routes.route_links(a, b);
                prop_assert_eq!(links.len() as u32, routes.distance(a, b));
                let mut cur = a;
                for link in links {
                    let (x, y) = topo.endpoints(link);
                    prop_assert!(cur == x || cur == y);
                    cur = if cur == x { y } else { x };
                }
                prop_assert_eq!(cur, b);
            }
        }
    }

    /// Spatial samplers are proper probability distributions over the
    /// other sites, for every distribution family.
    #[test]
    fn samplers_are_normalized(topo in random_topology(), a in 0.5f64..3.0) {
        let routes = Routes::compute(&topo);
        for spatial in [
            Spatial::Uniform,
            Spatial::DistancePower { a },
            Spatial::QsPower { a },
            Spatial::PositionPower { a },
        ] {
            let sampler = PartnerSampler::new(&topo, &routes, spatial);
            for &from in topo.sites() {
                let total: f64 = topo
                    .sites()
                    .iter()
                    .map(|&to| sampler.probability(from, to))
                    .sum();
                prop_assert!((total - 1.0).abs() < 1e-9, "{:?}: {}", spatial, total);
                prop_assert_eq!(sampler.probability(from, from), 0.0);
            }
        }
    }

    /// Under Qs^-a, selection probability never increases with distance.
    #[test]
    fn qs_probability_is_monotone_in_distance(topo in random_topology(), a in 1.0f64..3.0) {
        let routes = Routes::compute(&topo);
        let sampler = PartnerSampler::new(&topo, &routes, Spatial::QsPower { a });
        for &from in topo.sites() {
            let mut by_distance: Vec<(u32, f64)> = topo
                .sites()
                .iter()
                .filter(|&&t| t != from)
                .map(|&t| (routes.distance(from, t), sampler.probability(from, t)))
                .collect();
            by_distance.sort_by(|x, y| x.partial_cmp(y).unwrap());
            for w in by_distance.windows(2) {
                if w[0].0 < w[1].0 {
                    prop_assert!(w[0].1 >= w[1].1 - 1e-12);
                }
            }
        }
    }

    /// Sampling never returns the chooser or a relay node.
    #[test]
    fn samples_are_other_sites(topo in random_topology(), seed in any::<u64>()) {
        let routes = Routes::compute(&topo);
        let sampler = PartnerSampler::new(&topo, &routes, Spatial::QsPower { a: 2.0 });
        let mut rng = StdRng::seed_from_u64(seed);
        for &from in topo.sites() {
            for _ in 0..20 {
                let p = sampler.sample(from, &mut rng);
                prop_assert_ne!(p, from);
                prop_assert!(topo.is_site(p));
            }
        }
    }

    /// The builder that stores only its picks is the endpoints-list
    /// generator, column for column, down to the seed clique alone
    /// (`n ≤ m + 1`); its graph is simple, with `m` edges per arrival.
    #[test]
    fn scale_free_is_the_endpoints_list_generator(
        n in prop_oneof![2usize..7, 2usize..3000],
        m in 1usize..=5,
        seed in any::<u64>(),
    ) {
        let graph = DegreeGraph::scale_free(n, m, seed);
        let columns = csr_columns(&graph);
        prop_assert_eq!(&columns, &scale_free_reference(n, m, seed));
        let core = (m + 1).min(n);
        prop_assert_eq!(columns[1].len(), core * (core - 1) + 2 * m * (n - core));
        for i in 0..n {
            let list = graph.neighbors(i);
            prop_assert!(list.windows(2).all(|w| w[0] < w[1]), "site {}: {:?}", i, list);
            prop_assert!(list.iter().all(|&t| t as usize != i && (t as usize) < n));
        }
    }

    /// A contact graph's draw is one uniform pick from the chooser's
    /// neighbors — never the chooser, always a site — on a sequential
    /// stream and a per-contact counter stream alike.
    #[test]
    fn graph_draws_are_uniform_neighbors(n in 3usize..200, m in 1usize..4, seed in any::<u64>()) {
        let graph = DegreeGraph::scale_free(n, m, seed);
        let (mut sequential, mut twin) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
        for from in 0..n {
            let mut counter = ContactRng::new(seed, 1, from as u64);
            let neighbors = graph.neighbors(from);
            let expected = [
                neighbors[twin.random_range(0..neighbors.len())],
                neighbors[counter.clone().random_range(0..neighbors.len())],
            ];
            let drawn = [graph.select(from, &mut sequential), graph.select(from, &mut counter)];
            for (j, expected) in drawn.into_iter().zip(expected) {
                prop_assert_eq!(j, expected as usize);
                prop_assert!(j != from && j < n);
            }
        }
    }
}

/// The Barabási–Albert generator as first written, which
/// [`DegreeGraph::scale_free`] must equal: it keeps the whole list of
/// every edge's endpoints, samples it, and builds the CSR columns from its
/// pairs by counting, filling downward and sorting each list.
fn scale_free_reference(n: usize, m: usize, seed: u64) -> [Vec<u32>; 2] {
    let core = (m + 1).min(n);
    let mut endpoints: Vec<u32> = Vec::new();
    for i in 0..core as u32 {
        endpoints.extend((i + 1..core as u32).flat_map(|j| [i, j]));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut picked: Vec<u32> = Vec::with_capacity(m);
    for v in core as u32..n as u32 {
        picked.clear();
        while picked.len() < m.min(v as usize) {
            let t = endpoints[rng.random_range(0..endpoints.len())];
            if !picked.contains(&t) {
                picked.push(t);
            }
        }
        for &t in &picked {
            endpoints.extend([t, v]);
        }
    }
    let mut offsets = vec![0u32; n + 1];
    for &site in &endpoints {
        offsets[site as usize] += 1;
    }
    let mut total = 0u32;
    for end in &mut offsets {
        total += *end;
        *end = total;
    }
    let mut targets = vec![0u32; total as usize];
    for edge in endpoints.chunks_exact(2) {
        for (site, other) in [(edge[0], edge[1]), (edge[1], edge[0])] {
            offsets[site as usize] -= 1;
            targets[offsets[site as usize] as usize] = other;
        }
    }
    for i in 0..n {
        targets[offsets[i] as usize..offsets[i + 1] as usize].sort_unstable();
    }
    [offsets, targets]
}

/// `graph`'s two CSR columns, read back through its neighbor lists.
fn csr_columns(graph: &DegreeGraph) -> [Vec<u32>; 2] {
    let mut columns = [vec![0], Vec::new()];
    for i in 0..graph.site_count() {
        columns[1].extend_from_slice(graph.neighbors(i));
        columns[0].push(columns[1].len() as u32);
    }
    columns
}

/// An [`Rng`] that replays chosen `f64` draws: `random::<f64>()` keeps the
/// top 53 bits of a word, so word `m << 11` is the draw `m · 2⁻⁵³`.
struct Script {
    draws: std::vec::IntoIter<u64>,
}

impl Script {
    fn new(draws: Vec<u64>) -> Self {
        Script {
            draws: draws.into_iter(),
        }
    }
}

impl Rng for Script {
    fn next_u64(&mut self) -> u64 {
        self.draws.next().expect("one word per draw") << 11
    }
}

/// Number of representable draws: `u = m · 2⁻⁵³` for `m` below this.
const DRAWS: u64 = 1 << 53;

fn draw_value(m: u64) -> f64 {
    m as f64 / DRAWS as f64
}

/// The draws where a guide-table scan could go wrong on this row: zero,
/// the last draw, the draws around every cumulative value (nearest below,
/// nearest above, and equal where the value is itself a draw) and around
/// every guide-cell edge `k/G`.
fn edge_draws(cumulative: &[f64]) -> Vec<u64> {
    let cells = cumulative.len().next_power_of_two() as u64;
    let mut draws = vec![0, DRAWS - 1];
    let mut around = |m: u64| {
        draws.extend([m.saturating_sub(1), m, m + 1]);
    };
    for &c in cumulative {
        let scaled = c * DRAWS as f64; // exact: a power of two
        around(scaled.floor() as u64);
        around(scaled.ceil() as u64);
    }
    for k in 0..=cells {
        around(k * (DRAWS / cells));
    }
    draws.retain(|&m| m < DRAWS);
    draws
}

#[test]
fn guide_draw_is_the_binary_search_at_every_edge() {
    let cin = topologies::cin(&topologies::CinConfig::default()).topology;
    let line = topologies::line(30);
    for topo in [&cin, &line] {
        let routes = Routes::compute(topo);
        for spatial in [
            Spatial::Uniform,
            Spatial::DistancePower { a: 2.0 },
            Spatial::QsPower { a: 1.0 },
            Spatial::QsPower { a: 1.2 },
            Spatial::QsPower { a: 2.0 },
            Spatial::PositionPower { a: 2.0 },
        ] {
            let sampler = PartnerSampler::new(topo, &routes, spatial);
            for from in 0..topo.site_count() {
                let cumulative = sampler.cumulative(from);
                let partners = sampler.partners(from);
                let draws = edge_draws(cumulative);
                let mut script = Script::new(draws.clone());
                for m in draws {
                    let u = draw_value(m);
                    let searched = cumulative
                        .partition_point(|&c| c < u)
                        .min(cumulative.len() - 1);
                    assert_eq!(
                        sampler.sample_position(from, &mut script),
                        partners[searched] as usize,
                        "{spatial:?}, site {from}, draw {m} · 2^-53"
                    );
                }
            }
        }
    }
}

/// The trait's position form and the `SiteId` form agree, draw for draw
/// and word for word, on both samplers.
#[test]
fn positions_are_site_ids_searched() {
    let topo = topologies::cin(&topologies::CinConfig::default()).topology;
    let routes = Routes::compute(&topo);
    let sites = topo.sites();
    let flat = PartnerSampler::new(&topo, &routes, Spatial::QsPower { a: 1.2 });
    let tiered = HierarchicalSampler::new(&topo, &routes, 8, 0.5, Spatial::QsPower { a: 2.0 });
    let mut by_position = StdRng::seed_from_u64(23);
    let mut by_id = StdRng::seed_from_u64(23);
    for _ in 0..20 {
        for (from, &site) in sites.iter().enumerate() {
            let flat_id = flat.sample(site, &mut by_id);
            assert_eq!(
                flat.select(from, &mut by_position),
                sites.binary_search(&flat_id).unwrap()
            );
            let tiered_id = tiered.sample(site, &mut by_id);
            assert_eq!(
                tiered.select(from, &mut by_position),
                sites.binary_search(&tiered_id).unwrap()
            );
        }
    }
    assert_eq!(
        by_position.next_u64(),
        by_id.next_u64(),
        "RNG streams diverged"
    );
}
