//! All-pairs shortest-path routing and route/link enumeration.
//!
//! The spatial-distribution experiments (paper §3.1) charge every
//! anti-entropy conversation to each link on the shortest route between the
//! two participants. This module precomputes hop distances and first-hop
//! tables with one BFS per node; ties are broken toward the smallest node
//! id, so routes are deterministic and consistent across runs.
//!
//! Walking a route is one table read per hop, so the first-hop table is
//! kept small: an entry packs `(next node, link)` as two `u32`s — 8 bytes,
//! where `Option<(SiteId, LinkId)>` took 24 — which on the 282-node CIN is
//! 636 KB instead of 1.9 MB, the size of a core's L2 on its own.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use epidemic_db::SiteId;

use crate::graph::{LinkId, Topology};

/// Hop distance used in distance matrices. `u32::MAX` is reserved for
/// "unreachable", which a validated [`Topology`] never produces.
pub type Hops = u32;

/// One first-hop entry: `[next node, link]`. Node ids are `u32` already;
/// link ids are checked to fit when the table is built.
type Hop = [u32; 2];

/// The entry of a pair with no hop between them: `src == dst`, or a node
/// the search never reached. All ones, which no real entry is — a table
/// over 2³² nodes does not exist.
const NO_HOP: Hop = [u32::MAX; 2];

fn hop(next: SiteId, link: LinkId) -> Hop {
    let link = u32::try_from(link.index()).expect("link ids fit the 32-bit hop table");
    [next.index(), link]
}

/// Precomputed all-pairs shortest-path data for a [`Topology`].
///
/// # Example
///
/// ```
/// use epidemic_net::{topologies, Routes};
/// let topo = topologies::line(5);
/// let routes = Routes::compute(&topo);
/// let s = topo.sites();
/// assert_eq!(routes.distance(s[0], s[4]), 4);
/// assert_eq!(routes.route_links(s[0], s[2]).len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Routes {
    n: usize,
    dist: Vec<Hops>,
    // first_hop[src][dst] = neighbor of src on the (tie-broken) shortest
    // path toward dst, along with the link to that neighbor.
    first_hop: Vec<Hop>,
    diameter: Hops,
}

impl Routes {
    /// Builds distance and first-hop tables: one BFS per node on
    /// unit-cost topologies, one Dijkstra per node otherwise. Ties break
    /// toward the smallest node id either way.
    pub fn compute(topology: &Topology) -> Self {
        let n = topology.node_count();
        let mut dist = vec![Hops::MAX; n * n];
        let mut first_hop = vec![NO_HOP; n * n];
        let mut diameter = 0;
        let unit = topology.is_unit_cost();
        // Both drain to empty at the end of every source's search.
        let mut queue = VecDeque::new();
        let mut heap = BinaryHeap::new();
        for src in 0..n {
            let base = src * n;
            dist[base + src] = 0;
            if unit {
                queue.push_back(SiteId::new(src as u32));
                while let Some(u) = queue.pop_front() {
                    let du = dist[base + u.as_usize()];
                    for &(v, link) in topology.neighbors(u) {
                        if dist[base + v.as_usize()] != Hops::MAX {
                            continue;
                        }
                        dist[base + v.as_usize()] = du + 1;
                        diameter = diameter.max(du + 1);
                        // First hop toward v: if u is the source, the first
                        // hop is v itself; otherwise inherit u's first hop.
                        first_hop[base + v.as_usize()] = if u.as_usize() == src {
                            hop(v, link)
                        } else {
                            first_hop[base + u.as_usize()]
                        };
                        queue.push_back(v);
                    }
                }
            } else {
                // Dijkstra with (distance, node) keys for deterministic
                // tie-breaking.
                heap.push(Reverse((0, src)));
                while let Some(Reverse((du, u))) = heap.pop() {
                    if du > dist[base + u] {
                        continue;
                    }
                    for &(v, link) in topology.neighbors(SiteId::new(u as u32)) {
                        let dv = du + topology.link_cost(link);
                        let slot = &mut dist[base + v.as_usize()];
                        if dv < *slot {
                            *slot = dv;
                            diameter = diameter.max(dv);
                            first_hop[base + v.as_usize()] = if u == src {
                                hop(v, link)
                            } else {
                                first_hop[base + u]
                            };
                            heap.push(Reverse((dv, v.as_usize())));
                        }
                    }
                }
            }
        }
        Routes {
            n,
            dist,
            first_hop,
            diameter,
        }
    }

    /// Hop distance between two nodes.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range for the topology.
    pub fn distance(&self, from: SiteId, to: SiteId) -> Hops {
        self.dist[from.as_usize() * self.n + to.as_usize()]
    }

    /// The largest hop distance between any two nodes.
    pub(crate) fn diameter(&self) -> Hops {
        self.diameter
    }

    /// The links on the shortest route `from → to`, in traversal order.
    /// Empty when `from == to`.
    pub fn route_links(&self, from: SiteId, to: SiteId) -> Vec<LinkId> {
        let mut links = Vec::with_capacity(self.distance(from, to) as usize);
        self.for_each_route_link(from, to, |link| links.push(link));
        links
    }

    /// Visits each link on the shortest route `from → to` without
    /// allocating.
    pub(crate) fn for_each_route_link(&self, from: SiteId, to: SiteId, mut f: impl FnMut(LinkId)) {
        let row = to.as_usize();
        let mut cur = from.as_usize();
        while cur != row {
            let hop = self.first_hop[cur * self.n + row];
            assert!(hop != NO_HOP, "validated topologies are connected");
            let [next, link] = hop;
            f(LinkId::from_index(link as usize));
            cur = next as usize;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::TopologyBuilder;
    use crate::topologies;

    #[test]
    fn line_distances() {
        let topo = topologies::line(6);
        let routes = Routes::compute(&topo);
        let s = topo.sites();
        for i in 0..6usize {
            for j in 0..6usize {
                assert_eq!(routes.distance(s[i], s[j]), i.abs_diff(j) as u32);
            }
        }
        assert_eq!(routes.diameter(), 5);
    }

    #[test]
    fn route_links_match_distance() {
        let topo = topologies::grid(&[4, 4]);
        let routes = Routes::compute(&topo);
        for &a in topo.sites() {
            for &b in topo.sites() {
                let links = routes.route_links(a, b);
                assert_eq!(links.len() as u32, routes.distance(a, b));
            }
        }
    }

    #[test]
    fn route_is_a_connected_path() {
        let topo = topologies::binary_tree(4);
        let routes = Routes::compute(&topo);
        let sites = topo.sites();
        let (a, b) = (sites[1], sites[sites.len() - 1]);
        let links = routes.route_links(a, b);
        let mut cur = a;
        for link in links {
            let (x, y) = topo.endpoints(link);
            cur = if x == cur { y } else { x };
        }
        assert_eq!(cur, b);
    }

    /// Textbook single-source search with parent pointers: a BFS over the
    /// (id-sorted) adjacency on unit-cost topologies, an array Dijkstra
    /// settling nodes in `(distance, id)` order otherwise.
    fn reference_parents(topo: &Topology, src: usize) -> Vec<Option<(usize, LinkId)>> {
        let n = topo.node_count();
        let mut dist = vec![Hops::MAX; n];
        let mut parent = vec![None; n];
        dist[src] = 0;
        if topo.is_unit_cost() {
            let mut queue = VecDeque::from([src]);
            while let Some(u) = queue.pop_front() {
                for &(v, link) in topo.neighbors(SiteId::new(u as u32)) {
                    if dist[v.as_usize()] == Hops::MAX {
                        dist[v.as_usize()] = dist[u] + 1;
                        parent[v.as_usize()] = Some((u, link));
                        queue.push_back(v.as_usize());
                    }
                }
            }
        } else {
            let mut settled = vec![false; n];
            while let Some(u) = (0..n)
                .filter(|&u| !settled[u])
                .min_by_key(|&u| (dist[u], u))
            {
                settled[u] = true;
                for &(v, link) in topo.neighbors(SiteId::new(u as u32)) {
                    let through = dist[u] + topo.link_cost(link);
                    if through < dist[v.as_usize()] {
                        dist[v.as_usize()] = through;
                        parent[v.as_usize()] = Some((u, link));
                    }
                }
            }
        }
        parent
    }

    #[test]
    fn routes_follow_each_nodes_own_search_tree() {
        let cin = |transatlantic_cost| {
            let config = topologies::CinConfig {
                transatlantic_cost,
                ..topologies::CinConfig::default()
            };
            topologies::cin(&config).topology
        };
        for topo in [
            topologies::ring(9),
            topologies::grid(&[4, 5]),
            topologies::binary_tree(4),
            cin(1),
            cin(5),
        ] {
            let routes = Routes::compute(&topo);
            let parents: Vec<_> = (0..topo.node_count())
                .map(|src| reference_parents(&topo, src))
                .collect();
            for &from in topo.sites() {
                for &to in topo.sites() {
                    // At every node on the way, the next hop is the first
                    // step of that node's own tree path to `to`.
                    let mut expected = Vec::new();
                    let mut cur = from.as_usize();
                    while cur != to.as_usize() {
                        let mut step = to.as_usize();
                        let (next, link) = loop {
                            let (up, link) = parents[cur][step].expect("connected");
                            if up == cur {
                                break (step, link);
                            }
                            step = up;
                        };
                        if topo.is_unit_cost() {
                            // Ties toward the smallest id: no neighbor with
                            // a smaller id is also one hop closer.
                            let closer = routes.distance(SiteId::new(next as u32), to);
                            let smallest = topo
                                .neighbors(SiteId::new(cur as u32))
                                .iter()
                                .find(|&&(h, _)| routes.distance(h, to) == closer)
                                .expect("the next hop is a neighbor");
                            assert_eq!(*smallest, (SiteId::new(next as u32), link));
                        }
                        expected.push(link);
                        cur = next;
                    }
                    assert_eq!(routes.route_links(from, to), expected, "{from} -> {to}");
                    let mut visited = Vec::new();
                    routes.for_each_route_link(from, to, |l| visited.push(l));
                    assert_eq!(visited, expected, "{from} -> {to}");
                }
            }
        }
    }

    #[test]
    fn a_hop_is_eight_bytes() {
        assert_eq!(std::mem::size_of::<Hop>(), 8);
    }

    #[test]
    fn ties_break_deterministically() {
        // A 4-cycle has two equal routes between opposite corners; BFS with
        // sorted adjacency must always pick the same one.
        let mut b = TopologyBuilder::new();
        let n: Vec<_> = (0..4).map(|i| b.add_site(format!("n{i}"))).collect();
        b.link(n[0], n[1]);
        b.link(n[1], n[2]);
        b.link(n[2], n[3]);
        b.link(n[3], n[0]);
        let topo = b.build().unwrap();
        let r1 = Routes::compute(&topo);
        let r2 = Routes::compute(&topo);
        assert_eq!(r1.route_links(n[0], n[2]), r2.route_links(n[0], n[2]));
        assert_eq!(r1.distance(n[0], n[2]), 2);
    }
}

#[cfg(test)]
mod weighted_tests {
    use super::*;
    use crate::graph::TopologyBuilder;

    #[test]
    fn dijkstra_prefers_cheap_detours() {
        // a --10-- b, but a-1-c-1-b exists: the detour wins.
        let mut builder = TopologyBuilder::new();
        let a = builder.add_site("a");
        let b = builder.add_site("b");
        let c = builder.add_relay("c");
        let direct = builder.link_weighted(a, b, 10);
        let l1 = builder.link(a, c);
        let l2 = builder.link(c, b);
        let topo = builder.build().unwrap();
        let routes = Routes::compute(&topo);
        assert_eq!(routes.distance(a, b), 2);
        assert_eq!(routes.route_links(a, b), vec![l1, l2]);
        assert_ne!(routes.route_links(a, b)[0], direct);
    }

    #[test]
    fn weighted_distances_are_symmetric_and_metric() {
        let mut builder = TopologyBuilder::new();
        let nodes: Vec<_> = (0..5).map(|i| builder.add_site(format!("n{i}"))).collect();
        builder.link_weighted(nodes[0], nodes[1], 2);
        builder.link_weighted(nodes[1], nodes[2], 3);
        builder.link(nodes[2], nodes[3]);
        builder.link_weighted(nodes[3], nodes[4], 5);
        builder.link_weighted(nodes[0], nodes[4], 4);
        let topo = builder.build().unwrap();
        let routes = Routes::compute(&topo);
        for &x in topo.sites() {
            for &y in topo.sites() {
                assert_eq!(routes.distance(x, y), routes.distance(y, x));
                for &z in topo.sites() {
                    assert!(routes.distance(x, y) <= routes.distance(x, z) + routes.distance(z, y));
                }
            }
        }
        // 0→3: direct chain costs 2+3+1=6; via 4 costs 4+5=9.
        assert_eq!(routes.distance(nodes[0], nodes[3]), 6);
    }

    #[test]
    fn unit_cost_weighted_matches_bfs() {
        // link_weighted(.., 1) must behave exactly like link().
        let mut b1 = TopologyBuilder::new();
        let mut b2 = TopologyBuilder::new();
        let x1: Vec<_> = (0..6).map(|i| b1.add_site(format!("n{i}"))).collect();
        let x2: Vec<_> = (0..6).map(|i| b2.add_site(format!("n{i}"))).collect();
        for i in 0..5 {
            b1.link(x1[i], x1[i + 1]);
            b2.link_weighted(x2[i], x2[i + 1], 1);
        }
        // Force the Dijkstra path on b2 by adding one weighted chord.
        b2.link_weighted(x2[0], x2[5], 5);
        let t1 = b1.build().unwrap();
        let t2 = b2.build().unwrap();
        let r1 = Routes::compute(&t1);
        let r2 = Routes::compute(&t2);
        for i in 0..6u32 {
            for j in 0..6u32 {
                assert_eq!(
                    r1.distance(i.into(), j.into()),
                    r2.distance(i.into(), j.into())
                );
            }
        }
    }

    #[test]
    fn distance_power_sees_link_weights_but_qs_adapts_to_counts() {
        use crate::spatial::{PartnerSampler, Spatial};
        // Two clusters joined by an expensive line. A raw d^-2 chooser
        // almost never crosses (the far cluster is 20+ away), while the
        // Qs(d)^-2 chooser — which §3 designed to adapt to *site counts*,
        // not absolute distances — still crosses at the count-determined
        // rate. This is exactly the paper's distinction between the two
        // families.
        let mut builder = TopologyBuilder::new();
        let left: Vec<_> = (0..5).map(|i| builder.add_site(format!("l{i}"))).collect();
        let right: Vec<_> = (0..5).map(|i| builder.add_site(format!("r{i}"))).collect();
        for w in left.windows(2) {
            builder.link(w[0], w[1]);
        }
        for w in right.windows(2) {
            builder.link(w[0], w[1]);
        }
        builder.link_weighted(left[4], right[0], 20);
        let topo = builder.build().unwrap();
        let routes = Routes::compute(&topo);
        let crossing = |spatial| {
            let sampler = PartnerSampler::new(&topo, &routes, spatial);
            right
                .iter()
                .map(|&r| sampler.probability(left[0], r))
                .sum::<f64>()
        };
        let d_power = crossing(Spatial::DistancePower { a: 2.0 });
        let qs_power = crossing(Spatial::QsPower { a: 2.0 });
        assert!(d_power < 0.02, "d^-2 crossing probability {d_power}");
        assert!(
            qs_power > 0.05,
            "Qs^-2 crossing probability {qs_power} should reflect counts"
        );
    }

    #[test]
    #[should_panic(expected = "cost must be at least 1")]
    fn zero_cost_links_are_rejected() {
        let mut builder = TopologyBuilder::new();
        let a = builder.add_site("a");
        let b = builder.add_site("b");
        builder.link_weighted(a, b, 0);
    }
}
