//! Hierarchical partner selection — the paper's §4 future work.
//!
//! "Better performance might be achieved by constructing a dynamic
//! hierarchy, in which sites at high levels contact other high level
//! servers at long distances and lower level servers at short distances."
//!
//! This module implements that sketch as a two-level scheme:
//! *representatives* are chosen by a deterministic greedy k-center over hop
//! distances (so they spread across the network); every site usually
//! gossips locally (any [`Spatial`] distribution), but a representative
//! occasionally contacts another representative chosen uniformly at random,
//! giving the network a small long-haul backbone with bounded traffic.
//!
//! The [`PartnerSelection`] trait is the abstraction point: the simulators
//! accept any implementation, so flat spatial distributions and the
//! hierarchy can be compared like for like (see the `ablation-hierarchy`
//! experiment in `epidemic-bench`).

use epidemic_db::SiteId;
use rand::{Rng, RngExt};

use crate::degree::DegreeGraph;
use crate::graph::Topology;
use crate::routing::Routes;
use crate::spatial::{PartnerSampler, Spatial};

/// A partner-selection strategy: given a chooser, draw a gossip partner.
///
/// Both sides are *positions* in [`Topology::sites`] — the dense site index
/// the simulators work in — so a draw involves no id lookup.
///
/// Implemented by [`PartnerSampler`] (flat spatial distributions),
/// [`HierarchicalSampler`] (§4's two-level scheme) and [`DegreeGraph`]
/// (a uniform random neighbor); the simulators add uniform complete
/// mixing. Generic over the RNG, so a draw from a sequential stream and
/// one from a per-contact counter stream each compile to direct calls.
pub trait PartnerSelection {
    /// Draws a partner for the site at position `from`. Never returns
    /// `from` itself.
    fn select<R: Rng + ?Sized>(&self, from: usize, rng: &mut R) -> usize;
}

impl PartnerSelection for PartnerSampler {
    fn select<R: Rng + ?Sized>(&self, from: usize, rng: &mut R) -> usize {
        self.sample_position(from, rng)
    }
}

impl PartnerSelection for DegreeGraph {
    /// A uniform random neighbor of `from`: one `random_range` draw.
    ///
    /// # Panics
    ///
    /// Panics if `from` has no neighbors.
    fn select<R: Rng + ?Sized>(&self, from: usize, rng: &mut R) -> usize {
        let neighbors = self.neighbors(from);
        neighbors[rng.random_range(0..neighbors.len())] as usize
    }
}

impl<T: PartnerSelection + ?Sized> PartnerSelection for &T {
    fn select<R: Rng + ?Sized>(&self, from: usize, rng: &mut R) -> usize {
        (**self).select(from, rng)
    }
}

/// Two-level hierarchical sampler (§4 future work).
///
/// # Example
///
/// ```
/// use epidemic_net::{topologies, HierarchicalSampler, Routes, Spatial};
/// use rand::SeedableRng;
///
/// let topo = topologies::grid(&[6, 6]);
/// let routes = Routes::compute(&topo);
/// let h = HierarchicalSampler::new(&topo, &routes, 4, 0.5, Spatial::QsPower { a: 2.0 });
/// assert_eq!(h.representatives().len(), 4);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let from = topo.sites()[0];
/// assert_ne!(h.sample(from, &mut rng), from);
/// ```
#[derive(Debug, Clone)]
pub struct HierarchicalSampler {
    local: PartnerSampler,
    representatives: Vec<SiteId>,
    /// `representatives` as positions of [`Topology::sites`], same order.
    rep_positions: Vec<u32>,
    /// Site position → index into `representatives`; [`LEAF`] for the rest.
    rank: Vec<u32>,
    long_range: f64,
}

/// `rank` value of a site that is not a representative.
const LEAF: u32 = u32::MAX;

impl HierarchicalSampler {
    /// Builds the hierarchy: `reps` representatives chosen by greedy
    /// k-center, each contacting a random other representative with
    /// probability `long_range` and gossiping `local`ly otherwise.
    ///
    /// # Panics
    ///
    /// Panics unless `2 <= reps <= site count` and
    /// `0.0 <= long_range <= 1.0`.
    pub fn new(
        topology: &Topology,
        routes: &Routes,
        reps: usize,
        long_range: f64,
        local: Spatial,
    ) -> Self {
        assert!(
            reps >= 2 && reps <= topology.site_count(),
            "need between 2 and n representatives"
        );
        assert!((0.0..=1.0).contains(&long_range));
        let rep_positions = greedy_k_center(topology, routes, reps);
        let mut rank = vec![LEAF; topology.site_count()];
        for (i, &p) in rep_positions.iter().enumerate() {
            rank[p as usize] = i as u32;
        }
        HierarchicalSampler {
            local: PartnerSampler::new(topology, routes, local),
            representatives: rep_positions
                .iter()
                .map(|&p| topology.sites()[p as usize])
                .collect(),
            rep_positions,
            rank,
            long_range,
        }
    }

    /// The chosen representative sites.
    pub fn representatives(&self) -> &[SiteId] {
        &self.representatives
    }

    /// Draws a partner for `from`: the [`SiteId`] form of
    /// [`PartnerSelection::select`].
    ///
    /// # Panics
    ///
    /// Panics if `from` is a relay node rather than a database site.
    pub fn sample<R: Rng + ?Sized>(&self, from: SiteId, rng: &mut R) -> SiteId {
        let from = self
            .local
            .position(from)
            .expect("relay nodes do not select partners");
        self.local.site(self.select(from, rng))
    }
}

impl PartnerSelection for HierarchicalSampler {
    fn select<R: Rng + ?Sized>(&self, from: usize, rng: &mut R) -> usize {
        let rank = self.rank[from];
        if rank != LEAF && rng.random::<f64>() < self.long_range {
            // Long-haul hop: a uniform random *other* representative — the
            // k-th of the list with the chooser's own slot skipped.
            let k = rng.random_range(0..self.rep_positions.len() - 1);
            self.rep_positions[k + usize::from(k >= rank as usize)] as usize
        } else {
            self.local.sample_position(from, rng)
        }
    }
}

/// Deterministic greedy k-center over hop distance: start from the site
/// with the smallest id, repeatedly add the site farthest from the chosen
/// set. Spreads representatives across the network's regions. Returns
/// positions of [`Topology::sites`], in the order chosen.
fn greedy_k_center(topology: &Topology, routes: &Routes, k: usize) -> Vec<u32> {
    let sites = topology.sites();
    let mut chosen = vec![0u32];
    let mut dist_to_chosen: Vec<u32> = sites
        .iter()
        .map(|&s| routes.distance(sites[0], s))
        .collect();
    while chosen.len() < k {
        let (best_idx, _) = sites
            .iter()
            .enumerate()
            .max_by_key(|&(i, _)| (dist_to_chosen[i], std::cmp::Reverse(i)))
            .expect("sites is non-empty");
        chosen.push(best_idx as u32);
        for (i, &s) in sites.iter().enumerate() {
            dist_to_chosen[i] = dist_to_chosen[i].min(routes.distance(sites[best_idx], s));
        }
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topologies;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn k_center_spreads_representatives() {
        let topo = topologies::line(20);
        let routes = Routes::compute(&topo);
        let h = HierarchicalSampler::new(&topo, &routes, 3, 0.5, Spatial::Uniform);
        let reps = h.representatives();
        assert_eq!(reps.len(), 3);
        // On a line the first three k-center picks are an end, the other
        // end, and (near) the middle.
        let positions: Vec<u32> = reps.iter().map(|r| r.index()).collect();
        assert!(positions.contains(&0));
        assert!(positions.contains(&19));
        assert!(positions.iter().any(|&p| (7..=12).contains(&p)));
    }

    #[test]
    fn representatives_make_long_hops() {
        let topo = topologies::line(30);
        let routes = Routes::compute(&topo);
        let h = HierarchicalSampler::new(&topo, &routes, 3, 1.0, Spatial::QsPower { a: 2.0 });
        let rep = h.representatives()[0];
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..50 {
            let p = h.sample(rep, &mut rng);
            assert!(
                h.representatives().contains(&p),
                "long_range=1 always picks reps"
            );
            assert_ne!(p, rep);
        }
    }

    #[test]
    fn leaves_always_gossip_locally() {
        let topo = topologies::line(30);
        let routes = Routes::compute(&topo);
        let h = HierarchicalSampler::new(&topo, &routes, 2, 1.0, Spatial::QsPower { a: 2.0 });
        let leaf = topo.sites()[15];
        assert!(!h.representatives().contains(&leaf));
        let mut rng = StdRng::seed_from_u64(5);
        // Local Qs^-2 selection strongly favors neighbors.
        let mut near = 0;
        for _ in 0..2_000 {
            let p = h.sample(leaf, &mut rng);
            if routes.distance(leaf, p) <= 2 {
                near += 1;
            }
        }
        assert!(near > 1_000, "near picks {near}/2000");
    }

    /// `select` as first written: every representative but the chooser,
    /// collected, then one uniform index into that list.
    fn select_by_collecting(h: &HierarchicalSampler, from: SiteId, rng: &mut StdRng) -> SiteId {
        if h.representatives().contains(&from) && rng.random::<f64>() < h.long_range {
            let others: Vec<SiteId> = h
                .representatives()
                .iter()
                .copied()
                .filter(|&r| r != from)
                .collect();
            others[rng.random_range(0..others.len())]
        } else {
            h.local.sample(from, rng)
        }
    }

    #[test]
    fn rank_skip_selects_what_the_collected_list_selected() {
        let cin = topologies::cin(&topologies::CinConfig::default()).topology;
        let line = topologies::line(30);
        for (topo, reps, long_range) in [(&cin, 8, 0.3), (&cin, 2, 1.0), (&line, 3, 0.5)] {
            let routes = Routes::compute(topo);
            let h = HierarchicalSampler::new(
                topo,
                &routes,
                reps,
                long_range,
                Spatial::QsPower { a: 2.0 },
            );
            let mut rng = StdRng::seed_from_u64(17);
            let mut reference = StdRng::seed_from_u64(17);
            // Every site draws, representatives ten times as often.
            for round in 0..10 {
                for (position, &from) in topo.sites().iter().enumerate() {
                    if round > 0 && !h.representatives().contains(&from) {
                        continue;
                    }
                    let expected = select_by_collecting(&h, from, &mut reference);
                    assert_eq!(topo.sites()[h.select(position, &mut rng)], expected);
                }
            }
            assert_eq!(rng.next_u64(), reference.next_u64(), "RNG streams diverged");
        }
    }

    #[test]
    fn deterministic_representative_choice() {
        let net = topologies::cin(&topologies::CinConfig::default());
        let routes = Routes::compute(&net.topology);
        let a = HierarchicalSampler::new(&net.topology, &routes, 8, 0.3, Spatial::Uniform);
        let b = HierarchicalSampler::new(&net.topology, &routes, 8, 0.3, Spatial::Uniform);
        assert_eq!(a.representatives(), b.representatives());
    }

    #[test]
    #[should_panic(expected = "representatives")]
    fn rejects_too_few_reps() {
        let topo = topologies::ring(6);
        let routes = Routes::compute(&topo);
        HierarchicalSampler::new(&topo, &routes, 1, 0.5, Spatial::Uniform);
    }
}
