//! Compact heterogeneous-degree topologies for megascale sweeps.
//!
//! The paper validates its protocols on CIN-scale topologies (§3) where an
//! explicit [`Topology`](crate::Topology) with per-link routing is
//! affordable. At n = 10⁵–10⁶ sites — the regime the complex-networks
//! literature (Moreno–Nekovee–Vespignani) studies — all-pairs routing is
//! out of the question and the only thing partner selection needs is the
//! adjacency itself. [`DegreeGraph`] stores exactly that: a compressed
//! sparse row (CSR) adjacency — one `offsets` column and one `targets`
//! column, two heap blocks total regardless of site count — plus a seeded
//! Barabási–Albert generator producing the power-law degree distributions
//! ("scale-free" networks) under which epidemic residue and delay behave
//! qualitatively differently from the uniform mixing of §1.4.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// An undirected graph in compressed-sparse-row form: the neighbors of
/// site `i` are `targets[offsets[i]..offsets[i+1]]`. Sites are plain
/// `0..n` indices (dense, like the megascale engines' site tables); `u32`
/// throughout keeps a million-site, two-million-edge graph at ~18 MB.
#[derive(Debug, Clone)]
pub struct DegreeGraph {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl DegreeGraph {
    /// Builds a scale-free graph on `n` sites by seeded Barabási–Albert
    /// preferential attachment: each arriving site links to `m` distinct
    /// existing sites chosen with probability proportional to their
    /// degree (implemented by sampling the repeated-endpoints list). The
    /// first `m + 1` sites form a clique so early targets exist.
    ///
    /// Deterministic: the same `(n, m, seed)` yields the same graph on
    /// every platform, which is what lets megascale runs replay exactly.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0` or `n < 2`.
    pub fn scale_free(n: usize, m: usize, seed: u64) -> Self {
        assert!(m >= 1, "each arriving site must attach somewhere");
        assert!(n >= 2, "a graph of partners needs at least two sites");
        let core = (m + 1).min(n);
        // Every edge contributes both endpoints, as a consecutive pair;
        // sampling this list uniformly is sampling sites proportionally to
        // degree, and its pairs are the edge list the CSR is built from.
        let mut endpoints: Vec<u32> = Vec::with_capacity(2 * (core * (core - 1) / 2 + m * n));
        for i in 0..core as u32 {
            for j in (i + 1)..core as u32 {
                endpoints.push(i);
                endpoints.push(j);
            }
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
                endpoints.push(t);
                endpoints.push(v);
            }
        }
        Self::from_endpoints(n, &endpoints)
    }

    /// Builds the CSR form from an undirected edge list stored as
    /// consecutive endpoint pairs (no self-loops, no duplicate edges).
    /// Each edge appears in both endpoints' neighbor lists; per-site lists
    /// come out sorted. No column is allocated beside the two it returns.
    fn from_endpoints(n: usize, endpoints: &[u32]) -> Self {
        // offsets[i] counts site i's degree, then becomes the end of its
        // neighbor list; filling walks each end back down to the start.
        let mut offsets = vec![0u32; n + 1];
        for &site in endpoints {
            offsets[site as usize] += 1;
        }
        let mut total = 0u32;
        for end in &mut offsets[..n] {
            total += *end;
            *end = total;
        }
        offsets[n] = total;
        let mut targets = vec![0u32; total as usize];
        for edge in endpoints.chunks_exact(2) {
            for (site, other) in [(edge[0], edge[1]), (edge[1], edge[0])] {
                let cursor = &mut offsets[site as usize];
                *cursor -= 1;
                targets[*cursor as usize] = other;
            }
        }
        for i in 0..n {
            targets[offsets[i] as usize..offsets[i + 1] as usize].sort_unstable();
        }
        DegreeGraph { offsets, targets }
    }

    /// Number of sites.
    pub fn site_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The sorted neighbor list of site `i`.
    pub fn neighbors(&self, i: usize) -> &[u32] {
        &self.targets[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = DegreeGraph::scale_free(500, 2, 42);
        let b = DegreeGraph::scale_free(500, 2, 42);
        assert_eq!(a.offsets, b.offsets);
        assert_eq!(a.targets, b.targets);
        let c = DegreeGraph::scale_free(500, 2, 43);
        assert_ne!(a.targets, c.targets);
    }

    #[test]
    fn degrees_sum_to_twice_edges() {
        let g = DegreeGraph::scale_free(300, 2, 7);
        let sum: usize = (0..g.site_count()).map(|i| g.neighbors(i).len()).sum();
        assert_eq!(sum, g.targets.len());
        // BA with m = 2 on n sites starting from a 3-clique.
        assert_eq!(g.targets.len() / 2, 3 + 2 * (300 - 3));
    }

    #[test]
    fn neighbors_are_sorted_simple_and_loop_free() {
        let g = DegreeGraph::scale_free(400, 3, 11);
        for i in 0..g.site_count() {
            let n = g.neighbors(i);
            assert!(n.windows(2).all(|w| w[0] < w[1]), "site {i}: {n:?}");
            assert!(n.iter().all(|&t| t as usize != i));
            assert!(n.iter().all(|&t| (t as usize) < g.site_count()));
        }
    }

    #[test]
    fn attachment_is_preferential() {
        // A hub should emerge: max degree far above the attachment count,
        // while the median site stays near it — the heavy tail uniform
        // graphs lack.
        let g = DegreeGraph::scale_free(2_000, 2, 1);
        let mut degrees: Vec<usize> = (0..g.site_count()).map(|i| g.neighbors(i).len()).collect();
        degrees.sort_unstable();
        let median = degrees[degrees.len() / 2];
        let max = *degrees.last().unwrap();
        assert!(median <= 4, "median degree {median}");
        assert!(max >= 10 * median, "max {max} vs median {median}");
        assert!(degrees[0] >= 2, "every arrival linked m times");
    }

    #[test]
    fn graph_is_connected() {
        let g = DegreeGraph::scale_free(1_000, 2, 9);
        let mut seen = vec![false; g.site_count()];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 0;
        while let Some(i) = stack.pop() {
            count += 1;
            for &t in g.neighbors(i) {
                if !seen[t as usize] {
                    seen[t as usize] = true;
                    stack.push(t as usize);
                }
            }
        }
        assert_eq!(count, g.site_count());
    }

    #[test]
    fn tiny_graphs_fall_back_to_cliques() {
        let g = DegreeGraph::scale_free(2, 3, 0);
        assert_eq!(g.site_count(), 2);
        assert_eq!(g.neighbors(0), [1]);
        assert_eq!(g.neighbors(1), [0]);
    }

    /// `scale_free(10_000, 2, 1987)`'s edge count, max degree and FNV-1a
    /// of both CSR columns: how the CSR is built must not change the graph
    /// (megascale runs replay from it).
    #[test]
    fn scale_free_fingerprint_is_pinned() {
        fn fnv(column: &[u32]) -> u64 {
            column
                .iter()
                .flat_map(|x| x.to_le_bytes())
                .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                    (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
                })
        }
        let g = DegreeGraph::scale_free(10_000, 2, 1987);
        assert_eq!(g.targets.len() / 2, 19_997);
        let max_degree = (0..g.site_count()).map(|i| g.neighbors(i).len()).max();
        assert_eq!(max_degree, Some(229));
        assert_eq!(fnv(&g.offsets), 0x184c_ee66_956a_8dd2);
        assert_eq!(fnv(&g.targets), 0x18f1_496c_c6bc_29ce);
    }

    #[test]
    fn from_endpoints_builds_exact_adjacency() {
        let g = DegreeGraph::from_endpoints(4, &[0, 1, 1, 2, 3, 1]);
        assert_eq!(g.neighbors(0), [1]);
        assert_eq!(g.neighbors(1), [0, 2, 3]);
        assert_eq!(g.neighbors(2), [1]);
        assert_eq!(g.neighbors(3), [1]);
        assert_eq!(g.targets.len() / 2, 3);
    }
}
