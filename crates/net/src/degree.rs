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
/// throughout keeps a million-site, two-million-edge graph at 20 MB (4 MB
/// of offsets, 16 MB of targets).
#[derive(Debug, Clone)]
pub struct DegreeGraph {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl DegreeGraph {
    /// Builds a scale-free graph on `n` sites by seeded Barabási–Albert
    /// preferential attachment: each arriving site links to `m` distinct
    /// existing sites chosen with probability proportional to their
    /// degree (a uniform index into the list of every edge's endpoints,
    /// in edge order). The first `m + 1` sites form a clique so early
    /// targets exist.
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
        let clique: Vec<u32> = (0..core as u32)
            .flat_map(|i| (i + 1..core as u32).flat_map(move |j| [i, j]))
            .collect();
        let arrivals = n - core;
        // The columns come before the picks, so that freeing the picks
        // once the fill is done hands their pages back.
        let mut graph = DegreeGraph {
            offsets: vec![0; n + 1],
            targets: vec![0; clique.len() + 2 * m * arrivals],
        };
        // Past the clique, edge `e` is (picks[e], core + e / m): only the
        // picks are stored, and the endpoints list's odd entries are
        // computed from their index.
        let mut picks: Vec<u32> = Vec::with_capacity(m * arrivals);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..arrivals {
            let start = picks.len();
            let len = clique.len() + 2 * start;
            while picks.len() < start + m {
                let index = rng.random_range(0..len);
                let t = match index.checked_sub(clique.len()) {
                    None => clique[index],
                    Some(r) if r % 2 == 0 => picks[r / 2],
                    Some(r) => (core + r / 2 / m) as u32,
                };
                if !picks[start..].contains(&t) {
                    picks.push(t);
                }
            }
        }
        let arriving = picks
            .chunks_exact(m)
            .zip(core as u32..)
            .flat_map(|(picked, v)| picked.iter().map(move |&t| (t, v)));
        graph.fill(clique.chunks_exact(2).map(|e| (e[0], e[1])).chain(arriving));
        graph
    }

    /// Fills the zeroed columns from a simple undirected edge list, two
    /// `targets` slots per edge: each edge joins both endpoints' neighbor
    /// lists, and every list comes out sorted.
    fn fill(&mut self, edges: impl Iterator<Item = (u32, u32)> + Clone) {
        let n = self.site_count();
        let (offsets, targets) = (&mut self.offsets, &mut self.targets);
        // offsets[i] counts site i's degree, then becomes the end of its
        // neighbor list; filling walks each end back down to the start.
        for (a, b) in edges.clone() {
            offsets[a as usize] += 1;
            offsets[b as usize] += 1;
        }
        let mut total = 0u32;
        for end in offsets.iter_mut() {
            total += *end;
            *end = total;
        }
        debug_assert_eq!(total as usize, targets.len());
        for (a, b) in edges {
            for (site, other) in [(a, b), (b, a)] {
                let cursor = &mut offsets[site as usize];
                *cursor -= 1;
                targets[*cursor as usize] = other;
            }
        }
        for i in 0..n {
            targets[offsets[i] as usize..offsets[i + 1] as usize].sort_unstable();
        }
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
        let mut g = DegreeGraph {
            offsets: vec![0; 5],
            targets: vec![0; 6],
        };
        g.fill([(0, 1), (1, 2), (3, 1)].into_iter());
        assert_eq!(g.neighbors(0), [1]);
        assert_eq!(g.neighbors(1), [0, 2, 3]);
        assert_eq!(g.neighbors(2), [1]);
        assert_eq!(g.neighbors(3), [1]);
        assert_eq!(g.targets.len() / 2, 3);
    }
}
