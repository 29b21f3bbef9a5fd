//! Spatial partner-selection distributions (paper §3–3.1).
//!
//! Uniform partner choice overloads critical links: on the CIN, the two
//! transatlantic links carried an expected `2·n₁·n₂/(n₁+n₂)` conversations
//! per anti-entropy round. The paper's remedy is to choose partners with
//! probability decaying in network distance `d` — either directly (`d^-a`)
//! or, better, through the cumulative-count function `Q_s(d)` = number of
//! sites within distance `d` of `s`, which adapts to the network's "local
//! dimension". Equation (3.1.1) derives the per-distance probability from a
//! sorted-list weighting `f(i) = i^-a`:
//!
//! ```text
//! p(d) ≈ (Q(d-1)^(1-a) − Q(d)^(1-a)) / (Q(d) − Q(d-1))
//! ```
//!
//! with one added to `Q` throughout to avoid the singularity at `Q(d) = 0`.
//!
//! A [`PartnerSampler`] turns a distribution into per-site tables on a
//! concrete topology. Drawing a partner is what every simulated contact
//! does first, so the tables are flat arrays indexed by *position* in
//! [`Topology::sites`] and a draw is an exact `O(1)` inverse-CDF lookup
//! through a guide table — see the type's documentation for the layout and
//! for why the lookup returns what a binary search over the row would.

use epidemic_db::SiteId;
use rand::{Rng, RngExt};

use crate::graph::Topology;
use crate::routing::Routes;

/// A partner-selection distribution over network distance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Spatial {
    /// Every other site is equally likely (§1's baseline).
    Uniform,
    /// Probability proportional to `d^-a` — the linear-network analysis of
    /// §3. Performs worse than [`Spatial::QsPower`] on irregular networks.
    DistancePower {
        /// Decay exponent `a`.
        a: f64,
    },
    /// Equation (3.1.1): probability derived from `Q_s(d)` with the
    /// integral approximation of `Σ f(i)`, `f(i) = i^-a`. The distribution
    /// used in the Table 4/5 experiments and the production Clearinghouse
    /// release (`a = 2`).
    QsPower {
        /// Decay exponent `a`.
        a: f64,
    },
    /// The exact form of (3.1.1): average `f(i) = i^-a` over the sorted-list
    /// positions occupied by sites at each distance, with no integral
    /// approximation. Provided for ablation against [`Spatial::QsPower`].
    PositionPower {
        /// Decay exponent `a`.
        a: f64,
    },
}

impl Spatial {
    /// Unnormalized selection weight for one site at distance `d` from the
    /// chooser, given the chooser's cumulative counts `q_prev = Q(d-1)` and
    /// `q = Q(d)` (site counts, excluding the chooser itself).
    fn weight(self, d: u32, q_prev: usize, q: usize) -> f64 {
        debug_assert!(d >= 1 && q > q_prev);
        match self {
            Spatial::Uniform => 1.0,
            Spatial::DistancePower { a } => f64::from(d).powf(-a),
            Spatial::QsPower { a } => {
                // +1 regularization per the paper's footnote to (3.1.1).
                let qp = (q_prev + 1) as f64;
                let qc = (q + 1) as f64;
                let width = (q - q_prev) as f64;
                if (a - 1.0).abs() < 1e-9 {
                    // lim a→1 of (qp^(1-a) − qc^(1-a))/(a-1) = ln(qc/qp).
                    (qc / qp).ln() / width
                } else {
                    // The paper's (3.1.1) drops the constant 1/(a-1): for
                    // a < 1 that constant is negative, so take the absolute
                    // difference to keep weights positive for every a.
                    (qp.powf(1.0 - a) - qc.powf(1.0 - a)).abs() / width
                }
            }
            Spatial::PositionPower { a } => {
                // Average f(i) = i^-a over positions q_prev+1 ..= q.
                let width = (q - q_prev) as f64;
                let sum: f64 = (q_prev + 1..=q).map(|i| (i as f64).powf(-a)).sum();
                sum / width
            }
        }
    }
}

/// Per-site precomputed sampling tables for a [`Spatial`] distribution on a
/// concrete topology.
///
/// The tables are a handful of flat row-major arrays, one row per site in
/// the order of [`Topology::sites`], and everything inside them is a
/// *position* in that list rather than a node id, so the engine's dense
/// site index goes in and comes out with no search on either side. A row
/// holds the chooser's partners sorted by `(distance, id)` — the paper's
/// sorted list — as cumulative probabilities, plus a *guide table* that
/// makes the inverse-CDF draw `O(1)`: with `G` the power of two at or above
/// the row length, `guide[k]` counts the cumulative values below `k/G`, a
/// draw `u` starts its scan at `guide[⌊u·G⌋]` and steps forward while
/// `cumulative[idx] < u` — about one step. Because `G` is a power of two,
/// `u·G`, its floor `k` and `k/G` are all exact in `f64`, so `k/G ≤ u` holds
/// exactly, the scan can only start at or before the answer, and the
/// result is `cumulative.partition_point(|c| c < u)` for every `u`: the
/// same random word selects the same partner as a binary search would.
/// `G` follows from the row length; it is not a setting.
///
/// # Example
///
/// ```
/// use epidemic_net::{topologies, PartnerSampler, Routes, Spatial};
/// use rand::SeedableRng;
///
/// let topo = topologies::ring(12);
/// let routes = Routes::compute(&topo);
/// let sampler = PartnerSampler::new(&topo, &routes, Spatial::QsPower { a: 2.0 });
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let from = topo.sites()[0];
/// // Nearby sites are strongly preferred under a = 2.
/// let near = sampler.probability(from, topo.sites()[1]);
/// let far = sampler.probability(from, topo.sites()[6]);
/// assert!(near > far);
/// let p = sampler.sample(from, &mut rng);
/// assert_ne!(p, from);
/// ```
#[derive(Debug, Clone)]
pub struct PartnerSampler {
    /// [`Topology::sites`]: position → node id, for the `SiteId` forms.
    sites: Vec<SiteId>,
    /// Node id → position in `sites` (which is its row); [`NO_ROW`] for
    /// relay nodes.
    row_of: Vec<u32>,
    /// Partners per row: every site but the chooser.
    len: usize,
    /// `G`, the guide cells per row: the power of two at or above `len`.
    cells: usize,
    /// `len` per row: cumulative probabilities in `(distance, id)` order,
    /// normalized so the last is 1.0 up to rounding.
    cumulative: Vec<f64>,
    /// `len` per row: the partner's position in `sites`, in the same order.
    partners: Vec<u16>,
    /// `cells + 1` per row: `guide[k] = #{c in the row : c < k/G}`, capped
    /// at `len - 1` so a draw beyond a last value that rounded below 1.0
    /// lands on the last partner, as the clamp after a binary search would.
    guide: Vec<u16>,
}

/// `row_of` value of a relay node.
const NO_ROW: u32 = u32::MAX;

impl PartnerSampler {
    /// Builds sampling tables for every site of `topology`.
    ///
    /// Rows are built without a comparison sort or a per-row allocation:
    /// partners are bucketed by distance (at most the routes' diameter),
    /// and since sites are visited in ascending order, bucket order *is*
    /// `(distance, id)` order.
    ///
    /// # Panics
    ///
    /// Panics if the topology has fewer than two sites (there is no one to
    /// gossip with) or more than 2¹⁶ (positions are stored as `u16`; the
    /// tables are quadratic in the site count and would pass 30 GB there).
    pub fn new(topology: &Topology, routes: &Routes, spatial: Spatial) -> Self {
        assert!(
            topology.site_count() >= 2,
            "partner sampling requires at least two sites"
        );
        let sites = topology.sites();
        let rows = sites.len();
        assert!(
            rows <= usize::from(u16::MAX) + 1,
            "partner tables hold site positions as u16"
        );
        let len = rows - 1;
        let cells = len.next_power_of_two();
        let mut row_of = vec![NO_ROW; topology.node_count()];
        for (row, s) in sites.iter().enumerate() {
            row_of[s.as_usize()] = row as u32;
        }
        let mut cumulative = Vec::with_capacity(rows * len);
        let mut partners = Vec::with_capacity(rows * len);
        let mut guide = Vec::with_capacity(rows * (cells + 1));

        // Scratch shared by every row: where each distance's bucket ends,
        // the row as (distance, position) in bucket order, and its weights.
        let mut bucket_end = vec![0usize; routes.diameter() as usize + 1];
        let mut by_distance = vec![(0u32, 0u16); len];
        let mut weights = vec![0.0f64; len];
        for (row, &s) in sites.iter().enumerate() {
            let others = || (0..rows).filter(|&t| t != row);
            bucket_end.fill(0);
            for t in others() {
                bucket_end[routes.distance(s, sites[t]) as usize] += 1;
            }
            let mut end = 0;
            for slot in bucket_end.iter_mut() {
                // Start of the bucket for now; the placement loop below
                // advances it to the bucket's end.
                end += std::mem::replace(slot, end);
            }
            for t in others() {
                let d = routes.distance(s, sites[t]);
                let slot = &mut bucket_end[d as usize];
                by_distance[*slot] = (d, t as u16);
                *slot += 1;
            }
            debug_assert!(by_distance.windows(2).all(|w| w[0] < w[1]));

            let mut i = 0;
            let mut q_prev = 0usize; // Q(d-1)
            while i < len {
                let d = by_distance[i].0;
                let q = bucket_end[d as usize]; // Q(d)
                weights[i..q].fill(spatial.weight(d, q_prev, q));
                q_prev = q;
                i = q;
            }
            let total: f64 = weights.iter().sum();
            debug_assert!(total.is_finite() && total > 0.0);
            let mut acc = 0.0;
            let row_start = cumulative.len();
            for (&(_, t), w) in by_distance.iter().zip(&weights) {
                acc += w / total;
                cumulative.push(acc);
                partners.push(t);
            }

            // One merge pass over the (ascending) row fills the guide.
            let row_cumulative = &cumulative[row_start..];
            let mut below = 0;
            for k in 0..=cells {
                let edge = k as f64 / cells as f64;
                while below < len && row_cumulative[below] < edge {
                    below += 1;
                }
                guide.push(below.min(len - 1) as u16);
            }
        }
        PartnerSampler {
            sites: sites.to_vec(),
            row_of,
            len,
            cells,
            cumulative,
            partners,
            guide,
        }
    }

    /// Draws a partner for the site at position `from` of
    /// [`Topology::sites`] and returns the partner's position: the form
    /// the simulators use, one random word and no search.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not a position of the site list.
    pub fn sample_position<R: Rng + ?Sized>(&self, from: usize, rng: &mut R) -> usize {
        let cumulative = self.cumulative(from);
        let guide = &self.guide[from * (self.cells + 1)..][..self.cells + 1];
        let u: f64 = rng.random();
        // `cells` is a power of two, so the product and its floor are
        // exact: `k / cells <= u`, and `guide[k]` is at or before the answer.
        let k = (u * self.cells as f64) as usize;
        let mut idx = guide[k] as usize;
        while idx + 1 < self.len && cumulative[idx] < u {
            idx += 1;
        }
        debug_assert_eq!(
            idx,
            cumulative.partition_point(|&c| c < u).min(self.len - 1),
            "guide draw left the inverse CDF at u = {u}"
        );
        self.partners(from)[idx] as usize
    }

    /// Draws a partner for `from` according to the distribution: the
    /// [`SiteId`] form of [`PartnerSampler::sample_position`].
    ///
    /// # Panics
    ///
    /// Panics if `from` is a relay node rather than a database site.
    pub fn sample<R: Rng + ?Sized>(&self, from: SiteId, rng: &mut R) -> SiteId {
        self.sites[self.sample_position(self.row(from), rng)]
    }

    /// The probability that `from` selects `to` on one draw. Zero if `to`
    /// is `from` itself or a relay.
    ///
    /// # Panics
    ///
    /// Panics if `from` is a relay node.
    pub fn probability(&self, from: SiteId, to: SiteId) -> f64 {
        let row = self.row(from);
        let cumulative = self.cumulative(row);
        self.partners(row)
            .iter()
            .position(|&t| self.sites[t as usize] == to)
            .map(|i| {
                let lo = if i == 0 { 0.0 } else { cumulative[i - 1] };
                cumulative[i] - lo
            })
            .unwrap_or(0.0)
    }

    /// The position of `site` in [`Topology::sites`], `None` for a relay.
    pub(crate) fn position(&self, site: SiteId) -> Option<usize> {
        match self.row_of[site.as_usize()] {
            NO_ROW => None,
            row => Some(row as usize),
        }
    }

    /// The cumulative probabilities of the row of the site at position
    /// `from`, in `(distance, id)` order of its partners — what a draw is
    /// inverted against (exposed for tests and benchmarks that compare the
    /// draw with a binary search over the same row).
    pub fn cumulative(&self, from: usize) -> &[f64] {
        &self.cumulative[from * self.len..][..self.len]
    }

    /// The partners of the site at position `from`, as positions of
    /// [`Topology::sites`], in the order of [`PartnerSampler::cumulative`].
    pub fn partners(&self, from: usize) -> &[u16] {
        &self.partners[from * self.len..][..self.len]
    }

    /// The site at `position` of [`Topology::sites`].
    pub(crate) fn site(&self, position: usize) -> SiteId {
        self.sites[position]
    }

    fn row(&self, from: SiteId) -> usize {
        self.position(from)
            .expect("relay nodes do not select partners")
    }
}

/// Expected conversations per anti-entropy round crossing a cut that
/// separates `n1` from `n2` sites under *uniform* partner selection (§3.1).
///
/// Each of the `n1` sites picks a partner across the cut with probability
/// `n2/(n1+n2-1)` and vice versa; the paper quotes the large-n form
/// `2·n1·n2/(n1+n2)`, which this returns.
///
/// # Example
///
/// ```
/// use epidemic_net::expected_cut_conversations;
/// // The paper's CIN figures: tens in Europe, several hundred in NA → ~80.
/// let t = expected_cut_conversations(30.0, 220.0);
/// assert!((t - 52.8).abs() < 0.1);
/// ```
pub fn expected_cut_conversations(n1: f64, n2: f64) -> f64 {
    2.0 * n1 * n2 / (n1 + n2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topologies;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sampler(spatial: Spatial) -> (crate::Topology, PartnerSampler) {
        let topo = topologies::line(20);
        let routes = Routes::compute(&topo);
        let s = PartnerSampler::new(&topo, &routes, spatial);
        (topo, s)
    }

    #[test]
    fn probabilities_sum_to_one() {
        for spatial in [
            Spatial::Uniform,
            Spatial::DistancePower { a: 2.0 },
            Spatial::QsPower { a: 1.0 },
            Spatial::QsPower { a: 2.0 },
            Spatial::PositionPower { a: 2.0 },
        ] {
            let (topo, s) = sampler(spatial);
            for &from in topo.sites() {
                let total: f64 = topo.sites().iter().map(|&to| s.probability(from, to)).sum();
                assert!((total - 1.0).abs() < 1e-9, "{spatial:?}: {total}");
            }
        }
    }

    #[test]
    fn uniform_is_uniform() {
        let (topo, s) = sampler(Spatial::Uniform);
        let from = topo.sites()[0];
        let expected = 1.0 / 19.0;
        for &to in &topo.sites()[1..] {
            assert!((s.probability(from, to) - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn qs_power_prefers_near_sites_monotonically() {
        let (topo, s) = sampler(Spatial::QsPower { a: 2.0 });
        let from = topo.sites()[0];
        let probs: Vec<f64> = topo.sites()[1..]
            .iter()
            .map(|&t| s.probability(from, t))
            .collect();
        for w in probs.windows(2) {
            assert!(w[0] >= w[1] - 1e-12, "{probs:?}");
        }
        assert!(probs[0] > probs[18] * 10.0);
    }

    #[test]
    fn qs_power_a2_matches_closed_form() {
        // For a=2 the (3.1.1) weight reduces to 1/((Q(d-1)+1)(Q(d)+1)).
        let (_, s) = sampler(Spatial::QsPower { a: 2.0 });
        // Site 0 on a line: exactly one site at each distance d ≥ 1, so
        // Q(d) = d and the weight at distance d is 1/(d(d+1)).
        let from = SiteId::new(0);
        let w = |d: usize| 1.0 / ((d as f64) * (d as f64 + 1.0));
        let total: f64 = (1..=19).map(w).sum();
        for d in 1..=19usize {
            let to = SiteId::new(d as u32);
            let got = s.probability(from, to);
            assert!((got - w(d) / total).abs() < 1e-12, "d={d}");
        }
    }

    #[test]
    fn sampling_matches_probabilities_empirically() {
        let (topo, s) = sampler(Spatial::QsPower { a: 1.4 });
        let from = topo.sites()[9]; // middle of the line
        let mut rng = StdRng::seed_from_u64(123);
        let n = 200_000;
        let mut counts = vec![0usize; topo.node_count()];
        for _ in 0..n {
            counts[s.sample(from, &mut rng).as_usize()] += 1;
        }
        assert_eq!(counts[from.as_usize()], 0);
        for &to in topo.sites() {
            let expected = s.probability(from, to);
            let observed = counts[to.as_usize()] as f64 / n as f64;
            assert!(
                (observed - expected).abs() < 0.01,
                "{to}: {observed} vs {expected}"
            );
        }
    }

    #[test]
    fn guide_is_its_definition_on_power_of_two_cells() {
        // The exactness of the draw rests on `cells` being a power of two
        // (see `PartnerSampler`): pin that, and the merge pass that fills
        // the guide against one binary search per cell.
        for sites in [2usize, 3, 5, 6, 20, 33, 34] {
            let topo = topologies::line(sites);
            let routes = Routes::compute(&topo);
            let s = PartnerSampler::new(&topo, &routes, Spatial::QsPower { a: 1.2 });
            let len = sites - 1;
            assert_eq!(s.cells, len.next_power_of_two());
            assert_eq!(s.guide.len(), sites * (s.cells + 1));
            for row in 0..sites {
                let guide = &s.guide[row * (s.cells + 1)..][..s.cells + 1];
                for (k, &start) in guide.iter().enumerate() {
                    let edge = k as f64 / s.cells as f64;
                    let below = s.cumulative(row).partition_point(|&c| c < edge);
                    assert_eq!(start as usize, below.min(len - 1), "row {row}, cell {k}");
                }
            }
        }
    }

    #[test]
    fn relay_nodes_are_never_sampled() {
        let topo = topologies::figure1(5);
        let routes = Routes::compute(&topo);
        let s = PartnerSampler::new(&topo, &routes, Spatial::QsPower { a: 2.0 });
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..2_000 {
            let from = topo.sites()[0];
            assert!(topo.is_site(s.sample(from, &mut rng)));
        }
    }

    #[test]
    fn a_equals_one_limit_is_finite() {
        let (topo, s) = sampler(Spatial::QsPower { a: 1.0 });
        let from = topo.sites()[0];
        let total: f64 = topo.sites().iter().map(|&t| s.probability(from, t)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least two sites")]
    fn single_site_panics() {
        let mut b = crate::TopologyBuilder::new();
        b.add_site("only");
        let topo = b.build().unwrap();
        let routes = Routes::compute(&topo);
        PartnerSampler::new(&topo, &routes, Spatial::Uniform);
    }

    #[test]
    fn cut_formula_matches_paper_magnitude() {
        // "about 80 conversations" across the transatlantic cut with tens
        // in Europe and several hundred in North America.
        let t = expected_cut_conversations(50.0, 250.0);
        assert!((t - 83.33).abs() < 0.01);
    }
}

impl std::fmt::Display for Spatial {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Spatial::Uniform => write!(f, "uniform"),
            Spatial::DistancePower { a } => write!(f, "d^-{a}"),
            Spatial::QsPower { a } => write!(f, "Qs(d)^-{a}"),
            Spatial::PositionPower { a } => write!(f, "pos^-{a} (exact)"),
        }
    }
}

/// The cumulative-distance function `Q_s(d)` of §3 for one site: the
/// number of *sites* (the chooser excluded) within each distinct distance,
/// as `(d, Q_s(d))` pairs in increasing `d`.
///
/// # Example
///
/// ```
/// use epidemic_net::{cumulative_sites, topologies, Routes};
/// let topo = topologies::line(5);
/// let routes = Routes::compute(&topo);
/// let q = cumulative_sites(&topo, &routes, topo.sites()[0]);
/// assert_eq!(q, vec![(1, 1), (2, 2), (3, 3), (4, 4)]);
/// ```
pub fn cumulative_sites(topology: &Topology, routes: &Routes, site: SiteId) -> Vec<(u32, usize)> {
    let mut distances: Vec<u32> = topology
        .sites()
        .iter()
        .filter(|&&t| t != site)
        .map(|&t| routes.distance(site, t))
        .collect();
    distances.sort_unstable();
    let mut out: Vec<(u32, usize)> = Vec::new();
    for (count, d) in distances.into_iter().enumerate() {
        match out.last_mut() {
            Some(last) if last.0 == d => last.1 = count + 1,
            _ => out.push((d, count + 1)),
        }
    }
    out
}

#[cfg(test)]
mod q_tests {
    use super::*;
    use crate::topologies;

    #[test]
    fn q_counts_grid_neighborhoods() {
        // On a 2-D mesh Q_s(d) grows ~quadratically from the center.
        let topo = topologies::grid(&[5, 5]);
        let routes = Routes::compute(&topo);
        let center = topo.sites()[12];
        let q = cumulative_sites(&topo, &routes, center);
        assert_eq!(q[0], (1, 4)); // four direct neighbors
        assert_eq!(q[1], (2, 12)); // 4 + 8 at distance two
        assert_eq!(q.last().unwrap().1, 24);
    }

    #[test]
    fn q_is_strictly_increasing() {
        let net = topologies::cin(&topologies::CinConfig::default());
        let routes = Routes::compute(&net.topology);
        let q = cumulative_sites(&net.topology, &routes, net.europe[0]);
        for w in q.windows(2) {
            assert!(w[0].0 < w[1].0 && w[0].1 < w[1].1);
        }
        assert_eq!(q.last().unwrap().1, net.topology.site_count() - 1);
    }

    #[test]
    fn display_labels() {
        assert_eq!(Spatial::Uniform.to_string(), "uniform");
        assert_eq!(Spatial::QsPower { a: 2.0 }.to_string(), "Qs(d)^-2");
    }
}
