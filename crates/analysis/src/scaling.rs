//! Link-traffic scaling for spatial distributions on a line (paper §3).
//!
//! For sites on a line choosing partners with probability proportional to
//! `d^{-a}`, §3 gives the expected traffic per link per cycle:
//!
//! ```text
//! T(n) = O(n)          a < 1
//!        O(n / log n)  a = 1
//!        O(n^{2-a})    1 < a < 2
//!        O(log n)      a = 2
//!        O(1)          a > 2
//! ```
//!
//! while convergence time flips from polylogarithmic (a < 2) to polynomial
//! (a > 2) — making `a = 2` the sweet spot. `line_link_traffic` computes
//! the *exact* finite-n expectation so simulations can be checked against
//! the asymptotics.

/// The asymptotic class of `T(n)` for a given exponent `a` (§3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficClass {
    /// `O(n)` — too flat: most partners are far away.
    Linear,
    /// `O(n / log n)` at exactly `a = 1`.
    NearLinear,
    /// `O(n^{2-a})` for `1 < a < 2`.
    Polynomial,
    /// `O(log n)` at exactly `a = 2` — the paper's recommendation.
    Logarithmic,
    /// `O(1)` for `a > 2` — but convergence becomes polynomial in `n`.
    Constant,
}

/// Classifies the exponent `a` into its §3 traffic regime.
///
/// # Example
///
/// ```
/// use epidemic_analysis::{traffic_class, TrafficClass};
/// assert_eq!(traffic_class(2.0), TrafficClass::Logarithmic);
/// assert_eq!(traffic_class(0.5), TrafficClass::Linear);
/// ```
pub fn traffic_class(a: f64) -> TrafficClass {
    const EPS: f64 = 1e-9;
    if a < 1.0 - EPS {
        TrafficClass::Linear
    } else if (a - 1.0).abs() <= EPS {
        TrafficClass::NearLinear
    } else if a < 2.0 - EPS {
        TrafficClass::Polynomial
    } else if (a - 2.0).abs() <= EPS {
        TrafficClass::Logarithmic
    } else {
        TrafficClass::Constant
    }
}

/// Exact expected traffic per link per cycle on a line of `n` sites where
/// every site contacts one partner chosen with probability `∝ d^{-a}`.
///
/// Entry `l` of the result is the expected number of conversations
/// crossing the link between sites `l` and `l+1`.
///
/// # Panics
///
/// Panics if `n < 2`.
pub(crate) fn line_link_traffic(n: usize, a: f64) -> Vec<f64> {
    assert!(n >= 2);
    // Per-site normalizers: Z_i = Σ_{j≠i} |i-j|^-a.
    let pow: Vec<f64> = (0..n)
        .map(|d| if d == 0 { 0.0 } else { (d as f64).powf(-a) })
        .collect();
    let z: Vec<f64> = (0..n)
        .map(|i| {
            let mut zi = 0.0;
            for j in 0..n {
                zi += pow[i.abs_diff(j)];
            }
            zi
        })
        .collect();
    // Link l sits between site l and l+1; a conversation i→j crosses it
    // iff min(i,j) ≤ l < max(i,j). Accumulate with a difference array so
    // the whole computation is O(n²) rather than O(n³).
    let mut diff = vec![0.0; n];
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            let p = pow[i.abs_diff(j)] / z[i];
            let (lo, hi) = (i.min(j), i.max(j));
            diff[lo] += p;
            diff[hi] -= p;
        }
    }
    let mut load = Vec::with_capacity(n - 1);
    let mut acc = 0.0;
    for d in &diff[..n - 1] {
        acc += d;
        load.push(acc);
    }
    load
}

/// Mean of `line_link_traffic` — the `T(n)` the table tracks.
pub fn mean_line_traffic(n: usize, a: f64) -> f64 {
    let load = line_link_traffic(n, a);
    load.iter().sum::<f64>() / load.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_cover_the_exponent_axis() {
        assert_eq!(traffic_class(0.0), TrafficClass::Linear);
        assert_eq!(traffic_class(1.0), TrafficClass::NearLinear);
        assert_eq!(traffic_class(1.5), TrafficClass::Polynomial);
        assert_eq!(traffic_class(2.0), TrafficClass::Logarithmic);
        assert_eq!(traffic_class(3.0), TrafficClass::Constant);
    }

    #[test]
    fn uniform_traffic_grows_linearly() {
        // a = 0 is the uniform distribution: T(n) = Θ(n).
        let t1 = mean_line_traffic(100, 0.0);
        let t2 = mean_line_traffic(200, 0.0);
        let ratio = t2 / t1;
        assert!((ratio - 2.0).abs() < 0.15, "ratio {ratio}");
    }

    #[test]
    fn a2_traffic_grows_logarithmically() {
        let t1 = mean_line_traffic(100, 2.0);
        let t2 = mean_line_traffic(10_000, 2.0);
        // log(10000)/log(100) = 2: traffic roughly doubles, certainly
        // nowhere near the 100x of linear growth.
        let ratio = t2 / t1;
        assert!(ratio < 3.0, "ratio {ratio}");
        assert!(ratio > 1.2, "ratio {ratio}");
    }

    #[test]
    fn a3_traffic_is_bounded() {
        let t1 = mean_line_traffic(100, 3.0);
        let t2 = mean_line_traffic(10_000, 3.0);
        assert!(t2 / t1 < 1.3, "ratio {}", t2 / t1);
    }

    #[test]
    fn intermediate_exponent_is_polynomial() {
        // a = 1.5 → T(n) = Θ(n^0.5): quadrupling n doubles traffic.
        let t1 = mean_line_traffic(250, 1.5);
        let t2 = mean_line_traffic(1_000, 1.5);
        let ratio = t2 / t1;
        assert!((ratio - 2.0).abs() < 0.4, "ratio {ratio}");
    }

    #[test]
    fn middle_link_is_the_hottest_under_uniform() {
        let load = line_link_traffic(50, 0.0);
        let mid = load[24];
        assert!(mid >= load[0] && mid >= load[48]);
    }

    #[test]
    fn per_site_probabilities_sum_to_one() {
        // Total traffic equals Σ_i Σ_j p_ij · |i-j| = expected total link
        // crossings; with n sites each making one call the per-site
        // distribution must be normalized: check via a = 0 total.
        let n = 20;
        let load = line_link_traffic(n, 0.0);
        let total: f64 = load.iter().sum();
        // Under uniform choice on a line the mean distance is (n+1)/3.
        let expected = n as f64 * (n as f64 + 1.0) / 3.0 / (n as f64 - 1.0) * (n as f64 - 1.0);
        assert!(
            (total - expected).abs() / expected < 0.02,
            "{total} vs {expected}"
        );
    }
}
