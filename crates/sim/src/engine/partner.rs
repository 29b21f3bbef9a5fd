//! Uniform complete mixing as a [`PartnerSelection`] strategy.
//!
//! Every driver draws partners through the one seam,
//! [`PartnerSelection`]: topology samplers, the §4 hierarchy and the
//! megascale contact graph implement it in `epidemic-net`, and
//! [`UniformPartners`] adds the §1.4 tables' uniform draw. The engine
//! calls `select` once per hunting attempt and layers connection limits
//! on top, so the *same* limit/hunt logic serves every strategy. Each
//! `select` consumes exactly the RNG draws the historical drivers
//! consumed, which is what keeps every output byte-identical.

use epidemic_net::PartnerSelection;
use rand::{Rng, RngExt};

/// Uniform complete mixing over `n` sites: every other site is equally
/// likely (the Tables 1–3 model). Uses the classic skip-self draw — one
/// `random_range(0..n-1)` per attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UniformPartners {
    n: usize,
}

impl UniformPartners {
    /// Creates the policy for a fleet of `n` sites.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` — with one site there is nobody to gossip with.
    pub fn new(n: usize) -> Self {
        assert!(n >= 2, "an epidemic needs at least two sites");
        UniformPartners { n }
    }
}

impl PartnerSelection for UniformPartners {
    fn select<R: Rng + ?Sized>(&self, from: usize, rng: &mut R) -> usize {
        let mut j = rng.random_range(0..self.n - 1);
        if j >= from {
            j += 1;
        }
        j
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epidemic_net::{topologies, PartnerSampler, Routes, Spatial};
    use rand::rngs::{ContactRng, StdRng};
    use rand::SeedableRng;

    #[test]
    fn uniform_never_returns_self_and_covers_everyone() {
        let policy = UniformPartners::new(5);
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = [false; 5];
        for _ in 0..200 {
            let j = policy.select(2, &mut rng);
            assert_ne!(j, 2);
            seen[j] = true;
        }
        assert!(seen.iter().enumerate().all(|(i, &s)| s || i == 2));
    }

    #[test]
    fn uniform_matches_the_historical_skip_self_idiom() {
        fn check<R: Rng>(mut a: R, mut b: R) {
            let policy = UniformPartners::new(7);
            for i in 0..7 {
                let expected = {
                    let mut j = b.random_range(0..6);
                    if j >= i {
                        j += 1;
                    }
                    j
                };
                assert_eq!(policy.select(i, &mut a), expected);
            }
        }
        check(StdRng::seed_from_u64(11), StdRng::seed_from_u64(11));
        check(ContactRng::new(11, 3, 5), ContactRng::new(11, 3, 5));
    }

    #[test]
    #[should_panic(expected = "two sites")]
    fn uniform_rejects_degenerate_fleets() {
        let _ = UniformPartners::new(1);
    }

    #[test]
    fn spatial_answers_in_dense_indices() {
        let topo = topologies::ring(8);
        let routes = Routes::compute(&topo);
        let sampler = PartnerSampler::new(&topo, &routes, Spatial::Uniform);
        let mut rng = StdRng::seed_from_u64(5);
        for i in 0..8 {
            let j = sampler.select(i, &mut rng);
            assert!(j < 8);
            assert_ne!(j, i, "PartnerSelection never returns the chooser");
        }
    }
}
