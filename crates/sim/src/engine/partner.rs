//! Partner-selection policies for the [`CycleEngine`](super::CycleEngine).
//!
//! A [`PartnerPolicy`] produces exactly one candidate partner per call —
//! the engine layers connection limits and hunting (retry draws) on top,
//! so the *same* limit/hunt logic serves uniform mixing and topology-aware
//! spatial selection. Each `attempt` consumes exactly the RNG draws the
//! historical drivers consumed, which is what keeps the engine port
//! byte-identical to the pre-engine simulators.

use epidemic_db::SiteId;
use epidemic_net::PartnerSelection;
use rand::rngs::StdRng;
use rand::RngExt;

/// A source of candidate gossip partners for the engine's contact loop.
///
/// `attempt` draws one candidate for initiator `i` (a dense site index,
/// never `i` itself). The engine calls it once per hunting attempt; a
/// policy must not loop internally.
pub trait PartnerPolicy {
    /// Draws one candidate partner index for initiator `i`.
    fn attempt(&self, i: usize, rng: &mut StdRng) -> usize;
}

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

impl PartnerPolicy for UniformPartners {
    fn attempt(&self, i: usize, rng: &mut StdRng) -> usize {
        let mut j = rng.random_range(0..self.n - 1);
        if j >= i {
            j += 1;
        }
        j
    }
}

/// Topology-aware selection: delegates to any
/// [`PartnerSelection`] strategy (flat
/// [`Spatial`](epidemic_net::Spatial) distributions, the §4 hierarchy, …).
/// A strategy answers in positions of the topology's site list, which *is*
/// the dense replica index the engine works with, so nothing is mapped.
#[derive(Debug, Clone, Copy)]
pub struct SpatialPartners<'a, S> {
    sites: &'a [SiteId],
    sampler: &'a S,
}

impl<'a, S: PartnerSelection> SpatialPartners<'a, S> {
    /// Wraps `sampler`, built on the topology whose site list is `sites`.
    pub fn new(sites: &'a [SiteId], sampler: &'a S) -> Self {
        SpatialPartners { sites, sampler }
    }
}

impl<S: PartnerSelection> PartnerPolicy for SpatialPartners<'_, S> {
    fn attempt(&self, i: usize, rng: &mut StdRng) -> usize {
        let j = self.sampler.select(i, rng);
        debug_assert!(j < self.sites.len() && j != i);
        j
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epidemic_net::{topologies, PartnerSampler, Routes, Spatial};
    use rand::SeedableRng;

    #[test]
    fn uniform_never_returns_self_and_covers_everyone() {
        let policy = UniformPartners::new(5);
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = [false; 5];
        for _ in 0..200 {
            let j = policy.attempt(2, &mut rng);
            assert_ne!(j, 2);
            seen[j] = true;
        }
        assert!(seen.iter().enumerate().all(|(i, &s)| s || i == 2));
    }

    #[test]
    fn uniform_matches_the_historical_skip_self_idiom() {
        let policy = UniformPartners::new(7);
        let mut a = StdRng::seed_from_u64(11);
        let mut b = StdRng::seed_from_u64(11);
        for i in 0..7 {
            let expected = {
                let mut j = b.random_range(0..6);
                if j >= i {
                    j += 1;
                }
                j
            };
            assert_eq!(policy.attempt(i, &mut a), expected);
        }
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
        let policy = SpatialPartners::new(topo.sites(), &sampler);
        let mut rng = StdRng::seed_from_u64(5);
        for i in 0..8 {
            let j = policy.attempt(i, &mut rng);
            assert!(j < 8);
            assert_ne!(j, i, "PartnerSelection never returns the chooser");
        }
    }
}
