//! Million-site epidemic sweeps (the `fig-megascale` experiment).
//!
//! The paper validates rumor mongering at CIN scale (n ≈ 1000–3000). The
//! complex-networks literature that followed (Moreno–Nekovee–Vespignani)
//! shows residue and delay behave qualitatively differently at 10⁵–10⁶
//! sites on heterogeneous-degree topologies — hubs both accelerate spread
//! and concentrate fruitless contacts. This driver reruns the §1.4
//! single-update rumor epidemic at that scale:
//!
//! * **uniform** — complete mixing, the Tables 1–3 model;
//! * **scale-free** — partners drawn uniformly from the initiator's
//!   neighbors on a Barabási–Albert [`DegreeGraph`].
//!
//! The protocol is fixed at the paper's workhorse variant — push, feedback,
//! coin removal with `k = 4` — so the sweep varies only scale and topology.
//!
//! An eager run would materialize a [`Replica`](epidemic_core::Replica)
//! per site, and a sequential RNG stream forces a full-roster walk every
//! cycle: pure overhead when a susceptible site holds no data and an idle
//! site draws nothing. So the sweep runs the one single-update protocol,
//! [`MixingProtocol`], on the [`ActiveCycleEngine`]:
//!
//! * a site is two bits — the receive log's mark and the active bit
//!   (coin removal keeps no interest record), each buffer sized once;
//! * contacts draw from the counter-based [`rand::rngs::ContactRng`], a
//!   pure function of `(seed, cycle, site)`, so the engine visits only
//!   the hot sites, in one ascending pass;
//! * contacts are judged *asynchronously* — a push is useful iff the
//!   partner lacks the update at execution time, so two pushes reaching
//!   the same susceptible site in one cycle score one useful and one
//!   fruitless-plus-coin-toss. The random choices (partner, then the coin
//!   of a fruitless push) come from the contact's private stream, so the
//!   judgment changes no draw.
//!
//! The push arm, its feedback and its coin are the code Tables 1–3 run;
//! only the generator differs. The run is pinned exactly against a naive
//! eager loop over real replicas with the same RNG contract
//! (`crates/sim/tests/megascale_fast_differential.rs`), and statistically
//! (5σ) against the sequential-stream
//! [`SpatialSim::mixing`](crate::spatial::SpatialSim::mixing).

use epidemic_core::rumor::RumorConfig;
use epidemic_core::{Direction, Feedback, Removal};
use epidemic_net::{DegreeGraph, PartnerSelection};

use crate::engine::protocols::{check_rumor, Mechanism, MixingProtocol, MixingState};
use crate::engine::{ActiveCycleEngine, Observer, UniformPartners};
use crate::mixing::EpidemicResult;

/// Single-update rumor epidemics at 10⁴–10⁶ sites, partners drawn by `S`
/// (one [`ContactRng`](rand::rngs::ContactRng) draw); see the module docs.
#[derive(Debug, Clone, Copy)]
pub struct MegascaleSim<S = UniformPartners> {
    partners: S,
    n: usize,
    /// Coin-removal loss rate.
    k: u32,
    engine: ActiveCycleEngine,
}

impl MegascaleSim {
    /// Epidemics over `n` uniformly mixing sites.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn uniform(n: usize) -> Self {
        MegascaleSim::over(UniformPartners::new(n), n)
    }
}

impl<'g> MegascaleSim<&'g DegreeGraph> {
    /// Epidemics over the sites of `graph`, each initiator gossiping with
    /// a uniform random neighbor. The update starts at site 0 — a member
    /// of the Barabási–Albert seed clique, so scale-free runs start from
    /// the well-connected core.
    ///
    /// # Panics
    ///
    /// Panics if a site of `graph` has no neighbors: an isolated initiator
    /// would have no partner to draw.
    pub fn scale_free(graph: &'g DegreeGraph) -> Self {
        let n = graph.site_count();
        if let Some(i) = (0..n).find(|&i| graph.neighbors(i).is_empty()) {
            panic!("site {i} has no neighbors to gossip with");
        }
        MegascaleSim::over(graph, n)
    }
}

impl<S: PartnerSelection> MegascaleSim<S> {
    /// Epidemics over `n` sites gossiping with `partners`, at `k = 4`.
    fn over(partners: S, n: usize) -> Self {
        MegascaleSim {
            partners,
            n,
            k: 4,
            engine: ActiveCycleEngine::new().max_cycles(100_000),
        }
    }

    /// The coin's loss rate: a fruitless push removes its sender with
    /// probability `1/k` (4 by default).
    #[must_use]
    pub fn k(mut self, k: u32) -> Self {
        self.k = k;
        self
    }

    /// Safety bound on simulated cycles.
    #[must_use]
    pub fn max_cycles(mut self, max: u32) -> Self {
        self.engine = self.engine.max_cycles(max);
        self
    }

    /// One epidemic of the sweep protocol — push, feedback, coin removal
    /// (`k = 4` unless [`k`](Self::k) says otherwise), high-coverage and
    /// cheap per contact, so the interesting variation is scale and
    /// topology — from site 0, on active-set iteration and counter-based
    /// RNG (see the module docs), streaming the run through `observer`
    /// (`&mut ()` for none). Observers never touch the RNG, so the result
    /// is identical to the unobserved run's.
    ///
    /// # Panics
    ///
    /// Panics, before allocating anything, if `k` is 0 or the fleet has
    /// more than 2³² sites (the engine's roster holds `u32` indices).
    pub fn run<O: Observer<MixingProtocol>>(&self, seed: u64, observer: &mut O) -> EpidemicResult {
        let n = self.n;
        assert!(n as u64 <= 1 << 32, "{n} sites overflow a u32 site index");
        let cfg = RumorConfig::new(
            Direction::Push,
            Feedback::Feedback,
            Removal::Coin { k: self.k },
        );
        check_rumor(&cfg).unwrap_or_else(|refusal| panic!("{refusal}"));
        let mechanism = Mechanism::Rumor(cfg);
        let mut protocol = MixingProtocol::new(mechanism, false, n, 0, MixingState::default());
        let report = self
            .engine
            .run(&mut protocol, &self.partners, seed, observer);
        EpidemicResult::new(report, &protocol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mixing::MixingArena;
    use crate::spatial::SpatialSim;

    #[test]
    #[cfg(target_pointer_width = "64")]
    #[should_panic(expected = "overflow a u32 site index")]
    fn a_fleet_past_two_to_the_32_sites_is_refused_up_front() {
        MegascaleSim::uniform((1 << 32) + 1).run(1, &mut ());
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn a_zero_loss_rate_is_refused() {
        MegascaleSim::uniform(8).k(0).run(1, &mut ());
    }

    #[test]
    fn fast_epidemic_reaches_nearly_everyone() {
        let uniform = MegascaleSim::uniform(500).run(11, &mut ());
        assert!(uniform.residue < 0.05, "residue {}", uniform.residue);
        assert!(uniform.cycles > 0 && uniform.t_last > 0.0);
        let graph = DegreeGraph::scale_free(500, 2, 11);
        let sf = MegascaleSim::scale_free(&graph).run(11, &mut ());
        assert!(sf.residue < 0.20, "residue {}", sf.residue);
    }

    #[test]
    fn observed_fast_run_matches_unobserved_and_aggregates() {
        let sim = MegascaleSim::uniform(300);
        let plain = sim.run(9, &mut ());
        let mut obs = epidemic_trace::AggregatingSink::new();
        let observed = sim.run(9, &mut obs);
        assert_eq!(plain, observed, "observers must not perturb the run");
        let agg = obs.finish();
        assert_eq!(agg.sites(), 300);
        assert_eq!(agg.runs(), 1);
        assert!(
            agg.delay().count() >= 250,
            "nearly every site records a delay: {}",
            agg.delay().count()
        );
        assert!((agg.totals().sent as f64 / 300.0 - plain.traffic).abs() < 1e-12);
        assert_eq!(agg.max_cycle(), u64::from(plain.cycles));
    }

    /// The counter RNG and ascending contact order are a different RNG
    /// universe from the sequential-stream [`SpatialSim::mixing`] of Tables
    /// 1–3 (same push/feedback/coin k=4 arm, same asynchronous judgment),
    /// so the two are compared statistically: over many seeds, mean
    /// residue/traffic/t_ave/t_last must agree within 5σ.
    #[test]
    fn fast_path_statistically_matches_the_sequential_stream_model() {
        let (n, seeds) = (256, 1000..1060);
        let cfg = RumorConfig::new(Direction::Push, Feedback::Feedback, Removal::Coin { k: 4 });
        let mixing = SpatialSim::mixing(n, cfg).synchronous(false);
        let mut arena = MixingArena::new();
        let sequential: Vec<_> = seeds
            .clone()
            .map(|s| mixing.run(&mut arena, s, &mut ()))
            .collect();
        let fast: Vec<_> = seeds
            .map(|s| MegascaleSim::uniform(n).run(s, &mut ()))
            .collect();
        // The mean of `get` over `runs` and its squared standard error.
        let moments = |runs: &[EpidemicResult], get: fn(&EpidemicResult) -> f64| {
            let len = runs.len() as f64;
            let mean = runs.iter().map(get).sum::<f64>() / len;
            let var = runs.iter().map(|r| (get(r) - mean).powi(2)).sum::<f64>() / (len - 1.0);
            (mean, var / len)
        };
        for (name, get) in [
            ("residue", (|r| r.residue) as fn(&EpidemicResult) -> f64),
            ("traffic", |r| r.traffic),
            ("t_ave", |r| r.t_ave),
            ("t_last", |r| r.t_last),
        ] {
            let ((a, var_a), (b, var_b)) = (moments(&sequential, get), moments(&fast, get));
            let bound = 5.0 * (var_a + var_b).sqrt() + 1e-9;
            assert!((a - b).abs() <= bound, "{name}: |{a} - {b}| > 5σ = {bound}");
        }
    }
}
