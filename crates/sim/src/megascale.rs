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
//! An eager run pays two costs proportional to `n`: it materializes a full
//! [`Replica`](epidemic_core::Replica) per site before the first contact,
//! and a sequential RNG stream forces a full-roster walk every cycle. Both
//! are pure overhead for a single-update epidemic, where a susceptible
//! site holds no data and an idle site draws nothing.
//! [`FastRumorProtocol`] + [`ActiveCycleEngine`] avoid them:
//!
//! * per-site state is three bits (`has_entry`, `hot`, and their
//!   start-of-cycle snapshots) plus a `(site, cycle)` [`LazyTable`] row
//!   written at first receipt: every buffer is sized once, and resident
//!   memory follows *receipts*, not fleet size;
//! * contacts draw from the counter-based [`rand::rngs::ContactRng`], a
//!   pure function of `(seed, cycle, site)`, so the engine visits only
//!   the hot sites, in one ascending pass;
//! * contacts are judged *asynchronously* — a push is useful iff the
//!   partner lacks the entry at execution time, so two pushes reaching
//!   the same susceptible site in one cycle score one useful and one
//!   fruitless-plus-coin-toss. The random choices (partner, then coin)
//!   come from the contact's private stream, so the judgment changes no
//!   draw.
//!
//! The protocol is pinned exactly against a naive eager loop over real
//! replicas with the same RNG contract (the reference in
//! `crates/sim/tests/megascale_fast_differential.rs`), and statistically
//! (5σ) against the sequential-stream
//! [`SpatialSim::mixing`](crate::spatial::SpatialSim::mixing) of Tables 1–3, where
//! the RNG contract legitimately differs.

use epidemic_db::LazyTable;
use epidemic_net::{DegreeGraph, PartnerSelection};
use epidemic_trace::Sir;
use rand::rngs::ContactRng;
use rand::RngExt;

use crate::bitset::BitSet;
use crate::engine::{
    ActiveCycleEngine, ActiveSetProtocol, ContactStats, EngineReport, Observer, Partners, SirView,
    UniformPartners,
};
use crate::mixing::EpidemicResult;

/// Coin-removal loss rate `k` of the fixed sweep protocol.
const COIN_K: u32 = 4;

/// Single-update rumor epidemics at 10⁴–10⁶ sites; see the module docs.
#[derive(Debug, Clone, Copy)]
pub struct MegascaleSim<'g> {
    /// The contact graph; `None` is complete mixing over `n` sites.
    graph: Option<&'g DegreeGraph>,
    n: usize,
    engine: ActiveCycleEngine,
}

impl MegascaleSim<'static> {
    /// Epidemics over `n` uniformly mixing sites.
    pub fn uniform(n: usize) -> Self {
        MegascaleSim {
            graph: None,
            n,
            engine: ActiveCycleEngine::new().max_cycles(100_000),
        }
    }
}

impl<'g> MegascaleSim<'g> {
    /// Epidemics over the sites of `graph`, each initiator gossiping with
    /// a uniform random neighbor. The update starts at site 0 — a member
    /// of the Barabási–Albert seed clique, so scale-free runs start from
    /// the well-connected core.
    pub fn scale_free(graph: &'g DegreeGraph) -> Self {
        MegascaleSim {
            graph: Some(graph),
            ..MegascaleSim::uniform(graph.site_count())
        }
    }

    /// Safety bound on simulated cycles.
    #[must_use]
    pub fn max_cycles(mut self, max: u32) -> Self {
        self.engine = self.engine.max_cycles(max);
        self
    }

    /// One epidemic of the fixed sweep protocol — push, feedback, coin
    /// removal with `k = 4`, high-coverage and cheap per contact, so the
    /// interesting variation is scale and topology — on active-set
    /// iteration, counter-based RNG and lazy site rows (see the module
    /// docs), streaming the run through `observer` (`&mut ()` for none).
    /// Observers never touch the RNG, so the result is identical to the
    /// unobserved run's.
    ///
    /// # Panics
    ///
    /// Panics if a uniform simulator has fewer than two sites, or a site of
    /// the graph has no neighbors.
    pub fn run<O: Observer<FastRumorProtocol<'g>>>(
        &self,
        seed: u64,
        observer: &mut O,
    ) -> EpidemicResult {
        let mut protocol = match self.graph {
            Some(graph) => FastRumorProtocol::scale_free(graph, COIN_K),
            None => FastRumorProtocol::uniform(self.n, COIN_K),
        };
        let report = self.engine.run(&mut protocol, seed, observer);
        protocol.result(&report)
    }
}

/// The single-update push/feedback/coin rumor epidemic, restated over
/// bitsets and a [`LazyTable`] for the [`ActiveCycleEngine`]; see the
/// module docs for the contract.
///
/// S/I/R is encoded exactly as in the paper's protocols: susceptible =
/// no entry, infective = entry and hot, removed = entry but not hot.
#[derive(Debug, Clone)]
pub struct FastRumorProtocol<'a> {
    /// The classic skip-self uniform draw, or a uniform random neighbor:
    /// one [`ContactRng`] draw either way.
    partners: Partners<'a, DegreeGraph>,
    k: u32,
    /// Sites that hold the update (I ∪ R).
    has_entry: BitSet,
    /// Sites actively spreading the update (I).
    hot: BitSet,
    /// Start-of-cycle snapshot of `hot`: the cycle's roster.
    hot0: BitSet,
    /// Materialized rows: `(site, receipt cycle)`, write order; the one
    /// update's value is implicit.
    table: LazyTable<()>,
}

impl<'a> FastRumorProtocol<'a> {
    /// An epidemic over `n` uniformly mixing sites with coin loss rate
    /// `k`, seeded with the update at site 0 (cycle 0).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `n > 2³²`.
    pub fn uniform(n: usize, k: u32) -> FastRumorProtocol<'static> {
        FastRumorProtocol::with_partners(Partners::Uniform(UniformPartners::new(n)), n, k)
    }

    /// An epidemic over the sites of `graph` with coin loss rate `k`,
    /// partners drawn uniformly from the initiator's neighbors, seeded
    /// with the update at site 0.
    ///
    /// # Panics
    ///
    /// Panics if any site of `graph` has no neighbors — an isolated
    /// initiator would have no partner to draw — or if it has more than
    /// 2³² sites.
    pub fn scale_free(graph: &'a DegreeGraph, k: u32) -> FastRumorProtocol<'a> {
        let n = graph.site_count();
        if let Some(i) = (0..n).find(|&i| graph.neighbors(i).is_empty()) {
            panic!("site {i} has no neighbors to gossip with");
        }
        FastRumorProtocol::with_partners(Partners::Drawn(graph), n, k)
    }

    fn with_partners(
        partners: Partners<'_, DegreeGraph>,
        n: usize,
        k: u32,
    ) -> FastRumorProtocol<'_> {
        assert!(n as u64 <= 1 << 32, "{n} sites overflow a u32 site index");
        let mut protocol = FastRumorProtocol {
            partners,
            k,
            has_entry: BitSet::new(n),
            hot: BitSet::new(n),
            hot0: BitSet::new(n),
            table: LazyTable::new(n),
        };
        protocol.has_entry.set(0, true);
        protocol.hot.set(0, true);
        protocol.table.push(0, (), 0);
        protocol
    }

    /// The materialized site rows: who received the update, and when —
    /// one row per infected site, in receipt order.
    pub fn table(&self) -> &LazyTable<()> {
        &self.table
    }

    /// Summarizes a finished run under the [`EpidemicResult`] conventions
    /// of the mixing drivers (residue and `t_ave`/`t_last` come from the
    /// table, traffic from the engine totals).
    pub fn result(&self, report: &EngineReport) -> EpidemicResult {
        let n = self.table.site_count();
        // Never empty: the origin's row is pushed at construction.
        let received = self.table.len();
        let total: u64 = self.table.cycles().iter().map(|&c| u64::from(c)).sum();
        EpidemicResult {
            n,
            residue: (n - received) as f64 / n as f64,
            traffic: report.totals.sent as f64 / n as f64,
            t_ave: total as f64 / received as f64,
            t_last: f64::from(self.table.cycles().iter().copied().max().unwrap_or(0)),
            cycles: report.cycles,
            complete: received == n,
        }
    }
}

impl SirView for FastRumorProtocol<'_> {
    fn sir_counts(&self) -> Sir {
        let holders = self.has_entry.count_ones();
        let infective = self.hot.count_ones();
        Sir {
            susceptible: self.has_entry.len() - holders,
            infective,
            removed: holders - infective,
        }
    }
}

impl ActiveSetProtocol for FastRumorProtocol<'_> {
    fn site_count(&self) -> usize {
        self.has_entry.len()
    }

    fn begin_cycle(&mut self, _cycle: u32) {
        self.hot0.copy_from(&self.hot);
    }

    fn active(&self) -> &BitSet {
        &self.hot0
    }

    fn contact(&mut self, cycle: u32, i: usize, rng: &mut ContactRng) -> (usize, ContactStats) {
        let j = self.partners.select(i, rng);
        let useful = !self.has_entry.get(j);
        if useful {
            self.has_entry.set(j, true);
            self.hot.set(j, true);
            self.table.push(j as u32, (), cycle);
        } else if rng.random_bool(1.0 / f64::from(self.k.max(1))) {
            // Feedback: a fruitless push costs the initiator its coin, the
            // same draw as `rumor::record_feedback` under `Coin { k }`.
            self.hot.set(i, false);
        }
        (
            j,
            ContactStats {
                sent: 1,
                useful: u64::from(useful),
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mixing::MixingArena;
    use crate::spatial::SpatialSim;
    use epidemic_core::rumor::RumorConfig;
    use epidemic_core::{Direction, Feedback, Removal};

    #[test]
    #[cfg(target_pointer_width = "64")]
    #[should_panic(expected = "overflow a u32 site index")]
    fn a_fleet_past_two_to_the_32_sites_is_refused_up_front() {
        let _ = FastRumorProtocol::uniform((1 << 32) + 1, COIN_K);
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
    /// 1–3 (same push/feedback/coin k=4 model, same asynchronous
    /// judgment), so the two are compared statistically: over many seeds,
    /// mean residue/traffic/t_ave/t_last must agree within 5σ.
    #[test]
    fn fast_path_statistically_matches_the_sequential_stream_model() {
        fn mean_and_var(samples: &[f64]) -> (f64, f64) {
            let mean = samples.iter().sum::<f64>() / samples.len() as f64;
            let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>()
                / (samples.len() - 1) as f64;
            (mean, var)
        }
        fn assert_means_agree(name: &str, a: &[f64], b: &[f64]) {
            let (mean_a, var_a) = mean_and_var(a);
            let (mean_b, var_b) = mean_and_var(b);
            let stderr = (var_a / a.len() as f64 + var_b / b.len() as f64).sqrt();
            let diff = (mean_a - mean_b).abs();
            assert!(
                diff <= 5.0 * stderr + 1e-9,
                "{name}: |{mean_a} - {mean_b}| = {diff} > 5σ = {}",
                5.0 * stderr
            );
        }

        let n = 256;
        let sim = MegascaleSim::uniform(n);
        let trials = 60;
        let cfg = RumorConfig::new(
            Direction::Push,
            Feedback::Feedback,
            Removal::Coin { k: COIN_K },
        );
        let mixing = SpatialSim::mixing(n, cfg).synchronous(false);
        let mut arena = MixingArena::new();
        let sequential: Vec<EpidemicResult> = (0..trials)
            .map(|s| mixing.run(&mut arena, 1000 + s, &mut ()))
            .collect();
        let fast: Vec<EpidemicResult> = (0..trials).map(|s| sim.run(1000 + s, &mut ())).collect();
        for (name, get) in [
            ("residue", (|r| r.residue) as fn(&EpidemicResult) -> f64),
            ("traffic", |r| r.traffic),
            ("t_ave", |r| r.t_ave),
            ("t_last", |r| r.t_last),
        ] {
            let a: Vec<f64> = sequential.iter().map(get).collect();
            let b: Vec<f64> = fast.iter().map(get).collect();
            assert_means_agree(name, &a, &b);
        }
    }
}
