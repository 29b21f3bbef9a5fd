//! Differential property tests pinning the megascale fast path to its
//! executable specification, in the style of
//! `crates/sim/tests/engine_reference_merge.rs`.
//!
//! The fast path ([`MegascaleSim`]: `MixingProtocol`'s push arm on the
//! active-set engine) and the naive reference loop ([`reference`], below)
//! implement the same counter-RNG contract — partner then feedback coin
//! from a private `(seed, cycle, site)` stream, asynchronous usefulness
//! judgment in ascending roster order — so they must agree *exactly*, not
//! just statistically:
//!
//! * equal [`EpidemicResult`]s for every `(n, k, seed)` tried, uniform
//!   and scale-free;
//! * a useful contact to a site exactly where the reference's eager
//!   replicas record a first receipt, in the same cycle;
//! * engine totals equal to the contact-by-contact accumulation over the
//!   observer event stream.

use epidemic_net::{DegreeGraph, PartnerSelection};
use epidemic_sim::engine::{ContactStats, Observer};
use epidemic_sim::{EpidemicResult, MegascaleSim};
use epidemic_trace::TraceTotals;
use proptest::prelude::*;

mod reference {
    //! The executable specification of the fast path: the same
    //! counter-RNG, ascending-order asynchronous protocol, run as a
    //! naive eager loop over real [`Replica`]s with none of the fast
    //! path's machinery — no active-set iteration, no lazy rows, no
    //! bitsets. Partners come through the one
    //! `PartnerSelection` seam, whose draws `partner.rs`'s unit tests and
    //! `epidemic-net`'s proptests pin to their formulas.

    use epidemic_core::Replica;
    use epidemic_db::SiteId;
    use epidemic_net::{DegreeGraph, PartnerSelection};
    use epidemic_sim::engine::ReceiveLog;
    use epidemic_sim::EpidemicResult;
    use epidemic_sim::UniformPartners;
    use rand::rngs::ContactRng;
    use rand::RngExt;

    const KEY: u32 = 0;

    /// A finished reference run: the summary plus the per-site receipt
    /// cycles the fast path's useful contacts are compared against.
    #[derive(Debug, Clone)]
    pub struct ReferenceRun {
        /// Result under the mixing drivers' conventions.
        pub result: EpidemicResult,
        /// First-receipt cycle per site (site 0 at cycle 0).
        pub receipts: Vec<Option<u32>>,
    }

    /// Reference run over `n` uniformly mixing sites.
    pub fn run_uniform(n: usize, k: u32, seed: u64) -> ReferenceRun {
        run(n, k, seed, &UniformPartners::new(n))
    }

    /// Reference run over the sites of `graph`.
    pub fn run_scale_free(graph: &DegreeGraph, k: u32, seed: u64) -> ReferenceRun {
        run(graph.site_count(), k, seed, graph)
    }

    fn run<P: PartnerSelection>(n: usize, k: u32, seed: u64, partners: &P) -> ReferenceRun {
        let mut sites: Vec<Replica<u32, u32>> = (0..n)
            .map(|i| Replica::new(SiteId::new(u32::try_from(i).expect("site count fits u32"))))
            .collect();
        sites[0].client_update(KEY, 1);
        let mut received = ReceiveLog::new(n);
        received.mark(0, 0);
        let mut receipts = vec![None; n];
        receipts[0] = Some(0);

        let mut hot0 = vec![false; n];
        let mut cycle = 0u32;
        let mut sent = 0u64;
        loop {
            for (flag, site) in hot0.iter_mut().zip(sites.iter()) {
                *flag = site.is_infective(&KEY);
            }
            if !hot0.contains(&true) || cycle >= 100_000 {
                break;
            }
            cycle += 1;
            for i in 0..n {
                if !hot0[i] {
                    continue;
                }
                // The counter-RNG contract: partner first, then the
                // feedback coin, both drawn unconditionally from the
                // contact's private (seed, cycle, i) stream.
                let mut rng = ContactRng::new(seed, u64::from(cycle), i as u64);
                let j = partners.select(i, &mut rng);
                let coin = rng.random_bool(1.0 / f64::from(k.max(1)));
                sent += 1;
                let [from, to] = sites.get_disjoint_mut([i, j]).expect("two distinct sites");
                let entry = from.db().entry(&KEY).expect("hot implies entry");
                // Asynchronous judgment: useful iff the partner lacks the
                // entry right now, mid-cycle receipts included.
                let useful = to.db().entry(&KEY).is_none();
                to.receive_rumor_ref(&KEY, entry);
                if useful {
                    received.mark(j, cycle);
                    receipts[j] = Some(cycle);
                } else if coin {
                    sites[i].hot_mut().remove(&KEY);
                }
            }
        }

        let result = EpidemicResult {
            n,
            residue: received.residue(),
            traffic: sent as f64 / n as f64,
            t_ave: received.t_ave_received(),
            t_last: f64::from(received.t_last().unwrap_or(0)),
            cycles: cycle,
            complete: received.complete(),
        };
        ReferenceRun { result, receipts }
    }
}

/// Every contact of a run, and the engine's totals at its end.
#[derive(Default)]
struct EventLog {
    events: Vec<(u32, usize, ContactStats)>,
    totals: TraceTotals,
}

impl<P: ?Sized> Observer<P> for EventLog {
    fn on_contact(&mut self, cycle: u32, _i: usize, j: usize, stats: &ContactStats) {
        self.events.push((cycle, j, *stats));
    }

    fn on_run_end(&mut self, totals: &TraceTotals) {
        self.totals = *totals;
    }
}

struct FastRun {
    result: EpidemicResult,
    /// First-receipt cycle per site: the cycle of the useful push that
    /// reached it (a push's receiver is its partner `j`).
    receipts: Vec<Option<u32>>,
    totals_match_events: bool,
}

fn run_fast<S: PartnerSelection>(sim: &MegascaleSim<S>, n: usize, seed: u64) -> FastRun {
    let mut log = EventLog::default();
    let result = sim.run(seed, &mut log);
    let mut receipts = vec![None; n];
    receipts[0] = Some(0);
    for &(cycle, j, _) in log.events.iter().filter(|(_, _, e)| e.useful > 0) {
        assert!(receipts[j].is_none(), "site {j} received twice");
        receipts[j] = Some(cycle);
    }
    let sum = |f: fn(&ContactStats) -> u64| log.events.iter().map(|e| f(&e.2)).sum::<u64>();
    let events = (log.events.len() as u64, sum(|e| e.sent), sum(|e| e.useful));
    let t = log.totals;
    let totals_match_events = (t.contacts, t.sent, t.useful) == events
        && t.fruitless == sum(|e| u64::from(e.useful == 0));
    FastRun {
        result,
        receipts,
        totals_match_events,
    }
}

fn assert_fast_matches_reference(
    fast: &FastRun,
    spec: &reference::ReferenceRun,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(fast.result, spec.result, "summary results differ");
    prop_assert_eq!(
        &fast.receipts,
        &spec.receipts,
        "per-site receipt cycles differ"
    );
    prop_assert!(
        fast.totals_match_events,
        "engine totals drifted from the event stream"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fast_uniform_equals_the_reference_exactly(
        n in 2usize..400,
        k in 1u32..8,
        seed in any::<u64>(),
    ) {
        let spec = reference::run_uniform(n, k, seed);
        let fast = run_fast(&MegascaleSim::uniform(n).k(k), n, seed);
        assert_fast_matches_reference(&fast, &spec)?;
    }

    #[test]
    fn fast_scale_free_equals_the_reference_exactly(
        n in 10usize..300,
        m in 1usize..3,
        graph_seed in 0u64..1000,
        k in 1u32..8,
        seed in any::<u64>(),
    ) {
        let graph = DegreeGraph::scale_free(n, m, graph_seed);
        let spec = reference::run_scale_free(&graph, k, seed);
        let fast = run_fast(&MegascaleSim::scale_free(&graph).k(k), n, seed);
        assert_fast_matches_reference(&fast, &spec)?;
    }
}
