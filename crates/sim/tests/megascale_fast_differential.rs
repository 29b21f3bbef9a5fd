//! Differential property tests pinning the megascale fast path to its
//! executable specification, in the style of
//! `crates/sim/tests/engine_reference_merge.rs`.
//!
//! The fast path ([`FastRumorProtocol`] on the [`ActiveCycleEngine`]) and
//! the naive reference loop ([`reference`], below) implement the same
//! counter-RNG contract — partner then feedback coin from a private
//! `(seed, cycle, site)` stream, asynchronous usefulness judgment in
//! ascending roster order — so they must agree *exactly*, not just
//! statistically:
//!
//! * equal [`EpidemicResult`]s for every `(n, k, seed)` tried, uniform
//!   and scale-free;
//! * a materialized [`LazyTable`] row exactly where the reference's
//!   eager replicas record a first receipt, with the same cycle stamp;
//! * engine totals equal to the contact-by-contact accumulation over the
//!   observer event stream.

use epidemic_db::LazyTable;
use epidemic_net::DegreeGraph;
use epidemic_sim::engine::{ActiveCycleEngine, ContactStats, Observer};
use epidemic_sim::megascale::FastRumorProtocol;
use epidemic_sim::EpidemicResult;
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
    /// log the fast path's materialized table is compared against.
    #[derive(Debug, Clone)]
    pub struct ReferenceRun {
        /// Result under the mixing drivers' conventions.
        pub result: EpidemicResult,
        /// First-receipt cycle per site (site 0 at cycle 0).
        pub received: ReceiveLog,
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
        ReferenceRun { result, received }
    }
}

#[derive(Default)]
struct EventLog {
    events: Vec<ContactStats>,
}

impl<P: ?Sized> Observer<P> for EventLog {
    fn on_contact(&mut self, _cycle: u32, _i: usize, _j: usize, stats: &ContactStats) {
        self.events.push(*stats);
    }
}

struct FastRun {
    result: EpidemicResult,
    table: LazyTable<()>,
    totals_match_events: bool,
}

fn run_fast(mut protocol: FastRumorProtocol<'_>, seed: u64) -> FastRun {
    let mut log = EventLog::default();
    let report = ActiveCycleEngine::new()
        .max_cycles(100_000)
        .run(&mut protocol, seed, &mut log);
    let contacts = log.events.len() as u64;
    let sent: u64 = log.events.iter().map(|e| e.sent).sum();
    let useful: u64 = log.events.iter().map(|e| e.useful).sum();
    let fruitless = log.events.iter().filter(|e| e.useful == 0).count() as u64;
    let totals_match_events = report.totals.contacts == contacts
        && report.totals.sent == sent
        && report.totals.useful == useful
        && report.totals.fruitless == fruitless;
    FastRun {
        result: protocol.result(&report),
        table: protocol.table().clone(),
        totals_match_events,
    }
}

/// Receipt cycles by site, `None` for sites that never received — the
/// common denominator between the fast path's table and the reference's
/// receive log.
fn receipts_of_table(table: &LazyTable<()>) -> Vec<Option<u32>> {
    let mut receipts = vec![None; table.site_count()];
    for (site, _value, cycle) in table.rows() {
        assert!(
            receipts[site as usize].is_none(),
            "site {site} materialized twice"
        );
        receipts[site as usize] = Some(cycle);
    }
    receipts
}

fn assert_fast_matches_reference(
    fast: &FastRun,
    spec: &reference::ReferenceRun,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(fast.result, spec.result, "summary results differ");
    let receipts = receipts_of_table(&fast.table);
    prop_assert_eq!(
        receipts.as_slice(),
        spec.received.times(),
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
        let fast = run_fast(FastRumorProtocol::uniform(n, k), seed);
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
        let fast = run_fast(FastRumorProtocol::scale_free(&graph, k), seed);
        assert_fast_matches_reference(&fast, &spec)?;
    }
}
