//! The engine's [`Observer`] seam for the `epidemic-trace` sinks.
//!
//! [`RunTracer`] records a run as deterministic JSONL (see
//! [`epidemic_trace::record`]), [`AggregatingSink`] folds it into a
//! bounded-memory aggregate, and [`InvariantChecker`] checks the protocol
//! invariants from [`epidemic_trace::invariant`] as the run streams by.
//! Each is an observer of any protocol implementing [`TraceView`] — every
//! engine protocol in this crate does — and they compose with each other
//! and with [`SirObserver`](super::SirObserver) through the tuple
//! observer combinators, e.g.:
//!
//! ```
//! use epidemic_core::{Direction, Feedback, Removal, RumorConfig};
//! use epidemic_sim::{MixingArena, SpatialSim};
//! use epidemic_trace::{InvariantChecker, RunTracer, TraceConfig};
//!
//! let cfg = RumorConfig::new(Direction::Push, Feedback::Feedback, Removal::Counter { k: 2 });
//! let mut trace = RunTracer::new(TraceConfig::cycles_only());
//! let mut check = InvariantChecker::default();
//! let observer = &mut (&mut trace, &mut check);
//! let result = SpatialSim::mixing(100, cfg).run(&mut MixingArena::new(), 7, observer);
//! assert_eq!(check.violation_count(), 0);
//! let jsonl = trace.finish();
//! assert!(jsonl.lines().count() as u32 >= result.cycles);
//! ```

use epidemic_trace::{AggregatingSink, InvariantChecker, RunTracer, TraceTotals};

use super::observer::{Observer, SirView};
use super::protocols::MixingProtocol;
use super::ContactStats;

/// A protocol whose state can be traced: SIR counts plus a stable
/// per-site database digest.
///
/// The digests feed the *coverage ⇒ convergence* invariant — once no site
/// is susceptible, all replicas must agree — so two sites holding the same
/// data must digest equal, and (up to hash collisions) divergent sites
/// must digest differently. They are only computed when that invariant can
/// fire (susceptible count zero), never in the hot path.
pub trait TraceView: SirView {
    /// Appends one digest per site to `out` (site order).
    fn site_digests(&self, out: &mut Vec<u64>);
}

impl TraceView for MixingProtocol {
    /// A single-update run's one bit of database per site: whether it
    /// holds the update.
    fn site_digests(&self, out: &mut Vec<u64>) {
        let received = &self.state.received;
        out.extend((0..received.site_count()).map(|i| u64::from(received.is_marked(i))));
    }
}

impl<P: SirView + ?Sized> Observer<P> for RunTracer {
    fn on_run_start(&mut self, protocol: &P) {
        self.run_start(protocol.sir_counts());
    }

    fn on_contact(&mut self, cycle: u32, i: usize, j: usize, stats: &ContactStats) {
        self.contact(
            u64::from(cycle),
            i as u64,
            j as u64,
            stats.sent,
            stats.useful,
        );
    }

    fn on_cycle_end(&mut self, cycle: u32, protocol: &P) {
        self.cycle(u64::from(cycle), protocol.sir_counts());
    }
}

impl<P: SirView + ?Sized> Observer<P> for AggregatingSink {
    fn on_run_start(&mut self, protocol: &P) {
        self.run_start(protocol.sir_counts());
    }

    fn on_contact(&mut self, cycle: u32, i: usize, j: usize, stats: &ContactStats) {
        self.contact(cycle, i, j, stats.sent, stats.useful);
    }

    fn on_cycle_end(&mut self, cycle: u32, protocol: &P) {
        self.cycle(cycle, protocol.sir_counts());
    }
}

impl<P: TraceView + ?Sized> Observer<P> for InvariantChecker {
    fn on_run_start(&mut self, protocol: &P) {
        self.start(protocol.sir_counts());
    }

    fn on_contact(&mut self, cycle: u32, _i: usize, _j: usize, stats: &ContactStats) {
        self.contact(u64::from(cycle), stats.sent, stats.useful);
    }

    fn on_cycle_end(&mut self, cycle: u32, protocol: &P) {
        self.cycle(u64::from(cycle), protocol.sir_counts(), |out| {
            protocol.site_digests(out)
        });
    }

    fn on_run_end(&mut self, totals: &TraceTotals) {
        self.finish(*totals);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{CycleEngine, EngineBuffers, EpidemicProtocol, Roster, UniformPartners};
    use epidemic_trace::Sir;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Compile-time proof that every engine protocol is traceable.
    #[test]
    fn every_engine_protocol_implements_trace_view() {
        fn assert_traceable<P: TraceView>() {}
        assert_traceable::<MixingProtocol>();
    }

    /// A deliberately broken protocol: sites "unhear" the update (the
    /// susceptible count grows back), violating monotonicity and the
    /// infection-needs-traffic rule — exactly one rule a cycle, for more
    /// cycles than the checker stores violations.
    struct Flapping {
        n: usize,
        cycle: u32,
    }

    const FLAPPING_CYCLES: u32 = 150;

    impl EpidemicProtocol for Flapping {
        fn site_count(&self) -> usize {
            self.n
        }
        fn roster(&self) -> Roster {
            Roster::Everyone
        }
        fn finished(&self, cycle: u32, _active: &[usize]) -> bool {
            cycle >= FLAPPING_CYCLES
        }
        fn begin_cycle(&mut self, cycle: u32, _rng: &mut StdRng) {
            self.cycle = cycle;
        }
        fn contact(
            &mut self,
            _cycle: u32,
            _i: usize,
            _j: usize,
            _rng: &mut StdRng,
        ) -> ContactStats {
            ContactStats { sent: 1, useful: 0 }
        }
    }

    impl SirView for Flapping {
        fn sir_counts(&self) -> Sir {
            // Susceptible oscillates: 2 fewer on odd cycles, back up on
            // even ones — infections appear without useful traffic and
            // un-happen later.
            let infected = if self.cycle % 2 == 1 { 3 } else { 1 };
            Sir {
                susceptible: self.n - infected,
                infective: infected,
                removed: 0,
            }
        }
    }

    impl TraceView for Flapping {
        fn site_digests(&self, out: &mut Vec<u64>) {
            out.extend(std::iter::repeat_n(0, self.n));
        }
    }

    #[test]
    fn broken_protocol_is_reported_not_panicked() {
        let mut protocol = Flapping { n: 10, cycle: 0 };
        let mut rng = StdRng::seed_from_u64(3);
        let mut check = InvariantChecker::default();
        CycleEngine::new().run(
            &mut protocol,
            &UniformPartners::new(10),
            &mut rng,
            &mut check,
            &mut EngineBuffers::default(),
        );
        assert_eq!(
            check.violation_count(),
            u64::from(FLAPPING_CYCLES),
            "every flapping cycle is counted, past the storage cap"
        );
        assert_eq!(check.violations().len(), 100);
        let rules: Vec<_> = check.violations().iter().map(|v| v.rule).collect();
        assert!(
            rules.contains(&"infection_needs_traffic"),
            "fruitless contacts cannot infect: {rules:?}"
        );
        assert!(
            rules.contains(&"monotone_susceptible"),
            "susceptible grew back: {rules:?}"
        );
        assert!(check.to_jsonl().contains(r#""event":"violation""#));
    }
}
