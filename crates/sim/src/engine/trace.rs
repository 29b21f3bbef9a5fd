//! Trace and invariant observers: the bridge between the engine's
//! [`Observer`] seam and the `epidemic-trace` crate.
//!
//! [`TraceObserver`] records a run as deterministic JSONL (see
//! [`epidemic_trace::record`]); [`InvariantObserver`] checks the protocol
//! invariants from [`epidemic_trace::invariant`] as the run streams by.
//! Both work against any protocol implementing [`TraceView`] — every
//! engine protocol in this crate does — and compose with each other and
//! with [`SirObserver`](super::SirObserver) through the tuple observer
//! combinators, e.g.:
//!
//! ```
//! use epidemic_core::{Direction, Feedback, Removal, RumorConfig};
//! use epidemic_sim::engine::trace::{InvariantObserver, TraceObserver};
//! use epidemic_sim::mixing::{MixingArena, RumorEpidemic};
//! use epidemic_trace::TraceConfig;
//!
//! let cfg = RumorConfig::new(Direction::Push, Feedback::Feedback, Removal::Counter { k: 2 });
//! let mut trace = TraceObserver::new(TraceConfig::cycles_only());
//! let mut check = InvariantObserver::new();
//! let observer = &mut (&mut trace, &mut check);
//! let result = RumorEpidemic::new(100, cfg).run(&mut MixingArena::new(), 7, observer);
//! assert!(check.is_clean());
//! let jsonl = trace.finish();
//! assert!(jsonl.lines().count() as u32 >= result.cycles);
//! ```

use epidemic_trace::{
    AggregatingSink, InvariantChecker, RunAggregate, RunTracer, TraceConfig, TraceTotals, Violation,
};

use super::observer::{Observer, SirView};
use super::protocols::{BitAntiEntropyProtocol, MixingProtocol};
use super::ContactStats;
use crate::spatial::SpatialProtocol;

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

fn db_digest(replica: &epidemic_core::Replica<u32, u32>) -> u64 {
    epidemic_db::Checksum::digest(&replica.db().checksum())
}

impl TraceView for MixingProtocol {
    fn site_digests(&self, out: &mut Vec<u64>) {
        out.extend(self.state.sites.iter().map(db_digest));
    }
}

impl TraceView for BitAntiEntropyProtocol {
    fn site_digests(&self, out: &mut Vec<u64>) {
        let holds = &self.state.active;
        out.extend((0..holds.len()).map(|i| u64::from(holds.get(i))));
    }
}

impl TraceView for SpatialProtocol<'_> {
    fn site_digests(&self, out: &mut Vec<u64>) {
        out.extend(self.replicas.iter().map(db_digest));
    }
}

/// Records a run as deterministic JSONL through the engine's observer
/// seam. Works with any [`SirView`] protocol; wraps
/// [`epidemic_trace::RunTracer`].
#[derive(Debug, Clone)]
pub struct TraceObserver {
    tracer: RunTracer,
}

impl TraceObserver {
    /// An observer emitting the streams selected by `config`.
    pub fn new(config: TraceConfig) -> Self {
        TraceObserver {
            tracer: RunTracer::new(config),
        }
    }

    /// As [`TraceObserver::new`], with a pre-labelled tracer (labels are
    /// stamped onto every line; see [`RunTracer::label_u64`]).
    pub fn with_tracer(tracer: RunTracer) -> Self {
        TraceObserver { tracer }
    }

    /// Aggregate contact totals recorded so far.
    pub fn totals(&self) -> TraceTotals {
        self.tracer.totals()
    }

    /// Finishes the trace and returns the complete JSONL text.
    pub fn finish(self) -> String {
        self.tracer.finish()
    }
}

impl<P: SirView + ?Sized> Observer<P> for TraceObserver {
    fn on_run_start(&mut self, protocol: &P) {
        self.tracer.run_start(protocol.sir_counts());
    }

    fn on_contact(&mut self, cycle: u32, i: usize, j: usize, stats: &ContactStats) {
        self.tracer.contact(
            u64::from(cycle),
            i as u64,
            j as u64,
            stats.sent,
            stats.useful,
        );
    }

    fn on_cycle_end(&mut self, cycle: u32, protocol: &P) {
        self.tracer.cycle(u64::from(cycle), protocol.sir_counts());
    }
}

/// Folds a run into a bounded-memory [`RunAggregate`] through the
/// engine's observer seam. Works with any [`SirView`] protocol; wraps
/// [`epidemic_trace::AggregatingSink`]. Unlike [`TraceObserver`] the
/// memory footprint does not grow with run length, so this is the
/// observer the megascale sweep can afford.
#[derive(Debug, Clone, Default)]
pub struct AggregateObserver {
    sink: AggregatingSink,
}

impl AggregateObserver {
    /// An observer with an empty aggregate.
    pub fn new() -> Self {
        AggregateObserver::default()
    }

    /// Consumes the observer, returning its aggregate.
    pub fn finish(self) -> RunAggregate {
        self.sink.finish()
    }
}

impl<P: SirView + ?Sized> Observer<P> for AggregateObserver {
    fn on_run_start(&mut self, protocol: &P) {
        self.sink.run_start(protocol.sir_counts());
    }

    fn on_contact(&mut self, cycle: u32, i: usize, j: usize, stats: &ContactStats) {
        self.sink.contact(cycle, i, j, stats.sent, stats.useful);
    }

    fn on_cycle_end(&mut self, cycle: u32, protocol: &P) {
        self.sink.cycle(cycle, protocol.sir_counts());
    }
}

/// Checks protocol invariants as a run streams by, through the engine's
/// observer seam. Violations are recorded, never panicked on; inspect
/// [`InvariantObserver::is_clean`] / [`InvariantObserver::violations`]
/// after the run. Wraps [`epidemic_trace::InvariantChecker`]; the rule set
/// is documented in [`epidemic_trace::invariant`].
#[derive(Debug, Clone, Default)]
pub struct InvariantObserver {
    checker: InvariantChecker,
    digests: Vec<u64>,
}

impl InvariantObserver {
    /// A fresh checker.
    pub fn new() -> Self {
        InvariantObserver::default()
    }

    /// `true` when no invariant violation has been detected.
    pub fn is_clean(&self) -> bool {
        self.checker.is_clean()
    }

    /// Violations detected so far.
    pub fn violations(&self) -> &[Violation] {
        self.checker.violations()
    }

    /// All stored violations as JSONL; empty string when clean.
    pub fn to_jsonl(&self) -> String {
        self.checker.to_jsonl()
    }
}

impl<P: TraceView + ?Sized> Observer<P> for InvariantObserver {
    fn on_run_start(&mut self, protocol: &P) {
        self.checker.start(protocol.sir_counts());
    }

    fn on_contact(&mut self, cycle: u32, _i: usize, _j: usize, stats: &ContactStats) {
        self.checker
            .contact(u64::from(cycle), stats.sent, stats.useful);
    }

    fn on_cycle_end(&mut self, cycle: u32, protocol: &P) {
        let sir = protocol.sir_counts();
        // Digests are only needed — and only computed — once coverage is
        // complete, which is when the convergence invariant can fire.
        let digests = if sir.susceptible == 0 {
            self.digests.clear();
            protocol.site_digests(&mut self.digests);
            Some(self.digests.as_slice())
        } else {
            None
        };
        self.checker.cycle(u64::from(cycle), sir, digests);
    }

    fn on_run_end(&mut self, totals: &TraceTotals) {
        // Rule 7 already ran at the last cycle end; only rule 6 is left.
        self.checker.finish(*totals, None);
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
        assert_traceable::<BitAntiEntropyProtocol>();
        assert_traceable::<SpatialProtocol<'static>>();
    }

    /// A deliberately broken protocol: sites "unhear" the update (the
    /// susceptible count grows back), violating monotonicity and the
    /// infection-needs-traffic rule.
    struct Flapping {
        n: usize,
        cycle: u32,
    }

    impl EpidemicProtocol for Flapping {
        fn site_count(&self) -> usize {
            self.n
        }
        fn roster(&self) -> Roster {
            Roster::Everyone
        }
        fn finished(&self, cycle: u32, _active: &[usize]) -> bool {
            cycle >= 4
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
        let mut check = InvariantObserver::new();
        CycleEngine::new().run(
            &mut protocol,
            &UniformPartners::new(10),
            &mut rng,
            &mut check,
            &mut EngineBuffers::default(),
        );
        assert!(!check.is_clean(), "the flapping protocol must be caught");
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
