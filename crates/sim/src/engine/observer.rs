//! Observation hooks for engine runs.
//!
//! An [`Observer`] sees every contact and every cycle boundary without the
//! protocol knowing it is being watched — tracing is composed onto a run
//! instead of being compiled into each driver. The no-op observer
//! is the unit type `()`, which compiles away entirely.

use epidemic_trace::{Sir, TraceTotals};

use super::ContactStats;

/// Hooks invoked by [`CycleEngine::run`](super::CycleEngine::run).
///
/// All methods default to no-ops, so an observer implements only what it
/// needs. `P` is the protocol type, giving `on_cycle_end` a read-only view
/// of protocol state (e.g. SIR counts).
pub trait Observer<P: ?Sized> {
    /// Called once before the first cycle, with the initial state.
    fn on_run_start(&mut self, _protocol: &P) {}

    /// Called after every executed contact.
    fn on_contact(&mut self, _cycle: u32, _i: usize, _j: usize, _stats: &ContactStats) {}

    /// Called after each cycle completes (post `end_cycle`).
    fn on_cycle_end(&mut self, _cycle: u32, _protocol: &P) {}

    /// Called once after the last cycle, with the totals the engine
    /// reports.
    fn on_run_end(&mut self, _totals: &TraceTotals) {}
}

/// The null observer: observes nothing, costs nothing.
impl<P: ?Sized> Observer<P> for () {}

/// Forwarding impl so observers can be passed by value or reference
/// interchangeably (e.g. reusing one observer across several runs).
impl<P: ?Sized, O: Observer<P>> Observer<P> for &mut O {
    fn on_run_start(&mut self, protocol: &P) {
        (**self).on_run_start(protocol);
    }
    fn on_contact(&mut self, cycle: u32, i: usize, j: usize, stats: &ContactStats) {
        (**self).on_contact(cycle, i, j, stats);
    }
    fn on_cycle_end(&mut self, cycle: u32, protocol: &P) {
        (**self).on_cycle_end(cycle, protocol);
    }
    fn on_run_end(&mut self, totals: &TraceTotals) {
        (**self).on_run_end(totals);
    }
}

/// Pair composition: both observers see every event, `A` first, e.g.
/// `(&mut sir_observer, &mut invariant_observer)`. Nest pairs for wider
/// fan-out: `(a, (b, c))` runs `a`, `b`, `c` in that order.
impl<P: ?Sized, A: Observer<P>, B: Observer<P>> Observer<P> for (A, B) {
    fn on_run_start(&mut self, protocol: &P) {
        self.0.on_run_start(protocol);
        self.1.on_run_start(protocol);
    }
    fn on_contact(&mut self, cycle: u32, i: usize, j: usize, stats: &ContactStats) {
        self.0.on_contact(cycle, i, j, stats);
        self.1.on_contact(cycle, i, j, stats);
    }
    fn on_cycle_end(&mut self, cycle: u32, protocol: &P) {
        self.0.on_cycle_end(cycle, protocol);
        self.1.on_cycle_end(cycle, protocol);
    }
    fn on_run_end(&mut self, totals: &TraceTotals) {
        self.0.on_run_end(totals);
        self.1.on_run_end(totals);
    }
}

/// A protocol whose state projects onto the §1.4 SIR compartments.
pub trait SirView {
    /// Current susceptible/infective/removed site counts.
    fn sir_counts(&self) -> Sir;
}

/// Records the `(s, i, r)` fraction trajectory of a run — point 0 is the
/// state at injection, point `c` the state after cycle `c` — the simulated
/// counterpart of §1.4's differential-equation trajectory.
#[derive(Debug, Clone, Default)]
pub struct SirObserver {
    /// The recorded `(s, i, r)` fraction triples.
    pub points: Vec<(f64, f64, f64)>,
}

impl SirObserver {
    /// Creates an empty trace.
    pub fn new() -> Self {
        SirObserver::default()
    }

    fn record<P: SirView>(&mut self, protocol: &P) {
        let Sir {
            susceptible,
            infective,
            removed,
        } = protocol.sir_counts();
        let n = (susceptible + infective + removed) as f64;
        self.points.push((
            susceptible as f64 / n,
            infective as f64 / n,
            removed as f64 / n,
        ));
    }
}

impl<P: SirView> Observer<P> for SirObserver {
    fn on_run_start(&mut self, protocol: &P) {
        self.record(protocol);
    }

    fn on_cycle_end(&mut self, _cycle: u32, protocol: &P) {
        self.record(protocol);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fixed(Sir);
    impl SirView for Fixed {
        fn sir_counts(&self) -> Sir {
            self.0
        }
    }

    /// Counts events, for composition tests.
    #[derive(Default, Debug, PartialEq, Eq)]
    struct Counting {
        starts: u32,
        contacts: u32,
        cycles: u32,
        ends: u32,
    }
    impl<P: ?Sized> Observer<P> for Counting {
        fn on_run_start(&mut self, _protocol: &P) {
            self.starts += 1;
        }
        fn on_contact(&mut self, _cycle: u32, _i: usize, _j: usize, _stats: &ContactStats) {
            self.contacts += 1;
        }
        fn on_cycle_end(&mut self, _cycle: u32, _protocol: &P) {
            self.cycles += 1;
        }
        fn on_run_end(&mut self, _totals: &TraceTotals) {
            self.ends += 1;
        }
    }

    fn drive<O: Observer<()>>(observer: &mut O) {
        observer.on_run_start(&());
        observer.on_contact(1, 0, 1, &ContactStats::default());
        observer.on_contact(1, 2, 3, &ContactStats::default());
        observer.on_cycle_end(1, &());
        observer.on_run_end(&TraceTotals::default());
    }

    #[test]
    fn tuple_observers_both_see_every_event() {
        let mut pair = (Counting::default(), Counting::default());
        drive(&mut pair);
        let expected = Counting {
            starts: 1,
            contacts: 2,
            cycles: 1,
            ends: 1,
        };
        assert_eq!(pair.0, expected);
        assert_eq!(pair.1, expected);

        let mut nested = (
            Counting::default(),
            (Counting::default(), Counting::default()),
        );
        drive(&mut nested);
        for obs in [&nested.0, &nested.1 .0, &nested.1 .1] {
            assert_eq!(obs, &expected);
        }
    }

    #[test]
    fn mut_ref_observers_compose() {
        // A `&mut` observer can be composed without giving up ownership.
        let mut keep = Counting::default();
        let mut pair = (&mut keep, Counting::default());
        drive(&mut pair);
        assert_eq!(keep.cycles, 1);
    }

    #[test]
    fn sir_observer_records_fractions_that_sum_to_one() {
        let state = Fixed(Sir {
            susceptible: 6,
            infective: 1,
            removed: 3,
        });
        let mut obs = SirObserver::new();
        obs.on_run_start(&state);
        obs.on_cycle_end(1, &state);
        assert_eq!(obs.points.len(), 2);
        for &(s, i, r) in &obs.points {
            assert!((s + i + r - 1.0).abs() < 1e-12);
            assert!((s - 0.6).abs() < 1e-12);
            assert!((i - 0.1).abs() < 1e-12);
            assert!((r - 0.3).abs() < 1e-12);
        }
    }
}
