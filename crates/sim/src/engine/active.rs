//! The active-set cycle engine: per-cycle cost proportional to the
//! *infective* sites.
//!
//! [`CycleEngine`](super::CycleEngine) walks the full roster every cycle
//! — it must, because its sequential RNG makes each partner draw depend
//! on every draw before it, so even a site that does nothing has to be
//! visited (or at least counted) to keep the stream aligned. That is the
//! right contract for the paper-fidelity drivers, and the wrong one for
//! the megascale sweep, where after the first dozen cycles the infective
//! set is a shrinking sliver of a million-site fleet.
//!
//! This engine drops the sequential stream for the counter-based
//! [`ContactRng`]: every contact's draws are a pure function of
//! `(seed, cycle, initiator)`. A cycle is then one ascending pass over
//! the set bits of the protocol's [`active`](ActiveSetProtocol::active)
//! bitset: each initiator draws its choices from its private stream and
//! the protocol judges the contact against *current* state and mutates
//! it — the same semantics as the [`CycleEngine`](super::CycleEngine)'s
//! asynchronous loop, just with a sorted roster instead of a shuffled
//! one. Susceptible sites cost one skipped word per 64, not a visit, and
//! no draw depends on the contacts before it.
//!
//! Totals stay exact without full traversal: every active initiator makes
//! exactly one contact, and `fruitless = contacts − useful` falls out of
//! the per-contact stats ([`TraceTotals`]).
//!
//! The engine records the `engine.active_setup` /
//! `engine.active_contact_loop` phases through [`epidemic_trace::profile`]
//! when profiling is enabled (`repro --timings`), mirroring the
//! sequential engine's phase accounting.

use epidemic_trace::{profile, TraceTotals};
use rand::rngs::ContactRng;

use super::{ContactStats, EngineReport, Observer};
use crate::bitset::BitSet;

/// A protocol the active-set engine can run.
///
/// * [`begin_cycle`](Self::begin_cycle) fixes the cycle's roster (and any
///   other start-of-cycle snapshot the protocol needs);
/// * [`contact`](Self::contact) runs one initiator's contact: it draws
///   every random choice from the initiator's own [`ContactRng`], never
///   from shared state, then judges the contact against current state
///   and mutates it. The engine calls it in ascending initiator order.
pub trait ActiveSetProtocol {
    /// Number of sites.
    fn site_count(&self) -> usize;

    /// Starts `cycle` (numbered from 1): fixes the roster snapshot.
    fn begin_cycle(&mut self, cycle: u32);

    /// The initiators for the current cycle, as a bitset over sites.
    /// Sampled after [`begin_cycle`](Self::begin_cycle); an empty set
    /// ends the run.
    fn active(&self) -> &BitSet;

    /// Executes initiator `i`'s contact, drawing from its private stream;
    /// returns the partner and the contact's stats.
    fn contact(&mut self, cycle: u32, i: usize, rng: &mut ContactRng) -> (usize, ContactStats);
}

/// The active-set cycle loop; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActiveCycleEngine {
    max_cycles: u32,
}

impl Default for ActiveCycleEngine {
    fn default() -> Self {
        ActiveCycleEngine::new()
    }
}

impl ActiveCycleEngine {
    /// An engine with no cycle bound.
    pub fn new() -> Self {
        ActiveCycleEngine {
            max_cycles: u32::MAX,
        }
    }

    /// Safety bound on simulated cycles.
    #[must_use]
    pub fn max_cycles(mut self, max: u32) -> Self {
        self.max_cycles = max;
        self
    }

    /// Runs `protocol` to quiescence (empty active set) or the cycle
    /// bound. The report, the protocol's final state and the observer's
    /// event stream are all pure functions of `seed`.
    pub fn run<P: ActiveSetProtocol, O: Observer<P>>(
        &self,
        protocol: &mut P,
        seed: u64,
        observer: &mut O,
    ) -> EngineReport {
        use std::time::Instant;
        let timed = profile::is_enabled();
        let mut setup_nanos = 0u64;
        let mut contact_nanos = 0u64;

        observer.on_run_start(protocol);
        let mut totals = TraceTotals::default();
        let mut cycle = 0u32;
        // A roster of every site, sized once so no cycle reallocates.
        let mut roster: Vec<u32> = Vec::with_capacity(protocol.site_count());

        loop {
            let setup_start = timed.then(Instant::now);
            protocol.begin_cycle(cycle + 1);
            roster.clear();
            roster.extend(protocol.active().iter_ones().map(|i| i as u32));
            if let Some(start) = setup_start {
                setup_nanos += profile::span_nanos(start);
            }
            if roster.is_empty() || cycle >= self.max_cycles {
                break;
            }
            cycle += 1;

            let contact_start = timed.then(Instant::now);
            for &i in &roster {
                let mut rng = ContactRng::new(seed, u64::from(cycle), u64::from(i));
                let (j, stats) = protocol.contact(cycle, i as usize, &mut rng);
                stats.add_to(&mut totals);
                observer.on_contact(cycle, i as usize, j, &stats);
            }
            if let Some(start) = contact_start {
                contact_nanos += profile::span_nanos(start);
            }
            observer.on_cycle_end(cycle, protocol);
        }

        if timed {
            profile::record("engine.active_setup", setup_nanos);
            profile::record("engine.active_contact_loop", contact_nanos);
        }
        observer.on_run_end(&totals);
        EngineReport {
            cycles: cycle,
            totals,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;

    /// A toy epidemic: each active site "infects" the next site with
    /// probability 1/2 and always deactivates itself — enough structure
    /// to exercise roster shrinkage, draws, current-state judging, and
    /// totals.
    struct Toy {
        active: BitSet,
        next: BitSet,
        infected: Vec<bool>,
    }

    impl Toy {
        fn new(n: usize) -> Self {
            let mut next = BitSet::new(n);
            next.set(0, true);
            Toy {
                active: BitSet::new(n),
                next,
                infected: {
                    let mut v = vec![false; n];
                    v[0] = true;
                    v
                },
            }
        }
    }

    impl ActiveSetProtocol for Toy {
        fn site_count(&self) -> usize {
            self.infected.len()
        }

        fn begin_cycle(&mut self, _cycle: u32) {
            std::mem::swap(&mut self.active, &mut self.next);
            self.next.reset(self.infected.len());
        }

        fn active(&self) -> &BitSet {
            &self.active
        }

        fn contact(
            &mut self,
            _cycle: u32,
            i: usize,
            rng: &mut ContactRng,
        ) -> (usize, ContactStats) {
            let j = (i + 1) % self.site_count();
            let useful = rng.random_bool(0.5) && !self.infected[j];
            if useful {
                self.infected[j] = true;
                self.next.set(j, true);
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

    /// Records observer callbacks so the event-stream contract is pinned.
    #[derive(Default, PartialEq, Eq, Debug)]
    struct Log {
        contacts: Vec<(u32, usize, usize, u64)>,
        cycles: u32,
    }

    impl<P: ?Sized> Observer<P> for Log {
        fn on_contact(&mut self, cycle: u32, i: usize, j: usize, stats: &ContactStats) {
            self.contacts.push((cycle, i, j, stats.useful));
        }
        fn on_cycle_end(&mut self, cycle: u32, _protocol: &P) {
            self.cycles = cycle;
        }
    }

    fn run_toy(n: usize, seed: u64) -> (Vec<bool>, EngineReport, Log) {
        let mut toy = Toy::new(n);
        let mut log = Log::default();
        let report = ActiveCycleEngine::new()
            .max_cycles(10_000)
            .run(&mut toy, seed, &mut log);
        (toy.infected, report, log)
    }

    #[test]
    fn runs_to_quiescence_with_exact_totals() {
        let (infected, report, log) = run_toy(64, 9);
        assert!(report.cycles > 0);
        assert!(infected.iter().filter(|&&b| b).count() > 1);
        assert_eq!(report.totals.contacts, log.contacts.len() as u64);
        assert_eq!(
            report.totals.fruitless,
            report.totals.contacts - report.totals.useful,
            "fruitless is reconstructed exactly"
        );
        assert_eq!(log.cycles, report.cycles);
    }

    #[test]
    fn empty_active_set_ends_immediately() {
        let mut toy = Toy::new(8);
        toy.next.reset(8);
        toy.infected = vec![false; 8];
        let report = ActiveCycleEngine::new().run(&mut toy, 1, &mut ());
        assert_eq!(report.cycles, 0);
        assert_eq!(report.totals.contacts, 0);
    }

    #[test]
    fn cycle_bound_is_honored() {
        let mut toy = Toy::new(4096);
        let report = ActiveCycleEngine::new()
            .max_cycles(3)
            .run(&mut toy, 5, &mut ());
        assert!(report.cycles <= 3);
    }
}
