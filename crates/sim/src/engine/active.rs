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
//! bitset: each initiator draws its partner ([`PartnerSelection`]), then
//! any further choice, from its private stream, and the protocol judges
//! the contact against *current* state and mutates it — the same
//! semantics as the [`CycleEngine`](super::CycleEngine)'s asynchronous
//! loop, just with a sorted roster instead of a shuffled one. Susceptible
//! sites cost one skipped word per 64, not a visit, and no draw depends
//! on the contacts before it. Its protocol is `MixingProtocol`'s
//! sequential push arm, the code the cycle engine runs.
//!
//! Totals stay exact without full traversal: every active initiator makes
//! exactly one contact, and `fruitless = contacts − useful` falls out of
//! the per-contact stats ([`TraceTotals`]).
//!
//! The engine records the `engine.active_setup` /
//! `engine.active_contact_loop` phases through [`epidemic_trace::profile`]
//! when profiling is enabled (`repro --timings`), mirroring the
//! sequential engine's phase accounting.

use epidemic_net::PartnerSelection;
use epidemic_trace::{profile, TraceTotals};
use rand::rngs::ContactRng;

use super::{ContactStats, EngineReport, Observer};
use crate::bitset::BitSet;

/// A protocol the active-set engine can run.
///
/// * [`active`](Self::active) is read once at the start of each cycle,
///   before its first contact: the cycle's roster;
/// * [`contact`](Self::contact) runs one initiator's contact with the
///   partner the engine drew: it draws any further choice from the
///   initiator's own [`ContactRng`], then judges the contact against
///   current state and mutates it. The engine calls it in ascending
///   initiator order.
pub trait ActiveSetProtocol {
    /// The sites that initiate a contact, one bit per site (its length is
    /// the site count); an empty set at a cycle's start ends the run.
    fn active(&self) -> &BitSet;

    /// Executes initiator `i`'s contact with partner `j`, drawing from
    /// `i`'s private stream; returns the contact's stats.
    fn contact(&mut self, cycle: u32, i: usize, j: usize, rng: &mut ContactRng) -> ContactStats;
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
    /// bound, each initiator's partner drawn from `partners` first on its
    /// contact's stream. The report, the protocol's final state and the
    /// observer's event stream are all pure functions of `seed`.
    pub fn run<P, L, O>(
        &self,
        protocol: &mut P,
        partners: &L,
        seed: u64,
        observer: &mut O,
    ) -> EngineReport
    where
        P: ActiveSetProtocol,
        L: PartnerSelection + ?Sized,
        O: Observer<P>,
    {
        use std::time::Instant;
        let timed = profile::is_enabled();
        let mut setup_nanos = 0u64;
        let mut contact_nanos = 0u64;

        observer.on_run_start(protocol);
        let mut totals = TraceTotals::default();
        let mut cycle = 0u32;
        // A roster of every site, sized once so no cycle reallocates.
        let mut roster: Vec<u32> = Vec::with_capacity(protocol.active().len());

        loop {
            let setup_start = timed.then(Instant::now);
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
                let i = i as usize;
                let mut rng = ContactRng::new(seed, u64::from(cycle), i as u64);
                let j = partners.select(i, &mut rng);
                let stats = protocol.contact(cycle, i, j, &mut rng);
                stats.add_to(&mut totals);
                observer.on_contact(cycle, i, j, &stats);
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
    use crate::engine::protocols::{Mechanism, MixingProtocol, MixingState};
    use crate::engine::UniformPartners;
    use epidemic_core::{Direction, Feedback, Removal, RumorConfig};

    /// The engine's protocol: a sequential push/feedback/coin rumor on `n`
    /// sites, the update at site 0.
    fn push(n: usize) -> MixingProtocol {
        let cfg = RumorConfig::new(Direction::Push, Feedback::Feedback, Removal::Coin { k: 2 });
        MixingProtocol::new(Mechanism::Rumor(cfg), false, n, 0, MixingState::default())
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

    /// Runs `protocol` under complete mixing for at most `max` cycles.
    fn run(protocol: &mut MixingProtocol, max: u32, seed: u64) -> (EngineReport, Log) {
        let partners = UniformPartners::new(protocol.state.received.site_count());
        let mut log = Log::default();
        let engine = ActiveCycleEngine::new().max_cycles(max);
        (engine.run(protocol, &partners, seed, &mut log), log)
    }

    #[test]
    fn runs_to_quiescence_with_exact_totals() {
        let mut protocol = push(64);
        let (report, log) = run(&mut protocol, 10_000, 9);
        assert!(report.cycles > 0);
        assert!(protocol.state.received.received_count() > 1);
        assert_eq!(protocol.state.active.count_ones(), 0, "quiescent");
        assert_eq!(report.totals.contacts, log.contacts.len() as u64);
        assert_eq!(
            report.totals.fruitless,
            report.totals.contacts - report.totals.useful,
            "fruitless is reconstructed exactly"
        );
        assert_eq!(log.cycles, report.cycles);
        let mut rounds = log.contacts.chunk_by(|a, b| a.0 == b.0);
        assert!(
            rounds.all(|round| round.is_sorted_by_key(|c| c.1)),
            "ascending"
        );
    }

    #[test]
    fn empty_active_set_ends_immediately() {
        let mut protocol = push(8);
        protocol.state.active.set(0, false);
        let (report, log) = run(&mut protocol, 10_000, 1);
        assert_eq!((report.cycles, report.totals.contacts), (0, 0));
        assert_eq!(log, Log::default());
    }

    #[test]
    fn cycle_bound_is_honored() {
        let (report, _) = run(&mut push(4096), 3, 5);
        assert!(report.cycles <= 3);
    }
}
