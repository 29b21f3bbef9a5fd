//! The active-set cycle engine: per-cycle cost proportional to the
//! *infective* sites, its draw phase parallel for free.
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
//! `(seed, cycle, initiator)`. Each cycle then splits into two phases:
//!
//! 1. **Draw** (parallel, `&self`) — the loop walks only the set bits of
//!    the protocol's [`active`](ActiveSetProtocol::active) bitset,
//!    ascending; each initiator samples its partner and every random
//!    decision it might need from its private stream, producing a pure
//!    [`Draw`](ActiveSetProtocol::Draw) record. Susceptible sites cost
//!    one skipped word per 64, not a visit; worker threads can split the
//!    roster freely because no draw depends on any other.
//! 2. **Apply** (sequential) — the engine replays the draws in ascending
//!    initiator order, letting the protocol judge each contact against
//!    *current* state and mutate it — the same semantics as the
//!    [`CycleEngine`](super::CycleEngine)'s asynchronous loop, just with a
//!    sorted roster instead of a shuffled one. Because the replay order is fixed by the roster rather than
//!    by thread scheduling, the result — and the observer's event stream
//!    — is byte-identical at *any* worker count.
//!
//! Totals stay exact without full traversal: every active initiator makes
//! exactly one contact, and `fruitless = contacts − useful` falls out of
//! the per-contact stats the apply phase returns ([`TraceTotals`]).
//!
//! The engine records the `engine.active_setup` /
//! `engine.active_contact_loop` / `engine.active_apply` phases through
//! [`epidemic_trace::profile`] when profiling is enabled (`repro
//! --timings`), mirroring the sequential engine's phase accounting.

use epidemic_trace::{profile, TraceTotals};
use rand::rngs::ContactRng;

use super::{ContactStats, EngineReport, Observer};
use crate::bitset::BitSet;

/// A protocol the active-set engine can run.
///
/// The contract that buys parallelism and byte-stability:
///
/// * [`begin_cycle`](Self::begin_cycle) fixes the cycle's roster (and any
///   other start-of-cycle snapshot the protocol needs);
/// * [`contact`](Self::contact) is `&self` and *randomness-complete*: it
///   reads shared state, draws from its own [`ContactRng`] — including
///   any draw whose relevance is only known later (a fresh stream per
///   contact makes over-drawing free) — and returns a pure
///   [`Draw`](Self::Draw) record without mutating anything;
/// * [`apply`](Self::apply) consumes draws strictly in ascending
///   initiator order, judging each contact against current state and
///   mutating it — order-*dependent* logic is fine here, because the
///   engine fixes the order.
pub trait ActiveSetProtocol: Sync {
    /// The pure record of one contact's random choices, produced in
    /// parallel and consumed sequentially.
    type Draw: Send;

    /// Number of sites.
    fn site_count(&self) -> usize;

    /// Starts `cycle` (numbered from 1): fixes the roster snapshot.
    fn begin_cycle(&mut self, cycle: u32);

    /// The initiators for the current cycle, as a bitset over sites.
    /// Sampled after [`begin_cycle`](Self::begin_cycle); an empty set
    /// ends the run.
    fn active(&self) -> &BitSet;

    /// Samples every random choice initiator `i`'s contact might need
    /// from its private stream. Must not depend on any other contact.
    fn contact(&self, cycle: u32, i: usize, rng: &mut ContactRng) -> Self::Draw;

    /// Executes initiator `i`'s contact from its draw record against
    /// current state; returns the partner and the contact's stats.
    /// Called in ascending initiator order.
    fn apply(&mut self, cycle: u32, i: usize, draw: &Self::Draw) -> (usize, ContactStats);
}

/// Samples one chunk of initiators; the heart of both the sequential and
/// the parallel path, so they cannot drift apart.
fn draw_chunk<P: ActiveSetProtocol>(
    protocol: &P,
    seed: u64,
    cycle: u32,
    initiators: &[u32],
    out: &mut Vec<P::Draw>,
) {
    out.clear();
    out.extend(initiators.iter().map(|&i| {
        let mut rng = ContactRng::new(seed, u64::from(cycle), u64::from(i));
        protocol.contact(cycle, i as usize, &mut rng)
    }));
}

/// Below this many initiators per worker, thread spawn overhead beats the
/// parallel win and the cycle runs inline. Purely a performance knob:
/// results are identical either way.
const MIN_PARALLEL_CHUNK: usize = 4096;

/// The active-set cycle loop; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActiveCycleEngine {
    max_cycles: u32,
    workers: usize,
}

impl Default for ActiveCycleEngine {
    fn default() -> Self {
        ActiveCycleEngine::new()
    }
}

impl ActiveCycleEngine {
    /// An engine with the worker count from `EPIDEMIC_THREADS` (else the
    /// hardware count) and no cycle bound.
    pub fn new() -> Self {
        ActiveCycleEngine {
            max_cycles: u32::MAX,
            workers: crate::runner::default_threads(),
        }
    }

    /// Safety bound on simulated cycles.
    #[must_use]
    pub fn max_cycles(mut self, max: u32) -> Self {
        self.max_cycles = max;
        self
    }

    /// Worker threads for the draw phase. Any value produces
    /// byte-identical output; `1` runs everything inline.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is 0.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        assert!(workers > 0, "at least one worker is needed");
        self.workers = workers;
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
        let mut apply_nanos = 0u64;

        observer.on_run_start(protocol);
        let mut totals = TraceTotals::default();
        let mut cycle = 0u32;
        // Sized once, so no cycle reallocates: a roster of every site, and
        // chunks of the largest `per_worker` below (or the whole roster).
        let n = protocol.site_count();
        let mut roster: Vec<u32> = Vec::with_capacity(n);
        let share = n.div_ceil(self.workers).max(MIN_PARALLEL_CHUNK).min(n);
        let mut chunks: Vec<Vec<P::Draw>> = (0..self.workers)
            .map(|_| Vec::with_capacity(share))
            .collect();

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

            // Draw phase: sample every contact's choices, in parallel
            // when the roster is big enough to pay for the threads.
            let contact_start = timed.then(Instant::now);
            let per_worker = roster.len().div_ceil(self.workers).max(MIN_PARALLEL_CHUNK);
            let used = roster.len().div_ceil(per_worker);
            if used <= 1 {
                draw_chunk(protocol, seed, cycle, &roster, &mut chunks[0]);
            } else {
                let protocol = &*protocol;
                std::thread::scope(|scope| {
                    for (chunk, out) in roster.chunks(per_worker).zip(chunks.iter_mut()) {
                        scope.spawn(move || draw_chunk(protocol, seed, cycle, chunk, out));
                    }
                });
            }
            if let Some(start) = contact_start {
                contact_nanos += profile::span_nanos(start);
            }

            // Apply phase: replay in ascending initiator order — chunks
            // partition the ascending roster, so chunk order *is* roster
            // order, whatever the workers did.
            let apply_start = timed.then(Instant::now);
            for (chunk, draws) in roster.chunks(per_worker).zip(chunks.iter()).take(used) {
                for (&i, draw) in chunk.iter().zip(draws.iter()) {
                    let (j, stats) = protocol.apply(cycle, i as usize, draw);
                    stats.add_to(&mut totals);
                    observer.on_contact(cycle, i as usize, j, &stats);
                }
            }
            if let Some(start) = apply_start {
                apply_nanos += profile::span_nanos(start);
            }
            observer.on_cycle_end(cycle, protocol);
        }

        if timed {
            profile::record("engine.active_setup", setup_nanos);
            profile::record("engine.active_contact_loop", contact_nanos);
            profile::record("engine.active_apply", apply_nanos);
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
        type Draw = bool;

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

        fn contact(&self, _cycle: u32, _i: usize, rng: &mut ContactRng) -> bool {
            rng.random_bool(0.5)
        }

        fn apply(&mut self, _cycle: u32, i: usize, &spread: &bool) -> (usize, ContactStats) {
            let j = (i + 1) % self.site_count();
            let useful = spread && !self.infected[j];
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

    fn run_toy(n: usize, seed: u64, workers: usize) -> (Vec<bool>, EngineReport, Log) {
        let mut toy = Toy::new(n);
        let mut log = Log::default();
        let report = ActiveCycleEngine::new()
            .workers(workers)
            .max_cycles(10_000)
            .run(&mut toy, seed, &mut log);
        (toy.infected, report, log)
    }

    #[test]
    fn runs_to_quiescence_with_exact_totals() {
        let (infected, report, log) = run_toy(64, 9, 1);
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
    fn output_is_byte_identical_at_any_worker_count() {
        let reference = run_toy(200, 3, 1);
        for workers in [2, 8] {
            let candidate = run_toy(200, 3, workers);
            assert_eq!(reference.0, candidate.0, "state at {workers} workers");
            assert_eq!(
                format!("{:?}", reference.1),
                format!("{:?}", candidate.1),
                "report at {workers} workers"
            );
            assert_eq!(reference.2, candidate.2, "events at {workers} workers");
        }
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
