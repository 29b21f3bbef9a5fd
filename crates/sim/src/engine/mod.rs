//! The shared round-synchronous simulation engine.
//!
//! Every cycle-based driver in this crate is the same machine wearing a
//! different protocol: per cycle, a roster of initiating sites is shuffled,
//! each initiator draws a partner (with optional connection limits and
//! hunting), one protocol contact runs per accepted connection, and the
//! run ends at quiescence/convergence or a cycle bound. This module owns
//! that machine exactly once:
//!
//! * [`EpidemicProtocol`] — what a contact *does* (anti-entropy exchange,
//!   rumor mongering in any [`Direction`](epidemic_core::Direction),
//!   direct mail) plus per-cycle state transitions and the finish
//!   predicate;
//! * [`PartnerSelection`] — where partners come from: uniform complete
//!   mixing ([`UniformPartners`]) or any `epidemic-net` strategy (spatial
//!   samplers, the §4 hierarchy, a contact graph), one draw per attempt;
//! * [`CycleEngine`] — the round loop itself: roster computation, scratch
//!   buffer reuse, connection-limit/hunting retries, per-contact traffic
//!   totals and the cycle bound;
//! * [`Observer`] — composable tracing hooks (per-contact events, per-cycle
//!   SIR snapshots) that replaced the drivers' bespoke trace plumbing.
//!
//! The loop preserves the historical drivers' exact RNG draw order —
//! roster filtering is ascending, shuffles come after `begin_cycle`, one
//! partner draw per hunting attempt, admission checks happen after the
//! draw — so porting a driver onto the engine is output-preserving, which
//! the golden-table and fixture tests pin down to the byte.

pub mod active;
pub mod observer;
pub mod partner;
pub mod protocols;
pub mod trace;

pub use active::{ActiveCycleEngine, ActiveSetProtocol};
pub use observer::{Observer, SirObserver, SirView};
pub use partner::UniformPartners;
pub(crate) use protocols::UpdateInjector;
pub use protocols::{ReceiveLog, RouteCharge};
pub use trace::TraceView;

use std::time::Instant;

use epidemic_net::PartnerSelection;
use epidemic_trace::{profile, TraceTotals};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;

/// Traffic accounting for one protocol contact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ContactStats {
    /// Database updates transmitted during the contact.
    pub sent: u64,
    /// Transmissions that told the recipient something new.
    pub useful: u64,
}

impl ContactStats {
    /// Adds this contact to a run's `totals`.
    pub(crate) fn add_to(&self, totals: &mut TraceTotals) {
        totals.contacts += 1;
        totals.sent += self.sent;
        totals.useful += self.useful;
        if self.useful == 0 {
            totals.fruitless += 1;
        }
    }
}

impl From<epidemic_core::rumor::RumorStats> for ContactStats {
    fn from(stats: epidemic_core::rumor::RumorStats) -> Self {
        // Saturate instead of panicking: `usize > u64` only exists on
        // 128-bit targets, but the conversion sits on the hot path and a
        // megascale run must degrade to a clamped counter, not abort.
        ContactStats {
            sent: u64::try_from(stats.sent).unwrap_or(u64::MAX),
            useful: u64::try_from(stats.useful).unwrap_or(u64::MAX),
        }
    }
}

/// Which sites initiate a contact each cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Roster {
    /// Every site initiates (anti-entropy, pull/push-pull rumors: polling
    /// happens whether or not there is anything to say).
    Everyone,
    /// Only sites for which [`EpidemicProtocol::is_active`] holds initiate
    /// (push rumors, direct mail: a quiescent site costs nothing).
    Active,
}

/// A pluggable epidemic protocol driven by the [`CycleEngine`].
///
/// The engine owns the round loop; the protocol owns the replicas and
/// answers four questions: who initiates ([`Self::roster`] /
/// [`Self::is_active`] / [`Self::initiates`]), who may be contacted
/// ([`Self::admits`]), what a contact does ([`Self::contact`]), and when
/// the run is over ([`Self::finished`]).
pub trait EpidemicProtocol {
    /// Number of sites being simulated.
    fn site_count(&self) -> usize;

    /// Which sites initiate contacts each cycle.
    fn roster(&self) -> Roster {
        Roster::Everyone
    }

    /// Whether site `i` is currently active (spreading). Drives the
    /// [`Roster::Active`] roster and the default quiescence test.
    fn is_active(&self, _i: usize) -> bool {
        true
    }

    /// Replaces the contents of `out` with the currently active sites in
    /// **ascending** order — what the engine shuffles into a
    /// [`Roster::Active`] roster and hands to [`Self::finished`].
    ///
    /// The default scans every site with [`Self::is_active`], and that
    /// scan is the definition: a protocol that keeps its active set
    /// incrementally overrides this to cost what the set costs rather
    /// than what the network costs, and must produce exactly the scan's
    /// sequence (the roster order before the shuffle decides every RNG
    /// draw after it). Debug builds of the engine check the two against
    /// each other every cycle.
    fn active_sites(&self, out: &mut Vec<usize>) {
        out.clear();
        out.extend((0..self.site_count()).filter(|&i| self.is_active(i)));
    }

    /// Whether the run is over, checked before each cycle. `cycle` is the
    /// number of completed cycles; `active` lists the currently active
    /// sites in ascending order.
    fn finished(&self, cycle: u32, active: &[usize]) -> bool;

    /// Per-cycle state transition before any contact: clock advances,
    /// update injection, churn transitions, start-of-cycle snapshots.
    /// Runs before the roster shuffle, so its RNG draws (if any) come
    /// first in the cycle.
    fn begin_cycle(&mut self, _cycle: u32, _rng: &mut StdRng) {}

    /// Whether roster member `i` actually initiates this cycle (checked
    /// after the shuffle, before any partner draw) — e.g. a site that is
    /// down under churn.
    fn initiates(&self, _i: usize) -> bool {
        true
    }

    /// Whether the drawn partner `j` accepts the connection (checked after
    /// the draw, so the RNG cost of the failed attempt is still paid —
    /// connections to unreachable sites simply fail).
    fn admits(&self, _j: usize) -> bool {
        true
    }

    /// Performs one contact between initiator `i` and partner `j`.
    fn contact(&mut self, cycle: u32, i: usize, j: usize, rng: &mut StdRng) -> ContactStats;

    /// Per-cycle processing after all contacts (e.g. deferred pull-counter
    /// bookkeeping, trace accumulation).
    fn end_cycle(&mut self, _cycle: u32, _rng: &mut StdRng) {}
}

/// Outcome of one [`CycleEngine::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineReport {
    /// Cycles executed before the finish predicate held (or the bound).
    pub cycles: u32,
    /// Aggregate contact totals.
    pub totals: TraceTotals,
}

/// The round loop's scratch: the everyone-roster, the active roster and
/// the per-site accepted-connection counters. One set serves any number of
/// runs, of any site count, one after the other; a run that is handed
/// buffers already grown to its size allocates nothing.
#[derive(Debug, Default)]
pub struct EngineBuffers {
    order: Vec<usize>,
    active: Vec<usize>,
    accepted: Vec<u32>,
}

/// The shared round loop: connection limits, hunting and the cycle bound.
/// Its roster/order/admission scratch lives in [`EngineBuffers`], reused
/// across cycles so the hot loop allocates nothing after warm-up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleEngine {
    connection_limit: Option<u32>,
    hunt_limit: u32,
    max_cycles: u32,
}

impl Default for CycleEngine {
    fn default() -> Self {
        CycleEngine::new()
    }
}

impl CycleEngine {
    /// An engine with no connection limit, no hunting and a generous
    /// cycle bound.
    pub fn new() -> Self {
        CycleEngine {
            connection_limit: None,
            hunt_limit: 0,
            max_cycles: 100_000,
        }
    }

    /// Limits how many connections a site can accept per cycle (§1.4
    /// *Connection Limit*). `None` means unlimited.
    pub fn connection_limit(mut self, limit: Option<u32>) -> Self {
        self.connection_limit = limit;
        self
    }

    /// Alternate partners a rejected initiator may try (§1.4 *Hunting*).
    pub fn hunt_limit(mut self, hunt: u32) -> Self {
        self.hunt_limit = hunt;
        self
    }

    /// Safety bound on simulated cycles.
    pub fn max_cycles(mut self, max: u32) -> Self {
        self.max_cycles = max;
        self
    }

    /// Drives `protocol` to completion, drawing partners from `policy`,
    /// reporting every event to `observer` (pass `&mut ()` to observe
    /// nothing) and keeping its scratch in `buffers` (whatever they held is
    /// overwritten).
    ///
    /// The setup / contact-loop / end-of-cycle phases are clocked only
    /// while the global [`epidemic_trace::profile`] recorder is on; with it
    /// off the loop reads no clock.
    pub fn run<P, L, O>(
        &self,
        protocol: &mut P,
        policy: &L,
        rng: &mut StdRng,
        observer: &mut O,
        buffers: &mut EngineBuffers,
    ) -> EngineReport
    where
        P: EpidemicProtocol,
        L: PartnerSelection + ?Sized,
        O: Observer<P>,
    {
        // Audited: `Instant::now` is reached only when the global profile
        // recorder is on. With it off every `timed.then(..)` below is
        // `None` and the hot loop performs no clock syscalls — pinned by
        // `uninstrumented_run_reads_no_clocks_and_records_no_phases`.
        let timed = profile::is_enabled();
        let setup_start = timed.then(Instant::now);
        let n = protocol.site_count();
        let EngineBuffers {
            order,
            active,
            accepted,
        } = buffers;
        order.clear();
        order.extend(0..n);
        active.clear();
        active.reserve(n);
        accepted.clear();
        accepted.resize(n, 0);
        let mut totals = TraceTotals::default();
        // `cycle` cannot overflow: it only increments while strictly below
        // `max_cycles`, itself a `u32`, so the counter tops out there.
        let mut cycle = 0u32;
        observer.on_run_start(protocol);
        let setup_nanos = setup_start.map_or(0, profile::span_nanos);
        let mut contact_nanos = 0u64;
        let mut end_nanos = 0u64;

        while cycle < self.max_cycles {
            let cycle_start = timed.then(Instant::now);
            protocol.active_sites(active);
            debug_assert!(is_the_active_scan(protocol, active));
            if protocol.finished(cycle, active) {
                break;
            }
            cycle += 1;
            accepted.fill(0);
            protocol.begin_cycle(cycle, rng);
            let roster: &mut Vec<usize> = match protocol.roster() {
                Roster::Active => {
                    // begin_cycle may change who is active (e.g. update
                    // injection makes fresh sites hot): recompute so they
                    // initiate this very cycle, as the drivers always did.
                    protocol.active_sites(active);
                    debug_assert!(is_the_active_scan(protocol, active));
                    &mut *active
                }
                Roster::Everyone => &mut *order,
            };
            roster.shuffle(rng);
            for &i in roster.iter() {
                if !protocol.initiates(i) {
                    continue;
                }
                let Some(j) = self.find_partner(policy, i, accepted, rng) else {
                    continue;
                };
                if !protocol.admits(j) {
                    continue;
                }
                accepted[j] += 1;
                let stats = protocol.contact(cycle, i, j, rng);
                stats.add_to(&mut totals);
                observer.on_contact(cycle, i, j, &stats);
            }
            let contacts_end = timed.then(Instant::now);
            if let (Some(start), Some(end)) = (cycle_start, contacts_end) {
                contact_nanos += u64::try_from((end - start).as_nanos()).unwrap_or(u64::MAX);
            }
            protocol.end_cycle(cycle, rng);
            observer.on_cycle_end(cycle, protocol);
            if let Some(end) = contacts_end {
                end_nanos += profile::span_nanos(end);
            }
        }

        if timed {
            profile::record("engine.setup", setup_nanos);
            profile::record("engine.contact_loop", contact_nanos);
            profile::record("engine.end_of_cycle", end_nanos);
        }

        observer.on_run_end(&totals);
        EngineReport {
            cycles: cycle,
            totals,
        }
    }

    /// Draws a partner for `i`, honoring the connection limit with up to
    /// `hunt_limit` retries. Every attempt pays its RNG draw whether or
    /// not the candidate accepts.
    fn find_partner<L: PartnerSelection + ?Sized>(
        &self,
        policy: &L,
        i: usize,
        accepted: &[u32],
        rng: &mut StdRng,
    ) -> Option<usize> {
        for _ in 0..=self.hunt_limit {
            let j = policy.select(i, rng);
            debug_assert!(j < accepted.len() && j != i);
            match self.connection_limit {
                Some(limit) if accepted[j] >= limit => continue,
                _ => return Some(j),
            }
        }
        None
    }
}

/// Whether `active` is what the [`EpidemicProtocol::is_active`] scan
/// yields — the debug cross-check on [`EpidemicProtocol::active_sites`]
/// overrides.
fn is_the_active_scan<P: EpidemicProtocol>(protocol: &P, active: &[usize]) -> bool {
    (0..protocol.site_count())
        .filter(|&i| protocol.is_active(i))
        .eq(active.iter().copied())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// A protocol where "infection" is one bit per site: every active
    /// (infected) site pushes its bit to its partner.
    struct BitPush {
        infected: Vec<bool>,
        contact_log: Vec<(usize, usize)>,
    }

    impl EpidemicProtocol for BitPush {
        fn site_count(&self) -> usize {
            self.infected.len()
        }
        fn roster(&self) -> Roster {
            Roster::Active
        }
        fn is_active(&self, i: usize) -> bool {
            self.infected[i]
        }
        fn finished(&self, _cycle: u32, _active: &[usize]) -> bool {
            self.infected.iter().all(|&b| b)
        }
        fn contact(&mut self, _cycle: u32, i: usize, j: usize, _rng: &mut StdRng) -> ContactStats {
            self.contact_log.push((i, j));
            let useful = u64::from(!self.infected[j]);
            self.infected[j] = true;
            ContactStats { sent: 1, useful }
        }
    }

    #[test]
    fn engine_runs_a_push_epidemic_to_completion() {
        let mut protocol = BitPush {
            infected: {
                let mut v = vec![false; 32];
                v[0] = true;
                v
            },
            contact_log: Vec::new(),
        };
        let mut rng = StdRng::seed_from_u64(1);
        let report = CycleEngine::new().run(
            &mut protocol,
            &UniformPartners::new(32),
            &mut rng,
            &mut (),
            &mut EngineBuffers::default(),
        );
        assert!(protocol.infected.iter().all(|&b| b));
        assert!(report.cycles > 0);
        assert_eq!(report.totals.contacts, protocol.contact_log.len() as u64);
        assert_eq!(report.totals.sent, report.totals.contacts);
        assert_eq!(report.totals.useful, 31, "each site infected exactly once");
    }

    #[test]
    fn engine_is_deterministic_per_seed() {
        let run = || {
            let mut protocol = BitPush {
                infected: {
                    let mut v = vec![false; 24];
                    v[3] = true;
                    v
                },
                contact_log: Vec::new(),
            };
            let mut rng = StdRng::seed_from_u64(9);
            let report = CycleEngine::new().run(
                &mut protocol,
                &UniformPartners::new(24),
                &mut rng,
                &mut (),
                &mut EngineBuffers::default(),
            );
            (report, protocol.contact_log)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn connection_limit_rejects_and_hunting_recovers() {
        /// Everyone initiates; contacts always succeed.
        struct Count {
            n: usize,
            cycles: u32,
            contacts: u64,
        }
        impl EpidemicProtocol for Count {
            fn site_count(&self) -> usize {
                self.n
            }
            fn finished(&self, cycle: u32, _active: &[usize]) -> bool {
                cycle >= self.cycles
            }
            fn contact(
                &mut self,
                _cycle: u32,
                _i: usize,
                _j: usize,
                _rng: &mut StdRng,
            ) -> ContactStats {
                self.contacts += 1;
                ContactStats::default()
            }
        }
        let run = |limit: Option<u32>, hunt: u32| {
            let mut protocol = Count {
                n: 40,
                cycles: 20,
                contacts: 0,
            };
            let mut rng = StdRng::seed_from_u64(2);
            CycleEngine::new()
                .connection_limit(limit)
                .hunt_limit(hunt)
                .run(
                    &mut protocol,
                    &UniformPartners::new(40),
                    &mut rng,
                    &mut (),
                    &mut EngineBuffers::default(),
                );
            protocol.contacts
        };
        let unlimited = run(None, 0);
        let limited = run(Some(1), 0);
        let hunting = run(Some(1), 8);
        assert_eq!(unlimited, 40 * 20, "every site connects every cycle");
        assert!(limited < unlimited, "limit 1 must reject some initiators");
        assert!(hunting > limited, "hunting recovers rejected connections");
    }

    #[test]
    fn max_cycles_bounds_a_run_that_never_finishes() {
        struct Never;
        impl EpidemicProtocol for Never {
            fn site_count(&self) -> usize {
                4
            }
            fn finished(&self, _cycle: u32, _active: &[usize]) -> bool {
                false
            }
            fn contact(
                &mut self,
                _cycle: u32,
                _i: usize,
                _j: usize,
                _rng: &mut StdRng,
            ) -> ContactStats {
                ContactStats::default()
            }
        }
        let mut rng = StdRng::seed_from_u64(0);
        let report = CycleEngine::new().max_cycles(17).run(
            &mut Never,
            &UniformPartners::new(4),
            &mut rng,
            &mut (),
            &mut EngineBuffers::default(),
        );
        assert_eq!(report.cycles, 17);
    }

    /// Regression (hot-path sweep): a six-figure cycle bound must run to
    /// completion with an exact cycle count — the `u32` counter is bounded
    /// by `max_cycles` and cannot wrap or misreport on long runs.
    #[test]
    fn long_runs_keep_an_exact_cycle_count() {
        struct Idle;
        impl EpidemicProtocol for Idle {
            fn site_count(&self) -> usize {
                2
            }
            fn roster(&self) -> Roster {
                Roster::Active
            }
            fn is_active(&self, _i: usize) -> bool {
                false // empty roster: cycles tick with zero contacts
            }
            fn finished(&self, _cycle: u32, _active: &[usize]) -> bool {
                false
            }
            fn contact(
                &mut self,
                _cycle: u32,
                _i: usize,
                _j: usize,
                _rng: &mut StdRng,
            ) -> ContactStats {
                unreachable!("no site is active")
            }
        }
        let mut rng = StdRng::seed_from_u64(0);
        let report = CycleEngine::new().max_cycles(250_000).run(
            &mut Idle,
            &UniformPartners::new(2),
            &mut rng,
            &mut (),
            &mut EngineBuffers::default(),
        );
        assert_eq!(report.cycles, 250_000);
        assert_eq!(report.totals.contacts, 0);
    }

    /// Regression (hot-path sweep): converting pathological `RumorStats`
    /// saturates instead of panicking — `ContactStats::from` sits on the
    /// per-contact path and must never abort a run.
    #[test]
    fn contact_stats_conversion_saturates_on_huge_counts() {
        let stats = epidemic_core::rumor::RumorStats {
            sent: usize::MAX,
            useful: usize::MAX,
            deactivated: 0,
        };
        let converted = ContactStats::from(stats);
        assert_eq!(
            converted.sent,
            u64::try_from(usize::MAX).unwrap_or(u64::MAX)
        );
        assert_eq!(converted.useful, converted.sent);
    }

    /// Audit pin (hot-path sweep): with the global profile recorder off,
    /// the engine performs no phase timing at all — no `engine.*` phases
    /// appear in the profile table afterwards. (The `timed` gate in
    /// `CycleEngine::run` is what keeps `Instant::now` off the hot path.)
    #[test]
    fn uninstrumented_run_reads_no_clocks_and_records_no_phases() {
        assert!(
            !profile::is_enabled(),
            "test assumes the global recorder is off"
        );
        let mut protocol = BitPush {
            infected: {
                let mut v = vec![false; 16];
                v[0] = true;
                v
            },
            contact_log: Vec::new(),
        };
        let mut rng = StdRng::seed_from_u64(5);
        CycleEngine::new().run(
            &mut protocol,
            &UniformPartners::new(16),
            &mut rng,
            &mut (),
            &mut EngineBuffers::default(),
        );
        let phases = profile::snapshot();
        assert!(
            phases.iter().all(|p| !p.name.starts_with("engine.")),
            "uninstrumented runs must record no engine phases: {phases:?}"
        );
    }
}
