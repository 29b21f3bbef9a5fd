//! Complete-mixing rumor epidemics (paper §1.4, Tables 1–3).
//!
//! The Tables 1–3 experiments run a single update through `n = 1000` sites
//! with uniform partner selection and no network topology, measuring
//!
//! * **residue** `s` — the fraction of sites still susceptible when the
//!   epidemic quiesces,
//! * **traffic** `m` — database updates sent per site,
//! * **delay** `t_ave` / `t_last` — mean and maximum cycles from injection
//!   to receipt.
//!
//! Connection limits and hunting (§1.4's *Connection Limit* and *Hunting*
//! variations) come from the shared [`CycleEngine`]: under push, a site can
//! accept at most `C` inbound connections per cycle and rejected senders
//! may hunt for alternates; under pull, a source serves at most `C`
//! requests per cycle.
//!
//! Both drivers here are thin shims over the engine's rumor-mongering
//! and bit-anti-entropy protocols with [`UniformPartners`] selection.

use epidemic_core::rumor::RumorConfig;
use epidemic_core::Direction;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::bitset::BitSet;
use crate::engine::protocols::{BitAntiEntropyProtocol, MixingProtocol, MixingState};
use crate::engine::{
    CycleEngine, EngineBuffers, EngineReport, Observer, SirObserver, UniformPartners,
};

/// Result of one single-update epidemic run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpidemicResult {
    /// Number of sites.
    pub n: usize,
    /// Fraction of sites still susceptible at quiescence (`s`).
    pub residue: f64,
    /// Updates sent per site (`m`).
    pub traffic: f64,
    /// Mean cycles from injection to receipt, over sites that received the
    /// update (the origin counts with delay 0).
    pub t_ave: f64,
    /// Cycles until the last receiving site got the update.
    pub t_last: f64,
    /// Cycles until quiescence (no site infective).
    pub cycles: u32,
    /// Whether every site received the update.
    pub complete: bool,
}

impl EpidemicResult {
    fn new(n: usize, report: EngineReport, protocol: &MixingProtocol) -> Self {
        let received = &protocol.state.received;
        EpidemicResult {
            n,
            residue: received.residue(),
            traffic: report.totals.sent as f64 / n as f64,
            t_ave: received.t_ave_received(),
            t_last: f64::from(received.t_last().unwrap_or(0)),
            cycles: report.cycles,
            complete: received.complete(),
        }
    }
}

/// Everything a [`RumorEpidemic`] run keeps on the heap — the replicas,
/// the receive log, the active-set and snapshot bitsets, the rumor scratch
/// and the engine's roster buffers — owned across runs, so that
/// [`RumorEpidemic::run_in`] on a warm arena allocates nothing. One arena
/// serves any sequence of drivers and site counts; each run starts from a
/// state indistinguishable from a fresh one.
#[derive(Debug, Default)]
pub struct MixingArena {
    state: MixingState,
    buffers: EngineBuffers,
}

impl MixingArena {
    /// An empty arena. Allocates nothing until its first run.
    pub fn new() -> Self {
        MixingArena::default()
    }
}

/// Per-cycle susceptible/infective/removed fractions from a traced run
/// ([`RumorEpidemic::run_traced`]). Point 0 is the state immediately after
/// injection; point `c` is the state after cycle `c`.
#[derive(Debug, Clone, PartialEq)]
pub struct SirTrace {
    /// `(s, i, r)` fraction triples, one per recorded state.
    pub points: Vec<(f64, f64, f64)>,
    /// The run's summary result.
    pub result: EpidemicResult,
}

/// Driver for single-update rumor epidemics under complete mixing.
///
/// # Example
///
/// ```
/// use epidemic_core::{Direction, Feedback, Removal, RumorConfig};
/// use epidemic_sim::mixing::RumorEpidemic;
///
/// let cfg = RumorConfig::new(Direction::Push, Feedback::Feedback, Removal::Counter { k: 3 });
/// let r = RumorEpidemic::new(cfg).run(500, 7);
/// assert!(r.residue < 0.1); // k = 3 reaches almost everyone
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RumorEpidemic {
    cfg: RumorConfig,
    connection_limit: Option<u32>,
    hunt_limit: u32,
    max_cycles: u32,
    synchronous: bool,
}

impl RumorEpidemic {
    /// Creates a driver for the given rumor-mongering configuration, with
    /// no connection limit and no hunting.
    pub fn new(cfg: RumorConfig) -> Self {
        RumorEpidemic {
            cfg,
            connection_limit: None,
            hunt_limit: 0,
            max_cycles: 100_000,
            synchronous: true,
        }
    }

    /// Chooses round semantics for push feedback. When `true` (the
    /// default, matching the paper's cycle model), a sender's feedback is
    /// judged against the recipient's state at the *start* of the cycle,
    /// so two infectives pushing to the same susceptible site in one cycle
    /// both receive useful feedback. When `false`, contacts within a cycle
    /// are fully sequential.
    pub fn synchronous(mut self, synchronous: bool) -> Self {
        self.synchronous = synchronous;
        self
    }

    /// Limits how many connections a site can accept per cycle (§1.4
    /// *Connection Limit*). `None` means unlimited.
    pub fn connection_limit(mut self, limit: Option<u32>) -> Self {
        self.connection_limit = limit;
        self
    }

    /// Number of alternate partners a rejected initiator may try (§1.4
    /// *Hunting*).
    pub fn hunt_limit(mut self, hunt: u32) -> Self {
        self.hunt_limit = hunt;
        self
    }

    /// Safety bound on simulated cycles.
    pub fn max_cycles(mut self, max: u32) -> Self {
        self.max_cycles = max;
        self
    }

    /// Runs one epidemic: a single update injected at site 0 of `n` sites,
    /// simulated to quiescence.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn run(&self, n: usize, seed: u64) -> EpidemicResult {
        self.run_observed(n, seed, &mut ())
    }

    /// As [`RumorEpidemic::run`], additionally recording the susceptible /
    /// infective / removed fractions after every cycle — the simulated
    /// counterpart of the §1.4 differential-equation trajectory, captured
    /// by composing a [`SirObserver`] onto the engine run.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn run_traced(&self, n: usize, seed: u64) -> SirTrace {
        let mut observer = SirObserver::new();
        let result = self.run_observed(n, seed, &mut observer);
        SirTrace {
            points: observer.points,
            result,
        }
    }

    /// Runs `trials` epidemics in parallel with seeds `seed_base + trial`,
    /// returning results in trial order — identical to a sequential loop
    /// over [`RumorEpidemic::run`] at any thread count.
    pub fn run_trials(
        &self,
        runner: crate::runner::TrialRunner,
        n: usize,
        trials: u64,
        seed_base: u64,
    ) -> Vec<EpidemicResult> {
        runner.run(trials, seed_base, |seed| self.run(n, seed))
    }

    /// As [`RumorEpidemic::run`], reporting every contact and cycle
    /// boundary to `observer` — any composition of
    /// [`Observer<MixingProtocol>`] implementations, e.g. a
    /// [`TraceObserver`](crate::engine::trace::TraceObserver) paired with
    /// an [`InvariantObserver`](crate::engine::trace::InvariantObserver).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn run_observed<O: Observer<MixingProtocol>>(
        &self,
        n: usize,
        seed: u64,
        observer: &mut O,
    ) -> EpidemicResult {
        self.run_in(&mut MixingArena::new(), n, seed, observer)
    }

    /// As [`RumorEpidemic::run_observed`] on the heap state `arena` kept
    /// from earlier runs (of any driver and any `n`): the result and every
    /// observed event equal a fresh run's, and once the arena has grown to
    /// this run's size nothing is allocated. Trial loops hold one arena
    /// per worker.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn run_in<O: Observer<MixingProtocol>>(
        &self,
        arena: &mut MixingArena,
        n: usize,
        seed: u64,
        observer: &mut O,
    ) -> EpidemicResult {
        self.run_metered_in(arena, n, seed, observer, &mut ())
    }

    /// As [`RumorEpidemic::run_observed`], additionally reporting engine
    /// counters and phase timings to `sink` (see
    /// [`CycleEngine::run_instrumented`]). With the no-op sink `()` this
    /// is exactly [`RumorEpidemic::run_observed`] — the instrumentation
    /// compiles away — which is what the `metrics_sink` microbenchmark
    /// pins down.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn run_metered<O, S>(
        &self,
        n: usize,
        seed: u64,
        observer: &mut O,
        sink: &mut S,
    ) -> EpidemicResult
    where
        O: Observer<MixingProtocol>,
        S: epidemic_trace::MetricsSink,
    {
        self.run_metered_in(&mut MixingArena::new(), n, seed, observer, sink)
    }

    fn run_metered_in<O, S>(
        &self,
        arena: &mut MixingArena,
        n: usize,
        seed: u64,
        observer: &mut O,
        sink: &mut S,
    ) -> EpidemicResult
    where
        O: Observer<MixingProtocol>,
        S: epidemic_trace::MetricsSink,
    {
        let policy = UniformPartners::new(n);
        let mut rng = StdRng::seed_from_u64(seed);
        let state = std::mem::take(&mut arena.state);
        let mut protocol = MixingProtocol::new(self.cfg, self.synchronous, n, state);
        let report = CycleEngine::new()
            .connection_limit(self.connection_limit)
            .hunt_limit(self.hunt_limit)
            .max_cycles(self.max_cycles)
            .run_instrumented(
                &mut protocol,
                &policy,
                &mut rng,
                observer,
                sink,
                &mut arena.buffers,
            );
        let result = EpidemicResult::new(n, report, &protocol);
        arena.state = protocol.state;
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epidemic_core::{Feedback, Removal};

    fn cfg(direction: Direction, k: u32) -> RumorConfig {
        RumorConfig::new(direction, Feedback::Feedback, Removal::Counter { k })
    }

    #[test]
    fn push_epidemic_reaches_most_sites() {
        let r = RumorEpidemic::new(cfg(Direction::Push, 3)).run(300, 1);
        assert!(r.residue < 0.1, "residue {}", r.residue);
        assert!(r.traffic > 1.0 && r.traffic < 10.0);
        assert!(r.t_last >= r.t_ave);
        assert!(f64::from(r.cycles) >= r.t_last);
    }

    #[test]
    fn higher_k_means_lower_residue_and_more_traffic() {
        let avg = |k: u32| {
            let mut residue = 0.0;
            let mut traffic = 0.0;
            for seed in 0..10 {
                let r = RumorEpidemic::new(cfg(Direction::Push, k)).run(400, seed);
                residue += r.residue;
                traffic += r.traffic;
            }
            (residue / 10.0, traffic / 10.0)
        };
        let (res1, traf1) = avg(1);
        let (res4, traf4) = avg(4);
        assert!(res4 < res1);
        assert!(traf4 > traf1);
    }

    #[test]
    fn pull_beats_push_on_residue() {
        let mut push_res = 0.0;
        let mut pull_res = 0.0;
        for seed in 0..10 {
            push_res += RumorEpidemic::new(cfg(Direction::Push, 2))
                .run(400, seed)
                .residue;
            pull_res += RumorEpidemic::new(cfg(Direction::Pull, 2))
                .run(400, seed)
                .residue;
        }
        assert!(
            pull_res < push_res,
            "pull {pull_res} should beat push {push_res}"
        );
    }

    #[test]
    fn push_pull_converges() {
        let r = RumorEpidemic::new(cfg(Direction::PushPull, 4)).run(300, 3);
        assert!(r.residue < 0.02, "residue {}", r.residue);
    }

    #[test]
    fn blind_coin_k1_dies_early() {
        let cfg = RumorConfig::new(Direction::Push, Feedback::Blind, Removal::Coin { k: 1 });
        let mut residues = 0.0;
        for seed in 0..20 {
            residues += RumorEpidemic::new(cfg).run(300, seed).residue;
        }
        // Table 2, k=1: residue ≈ 0.96.
        assert!(residues / 20.0 > 0.75, "mean residue {}", residues / 20.0);
    }

    #[test]
    fn connection_limit_improves_push_residue() {
        // §1.4: "paradoxically, push gets significantly better" under a
        // connection limit of 1 — rejected contacts cost no traffic but the
        // update still spreads, improving the residue/traffic trade-off.
        let protocol = cfg(Direction::Push, 1);
        let mut unlimited = 0.0;
        let mut limited = 0.0;
        for seed in 0..30 {
            unlimited += RumorEpidemic::new(protocol).run(400, seed).residue;
            limited += RumorEpidemic::new(protocol)
                .connection_limit(Some(1))
                .run(400, seed)
                .residue;
        }
        assert!(
            limited < unlimited,
            "limited {limited} vs unlimited {unlimited}"
        );
    }

    #[test]
    fn connection_limit_hurts_pull_residue() {
        let protocol = cfg(Direction::Pull, 1);
        let mut unlimited = 0.0;
        let mut limited = 0.0;
        for seed in 0..20 {
            unlimited += RumorEpidemic::new(protocol).run(300, seed).residue;
            limited += RumorEpidemic::new(protocol)
                .connection_limit(Some(1))
                .run(300, seed)
                .residue;
        }
        assert!(
            limited >= unlimited,
            "limited {limited} vs unlimited {unlimited}"
        );
    }

    #[test]
    fn hunting_recovers_lost_connections() {
        let protocol = cfg(Direction::Push, 4);
        let mut no_hunt_residue = 0.0;
        let mut hunt_residue = 0.0;
        for seed in 0..10 {
            no_hunt_residue += RumorEpidemic::new(protocol)
                .connection_limit(Some(1))
                .run(300, seed)
                .residue;
            hunt_residue += RumorEpidemic::new(protocol)
                .connection_limit(Some(1))
                .hunt_limit(8)
                .run(300, seed)
                .residue;
        }
        assert!(hunt_residue <= no_hunt_residue + 1e-9);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = RumorEpidemic::new(cfg(Direction::Push, 2)).run(200, 99);
        let b = RumorEpidemic::new(cfg(Direction::Push, 2)).run(200, 99);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least two sites")]
    fn rejects_single_site() {
        RumorEpidemic::new(cfg(Direction::Push, 1)).run(1, 0);
    }
}

/// Complete-mixing **anti-entropy** epidemic (paper §1.3): every site
/// contacts one uniformly random partner per cycle and resolves
/// differences in the configured direction. Used to verify the §1.3
/// convergence results: `log₂n + ln n` expected time for push from a
/// single source, and the pull-vs-push tail recurrences.
///
/// # Example
///
/// ```
/// use epidemic_core::Direction;
/// use epidemic_sim::mixing::AntiEntropyEpidemic;
///
/// let run = AntiEntropyEpidemic::new(Direction::Push).run(256, 1);
/// assert!(run.complete);
/// // Expected cover time is log2(256) + ln(256) ≈ 13.5 cycles.
/// assert!(run.cycles > 4 && run.cycles < 40);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AntiEntropyEpidemic {
    direction: Direction,
    max_cycles: u32,
}

/// Result of one anti-entropy epidemic run.
#[derive(Debug, Clone, PartialEq)]
pub struct AntiEntropyRun {
    /// Cycles until every site held the update.
    pub cycles: u32,
    /// Susceptible fraction after each cycle (index 0 = after cycle 1).
    pub susceptible_trace: Vec<f64>,
    /// Whether full coverage was reached within the cycle bound.
    pub complete: bool,
}

impl AntiEntropyEpidemic {
    /// Creates a driver resolving differences in `direction`.
    pub fn new(direction: Direction) -> Self {
        AntiEntropyEpidemic {
            direction,
            max_cycles: 10_000,
        }
    }

    /// Safety bound on simulated cycles.
    pub fn max_cycles(mut self, max: u32) -> Self {
        self.max_cycles = max;
        self
    }

    /// Runs one epidemic: site 0 of `n` holds the update; each cycle every
    /// site contacts a uniform random partner and resolves differences.
    /// The update state is a single bit per site, matching the §1.3 model
    /// where contacts against start-of-cycle state would only slow both
    /// variants equally.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn run(&self, n: usize, seed: u64) -> AntiEntropyRun {
        self.run_observed(n, seed, &mut ())
    }

    /// As [`AntiEntropyEpidemic::run`], reporting every contact and cycle
    /// boundary to `observer`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn run_observed<O: Observer<BitAntiEntropyProtocol>>(
        &self,
        n: usize,
        seed: u64,
        observer: &mut O,
    ) -> AntiEntropyRun {
        let policy = UniformPartners::new(n);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut infected = vec![false; n];
        infected[0] = true;
        let mut protocol = BitAntiEntropyProtocol {
            direction: self.direction,
            infected,
            snapshot: BitSet::new(n),
            count: 1,
            trace: Vec::new(),
        };
        let report = CycleEngine::new().max_cycles(self.max_cycles).run(
            &mut protocol,
            &policy,
            &mut rng,
            observer,
        );
        AntiEntropyRun {
            cycles: report.cycles,
            susceptible_trace: protocol.trace,
            complete: protocol.count == n,
        }
    }

    /// Runs `trials` epidemics in parallel with seeds `seed_base + trial`,
    /// returning results in trial order — identical to a sequential loop
    /// over [`AntiEntropyEpidemic::run`] at any thread count.
    pub fn run_trials(
        &self,
        runner: crate::runner::TrialRunner,
        n: usize,
        trials: u64,
        seed_base: u64,
    ) -> Vec<AntiEntropyRun> {
        runner.run(trials, seed_base, |seed| self.run(n, seed))
    }
}

#[cfg(test)]
mod ae_tests {
    use super::*;

    #[test]
    fn push_cover_time_tracks_log2_plus_ln() {
        let driver = AntiEntropyEpidemic::new(Direction::Push);
        let n = 1024;
        let mean: f64 = (0..20)
            .map(|s| f64::from(driver.run(n, s).cycles))
            .sum::<f64>()
            / 20.0;
        let expected = (n as f64).log2() + (n as f64).ln();
        assert!(
            (mean - expected).abs() < expected * 0.25,
            "mean {mean} vs expected {expected}"
        );
    }

    #[test]
    fn pull_converges_faster_than_push_in_the_tail() {
        // Compare cycles spent below 10% susceptible.
        let tail = |direction| {
            let driver = AntiEntropyEpidemic::new(direction);
            (0..10)
                .map(|s| {
                    let run = driver.run(2048, s);
                    run.susceptible_trace
                        .iter()
                        .filter(|&&p| p > 0.0 && p < 0.1)
                        .count() as f64
                })
                .sum::<f64>()
                / 10.0
        };
        let push = tail(Direction::Push);
        let pull = tail(Direction::Pull);
        assert!(pull < push, "pull tail {pull} vs push tail {push}");
    }

    #[test]
    fn push_pull_behaves_like_pull() {
        let driver_pp = AntiEntropyEpidemic::new(Direction::PushPull);
        let driver_push = AntiEntropyEpidemic::new(Direction::Push);
        let mean = |d: AntiEntropyEpidemic| {
            (0..10)
                .map(|s| f64::from(d.run(1024, s).cycles))
                .sum::<f64>()
                / 10.0
        };
        assert!(mean(driver_pp) < mean(driver_push));
    }

    #[test]
    fn all_directions_always_complete() {
        for direction in [Direction::Push, Direction::Pull, Direction::PushPull] {
            let run = AntiEntropyEpidemic::new(direction).run(128, 7);
            assert!(run.complete);
            assert_eq!(*run.susceptible_trace.last().unwrap(), 0.0);
        }
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use epidemic_core::{Feedback, Removal};

    #[test]
    fn sir_fractions_always_sum_to_one() {
        let cfg = RumorConfig::new(
            Direction::Push,
            Feedback::Feedback,
            Removal::Counter { k: 2 },
        );
        let trace = RumorEpidemic::new(cfg).run_traced(300, 5);
        assert!(!trace.points.is_empty());
        for &(s, i, r) in &trace.points {
            assert!((s + i + r - 1.0).abs() < 1e-12);
            assert!(s >= 0.0 && i >= 0.0 && r >= 0.0);
        }
    }

    #[test]
    fn trace_starts_with_one_infective_and_ends_quiescent() {
        let cfg = RumorConfig::new(
            Direction::Push,
            Feedback::Feedback,
            Removal::Counter { k: 3 },
        );
        let trace = RumorEpidemic::new(cfg).run_traced(200, 9);
        let first = trace.points[0];
        assert!((first.0 - 199.0 / 200.0).abs() < 1e-12);
        assert!((first.1 - 1.0 / 200.0).abs() < 1e-12);
        let last = trace.points.last().unwrap();
        assert_eq!(last.1, 0.0, "quiescent: nobody infective");
        assert!((last.0 - trace.result.residue).abs() < 1e-12);
    }

    #[test]
    fn susceptible_fraction_is_monotone_nonincreasing() {
        let cfg = RumorConfig::new(
            Direction::PushPull,
            Feedback::Feedback,
            Removal::Counter { k: 2 },
        );
        let trace = RumorEpidemic::new(cfg).run_traced(300, 11);
        for w in trace.points.windows(2) {
            assert!(w[1].0 <= w[0].0 + 1e-12);
        }
    }

    #[test]
    fn traced_result_matches_untraced_run() {
        let cfg = RumorConfig::new(
            Direction::Pull,
            Feedback::Feedback,
            Removal::Counter { k: 2 },
        );
        let driver = RumorEpidemic::new(cfg);
        let plain = driver.run(250, 3);
        let traced = driver.run_traced(250, 3);
        assert_eq!(plain, traced.result);
    }
}
