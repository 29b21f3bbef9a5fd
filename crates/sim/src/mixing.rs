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

use crate::engine::protocols::{BitAntiEntropyProtocol, MixingProtocol, MixingState};
use crate::engine::{CycleEngine, EngineBuffers, EngineReport, Observer, UniformPartners};
use crate::util::site_ids;

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

/// Everything a [`RumorEpidemic`] or [`AntiEntropyEpidemic`] run keeps on
/// the heap — the replicas, the receive log, the active-set and snapshot
/// bitsets, the rumor and exchange scratch and the engine's roster
/// buffers — owned across runs, so that a rumor run on a warm arena
/// allocates nothing. One arena serves any sequence of drivers and site
/// counts; each run starts from a state indistinguishable from a fresh one.
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

/// Driver for single-update rumor epidemics under complete mixing.
///
/// # Example
///
/// ```
/// use epidemic_core::{Direction, Feedback, Removal, RumorConfig};
/// use epidemic_sim::mixing::{MixingArena, RumorEpidemic};
///
/// let cfg = RumorConfig::new(Direction::Push, Feedback::Feedback, Removal::Counter { k: 3 });
/// let r = RumorEpidemic::new(500, cfg).run(&mut MixingArena::new(), 7, &mut ());
/// assert!(r.residue < 0.1); // k = 3 reaches almost everyone
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RumorEpidemic {
    n: usize,
    cfg: RumorConfig,
    connection_limit: Option<u32>,
    hunt_limit: u32,
    max_cycles: u32,
    synchronous: bool,
}

impl RumorEpidemic {
    /// Creates a driver for the given rumor-mongering configuration on `n`
    /// sites, with no connection limit and no hunting.
    pub fn new(n: usize, cfg: RumorConfig) -> Self {
        RumorEpidemic {
            n,
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

    /// Runs one epidemic — a single update injected at site 0, simulated
    /// to quiescence — on the heap state `arena` kept from earlier runs (of
    /// any driver and any site count), reporting every contact and cycle
    /// boundary to `observer`: any composition of
    /// [`Observer<MixingProtocol>`] implementations, e.g. a
    /// [`SirObserver`](crate::engine::SirObserver) or a
    /// [`RunTracer`](epidemic_trace::RunTracer) paired with an
    /// [`InvariantChecker`](epidemic_trace::InvariantChecker), and
    /// `&mut ()` for none. The result and every observed event equal a
    /// fresh arena's, and once the arena has grown to this run's size
    /// nothing is allocated. Trial loops hold one arena per worker.
    ///
    /// # Panics
    ///
    /// Panics if the driver has fewer than two sites.
    pub fn run<O: Observer<MixingProtocol>>(
        &self,
        arena: &mut MixingArena,
        seed: u64,
        observer: &mut O,
    ) -> EpidemicResult {
        let n = self.n;
        let policy = UniformPartners::new(n);
        let mut rng = StdRng::seed_from_u64(seed);
        let state = std::mem::take(&mut arena.state);
        let mut protocol =
            MixingProtocol::new(Some(self.cfg), self.synchronous, site_ids(n), 0, state);
        let report = CycleEngine::new()
            .connection_limit(self.connection_limit)
            .hunt_limit(self.hunt_limit)
            .max_cycles(self.max_cycles)
            .run(
                &mut protocol,
                &policy,
                &mut rng,
                observer,
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

    /// One unobserved run on a fresh arena.
    fn run(driver: RumorEpidemic, seed: u64) -> EpidemicResult {
        driver.run(&mut MixingArena::new(), seed, &mut ())
    }

    #[test]
    fn push_epidemic_reaches_most_sites() {
        let r = run(RumorEpidemic::new(300, cfg(Direction::Push, 3)), 1);
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
                let r = run(RumorEpidemic::new(400, cfg(Direction::Push, k)), seed);
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
            push_res += run(RumorEpidemic::new(400, cfg(Direction::Push, 2)), seed).residue;
            pull_res += run(RumorEpidemic::new(400, cfg(Direction::Pull, 2)), seed).residue;
        }
        assert!(
            pull_res < push_res,
            "pull {pull_res} should beat push {push_res}"
        );
    }

    #[test]
    fn push_pull_converges() {
        let r = run(RumorEpidemic::new(300, cfg(Direction::PushPull, 4)), 3);
        assert!(r.residue < 0.02, "residue {}", r.residue);
    }

    #[test]
    fn blind_coin_k1_dies_early() {
        let cfg = RumorConfig::new(Direction::Push, Feedback::Blind, Removal::Coin { k: 1 });
        let mut residues = 0.0;
        for seed in 0..20 {
            residues += run(RumorEpidemic::new(300, cfg), seed).residue;
        }
        // Table 2, k=1: residue ≈ 0.96.
        assert!(residues / 20.0 > 0.75, "mean residue {}", residues / 20.0);
    }

    #[test]
    fn connection_limit_improves_push_residue() {
        // §1.4: "paradoxically, push gets significantly better" under a
        // connection limit of 1 — rejected contacts cost no traffic but the
        // update still spreads, improving the residue/traffic trade-off.
        let driver = RumorEpidemic::new(400, cfg(Direction::Push, 1));
        let mut unlimited = 0.0;
        let mut limited = 0.0;
        for seed in 0..30 {
            unlimited += run(driver, seed).residue;
            limited += run(driver.connection_limit(Some(1)), seed).residue;
        }
        assert!(
            limited < unlimited,
            "limited {limited} vs unlimited {unlimited}"
        );
    }

    #[test]
    fn connection_limit_hurts_pull_residue() {
        let driver = RumorEpidemic::new(300, cfg(Direction::Pull, 1));
        let mut unlimited = 0.0;
        let mut limited = 0.0;
        for seed in 0..20 {
            unlimited += run(driver, seed).residue;
            limited += run(driver.connection_limit(Some(1)), seed).residue;
        }
        assert!(
            limited >= unlimited,
            "limited {limited} vs unlimited {unlimited}"
        );
    }

    #[test]
    fn hunting_recovers_lost_connections() {
        let limited = RumorEpidemic::new(300, cfg(Direction::Push, 4)).connection_limit(Some(1));
        let mut no_hunt_residue = 0.0;
        let mut hunt_residue = 0.0;
        for seed in 0..10 {
            no_hunt_residue += run(limited, seed).residue;
            hunt_residue += run(limited.hunt_limit(8), seed).residue;
        }
        assert!(hunt_residue <= no_hunt_residue + 1e-9);
    }

    #[test]
    fn deterministic_given_seed() {
        let driver = RumorEpidemic::new(200, cfg(Direction::Push, 2));
        assert_eq!(run(driver, 99), run(driver, 99));
    }

    #[test]
    #[should_panic(expected = "at least two sites")]
    fn rejects_single_site() {
        run(RumorEpidemic::new(1, cfg(Direction::Push, 1)), 0);
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
/// use epidemic_sim::mixing::{AntiEntropyEpidemic, MixingArena};
///
/// let run = AntiEntropyEpidemic::new(256, Direction::Push).run(&mut MixingArena::new(), 1, &mut ());
/// assert!(run.complete);
/// // Expected cover time is log2(256) + ln(256) ≈ 13.5 cycles.
/// assert!(run.cycles > 4 && run.cycles < 40);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AntiEntropyEpidemic {
    n: usize,
    direction: Direction,
}

/// Result of one anti-entropy epidemic run.
#[derive(Debug, Clone, PartialEq)]
pub struct AntiEntropyRun {
    /// Cycles until every site held the update.
    pub cycles: u32,
    /// Whether full coverage was reached within the cycle bound.
    pub complete: bool,
}

impl AntiEntropyEpidemic {
    /// Creates a driver on `n` sites resolving differences in `direction`.
    pub fn new(n: usize, direction: Direction) -> Self {
        AntiEntropyEpidemic { n, direction }
    }

    /// Runs one epidemic on the heap state `arena` kept from earlier runs,
    /// reporting every contact and cycle boundary to `observer`: site 0
    /// holds the update; each cycle every site contacts a uniform random
    /// partner and resolves differences. The update state is a single bit
    /// per site, matching the §1.3 model where contacts against
    /// start-of-cycle state would only slow both variants equally.
    ///
    /// # Panics
    ///
    /// Panics if the driver has fewer than two sites.
    pub fn run<O: Observer<BitAntiEntropyProtocol>>(
        &self,
        arena: &mut MixingArena,
        seed: u64,
        observer: &mut O,
    ) -> AntiEntropyRun {
        let policy = UniformPartners::new(self.n);
        let mut rng = StdRng::seed_from_u64(seed);
        let state = std::mem::take(&mut arena.state);
        let mut protocol = BitAntiEntropyProtocol::new(self.direction, self.n, state);
        let report = CycleEngine::new().max_cycles(10_000).run(
            &mut protocol,
            &policy,
            &mut rng,
            observer,
            &mut arena.buffers,
        );
        let complete = protocol.count == self.n;
        arena.state = protocol.state;
        AntiEntropyRun {
            cycles: report.cycles,
            complete,
        }
    }
}

#[cfg(test)]
mod ae_tests {
    use super::*;
    use crate::engine::SirObserver;

    /// Mean cover time over `trials` seeds, one arena throughout.
    fn mean_cycles(driver: AntiEntropyEpidemic, trials: u64) -> f64 {
        let mut arena = MixingArena::new();
        (0..trials)
            .map(|s| f64::from(driver.run(&mut arena, s, &mut ()).cycles))
            .sum::<f64>()
            / trials as f64
    }

    #[test]
    fn push_cover_time_tracks_log2_plus_ln() {
        let n = 1024;
        let mean = mean_cycles(AntiEntropyEpidemic::new(n, Direction::Push), 20);
        let expected = (n as f64).log2() + (n as f64).ln();
        assert!(
            (mean - expected).abs() < expected * 0.25,
            "mean {mean} vs expected {expected}"
        );
    }

    #[test]
    fn pull_converges_faster_than_push_in_the_tail() {
        // Compare cycles spent below 10% susceptible (point c of the SIR
        // trajectory is the state after cycle c).
        let tail = |direction| {
            let driver = AntiEntropyEpidemic::new(2048, direction);
            let mut arena = MixingArena::new();
            (0..10)
                .map(|s| {
                    let mut sir = SirObserver::new();
                    driver.run(&mut arena, s, &mut sir);
                    sir.points[1..]
                        .iter()
                        .filter(|&&(p, _, _)| p > 0.0 && p < 0.1)
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
        let push_pull = mean_cycles(AntiEntropyEpidemic::new(1024, Direction::PushPull), 10);
        let push = mean_cycles(AntiEntropyEpidemic::new(1024, Direction::Push), 10);
        assert!(push_pull < push);
    }

    #[test]
    fn all_directions_always_complete() {
        for direction in [Direction::Push, Direction::Pull, Direction::PushPull] {
            let mut sir = SirObserver::new();
            let run =
                AntiEntropyEpidemic::new(128, direction).run(&mut MixingArena::new(), 7, &mut sir);
            assert!(run.complete);
            assert_eq!(sir.points.last().unwrap().0, 0.0);
        }
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use crate::engine::SirObserver;
    use epidemic_core::{Feedback, Removal};

    /// The `(s, i, r)` trajectory and result of one run.
    fn traced(
        n: usize,
        direction: Direction,
        k: u32,
        seed: u64,
    ) -> (Vec<(f64, f64, f64)>, EpidemicResult) {
        let cfg = RumorConfig::new(direction, Feedback::Feedback, Removal::Counter { k });
        let mut sir = SirObserver::new();
        let result = RumorEpidemic::new(n, cfg).run(&mut MixingArena::new(), seed, &mut sir);
        (sir.points, result)
    }

    #[test]
    fn sir_fractions_always_sum_to_one() {
        let (points, _) = traced(300, Direction::Push, 2, 5);
        assert!(!points.is_empty());
        for &(s, i, r) in &points {
            assert!((s + i + r - 1.0).abs() < 1e-12);
            assert!(s >= 0.0 && i >= 0.0 && r >= 0.0);
        }
    }

    #[test]
    fn trace_starts_with_one_infective_and_ends_quiescent() {
        let (points, result) = traced(200, Direction::Push, 3, 9);
        let first = points[0];
        assert!((first.0 - 199.0 / 200.0).abs() < 1e-12);
        assert!((first.1 - 1.0 / 200.0).abs() < 1e-12);
        let last = points.last().unwrap();
        assert_eq!(last.1, 0.0, "quiescent: nobody infective");
        assert!((last.0 - result.residue).abs() < 1e-12);
    }

    #[test]
    fn susceptible_fraction_is_monotone_nonincreasing() {
        let (points, _) = traced(300, Direction::PushPull, 2, 11);
        for w in points.windows(2) {
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
        let plain = RumorEpidemic::new(250, cfg).run(&mut MixingArena::new(), 3, &mut ());
        assert_eq!(plain, traced(250, Direction::Pull, 2, 3).1);
    }
}
