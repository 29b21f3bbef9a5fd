//! Complete mixing (paper §1.3–§1.4): the result and trial arena every
//! single-update run shares. A run's whole heap state is a receive log,
//! a few bitsets and, for a rumor, one interest record per site — no
//! replica.
//!
//! The Tables 1–3 experiments run a single update through `n = 1000` sites
//! with uniform partner selection and no network topology
//! ([`SpatialSim::mixing`](crate::spatial::SpatialSim::mixing)), measuring
//!
//! * **residue** `s` — the fraction of sites still susceptible when the
//!   epidemic quiesces,
//! * **traffic** `m` — database updates sent per site,
//! * **delay** `t_ave` / `t_last` — mean and maximum cycles from injection
//!   to receipt.
//!
//! §1.3's anti-entropy cover times are the same driver's
//! [`SpatialSim::anti_entropy`](crate::spatial::SpatialSim::anti_entropy)
//! runs: `log₂n + ln n` expected cycles for push from one source, and
//! pull's faster tail.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::engine::protocols::{MixingProtocol, MixingState};
use crate::engine::{EngineBuffers, EngineReport, ReceiveLog};

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
    /// Cycles until quiescence (no site infective) or, under
    /// anti-entropy, full coverage, unless the cycle bound ended the run
    /// first.
    pub cycles: u32,
    /// Whether every site received the update.
    pub complete: bool,
}

impl EpidemicResult {
    pub(crate) fn new(report: EngineReport, protocol: &MixingProtocol) -> Self {
        let received = &protocol.state.received;
        let n = received.site_count();
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

/// Everything a single-update run keeps on the heap — the receive log, a
/// rumor run's active set and interest records, the snapshot bitsets, the
/// engine's roster buffers and the event-driven driver's timer queue —
/// owned across runs, so that a run on a warm arena allocates nothing. No
/// run holds a replica: one version of one key makes a site's database
/// one bit, its receive-log mark. One arena serves any sequence of
/// [`SpatialSim`](crate::spatial::SpatialSim) and
/// [`AsyncSpatialSim`](crate::event::AsyncSpatialSim) runs on any site
/// count or topology; each run starts from a state indistinguishable from
/// a fresh one.
#[derive(Debug, Default)]
pub struct MixingArena {
    pub(crate) state: MixingState,
    pub(crate) buffers: EngineBuffers,
    /// Each site's next firing, in micro-ticks, earliest first.
    pub(crate) queue: BinaryHeap<Reverse<(u32, usize)>>,
}

impl MixingArena {
    /// An empty arena. Allocates nothing until its first run.
    pub fn new() -> Self {
        MixingArena::default()
    }

    /// Who received the update of the last
    /// [`SpatialSim`](crate::spatial::SpatialSim) or
    /// [`AsyncSpatialSim`](crate::event::AsyncSpatialSim) run, by dense
    /// site index (a topology's sites in order), with the count, sum and
    /// maximum of the receive times (cycles, or the async driver's
    /// micro-ticks).
    pub fn received(&self) -> &ReceiveLog {
        &self.state.received
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{SirObserver, UniformPartners};
    use crate::spatial::SpatialSim;
    use epidemic_core::{Direction, Feedback, Removal, RumorConfig};

    fn cfg(direction: Direction, k: u32) -> RumorConfig {
        RumorConfig::new(direction, Feedback::Feedback, Removal::Counter { k })
    }

    /// One unobserved run on a fresh arena.
    fn run(driver: SpatialSim<'_, UniformPartners>, seed: u64) -> EpidemicResult {
        driver.run(&mut MixingArena::new(), seed, &mut ())
    }

    #[test]
    fn push_epidemic_reaches_most_sites() {
        let r = run(SpatialSim::mixing(300, cfg(Direction::Push, 3)), 1);
        assert!(r.residue < 0.1, "residue {}", r.residue);
        assert!(r.traffic > 1.0 && r.traffic < 10.0);
        assert!(r.t_last >= r.t_ave);
        assert!(f64::from(r.cycles) >= r.t_last);
    }

    #[test]
    fn pull_beats_push_on_residue() {
        let mut push_res = 0.0;
        let mut pull_res = 0.0;
        for seed in 0..10 {
            push_res += run(SpatialSim::mixing(400, cfg(Direction::Push, 2)), seed).residue;
            pull_res += run(SpatialSim::mixing(400, cfg(Direction::Pull, 2)), seed).residue;
        }
        assert!(
            pull_res < push_res,
            "pull {pull_res} should beat push {push_res}"
        );
    }

    #[test]
    fn push_pull_converges() {
        let r = run(SpatialSim::mixing(300, cfg(Direction::PushPull, 4)), 3);
        assert!(r.residue < 0.02, "residue {}", r.residue);
    }

    #[test]
    fn connection_limit_improves_push_residue() {
        // §1.4: "paradoxically, push gets significantly better" under a
        // connection limit of 1 — rejected contacts cost no traffic but the
        // update still spreads, improving the residue/traffic trade-off.
        let driver = SpatialSim::mixing(400, cfg(Direction::Push, 1));
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
        let driver = SpatialSim::mixing(300, cfg(Direction::Pull, 1));
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
        let limited = SpatialSim::mixing(300, cfg(Direction::Push, 4)).connection_limit(Some(1));
        let mut no_hunt_residue = 0.0;
        let mut hunt_residue = 0.0;
        for seed in 0..10 {
            no_hunt_residue += run(limited, seed).residue;
            hunt_residue += run(limited.hunt_limit(8), seed).residue;
        }
        assert!(hunt_residue <= no_hunt_residue + 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least two sites")]
    fn rejects_single_site() {
        run(SpatialSim::mixing(1, cfg(Direction::Push, 1)), 0);
    }

    /// Mean anti-entropy cover time on `n` sites over `trials` seeds, one
    /// arena throughout.
    fn mean_cycles(n: usize, direction: Direction, trials: u64) -> f64 {
        let driver = SpatialSim::anti_entropy(n, direction);
        let mut arena = MixingArena::new();
        (0..trials)
            .map(|s| f64::from(driver.run(&mut arena, s, &mut ()).cycles))
            .sum::<f64>()
            / trials as f64
    }

    #[test]
    fn anti_entropy_pull_converges_faster_than_push_in_the_tail() {
        // Compare cycles spent below 10% susceptible (point c of the SIR
        // trajectory is the state after cycle c).
        let tail = |direction| {
            let driver = SpatialSim::anti_entropy(2048, direction);
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
    fn anti_entropy_push_pull_behaves_like_pull() {
        let push_pull = mean_cycles(1024, Direction::PushPull, 10);
        let push = mean_cycles(1024, Direction::Push, 10);
        assert!(push_pull < push);
    }

    #[test]
    fn anti_entropy_all_directions_always_complete() {
        for direction in [Direction::Push, Direction::Pull, Direction::PushPull] {
            let mut sir = SirObserver::new();
            let run =
                SpatialSim::anti_entropy(128, direction).run(&mut MixingArena::new(), 7, &mut sir);
            assert!(run.complete && run.residue == 0.0);
            assert_eq!(sir.points.last().unwrap().0, 0.0);
        }
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use crate::engine::SirObserver;
    use crate::spatial::SpatialSim;
    use epidemic_core::{Direction, Feedback, Removal, RumorConfig};

    /// The `(s, i, r)` trajectory and result of one run.
    fn traced(
        n: usize,
        direction: Direction,
        k: u32,
        seed: u64,
    ) -> (Vec<(f64, f64, f64)>, EpidemicResult) {
        let cfg = RumorConfig::new(direction, Feedback::Feedback, Removal::Counter { k });
        let mut sir = SirObserver::new();
        let result = SpatialSim::mixing(n, cfg).run(&mut MixingArena::new(), seed, &mut sir);
        (sir.points, result)
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
}
