//! Deterministic parallel trial execution.
//!
//! Every table and figure in the reproduction is a Monte-Carlo aggregate:
//! `trials` independent simulations whose per-trial seeds are derived as
//! `seed_base.wrapping_add(trial)` — exactly the seeds a sequential
//! `for trial in 0..trials` loop would use. [`TrialRunner`] fans those
//! trials out across threads (`std::thread::scope`, no dependencies) and
//! hands results back **in trial order**, so any aggregation over them is
//! bit-identical regardless of thread count.
//!
//! Thread count resolution, highest priority first:
//!
//! 1. [`TrialRunner::threads`] builder override;
//! 2. the `EPIDEMIC_THREADS` environment variable (useful to force
//!    sequential runs: `EPIDEMIC_THREADS=1 cargo run ...`);
//! 3. [`std::thread::available_parallelism`];
//!
//! always capped by the trial count.

use std::num::NonZeroUsize;

/// Environment variable overriding the worker-thread count.
pub const THREADS_ENV_VAR: &str = "EPIDEMIC_THREADS";

/// Deterministic trial-fan-out executor. See the [module docs](self).
///
/// # Example
///
/// ```
/// use epidemic_sim::runner::TrialRunner;
///
/// let runner = TrialRunner::new();
/// // Results arrive in trial order: seeds are 100, 101, ..., 107.
/// let seeds = runner.run(8, 100, |seed| seed);
/// assert_eq!(seeds, (100..108).collect::<Vec<u64>>());
/// // Identical to a forced single-thread run.
/// assert_eq!(seeds, TrialRunner::new().threads(1).run(8, 100, |seed| seed));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct TrialRunner {
    threads: Option<NonZeroUsize>,
}

impl TrialRunner {
    /// A runner using the environment/hardware thread count.
    pub fn new() -> Self {
        TrialRunner { threads: None }
    }

    /// Forces an exact worker count (e.g. `1` for sequential execution),
    /// taking precedence over `EPIDEMIC_THREADS` and the hardware count.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(NonZeroUsize::new(threads).expect("thread count must be nonzero"));
        self
    }

    /// The worker count this runner would use for `trials` trials.
    pub fn effective_threads(&self, trials: u64) -> usize {
        let configured = self
            .threads
            .map(NonZeroUsize::get)
            .unwrap_or_else(default_threads);
        configured.min(usize::try_from(trials).unwrap_or(usize::MAX).max(1))
    }

    /// Splits this runner's thread budget between trial-level fan-out and
    /// per-trial shard workers, so nesting the sharded engine under trial
    /// parallelism never oversubscribes: `trial_workers × shard_workers`
    /// stays within the budget. Trials get priority (they parallelize
    /// perfectly); leftover budget goes to intra-trial shard workers,
    /// capped at `max_shard_workers` (typically the shard count — more
    /// workers than pair-tasks would idle).
    ///
    /// Returns `(trial_workers, shard_workers)`, both at least 1. The
    /// split affects wall-clock only, never output: trial seeds are fixed
    /// per index and the sharded engine's output is worker-invariant.
    pub fn split_budget(&self, trials: u64, max_shard_workers: usize) -> (usize, usize) {
        let budget = self
            .threads
            .map(NonZeroUsize::get)
            .unwrap_or_else(default_threads);
        let trial_workers = self.effective_threads(trials);
        let shard_workers = (budget / trial_workers.max(1)).clamp(1, max_shard_workers.max(1));
        (trial_workers, shard_workers)
    }

    /// Runs `trials` trials with seeds `seed_base.wrapping_add(trial)` and
    /// returns their results **in trial order**.
    ///
    /// When the global [`profile`](epidemic_trace::profile) recorder is on,
    /// the whole fan-out (spawn + simulate + join) is clocked under the
    /// `runner.trials` phase.
    pub fn run<T: Send>(
        &self,
        trials: u64,
        seed_base: u64,
        run: impl Fn(u64) -> T + Sync,
    ) -> Vec<T> {
        epidemic_trace::profile::time("runner.trials", || self.run_inner(trials, seed_base, run))
    }

    fn run_inner<T: Send>(
        &self,
        trials: u64,
        seed_base: u64,
        run: impl Fn(u64) -> T + Sync,
    ) -> Vec<T> {
        let count = usize::try_from(trials).expect("trial count fits in memory");
        let workers = self.effective_threads(trials);
        if workers <= 1 {
            return (0..trials)
                .map(|t| run(seed_base.wrapping_add(t)))
                .collect();
        }
        let mut results: Vec<Option<T>> = Vec::with_capacity(count);
        results.resize_with(count, || None);
        let chunk = trials.div_ceil(workers as u64);
        std::thread::scope(|scope| {
            let run = &run;
            let mut rest: &mut [Option<T>] = &mut results;
            for w in 0..workers as u64 {
                let lo = w * chunk;
                let hi = ((w + 1) * chunk).min(trials);
                if lo >= hi {
                    break;
                }
                let (mine, tail) = rest.split_at_mut(usize::try_from(hi - lo).expect("chunk fits"));
                rest = tail;
                scope.spawn(move || {
                    for (offset, slot) in mine.iter_mut().enumerate() {
                        *slot = Some(run(seed_base.wrapping_add(lo + offset as u64)));
                    }
                });
            }
        });
        results
            .into_iter()
            .map(|r| r.expect("every trial slot is filled by its worker"))
            .collect()
    }

    /// As [`TrialRunner::run`], but folds the per-trial results into an
    /// accumulator — sequentially, in trial order, so the aggregate is
    /// bit-identical at any thread count (floating-point addition is not
    /// associative; a fixed fold order sidesteps that entirely).
    /// When the global [`profile`](epidemic_trace::profile) recorder is on,
    /// the sequential fold is clocked under the `runner.aggregate` phase
    /// (the fan-out itself lands under `runner.trials`).
    pub fn fold<T: Send, A>(
        &self,
        trials: u64,
        seed_base: u64,
        run: impl Fn(u64) -> T + Sync,
        init: A,
        fold: impl FnMut(A, T) -> A,
    ) -> A {
        let results = self.run(trials, seed_base, run);
        epidemic_trace::profile::time("runner.aggregate", || results.into_iter().fold(init, fold))
    }
}

/// The thread count used when no builder override is set:
/// `EPIDEMIC_THREADS` if present and valid, else the hardware count.
///
/// A library caller gets the hardware count on an invalid value; a
/// program that wants to refuse it calls [`thread_override`] first (as
/// `repro` does at start-up).
pub fn default_threads() -> usize {
    if let Ok(Some(n)) = thread_override() {
        return n;
    }
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(4)
}

/// Reads `EPIDEMIC_THREADS`: `Ok(None)` when unset, `Ok(Some(n))` for a
/// positive integer.
///
/// # Errors
///
/// Returns a message naming the variable and the offending value when it
/// is set to anything else (`abc`, `0`, non-UTF-8).
pub fn thread_override() -> Result<Option<usize>, String> {
    positive_override(THREADS_ENV_VAR)
}

/// Reads the positive-integer variable `var` (threads, shards): `Ok(None)`
/// when unset, an error naming variable and value when unusable.
pub(crate) fn positive_override(var: &str) -> Result<Option<usize>, String> {
    let Some(raw) = std::env::var_os(var) else {
        return Ok(None);
    };
    raw.to_str()
        .and_then(parse_positive)
        .map(Some)
        .ok_or_else(|| format!("{var}={raw:?} is not a positive integer"))
}

fn parse_positive(value: &str) -> Option<usize> {
    value.trim().parse::<usize>().ok().filter(|&n| n > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_seed_base_plus_trial() {
        let runner = TrialRunner::new();
        let seeds = runner.run(50, 1_000, |seed| seed);
        let expected: Vec<u64> = (0..50).map(|t| 1_000 + t).collect();
        assert_eq!(seeds, expected);
    }

    #[test]
    fn seed_derivation_wraps() {
        let runner = TrialRunner::new().threads(2);
        let seeds = runner.run(3, u64::MAX, |seed| seed);
        assert_eq!(seeds, vec![u64::MAX, 0, 1]);
    }

    #[test]
    fn one_thread_matches_many_threads() {
        // A cheap but nontrivial "simulation": results depend only on the
        // seed, so the fan-out must reproduce the sequential stream.
        let simulate = |seed: u64| {
            let x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            (x, (x >> 11) as f64 * 0.5f64.powi(53))
        };
        let sequential = TrialRunner::new().threads(1).run(97, 7, simulate);
        for workers in [2, 3, 8] {
            let parallel = TrialRunner::new().threads(workers).run(97, 7, simulate);
            assert_eq!(sequential, parallel, "{workers} workers");
        }
    }

    #[test]
    fn fold_accumulates_in_trial_order() {
        let order = TrialRunner::new().threads(4).fold(
            20,
            0,
            |seed| seed,
            Vec::new(),
            |mut v, s| {
                v.push(s);
                v
            },
        );
        assert_eq!(order, (0..20).collect::<Vec<u64>>());
    }

    #[test]
    fn handles_zero_and_one_trials() {
        let runner = TrialRunner::new();
        assert_eq!(runner.run(0, 9, |seed| seed), Vec::<u64>::new());
        assert_eq!(runner.run(1, 9, |seed| seed), vec![9]);
        assert_eq!(runner.effective_threads(0), 1);
        assert_eq!(runner.effective_threads(1), 1);
    }

    #[test]
    fn builder_override_wins() {
        assert_eq!(TrialRunner::new().threads(3).effective_threads(100), 3);
        assert_eq!(TrialRunner::new().threads(200).effective_threads(5), 5);
    }

    #[test]
    fn thread_override_parsing() {
        assert_eq!(parse_positive("4"), Some(4));
        assert_eq!(parse_positive(" 16 "), Some(16));
        assert_eq!(parse_positive("0"), None);
        assert_eq!(parse_positive("many"), None);
        assert_eq!(parse_positive(""), None);
    }

    #[test]
    fn split_budget_never_oversubscribes() {
        // 8-thread budget, 2 trials: 2 trial workers × 4 shard workers.
        assert_eq!(TrialRunner::new().threads(8).split_budget(2, 8), (2, 4));
        // All budget consumed by trials: shards run sequentially.
        assert_eq!(TrialRunner::new().threads(8).split_budget(100, 8), (8, 1));
        // Single trial: the whole budget goes to shard workers, capped by
        // the useful maximum.
        assert_eq!(TrialRunner::new().threads(8).split_budget(1, 4), (1, 4));
        assert_eq!(TrialRunner::new().threads(1).split_budget(10, 8), (1, 1));
        for (threads, trials, cap) in [(8, 3, 8), (5, 2, 3), (16, 1, 8)] {
            let (t, s) = TrialRunner::new()
                .threads(threads)
                .split_budget(trials, cap);
            assert!(t * s <= threads, "{t}×{s} exceeds budget {threads}");
            assert!(t >= 1 && s >= 1);
        }
    }

    #[test]
    fn more_workers_than_trials_is_safe() {
        let results = TrialRunner::new().threads(64).run(5, 0, |seed| seed * 2);
        assert_eq!(results, vec![0, 2, 4, 6, 8]);
    }
}
