//! Deterministic parallel trial execution.
//!
//! Every table and figure in the reproduction is a Monte-Carlo aggregate:
//! `trials` independent simulations whose per-trial seeds are derived as
//! `seed_base.wrapping_add(trial)` — exactly the seeds a sequential
//! `for trial in 0..trials` loop would use. [`TrialRunner::fold_with`] fans
//! those trials out across threads (`std::thread::scope`, no dependencies)
//! and folds their results **in trial order**, so any aggregate over them
//! is bit-identical regardless of thread count. It lends each worker one
//! reusable state — a trial arena, say, from an [`Arenas`] pool — for all
//! of its trials.
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
use std::ops::{Deref, DerefMut};
use std::sync::mpsc::sync_channel;
use std::sync::Mutex;
use std::time::Instant;

use epidemic_trace::profile;

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
/// let collect = |mut seeds: Vec<u64>, seed| {
///     seeds.push(seed);
///     seeds
/// };
/// // Results are folded in trial order: seeds are 100, 101, ..., 107.
/// let seeds = runner.fold_with(8, 100, || (), |(), seed| seed, Vec::new(), collect);
/// assert_eq!(seeds, (100..108).collect::<Vec<u64>>());
/// // Identical to a forced single-thread run.
/// let one = TrialRunner::new().threads(1);
/// assert_eq!(seeds, one.fold_with(8, 100, || (), |(), seed| seed, Vec::new(), collect));
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
    pub(crate) fn effective_threads(&self, trials: u64) -> usize {
        let configured = self
            .threads
            .map(NonZeroUsize::get)
            .unwrap_or_else(default_threads);
        configured.min(usize::try_from(trials).unwrap_or(usize::MAX).max(1))
    }

    /// Runs `trials` trials with seeds `seed_base.wrapping_add(trial)` and
    /// folds their results into `init` **in trial order, while later
    /// trials are still running**: no vector of results is ever held.
    ///
    /// Every worker builds one `state` with `make_state` and lends it to
    /// each of its trials in turn (`run(&mut state, seed)`) — a trial
    /// arena, say, so that only a worker's first trial allocates. The
    /// result must not depend on what earlier trials left in the state.
    ///
    /// With `W` workers, worker `w` runs trials `w, w + W, w + 2W, …` and
    /// sends each result down its own bounded channel; the caller receives
    /// from the workers round-robin, which *is* trial order. A worker that
    /// runs ahead blocks once `RESULTS_IN_FLIGHT` of its results wait, so
    /// at most `W × (RESULTS_IN_FLIGHT + 1)` results wait to be folded
    /// (buffered, or held by a blocked sender) beside the one being folded.
    /// A panic in a trial is re-raised here with its own payload. The
    /// workers' threads have exited when this returns, so the next call's
    /// workers reuse their malloc arenas and stacks.
    ///
    /// When the global [`profile`] recorder is
    /// on, the time spent inside `fold` is recorded under the
    /// `runner.aggregate` phase and the rest of the call — simulating,
    /// and with several workers waiting for them — under `runner.trials`.
    pub fn fold_with<S, T: Send, A>(
        &self,
        trials: u64,
        seed_base: u64,
        make_state: impl Fn() -> S + Sync,
        run: impl Fn(&mut S, u64) -> T + Sync,
        init: A,
        mut fold: impl FnMut(A, T) -> A,
    ) -> A {
        let started = profile::is_enabled().then(Instant::now);
        let mut fold_nanos = 0u64;
        let mut timed_fold = |acc: A, result: T| {
            if started.is_none() {
                return fold(acc, result);
            }
            let fold_started = Instant::now();
            let acc = fold(acc, result);
            fold_nanos += profile::span_nanos(fold_started);
            acc
        };
        let workers = self.effective_threads(trials);
        let acc = if workers <= 1 {
            fold_on_this_thread(trials, seed_base, make_state, run, init, timed_fold)
        } else {
            let workers = workers as u64;
            let mut acc = Some(init);
            fold_across_workers(
                workers,
                trials,
                &|w, emit: &mut dyn FnMut(T) -> bool| {
                    let mut state = make_state();
                    for t in (w..trials).step_by(workers as usize) {
                        if !emit(run(&mut state, seed_base.wrapping_add(t))) {
                            return;
                        }
                    }
                },
                &mut |result| acc = acc.take().map(|acc| timed_fold(acc, result)),
            );
            acc.expect("the accumulator is back after every fold")
        };
        if let Some(started) = started {
            let total = profile::span_nanos(started);
            profile::record("runner.trials", total.saturating_sub(fold_nanos));
            profile::record("runner.aggregate", fold_nanos);
        }
        acc
    }
}

/// Results a worker of [`TrialRunner::fold_with`] may have waiting in its
/// channel before it blocks. Small on purpose: a result can be a
/// quarter-megabyte run aggregate, and a worker that is ahead gains
/// nothing by running further ahead — its share of the trials is fixed.
pub(crate) const RESULTS_IN_FLIGHT: usize = 2;

/// [`TrialRunner::fold_with`] on one worker: the plain loop. Kept apart
/// from the fan-out so the single-threaded path every experiment takes
/// under `EPIDEMIC_THREADS=1` compiles to exactly this.
fn fold_on_this_thread<S, T, A>(
    trials: u64,
    seed_base: u64,
    make_state: impl Fn() -> S,
    run: impl Fn(&mut S, u64) -> T,
    init: A,
    mut fold: impl FnMut(A, T) -> A,
) -> A {
    let mut state = make_state();
    let mut acc = init;
    for t in 0..trials {
        acc = fold(acc, run(&mut state, seed_base.wrapping_add(t)));
    }
    acc
}

/// Worker `w`'s share of a multi-worker fold: `work(w, emit)` hands `emit`
/// each of the worker's results in turn until `emit` returns `false`.
type Work<'a, T> = dyn Fn(u64, &mut dyn FnMut(T) -> bool) + Sync + 'a;

/// [`TrialRunner::fold_with`] on `workers` ≥ 2 threads: every worker runs
/// its [`Work`], and `fold` sees every result in trial order. Generic over
/// the result type alone, so the thread and channel machinery is compiled
/// once per result type rather than once per call site — code no
/// single-threaded run executes.
fn fold_across_workers<T: Send>(
    workers: u64,
    trials: u64,
    work: &Work<'_, T>,
    fold: &mut dyn FnMut(T),
) {
    std::thread::scope(|scope| {
        let (handles, receivers): (Vec<_>, Vec<_>) = (0..workers)
            .map(|w| {
                let (results, receiver) = sync_channel(RESULTS_IN_FLIGHT);
                // A failed send means the caller stopped receiving: it is
                // unwinding, and the worker stops.
                let handle =
                    scope.spawn(move || work(w, &mut |result| results.send(result).is_ok()));
                (handle, receiver)
            })
            .unzip();
        for t in 0..trials {
            let owner = (t % workers) as usize;
            match receivers[owner].recv() {
                Ok(result) => fold(result),
                Err(_) => {
                    // The owner hung up before sending trial `t`: it
                    // panicked. Hang up on the others so none stays blocked
                    // on a full channel, then re-raise the panic as it was.
                    drop(receivers);
                    let panic = handles
                        .into_iter()
                        .nth(owner)
                        .expect("one handle per worker")
                        .join()
                        .expect_err("a worker that hung up early has panicked");
                    std::panic::resume_unwind(panic);
                }
            }
        }
        // The scope only waits for the workers' closures to return; join
        // the threads themselves. One still tearing down when the next
        // call spawns its workers holds on to its malloc arena and stack,
        // so that call gets fresh ones — how often that race was lost
        // moved a run's peak RSS by hundreds of kB from one run to the next.
        for handle in handles {
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
}

/// Trial arenas shared by the trial loops of one experiment: each worker of
/// a [`TrialRunner::fold_with`] call takes one ([`Arenas::take`]) and puts
/// it back when it finishes, so the arenas grow once per experiment rather
/// than once per call. Which arena a worker gets is immaterial: no trial's
/// result depends on what its arena held.
#[derive(Debug, Default)]
pub struct Arenas<T>(Mutex<Vec<T>>);

impl<T: Default> Arenas<T> {
    /// An arena for one worker's trials: a used one if any is free.
    pub fn take(&self) -> Lent<'_, T> {
        let arena = self
            .0
            .lock()
            .expect("the free list is locked only to push or pop")
            .pop();
        Lent {
            pool: self,
            arena: arena.unwrap_or_default(),
        }
    }
}

/// An arena lent out of [`Arenas`]; dropping it gives it back.
pub struct Lent<'a, T: Default> {
    pool: &'a Arenas<T>,
    arena: T,
}

impl<T: Default> Deref for Lent<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.arena
    }
}

impl<T: Default> DerefMut for Lent<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.arena
    }
}

impl<T: Default> Drop for Lent<'_, T> {
    fn drop(&mut self) {
        if let Ok(mut free) = self.pool.0.lock() {
            free.push(std::mem::take(&mut self.arena));
        }
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
    let Some(raw) = std::env::var_os(THREADS_ENV_VAR) else {
        return Ok(None);
    };
    raw.to_str()
        .and_then(parse_positive)
        .map(Some)
        .ok_or_else(|| format!("{THREADS_ENV_VAR}={raw:?} is not a positive integer"))
}

fn parse_positive(value: &str) -> Option<usize> {
    value.trim().parse::<usize>().ok().filter(|&n| n > 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Collects the results a fold visits, in fold order.
    fn collected<T: Send>(
        runner: TrialRunner,
        trials: u64,
        base: u64,
        run: impl Fn(u64) -> T + Sync,
    ) -> Vec<T> {
        let push = |mut seen: Vec<T>, result| {
            seen.push(result);
            seen
        };
        runner.fold_with(trials, base, || (), |(), seed| run(seed), Vec::new(), push)
    }

    /// Collects the seeds a fold visits from seed 0, in fold order.
    fn fold_order(runner: TrialRunner, trials: u64, run: impl Fn(u64) -> u64 + Sync) -> Vec<u64> {
        collected(runner, trials, 0, run)
    }

    #[test]
    fn seeds_are_seed_base_plus_trial() {
        let seeds = collected(TrialRunner::new(), 50, 1_000, |seed| seed);
        let expected: Vec<u64> = (0..50).map(|t| 1_000 + t).collect();
        assert_eq!(seeds, expected);
    }

    #[test]
    fn seed_derivation_wraps() {
        let seeds = collected(TrialRunner::new().threads(2), 3, u64::MAX, |seed| seed);
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
        let sequential = collected(TrialRunner::new().threads(1), 97, 7, simulate);
        for workers in [2, 3, 8] {
            let parallel = collected(TrialRunner::new().threads(workers), 97, 7, simulate);
            assert_eq!(sequential, parallel, "{workers} workers");
        }
    }

    #[test]
    fn fold_accumulates_in_trial_order() {
        let order = fold_order(TrialRunner::new().threads(4), 20, |seed| seed);
        assert_eq!(order, (0..20).collect::<Vec<u64>>());
    }

    /// Trial 0 finishes only after the second worker has finished every
    /// trial it can without the caller (a full channel and one in hand),
    /// yet trial 0 is folded first and everything after it in order.
    #[test]
    fn fold_order_is_trial_order_even_when_early_trials_finish_late() {
        for workers in [2u64, 3, 8] {
            let second_worker_finished = AtomicUsize::new(0);
            let runner = TrialRunner::new().threads(workers as usize);
            let order = fold_order(runner, 40, |seed| {
                if seed == 0 {
                    while second_worker_finished.load(Ordering::SeqCst) <= RESULTS_IN_FLIGHT {
                        std::thread::yield_now();
                    }
                } else if seed % workers == 1 {
                    second_worker_finished.fetch_add(1, Ordering::SeqCst);
                }
                seed
            });
            assert_eq!(order, (0..40).collect::<Vec<u64>>(), "{workers} workers");
        }
    }

    /// A result that knows how many of its kind are alive.
    struct Counted<'a> {
        alive: &'a AtomicUsize,
    }

    impl<'a> Counted<'a> {
        fn new(alive: &'a AtomicUsize, most: &AtomicUsize) -> Self {
            let now = alive.fetch_add(1, Ordering::SeqCst) + 1;
            most.fetch_max(now, Ordering::SeqCst);
            Counted { alive }
        }
    }

    impl Drop for Counted<'_> {
        fn drop(&mut self) {
            self.alive.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// With the caller stalled in its first fold, every worker runs until
    /// its channel is full and it holds one more result — and no further.
    #[test]
    fn workers_stop_at_the_in_flight_bound_while_the_fold_stalls() {
        for workers in [2usize, 3, 8] {
            let waiting = workers * (RESULTS_IN_FLIGHT + 1);
            let (alive, most) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let folded = TrialRunner::new().threads(workers).fold_with(
                100,
                0,
                || (),
                |(), _| Counted::new(&alive, &most),
                0u64,
                |folded, result| {
                    if folded == 0 {
                        // Hold the first result until the workers have
                        // produced all they can without the caller.
                        while alive.load(Ordering::SeqCst) < waiting + 1 {
                            std::thread::yield_now();
                        }
                    }
                    drop(result);
                    folded + 1
                },
            );
            assert_eq!(folded, 100);
            assert_eq!(alive.load(Ordering::SeqCst), 0, "every result was dropped");
            assert_eq!(
                most.load(Ordering::SeqCst),
                waiting + 1,
                "{workers} workers: {waiting} waiting beside the one being folded"
            );
        }
    }

    /// Runs `f` on its own thread and fails instead of hanging.
    fn within_a_minute<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (done, result) = std::sync::mpsc::channel();
        std::thread::spawn(move || done.send(f()));
        result
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("the fold neither finished nor panicked within a minute")
    }

    /// A trial's panic reaches the caller with its message, at any worker
    /// count — also when every other worker is parked on a full channel at
    /// the time, which is when a fold that kept receiving would hang.
    #[test]
    fn a_panicking_trial_panics_the_fold_with_its_message() {
        for workers in [1usize, 2, 3, 8] {
            let message = within_a_minute(move || {
                // What the other workers can finish with trial 1 never
                // arriving: a full channel and one result in hand each,
                // and trial 0, which the caller takes.
                let others_stuck = (workers - 1) * (RESULTS_IN_FLIGHT + 1) + 1;
                let finished = AtomicUsize::new(0);
                let fold = std::panic::AssertUnwindSafe(|| {
                    TrialRunner::new().threads(workers).fold_with(
                        64,
                        0,
                        || (),
                        |(), seed| {
                            if seed == 1 {
                                while finished.load(Ordering::SeqCst) < others_stuck {
                                    std::thread::yield_now();
                                }
                                panic!("trial {seed} exploded");
                            }
                            finished.fetch_add(1, Ordering::SeqCst);
                            seed
                        },
                        0u64,
                        |sum, seed| sum + seed,
                    )
                });
                let payload = std::panic::catch_unwind(fold).expect_err("trial 1 panics");
                payload
                    .downcast_ref::<String>()
                    .expect("a formatted panic carries a String")
                    .clone()
            });
            assert_eq!(message, "trial 1 exploded", "{workers} workers");
        }
    }

    /// Each worker builds one state and every one of its trials sees what
    /// its earlier trials left there.
    #[test]
    fn fold_with_lends_one_state_per_worker_to_its_trials_in_turn() {
        for workers in [1u64, 2, 3, 8] {
            let states = AtomicUsize::new(0);
            let visits = TrialRunner::new().threads(workers as usize).fold_with(
                30,
                100,
                || {
                    states.fetch_add(1, Ordering::SeqCst);
                    0u64
                },
                |earlier: &mut u64, seed| {
                    *earlier += 1;
                    (seed, *earlier)
                },
                Vec::new(),
                |mut visits, visit| {
                    visits.push(visit);
                    visits
                },
            );
            assert_eq!(states.load(Ordering::SeqCst) as u64, workers);
            let expected: Vec<(u64, u64)> = (0..30).map(|t| (100 + t, t / workers + 1)).collect();
            assert_eq!(visits, expected, "{workers} workers");
        }
    }

    /// When the fold returns, its workers' threads are gone — their
    /// thread-local destructors have run — not merely past their last trial.
    #[test]
    fn worker_threads_have_exited_when_the_fold_returns() {
        static EXITED: AtomicUsize = AtomicUsize::new(0);
        struct SlowExit;
        impl Drop for SlowExit {
            fn drop(&mut self) {
                std::thread::sleep(std::time::Duration::from_millis(20));
                EXITED.fetch_add(1, Ordering::SeqCst);
            }
        }
        thread_local!(static SLOW_EXIT: SlowExit = const { SlowExit });
        let workers = 3;
        let sum = TrialRunner::new().threads(workers).fold_with(
            30,
            0,
            || (),
            |(), seed| SLOW_EXIT.with(|_| seed),
            0u64,
            |sum, seed| sum + seed,
        );
        assert_eq!(sum, 29 * 30 / 2);
        assert_eq!(EXITED.load(Ordering::SeqCst), workers);
    }

    #[test]
    fn handles_zero_and_one_trials() {
        let runner = TrialRunner::new();
        assert_eq!(runner.effective_threads(0), 1);
        assert_eq!(runner.effective_threads(1), 1);
        for threads in [1, 8] {
            let runner = TrialRunner::new().threads(threads);
            assert_eq!(fold_order(runner, 0, |seed| seed), Vec::<u64>::new());
            assert_eq!(fold_order(runner, 1, |seed| seed + 9), vec![9]);
        }
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
    fn more_workers_than_trials_is_safe() {
        let folded = fold_order(TrialRunner::new().threads(64), 5, |seed| seed * 2);
        assert_eq!(folded, vec![0, 2, 4, 6, 8]);
    }
}
