//! Anti-entropy convergence recurrences (paper §1.3).
//!
//! Once only a few sites remain susceptible, §1.3 models the per-cycle
//! susceptible probability `p_i` as
//!
//! * **pull:** `p_{i+1} = p_i²` — doubly exponential convergence;
//! * **push:** `p_{i+1} = p_i (1 - 1/n)^{n(1-p_i)}` ≈ `p_i e^{-1}` for
//!   small `p_i` — merely exponential.
//!
//! This asymmetry is why anti-entropy used as a backup should run pull or
//! push-pull. For a full epidemic from a single source, push infects the
//! population in expected time `log₂n + ln n + O(1)` \[Pi].

/// One step of the pull recurrence: `p² `.
pub(crate) fn pull_step(p: f64) -> f64 {
    p * p
}

/// One step of the push recurrence: `p (1-1/n)^{n(1-p)}`.
pub(crate) fn push_step(p: f64, n: f64) -> f64 {
    p * (1.0 - 1.0 / n).powf(n * (1.0 - p))
}

/// Number of pull cycles for the susceptible probability to fall from `p0`
/// to at most `target`.
///
/// # Panics
///
/// Panics unless `0 < target < p0 < 1`.
pub fn pull_cycles_until(p0: f64, target: f64) -> u32 {
    assert!(0.0 < target && target < p0 && p0 < 1.0);
    let mut p = p0;
    let mut cycles = 0;
    while p > target {
        p = pull_step(p);
        cycles += 1;
    }
    cycles
}

/// Number of push cycles for the susceptible probability to fall from `p0`
/// to at most `target`, with population size `n`.
///
/// # Panics
///
/// Panics unless `0 < target < p0 < 1` and `n > 1`.
pub fn push_cycles_until(p0: f64, target: f64, n: f64) -> u32 {
    assert!(0.0 < target && target < p0 && p0 < 1.0 && n > 1.0);
    let mut p = p0;
    let mut cycles = 0;
    while p > target {
        p = push_step(p, n);
        cycles += 1;
        assert!(cycles < 100_000, "push recurrence failed to converge");
    }
    cycles
}

/// The expected time for a push epidemic from one infected site to cover
/// the population: `log₂ n + ln n` (§1.3, citing Pittel).
pub fn push_epidemic_time(n: f64) -> f64 {
    n.log2() + n.ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pull_is_doubly_exponential() {
        // From p = 0.5 (binary-exact): 0.25, 0.0625, ~3.9e-3, ~1.5e-5,
        // ~2.3e-10 — five cycles to fall below 1e-9.
        assert_eq!(pull_cycles_until(0.5, 1e-9), 5);
        // Doubling the exponent costs only one more cycle.
        assert_eq!(pull_cycles_until(0.5, 1e-18), 6);
    }

    #[test]
    fn push_is_singly_exponential() {
        // For small p, each push cycle multiplies p by about e^-1, so
        // reaching 1e-8 from 0.1 takes ≈ ln(1e7) ≈ 16 cycles.
        let cycles = push_cycles_until(0.1, 1e-8, 1000.0);
        assert!((14..=20).contains(&cycles), "{cycles}");
    }

    #[test]
    fn pull_beats_push_from_the_same_start() {
        let pull = pull_cycles_until(0.2, 1e-9);
        let push = push_cycles_until(0.2, 1e-9, 1000.0);
        assert!(pull < push, "pull {pull} vs push {push}");
    }

    #[test]
    fn push_step_approaches_e_inverse_for_small_p() {
        let p = 1e-6;
        let ratio = push_step(p, 10_000.0) / p;
        assert!((ratio - (-1.0f64).exp()).abs() < 1e-3, "{ratio}");
    }

    #[test]
    fn epidemic_time_matches_known_values() {
        // n = 1000: log2(1000) + ln(1000) ≈ 9.97 + 6.91 ≈ 16.87 — compare
        // t_last ≈ 16.8–17.7 in Table 1.
        let t = push_epidemic_time(1000.0);
        assert!((t - 16.87).abs() < 0.05, "{t}");
    }

    #[test]
    fn epidemic_time_grows_logarithmically() {
        let t1 = push_epidemic_time(1_000.0);
        let t2 = push_epidemic_time(1_000_000.0);
        assert!(t2 < 2.1 * t1, "doubling exponents only doubles time");
    }

    #[test]
    #[should_panic]
    fn rejects_bad_arguments() {
        pull_cycles_until(0.5, 0.9);
    }
}
