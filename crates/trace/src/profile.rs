//! Process-wide phase profiling with near-zero disabled cost.
//!
//! The engine and trial runner wrap their major phases (setup, contact
//! loop, end-of-cycle, aggregation) in monotonic-clock spans. Threading a
//! profiler handle through every driver signature would churn the whole
//! API surface for a diagnostic feature, so the aggregation point is a
//! process-global table instead, guarded by one relaxed [`AtomicBool`]:
//!
//! * disabled (the default), an instrumented site pays a single atomic
//!   load — no clock reads, no locking;
//! * enabled (`repro --timings` turns it on), sites read
//!   [`std::time::Instant`] around each phase and fold the nanoseconds
//!   into a mutex-guarded table, a few locks per *run* (never per
//!   contact).
//!
//! Phase durations are wall-clock and therefore nondeterministic; they
//! are reported separately from trace files, which carry only
//! deterministic fields.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static TABLE: Mutex<Option<BTreeMap<&'static str, (u64, u64)>>> = Mutex::new(None);

/// Aggregated timing for one phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseStat {
    /// Phase name (e.g. `"engine.contact_loop"`).
    pub name: &'static str,
    /// Spans recorded.
    pub calls: u64,
    /// Total wall-clock nanoseconds across those spans.
    pub nanos: u64,
}

impl PhaseStat {
    /// Total seconds across all recorded spans.
    pub fn seconds(&self) -> f64 {
        self.nanos as f64 / 1e9
    }
}

/// Turns phase recording on (idempotent).
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Whether spans are currently being recorded. Instrumented sites check
/// this once per run and skip all clock reads when it is `false`.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Folds `nanos` wall-clock nanoseconds into the named phase.
/// No-op while recording is disabled.
pub fn record(name: &'static str, nanos: u64) {
    if !is_enabled() {
        return;
    }
    let mut table = TABLE.lock().expect("profile table lock");
    let slot = table
        .get_or_insert_with(BTreeMap::new)
        .entry(name)
        .or_insert((0, 0));
    slot.0 += 1;
    slot.1 += nanos;
}

/// Nanoseconds elapsed since `start`, saturating at `u64::MAX`.
pub fn span_nanos(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Snapshot of all phases in name order, leaving the table intact.
pub fn snapshot() -> Vec<PhaseStat> {
    let table = TABLE.lock().expect("profile table lock");
    table
        .iter()
        .flatten()
        .map(|(&name, &(calls, nanos))| PhaseStat { name, calls, nanos })
        .collect()
}

/// Drains and returns all phases in name order.
pub fn take() -> Vec<PhaseStat> {
    let mut table = TABLE.lock().expect("profile table lock");
    table
        .take()
        .into_iter()
        .flatten()
        .map(|(name, (calls, nanos))| PhaseStat { name, calls, nanos })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    // The profile table is process-global, so exercise the whole
    // lifecycle in one test to avoid cross-test interference.
    #[test]
    fn lifecycle_record_snapshot_take() {
        // Disabled: nothing sticks.
        ENABLED.store(false, Ordering::Relaxed);
        record("test.ignored", 10);
        assert!(snapshot().iter().all(|p| p.name != "test.ignored"));

        enable();
        record("test.b", 5);
        record("test.a", 3);
        record("test.b", 7);

        let snap = snapshot();
        let find = |name: &str| snap.iter().find(|p| p.name == name).copied();
        assert_eq!(
            find("test.b").map(|p| (p.calls, p.nanos)),
            Some((2, 12)),
            "snapshot {snap:?}"
        );
        assert_eq!(find("test.a").map(|p| p.calls), Some(1));
        // Name-ordered.
        let names: Vec<_> = snap.iter().map(|p| p.name).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);

        let taken = take();
        assert!(!taken.is_empty());
        assert!(take().is_empty(), "take drains the table");
        ENABLED.store(false, Ordering::Relaxed);
        assert!(
            (PhaseStat {
                name: "x",
                calls: 1,
                nanos: 2_500_000_000
            }
            .seconds()
                - 2.5)
                .abs()
                < 1e-12
        );
    }
}
