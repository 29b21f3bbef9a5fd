//! Observability layer for the epidemic-algorithms workspace.
//!
//! This crate has **no dependencies** — not even on the sibling
//! simulation crates — so every layer of the workspace can use it without
//! cycles; `epidemic-sim` makes its three sinks ([`RunTracer`],
//! [`AggregatingSink`], [`InvariantChecker`]) engine observers. It
//! provides five pillars:
//!
//! * [`metrics`] — the fixed-bucket [`Histogram`](metrics::Histogram)
//!   behind the aggregate's delay percentiles.
//! * [`record`] — structured run tracing: [`RunTracer`] turns per-contact
//!   events, per-cycle SIR snapshots and a per-link traffic matrix into
//!   JSONL with *no* wall-clock fields, making trace files byte-identical
//!   across worker-thread counts.
//! * [`aggregate`] — streaming run analytics: [`AggregatingSink`] folds
//!   the same event stream into a bounded-memory [`RunAggregate`]
//!   (delay-percentile histogram, capped link-traffic matrix, SIR curves)
//!   with a deterministic `merge`, usable where full JSONL would not be
//!   (megascale runs).
//! * [`invariant`] — [`InvariantChecker`] verifies protocol invariants
//!   (SIR conservation, monotone removal, traffic consistency,
//!   coverage ⇒ replica agreement) as a run streams by, reporting
//!   violations instead of panicking.
//! * [`profile`] — process-global phase profiling guarded by a single
//!   relaxed atomic, for the engine-setup / contact-loop / end-of-cycle /
//!   aggregation timing table behind `repro --timings`.
//!
//! [`json`] is the shared hand-rolled JSON writer (the build environment
//! is offline; there is no serde).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod invariant;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod record;

pub use aggregate::{AggregatingSink, LinkAggregate, LinkCell, RunAggregate, DELAY_BUCKETS};
pub use invariant::{InvariantChecker, Violation};
pub use profile::PhaseStat;
pub use record::{RunTracer, TraceConfig, TraceTotals};

/// SIR compartment counts at one point in a run: how many sites are
/// susceptible (have not heard the update), infective (actively
/// spreading it) and removed (hold it but no longer spread it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sir {
    /// Sites that do not yet hold the update.
    pub susceptible: usize,
    /// Sites holding the update and actively sharing it.
    pub infective: usize,
    /// Sites holding the update but no longer sharing it.
    pub removed: usize,
}

impl Sir {
    /// Total number of sites.
    pub(crate) fn total(&self) -> usize {
        self.susceptible + self.infective + self.removed
    }
}
