//! Declarative scenarios: fault timelines + weighted workload mixes
//! (paper §1.2, §1.5, §2, §3 — behavior under adversity, as data).
//!
//! The paper's most interesting claims are about what happens when things
//! go wrong: mail that loses letters, sites that crash mid-epidemic,
//! partitions that heal, dormant death certificates racing resurrections.
//! Each such experiment used to be a bespoke driver struct with its own
//! hand-rolled loop; this module replaces them with a single spec type —
//! [`Scenario`]: site count, topology, protocol stack, a weighted
//! update/delete/read workload mix, and a timeline of [`FaultEvent`]s —
//! plus [`ScenarioEngine`], which lowers any spec onto the shared
//! [`CycleEngine`](crate::engine::CycleEngine) and reports through the
//! same [`ContactStats`](crate::engine::ContactStats) plumbing as every
//! other driver.
//!
//! Specs parse from a zero-dependency line-oriented text format
//! ([`Scenario::parse`]) and render back canonically
//! ([`Scenario::render`], with `parse(render(s)) == s`). The bundled
//! `.scenario` files under `crates/sim/scenarios/` ([`bundled`]) cover the
//! four historical drivers — callers run them directly, editing spec
//! fields for their variants — and genuinely new runs (a flash-crowd burst under lossy links; churn across a
//! partition heal).
//!
//! Determinism: a run is a pure function of `(spec, seed)`. All
//! randomness flows through one seeded [`StdRng`](rand::rngs::StdRng) in
//! a fixed per-cycle order, and trial-level parallelism never splits a
//! run, so artifacts are byte-identical at any `EPIDEMIC_THREADS`.

mod engine;
mod parse;
mod spec;

pub mod bundled;

pub use engine::{Milestone, ScenarioArena, ScenarioEngine, ScenarioProtocol, ScenarioReport};
pub use parse::ParseError;
pub use spec::{
    AntiEntropySpec, FaultEvent, FaultKind, ProtocolSpec, Scenario, SiteSet, SpatialSpec,
    SpecError, StopRule, TopologySpec, Workload, WorkloadMix,
};
