//! Round-synchronous simulator for the epidemic protocols — the harness
//! behind every table and figure of Demers et al. (PODC 1987).
//!
//! The paper evaluates its protocols with cycle-based simulations: in each
//! cycle every (relevant) site chooses a partner and performs one protocol
//! exchange. This crate provides those drivers:
//!
//! * [`spatial`] — the one single-update driver: rumor mongering under
//!   complete mixing on `n` sites (Tables 1–3: residue, traffic `m`,
//!   `t_ave`, `t_last`, with connection limits and hunting), §1.3's
//!   anti-entropy under complete mixing (push, pull and push-pull cover
//!   times), and anti-entropy (Tables 4–5) or rumor mongering (§3.2, with
//!   the minimal-`k` search used to match Table 4 and the Figure 1/2
//!   pathology demonstrations) on a real topology with spatial partner
//!   selection and per-link traffic charged by an observer;
//! * [`mixing`] — the result and trial arena those runs share;
//! * [`megascale`] — the single-update rumor epidemic at 10⁴–10⁷ sites on
//!   uniform and scale-free topologies (the same protocol's push arm on
//!   [`engine::ActiveCycleEngine`], one ascending pass over the infective
//!   sites per cycle on counter-based draws; the fig-megascale sweep);
//! * [`scenario`] — the one workload engine: a parsed
//!   [`scenario::Scenario`] spec (site count, protocol, weighted workload
//!   mix, fault-event timeline, warm-up) lowered onto the cycle engine by
//!   [`scenario::ScenarioEngine`]; the Clearinghouse and
//!   death-certificate demonstrations and §2's site churn are bundled
//!   `.scenario` files, and the steady-state figures (§1.3's
//!   checksum/recent-list window, §3.1's distributions in steady state,
//!   §1.4's push-vs-pull update-rate trade-off) are specs too;
//! * [`event`] — a discrete-event, per-site-timer driver ablating the
//!   synchronous-cycle assumption;
//! * [`engine`] — the shared cycle engine all of the above drive:
//!   pluggable [`engine::EpidemicProtocol`] contacts, partners from any
//!   [`PartnerSelection`](epidemic_net::PartnerSelection) strategy
//!   ([`engine::UniformPartners`] for complete mixing), and
//!   [`engine::Observer`] tracing hooks;
//! * [`runner`] — deterministic parallel trial execution, the crate's only
//!   parallelism: fans Monte-Carlo trials across threads with per-trial
//!   seeds `seed_base + trial`, folding results in trial order so
//!   aggregates are bit-identical at any thread count (force one thread
//!   with `EPIDEMIC_THREADS=1` or [`runner::TrialRunner::threads`]);
//! * [`stats`] — small summary-statistics helpers.
//!
//! Every driver has one entry point, `run(arena, seed, observer)`: the
//! trial arena keeps the run's heap state for the next trial, and the
//! observer (`&mut ()` for none) sees every contact and cycle boundary.
//! Everything is deterministic given a seed — including multi-trial
//! aggregates run through [`runner::TrialRunner`].
//!
//! # Example
//!
//! ```
//! use epidemic_core::{Direction, Feedback, Removal, RumorConfig};
//! use epidemic_sim::{MixingArena, SpatialSim};
//!
//! // One trial of Table 1's protocol at k = 2 on 200 sites.
//! let cfg = RumorConfig::new(Direction::Push, Feedback::Feedback, Removal::Counter { k: 2 });
//! let result = SpatialSim::mixing(200, cfg).run(&mut MixingArena::new(), 42, &mut ());
//! assert!(result.residue < 0.5);
//! assert!(result.traffic > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitset;
pub mod engine;
pub mod event;
pub mod megascale;
pub mod mixing;
pub mod runner;
pub mod scenario;
pub mod spatial;
pub mod stats;
mod util;

pub use bitset::BitSet;
pub use engine::{
    ContactStats, CycleEngine, EngineReport, EpidemicProtocol, Observer, SirObserver, TraceView,
    UniformPartners,
};
pub use megascale::MegascaleSim;
pub use mixing::{EpidemicResult, MixingArena};
pub use spatial::SpatialSim;
pub use stats::Summary;
