//! Experiment harness: regenerates every table and figure of Demers et
//! al., *Epidemic Algorithms for Replicated Database Maintenance*.
//!
//! Each experiment is one row of [`registry`], so the `repro` binary
//! (full trial counts), the criterion benches (reduced counts, timed
//! single trials) and the tests share one implementation. See DESIGN.md
//! for the experiment ↔ paper index (generated from the registry) and
//! EXPERIMENTS.md for recorded results.

// The crate is unsafe-free except for one audited exception: the
// `count-allocs` feature compiles a `GlobalAlloc` impl (inherently unsafe
// trait) in `alloc_counter`. Default builds still forbid unsafe outright.
#![cfg_attr(not(feature = "count-allocs"), forbid(unsafe_code))]
#![cfg_attr(feature = "count-allocs", deny(unsafe_code))]
#![warn(missing_docs)]

pub mod alloc_counter;
pub mod analyze;
pub mod figures;
pub mod registry;
pub mod render;
pub mod rss;
pub mod scenarios;
pub mod tables;
pub mod trace;
