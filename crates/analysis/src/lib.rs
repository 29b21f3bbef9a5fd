//! Analytical companions to the epidemic protocols — the closed forms,
//! differential equations and recurrences of Demers et al. (PODC 1987).
//!
//! * [`ode`] — the rumor-spreading ODE system of §1.4 and its closed-form
//!   solution `i(s)`;
//! * [`residue`] — the residue laws: `s = e^{-(k+1)(1-s)}`, `s = e^{-m}`
//!   and the connection-limited variants;
//! * [`recurrence`] — the §1.3 anti-entropy recurrences (`p² ` for pull,
//!   `p·(1-1/n)^{n(1-p)}` for push) and the `log₂n + ln n` epidemic time;
//! * [`scaling`] — the §3 link-traffic scaling `T(n)` for `d^-a` spatial
//!   distributions on a line, both asymptotic class and exact expectation.
//!
//! These are used by the benchmark harness to print the paper's predicted
//! curves next to the simulated ones.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ode;
pub mod recurrence;
pub mod residue;
pub mod scaling;

pub use ode::RumorOde;
pub use recurrence::{pull_cycles_until, push_cycles_until, push_epidemic_time};
pub use residue::{
    pull_connection_limited_residue, push_connection_limited_residue, remail_worst_case,
    residue_for_counter, residue_from_traffic,
};
pub use scaling::{mean_line_traffic, traffic_class, TrafficClass};
