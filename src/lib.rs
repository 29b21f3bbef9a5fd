//! **epidemics** — a faithful Rust implementation of Demers et al.,
//! *Epidemic Algorithms for Replicated Database Maintenance* (PODC 1987).
//!
//! This facade re-exports the workspace crates:
//!
//! * [`db`] — the replicated timestamped store (checksums, recent-update
//!   lists, peel-back index, death certificates);
//! * [`net`] — topologies, routing, link traffic and spatial distributions;
//! * [`core`] — the protocols: direct mail, anti-entropy, rumor mongering,
//!   backup and the activity-list combination;
//! * [`sim`] — round-synchronous experiment drivers;
//! * [`analysis`] — the paper's closed forms and recurrences.
//!
//! # Example
//!
//! ```
//! use epidemics::core::{AntiEntropy, Comparison, Direction, Replica};
//! use epidemics::db::SiteId;
//!
//! let mut a = Replica::new(SiteId::new(0));
//! let mut b = Replica::new(SiteId::new(1));
//! a.client_update("grapevine", "PARC");
//! AntiEntropy::new(Direction::PushPull, Comparison::Full).exchange(&mut a, &mut b);
//! assert_eq!(b.db().get(&"grapevine"), Some(&"PARC"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use epidemic_analysis as analysis;
pub use epidemic_core as core;
pub use epidemic_db as db;
pub use epidemic_net as net;
pub use epidemic_sim as sim;
