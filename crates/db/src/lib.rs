//! Replicated-database substrate for the epidemic update-propagation
//! protocols of Demers et al., *Epidemic Algorithms for Replicated Database
//! Maintenance* (PODC 1987).
//!
//! A replica stores a partial map `K -> (v: Option<V>, t: Timestamp)` where a
//! `None` value is a *death certificate*: the key was deleted as of time `t`
//! (paper §1.1, §2). A pair with a larger timestamp always supersedes one
//! with a smaller timestamp, which makes replicas a join semilattice — the
//! foundation the epidemic protocols rely on.
//!
//! The crate provides everything the paper's protocols need from the storage
//! layer:
//!
//! * [`Timestamp`]s that are globally unique and totally ordered
//!   ([`timestamp`]),
//! * the versioned store itself ([`Database`]),
//! * incremental database [`checksum`]s (§1.3),
//! * recent-update lists with a window `τ`, walked in place
//!   ([`Database::recent_index`], §1.3),
//! * a *peel-back* inverted index by timestamp, derived from the store's
//!   column order ([`flat`], §1.3, §1.5),
//! * dormant death certificates with activation timestamps ([`death`], §2),
//! * lazily materialized site rows — no storage until a site's first
//!   receipt — for fleet sizes where eager construction dominates
//!   ([`lazy`]).
//!
//! # Example
//!
//! ```
//! use epidemic_db::{Database, SimClock, SiteId};
//!
//! let site = SiteId::new(0);
//! let mut clock = SimClock::new(site);
//! let mut db: Database<&str, &str> = Database::new();
//!
//! db.update("ship", "Argo", &mut clock);
//! assert_eq!(db.get(&"ship"), Some(&"Argo"));
//!
//! db.delete(&"ship", &mut clock);
//! assert_eq!(db.get(&"ship"), None); // death certificate, not absence
//! assert!(db.entry(&"ship").is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checksum;
pub mod death;
pub mod flat;
pub mod item;
pub mod lazy;
pub mod store;
pub mod timestamp;

pub use checksum::Checksum;
pub use death::{DeathCertificate, GcPolicy, GcStats};
pub use flat::{Aux, FlatStore};
pub use item::{ApplyOutcome, Entry};
pub use lazy::LazyTable;
pub use store::{Database, OfferOutcome};
pub use timestamp::{SimClock, SiteId, Timestamp};
