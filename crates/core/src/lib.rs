//! The epidemic update-propagation protocols of Demers et al.,
//! *Epidemic Algorithms for Replicated Database Maintenance* (PODC 1987) —
//! the paper's primary contribution.
//!
//! Three families of randomized protocols drive replicas toward
//! consistency:
//!
//! * **Direct mail** (§1.2, [`direct_mail`]): the update's entry site mails
//!   it to every site it knows of. Timely but unreliable — mail queues
//!   overflow and site lists go stale.
//! * **Anti-entropy** (§1.3, [`anti_entropy`]): each site periodically
//!   resolves *all* differences with a random partner, by [`Direction::Push`],
//!   [`Direction::Pull`] or [`Direction::PushPull`], optionally short-cut by
//!   checksums, recent-update lists or *peel back*. A simple epidemic:
//!   converges with probability 1.
//! * **Rumor mongering** (§1.4, [`rumor`]): sites share only *hot* rumors
//!   and lose interest after enough unnecessary contacts — cheap cycles, but
//!   a tunable, nonzero failure probability. Backed up by anti-entropy
//!   (§1.5, [`backup`]) the combination is both cheap and certain.
//!
//! All protocol steps are expressed as exchanges between two [`Replica`]s.
//! A replica is a [`Database`](epidemic_db::Database) plus a local clock and
//! the per-update rumor state ([`hot::HotList`]). The round-synchronous
//! driver lives in the `epidemic-sim` crate; nothing here depends on it, so
//! the same exchange logic can be driven by a real transport.
//!
//! # Example: push-pull anti-entropy converges two replicas
//!
//! ```
//! use epidemic_core::{anti_entropy::{AntiEntropy, Comparison}, Direction, Replica};
//! use epidemic_db::SiteId;
//!
//! let mut a = Replica::new(SiteId::new(0));
//! let mut b = Replica::new(SiteId::new(1));
//! a.client_update("key", 1);
//! b.client_update("other", 2);
//!
//! let protocol = AntiEntropy::new(Direction::PushPull, Comparison::Full);
//! let stats = protocol.exchange(&mut a, &mut b);
//! assert_eq!(stats.sent_ab + stats.sent_ba, 2);
//! assert_eq!(a.db(), b.db());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activity;
pub mod anti_entropy;
pub mod backup;
pub mod direct_mail;
pub mod hot;
pub mod replica;
pub mod rumor;

pub use anti_entropy::{AntiEntropy, Comparison, ExchangeScratch, ExchangeStats};
pub use backup::{BackupAntiEntropy, Redistribution};
pub use direct_mail::{DirectMail, MailConfig, MailSystem};
pub use replica::Replica;
pub use rumor::{Feedback, Interest, Removal, RumorConfig, RumorScratch, RumorStats};

/// Transfer direction of an exchange (§1.3, §1.4).
///
/// With *push*, the initiating site sends what it knows; with *pull* it asks
/// for what the partner knows; *push-pull* does both. For anti-entropy used
/// as a backup, §1.3 shows pull and push-pull converge like `p²` per cycle
/// versus push's `p·e⁻¹` once few susceptibles remain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Initiator sends newer data to the partner.
    Push,
    /// Initiator fetches newer data from the partner.
    Pull,
    /// Both directions in one conversation.
    PushPull,
}

impl Direction {
    /// Whether data flows initiator → partner.
    pub const fn pushes(self) -> bool {
        matches!(self, Direction::Push | Direction::PushPull)
    }

    /// Whether data flows partner → initiator.
    pub const fn pulls(self) -> bool {
        matches!(self, Direction::Pull | Direction::PushPull)
    }
}
