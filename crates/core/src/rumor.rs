//! Rumor mongering: the complex epidemic (paper §1.4).
//!
//! Sites holding a *hot* rumor periodically share it with random partners
//! and lose interest after enough unnecessary contacts. The paper explores
//! a matrix of variants, all implemented here:
//!
//! * **Blind vs. feedback** — lose interest regardless of the recipient, or
//!   only on contacts the recipient did not need.
//! * **Counter vs. coin** — lose interest after `k` unnecessary contacts, or
//!   with probability `1/k` per (unnecessary) contact.
//! * **Push vs. pull vs. push-pull** — who drives the data flow. Pull
//!   counters follow the Table 3 footnote: all pulls served in a cycle are
//!   aggregated, any useful one resets the counter
//!   ([`end_cycle`]).
//! * **Minimization** — in a push-pull contact where *both* parties already
//!   know the update, only the smaller counter is incremented (both on a
//!   tie).
//!
//! A site's state for one hot rumor is an [`Interest`] record: the
//! counter and Table 3's two pending flags. The rules above are functions
//! of that record — [`lose_interest`], [`Interest::settle`] and
//! [`minimize`] — so the multi-key contacts here, which keep one record
//! beside each key of a replica's [`HotList`], and a single-update
//! simulation, which keeps one record per site and no replica, apply the
//! same definitions.
//!
//! Connection limits and hunting are scheduling concerns and live in the
//! simulator crate; this module implements the pairwise contacts.

use std::hash::Hash;

use rand::{Rng, RngExt};

use epidemic_db::store::OfferOutcome;

use crate::hot::HotList;
use crate::replica::Replica;
use crate::Direction;

/// Whether a sender learns if its contact was unnecessary (§1.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Feedback {
    /// The recipient reports whether it already knew the rumor; interest is
    /// lost only on unnecessary contacts.
    Feedback,
    /// No response from the recipient; interest is lost regardless of the
    /// recipient's state ("obviates the bit-vector response").
    Blind,
}

/// The interest-loss rule (§1.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Removal {
    /// Become removed after `k` (unnecessary) contacts.
    Counter {
        /// Loss threshold.
        k: u32,
    },
    /// Become removed with probability `1/k` per (unnecessary) contact.
    Coin {
        /// Inverse loss probability.
        k: u32,
    },
}

impl Removal {
    /// The variant's `k` parameter.
    pub const fn k(self) -> u32 {
        match self {
            Removal::Counter { k } | Removal::Coin { k } => k,
        }
    }
}

/// Full rumor-mongering configuration.
///
/// # Example
///
/// ```
/// use epidemic_core::{Direction, Feedback, Removal, RumorConfig};
/// // Table 1's protocol: (feedback, counter, push).
/// let cfg = RumorConfig::new(Direction::Push, Feedback::Feedback, Removal::Counter { k: 2 });
/// assert!(!cfg.reset_on_useful); // push counters are monotone
/// // Table 3's protocol: (feedback, counter, pull) — footnote semantics.
/// let cfg = RumorConfig::new(Direction::Pull, Feedback::Feedback, Removal::Counter { k: 2 });
/// assert!(cfg.reset_on_useful);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RumorConfig {
    /// Who drives data flow in a contact.
    pub direction: Direction,
    /// Blind or feedback interest loss.
    pub feedback: Feedback,
    /// Counter or coin removal rule.
    pub removal: Removal,
    /// Whether a useful contact resets the counter (Table 3 footnote).
    /// Defaults to `true` for pull, `false` otherwise.
    pub reset_on_useful: bool,
    /// §1.4 "Minimization": in push-pull, when both parties know the
    /// update, increment only the smaller counter (both on a tie).
    pub minimization: bool,
}

impl RumorConfig {
    /// Creates a configuration with the paper's per-direction counter
    /// semantics (pull resets counters on useful contacts, push does not).
    pub fn new(direction: Direction, feedback: Feedback, removal: Removal) -> Self {
        RumorConfig {
            direction,
            feedback,
            removal,
            reset_on_useful: matches!(direction, Direction::Pull),
            minimization: false,
        }
    }

    /// Enables §1.4 minimization (meaningful for push-pull).
    pub fn with_minimization(mut self) -> Self {
        self.minimization = true;
        self
    }

    /// Overrides the counter-reset rule (for ablations).
    pub fn with_reset_on_useful(mut self, reset: bool) -> Self {
        self.reset_on_useful = reset;
        self
    }
}

/// Outcome of one rumor contact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RumorStats {
    /// Updates transmitted over the network (the paper's traffic unit).
    pub sent: usize,
    /// Transmissions the recipient actually needed.
    pub useful: usize,
    /// Rumors that ceased to be hot at either party during this contact.
    pub deactivated: usize,
}

/// A site's interest in one hot rumor (§1.4): the unnecessary-contact
/// counter of the counter removal rules, and the feedback deferred during
/// the current cycle by the pull rule of Table 3's footnote — "if any
/// recipient needed the update then the counter is reset; if all
/// recipients did not need the update then one is added". The default is
/// a fresh record: what a site holds for a rumor it has just heard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Interest {
    pub(crate) counter: u32,
    pub(crate) pending_needed: bool,
    pub(crate) pending_useless: bool,
}

impl Interest {
    /// Records one pull served this cycle, needed or not.
    pub(crate) fn pend(&mut self, needed: bool) {
        if needed {
            self.pending_needed = true;
        } else {
            self.pending_useless = true;
        }
    }

    /// Settles the cycle's pulls (Table 3 footnote): if the rumor was
    /// pulled, its counter is reset when any recipient needed it (under
    /// `reset_on_useful`, the footnote's rule) and otherwise gains one.
    /// Call once per hot rumor per cycle, after all contacts; returns
    /// whether the site is still interested (its counter below `k`). Coin
    /// removal decides at each contact and keeps every rumor here.
    pub fn settle(&mut self, cfg: &RumorConfig) -> bool {
        let Removal::Counter { k } = cfg.removal else {
            return true;
        };
        if self.pending_needed {
            if cfg.reset_on_useful {
                self.counter = 0;
            }
        } else if self.pending_useless {
            self.counter += 1;
        }
        self.pending_needed = false;
        self.pending_useless = false;
        self.counter < k
    }
}

/// Reusable buffers for the hot-key snapshots a push-pull contact takes of
/// both parties: its second half must not see what its first half
/// inserted. Push and pull walk the sender's list in place and take no
/// snapshot. Steady-state drivers keep one per protocol and thread it
/// through [`contact_with`], so a push-pull fleet under continuous update
/// load stops allocating a fresh `Vec` on every multi-rumor contact — the
/// rumor-side counterpart of `ExchangeScratch`, and like it reports the
/// keys the last contact landed.
#[derive(Debug, Default)]
pub struct RumorScratch<K> {
    /// Snapshot buffer for the initiator's hot keys.
    pub a_keys: Vec<K>,
    /// Snapshot buffer for the partner's hot keys.
    pub b_keys: Vec<K>,
    /// Keys the last contact landed — offers the recipient applied — at
    /// the initiator (`[0]`) and at the partner (`[1]`), in offer order.
    pub landed: [Vec<K>; 2],
}

impl<K> RumorScratch<K> {
    /// Creates empty buffers. No allocation happens until a contact
    /// actually snapshots more than one hot rumor.
    pub fn new() -> Self {
        RumorScratch {
            a_keys: Vec::new(),
            b_keys: Vec::new(),
            landed: [Vec::new(), Vec::new()],
        }
    }
}

/// Start-of-contact snapshot of a replica's hot keys. A replica with at
/// most one rumor hot (any single-key fleet) borrows into a stack slot
/// instead of touching the caller's buffer at all.
enum HotKeys<'s, K> {
    UpToOne(Option<K>),
    Many(&'s [K]),
}

impl<'s, K: Ord + Clone + Hash + Eq> HotKeys<'s, K> {
    fn snapshot<V: Hash>(replica: &Replica<K, V>, buf: &'s mut Vec<K>) -> Self {
        let hot = replica.hot();
        if hot.len() <= 1 {
            HotKeys::UpToOne(hot.keys().next().cloned())
        } else {
            buf.clear();
            buf.extend(hot.keys().cloned());
            HotKeys::Many(buf)
        }
    }

    fn as_slice(&self) -> &[K] {
        match self {
            HotKeys::UpToOne(one) => one.as_slice(),
            HotKeys::Many(keys) => keys,
        }
    }
}

/// Offers the hot rumor `key` from `from` to `to`: one probe of the
/// sender's database to borrow the entry, one probe of the recipient's to
/// merge it. The entry is cloned only when `to` actually needs it, so the
/// common late-epidemic case (everyone already knows the update) transmits
/// nothing owned. Returns `None` when `from` no longer holds an entry for
/// the key (e.g. an expired death certificate; the caller drops the stale
/// rumor), otherwise `Some(useful)`.
///
/// A `known` offer — the caller knows `to` holds `key` at `from`'s
/// version — probes neither database and was not useful. Debug builds
/// make it anyway and panic unless it was `AlreadyKnown` and changed
/// neither `to`'s database nor its hot list: the long way of every
/// [`contact_with_known`] skip.
fn offer<K, V>(from: &Replica<K, V>, to: &mut Replica<K, V>, key: &K, known: bool) -> Option<bool>
where
    K: Ord + Clone + Hash + Eq,
    V: Clone + Hash,
{
    if !known {
        let entry = from.db().entry(key)?;
        return Some(to.receive_rumor_ref(key, entry).was_useful());
    }
    if cfg!(debug_assertions) {
        let entry = from
            .db()
            .entry(key)
            .expect("the sender holds a known rumor");
        let before = (to.db().checksum(), to.db().len(), to.hot().clone());
        let outcome = to.receive_rumor_ref(key, entry);
        let after = (to.db().checksum(), to.db().len(), to.hot().clone());
        assert!(
            outcome == OfferOutcome::AlreadyKnown && after == before,
            "a known offer was {outcome:?}, or changed the recipient"
        );
    }
    Some(false)
}

/// Offers every hot rumor of `from` to `to` (see [`offer`]) in
/// one pass over `from`'s list, and hands each one sent to
/// `edit(hot, idx, useful, stats)`, which returns whether it removed the
/// rumor at `idx`. Every edit lands at the cursor: the receiver's list is
/// another replica's, a removal leaves the next rumor at the cursor, and
/// a promotion to the front leaves it one place further on — so rumors
/// are visited, and coins tossed, in start-of-contact order, with no
/// snapshot taken.
///
/// A rumor `known` names is offered as known (see [`contact_with_known`]);
/// every useful one is appended to `landed`, the keys landed at `to`.
fn walk_hot<K, V>(
    from: &mut Replica<K, V>,
    to: &mut Replica<K, V>,
    landed: &mut Vec<K>,
    mut known: impl FnMut(&K) -> bool,
    mut edit: impl FnMut(&mut HotList<K>, usize, bool, &mut RumorStats) -> bool,
) -> RumorStats
where
    K: Ord + Clone + Hash + Eq,
    V: Clone + Hash,
{
    let mut stats = RumorStats::default();
    let mut idx = 0;
    while idx < from.hot().len() {
        let key = from.hot().key_at(idx);
        let Some(useful) = offer(from, to, key, known(key)) else {
            from.hot_mut().remove_at(idx); // stale: dropped unsent
            continue;
        };
        stats.sent += 1;
        if useful {
            stats.useful += 1;
            landed.push(key.clone());
        }
        if !edit(from.hot_mut(), idx, useful, &mut stats) {
            idx += 1;
        }
    }
    stats
}

/// One **push-pull** contact: both parties offer their hot rumors, with
/// immediate interest-loss and optional §1.4 minimization. Each half walks
/// a start-of-contact snapshot of its sender's hot keys, taken into the
/// caller's [`RumorScratch`].
fn push_pull_contact<K, V, R>(
    cfg: &RumorConfig,
    a: &mut Replica<K, V>,
    b: &mut Replica<K, V>,
    rng: &mut R,
    scratch: &mut RumorScratch<K>,
) -> RumorStats
where
    K: Ord + Clone + Hash + Eq,
    V: Clone + Hash,
    R: Rng + ?Sized,
{
    let mut stats = RumorStats::default();
    let RumorScratch {
        a_keys,
        b_keys,
        landed: [to_a, to_b],
    } = scratch;
    let a_keys = HotKeys::snapshot(a, a_keys);
    let b_keys = HotKeys::snapshot(b, b_keys);

    for key in a_keys.as_slice() {
        let both_hot = cfg.minimization && b_keys.as_slice().contains(key);
        let Some(useful) = offer(a, b, key, false) else {
            a.hot_mut().remove(key);
            continue;
        };
        stats.sent += 1;
        if useful {
            stats.useful += 1;
            to_b.push(key.clone());
        }
        if both_hot && !useful {
            // Both parties knew the rumor (§1.4 Minimization). The b→a
            // direction for this key is subsumed here.
            minimize_hot(cfg, a, b, key, &mut stats);
            continue;
        }
        let idx = a.hot().position(key);
        lose_interest_at(cfg, a.hot_mut(), idx, useful, rng, &mut stats);
    }
    for key in b_keys.as_slice() {
        if cfg.minimization && a_keys.as_slice().contains(key) {
            continue; // handled in the first loop
        }
        let Some(useful) = offer(b, a, key, false) else {
            b.hot_mut().remove(key);
            continue;
        };
        stats.sent += 1;
        if useful {
            stats.useful += 1;
            to_a.push(key.clone());
        }
        let idx = b.hot().position(key);
        lose_interest_at(cfg, b.hot_mut(), idx, useful, rng, &mut stats);
    }
    stats
}

/// One contact in the configured [`Direction`].
///
/// `initiator` is the site that opened the connection — the sender under
/// push, the requester under pull, either party under push-pull. This and
/// [`contact_with_known`] are the entry points the `epidemic-sim` engine
/// drivers use, so the direction dispatch lives in exactly one place. The
/// caller owns the snapshot buffers, one [`RumorScratch`] per protocol, so
/// multi-rumor push-pull contacts stop allocating a snapshot `Vec` apiece.
/// Only push-pull uses the buffers; push and pull take no snapshot. Every
/// direction reports the keys it landed in [`RumorScratch::landed`].
pub fn contact_with<K, V, R>(
    cfg: &RumorConfig,
    initiator: &mut Replica<K, V>,
    partner: &mut Replica<K, V>,
    rng: &mut R,
    scratch: &mut RumorScratch<K>,
) -> RumorStats
where
    K: Ord + Clone + Hash + Eq,
    V: Clone + Hash,
    R: Rng + ?Sized,
{
    contact_with_known(cfg, initiator, partner, rng, scratch, |_| false)
}

/// [`contact_with`] for a driver that knows which rumors the recipient
/// holds — the partner under push, the initiator under pull. `known(key)`
/// is asked once per hot rumor before it is offered; `true` promises the
/// recipient holds `key` at the version the sender would send, and the
/// offer is then not made: it counts as sent and not useful, and the
/// sender's interest-loss rule runs as usual (same coin, same RNG order).
/// `false` sends the offer as [`contact_with`] would. Push-pull offers in
/// both directions and never asks.
///
/// Debug builds make every skipped offer anyway, and panic unless it was
/// `AlreadyKnown` and changed neither the recipient's database nor its hot
/// list.
pub fn contact_with_known<K, V, R>(
    cfg: &RumorConfig,
    initiator: &mut Replica<K, V>,
    partner: &mut Replica<K, V>,
    rng: &mut R,
    scratch: &mut RumorScratch<K>,
    known: impl FnMut(&K) -> bool,
) -> RumorStats
where
    K: Ord + Clone + Hash + Eq,
    V: Clone + Hash,
    R: Rng + ?Sized,
{
    scratch.landed.iter_mut().for_each(Vec::clear);
    let [to_a, to_b] = &mut scratch.landed;
    match cfg.direction {
        // Push, §1.4's basic scenario: the initiator offers every hot
        // rumor and loses interest at once.
        Direction::Push => walk_hot(initiator, partner, to_b, known, |hot, i, useful, stats| {
            lose_interest_at(cfg, hot, Some(i), useful, rng, stats)
        }),
        // Pull: the partner serves its hot rumors. Under counters the
        // source records whether each pull was needed and applies the
        // Table 3 footnote at end of cycle via [`end_cycle`]; under coins
        // it loses interest at once (see [`lose_interest`]).
        Direction::Pull => walk_hot(partner, initiator, to_a, known, |hot, i, useful, stats| {
            lose_interest_at(cfg, hot, Some(i), useful, rng, stats)
        }),
        Direction::PushPull => push_pull_contact(cfg, initiator, partner, rng, scratch),
    }
}

/// End-of-cycle processing for pull counters (Table 3 footnote): every hot
/// rumor of `site` is settled ([`Interest::settle`]). Call once per site
/// per cycle after all contacts. Returns deactivation count.
pub fn end_cycle<K, V>(cfg: &RumorConfig, site: &mut Replica<K, V>) -> usize
where
    K: Ord + Clone + Hash + Eq,
    V: Hash,
{
    site.hot_mut().end_cycle(cfg)
}

/// Applies the interest-loss rule ([`lose_interest`]) to `holder` after a
/// contact about `key` whose usefulness was `useful`, judged by the caller
/// (a round-synchronous driver judges it against start-of-cycle state
/// instead of the sequential outcome). Only tests call it: the replica
/// reference of `epidemic-sim`'s single-update rumor differential.
pub fn record_feedback<K, V, R>(
    cfg: &RumorConfig,
    holder: &mut Replica<K, V>,
    key: &K,
    useful: bool,
    rng: &mut R,
) -> bool
where
    K: Ord + Clone + Hash + Eq,
    V: Hash,
    R: Rng + ?Sized,
{
    let idx = holder.hot().position(key);
    let mut stats = RumorStats::default();
    lose_interest_at(cfg, holder.hot_mut(), idx, useful, rng, &mut stats)
}

/// Whether a pull source's counter waits for the end of the cycle (Table
/// 3's footnote, [`Interest::settle`]) instead of moving at each serve.
fn defers(cfg: &RumorConfig) -> bool {
    cfg.direction == Direction::Pull && matches!(cfg.removal, Removal::Counter { .. })
}

/// Whether a contact renews the sender's interest at once: a useful one
/// under feedback with the counter-reset rule, its counter back to zero.
fn renews(cfg: &RumorConfig, useful: bool) -> bool {
    useful && cfg.feedback == Feedback::Feedback && cfg.reset_on_useful && !defers(cfg)
}

/// §1.4's interest-loss rule, applied to a sender after a contact about a
/// rumor whose usefulness was `useful`. `interest` is the sender's record,
/// `None` when the rumor is no longer hot there. Returns whether the
/// sender lost interest.
///
/// * A pull source under counters records the serve — needed when useful
///   under feedback, never when blind — for [`Interest::settle`] at the
///   end of the cycle (Table 3's footnote).
/// * Under feedback a useful contact costs nothing, and resets the counter
///   when `reset_on_useful` is set.
/// * Any other contact counts against the rumor: a counter gains one and
///   is lost at `k`, a coin is lost with probability `1/k`. A rumor no
///   longer hot still tosses its coin, so the random stream does not
///   depend on it, and loses nothing.
pub fn lose_interest<R>(
    cfg: &RumorConfig,
    interest: Option<&mut Interest>,
    useful: bool,
    rng: &mut R,
) -> bool
where
    R: Rng + ?Sized,
{
    if defers(cfg) {
        if let Some(interest) = interest {
            interest.pend(useful && cfg.feedback == Feedback::Feedback);
        }
        return false;
    }
    if useful && cfg.feedback == Feedback::Feedback {
        if let Some(interest) = interest.filter(|_| cfg.reset_on_useful) {
            interest.counter = 0;
        }
        return false;
    }
    match cfg.removal {
        Removal::Counter { k } => interest.is_some_and(|interest| {
            interest.counter += 1;
            interest.counter >= k
        }),
        Removal::Coin { k } => {
            rng.random::<f64>() < 1.0 / f64::from(k.max(1)) && interest.is_some()
        }
    }
}

/// [`lose_interest`] for the rumor at position `idx` of `hot` (`None`: no
/// longer hot there). A rumor whose interest was renewed moves to the front
/// of the activity order; a lost one leaves the list. Returns whether it
/// left.
fn lose_interest_at<K, R>(
    cfg: &RumorConfig,
    hot: &mut HotList<K>,
    idx: Option<usize>,
    useful: bool,
    rng: &mut R,
    stats: &mut RumorStats,
) -> bool
where
    K: Eq + Clone,
    R: Rng + ?Sized,
{
    let lost = lose_interest(cfg, idx.map(|idx| hot.interest_at_mut(idx)), useful, rng);
    match idx {
        Some(idx) if lost => {
            hot.remove_at(idx);
            stats.deactivated += 1;
        }
        Some(idx) if renews(cfg, useful) => hot.promote_at(idx),
        _ => {}
    }
    lost
}

/// §1.4 minimization: both parties hold the rumor hot and the push was
/// unnecessary — increment only the smaller counter (both on a tie).
/// Returns whether each party lost interest, its counter at `k`. Defined
/// for counters only: under coins neither record changes.
pub fn minimize(cfg: &RumorConfig, a: &mut Interest, b: &mut Interest) -> [bool; 2] {
    let Removal::Counter { k } = cfg.removal else {
        return [false; 2];
    };
    let (bump_a, bump_b) = match a.counter.cmp(&b.counter) {
        std::cmp::Ordering::Less => (true, false),
        std::cmp::Ordering::Greater => (false, true),
        std::cmp::Ordering::Equal => (true, true),
    };
    [(a, bump_a), (b, bump_b)].map(|(interest, bump)| {
        bump && {
            interest.counter += 1;
            interest.counter >= k
        }
    })
}

/// [`minimize`] for `key`, hot at both `a` and `b`; whoever loses interest
/// drops the rumor.
fn minimize_hot<K, V>(
    cfg: &RumorConfig,
    a: &mut Replica<K, V>,
    b: &mut Replica<K, V>,
    key: &K,
    stats: &mut RumorStats,
) where
    K: Ord + Clone + Hash + Eq,
    V: Hash,
{
    let (ia, ib) = (a.hot().position(key).zip(b.hot().position(key)))
        .expect("minimization runs only where both parties hold the rumor hot");
    let lost = minimize(
        cfg,
        a.hot_mut().interest_at_mut(ia),
        b.hot_mut().interest_at_mut(ib),
    );
    for (holder, idx, lost) in [(a, ia, lost[0]), (b, ib, lost[1])] {
        if lost {
            holder.hot_mut().remove_at(idx);
            stats.deactivated += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epidemic_db::SiteId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pair() -> (Replica<&'static str, u32>, Replica<&'static str, u32>) {
        (Replica::new(SiteId::new(0)), Replica::new(SiteId::new(1)))
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn push_spreads_and_ignites_receiver() {
        let (mut a, mut b) = pair();
        a.client_update("k", 1);
        let cfg = RumorConfig::new(
            Direction::Push,
            Feedback::Feedback,
            Removal::Counter { k: 2 },
        );
        let stats = contact_with(&cfg, &mut a, &mut b, &mut rng(), &mut RumorScratch::new());
        assert_eq!(stats.sent, 1);
        assert_eq!(stats.useful, 1);
        assert!(b.is_infective(&"k"));
        assert!(a.is_infective(&"k"), "useful contact keeps the rumor hot");
    }

    #[test]
    fn feedback_counter_deactivates_after_k_unnecessary() {
        let (mut a, mut b) = pair();
        a.client_update("k", 1);
        let cfg = RumorConfig::new(
            Direction::Push,
            Feedback::Feedback,
            Removal::Counter { k: 2 },
        );
        let mut r = rng();
        contact_with(&cfg, &mut a, &mut b, &mut r, &mut RumorScratch::new()); // useful
        b.hot_mut().clear(); // keep b from counting for this test
        contact_with(&cfg, &mut a, &mut b, &mut r, &mut RumorScratch::new()); // unnecessary #1
        assert!(a.is_infective(&"k"));
        let stats = contact_with(&cfg, &mut a, &mut b, &mut r, &mut RumorScratch::new()); // unnecessary #2
        assert_eq!(stats.deactivated, 1);
        assert!(!a.is_infective(&"k"));
        assert_eq!(a.db().get(&"k"), Some(&1), "update retained after removal");
    }

    #[test]
    fn blind_counter_counts_every_contact() {
        let (mut a, mut b) = pair();
        a.client_update("k", 1);
        let cfg = RumorConfig::new(Direction::Push, Feedback::Blind, Removal::Counter { k: 2 });
        let mut r = rng();
        contact_with(&cfg, &mut a, &mut b, &mut r, &mut RumorScratch::new()); // useful, still counts
        assert_eq!(a.hot().counter(&"k"), Some(1));
        contact_with(&cfg, &mut a, &mut b, &mut r, &mut RumorScratch::new());
        assert!(!a.is_infective(&"k"));
    }

    #[test]
    fn coin_with_k1_removes_after_first_unnecessary_contact() {
        let (mut a, mut b) = pair();
        a.client_update("k", 1);
        b.client_update("k2", 2); // make b non-susceptible on key k? no: k unknown to b
        let cfg = RumorConfig::new(Direction::Push, Feedback::Blind, Removal::Coin { k: 1 });
        let stats = contact_with(&cfg, &mut a, &mut b, &mut rng(), &mut RumorScratch::new());
        // Blind coin with k=1: removed with probability 1 after the send.
        assert_eq!(stats.deactivated, 1);
        assert!(!a.is_infective(&"k"));
        assert!(b.is_infective(&"k"), "the recipient caught the rumor first");
    }

    #[test]
    fn pull_transfers_from_infective_source() {
        let (mut a, mut b) = pair();
        b.client_update("k", 1);
        let cfg = RumorConfig::new(
            Direction::Pull,
            Feedback::Feedback,
            Removal::Counter { k: 1 },
        );
        let stats = contact_with(&cfg, &mut a, &mut b, &mut rng(), &mut RumorScratch::new());
        assert_eq!(stats.sent, 1);
        assert_eq!(a.db().get(&"k"), Some(&1));
        // Counter is deferred: b still hot until end_cycle.
        assert!(b.is_infective(&"k"));
        let deactivated = end_cycle(&cfg, &mut b);
        assert_eq!(deactivated, 0, "a useful serve resets the counter");
    }

    #[test]
    fn pull_footnote_counter_semantics() {
        let (mut a, mut b) = pair();
        b.client_update("k", 1);
        let cfg = RumorConfig::new(
            Direction::Pull,
            Feedback::Feedback,
            Removal::Counter { k: 1 },
        );
        let mut r = rng();
        // Cycle 1: two pulls, one useful (a needs it) one not (c knows it).
        let mut c: Replica<&str, u32> = Replica::new(SiteId::new(2));
        c.client_update("other", 5);
        contact_with(&cfg, &mut a, &mut b, &mut r, &mut RumorScratch::new()); // useful
        contact_with(&cfg, &mut c, &mut b, &mut r, &mut RumorScratch::new()); // c needed it too actually
        end_cycle(&cfg, &mut b);
        assert!(b.is_infective(&"k"), "some recipient needed the update");
        // Cycle 2: only unnecessary pulls.
        contact_with(&cfg, &mut a, &mut b, &mut r, &mut RumorScratch::new());
        contact_with(&cfg, &mut c, &mut b, &mut r, &mut RumorScratch::new());
        let removed = end_cycle(&cfg, &mut b);
        assert_eq!(removed, 1);
        assert!(!b.is_infective(&"k"));
    }

    #[test]
    fn push_pull_exchanges_both_ways() {
        let (mut a, mut b) = pair();
        a.client_update("x", 1);
        b.client_update("y", 2);
        let cfg = RumorConfig::new(
            Direction::PushPull,
            Feedback::Feedback,
            Removal::Counter { k: 3 },
        );
        let stats = contact_with(&cfg, &mut a, &mut b, &mut rng(), &mut RumorScratch::new());
        assert_eq!(stats.sent, 2);
        assert_eq!(stats.useful, 2);
        assert_eq!(a.db().get(&"y"), Some(&2));
        assert_eq!(b.db().get(&"x"), Some(&1));
        assert!(a.is_infective(&"y") && b.is_infective(&"x"));
    }

    #[test]
    fn minimization_increments_only_smaller_counter() {
        let (mut a, mut b) = pair();
        a.client_update("k", 1);
        let cfg = RumorConfig::new(
            Direction::PushPull,
            Feedback::Feedback,
            Removal::Counter { k: 5 },
        )
        .with_minimization();
        let mut r = rng();
        // Spread to b, then pre-load a's counter.
        contact_with(&cfg, &mut a, &mut b, &mut r, &mut RumorScratch::new());
        a.hot_mut().bump_counter(&"k", 2); // a: 2, b: 0
        contact_with(&cfg, &mut a, &mut b, &mut r, &mut RumorScratch::new());
        assert_eq!(a.hot().counter(&"k"), Some(2), "larger counter untouched");
        assert_eq!(b.hot().counter(&"k"), Some(1), "smaller counter bumped");
    }

    #[test]
    fn minimization_increments_both_counters_on_ties() {
        let (mut a, mut b) = pair();
        a.client_update("k", 1);
        let cfg = RumorConfig::new(
            Direction::PushPull,
            Feedback::Feedback,
            Removal::Counter { k: 5 },
        )
        .with_minimization();
        let mut r = rng();
        contact_with(&cfg, &mut a, &mut b, &mut r, &mut RumorScratch::new()); // both infective, a:0 b:0
        contact_with(&cfg, &mut a, &mut b, &mut r, &mut RumorScratch::new()); // tie: both bump to 1
        assert_eq!(a.hot().counter(&"k"), Some(1));
        assert_eq!(b.hot().counter(&"k"), Some(1));
    }

    #[test]
    fn minimization_lowers_population_residue() {
        // §1.4: minimization "results in the smallest residue we have seen
        // so far". In a two-site system counters re-tie and the variants
        // coincide; the benefit appears at population scale, where random
        // meetings leave counters unequal and minimization spends only the
        // smaller one. Mini-simulation: 60 sites, push-pull, k = 2.
        let mut r = rng();
        let residue = |cfg: &RumorConfig, r: &mut StdRng| {
            let mut total = 0.0;
            let trials = 30;
            for _ in 0..trials {
                let n = 60;
                let mut sites: Vec<Replica<u8, u8>> = (0..n)
                    .map(|i| Replica::new(epidemic_db::SiteId::new(i)))
                    .collect();
                sites[0].client_update(0, 1);
                let mut guard = 0;
                while sites.iter().any(|s| !s.hot().is_empty()) {
                    for i in 0..n as usize {
                        if sites[i].hot().is_empty() {
                            continue;
                        }
                        let mut j = usize::try_from(r.random_range(0..n - 1)).unwrap();
                        if j >= i {
                            j += 1;
                        }
                        let [x, y] = sites.get_disjoint_mut([i, j]).unwrap();
                        contact_with(cfg, x, y, r, &mut RumorScratch::new());
                    }
                    guard += 1;
                    assert!(guard < 10_000);
                }
                let missing = sites.iter().filter(|s| s.db().entry(&0).is_none()).count();
                total += missing as f64 / f64::from(n);
            }
            total / 30.0
        };
        let plain = RumorConfig::new(
            Direction::PushPull,
            Feedback::Feedback,
            Removal::Counter { k: 2 },
        );
        let minimized = plain.with_minimization();
        let plain_res = residue(&plain, &mut r);
        let min_res = residue(&minimized, &mut r);
        assert!(
            min_res <= plain_res,
            "minimized {min_res} vs plain {plain_res}"
        );
    }

    /// §1.4's rule at a sender whose rumor is no longer hot: a coin is
    /// still tossed — the random stream does not depend on whether the
    /// rumor was still hot — and nothing is lost; a counter moves nothing
    /// and draws nothing.
    #[test]
    fn a_rumor_no_longer_hot_still_tosses_its_coin() {
        for (removal, draws) in [(Removal::Coin { k: 1 }, 1), (Removal::Counter { k: 1 }, 0)] {
            let cfg = RumorConfig::new(Direction::Pull, Feedback::Feedback, removal);
            let (mut tossed, mut reference) = (rng(), rng());
            assert!(!lose_interest(&cfg, None, false, &mut tossed));
            for _ in 0..draws {
                reference.random::<f64>();
            }
            assert_eq!(tossed.random::<u64>(), reference.random::<u64>());
        }
    }

    #[test]
    fn hot_keys_without_entries_are_dropped_not_sent() {
        // A hot rumor whose entry was garbage-collected (an expired death
        // certificate) must silently leave the hot list.
        let (mut a, mut b) = pair();
        for direction in [Direction::Push, Direction::PushPull] {
            a.hot_mut().insert("ghost");
            let cfg = RumorConfig::new(direction, Feedback::Feedback, Removal::Counter { k: 1 });
            let stats = contact_with(&cfg, &mut a, &mut b, &mut rng(), &mut RumorScratch::new());
            assert_eq!(stats.sent, 0);
            assert!(!a.is_infective(&"ghost"), "{direction:?}");
        }
    }
}
