//! Anti-entropy: the simple epidemic (paper §1.3).
//!
//! "Every site regularly chooses another site at random and by exchanging
//! database contents with it resolves any differences between the two."
//! Anti-entropy is extremely reliable — a simple epidemic that infects the
//! whole population with probability 1 — but examining entire databases is
//! expensive, so §1.3 layers progressively cheaper comparison strategies on
//! top: checksums, recent-update lists with a window `τ`, and *peel back*
//! (exchange in reverse timestamp order until the checksums agree).

use std::hash::Hash;

use epidemic_db::store::OfferOutcome;
use epidemic_db::{Checksum, Database, Entry, Timestamp};

use crate::replica::Replica;
use crate::Direction;

/// Reusable buffers for anti-entropy conversations.
///
/// A conversation that falls back to a full comparison fills two diff
/// buffers with the keys to send each way; peel back snapshots both
/// sides' timestamp indexes. Freshly allocating those `Vec`s per contact
/// dominates steady-state drivers that run thousands of conversations, so
/// the engine threads one scratch through every exchange via
/// [`AntiEntropy::exchange_with`] and the buffers keep their capacity
/// between conversations.
///
/// [`AntiEntropy::exchange`] works on a throwaway scratch — behaviour is
/// identical, only the buffer reuse is lost.
///
/// The scratch also reports what the last conversation did: the keys it
/// *landed* (offers the receiver applied) at each party, so a driver can
/// track who holds what without probing either database.
#[derive(Debug, Clone)]
pub struct ExchangeScratch<K> {
    /// Keys the last conversation landed at the initiator (`[0]`) and at
    /// the partner (`[1]`), in offer order.
    pub landed: [Vec<K>; 2],
    /// Full-comparison diff buffer: keys to send `a → b`.
    pub(crate) a_to_b: Vec<K>,
    /// Full-comparison diff buffer: keys to send `b → a`.
    pub(crate) b_to_a: Vec<K>,
    /// Peel-back snapshot of the initiator's timestamp index.
    peel_a: Vec<(Timestamp, K)>,
    /// Peel-back snapshot of the partner's timestamp index.
    peel_b: Vec<(Timestamp, K)>,
    /// Recent-list offers the walk defers: the sender rows' newest-first
    /// ranks.
    recent: Vec<u32>,
}

impl<K> ExchangeScratch<K> {
    /// Creates an empty scratch. No allocation happens until a
    /// conversation actually needs a buffer.
    pub fn new() -> Self {
        ExchangeScratch {
            landed: [Vec::new(), Vec::new()],
            a_to_b: Vec::new(),
            b_to_a: Vec::new(),
            peel_a: Vec::new(),
            peel_b: Vec::new(),
            recent: Vec::new(),
        }
    }
}

impl<K> Default for ExchangeScratch<K> {
    fn default() -> Self {
        ExchangeScratch::new()
    }
}

/// How two databases are compared before updates flow (§1.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Comparison {
    /// Compare complete databases every time — the basic, expensive form.
    Full,
    /// Exchange checksums first; compare full databases only on mismatch.
    /// Effective only while updates distribute faster than they arrive.
    Checksum,
    /// Exchange *recent update lists* (entries younger than `tau`), apply
    /// them, then compare checksums; fall back to a full comparison only if
    /// the checksums still disagree.
    RecentList {
        /// Window `τ`: must exceed the expected update distribution time.
        tau: u64,
    },
    /// *Peel back*: walk both databases in reverse timestamp order,
    /// shipping entries until the checksums agree. Nearly ideal traffic,
    /// at the price of the timestamp-inverted index. Inherently
    /// bidirectional: the configured [`Direction`] is ignored.
    PeelBack,
}

/// Traffic and work accounting for one anti-entropy conversation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExchangeStats {
    /// Entries transmitted initiator → partner.
    pub sent_ab: usize,
    /// Entries transmitted partner → initiator.
    pub sent_ba: usize,
    /// Checksum values exchanged/compared.
    pub checksum_exchanges: usize,
    /// Whether a full database comparison was needed.
    pub full_compare: bool,
    /// Entries examined while diffing (work, not network traffic).
    pub entries_scanned: usize,
    /// Dormant death certificates awakened by obsolete incoming data.
    pub awakened: usize,
}

impl ExchangeStats {
    /// Whether any update had to be sent in either direction — the
    /// "Update Traffic" event counted in Tables 4 and 5.
    pub fn update_flowed(&self) -> bool {
        self.sent_ab + self.sent_ba > 0
    }

    /// Total entries transmitted.
    pub fn total_sent(&self) -> usize {
        self.sent_ab + self.sent_ba
    }
}

/// The anti-entropy protocol: a [`Direction`] plus a [`Comparison`].
///
/// # Example
///
/// ```
/// use epidemic_core::{AntiEntropy, Comparison, Direction, Replica};
/// use epidemic_db::SiteId;
///
/// let ae = AntiEntropy::new(Direction::Pull, Comparison::Full);
/// let mut a = Replica::new(SiteId::new(0));
/// let mut b = Replica::new(SiteId::new(1));
/// b.client_update("k", 9);
/// ae.exchange(&mut a, &mut b); // a pulls from b
/// assert_eq!(a.db().get(&"k"), Some(&9));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AntiEntropy {
    direction: Direction,
    comparison: Comparison,
}

impl AntiEntropy {
    /// Creates an anti-entropy protocol configuration.
    pub const fn new(direction: Direction, comparison: Comparison) -> Self {
        AntiEntropy {
            direction,
            comparison,
        }
    }

    /// Performs `ResolveDifference[a, b]` (§1.3): one conversation between
    /// the initiator `a` and partner `b`. Both replicas end up consistent
    /// on every key a transfer direction allows.
    pub fn exchange<K, V>(&self, a: &mut Replica<K, V>, b: &mut Replica<K, V>) -> ExchangeStats
    where
        K: Ord + Clone + Hash + Eq,
        V: Clone + Hash + Eq,
    {
        self.exchange_with(a, b, &mut ExchangeScratch::new())
    }

    /// As [`AntiEntropy::exchange`], reusing the caller's
    /// [`ExchangeScratch`] buffers. Steady-state drivers thread one scratch
    /// through every conversation so diff buffers and peel-back snapshots
    /// stop allocating per contact. Statistics and database outcomes are
    /// identical to `exchange`.
    pub fn exchange_with<K, V>(
        &self,
        a: &mut Replica<K, V>,
        b: &mut Replica<K, V>,
        scratch: &mut ExchangeScratch<K>,
    ) -> ExchangeStats
    where
        K: Ord + Clone + Hash + Eq,
        V: Clone + Hash + Eq,
    {
        let mut stats = ExchangeStats::default();
        scratch.landed.iter_mut().for_each(Vec::clear);
        let direction = self.direction;
        match self.comparison {
            Comparison::Full => full_resolve(direction, a, b, scratch, &mut stats, offer_quietly),
            Comparison::Checksum | Comparison::RecentList { .. } => {
                if let Comparison::RecentList { tau } = self.comparison {
                    exchange_recent(direction, a, b, tau, scratch, &mut stats);
                }
                stats.checksum_exchanges += 1;
                if a.db().checksum() != b.db().checksum() {
                    full_resolve(direction, a, b, scratch, &mut stats, offer_quietly);
                }
            }
            Comparison::PeelBack => peel_back(a, b, scratch, &mut stats),
        }
        stats
    }
}

/// Accounts for one delivered entry, whatever the delivery: an applied
/// offer lands `key` at the receiver, an awakened dormant certificate is
/// counted, a redundant offer changes nothing.
pub(crate) fn count_delivery<K: Clone>(
    outcome: OfferOutcome,
    key: &K,
    landed: &mut Vec<K>,
    stats: &mut ExchangeStats,
) {
    match outcome {
        OfferOutcome::Applied => landed.push(key.clone()),
        OfferOutcome::AwakenedDormant => stats.awakened += 1,
        OfferOutcome::AlreadyKnown | OfferOutcome::Obsolete => {}
    }
}

/// Offers the sender's entry quietly, by reference, and accounts for the
/// delivery: the receiver clones the entry only if the offer changes its
/// state.
fn offer_counted_ref<K, V>(
    to: &mut Replica<K, V>,
    key: &K,
    entry: &Entry<V>,
    landed: &mut Vec<K>,
    stats: &mut ExchangeStats,
) where
    K: Ord + Clone + Hash + Eq,
    V: Clone + Hash + Eq,
{
    count_delivery(to.receive_quietly_ref(key, entry), key, landed, stats);
}

/// §1.3's delivery of a listed key: the sender's entry is offered quietly,
/// by reference, so the receiver clones it only if the offer changes its
/// state.
fn offer_quietly<K, V>(to: &mut Replica<K, V>, from: &mut Replica<K, V>, key: &K) -> OfferOutcome
where
    K: Ord + Clone + Hash + Eq,
    V: Clone + Hash + Eq,
{
    to.receive_quietly_ref(key, from.db().entry(key).expect("listed by the diff"))
}

/// Lists the keys of the two one-way diffs between replicas into
/// caller-provided buffers (cleared first, so a reused scratch keeps its
/// capacity across conversations): keys `a` holds strictly newer than `b`
/// (or that `b` lacks), and vice versa. Keys are listed only for the
/// directions `direction` allows to flow. Returns the number of entries
/// scanned.
fn diff_into<K, V>(
    direction: Direction,
    a: &Replica<K, V>,
    b: &Replica<K, V>,
    a_to_b: &mut Vec<K>,
    b_to_a: &mut Vec<K>,
) -> usize
where
    K: Ord + Clone + Hash + Eq,
    V: Clone + Hash,
{
    a_to_b.clear();
    b_to_a.clear();
    let mut scanned = 0;
    let mut ia = a.db().iter().peekable();
    let mut ib = b.db().iter().peekable();
    loop {
        match (ia.peek(), ib.peek()) {
            (None, None) => break,
            (Some((ka, _)), None) => {
                if direction.pushes() {
                    a_to_b.push((*ka).clone());
                }
                ia.next();
            }
            (None, Some((kb, _))) => {
                if direction.pulls() {
                    b_to_a.push((*kb).clone());
                }
                ib.next();
            }
            (Some((ka, ea)), Some((kb, eb))) => {
                use std::cmp::Ordering;
                match ka.cmp(kb) {
                    Ordering::Less => {
                        if direction.pushes() {
                            a_to_b.push((*ka).clone());
                        }
                        ia.next();
                    }
                    Ordering::Greater => {
                        if direction.pulls() {
                            b_to_a.push((*kb).clone());
                        }
                        ib.next();
                    }
                    Ordering::Equal => {
                        if ea.timestamp() > eb.timestamp() {
                            if direction.pushes() {
                                a_to_b.push((*ka).clone());
                            }
                        } else if eb.timestamp() > ea.timestamp() && direction.pulls() {
                            b_to_a.push((*kb).clone());
                        }
                        ia.next();
                        ib.next();
                    }
                }
            }
        }
        // Counted after the terminal check so diffing two empty databases
        // reports zero entries scanned.
        scanned += 1;
    }
    scanned
}

/// Complete database comparison and resolution (§1.3's basic algorithm),
/// the one diff-and-deliver loop: every `a → b` key, then every `b → a`
/// key, is handed to `deliver(receiver, sender, key)` as it comes, and the
/// outcome is counted by [`count_delivery`]. Anti-entropy delivers with
/// [`offer_quietly`]; the §1.5 backup brings its redistribution.
///
/// Looking the `b → a` entries up after the `a → b` deliveries have
/// changed `b` is sound because the two key lists are disjoint.
pub(crate) fn full_resolve<K, V>(
    direction: Direction,
    a: &mut Replica<K, V>,
    b: &mut Replica<K, V>,
    scratch: &mut ExchangeScratch<K>,
    stats: &mut ExchangeStats,
    mut deliver: impl FnMut(&mut Replica<K, V>, &mut Replica<K, V>, &K) -> OfferOutcome,
) where
    K: Ord + Clone + Hash + Eq,
    V: Clone + Hash + Eq,
{
    stats.full_compare = true;
    stats.entries_scanned += diff_into(direction, a, b, &mut scratch.a_to_b, &mut scratch.b_to_a);
    let [landed_a, landed_b] = &mut scratch.landed;
    for k in &scratch.a_to_b {
        stats.sent_ab += 1;
        count_delivery(deliver(b, a, k), k, landed_b, stats);
    }
    for k in &scratch.b_to_a {
        stats.sent_ba += 1;
        count_delivery(deliver(a, b, k), k, landed_a, stats);
    }
}

/// Exchanges recent-update lists (§1.3's refined checksum scheme).
///
/// Both lists are walked straight off the peel-back order, and only as far
/// as the two databases differ ([`walk_recent`]): every listed entry still
/// counts as wire traffic (`sent_ab`/`sent_ba` — the sender cannot know
/// what the receiver holds), but already-known updates are rejected by the
/// lockstep walk, the checksum stop rule or the receiver's one
/// [`offer_ref`](Database::offer_ref) probe, which clones only what it
/// accepts. The pull-direction list is read after push-direction offers
/// complete, exactly as the snapshot version did.
fn exchange_recent<K, V>(
    direction: Direction,
    a: &mut Replica<K, V>,
    b: &mut Replica<K, V>,
    tau: u64,
    scratch: &mut ExchangeScratch<K>,
    stats: &mut ExchangeStats,
) where
    K: Ord + Clone + Hash + Eq,
    V: Clone + Hash + Eq,
{
    let [landed_a, landed_b] = &mut scratch.landed;
    if direction.pushes() {
        stats.sent_ab += offer_recent(a, b, tau, &mut scratch.recent, landed_b, stats);
    }
    if direction.pulls() {
        stats.sent_ba += offer_recent(b, a, tau, &mut scratch.recent, landed_a, stats);
    }
}

/// One direction of the recent-list exchange. Returns the number of
/// entries listed (each is wire traffic whether or not it is accepted).
///
/// The offers [`walk_recent`] could not rule out are deferred into
/// `pending` as sender ranks (offers touch distinct keys, and a rejected
/// one changes nothing, so deferral cannot change any outcome) because the
/// receiver cannot be mutated while its rows are being walked.
fn offer_recent<K, V>(
    from: &mut Replica<K, V>,
    to: &mut Replica<K, V>,
    tau: u64,
    pending: &mut Vec<u32>,
    landed: &mut Vec<K>,
    stats: &mut ExchangeStats,
) -> usize
where
    K: Ord + Clone + Hash + Eq,
    V: Clone + Hash + Eq,
{
    let now = from.local_time();
    let listed = from.db_mut().recent_len(now, tau);
    walk_recent(from.db(), to.db(), listed, pending);
    debug_assert!(
        is_the_long_walk(from.db(), to.db(), now, tau, listed, pending),
        "the early-stopped recent-list walk must equal the entry-by-entry one"
    );
    for &rank in pending.iter() {
        let (k, e) = from.db().nth_newest(rank as usize).expect("a listed rank");
        offer_counted_ref(to, k, e, landed, stats);
    }
    listed
}

/// Walks the sender's `listed` newest rows (its recent list) against the
/// receiver, replacing `pending` with the ranks of those the walk cannot
/// prove the receiver holds; returns the rows it visited.
///
/// The receiver's rows are walked in lockstep: both sides run in
/// descending `(timestamp, key)` order, so an exactly-matching row proves
/// the receiver already holds that version and the offer is dropped with
/// no map probe at all.
///
/// **Stop rule.** Two remainder checksums start at both sides' maintained
/// [`Checksum`](epidemic_db::Checksum)s, and every row the walk passes —
/// each listed sender entry, each receiver row the lockstep consumes — is
/// toggled out of its side's remainder. Before each sender entry the rows
/// neither walk has reached are, on both sides, exactly those ordered
/// below the last entry visited; once the two remainders agree those rows
/// are the same set (up to the 64-bit collision the §1.3 checksum
/// comparison after the exchange already assumes), so every entry still to
/// be listed is held by the receiver. The walk stops there. It keeps only
/// the remainders' difference (their XOR): a row both sides hold equal
/// toggles the same digest out of both, so only rows one side lacks or
/// holds differently are hashed.
///
/// Both shortcuts stand aside while the receiver parks dormant death
/// certificates, which make an offer mutate state even for an
/// already-held timestamp.
fn walk_recent<K, V>(
    from: &Database<K, V>,
    to: &Database<K, V>,
    listed: usize,
    pending: &mut Vec<u32>,
) -> usize
where
    K: Ord + Clone + Hash,
    V: Hash + Eq,
{
    pending.clear();
    if to.dormant_len() > 0 {
        pending.extend(0..listed as u32);
        return listed;
    }
    let digest = |k, e| Checksum::digest(&(k, e));
    let mut diff = from.checksum().value() ^ to.checksum().value();
    // The two remainders themselves, which debug builds check the
    // difference against.
    #[cfg(debug_assertions)]
    let (mut from_rest, mut to_rest) = (from.checksum(), to.checksum());
    let mut rx = to.newest_first().peekable();
    for (rank, (k, e)) in (0..).zip(from.newest_first().take(listed)) {
        #[cfg(debug_assertions)]
        debug_assert_eq!(diff, from_rest.value() ^ to_rest.value(), "remainders");
        if diff == 0 {
            return rank as usize;
        }
        #[cfg(debug_assertions)]
        from_rest.toggle(&(k, e));
        let t = e.timestamp();
        let mut held = None;
        while let Some(&(rk, re)) = rx.peek() {
            let row = (re.timestamp(), rk);
            if row < (t, k) {
                break;
            }
            rx.next();
            #[cfg(debug_assertions)]
            to_rest.toggle(&(rk, re));
            if row == (t, k) {
                held = Some(re);
                break;
            }
            diff ^= digest(rk, re);
        }
        match held {
            // Toggled out of both remainders, equal rows cancel.
            Some(re) if re == e => {}
            Some(re) => diff ^= digest(k, e) ^ digest(k, re),
            None => {
                diff ^= digest(k, e);
                pending.push(rank);
            }
        }
    }
    listed
}

/// Whether `listed` and `pending` agree with listing every recent entry
/// and asking the receiver's `would_accept` about each one — the
/// definition both of [`walk_recent`]'s shortcuts must reproduce:
/// `pending` holds distinct listed ranks, ascending, and the offers among
/// them the receiver would accept are exactly the long walk's. Debug
/// builds check every walk against it.
fn is_the_long_walk<K, V>(
    from: &Database<K, V>,
    to: &Database<K, V>,
    now: u64,
    tau: u64,
    listed: usize,
    pending: &[u32],
) -> bool
where
    K: Ord + Clone + Hash,
    V: Hash,
{
    let accepted = |&(t, k): &(Timestamp, &K)| to.would_accept(k, t);
    listed == from.recent_index(now, tau).count()
        && pending.windows(2).all(|w| w[0] < w[1])
        && pending.last().is_none_or(|&r| (r as usize) < listed)
        && pending
            .iter()
            .filter_map(|&r| from.nth_newest(r as usize))
            .map(|(k, e)| (e.timestamp(), k))
            .filter(accepted)
            .eq(from.recent_index(now, tau).filter(accepted))
}

/// Peel back (§1.3): ship entries in reverse timestamp order until the
/// checksums agree. Always bidirectional.
fn peel_back<K, V>(
    a: &mut Replica<K, V>,
    b: &mut Replica<K, V>,
    scratch: &mut ExchangeScratch<K>,
    stats: &mut ExchangeStats,
) where
    K: Ord + Clone + Hash + Eq,
    V: Clone + Hash + Eq,
{
    stats.checksum_exchanges += 1;
    if a.db().checksum() == b.db().checksum() {
        return;
    }
    // Snapshot both sides' (timestamp, key) indexes into the reused
    // scratch buffers, newest first, and walk the merged order. Key
    // snapshots are needed (not borrows) because transfers install entries
    // on both sides while the walk is in progress.
    scratch.peel_a.clear();
    scratch.peel_b.clear();
    scratch.peel_a.extend(
        a.db()
            .newest_first()
            .map(|(k, e)| (e.timestamp(), k.clone())),
    );
    scratch.peel_b.extend(
        b.db()
            .newest_first()
            .map(|(k, e)| (e.timestamp(), k.clone())),
    );
    let (av, bv) = (&scratch.peel_a, &scratch.peel_b);
    let (mut i, mut j) = (0, 0);
    while i < av.len() || j < bv.len() {
        // Pick the globally newest unprocessed record.
        let take_a = match (av.get(i), bv.get(j)) {
            (Some(x), Some(y)) => x.0 >= y.0,
            (Some(_), None) => true,
            _ => false,
        };
        let key: &K = if take_a {
            let k = &av[i].1;
            i += 1;
            k
        } else {
            let k = &bv[j].1;
            j += 1;
            k
        };
        stats.entries_scanned += 1;
        // Resolve this key against *current* state (an earlier transfer may
        // have already reconciled it).
        let ta = a.db().entry(key).map(Entry::timestamp);
        let tb = b.db().entry(key).map(Entry::timestamp);
        if ta > tb {
            let entry = a.db().entry(key).expect("ta is Some");
            stats.sent_ab += 1;
            offer_counted_ref(b, key, entry, &mut scratch.landed[1], stats);
        } else if tb > ta {
            let entry = b.db().entry(key).expect("tb is Some");
            stats.sent_ba += 1;
            offer_counted_ref(a, key, entry, &mut scratch.landed[0], stats);
        }
        stats.checksum_exchanges += 1;
        if a.db().checksum() == b.db().checksum() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epidemic_db::SiteId;

    fn pair() -> (Replica<&'static str, u32>, Replica<&'static str, u32>) {
        (Replica::new(SiteId::new(0)), Replica::new(SiteId::new(1)))
    }

    #[test]
    fn push_pull_converges_disjoint_databases() {
        let (mut a, mut b) = pair();
        a.client_update("x", 1);
        b.client_update("y", 2);
        let ae = AntiEntropy::new(Direction::PushPull, Comparison::Full);
        let stats = ae.exchange(&mut a, &mut b);
        assert_eq!(a.db(), b.db());
        assert_eq!(stats.sent_ab, 1);
        assert_eq!(stats.sent_ba, 1);
        assert!(stats.update_flowed());
    }

    #[test]
    fn diffing_empty_databases_scans_nothing() {
        let (mut a, mut b) = pair();
        let ae = AntiEntropy::new(Direction::PushPull, Comparison::Full);
        let stats = ae.exchange(&mut a, &mut b);
        assert_eq!(stats.entries_scanned, 0, "no entries exist to examine");
        assert_eq!(stats.total_sent(), 0);
    }

    #[test]
    fn scan_count_equals_merged_entry_walk() {
        let (mut a, mut b) = pair();
        a.client_update("x", 1);
        b.client_update("y", 2);
        b.client_update("z", 3);
        let ae = AntiEntropy::new(Direction::PushPull, Comparison::Full);
        let stats = ae.exchange(&mut a, &mut b);
        assert_eq!(stats.entries_scanned, 3, "one step per distinct key");
    }

    #[test]
    fn push_only_moves_data_one_way() {
        let (mut a, mut b) = pair();
        a.client_update("x", 1);
        b.client_update("y", 2);
        let ae = AntiEntropy::new(Direction::Push, Comparison::Full);
        ae.exchange(&mut a, &mut b);
        assert_eq!(b.db().get(&"x"), Some(&1));
        assert_eq!(a.db().get(&"y"), None);
    }

    #[test]
    fn pull_only_moves_data_the_other_way() {
        let (mut a, mut b) = pair();
        a.client_update("x", 1);
        b.client_update("y", 2);
        let ae = AntiEntropy::new(Direction::Pull, Comparison::Full);
        ae.exchange(&mut a, &mut b);
        assert_eq!(a.db().get(&"y"), Some(&2));
        assert_eq!(b.db().get(&"x"), None);
    }

    #[test]
    fn newer_timestamp_wins_on_conflict() {
        let (mut a, mut b) = pair();
        a.client_update("k", 1);
        b.advance_clock(100);
        b.client_update("k", 2);
        let ae = AntiEntropy::new(Direction::PushPull, Comparison::Full);
        ae.exchange(&mut a, &mut b);
        assert_eq!(a.db().get(&"k"), Some(&2));
        assert_eq!(b.db().get(&"k"), Some(&2));
    }

    #[test]
    fn checksum_short_circuits_identical_databases() {
        let (mut a, mut b) = pair();
        a.client_update("k", 1);
        let ae_full = AntiEntropy::new(Direction::PushPull, Comparison::Full);
        ae_full.exchange(&mut a, &mut b);
        let ae = AntiEntropy::new(Direction::PushPull, Comparison::Checksum);
        let stats = ae.exchange(&mut a, &mut b);
        assert_eq!(stats.checksum_exchanges, 1);
        assert!(!stats.full_compare);
        assert_eq!(stats.total_sent(), 0);
    }

    #[test]
    fn checksum_falls_back_to_full_compare() {
        let (mut a, mut b) = pair();
        a.client_update("k", 1);
        let ae = AntiEntropy::new(Direction::PushPull, Comparison::Checksum);
        let stats = ae.exchange(&mut a, &mut b);
        assert!(stats.full_compare);
        assert_eq!(a.db(), b.db());
    }

    #[test]
    fn recent_list_avoids_full_compare_for_fresh_updates() {
        let (mut a, mut b) = pair();
        // Shared old state.
        a.client_update("base", 0);
        AntiEntropy::new(Direction::PushPull, Comparison::Full).exchange(&mut a, &mut b);
        // One fresh update at a, well within the window.
        a.advance_clock(100);
        b.advance_clock(100);
        a.client_update("fresh", 1);
        let ae = AntiEntropy::new(Direction::PushPull, Comparison::RecentList { tau: 50 });
        let stats = ae.exchange(&mut a, &mut b);
        assert!(!stats.full_compare, "recent list should reconcile alone");
        assert_eq!(b.db().get(&"fresh"), Some(&1));
        assert_eq!(a.db(), b.db());
    }

    #[test]
    fn recent_list_falls_back_when_window_too_small() {
        let (mut a, mut b) = pair();
        a.client_update("old", 1); // t = 1
        a.advance_clock(1_000);
        b.advance_clock(1_000);
        let ae = AntiEntropy::new(Direction::PushPull, Comparison::RecentList { tau: 5 });
        let stats = ae.exchange(&mut a, &mut b);
        assert!(stats.full_compare, "stale diff is beyond the window");
        assert_eq!(a.db(), b.db());
    }

    /// Two replicas that hold the same `keys` keys, written at the first.
    fn converged(keys: u32) -> (Replica<u32, u64>, Replica<u32, u64>) {
        let mut a = Replica::new(SiteId::new(0));
        let mut b = Replica::new(SiteId::new(1));
        for key in 0..keys {
            a.client_update(key, u64::from(key));
        }
        AntiEntropy::new(Direction::PushPull, Comparison::Full).exchange(&mut a, &mut b);
        assert_eq!(a.db().checksum(), b.db().checksum());
        (a, b)
    }

    /// One direction's walk over a window covering the whole history,
    /// checked against the long walk and against the offers the receiver
    /// accepts among those deferred; returns the rows it visited.
    fn walk(from: &mut Replica<u32, u64>, to: &Replica<u32, u64>, accepted: &[u32]) -> usize {
        let (now, tau) = (from.local_time(), u64::MAX);
        let listed = from.db_mut().recent_len(now, tau);
        assert_eq!(listed, from.db().len());
        let (db, mut pending) = (from.db(), Vec::new());
        let visited = walk_recent(db, to.db(), listed, &mut pending);
        assert!(is_the_long_walk(db, to.db(), now, tau, listed, &pending));
        let offers = pending.iter().map(|&r| db.nth_newest(r as usize).unwrap());
        let offers: Vec<u32> = offers
            .filter(|(k, e)| to.db().would_accept(k, e.timestamp()))
            .map(|(k, _)| *k)
            .collect();
        assert_eq!(offers, accepted);
        visited
    }

    #[test]
    fn walk_stops_below_the_newest_difference() {
        let (mut a, b) = converged(1_000);
        a.client_update(1_000, 7);
        let visited = walk(&mut a, &b, &[1_000]);
        assert!(visited <= 2, "visited {visited}");
        // Equal databases stop before the first entry.
        assert_eq!(walk(&mut b.clone(), &b, &[]), 0);
    }

    #[test]
    fn walk_reaches_a_difference_at_the_oldest_entry() {
        let (mut a, _) = converged(1_000);
        let mut b = Replica::new(SiteId::new(1));
        for (k, e) in a.db().iter().filter(|(k, _)| **k != 0) {
            b.receive_quietly_ref(k, e);
        }
        assert_eq!(walk(&mut a, &b, &[0]), 1_000, "every listed row is visited");
    }

    #[test]
    fn walk_never_stops_early_for_a_receiver_with_dormant_certificates() {
        let (mut a, mut b) = converged(100);
        a.client_delete_with_retention(&5, vec![b.site()]);
        AntiEntropy::new(Direction::PushPull, Comparison::Full).exchange(&mut a, &mut b);
        for r in [&mut a, &mut b] {
            r.advance_clock(1_000);
            r.collect_garbage(epidemic_db::GcPolicy::Dormant {
                tau1: 10,
                tau2: 10_000,
            });
        }
        assert_eq!((a.db().dormant_len(), b.db().dormant_len()), (0, 1));
        assert_eq!(a.db().checksum(), b.db().checksum());
        assert_eq!(walk(&mut a, &b, &[]), a.db().len());
    }

    #[test]
    fn walk_passes_receiver_rows_newer_than_the_window_and_stops() {
        let (mut a, mut b) = converged(100);
        a.client_update(100, 1);
        b.advance_clock(a.local_time() + 10);
        for key in 101..104 {
            b.client_update(key, 2);
        }
        let visited = walk(&mut a, &b, &[100]);
        assert!(visited <= 2, "visited {visited}");
    }

    #[test]
    fn peel_back_converges_and_stops_early() {
        let (mut a, mut b) = pair();
        // Large shared prefix.
        for i in 0..50u32 {
            a.client_update(
                Box::leak(format!("k{i}").into_boxed_str()) as &'static str,
                i,
            );
        }
        AntiEntropy::new(Direction::PushPull, Comparison::Full).exchange(&mut a, &mut b);
        // One fresh divergent update.
        a.advance_clock(10_000);
        b.advance_clock(10_000);
        a.client_update("fresh", 99);
        let ae = AntiEntropy::new(Direction::PushPull, Comparison::PeelBack);
        let stats = ae.exchange(&mut a, &mut b);
        assert_eq!(a.db(), b.db());
        assert_eq!(stats.total_sent(), 1, "only the divergent entry ships");
        assert!(stats.entries_scanned <= 3, "peel back stops near the top");
    }

    #[test]
    fn peel_back_identical_databases_costs_one_checksum() {
        let (mut a, mut b) = pair();
        a.client_update("k", 1);
        AntiEntropy::new(Direction::PushPull, Comparison::Full).exchange(&mut a, &mut b);
        let stats =
            AntiEntropy::new(Direction::PushPull, Comparison::PeelBack).exchange(&mut a, &mut b);
        assert_eq!(stats.checksum_exchanges, 1);
        assert_eq!(stats.total_sent(), 0);
    }

    #[test]
    fn peel_back_handles_disjoint_databases() {
        let (mut a, mut b) = pair();
        a.client_update("x", 1);
        b.client_update("y", 2);
        b.client_update("z", 3);
        let stats =
            AntiEntropy::new(Direction::PushPull, Comparison::PeelBack).exchange(&mut a, &mut b);
        assert_eq!(a.db(), b.db());
        assert_eq!(stats.total_sent(), 3);
    }

    #[test]
    fn death_certificates_propagate_and_cancel() {
        let (mut a, mut b) = pair();
        a.client_update("k", 1);
        AntiEntropy::new(Direction::PushPull, Comparison::Full).exchange(&mut a, &mut b);
        a.client_delete(&"k");
        AntiEntropy::new(Direction::PushPull, Comparison::Full).exchange(&mut a, &mut b);
        assert_eq!(b.db().get(&"k"), None);
        assert!(b.db().entry(&"k").is_some_and(Entry::is_dead));
    }

    #[test]
    fn exchange_with_reused_scratch_matches_exchange() {
        // One scratch threaded through all four strategies in sequence, so
        // buffers left over from one conversation feed the next — results
        // must be indistinguishable from throwaway-scratch exchanges.
        let mut scratch = ExchangeScratch::new();
        for comparison in [
            Comparison::Full,
            Comparison::Checksum,
            Comparison::RecentList { tau: 1_000 },
            Comparison::PeelBack,
        ] {
            let build = || {
                let (mut a, mut b) = pair();
                a.client_update("x", 1);
                b.client_update("y", 2);
                b.client_update("z", 3);
                (a, b)
            };
            let (mut a1, mut b1) = build();
            let (mut a2, mut b2) = build();
            let ae = AntiEntropy::new(Direction::PushPull, comparison);
            let fresh = ae.exchange(&mut a1, &mut b1);
            let reused = ae.exchange_with(&mut a2, &mut b2, &mut scratch);
            assert_eq!(fresh, reused, "{comparison:?}");
            assert_eq!(a1.db(), a2.db());
            assert_eq!(b1.db(), b2.db());
        }
    }

    #[test]
    fn deletion_without_certificate_would_resurrect() {
        // Demonstrates §2's motivation: dropping an entry outright lets
        // anti-entropy resurrect it.
        let (mut a, mut b) = pair();
        a.client_update("k", 1);
        AntiEntropy::new(Direction::PushPull, Comparison::Full).exchange(&mut a, &mut b);
        // "Delete" on a by garbage-collecting the entry with no certificate:
        // simulate via a fresh replica holding nothing.
        let mut naive = Replica::<&str, u32>::new(SiteId::new(2));
        AntiEntropy::new(Direction::PushPull, Comparison::Full).exchange(&mut naive, &mut b);
        assert_eq!(naive.db().get(&"k"), Some(&1), "the item comes back");
    }

    #[test]
    fn checksum_mode_respects_push_direction() {
        let (mut a, mut b) = pair();
        a.client_update("x", 1);
        b.client_update("y", 2);
        let ae = AntiEntropy::new(Direction::Push, Comparison::Checksum);
        let stats = ae.exchange(&mut a, &mut b);
        assert!(stats.full_compare);
        assert_eq!(b.db().get(&"x"), Some(&1));
        assert_eq!(a.db().get(&"y"), None, "push never pulls");
    }

    #[test]
    fn recent_list_mode_respects_pull_direction() {
        let (mut a, mut b) = pair();
        a.client_update("x", 1);
        b.client_update("y", 2);
        let ae = AntiEntropy::new(Direction::Pull, Comparison::RecentList { tau: 1_000 });
        ae.exchange(&mut a, &mut b);
        assert_eq!(a.db().get(&"y"), Some(&2));
        assert_eq!(b.db().get(&"x"), None, "pull never pushes");
    }

    #[test]
    fn one_way_exchanges_are_idempotent_per_direction() {
        let (mut a, mut b) = pair();
        a.client_update("x", 1);
        let push = AntiEntropy::new(Direction::Push, Comparison::Full);
        let first = push.exchange(&mut a, &mut b);
        let second = push.exchange(&mut a, &mut b);
        assert_eq!(first.sent_ab, 1);
        assert_eq!(second.sent_ab, 0, "nothing newer remains to send");
    }

    #[test]
    fn directions_say_which_way_data_flows() {
        assert!(Direction::Pull.pulls() && !Direction::Pull.pushes());
        assert!(Direction::PushPull.pulls() && Direction::PushPull.pushes());
    }
}
