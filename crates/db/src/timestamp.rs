//! Globally unique, totally ordered timestamps (paper §1.1).
//!
//! The paper's `Now[]` returns "a globally unique timestamp", ideally close
//! to real time. We model this with a `(time, site)` pair: ties on the time
//! component are broken by the originating site's identifier, so any two
//! timestamps produced anywhere in the system are comparable and distinct as
//! long as each site's clock is strictly monotonic — which [`SimClock`]
//! guarantees by construction.

use std::fmt;

/// Identifier of a database site (replica).
///
/// A thin newtype over `u32` so site indices, key hashes and tick counts
/// cannot be confused with one another.
///
/// # Example
///
/// ```
/// use epidemic_db::SiteId;
/// let s = SiteId::new(7);
/// assert_eq!(s.index(), 7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SiteId(u32);

impl SiteId {
    /// Creates a site identifier from its index.
    pub const fn new(index: u32) -> Self {
        SiteId(index)
    }

    /// Returns the underlying index.
    pub const fn index(self) -> u32 {
        self.0
    }

    /// Returns the index as a `usize`, convenient for slice indexing.
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl From<u32> for SiteId {
    fn from(index: u32) -> Self {
        SiteId(index)
    }
}

/// A globally unique, totally ordered timestamp.
///
/// Ordered lexicographically by `(time, site)`. The paper requires only that
/// "a pair with a larger timestamp will always supersede one with a smaller
/// timestamp" (§1.1); global uniqueness makes the supersession relation a
/// strict total order over updates.
///
/// # Example
///
/// ```
/// use epidemic_db::{SiteId, Timestamp};
/// let a = Timestamp::new(5, SiteId::new(1));
/// let b = Timestamp::new(5, SiteId::new(2));
/// assert!(a < b); // same tick, ties broken by site
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Timestamp {
    time: u64,
    site: SiteId,
}

impl Timestamp {
    /// The smallest possible timestamp; no real update ever carries it.
    pub(crate) const ZERO: Timestamp = Timestamp {
        time: 0,
        site: SiteId::new(0),
    };

    /// Creates a timestamp from a tick count and originating site.
    pub const fn new(time: u64, site: SiteId) -> Self {
        Timestamp { time, site }
    }

    /// The time component (simulated ticks).
    pub const fn time(self) -> u64 {
        self.time
    }

    /// Age of this timestamp relative to `now` in ticks, saturating at zero
    /// for timestamps that appear to be from the future (clock skew).
    pub const fn age(self, now: u64) -> u64 {
        now.saturating_sub(self.time)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.time, self.site)
    }
}

impl Default for Timestamp {
    fn default() -> Self {
        Timestamp::ZERO
    }
}

/// Deterministic simulated clock: the source of globally unique timestamps,
/// the paper's `Now[]` (§1.1).
///
/// Produces timestamps `(t, site)` with strictly increasing `t`, so it never
/// returns the same `(time, site)` pair twice. Each simulated site's local
/// clock is one of these.
///
/// # Example
///
/// ```
/// use epidemic_db::{SimClock, SiteId};
/// let mut c = SimClock::new(SiteId::new(3));
/// let a = c.now();
/// let b = c.now();
/// assert!(b > a);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SimClock {
    site: SiteId,
    time: u64,
}

impl SimClock {
    /// Creates a clock owned by `site`, starting at time 1.
    pub const fn new(site: SiteId) -> Self {
        SimClock { site, time: 1 }
    }

    /// Returns a fresh timestamp strictly greater than any previously
    /// returned by this clock.
    pub fn now(&mut self) -> Timestamp {
        let ts = Timestamp::new(self.time, self.site);
        self.time += 1;
        ts
    }

    /// Current reading of the time component without consuming a timestamp.
    pub const fn peek(&self) -> u64 {
        self.time
    }

    /// Advances the clock's time component to at least `time`.
    ///
    /// The simulator calls this once per cycle so that timestamp ages (used
    /// by recent-update lists and death-certificate thresholds) track
    /// simulated time.
    pub fn advance_to(&mut self, time: u64) {
        if time > self.time {
            self.time = time;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamps_order_by_time_then_site() {
        let a = Timestamp::new(1, SiteId::new(9));
        let b = Timestamp::new(2, SiteId::new(0));
        let c = Timestamp::new(2, SiteId::new(1));
        assert!(a < b);
        assert!(b < c);
        assert_eq!(b.max(c), c);
    }

    #[test]
    fn sim_clock_is_strictly_monotonic() {
        let mut c = SimClock::new(SiteId::new(0));
        let mut prev = c.now();
        for _ in 0..100 {
            let next = c.now();
            assert!(next > prev);
            prev = next;
        }
    }

    #[test]
    fn clocks_at_different_sites_never_collide() {
        let mut c0 = SimClock::new(SiteId::new(0));
        let mut c1 = SimClock::new(SiteId::new(1));
        let all: Vec<Timestamp> = (0..50).flat_map(|_| [c0.now(), c1.now()]).collect();
        let mut dedup = all.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len());
    }

    #[test]
    fn advance_to_never_goes_backwards() {
        let mut c = SimClock::new(SiteId::new(0));
        c.advance_to(10);
        assert_eq!(c.peek(), 10);
        c.advance_to(5);
        assert_eq!(c.peek(), 10);
        let ts = c.now();
        assert_eq!(ts.time(), 10);
        assert_eq!(c.peek(), 11);
    }

    #[test]
    fn age_saturates_for_future_timestamps() {
        let ts = Timestamp::new(100, SiteId::new(0));
        assert_eq!(ts.age(150), 50);
        assert_eq!(ts.age(50), 0);
    }

    #[test]
    fn display_formats() {
        let ts = Timestamp::new(42, SiteId::new(7));
        assert_eq!(ts.to_string(), "42@s7");
        assert_eq!(SiteId::new(3).to_string(), "s3");
    }
}
