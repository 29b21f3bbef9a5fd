//! Incremental database checksums (paper §1.3).
//!
//! "Each site maintains a checksum of its database contents, recomputing the
//! checksum incrementally as the database is updated." We realize this with
//! an order-independent XOR of per-entry digests ([`Checksum::digest`]):
//! inserting or removing an entry toggles its digest in or out in `O(1)`,
//! and two databases have equal checksums whenever they hold equal
//! `(key, entry)` sets (up to the vanishingly small probability of a 64-bit
//! collision). The same XOR lets a walk peel entries *out* of a checksum:
//! what remains is the checksum of the entries not yet visited.
//!
//! The digest is hand-rolled rather than `DefaultHasher` so that two
//! *different* simulated sites — in any process, on any platform — agree on
//! the digest of an identical entry. It is word-at-a-time: every integer the
//! entry's `Hash` impl writes is one word, XORed into the state, multiplied
//! by an odd 64-bit constant, and the 128-bit product's halves folded
//! together; byte strings go in as their length and then little-endian
//! 8-byte words. A 64-bit finalizer spreads the last word over every bit,
//! so digests XORed together stay uniformly spread. Words are hashed by
//! value, never as native-endian bytes, so a big-endian host digests every
//! entry exactly as a little-endian one does.

use std::fmt;
use std::hash::{Hash, Hasher};

/// An order-independent checksum over a set of hashable items.
///
/// # Example
///
/// ```
/// use epidemic_db::Checksum;
/// let mut a = Checksum::new();
/// let mut b = Checksum::new();
/// a.toggle(&("k1", 10));
/// a.toggle(&("k2", 20));
/// b.toggle(&("k2", 20));
/// b.toggle(&("k1", 10));
/// assert_eq!(a, b); // insertion order is irrelevant
/// a.toggle(&("k1", 10)); // toggling again removes the item
/// assert_ne!(a, b);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Checksum(u64);

impl Checksum {
    /// The checksum of an empty database.
    pub const fn new() -> Self {
        Checksum(0)
    }

    /// The digest of one item: what [`Checksum::toggle`] XORs in or out.
    /// A checksum is the XOR of its items' digests and nothing else.
    pub fn digest<T: Hash + ?Sized>(item: &T) -> u64 {
        let mut hasher = WordHasher(SEED);
        item.hash(&mut hasher);
        hasher.finish()
    }

    /// Adds or removes an item. Because the combination is XOR, toggling
    /// the same item twice restores the previous checksum; replacing an
    /// entry is `toggle(old); toggle(new)`.
    pub fn toggle<T: Hash + ?Sized>(&mut self, item: &T) {
        self.0 ^= Checksum::digest(item);
    }

    /// The raw 64-bit digest.
    pub const fn value(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Checksum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl fmt::LowerHex for Checksum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

/// The state every digest starts from (the fractional digits of π).
const SEED: u64 = 0x243f_6a88_85a3_08d3;
/// The odd multiplier of each word step (the 64-bit golden ratio).
const MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// The word-at-a-time [`Hasher`] behind [`Checksum::digest`]; see the
/// module docs.
struct WordHasher(u64);

impl WordHasher {
    /// Folds one word into the state: XOR, multiply, fold the 128-bit
    /// product's halves together.
    fn word(&mut self, word: u64) {
        let product = u128::from(self.0 ^ word) * u128::from(MUL);
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }
}

impl Hasher for WordHasher {
    /// MurmurHash3's 64-bit finalizer over the state.
    fn finish(&self) -> u64 {
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }

    fn write(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.word(u64::from(i));
    }

    fn write_u16(&mut self, i: u16) {
        self.word(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.word(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.word(i);
    }

    fn write_u128(&mut self, i: u128) {
        self.word(i as u64);
        self.word((i >> 64) as u64);
    }

    fn write_usize(&mut self, i: usize) {
        self.word(i as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::Entry;
    use crate::timestamp::{SiteId, Timestamp};

    #[test]
    fn empty_checksums_are_equal() {
        assert_eq!(Checksum::new(), Checksum::default());
        assert_eq!(Checksum::new().value(), 0);
    }

    #[test]
    fn toggle_twice_is_identity() {
        let mut c = Checksum::new();
        let before = c;
        c.toggle("hello");
        assert_ne!(c, before);
        c.toggle("hello");
        assert_eq!(c, before);
    }

    #[test]
    fn order_independent() {
        let items = ["a", "b", "c", "d"];
        let mut fwd = Checksum::new();
        let mut rev = Checksum::new();
        for i in &items {
            fwd.toggle(i);
        }
        for i in items.iter().rev() {
            rev.toggle(i);
        }
        assert_eq!(fwd, rev);
    }

    /// The digest of a store row is part of the format two sites compare:
    /// changing it must be a deliberate act that updates this constant.
    #[test]
    fn row_digest_is_pinned() {
        let row = (
            7u32,
            Entry::live(42u64, Timestamp::new(1_000, SiteId::new(3))),
        );
        assert_eq!(Checksum::digest(&row), 0x8ea8_9e5b_d4b2_8337);
    }

    /// Every integer is one word, whatever its width: a store of `u32`
    /// values digests, and so compares, exactly like one of `u64` values
    /// holding the same numbers — live entries and certificates alike.
    #[test]
    fn value_width_does_not_change_a_row_digest() {
        let at = Timestamp::new(1_000, SiteId::new(3));
        for value in [0u32, 42, u32::MAX] {
            assert_eq!(
                Checksum::digest(&(7u32, Entry::live(value, at))),
                Checksum::digest(&(7u32, Entry::live(u64::from(value), at)))
            );
        }
        assert_eq!(
            Checksum::digest(&(7u32, Entry::<u32>::dead(at))),
            Checksum::digest(&(7u32, Entry::<u64>::dead(at)))
        );
    }

    #[test]
    fn byte_strings_are_length_delimited() {
        // Zero padding of the last word must not make these equal.
        assert_ne!(Checksum::digest(&b"a"[..]), Checksum::digest(&b"a\0"[..]));
        assert_ne!(Checksum::digest("ab"), Checksum::digest(&("a", "b")));
    }

    #[test]
    fn distinct_entries_rarely_collide() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(Checksum::digest(&i)), "collision at {i}");
        }
    }

    #[test]
    fn display_is_fixed_width_hex() {
        let mut c = Checksum::new();
        c.toggle(&1u8);
        assert_eq!(c.to_string().len(), 16);
    }
}
