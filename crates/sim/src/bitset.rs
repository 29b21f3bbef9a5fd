//! A packed fixed-length bitset for per-site infection state.
//!
//! The synchronous protocols snapshot one bit per site at the start of
//! every cycle (`state0`, `hot0`). As `Vec<bool>` those snapshots cost a
//! byte per site; at the `fig-megascale` scale of 10⁶ sites that is a
//! megabyte re-touched every cycle. Packed
//! into `u64` words the same snapshot is 64× smaller, sits in a handful of
//! cache lines for CIN-scale runs, and copies word-at-a-time.

/// A fixed-length bitset backed by `u64` words.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// A set of `len` bits, all false.
    pub fn new(len: usize) -> Self {
        BitSet {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Number of bits.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The bit at `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len` (same contract as slice indexing).
    pub(crate) fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range (len {})", self.len);
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Sets the bit at `i` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit {i} out of range (len {})", self.len);
        let mask = 1 << (i % 64);
        if value {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Makes this a set of `len` bits, all false, keeping the word
    /// vector's capacity — [`BitSet::new`] for a set that is reused.
    pub(crate) fn reset(&mut self, len: usize) {
        self.words.clear();
        self.words.resize(len.div_ceil(64), 0);
        self.len = len;
    }

    /// Lengthens the set to at least `len` bits, the new ones false,
    /// keeping every bit it holds.
    pub(crate) fn grow(&mut self, len: usize) {
        if len > self.len {
            self.words.resize(len.div_ceil(64), 0);
            self.len = len;
        }
    }

    /// Copies `other` into this set word-at-a-time without reallocating —
    /// the bitset-to-bitset start-of-cycle snapshot operation (a derived
    /// `clone` would allocate a fresh word vector every cycle).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub(crate) fn copy_from(&mut self, other: &BitSet) {
        assert_eq!(other.len, self.len, "snapshot length mismatch");
        self.words.copy_from_slice(&other.words);
    }

    /// Number of set bits.
    pub(crate) fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Visits the set bits in ascending order and clears each one `keep`
    /// rejects — [`BitSet::iter_ones`] for a caller that updates the bits
    /// it visits. Cost is proportional to `words + ones`.
    pub(crate) fn retain_ones(&mut self, mut keep: impl FnMut(usize) -> bool) {
        for (w, word) in self.words.iter_mut().enumerate() {
            let mut bits = *word;
            while bits != 0 {
                let lowest = bits & bits.wrapping_neg();
                if !keep(w * 64 + lowest.trailing_zeros() as usize) {
                    *word &= !lowest;
                }
                bits ^= lowest;
            }
        }
    }

    /// Indices of the set bits, ascending.
    ///
    /// Cost is proportional to `words + ones`, not to `len` — a word of
    /// 64 clear bits is skipped in one comparison. This is what lets the
    /// active-set contact loop pay for the infective sites it visits
    /// rather than for the million susceptible ones it does not.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(w * 64 + b)
                }
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip_across_word_boundaries() {
        let mut bits = BitSet::new(130);
        for i in [0, 1, 63, 64, 65, 127, 128, 129] {
            assert!(!bits.get(i));
            bits.set(i, true);
            assert!(bits.get(i));
        }
        assert_eq!(bits.count_ones(), 8);
        bits.set(64, false);
        assert!(!bits.get(64));
        assert_eq!(bits.count_ones(), 7);
        bits.reset(130);
        assert_eq!(bits.count_ones(), 0);
    }

    #[test]
    fn iter_ones_matches_a_linear_scan() {
        let n = 300;
        let mut bits = BitSet::new(n);
        let expected: Vec<usize> = (0..n).filter(|i| i % 5 == 0 || i % 63 == 0).collect();
        for &i in &expected {
            bits.set(i, true);
        }
        assert_eq!(bits.iter_ones().collect::<Vec<_>>(), expected);
        assert_eq!(bits.iter_ones().count(), bits.count_ones());
        bits.reset(n);
        assert_eq!(bits.iter_ones().next(), None);
    }

    #[test]
    fn retain_ones_visits_ascending_and_clears_the_rejected() {
        let mut bits = BitSet::new(200);
        let ones = [0, 5, 63, 64, 100, 128, 199];
        for &i in &ones {
            bits.set(i, true);
        }
        let mut visited = Vec::new();
        bits.retain_ones(|i| {
            visited.push(i);
            i % 2 == 0
        });
        assert_eq!(visited, ones);
        assert_eq!(bits.iter_ones().collect::<Vec<_>>(), [0, 64, 100, 128]);
    }

    #[test]
    fn reset_resizes_and_clears() {
        let mut bits = BitSet::new(130);
        bits.set(129, true);
        bits.reset(70);
        assert_eq!((bits.len(), bits.count_ones()), (70, 0));
        bits.set(69, true);
        bits.reset(300);
        assert_eq!(bits, BitSet::new(300));
    }

    #[test]
    fn copy_from_mirrors_another_set() {
        let mut src = BitSet::new(100);
        for i in [0, 17, 63, 64, 99] {
            src.set(i, true);
        }
        let mut dst = BitSet::new(100);
        dst.set(5, true); // stale bit must be overwritten
        dst.copy_from(&src);
        assert_eq!(dst, src);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_past_len_panics() {
        BitSet::new(10).get(10);
    }

    #[test]
    fn zero_length_set_is_empty() {
        let bits = BitSet::new(0);
        assert_eq!((bits.len(), bits.count_ones()), (0, 0));
    }
}
