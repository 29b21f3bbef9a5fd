//! Offline, in-workspace stand-in for the `rand` crate.
//!
//! The build environment has no network access, so the workspace ships a
//! small deterministic replacement exposing exactly the API surface the
//! other crates use:
//!
//! * [`Rng`] — object-safe core trait (`&mut dyn Rng` works);
//! * [`RngExt`] — generic convenience methods (`random`, `random_range`,
//!   `random_bool`), blanket-implemented for every `Rng`;
//! * [`SeedableRng`] with `seed_from_u64`;
//! * [`rngs::StdRng`] — xoshiro256++ seeded via SplitMix64;
//! * [`seq::SliceRandom`] (`shuffle`) and [`seq::IndexedRandom`] (`choose`).
//!
//! Determinism is a feature here: simulations derive per-trial seeds and
//! must replay bit-identically, so `StdRng` is a fixed, portable generator
//! with no platform- or version-dependent behaviour.

use std::ops::{Range, RangeInclusive};

/// Object-safe source of randomness.
///
/// Only the raw word generators live here so the trait can be used as
/// `&mut dyn Rng`; all generic convenience methods are on [`RngExt`].
pub trait Rng {
    /// Returns the next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Returns the next 32 uniformly random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }

    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
}

/// Types that can be sampled uniformly from an RNG's raw output.
pub trait Standard: Sized {
    /// Draws one value from the full (or unit, for floats) distribution.
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u8 {
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 56) as u8
    }
}

impl Standard for u16 {
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 48) as u16
    }
}

impl Standard for u32 {
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl Standard for u64 {
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for usize {
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

impl Standard for bool {
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    /// Uniform in `[0, 1)` with 24 bits of precision.
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Ranges a value can be drawn from uniformly.
pub trait SampleRange<T> {
    /// Draws one value from `self`. Panics if the range is empty.
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> T;
}

/// Maps a random word onto `0..span` by widening multiply.
///
/// The bias is at most `span / 2^64`, invisible at simulation scales, and
/// the mapping is fixed so seeded runs replay exactly.
#[inline]
fn reduce(word: u64, span: u64) -> u64 {
    ((u128::from(word) * u128::from(span)) >> 64) as u64
}

macro_rules! impl_int_sample_range {
    ($($t:ty),+) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample from empty range");
                let span = (self.end - self.start) as u64;
                self.start + reduce(rng.next_u64(), span) as $t
            }
        }

        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "cannot sample from empty range");
                let span = (end - start) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                start + reduce(rng.next_u64(), span + 1) as $t
            }
        }
    )+};
}

impl_int_sample_range!(u8, u16, u32, u64, usize);

macro_rules! impl_signed_sample_range {
    ($($t:ty => $u:ty),+) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample from empty range");
                let span = self.end.wrapping_sub(self.start) as $u;
                self.start.wrapping_add(reduce(rng.next_u64(), u64::from(span)) as $t)
            }
        }
    )+};
}

impl_signed_sample_range!(i32 => u32, i64 => u64);

impl SampleRange<f64> for Range<f64> {
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample from empty range");
        self.start + (self.end - self.start) * f64::from_rng(rng)
    }
}

/// Generic convenience methods, blanket-implemented for every [`Rng`]
/// (including trait objects).
pub trait RngExt: Rng {
    /// Draws a value of type `T` from its standard distribution
    /// (`[0, 1)` for floats, the full range for integers).
    fn random<T: Standard>(&mut self) -> T {
        T::from_rng(self)
    }

    /// Draws a value uniformly from `range`. Panics on empty ranges.
    fn random_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    fn random_bool(&mut self, p: f64) -> bool {
        f64::from_rng(self) < p
    }
}

impl<R: Rng + ?Sized> RngExt for R {}

/// RNGs that can be constructed from a seed.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is fully determined by `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

pub mod rngs {
    //! Concrete generator implementations.

    use super::{Rng, SeedableRng};

    /// The SplitMix64 increment (the odd fractional part of the golden
    /// ratio), shared by the [`StdRng`] seed expansion and [`ContactRng`].
    const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

    /// The SplitMix64 finalizer: a bijective avalanche mix of one word.
    #[inline]
    fn splitmix_mix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A counter-based per-contact generator: the stream is a pure
    /// function of `(seed, cycle, site)`.
    ///
    /// Sequential generators like [`StdRng`] make every draw depend on
    /// every draw before it, so a simulation's outcome depends on the
    /// *iteration order* of its contact loop — the property that forces
    /// full-roster traversal and serializes parallel sweeps. `ContactRng`
    /// removes that coupling: each `(seed, cycle, site)` triple names an
    /// independent SplitMix64 stream, so a contact's draws are identical
    /// whether its initiator is visited first, last, or on another
    /// thread. Two consequences the megascale fast path builds on:
    ///
    /// * a contact loop may iterate **only the active sites, in any
    ///   order**, and still replay bit-identically;
    /// * splitting the roster across worker threads is byte-identical to
    ///   sequential execution by construction — there is no per-worker
    ///   stream to keep in sync.
    ///
    /// The stream origin hashes the triple through three finalizer
    /// rounds (one per coordinate); successive draws then walk the
    /// standard SplitMix64 sequence (add the golden-ratio gamma,
    /// finalize).
    /// Streams are full-period within themselves; distinct triples
    /// collide on an origin with probability ~`streams²/2⁶⁴` —
    /// negligible at simulation scales, and harmless (a shared origin
    /// only means two contacts draw the same numbers once).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ContactRng {
        x: u64,
    }

    impl ContactRng {
        /// The stream for one contact: `site`'s draws in `cycle` under
        /// `seed`. A pure function — no global state, no ordering.
        #[must_use]
        pub fn new(seed: u64, cycle: u64, site: u64) -> Self {
            let a = splitmix_mix(seed.wrapping_add(GOLDEN_GAMMA));
            let b = splitmix_mix(a ^ cycle.wrapping_add(GOLDEN_GAMMA));
            ContactRng {
                x: splitmix_mix(b ^ site.wrapping_add(GOLDEN_GAMMA)),
            }
        }
    }

    impl Rng for ContactRng {
        fn next_u64(&mut self) -> u64 {
            self.x = self.x.wrapping_add(GOLDEN_GAMMA);
            splitmix_mix(self.x)
        }
    }

    /// The workspace's standard generator: xoshiro256++ with SplitMix64
    /// seed expansion.
    ///
    /// Chosen for speed, a 256-bit state, and a fixed portable stream —
    /// every simulation in this repository replays bit-identically from
    /// a seed on any platform.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expands the 64-bit seed into the 256-bit state,
            // as recommended by the xoshiro authors.
            let mut x = seed;
            let mut next = move || {
                x = x.wrapping_add(GOLDEN_GAMMA);
                splitmix_mix(x)
            };
            let s = [next(), next(), next(), next()];
            StdRng { s }
        }
    }

    impl Rng for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

pub mod seq {
    //! Sequence-related random operations.

    use super::{reduce, Rng};

    /// Random mutations of slices.
    pub trait SliceRandom {
        /// Shuffles the slice uniformly (Fisher–Yates).
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = reduce(rng.next_u64(), i as u64 + 1) as usize;
                self.swap(i, j);
            }
        }
    }

    /// Random selections from slices.
    pub trait IndexedRandom {
        /// The element type.
        type Output;

        /// Returns a uniformly random element, or `None` if empty.
        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&Self::Output>;
    }

    impl<T> IndexedRandom for [T] {
        type Output = T;

        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[reduce(rng.next_u64(), self.len() as u64) as usize])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::{ContactRng, StdRng};
    use super::seq::{IndexedRandom, SliceRandom};
    use super::{Rng, RngExt, SeedableRng};

    #[test]
    fn contact_rng_is_a_pure_function_of_its_triple() {
        let draws = |seed, cycle, site| {
            let mut rng = ContactRng::new(seed, cycle, site);
            [rng.next_u64(), rng.next_u64(), rng.next_u64()]
        };
        assert_eq!(draws(7, 3, 41), draws(7, 3, 41));
        // Any single coordinate change moves the whole stream.
        let reference = draws(7, 3, 41);
        for other in [draws(8, 3, 41), draws(7, 4, 41), draws(7, 3, 42)] {
            assert_ne!(reference, other);
        }
    }

    #[test]
    fn contact_rng_streams_do_not_depend_on_each_other() {
        // Drawing from site 5's stream must not perturb site 6's — the
        // property sequential RNGs lack and the active-set loop needs.
        let mut alone = ContactRng::new(1, 2, 6);
        let expected = [alone.next_u64(), alone.next_u64()];
        let mut noisy_neighbor = ContactRng::new(1, 2, 5);
        for _ in 0..17 {
            noisy_neighbor.next_u64();
        }
        let mut after = ContactRng::new(1, 2, 6);
        assert_eq!(expected, [after.next_u64(), after.next_u64()]);
    }

    #[test]
    fn contact_rng_nearby_triples_decorrelate() {
        // Adjacent sites and adjacent cycles — the dense case the
        // megascale sweep hits — must not produce correlated low bits.
        let mut all: Vec<u64> = Vec::new();
        for cycle in 0..8u64 {
            for site in 0..64u64 {
                all.push(ContactRng::new(0, cycle, site).next_u64());
            }
        }
        let ones: u32 = all.iter().map(|w| w.count_ones()).sum();
        let total = (all.len() * 64) as f64;
        let frac = f64::from(ones) / total;
        assert!((0.47..0.53).contains(&frac), "bit bias: {frac}");
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "first draws collide");
    }

    #[test]
    fn contact_rng_supports_the_generic_draw_api() {
        let mut rng = ContactRng::new(3, 1, 0);
        let in_range = rng.random_range(0usize..9);
        assert!(in_range < 9);
        let f: f64 = rng.random();
        assert!((0.0..1.0).contains(&f));
        let hits = (0..10_000)
            .filter(|&i| ContactRng::new(3, 2, i).random_bool(0.25))
            .count();
        assert!((2_300..2_700).contains(&hits), "got {hits}");
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn unit_float_is_in_range() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x: f64 = rng.random();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn range_sampling_stays_in_bounds() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut seen = [false; 7];
        for _ in 0..500 {
            let v = rng.random_range(3usize..10);
            assert!((3..10).contains(&v));
            seen[v - 3] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values should appear");
        for _ in 0..100 {
            let v = rng.random_range(0u8..=3);
            assert!(v <= 3);
        }
    }

    #[test]
    fn dyn_rng_is_usable() {
        let mut rng = StdRng::seed_from_u64(11);
        let dyn_rng: &mut dyn Rng = &mut rng;
        let x: f64 = dyn_rng.random();
        assert!((0.0..1.0).contains(&x));
        let v = dyn_rng.random_range(0usize..5);
        assert!(v < 5);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(
            v, sorted,
            "a 50-element shuffle is astronomically unlikely to be identity"
        );
    }

    #[test]
    fn choose_covers_all_elements() {
        let mut rng = StdRng::seed_from_u64(17);
        let items = [1, 2, 3, 4];
        let empty: [u32; 0] = [];
        assert_eq!(empty.choose(&mut rng), None);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[*items.choose(&mut rng).unwrap() - 1] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn random_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(19);
        let hits = (0..10_000).filter(|_| rng.random_bool(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "got {hits}");
    }
}
