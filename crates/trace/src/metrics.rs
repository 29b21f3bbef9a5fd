//! Fixed-bucket histograms: the bounded-memory distribution behind the
//! streaming run aggregate's delay percentiles.

/// A fixed-bucket histogram: counts per bucket plus sum and count.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: &'static [f64],
    /// `bounds.len() + 1` buckets; the last is the overflow bucket.
    counts: Vec<u64>,
    sum: f64,
    total: u64,
}

impl Histogram {
    /// An empty histogram over `bounds` (ascending upper bounds).
    pub(crate) fn new(bounds: &'static [f64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        Histogram {
            bounds,
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
            total: 0,
        }
    }

    /// Records one observation.
    pub(crate) fn observe(&mut self, value: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum += value;
        self.total += 1;
    }

    /// Number of observations recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of all observed values.
    pub(crate) fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean observed value (`0.0` when empty).
    pub(crate) fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }

    /// Per-bucket counts; the final entry is the overflow bucket.
    pub(crate) fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// The bucket upper bounds this histogram was built with.
    pub(crate) fn bounds(&self) -> &'static [f64] {
        self.bounds
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) by linear interpolation
    /// inside the containing bucket.
    ///
    /// The continuous target rank is `q * count`. Walking the cumulative
    /// bucket counts, the first bucket whose cumulative count reaches the
    /// rank contains the quantile; the estimate interpolates linearly
    /// between that bucket's lower and upper bound (the first bucket's
    /// lower bound is `0.0`). When the rank lands exactly on a bucket's
    /// cumulative boundary the bucket's upper bound is returned — bucket
    /// edges are exact. Observations in the overflow bucket have no upper
    /// bound, so quantiles resolving there return the last configured
    /// bound (a lower bound on the true quantile). An empty histogram
    /// returns `0.0`.
    pub(crate) fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 || self.bounds.is_empty() {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.total as f64;
        let mut cum = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            let prev = cum;
            cum += c;
            if c > 0 && rank <= cum as f64 {
                let (lower, upper) = match idx.checked_sub(1) {
                    None => (0.0, self.bounds[0]),
                    Some(p) if idx < self.bounds.len() => (self.bounds[p], self.bounds[idx]),
                    // Overflow bucket: clamp to the last configured bound.
                    Some(_) => return self.bounds[self.bounds.len() - 1],
                };
                let frac = ((rank - prev as f64) / c as f64).clamp(0.0, 1.0);
                return lower + (upper - lower) * frac;
            }
        }
        self.bounds[self.bounds.len() - 1]
    }

    /// Folds `other` into `self` bucket-by-bucket.
    ///
    /// Both histograms must have been built over the same bounds slice;
    /// merging histograms with different bounds would silently misbin, so
    /// a mismatch panics.
    ///
    /// # Panics
    ///
    /// Panics when `other.bounds() != self.bounds()`.
    pub(crate) fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.bounds, other.bounds,
            "Histogram::merge requires identical bucket bounds"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.sum += other.sum;
        self.total += other.total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BUCKETS: [f64; 10] = [1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0];

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::new(&[1.0, 10.0]);
        for v in [0.5, 1.0, 5.0, 100.0] {
            h.observe(v);
        }
        assert_eq!(h.bucket_counts(), &[2, 1, 1]);
        assert_eq!(h.count(), 4);
        assert!((h.mean() - 26.625).abs() < 1e-12);
    }

    #[test]
    fn quantile_of_empty_histogram_is_zero() {
        let h = Histogram::new(&[1.0, 10.0]);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.quantile(0.99), 0.0);
    }

    #[test]
    fn quantile_of_single_observation_interpolates_its_bucket() {
        let mut h = Histogram::new(&[2.0, 4.0, 8.0]);
        h.observe(3.0);
        // The single observation fills the (2, 4] bucket: q=1 lands on the
        // bucket's upper edge exactly, q=0.5 halfway through it.
        assert_eq!(h.quantile(1.0), 4.0);
        assert!((h.quantile(0.5) - 3.0).abs() < 1e-12);
        // The first bucket's lower edge is 0.
        let mut first = Histogram::new(&[2.0, 4.0]);
        first.observe(1.0);
        assert!((first.quantile(0.5) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_is_exact_at_bucket_edges() {
        let mut h = Histogram::new(&[1.0, 2.0, 3.0, 4.0]);
        for v in [1.0, 2.0, 3.0, 4.0] {
            h.observe(v);
        }
        // Each bucket holds exactly a quarter of the mass, so each
        // quartile rank lands on a cumulative boundary: exact values.
        assert_eq!(h.quantile(0.25), 1.0);
        assert_eq!(h.quantile(0.50), 2.0);
        assert_eq!(h.quantile(0.75), 3.0);
        assert_eq!(h.quantile(1.0), 4.0);
    }

    #[test]
    fn quantile_in_overflow_bucket_clamps_to_last_bound() {
        let mut h = Histogram::new(&[1.0, 2.0]);
        h.observe(100.0);
        assert_eq!(h.quantile(0.5), 2.0);
    }

    #[test]
    fn merge_adds_buckets_sums_and_counts() {
        let mut a = Histogram::new(&BUCKETS);
        let mut b = Histogram::new(&BUCKETS);
        for v in [1.0, 3.0] {
            a.observe(v);
        }
        for v in [3.0, 7.0, 2000.0] {
            b.observe(v);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        let mut direct = Histogram::new(&BUCKETS);
        for v in [1.0, 3.0, 3.0, 7.0, 2000.0] {
            direct.observe(v);
        }
        assert_eq!(merged, direct);
        // Merging an empty histogram is the identity.
        let mut with_empty = a.clone();
        with_empty.merge(&Histogram::new(&BUCKETS));
        assert_eq!(with_empty, a);
        // Quantiles of the merged histogram see the union of the data.
        assert_eq!(merged.count(), 5);
        assert!(merged.quantile(0.9) > a.quantile(0.9));
    }

    #[test]
    #[should_panic(expected = "identical bucket bounds")]
    fn merge_panics_on_bound_mismatch() {
        static OTHER: [f64; 2] = [1.0, 2.0];
        let mut a = Histogram::new(&BUCKETS);
        a.merge(&Histogram::new(&OTHER));
    }
}
