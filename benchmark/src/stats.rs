//! Order statistics and the regression-bound rule.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default *exclusive* method), because that is what the driver computes
//! when it judges a spread.

/// Median of `values`; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let m = v.len();
    match m {
        0 => None,
        _ if m % 2 == 1 => Some(v[m / 2]),
        _ => Some((v[m / 2 - 1] + v[m / 2]) / 2.0),
    }
}

/// First and third quartile by the exclusive method; `None` for fewer
/// than two values (Python raises there).
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let m = v.len();
    if m < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// The `q`-quantile (0..=1) of `(value, weight)` samples sorted by value:
/// the first value at which the running weight reaches `q` of the total.
/// With unit weights this is the nearest-rank quantile.
pub fn weighted_quantile(sorted: &[(f64, u64)], q: f64) -> Option<f64> {
    let total: u64 = sorted.iter().map(|&(_, w)| w).sum();
    let target = (q * total as f64).ceil().max(1.0) as u64;
    let mut seen = 0;
    sorted.iter().find_map(|&(value, weight)| {
        seen += weight;
        (seen >= target).then_some(value)
    })
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Five-number summary of one metric's samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    /// Interquartile distance as a share of the median; `None` below two
    /// samples or at a zero median.
    pub spread: Option<f64>,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Option<Summary> {
        let median = median(values)?;
        let spread = quartiles(values)
            .filter(|_| median != 0.0)
            .map(|(q1, q3)| (q3 - q1) / median.abs());
        Some(Summary {
            median,
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            spread,
            n: values.len(),
        })
    }
}

/// Outcome of comparing one (metric, workload) pair between two result
/// sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// The later median is worse than the earlier by more than the bound,
    /// and the spread is tight enough to believe it.
    Regressed,
    /// The run-to-run spread is wider than the bound, so neither "same"
    /// nor "worse" can be claimed.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Applies the bound rule to two sample sets of a lower-is-better metric:
/// `base` is the earlier result, `new` the later one.
///
/// * every `new` sample at or below every `base` sample: ok, whatever the
///   spread;
/// * spread (the wider of the two) above the bound: unresolved — neither
///   "same" nor "worse" can be claimed;
/// * otherwise regressed exactly when the median worsened by more than
///   the bound.
pub fn judge(base: &[f64], new: &[f64], bound: f64) -> Option<Verdict> {
    let (a, b) = (Summary::of(base)?, Summary::of(new)?);
    if b.max <= a.min {
        return Some(Verdict::Ok);
    }
    let spread = a.spread.unwrap_or(0.0).max(b.spread.unwrap_or(0.0));
    Some(if spread > bound {
        Verdict::Unresolved
    } else if b.median > a.median * (1.0 + bound) {
        Verdict::Regressed
    } else {
        Verdict::Ok
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), Some((1.0, 4.0)));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), Some((0.5, 3.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn summary_spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.median, s.min, s.max, s.n), (5.5, 1.0, 10.0, 10));
        assert!((s.spread.unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(Summary::of(&[2.0]).unwrap().spread, None);
    }

    #[test]
    fn weighted_quantiles() {
        let unit: Vec<(f64, u64)> = (1..=1000).map(|i| (f64::from(i), 1)).collect();
        assert_eq!(weighted_quantile(&unit, 0.99), Some(990.0));
        assert_eq!(weighted_quantile(&unit, 1.0), Some(1000.0));
        assert_eq!(weighted_quantile(&unit, 0.5), Some(500.0));
        // Two tiny batches and one that covers nearly every call.
        let batches = [(3.0, 1), (8.0, 1_000_000), (40.0, 2)];
        assert_eq!(weighted_quantile(&batches, 0.5), Some(8.0));
        assert_eq!(weighted_quantile(&[], 0.5), None);
    }

    #[test]
    fn bound_rule() {
        let tight = [10.0, 10.1, 10.0, 9.9, 10.0];
        // Within the bound.
        let same = [10.2, 10.3, 10.2, 10.1, 10.2];
        assert_eq!(judge(&tight, &same, 0.05), Some(Verdict::Ok));
        // Worse by 10 % with a 1 % spread.
        let slow = [11.0, 11.1, 11.0, 10.9, 11.0];
        assert_eq!(judge(&tight, &slow, 0.05), Some(Verdict::Regressed));
        // Better on every sample: ok even though the spread is wide.
        let fast = [5.0, 9.0, 7.0, 9.8, 6.0];
        assert_eq!(judge(&tight, &fast, 0.05), Some(Verdict::Ok));
        // Overlapping and noisy: cannot tell.
        let noisy = [9.0, 12.0, 10.5, 11.5, 9.5];
        assert_eq!(judge(&tight, &noisy, 0.05), Some(Verdict::Unresolved));
        assert_eq!(judge(&[], &tight, 0.05), None);
    }
}
