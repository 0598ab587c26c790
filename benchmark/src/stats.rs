//! Order statistics for timing samples.

/// Nearest-rank percentile of `sorted` (ascending) at `p` in `[0, 1]`.
#[must_use]
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    // The small slack keeps `0.95 * 200` from rounding up to rank 191.
    let rank = (p.clamp(0.0, 1.0) * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Ascending copy of `xs`.
#[must_use]
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle samples for an even count).
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    assert!(!s.is_empty(), "median of no samples");
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        0.5 * (s[mid - 1] + s[mid])
    }
}

/// The highest percentile not above `want` that still has at least ten
/// samples beyond it, and its value (choosing-metrics §1: a tail percentile
/// resting on fewer samples is mostly the noise of one or two outliers).
/// With fewer than twenty samples no percentile above the median qualifies
/// and the median is returned.
#[must_use]
pub fn tail_percentile(xs: &[f64], want: f64) -> (f64, f64) {
    let s = sorted(xs);
    let n = s.len() as f64;
    let supported = (1.0 - 10.0 / n).max(0.5);
    let p = want.min(supported);
    if p <= 0.5 {
        return (0.5, median(xs));
    }
    (p, percentile_sorted(&s, p))
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// computes them (the "exclusive" method), so that spreads printed here
/// match the ones the driver computes. Needs at least two samples.
#[must_use]
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs);
    let n = s.len();
    assert!(n >= 2, "quartiles need two samples");
    let at = |k: usize| {
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        s[j - 1] + delta * (s[j] - s[j - 1])
    };
    (at(1), at(3))
}

/// Inter-quartile distance as a share of the median (0 for one sample).
#[must_use]
pub fn iqr_frac(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(xs);
    let m = median(xs);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&s, 0.5), 50.0);
        assert_eq!(percentile_sorted(&s, 0.95), 95.0);
        assert_eq!(percentile_sorted(&s, 1.0), 100.0);
        assert_eq!(percentile_sorted(&s, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // 200 samples: p95 has exactly ten beyond it, so it stands.
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        let (p, v) = tail_percentile(&xs, 0.95);
        assert_eq!(p, 0.95);
        assert_eq!(v, 190.0);
        // 40 samples: only p75 has ten beyond.
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        let (p, v) = tail_percentile(&xs, 0.95);
        assert_eq!(p, 0.75);
        assert_eq!(v, 30.0);
        // 12 samples: nothing above the median qualifies.
        let xs: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 0.95), (0.5, 6.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&xs);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((iqr_frac(&xs) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
    }
}
