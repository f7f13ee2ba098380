//! Order statistics over timing samples.

/// The `q`-quantile (`0 < q <= 1`) of an ascending slice by the
/// nearest-rank rule: the smallest sample with at least `q * n`
/// samples at or below it. With `n >= 1000` and `q = 0.99` at least
/// ten samples lie above the reported rank.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    sorted[rank_index(sorted.len(), q)]
}

/// The 0-based index [`nearest_rank`] reads.
pub fn rank_index(n: usize, q: f64) -> usize {
    assert!(n > 0, "quantile of an empty sample");
    let rank = (q * n as f64).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// The median of a sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.5), 50.0);
        assert_eq!(nearest_rank(&v, 0.99), 99.0);
        assert_eq!(nearest_rank(&v, 1.0), 100.0);
        assert_eq!(nearest_rank(&[7.0], 0.99), 7.0);
        // 1000 samples: p99 is the 990th, so ten samples lie above it.
        assert_eq!(rank_index(1000, 0.99), 989);
        assert_eq!(rank_index(1001, 0.99), 990);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }
}
