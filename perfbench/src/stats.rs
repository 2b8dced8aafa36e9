//! Order statistics for the end-to-end rows.

/// One percentile read off a sample, with how many samples lie beyond
/// it (the tail the value stands for).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub value: f64,
    pub samples: usize,
    pub beyond: usize,
}

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample
/// with at least `p` percent of the sample at or below it. `beyond`
/// counts the samples ranked above it, so a p99 over 1000 samples has
/// 10 beyond it and over 999 only 9.
pub fn percentile(sorted: &[u64], p: f64) -> Percentile {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!((0.0..=100.0).contains(&p), "percentile {p} outside [0, 100]");
    let n = sorted.len();
    // The epsilon keeps float rounding from pushing an exact rank up by
    // one: 99% of 1000 must be rank 990, not 991.
    let scaled = p * n as f64 / 100.0;
    let rank = (scaled - 1e-9).ceil().max(1.0) as usize;
    let rank = rank.min(n);
    Percentile { value: sorted[rank - 1] as f64, samples: n, beyond: n - rank }
}

/// Median of an unsorted sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `numerator / denominator`, or 0 when nothing was counted.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: u64) -> Vec<u64> {
        (1..=n).collect()
    }

    #[test]
    fn p99_of_1000_leaves_ten_beyond() {
        let p = percentile(&ramp(1000), 99.0);
        assert_eq!(p.value, 990.0);
        assert_eq!((p.samples, p.beyond), (1000, 10));
    }

    #[test]
    fn p99_of_999_leaves_only_nine_beyond() {
        let p = percentile(&ramp(999), 99.0);
        assert_eq!(p.value, 990.0);
        assert_eq!(p.beyond, 9);
    }

    #[test]
    fn p50_is_the_lower_middle_for_even_samples() {
        assert_eq!(percentile(&ramp(10), 50.0).value, 5.0);
        assert_eq!(percentile(&ramp(11), 50.0).value, 6.0);
    }

    #[test]
    fn extreme_percentiles_are_the_ends() {
        assert_eq!(percentile(&ramp(7), 0.0).value, 1.0);
        assert_eq!(percentile(&ramp(7), 100.0).value, 7.0);
        assert_eq!(percentile(&ramp(7), 100.0).beyond, 0);
        assert_eq!(percentile(&[35], 99.0).value, 35.0);
    }

    #[test]
    fn median_handles_odd_even_and_order() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
