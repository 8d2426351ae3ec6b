//! Order statistics the benchmark reports: medians, nearest-rank
//! percentiles, and the tail rule "the highest percentile that keeps at
//! least ten samples beyond it".

/// Samples a tail percentile must leave above itself to be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first. The tail rule caps at p99 so
/// a long run reports the same percentile as a short one.
const TAIL_CANDIDATES: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// The nearest-rank index of percentile `p` (0 < p ≤ 100) in `n` sorted
/// samples: `ceil(p/100 · n) − 1`.
pub fn rank(p: f64, n: usize) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    let r = (p / 100.0 * n as f64).ceil() as usize;
    r.clamp(1, n) - 1
}

/// Nearest-rank percentile of `sorted` (ascending).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(p, sorted.len())]
}

/// Samples strictly above the nearest-rank percentile `p` of `n` samples.
pub fn beyond(p: f64, n: usize) -> usize {
    n - 1 - rank(p, n)
}

/// The highest candidate percentile with at least [`TAIL_MIN_BEYOND`]
/// samples above it, or `None` when `n` is too small for any.
pub fn tail_percentile(n: usize) -> Option<f64> {
    if n == 0 {
        return None;
    }
    TAIL_CANDIDATES
        .iter()
        .copied()
        .find(|&p| beyond(p, n) >= TAIL_MIN_BEYOND)
}

/// Median of the samples (mean of the two middle values for even `n`).
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

/// Sorts a copy of the samples ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(beyond(99.0, 100), 1);
        assert_eq!(beyond(90.0, 100), 10);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(10), None, "nothing leaves ten above it");
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(1_000_000), Some(99.0), "capped at p99");
        for n in 1..3000 {
            if let Some(p) = tail_percentile(n) {
                assert!(beyond(p, n) >= TAIL_MIN_BEYOND, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
