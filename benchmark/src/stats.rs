//! Sample statistics: median, quartiles, percentiles and geometric mean.

/// Order statistics of one sample set, as printed beside every timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `p`-th percentile (0..=100) with linear interpolation between the
/// two nearest ranks. Panics on an empty sample: every caller measures at
/// least once.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let v = sorted(values);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The fastest sample of a timing that is not a fluke: the smallest value
/// that is at least half the lower quartile. Noise on the host is
/// one-sided, so the least disturbed sample repeats best from run to run;
/// but a portfolio race now and then wins a minimisation a hundred times
/// faster than usual, and such a sample must not decide the run.
pub fn fastest(values: &[f64]) -> f64 {
    let floor = percentile(values, 25.0) / 2.0;
    values
        .iter()
        .copied()
        .filter(|v| *v >= floor)
        .fold(f64::INFINITY, f64::min)
}

pub fn summary(values: &[f64]) -> Summary {
    Summary {
        n: values.len(),
        q1: percentile(values, 25.0),
        median: median(values),
        q3: percentile(values, 75.0),
    }
}

/// Geometric mean; the average for per-instance times that span three
/// orders of magnitude, so no single slow program decides the figure.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of an empty sample");
    (values
        .iter()
        .map(|v| v.max(f64::MIN_POSITIVE).ln())
        .sum::<f64>()
        / values.len() as f64)
        .exp()
}

/// The highest percentile that still has at least ten samples beyond it,
/// and its value: `(80, p80)` at n = 50. `None` below twenty samples,
/// where even the median has fewer than ten samples on its far side.
pub fn tail(values: &[f64]) -> Option<(u32, f64)> {
    let n = values.len();
    if n < 20 {
        return None;
    }
    let v = sorted(values);
    let idx = n - 11;
    let pct = (100.0 * idx as f64 / (n - 1) as f64).round() as u32;
    Some((pct, v[idx]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 50.0);
        assert_eq!(percentile(&v, 25.0), 20.0);
        assert_eq!(percentile(&v, 90.0), 46.0);
    }

    #[test]
    fn fastest_is_the_minimum_without_flukes() {
        assert_eq!(fastest(&[3.0, 1.5, 2.0]), 1.5);
        assert_eq!(fastest(&[7.0]), 7.0);
        // 5 is a hundred times faster than the rest: a lucky race.
        assert_eq!(fastest(&[820.0, 5.0, 815.0, 830.0, 900.0]), 815.0);
    }

    #[test]
    fn summary_reports_quartiles_and_count() {
        let s = summary(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]);
        assert_eq!((s.n, s.q1, s.median, s.q3), (9, 3.0, 5.0, 7.0));
    }

    #[test]
    fn geomean_is_scale_free() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[2.0, 8.0, 4.0]) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=50).map(f64::from).collect();
        // Index 39 of 0..=49: ten larger samples remain (41..=50).
        assert_eq!(tail(&v), Some((80, 40.0)));
        assert_eq!(tail(&v[..19]), None);
        assert_eq!(tail(&v[..20]), Some((47, 10.0)));
    }
}
