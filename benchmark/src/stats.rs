//! Summaries of timing samples and of repeated runs. The instrument keeps
//! its own few lines of quantile arithmetic rather than calling
//! `edgeperf::stats`, which is code under test.

/// Linear-interpolated quantile (`q` in 0..=1) of an ascending slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

/// The highest of p75 / p90 / p95 / p99 / p99.9 that still has at least
/// ten samples beyond it, or `None` below 40 samples. A tail percentile
/// resting on fewer samples is mostly the scheduler's noise.
pub fn supported_tail(samples: usize) -> Option<f64> {
    // (percentile, per-mille of samples beyond it)
    [(0.999, 1), (0.99, 10), (0.95, 50), (0.90, 100), (0.75, 250)]
        .into_iter()
        .find(|(_, beyond)| samples * beyond / 1000 >= 10)
        .map(|(p, _)| p)
}

/// Median, supported tail and count of one phase's timings.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Timing {
    pub samples: usize,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    /// `(percentile, value)` of [`supported_tail`].
    pub tail: Option<(f64, f64)>,
}

impl Timing {
    /// Summarise `values`; all zero when there are none.
    pub fn of(values: &[f64]) -> Timing {
        if values.is_empty() {
            return Timing::default();
        }
        let s = sorted(values);
        Timing {
            samples: s.len(),
            p50: quantile_sorted(&s, 0.5),
            p90: quantile_sorted(&s, 0.9),
            p99: quantile_sorted(&s, 0.99),
            tail: supported_tail(s.len()).map(|p| (p, quantile_sorted(&s, p))),
        }
    }
}

/// `(q1, median, q3)` exactly as Python's `statistics.quantiles(v, n=4)`
/// (the default exclusive method) computes them, so `--repeat` applies the
/// rule the acceptance driver applies. Needs two values.
pub fn quartiles_exclusive(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile distance as a share of the median: the run-to-run spread
/// a metric's bound is compared with.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles_exclusive(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(39), None);
        assert_eq!(supported_tail(40), Some(0.75));
        assert_eq!(supported_tail(99), Some(0.75));
        assert_eq!(supported_tail(100), Some(0.90));
        assert_eq!(supported_tail(199), Some(0.90));
        assert_eq!(supported_tail(200), Some(0.95));
        assert_eq!(supported_tail(1_000), Some(0.99));
        assert_eq!(supported_tail(10_000), Some(0.999));
    }

    #[test]
    fn timing_reports_median_tail_and_count() {
        let values: Vec<f64> = (1..=101).map(f64::from).collect();
        let t = Timing::of(&values);
        assert_eq!(t.samples, 101);
        assert_eq!(t.p50, 51.0);
        assert_eq!(t.p90, 91.0);
        assert_eq!(t.tail, Some((0.90, 91.0)));
        assert_eq!(Timing::of(&[]), Timing::default());
        assert_eq!(Timing::of(&[3.0]).tail, None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles_exclusive(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3.1, 2.9, 3.0, 3.4, 2.8], n=4)
        let [q1, q2, q3] = quartiles_exclusive(&[3.1, 2.9, 3.0, 3.4, 2.8]).unwrap();
        assert!((q1 - 2.85).abs() < 1e-12 && q2 == 3.0 && (q3 - 3.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles_exclusive(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles_exclusive(&[1.0]), None);
        assert!((relative_spread(&ten).unwrap() - 1.0).abs() < 1e-12);
    }
}
