//! Statistically valid aggregation comparisons (§3.4.1).
//!
//! A comparison of two aggregations is *valid* only when both sides have
//! at least 30 samples and the confidence interval of the difference of
//! medians is tight (< 10 ms for MinRTT_P50, < 0.1 for HDratio_P50).
//! Events (degradation / opportunity) are declared on the *lower bound*
//! of the CI exceeding the threshold, so noise cannot manufacture events.
//!
//! There is one comparison, [`compare`], over [`WindowCell`] rows: whether
//! a row was summarised from sorted samples or a t-digest, or read back
//! from a spilled segment, only decides how good its order statistics
//! are, not which rules apply.

use crate::config::AnalysisConfig;
use crate::degradation::DegradationMetric;
use crate::segment::WindowCell;
use edgeperf_stats::dist::norm_inv_cdf;

/// Result of comparing two aggregations on one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CompareOutcome {
    /// Not enough samples or CI too wide — the window is excluded.
    Invalid,
    /// Valid comparison.
    Valid {
        /// Point difference of the medians (a − b).
        diff: f64,
        /// Lower CI bound of the difference.
        lo: f64,
        /// Upper CI bound of the difference.
        hi: f64,
    },
}

impl CompareOutcome {
    /// Is the difference confidently above `threshold`?
    /// (Lower-bound rule; `Invalid` is never an event.)
    #[cfg(test)]
    pub(crate) fn event_at(&self, threshold: f64) -> bool {
        matches!(self, CompareOutcome::Valid { lo, .. } if *lo > threshold)
    }
}

/// Difference of the `metric` medians `a − b` with the Price–Bonett CI
/// (`diff ± z·√(Var_a + Var_b)`, the arithmetic of
/// [`edgeperf_stats::median_ci::diff_of_medians_ci_sorted`]) under the validity
/// rules: both sides hold `min_samples` samples of the metric (sessions
/// for MinRTT, tested sessions for HDratio) and the CI is narrower than
/// the metric's tightness bound.
pub fn compare(
    cfg: &AnalysisConfig,
    metric: DegradationMetric,
    a: &WindowCell,
    b: &WindowCell,
) -> CompareOutcome {
    let stat = |c: &WindowCell| match metric {
        DegradationMetric::MinRtt => (u64::from(c.n), c.min_rtt_var()),
        DegradationMetric::HdRatio => (u64::from(c.n_tested), c.hdratio_var()),
    };
    let max_ci_width = match metric {
        DegradationMetric::MinRtt => cfg.max_ci_width_minrtt_ms,
        DegradationMetric::HdRatio => cfg.max_ci_width_hdratio,
    };
    let ((na, va), (nb, vb)) = (stat(a), stat(b));
    let min_samples = cfg.min_samples as u64;
    if na < min_samples || nb < min_samples {
        return CompareOutcome::Invalid;
    }
    let (Some(pa), Some(va), Some(pb), Some(vb)) = (a.p50(metric), va, b.p50(metric), vb) else {
        return CompareOutcome::Invalid;
    };
    let diff = pa - pb;
    let half = norm_inv_cdf(0.5 + cfg.confidence / 2.0) * (va + vb).sqrt();
    let (lo, hi) = (diff - half, diff + half);
    if hi - lo >= max_ci_width {
        return CompareOutcome::Invalid;
    }
    CompareOutcome::Valid { diff, lo, hi }
}

/// How much worse `x` performs than `y` on `metric`: `x − y` for MinRTT
/// (higher is worse), `y − x` for HDratio (lower is worse). Degradation is
/// the deficit of a window against its baseline; opportunity the deficit
/// of the preferred route against an alternate.
pub(crate) fn deficit(
    cfg: &AnalysisConfig,
    metric: DegradationMetric,
    x: &WindowCell,
    y: &WindowCell,
) -> CompareOutcome {
    match metric {
        DegradationMetric::MinRtt => compare(cfg, metric, x, y),
        DegradationMetric::HdRatio => compare(cfg, metric, y, x),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Aggregation;
    use crate::record::GroupKey;
    use edgeperf_routing::{PopId, Prefix, Relationship};
    use edgeperf_stats::median_ci::diff_of_medians_ci_sorted;

    const MINRTT: DegradationMetric = DegradationMetric::MinRtt;

    /// The row of a cell whose MinRTT samples are `center ± spread/2`;
    /// every session tested, with HDratio = MinRTT / 100.
    fn cell(center: f64, spread: f64, n: usize) -> (Vec<f64>, WindowCell) {
        let samples: Vec<f64> =
            (0..n).map(|i| center + spread * (i as f64 / (n - 1) as f64 - 0.5)).collect();
        let mut agg = Aggregation::new(Relationship::PrivatePeer);
        agg.min_rtt_ms = samples.clone();
        agg.hdratio = samples.iter().map(|v| v / 100.0).collect();
        let group =
            GroupKey { pop: PopId(0), prefix: Prefix::new(0, 16), country: 0, continent: 0 };
        (samples, WindowCell::new(0, group, 0, &agg.summary()).unwrap())
    }

    #[test]
    fn too_few_samples_is_invalid() {
        let cfg = AnalysisConfig::default();
        let (_, a) = cell(50.0, 5.0, 10);
        let (_, b) = cell(40.0, 5.0, 100);
        assert_eq!(compare(&cfg, MINRTT, &a, &b), CompareOutcome::Invalid);
        assert_eq!(compare(&cfg, MINRTT, &b, &a), CompareOutcome::Invalid);
    }

    #[test]
    fn hdratio_is_gated_on_tested_sessions() {
        let cfg = AnalysisConfig::default();
        let (_, a) = cell(50.0, 5.0, 100);
        let (_, mut b) = cell(40.0, 5.0, 100);
        assert!(matches!(
            compare(&cfg, DegradationMetric::HdRatio, &a, &b),
            CompareOutcome::Valid { diff, .. } if (diff - 0.1).abs() < 1e-9
        ));
        b.n_tested = 29;
        assert_eq!(compare(&cfg, DegradationMetric::HdRatio, &a, &b), CompareOutcome::Invalid);
        assert_ne!(compare(&cfg, MINRTT, &a, &b), CompareOutcome::Invalid);
    }

    #[test]
    fn wide_ci_is_invalid() {
        let cfg = AnalysisConfig::default();
        // Very high variance, few samples → CI wider than 10 ms.
        let (_, a) = cell(50.0, 500.0, 30);
        let (_, b) = cell(40.0, 500.0, 30);
        assert_eq!(compare(&cfg, MINRTT, &a, &b), CompareOutcome::Invalid);
    }

    #[test]
    fn clear_difference_is_event_with_the_exact_ci() {
        let cfg = AnalysisConfig::default();
        let (sa, a) = cell(60.0, 4.0, 200);
        let (sb, b) = cell(40.0, 4.0, 200);
        let o = compare(&cfg, MINRTT, &a, &b);
        assert!(o.event_at(5.0), "{o:?}");
        assert!(!o.event_at(25.0));
        assert!(matches!(o, CompareOutcome::Valid { diff, .. } if (diff - 20.0).abs() < 0.5));
        // Through summaries nothing is lost: the reference CI, bit for bit.
        let ci = diff_of_medians_ci_sorted(&sa, &sb, cfg.confidence);
        assert_eq!(o, CompareOutcome::Valid { diff: ci.diff, lo: ci.lo, hi: ci.hi });
    }

    #[test]
    fn marginal_difference_is_not_event() {
        let cfg = AnalysisConfig::default();
        // True diff 6 ms but noisy: the lower bound should not clear 5 ms.
        let (_, a) = cell(46.0, 30.0, 40);
        let (_, b) = cell(40.0, 30.0, 40);
        let o = compare(&cfg, MINRTT, &a, &b);
        if let CompareOutcome::Valid { lo, .. } = o {
            assert!(lo < 5.0, "lo = {lo}");
        }
        assert!(!o.event_at(5.0));
    }

    #[test]
    fn invalid_never_events() {
        assert!(!CompareOutcome::Invalid.event_at(-100.0));
    }
}
