//! Per-window performance degradation vs a per-group baseline (§§3.4, 5).
//!
//! The baseline of a user group is the 10th percentile of its preferred
//! route's MinRTT_P50 across all windows (90th percentile for
//! HDratio_P50) — "how good does this group get". Each window is then
//! compared against the baseline *aggregation* (the window that attains
//! the baseline), and degradation is declared only when the CI lower
//! bound of the difference clears the threshold.

use crate::compare::{deficit, CompareOutcome};
use crate::config::AnalysisConfig;
use crate::dataset::GroupData;
use crate::segment::WindowCell;
use edgeperf_stats::quantile::quantile_unsorted;

/// Which metric a degradation/opportunity analysis runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradationMetric {
    /// Median of session MinRTTs (ms); degradation = increase.
    MinRtt,
    /// Median of session HDratios; degradation = decrease.
    HdRatio,
}

/// Status of one window in a degradation or opportunity series.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WindowStatus {
    /// The group had no traffic in the window.
    #[default]
    NoTraffic,
    /// Traffic, but the comparison failed the validity rules.
    Invalid,
    /// Valid comparison, no event at the threshold.
    Quiet,
    /// Valid comparison, confident event at the threshold.
    Event,
}

/// Assessment of one window.
#[derive(Debug, Clone, Copy)]
pub struct WindowAssessment {
    /// The window's status.
    pub status: WindowStatus,
    /// (diff, lo, hi) of the comparison when valid; the sign convention
    /// makes positive = worse (degradation) / better-on-alternate
    /// (opportunity).
    pub diff: Option<(f64, f64, f64)>,
    /// Traffic bytes in the window (preferred route).
    pub bytes: u64,
}

/// The baseline of a series of preferred-route windows (oldest first):
/// among windows with at least `min_samples` sessions and a median of
/// `metric`, the one whose median is nearest the series' 10th percentile
/// (MinRTT) or 90th (HDratio); the earliest on ties. `None` when no
/// window qualifies.
pub fn pick_baseline<'a>(
    cfg: &AnalysisConfig,
    metric: DegradationMetric,
    windows: impl IntoIterator<Item = &'a WindowCell>,
) -> Option<&'a WindowCell> {
    let candidates: Vec<(&WindowCell, f64)> = windows
        .into_iter()
        .filter(|c| u64::from(c.n) >= cfg.min_samples as u64)
        .filter_map(|c| Some((c, c.p50(metric)?)))
        .collect();
    if candidates.is_empty() {
        return None;
    }
    let p50s: Vec<f64> = candidates.iter().map(|&(_, v)| v).collect();
    let target = match metric {
        DegradationMetric::MinRtt => quantile_unsorted(&p50s, 0.10),
        DegradationMetric::HdRatio => quantile_unsorted(&p50s, 0.90),
    };
    candidates
        .into_iter()
        .min_by(|a, b| (a.1 - target).abs().total_cmp(&(b.1 - target).abs()))
        .map(|(c, _)| c)
}

/// Assess one window against the group's baseline: invalid without a
/// baseline or a valid comparison, an event when the CI lower bound of
/// the window's `deficit` clears `threshold`.
pub fn assess_window(
    cfg: &AnalysisConfig,
    metric: DegradationMetric,
    threshold: f64,
    window: &WindowCell,
    baseline: Option<&WindowCell>,
) -> WindowAssessment {
    let (status, diff) = match baseline.map(|b| deficit(cfg, metric, window, b)) {
        Some(CompareOutcome::Valid { diff, lo, hi }) => (
            if lo > threshold { WindowStatus::Event } else { WindowStatus::Quiet },
            Some((diff, lo, hi)),
        ),
        Some(CompareOutcome::Invalid) | None => (WindowStatus::Invalid, None),
    };
    WindowAssessment { status, diff, bytes: window.bytes }
}

/// Assess every window of a group for degradation of `metric` at
/// `threshold` (ms for MinRTT, ratio units for HDratio).
///
/// Returns one assessment per window. Groups whose preferred route never
/// has a valid aggregation yield all-`Invalid`/`NoTraffic`.
pub fn degradation_events(
    cfg: &AnalysisConfig,
    group: &GroupData<WindowCell>,
    metric: DegradationMetric,
    threshold: f64,
) -> Vec<WindowAssessment> {
    let baseline = pick_baseline(cfg, metric, group.preferred());
    let preferred = group.ranks.first().into_iter().flatten();
    preferred
        .map(|cell| match cell {
            None => WindowAssessment { status: WindowStatus::NoTraffic, diff: None, bytes: 0 },
            Some(cell) => assess_window(cfg, metric, threshold, cell, baseline),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::record::{ns, GroupKey, SessionRecord};
    use edgeperf_routing::{PopId, Prefix, Relationship};

    fn records_with_rtts(per_window: &[f64]) -> Vec<SessionRecord> {
        let group = GroupKey {
            pop: PopId(0),
            prefix: Prefix::new(0x0A000000, 16),
            country: 0,
            continent: 0,
        };
        let mut out = Vec::new();
        for (w, &center) in per_window.iter().enumerate() {
            for i in 0..60 {
                out.push(SessionRecord {
                    group,
                    window: w as u32,
                    route_rank: 0,
                    relationship: Relationship::PrivatePeer,
                    longer_path: false,
                    more_prepended: false,
                    min_rtt_ns: ns(center + (i as f64 - 30.0) * 0.05), // ±1.5 ms spread
                    hdratio: Some(1.0),
                    bytes: 1000,
                });
            }
        }
        out
    }

    fn group_of(ds: &Dataset) -> GroupData<WindowCell> {
        ds.summarize().groups.remove(0).1
    }

    #[test]
    fn stable_group_has_no_degradation() {
        let recs = records_with_rtts(&[40.0; 10]);
        let ds = Dataset::from_records(&recs, 10);
        let cfg = AnalysisConfig::default();
        let a = degradation_events(&cfg, &group_of(&ds), DegradationMetric::MinRtt, 5.0);
        assert!(a.iter().all(|x| x.status == WindowStatus::Quiet), "{a:?}");
    }

    #[test]
    fn spike_is_detected() {
        let mut rtts = vec![40.0; 10];
        rtts[6] = 70.0;
        let ds = Dataset::from_records(&records_with_rtts(&rtts), 10);
        let cfg = AnalysisConfig::default();
        let a = degradation_events(&cfg, &group_of(&ds), DegradationMetric::MinRtt, 5.0);
        assert_eq!(a[6].status, WindowStatus::Event);
        assert_eq!(a[5].status, WindowStatus::Quiet);
        let (diff, lo, hi) = a[6].diff.unwrap();
        assert!((diff - 30.0).abs() < 2.0, "diff = {diff}");
        assert!(lo > 5.0 && hi > diff);
    }

    #[test]
    fn spike_below_threshold_is_quiet() {
        let mut rtts = vec![40.0; 10];
        rtts[3] = 43.0;
        let ds = Dataset::from_records(&records_with_rtts(&rtts), 10);
        let cfg = AnalysisConfig::default();
        let a = degradation_events(&cfg, &group_of(&ds), DegradationMetric::MinRtt, 5.0);
        assert_eq!(a[3].status, WindowStatus::Quiet);
    }

    #[test]
    fn missing_windows_are_no_traffic() {
        let mut recs = records_with_rtts(&[40.0; 4]);
        // Remove window 2 entirely.
        recs.retain(|r| r.window != 2);
        let ds = Dataset::from_records(&recs, 4);
        let cfg = AnalysisConfig::default();
        let a = degradation_events(&cfg, &group_of(&ds), DegradationMetric::MinRtt, 5.0);
        assert_eq!(a[2].status, WindowStatus::NoTraffic);
    }

    #[test]
    fn hdratio_degradation_detected() {
        let group = GroupKey {
            pop: PopId(0),
            prefix: Prefix::new(0x0A000000, 16),
            country: 0,
            continent: 0,
        };
        let mut recs = Vec::new();
        for w in 0..6u32 {
            let center: f64 = if w == 4 { 0.3 } else { 0.95 };
            for i in 0..60 {
                recs.push(SessionRecord {
                    group,
                    window: w,
                    route_rank: 0,
                    relationship: Relationship::PrivatePeer,
                    longer_path: false,
                    more_prepended: false,
                    min_rtt_ns: 40_000_000,
                    hdratio: Some((center + (i as f64 - 30.0) * 0.001).clamp(0.0, 1.0)),
                    bytes: 500,
                });
            }
        }
        let ds = Dataset::from_records(&recs, 6);
        let cfg = AnalysisConfig::default();
        let a = degradation_events(&cfg, &group_of(&ds), DegradationMetric::HdRatio, 0.05);
        assert_eq!(a[4].status, WindowStatus::Event, "{:?}", a[4]);
        assert_eq!(a[1].status, WindowStatus::Quiet);
    }

    #[test]
    fn sparse_samples_are_invalid() {
        let group = GroupKey {
            pop: PopId(0),
            prefix: Prefix::new(0x0A000000, 16),
            country: 0,
            continent: 0,
        };
        let mut recs = records_with_rtts(&[40.0; 3]);
        // Window 3 exists but with only 5 samples.
        for i in 0..5 {
            recs.push(SessionRecord {
                group,
                window: 3,
                route_rank: 0,
                relationship: Relationship::PrivatePeer,
                longer_path: false,
                more_prepended: false,
                min_rtt_ns: 40_000_000 + 1_000_000 * i,
                hdratio: None,
                bytes: 10,
            });
        }
        let ds = Dataset::from_records(&recs, 4);
        let cfg = AnalysisConfig::default();
        let a = degradation_events(&cfg, &group_of(&ds), DegradationMetric::MinRtt, 5.0);
        assert_eq!(a[3].status, WindowStatus::Invalid);
    }
}
