//! Opportunity for performance-aware routing (§6.2): within each window,
//! compare the preferred route against the best-performing alternate.
//!
//! Sign convention: positive difference = the alternate is better
//! (opportunity). HDratio takes priority: a MinRTT opportunity only
//! counts if the alternate's HDratio_P50 is statistically equal to or
//! better than the preferred route's (§3.4).

use crate::compare::{deficit, CompareOutcome};
use crate::config::AnalysisConfig;
use crate::dataset::GroupData;
use crate::degradation::{DegradationMetric, WindowStatus};
use crate::segment::WindowCell;
use edgeperf_routing::Relationship;

/// Metric for opportunity analysis (alias of the degradation metric).
pub type OpportunityMetric = DegradationMetric;

/// Assessment of one window's routing opportunity; the default is a
/// window without traffic.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpportunityAssessment {
    /// Status of the comparison.
    pub status: WindowStatus,
    /// (diff, lo, hi); positive = alternate better.
    pub diff: Option<(f64, f64, f64)>,
    /// Rank of the compared alternate route.
    pub alt_rank: Option<u8>,
    /// Relationship of the alternate route.
    pub alt_relationship: Option<Relationship>,
    /// Relationship of the preferred route.
    pub pref_relationship: Option<Relationship>,
    /// The alternate's AS path was longer than the preferred route's.
    pub alt_longer: bool,
    /// The alternate was prepended more than the preferred route.
    pub alt_prepended: bool,
    /// Traffic bytes on the preferred route in this window.
    pub bytes: u64,
}

/// Select the best alternate cell for this window by the metric's point
/// estimate (lowest MinRTT_P50 / highest HDratio_P50) among alternates
/// with enough samples.
fn best_alternate<'a>(
    cfg: &AnalysisConfig,
    group: &'a GroupData<WindowCell>,
    window: usize,
    metric: OpportunityMetric,
) -> Option<(u8, &'a WindowCell)> {
    let mut best: Option<(u8, &WindowCell, f64)> = None;
    for rank in 1..group.ranks.len() {
        let cell = match group.cell(rank, window) {
            Some(c) if c.n >= cfg.min_samples as u64 => c,
            _ => continue,
        };
        let Some(p50) = cell.p50(metric) else { continue };
        let score = if metric == OpportunityMetric::MinRtt { -p50 } else { p50 };
        if best.is_none_or(|(_, _, s)| score > s) {
            best = Some((rank as u8, cell, score));
        }
    }
    best.map(|(r, c, _)| (r, c))
}

/// Assess every window of a group for routing opportunity on `metric` at
/// `threshold`.
pub fn opportunity_events(
    cfg: &AnalysisConfig,
    group: &GroupData<WindowCell>,
    metric: OpportunityMetric,
    threshold: f64,
) -> Vec<OpportunityAssessment> {
    (0..group.n_windows())
        .map(|w| {
            let pref = match group.cell(0, w) {
                None => return OpportunityAssessment::default(),
                Some(c) => c,
            };
            let invalid = OpportunityAssessment {
                status: WindowStatus::Invalid,
                pref_relationship: Some(pref.relationship()),
                bytes: pref.bytes,
                ..OpportunityAssessment::default()
            };
            let Some((alt_rank, alt)) = best_alternate(cfg, group, w, metric) else {
                return invalid;
            };
            // Positive = the preferred route is worse than the alternate.
            let CompareOutcome::Valid { diff, lo, hi } = deficit(cfg, metric, pref, alt) else {
                return invalid;
            };

            let mut event = lo > threshold;
            if event && metric == OpportunityMetric::MinRtt {
                // HDratio priority: the alternate must not be
                // statistically worse on HDratio.
                match deficit(cfg, OpportunityMetric::HdRatio, pref, alt) {
                    CompareOutcome::Valid { hi: h_hi, .. } if h_hi < 0.0 => event = false,
                    _ => {}
                }
            }

            OpportunityAssessment {
                status: if event { WindowStatus::Event } else { WindowStatus::Quiet },
                diff: Some((diff, lo, hi)),
                alt_rank: Some(alt_rank),
                alt_relationship: Some(alt.relationship()),
                pref_relationship: Some(pref.relationship()),
                alt_longer: alt.longer_path(),
                alt_prepended: alt.more_prepended(),
                bytes: pref.bytes,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::record::{GroupKey, SessionRecord};
    use edgeperf_routing::{PopId, Prefix};

    /// Build a group where rank 0 has `pref_rtt` and rank 1 `alt_rtt`.
    fn two_route_records(pref_rtt: f64, alt_rtt: f64, windows: u32) -> Vec<SessionRecord> {
        let group = GroupKey {
            pop: PopId(0),
            prefix: Prefix::new(0x0A000000, 16),
            country: 0,
            continent: 0,
        };
        let mut out = Vec::new();
        for w in 0..windows {
            for (rank, center, rel) in
                [(0u8, pref_rtt, Relationship::PrivatePeer), (1u8, alt_rtt, Relationship::Transit)]
            {
                for i in 0..60 {
                    out.push(SessionRecord {
                        group,
                        window: w,
                        route_rank: rank,
                        relationship: rel,
                        longer_path: rank == 1,
                        more_prepended: false,
                        min_rtt_ms: center + (i as f64 - 30.0) * 0.05,
                        hdratio: Some(0.9 + (i % 10) as f64 * 0.01),
                        bytes: 800,
                    });
                }
            }
        }
        out
    }

    fn cfg() -> AnalysisConfig {
        AnalysisConfig::default()
    }

    #[test]
    fn better_alternate_is_opportunity() {
        let ds = Dataset::from_records(&two_route_records(60.0, 45.0, 3), 3);
        let g = &ds.summarize().groups.remove(0).1;
        let a = opportunity_events(&cfg(), g, OpportunityMetric::MinRtt, 5.0);
        for w in &a {
            assert_eq!(w.status, WindowStatus::Event, "{w:?}");
            assert_eq!(w.alt_rank, Some(1));
            assert_eq!(w.alt_relationship, Some(Relationship::Transit));
            assert_eq!(w.pref_relationship, Some(Relationship::PrivatePeer));
            assert!(w.alt_longer);
            let (diff, _, _) = w.diff.unwrap();
            assert!((diff - 15.0).abs() < 2.0);
        }
    }

    #[test]
    fn equal_routes_are_quiet() {
        let ds = Dataset::from_records(&two_route_records(50.0, 50.0, 3), 3);
        let g = &ds.summarize().groups.remove(0).1;
        let a = opportunity_events(&cfg(), g, OpportunityMetric::MinRtt, 5.0);
        assert!(a.iter().all(|w| w.status == WindowStatus::Quiet));
    }

    #[test]
    fn worse_alternate_is_quiet_with_negative_diff() {
        let ds = Dataset::from_records(&two_route_records(40.0, 55.0, 2), 2);
        let g = &ds.summarize().groups.remove(0).1;
        let a = opportunity_events(&cfg(), g, OpportunityMetric::MinRtt, 5.0);
        for w in &a {
            assert_eq!(w.status, WindowStatus::Quiet);
            assert!(w.diff.unwrap().0 < -10.0);
        }
    }

    #[test]
    fn no_alternate_measurements_is_invalid() {
        let mut recs = two_route_records(50.0, 45.0, 2);
        recs.retain(|r| r.route_rank == 0);
        let ds = Dataset::from_records(&recs, 2);
        let g = &ds.summarize().groups.remove(0).1;
        let a = opportunity_events(&cfg(), g, OpportunityMetric::MinRtt, 5.0);
        assert!(a.iter().all(|w| w.status == WindowStatus::Invalid));
    }

    #[test]
    fn minrtt_opportunity_vetoed_by_bad_alt_hdratio() {
        let group = GroupKey {
            pop: PopId(0),
            prefix: Prefix::new(0x0A000000, 16),
            country: 0,
            continent: 0,
        };
        let mut recs = Vec::new();
        for (rank, rtt, hdr, rel) in [
            (0u8, 60.0, 0.95, Relationship::PrivatePeer),
            (1u8, 45.0, 0.30, Relationship::Transit), // faster but can't sustain HD
        ] {
            for i in 0..60 {
                recs.push(SessionRecord {
                    group,
                    window: 0,
                    route_rank: rank,
                    relationship: rel,
                    longer_path: false,
                    more_prepended: false,
                    min_rtt_ms: rtt + (i as f64 - 30.0) * 0.05,
                    hdratio: Some((hdr + (i % 10) as f64 * 0.005).clamp(0.0, 1.0)),
                    bytes: 100,
                });
            }
        }
        let ds = Dataset::from_records(&recs, 1);
        let g = &ds.summarize().groups.remove(0).1;
        let a = opportunity_events(&cfg(), g, OpportunityMetric::MinRtt, 5.0);
        assert_eq!(a[0].status, WindowStatus::Quiet, "HDratio veto must apply: {:?}", a[0]);
    }

    #[test]
    fn hdratio_opportunity_detected() {
        let group = GroupKey {
            pop: PopId(0),
            prefix: Prefix::new(0x0A000000, 16),
            country: 0,
            continent: 0,
        };
        let mut recs = Vec::new();
        for (rank, hdr, rel) in
            [(0u8, 0.4, Relationship::PublicPeer), (1u8, 0.9, Relationship::Transit)]
        {
            for i in 0..60 {
                recs.push(SessionRecord {
                    group,
                    window: 0,
                    route_rank: rank,
                    relationship: rel,
                    longer_path: false,
                    more_prepended: true,
                    min_rtt_ms: 50.0,
                    hdratio: Some((hdr + (i % 10) as f64 * 0.005).clamp(0.0, 1.0)),
                    bytes: 100,
                });
            }
        }
        let ds = Dataset::from_records(&recs, 1);
        let g = &ds.summarize().groups.remove(0).1;
        let a = opportunity_events(&cfg(), g, OpportunityMetric::HdRatio, 0.05);
        assert_eq!(a[0].status, WindowStatus::Event);
        assert!(a[0].alt_prepended);
        assert!(a[0].diff.unwrap().0 > 0.4);
    }
}
