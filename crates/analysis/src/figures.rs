//! Figure-series builders: the distributions behind the paper's Figures
//! 6–10 as queryable weighted CDFs.

use crate::compare::{compare, CompareOutcome};
use crate::config::AnalysisConfig;
use crate::dataset::{CellSummary, GroupData, Summaries};
use crate::degradation::{degradation_events, DegradationMetric};
use crate::opportunity::{opportunity_events, OpportunityMetric};
use crate::record::SessionRecord;
use edgeperf_routing::Relationship;
use edgeperf_stats::cdf::{CdfBuilder, WeightedCdf};
use std::collections::BTreeMap;

/// The per-session view Figures 6–7 read: every preferred-route (rank 0)
/// session as (continent, MinRTT in ms, HDratio if it tested). The figures
/// take several passes, so every call must yield the same sessions.
pub trait PreferredSessions {
    /// One pass over the preferred-route sessions.
    fn preferred_sessions(&self) -> impl Iterator<Item = (u8, f64, Option<f64>)>;
}

impl PreferredSessions for [SessionRecord] {
    fn preferred_sessions(&self) -> impl Iterator<Item = (u8, f64, Option<f64>)> {
        self.iter()
            .filter(|r| r.route_rank == 0)
            .map(|r| (r.group.continent, r.min_rtt_ms, r.hdratio))
    }
}

/// Figures 6–7 count a session as HDratio = 1 when its HDratio exceeds
/// this: the share at 1 is `1 − fraction_leq(HDRATIO_BELOW_ONE)`.
pub const HDRATIO_BELOW_ONE: f64 = 1.0 - 1e-9;

/// Figure 6's CDFs of one per-session metric: overall and per continent.
pub(crate) type Fig6Cdfs = (WeightedCdf, BTreeMap<u8, WeightedCdf>);

/// Per-session MinRTT CDFs: overall and per continent (Figure 6a/6b).
/// Only preferred-route sessions contribute (the §4 view).
pub fn fig6_minrtt<S: PreferredSessions + ?Sized>(sessions: &S) -> Fig6Cdfs {
    collected(sessions, DegradationMetric::MinRtt)
}

/// Per-session HDratio CDFs: overall and per continent (Figure 6a/6c).
pub fn fig6_hdratio<S: PreferredSessions + ?Sized>(sessions: &S) -> Fig6Cdfs {
    collected(sessions, DegradationMetric::HdRatio)
}

/// Every CDF [`fig6_cdfs`] yields, kept: a study's worth of samples twice
/// over. Fine for tests and small studies; `repro` reads and drops them
/// one at a time instead.
fn collected<S: PreferredSessions + ?Sized>(sessions: &S, metric: DegradationMetric) -> Fig6Cdfs {
    let (mut overall, mut per) = (None, BTreeMap::new());
    fig6_cdfs(sessions, metric, |continent, cdf| match continent {
        None => overall = Some(cdf),
        Some(c) => {
            per.insert(c, cdf);
        }
    });
    (overall.expect("the overall CDF is visited first"), per)
}

/// Figure 6's per-session CDFs of `metric` over preferred-route sessions,
/// handed to `visit` by value: the overall CDF first (`None`), then each
/// continent's in ascending order. A CDF is 16 B a session, so a visitor
/// that reads what it needs and drops the CDF keeps one study's worth of
/// samples alive at a time — the overall CDF is gone before the
/// continents' builders exist.
pub fn fig6_cdfs<S: PreferredSessions + ?Sized>(
    sessions: &S,
    metric: DegradationMetric,
    mut visit: impl FnMut(Option<u8>, WeightedCdf),
) {
    let samples = || {
        sessions.preferred_sessions().filter_map(|(c, min_rtt, hdratio)| match metric {
            DegradationMetric::MinRtt => Some((c, min_rtt)),
            DegradationMetric::HdRatio => Some((c, hdratio?)),
        })
    };
    // Count first, so every builder is born at its final size.
    let mut counts: BTreeMap<u8, usize> = BTreeMap::new();
    for (continent, _) in samples() {
        *counts.entry(continent).or_default() += 1;
    }
    let mut overall = CdfBuilder::with_capacity(counts.values().sum());
    samples().for_each(|(_, v)| overall.push(v));
    visit(None, overall.build());
    let mut per: BTreeMap<u8, CdfBuilder> =
        counts.iter().map(|(&c, &n)| (c, CdfBuilder::with_capacity(n))).collect();
    for (continent, v) in samples() {
        per.get_mut(&continent).expect("continent was counted").push(v);
    }
    per.into_iter().for_each(|(c, b)| visit(Some(c), b.build()));
}

/// HDratio CDFs per MinRTT bucket (Figure 7). Buckets follow the paper:
/// 0–30, 31–50, 51–80, 81+ ms.
pub fn fig7_hdratio_by_minrtt<S: PreferredSessions + ?Sized>(
    sessions: &S,
) -> Vec<(&'static str, WeightedCdf)> {
    // A bucket holds `lo < MinRTT ≤ hi`.
    const BUCKETS: [(&str, f64, f64); 4] = [
        ("0-30", 0.0, 30.0),
        ("31-50", 30.0, 50.0),
        ("51-80", 50.0, 80.0),
        ("81+", 80.0, f64::INFINITY),
    ];
    let mut builders: [CdfBuilder; 4] = Default::default();
    for (_, min_rtt, hdratio) in sessions.preferred_sessions() {
        let Some(h) = hdratio else { continue };
        if let Some(i) = BUCKETS.iter().position(|&(_, lo, hi)| min_rtt > lo && min_rtt <= hi) {
            builders[i].push(h);
        }
    }
    BUCKETS
        .iter()
        .zip(builders)
        .filter(|(_, b)| !b.is_empty())
        .map(|(&(label, ..), b)| (label, b.build()))
        .collect()
}

/// Traffic-weighted CDFs of a comparison series: point estimate plus the
/// lower/upper CI-bound distributions (the shaded bands of Figs 8 and 9).
#[derive(Debug, Clone)]
pub struct DiffCdfs {
    /// CDF of the point differences.
    pub diff: WeightedCdf,
    /// CDF of the CI lower bounds.
    pub lo: WeightedCdf,
    /// CDF of the CI upper bounds.
    pub hi: WeightedCdf,
    /// Fraction of dataset traffic contributing valid comparisons.
    pub traffic_covered: f64,
}

/// Weighted CDFs of `(diff, lo, hi)` comparisons, each weighted by the
/// traffic bytes it covers.
fn diff_cdfs(
    ds: &Summaries,
    points: impl Iterator<Item = ((f64, f64, f64), u64)>,
) -> Option<DiffCdfs> {
    let (mut d, mut l, mut h) = (CdfBuilder::new(), CdfBuilder::new(), CdfBuilder::new());
    let mut covered = 0u64;
    for ((diff, lo, hi), bytes) in points {
        let w = bytes as f64;
        d.push_weighted(diff, w);
        l.push_weighted(lo, w);
        h.push_weighted(hi, w);
        covered += bytes;
    }
    if d.is_empty() {
        return None;
    }
    Some(DiffCdfs {
        diff: d.build(),
        lo: l.build(),
        hi: h.build(),
        traffic_covered: covered as f64 / ds.preferred_bytes().max(1) as f64,
    })
}

/// Figure 8: degradation of each valid window vs the group baseline,
/// weighted by window traffic.
pub fn fig8_degradation(
    cfg: &AnalysisConfig,
    ds: &Summaries,
    metric: DegradationMetric,
) -> Option<DiffCdfs> {
    let windows =
        ds.groups.iter().flat_map(|(_, g)| degradation_events(cfg, g, metric, f64::INFINITY));
    diff_cdfs(ds, windows.filter_map(|a| Some((a.diff?, a.bytes))))
}

/// Figure 9: preferred vs best alternate difference per valid window,
/// weighted by traffic. Positive = alternate better.
pub fn fig9_opportunity(
    cfg: &AnalysisConfig,
    ds: &Summaries,
    metric: OpportunityMetric,
) -> Option<DiffCdfs> {
    let windows =
        ds.groups.iter().flat_map(|(_, g)| opportunity_events(cfg, g, metric, f64::INFINITY));
    diff_cdfs(ds, windows.filter_map(|a| Some((a.diff?, a.bytes))))
}

/// The relationship pairs Figure 10 compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RelPair {
    /// Preferred is a peer (private or public), alternate is a transit.
    PeeringVsTransit,
    /// Preferred and alternate are both transits.
    TransitVsTransit,
    /// Preferred is a private peer, alternate a public peer.
    PrivateVsPublic,
}

impl RelPair {
    fn matches(&self, pref: Relationship, alt: Relationship) -> bool {
        match self {
            RelPair::PeeringVsTransit => pref.is_peer() && alt == Relationship::Transit,
            RelPair::TransitVsTransit => {
                pref == Relationship::Transit && alt == Relationship::Transit
            }
            RelPair::PrivateVsPublic => {
                pref == Relationship::PrivatePeer && alt == Relationship::PublicPeer
            }
        }
    }

    /// Label used in figure legends.
    pub fn label(&self) -> &'static str {
        match self {
            RelPair::PeeringVsTransit => "Peering vs Transit",
            RelPair::TransitVsTransit => "Transit vs Transit",
            RelPair::PrivateVsPublic => "Private vs Public",
        }
    }
}

/// Figure 10: MinRTT_P50 difference (preferred − alternate) by
/// relationship pair, weighted by traffic. Positive = alternate better.
/// Unlike Fig 9 this compares against the most *policy-preferred*
/// alternate of the pair's type, not the best performer.
pub fn fig10_by_relationship(
    cfg: &AnalysisConfig,
    ds: &Summaries,
    pair: RelPair,
) -> Option<DiffCdfs> {
    let compared = |g: &GroupData<CellSummary>, w: usize| {
        let pref = g.cell(0, w).filter(|c| c.n >= cfg.min_samples)?;
        // First (most preferred) alternate with the matching type.
        let alt = (1..g.ranks.len())
            .filter_map(|r| g.cell(r, w))
            .find(|c| c.n >= cfg.min_samples && pair.matches(pref.relationship, c.relationship))?;
        match compare(cfg, DegradationMetric::MinRtt, pref, alt) {
            CompareOutcome::Valid { diff, lo, hi } => Some(((diff, lo, hi), pref.bytes)),
            CompareOutcome::Invalid => None,
        }
    };
    let windows = ds.groups.iter().flat_map(|(_, g)| (0..g.n_windows()).map(move |w| (g, w)));
    diff_cdfs(ds, windows.filter_map(|(g, w)| compared(g, w)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::record::GroupKey;
    use edgeperf_routing::{PopId, Prefix};

    fn rec(continent: u8, rank: u8, rtt: f64, hdr: Option<f64>) -> SessionRecord {
        SessionRecord {
            group: GroupKey {
                pop: PopId(0),
                prefix: Prefix::new((continent as u32) << 24, 16),
                country: continent as u16,
                continent,
            },
            window: 0,
            route_rank: rank,
            relationship: if rank == 0 { Relationship::PrivatePeer } else { Relationship::Transit },
            longer_path: false,
            more_prepended: false,
            min_rtt_ms: rtt,
            hdratio: hdr,
            bytes: 100,
        }
    }

    #[test]
    fn fig6_splits_by_continent() {
        let records = [
            rec(0, 0, 20.0, Some(1.0)),
            rec(0, 0, 30.0, Some(1.0)),
            rec(1, 0, 80.0, Some(0.2)),
            rec(1, 0, 90.0, None),
            rec(1, 1, 10.0, Some(1.0)), // alternate: excluded from fig6
        ];
        let (overall, per) = fig6_minrtt(&records[..]);
        assert_eq!(overall.total_weight(), 4.0);
        assert_eq!(per.len(), 2);
        assert!(per[&0].quantile(0.5) < per[&1].quantile(0.5));
        let (hdr_overall, hdr_per) = fig6_hdratio(&records[..]);
        assert_eq!(hdr_overall.total_weight(), 3.0);
        assert_eq!(hdr_per[&1].total_weight(), 1.0);
    }

    #[test]
    fn fig7_buckets_split_on_minrtt() {
        let records = [
            rec(0, 0, 10.0, Some(1.0)),
            rec(0, 0, 40.0, Some(0.8)),
            rec(0, 0, 70.0, Some(0.5)),
            rec(0, 0, 120.0, Some(0.1)),
        ];
        let buckets = fig7_hdratio_by_minrtt(&records[..]);
        assert_eq!(buckets.len(), 4);
        // Lower-latency buckets have higher HDratio.
        assert!(buckets[0].1.quantile(0.5) > buckets[3].1.quantile(0.5));
    }

    #[test]
    fn fig8_and_fig9_produce_cdfs_on_synthetic_data() {
        // Two routes, alternate clearly better in every window.
        let mut records = Vec::new();
        for w in 0..3u32 {
            for rank in 0..2u8 {
                for i in 0..40 {
                    let mut r = rec(0, rank, 0.0, Some(0.9));
                    r.window = w;
                    r.min_rtt_ms = if rank == 0 { 55.0 } else { 40.0 } + (i as f64 - 20.0) * 0.05;
                    records.push(r);
                }
            }
        }
        let ds = Dataset::from_records(&records, 3).summarize();
        let cfg = AnalysisConfig::default();
        let deg = fig8_degradation(&cfg, &ds, DegradationMetric::MinRtt).unwrap();
        // Stable series: degradation concentrated at ~0.
        assert!(deg.diff.quantile(0.9) < 2.0);
        let opp = fig9_opportunity(&cfg, &ds, OpportunityMetric::MinRtt).unwrap();
        assert!((opp.diff.quantile(0.5) - 15.0).abs() < 2.0);
        assert!(opp.traffic_covered > 0.0);
    }

    #[test]
    fn fig10_filters_by_pair() {
        let mut records = Vec::new();
        for rank in 0..2u8 {
            for i in 0..40 {
                let mut r = rec(0, rank, 0.0, Some(0.9));
                r.min_rtt_ms = if rank == 0 { 50.0 } else { 48.0 } + (i as f64 - 20.0) * 0.05;
                records.push(r);
            }
        }
        let ds = Dataset::from_records(&records, 1).summarize();
        let cfg = AnalysisConfig::default();
        assert!(fig10_by_relationship(&cfg, &ds, RelPair::PeeringVsTransit).is_some());
        // No transit-preferred groups in this dataset.
        assert!(fig10_by_relationship(&cfg, &ds, RelPair::TransitVsTransit).is_none());
        assert!(fig10_by_relationship(&cfg, &ds, RelPair::PrivateVsPublic).is_none());
    }
}
