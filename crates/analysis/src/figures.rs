//! Figure-series builders: the distributions behind the paper's Figures
//! 6–10 — the per-session ones (6–7) as exact ranks read in place off the
//! sessions' MinRTTs and as HDratio counts tallied session by session, the
//! traffic-weighted ones (8–10) as queryable weighted CDFs.

use crate::compare::{compare, CompareOutcome};
use crate::config::AnalysisConfig;
use crate::dataset::{GroupData, Summaries};
use crate::degradation::{degradation_events, DegradationMetric};
use crate::hash::FxHashMap;
use crate::opportunity::{opportunity_events, OpportunityMetric};
use crate::record::SessionRecord;
use crate::segment::WindowCell;
use edgeperf_routing::Relationship;
use edgeperf_stats::cdf::{CdfBuilder, WeightedCdf};
use edgeperf_stats::{keyed_quantiles_in_place, Ranks};
use std::collections::BTreeMap;

/// The per-session view Figure 6's MinRTT half reads: every
/// preferred-route (rank 0) session as (continent, MinRTT in ms). The
/// figure takes several passes, so every call must yield the same
/// sessions.
pub trait PreferredSessions {
    /// One pass over the preferred-route sessions.
    fn preferred_sessions(&self) -> impl Iterator<Item = (u8, f64)>;
}

impl PreferredSessions for [SessionRecord] {
    fn preferred_sessions(&self) -> impl Iterator<Item = (u8, f64)> {
        self.iter().filter(|r| r.route_rank == 0).map(|r| (r.group.continent, r.min_rtt_ms()))
    }
}

/// Figures 6–7 count a session as HDratio = 1 when its HDratio exceeds
/// this: the share at 1 is `1 − fraction_below_one()`.
pub(crate) const HDRATIO_BELOW_ONE: f64 = 1.0 - 1e-9;

/// The HDratio point masses of a set of tested sessions: Figures 6–7 read
/// no HDratio CDF, only the share of sessions at 0 and at 1 (and Figure 7
/// a median, from [`HdratioTally`]), so both sinks count them — three
/// integers that add, equal to a per-session CDF's `fraction_leq`
/// readings bit for bit — where a digest would interpolate them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HdratioCounts {
    /// Sessions with an HDratio.
    pub tested: u64,
    /// Of those, sessions with HDratio ≤ 0.
    pub zero: u64,
    /// Of those, sessions with HDratio ≤ `HDRATIO_BELOW_ONE`.
    pub below_one: u64,
}

impl HdratioCounts {
    pub(crate) fn record(&mut self, hdratio: f64) {
        self.tested += 1;
        self.zero += u64::from(hdratio <= 0.0);
        self.below_one += u64::from(hdratio <= HDRATIO_BELOW_ONE);
    }

    pub(crate) fn add(&mut self, other: &HdratioCounts) {
        self.tested += other.tested;
        self.zero += other.zero;
        self.below_one += other.below_one;
    }

    /// `by_continent[continent]`, the list grown to it on first sight.
    pub(crate) fn of(by_continent: &mut Vec<HdratioCounts>, continent: u8) -> &mut HdratioCounts {
        let continent = continent as usize;
        if by_continent.len() <= continent {
            by_continent.resize(continent + 1, HdratioCounts::default());
        }
        &mut by_continent[continent]
    }

    /// Fraction of tested sessions with HDratio = 0, as
    /// `WeightedCdf::fraction_leq(0.0)` divides it.
    pub fn fraction_zero(&self) -> f64 {
        self.zero as f64 / self.tested as f64
    }

    /// Fraction of tested sessions short of HDratio = 1
    /// (`fraction_leq(HDRATIO_BELOW_ONE)`).
    pub fn fraction_below_one(&self) -> f64 {
        self.below_one as f64 / self.tested as f64
    }

    /// Figure 6's HDratio half from counters indexed by continent: overall,
    /// and every continent with a tested session.
    pub(crate) fn rollup(by_continent: &[HdratioCounts]) -> (Self, BTreeMap<u8, Self>) {
        let mut overall = HdratioCounts::default();
        let mut per = BTreeMap::new();
        for (continent, counts) in by_continent.iter().enumerate().filter(|(_, c)| c.tested > 0) {
            overall.add(counts);
            per.insert(continent as u8, *counts);
        }
        (overall, per)
    }
}

/// Figure 6's MinRTT reading of one set of preferred-route sessions: how
/// many there are, and their exact median and 80th percentile (ms).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MinRttQuantiles {
    /// Sessions read.
    pub sessions: u64,
    /// Median MinRTT.
    pub p50: f64,
    /// 80th-percentile MinRTT.
    pub p80: f64,
}

/// Per-session MinRTT quantiles: overall and per continent (Figure 6a/6b).
/// Only preferred-route sessions contribute (the §4 view). The ranks are
/// read in place, every continent's at once ([`keyed_quantiles_in_place`]):
/// the same bits as a CDF of every session, in three walks over the
/// sessions that hold a 32 KiB histogram a continent, then one a wanted
/// rank, then the samples of the 4,096th of an octave each wanted rank
/// fell in. A set's session count is its histogram's sum.
///
/// # Panics
/// Panics when there is no preferred-route session.
pub fn fig6_minrtt<S: PreferredSessions + ?Sized>(
    sessions: &S,
) -> (MinRttQuantiles, BTreeMap<u8, MinRttQuantiles>) {
    let (overall, per) = keyed_quantiles_in_place(|| sessions.preferred_sessions(), &[0.5, 0.8]);
    let read =
        |r: Ranks| MinRttQuantiles { sessions: r.n, p50: r.quantiles[0], p80: r.quantiles[1] };
    (read(overall), per.into_iter().map(|(c, r)| (c, read(r))).collect())
}

/// One MinRTT bucket of Figure 7: the HDratio distribution of its tested
/// preferred-route sessions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig7Bucket {
    /// MinRTT range (ms).
    pub label: &'static str,
    /// The point masses at HDratio 0 and 1.
    pub hdratio: HdratioCounts,
    /// Exact median HDratio.
    pub median: f64,
}

/// Figure 7's MinRTT buckets after the paper — 0–30, 31–50, 51–80, 81+
/// ms — each holding `lo < MinRTT ≤ hi`.
const FIG7_BUCKETS: [(&str, f64, f64); 4] = [
    ("0-30", 0.0, 30.0),
    ("31-50", 30.0, 50.0),
    ("51-80", 50.0, 80.0),
    ("81+", 80.0, f64::INFINITY),
];

/// An HDratio's bits as a map key: halves swapped, since ratios such as
/// k/2ⁿ differ only in their bits' high half and FxHash picks a slot by
/// the low bits.
fn key_of(hdratio: f64) -> u64 {
    hdratio.to_bits().rotate_left(32)
}

/// What Figures 6–7 read of HDratio, tallied session by session: the
/// point masses of every continent's tested preferred-route sessions and,
/// for each of Figure 7's MinRTT buckets, its point masses and a count of
/// each distinct HDratio, from which its exact median is read. It holds
/// an entry a distinct HDratio and bucket, 16 B, not a row a session: a
/// study's HDratios are `achieved / tested` ratios, a few thousand
/// distinct.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HdratioTally {
    /// Indexed by continent; grown on first sight.
    pub(crate) by_continent: Vec<HdratioCounts>,
    /// Indexed like [`FIG7_BUCKETS`].
    pub(crate) buckets: [HdratioCounts; FIG7_BUCKETS.len()],
    /// Sessions a [`key_of`] HDratio, a map a bucket.
    pub(crate) distinct: [FxHashMap<u64, u64>; FIG7_BUCKETS.len()],
}

impl HdratioTally {
    /// The tally of every tested preferred-route session of `records`.
    pub fn of(records: &[SessionRecord]) -> Self {
        let mut tally = HdratioTally::default();
        for r in records.iter().filter(|r| r.route_rank == 0) {
            if let Some(hdratio) = r.hdratio {
                tally.record(r.group.continent, r.min_rtt_ms(), hdratio);
            }
        }
        tally
    }

    /// Count one tested preferred-route session.
    pub(crate) fn record(&mut self, continent: u8, min_rtt: f64, hdratio: f64) {
        HdratioCounts::of(&mut self.by_continent, continent).record(hdratio);
        let bucket = FIG7_BUCKETS.iter().position(|&(_, lo, hi)| min_rtt > lo && min_rtt <= hi);
        if let Some(bucket) = bucket {
            self.buckets[bucket].record(hdratio);
            *self.distinct[bucket].entry(key_of(hdratio)).or_default() += 1;
        }
    }

    /// Add `other`'s sessions: the tally of both sets.
    pub(crate) fn merge(&mut self, other: &HdratioTally) {
        for (continent, counts) in other.by_continent.iter().enumerate() {
            HdratioCounts::of(&mut self.by_continent, continent as u8).add(counts);
        }
        self.buckets.iter_mut().zip(&other.buckets).for_each(|(ours, theirs)| ours.add(theirs));
        for (ours, theirs) in self.distinct.iter_mut().zip(&other.distinct) {
            for (&key, &n) in theirs {
                *ours.entry(key).or_default() += n;
            }
        }
    }

    /// Figure 6's HDratio half (6a/6c): the point masses overall, and for
    /// every continent with a tested session.
    pub fn rollup(&self) -> (HdratioCounts, BTreeMap<u8, HdratioCounts>) {
        HdratioCounts::rollup(&self.by_continent)
    }

    /// HDratio by MinRTT bucket (Figure 7), every bucket with a tested
    /// session.
    pub fn fig7(&self) -> Vec<Fig7Bucket> {
        let labels = FIG7_BUCKETS.iter().map(|&(label, ..)| label);
        let buckets = labels.zip(self.buckets).enumerate();
        let filled = buckets.filter(|(_, (_, counts))| counts.tested > 0);
        let bucket = |(i, (label, hdratio))| Fig7Bucket { label, hdratio, median: self.median(i) };
        filled.map(bucket).collect()
    }

    /// The median [`edgeperf_stats::quantiles_in_place`] reads off Figure 7 bucket
    /// `bucket`'s sessions, bit for bit: the k-th smallest under
    /// `total_cmp`, k the least integer ≥ n / 2 and at least 1, and -0.0
    /// for a zero when any session's HDratio is -0.0.
    fn median(&self, bucket: usize) -> f64 {
        let held = &self.distinct[bucket];
        let mut values: Vec<(f64, u64)> =
            held.iter().map(|(&key, &n)| (f64::from_bits(key.rotate_right(32)), n)).collect();
        assert!(values.iter().all(|(v, _)| v.is_finite()), "bad quantile sample");
        values.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        let k = ((0.5 * self.buckets[bucket].tested as f64).ceil() as u64).max(1);
        let mut seen = 0;
        let kth = values.into_iter().find(|&(_, n)| {
            seen += n;
            seen >= k
        });
        let median = kth.expect("a tested session").0;
        let negative_zero = held.contains_key(&key_of(-0.0));
        if median == 0.0 && negative_zero {
            -0.0
        } else {
            median
        }
    }

    /// Distinct HDratios held, summed over Figure 7's buckets.
    pub fn distinct_hdratios(&self) -> usize {
        self.distinct.iter().map(FxHashMap::len).sum()
    }
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
/// traffic bytes it covers. There is at most one comparison a (group,
/// window), so the three builders are sized to that once rather than
/// grown by doubling in step.
fn diff_cdfs(
    ds: &Summaries,
    points: impl Iterator<Item = ((f64, f64, f64), u64)>,
) -> Option<DiffCdfs> {
    let most = ds.groups.iter().map(|(_, g)| g.n_windows()).sum();
    let builder = || CdfBuilder::with_capacity(most);
    let (mut d, mut l, mut h) = (builder(), builder(), builder());
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
    let enough = |c: &&WindowCell| u64::from(c.n) >= cfg.min_samples as u64;
    let compared = |g: &GroupData<WindowCell>, w: usize| {
        let pref = g.cell(0, w).filter(enough)?;
        // First (most preferred) alternate with the matching type.
        let alt = (1..g.ranks.len())
            .filter_map(|r| g.cell(r, w))
            .find(|c| enough(c) && pair.matches(pref.relationship(), c.relationship()))?;
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
    use crate::record::{ns, GroupKey};
    use edgeperf_routing::{PopId, Prefix};
    use edgeperf_stats::quantiles_in_place;

    fn rec(continent: u8, rank: u8, rtt_ns: u32, hdr: Option<f64>) -> SessionRecord {
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
            min_rtt_ns: rtt_ns,
            hdratio: hdr,
            bytes: 100,
        }
    }

    #[test]
    fn fig6_splits_by_continent() {
        let records = [
            rec(0, 0, 20_000_000, Some(1.0)),
            rec(0, 0, 30_000_000, Some(1.0)),
            rec(1, 0, 80_000_000, Some(0.2)),
            rec(1, 0, 90_000_000, None),
            rec(1, 1, 10_000_000, Some(1.0)), // alternate: excluded from fig6
        ];
        let (overall, per) = fig6_minrtt(&records[..]);
        assert_eq!(overall, MinRttQuantiles { sessions: 4, p50: 30.0, p80: 90.0 });
        assert_eq!(per.len(), 2);
        assert_eq!((per[&0].p50, per[&1].p50, per[&1].sessions), (20.0, 80.0, 2));
        let (hdr_overall, hdr_per) = HdratioTally::of(&records).rollup();
        assert_eq!(hdr_overall, HdratioCounts { tested: 3, zero: 0, below_one: 1 });
        assert_eq!(hdr_per[&1].tested, 1);
    }

    #[test]
    fn fig7_buckets_split_on_minrtt() {
        let records = [
            rec(0, 0, 10_000_000, Some(1.0)),
            rec(0, 0, 40_000_000, Some(0.8)),
            rec(0, 0, 70_000_000, Some(0.5)),
            rec(0, 0, 120_000_000, Some(0.1)),
        ];
        let buckets = HdratioTally::of(&records).fig7();
        let labels: Vec<_> = buckets.iter().map(|b| b.label).collect();
        assert_eq!(labels, ["0-30", "31-50", "51-80", "81+"]);
        // Lower-latency buckets have higher HDratio.
        assert_eq!((buckets[0].median, buckets[3].median), (1.0, 0.1));
        assert_eq!(buckets[0].hdratio, HdratioCounts { tested: 1, zero: 0, below_one: 0 });
        // A bucket nobody tested in is left out.
        assert_eq!(HdratioTally::of(&records[1..3]).fig7().len(), 2);
    }

    /// Figure 7 as it was read off the sessions themselves, floats as bits:
    /// every bucket with a tested preferred-route session, its point masses
    /// counted and its median [`quantiles_in_place`]'s.
    fn fig7_in_place(records: &[SessionRecord]) -> Vec<(&'static str, HdratioCounts, u64)> {
        let bucket = |&(label, lo, hi): &(&'static str, f64, f64)| {
            let preferred = records.iter().filter(|r| r.route_rank == 0);
            let within = move |r: &&SessionRecord| r.min_rtt_ms() > lo && r.min_rtt_ms() <= hi;
            let tested = move || preferred.clone().filter(within).filter_map(|r| r.hdratio);
            let mut counts = HdratioCounts::default();
            tested().for_each(|h| counts.record(h));
            let median = (counts.tested > 0).then(|| quantiles_in_place(tested, &[0.5])[0]);
            Some((label, counts, median?.to_bits()))
        };
        FIG7_BUCKETS.iter().filter_map(bucket).collect()
    }

    #[test]
    fn the_tally_reads_figure_7_as_the_sessions_read_in_place() {
        let tested = |rtt: f64, hdratios: &[f64]| -> Vec<SessionRecord> {
            hdratios.iter().map(|&h| rec(0, 0, ns(rtt), Some(h))).collect()
        };
        let repeated = |value: f64, n: usize| vec![value; n];
        // k/n ratios as the runner writes them, in every bucket, with
        // untested and alternate-route sessions beside them.
        let ratios: Vec<SessionRecord> = (0..5_000usize)
            .map(|i| {
                let n = 1 + i % 37;
                let h = (i * 7_919 % (n + 1)) as f64 / n as f64;
                let rank = u8::from(i % 11 == 0);
                rec((i % 5) as u8, rank, ns(5.0 + (i * 13 % 1_200) as f64 / 10.0), Some(h))
            })
            .chain((0..100).map(|i| rec(1, 0, ns(40.0 + i as f64), None)))
            .collect();
        let cases: Vec<Vec<SessionRecord>> = vec![
            // -0.0 beside 0.0: the median a zero, of either sign.
            tested(10.0, &[-0.0, 0.0, 0.0, 0.5]),
            tested(10.0, &[0.0, 0.0, -0.0]),
            tested(10.0, &[0.0, 0.0, 0.7]),
            tested(10.0, &[-0.0, -0.0, 0.0, 0.3]),
            // -0.0 present, the median not a zero.
            tested(10.0, &[-0.0, 0.3, 0.4]),
            // One value.
            tested(45.0, &[0.25]),
            // Heavy duplicates, the median in the run at 1 and at an inner value.
            tested(60.0, &[repeated(1.0, 1_000), repeated(0.0, 300), repeated(0.5, 20)].concat()),
            tested(99.0, &[repeated(0.75, 500), repeated(0.0, 250), repeated(1.0, 249)].concat()),
            // The point masses at 0 and 1 alone, an even and an odd split.
            tested(20.0, &[repeated(0.0, 500), repeated(1.0, 500)].concat()),
            tested(20.0, &[repeated(0.0, 500), repeated(1.0, 501)].concat()),
            // An empty bucket: 31–50 has sessions, none tested.
            [tested(20.0, &[0.5, 0.6]), vec![rec(0, 0, 40_000_000, None)], tested(90.0, &[0.1])]
                .concat(),
            // MinRTT exactly on the edges (and at 0, in no bucket).
            tested(30.0, &[0.1, 0.2])
                .into_iter()
                .chain(tested(50.0, &[0.3]))
                .chain(tested(80.0, &[0.4, 0.9, 0.9]))
                .chain(tested(0.0, &[1.0]))
                .collect(),
            ratios,
        ];
        for (i, records) in cases.iter().enumerate() {
            let tally = HdratioTally::of(records);
            let got = tally.fig7().into_iter().map(|b| (b.label, b.hdratio, b.median.to_bits()));
            assert_eq!(got.collect::<Vec<_>>(), fig7_in_place(records), "case {i}");
        }
        // The cases are the ones named: the reference could agree on others.
        let fig7 = |case: usize| HdratioTally::of(&cases[case]).fig7();
        let medians = (0..5).map(|case| fig7(case)[0].median.to_bits()).collect::<Vec<_>>();
        let negative_zero = (-0.0f64).to_bits();
        assert_eq!(medians, [negative_zero, negative_zero, 0, negative_zero, 0.3f64.to_bits()]);
        let sizes = |case: usize| -> Vec<(&str, u64)> {
            fig7(case).iter().map(|b| (b.label, b.hdratio.tested)).collect()
        };
        assert_eq!(sizes(10), [("0-30", 2), ("81+", 1)]);
        assert_eq!(sizes(11), [("0-30", 2), ("31-50", 1), ("51-80", 3)]);
        assert_eq!(sizes(12).len(), 4);
        assert_eq!([fig7(7)[0].median, fig7(8)[0].median, fig7(9)[0].median], [0.75, 0.0, 1.0]);
    }

    #[test]
    fn fig8_and_fig9_produce_cdfs_on_synthetic_data() {
        // Two routes, alternate clearly better in every window.
        let mut records = Vec::new();
        for w in 0..3u32 {
            for rank in 0..2u8 {
                for i in 0..40 {
                    let mut r = rec(0, rank, 0, Some(0.9));
                    r.window = w;
                    r.min_rtt_ns =
                        ns(if rank == 0 { 55.0 } else { 40.0 } + (i as f64 - 20.0) * 0.05);
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
                let mut r = rec(0, rank, 0, Some(0.9));
                r.min_rtt_ns = ns(if rank == 0 { 50.0 } else { 48.0 } + (i as f64 - 20.0) * 0.05);
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
