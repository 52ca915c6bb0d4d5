//! Table builders: the paper's Table 1 (temporal behaviour classes ×
//! thresholds × continents) and Table 2 (opportunity by relationship
//! type of preferred and alternate routes).

use crate::classify::{classify_group, TemporalClass};
use crate::config::AnalysisConfig;
use crate::dataset::Summaries;
use crate::degradation::{degradation_events, DegradationMetric, WindowStatus};
use crate::opportunity::opportunity_events;
use edgeperf_routing::Relationship;
use std::collections::BTreeMap;

/// Which analysis a Table-1 column describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnalysisKind {
    /// Degradation vs baseline (§5).
    Degradation,
    /// Opportunity vs best alternate (§6).
    Opportunity,
}

/// One Table-1 cell: traffic shares for a (class, continent) bucket.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Share {
    /// Fraction of traffic on groups assigned to this class
    /// (the paper's blue column).
    pub group_share: f64,
    /// Fraction of traffic sent *during* eventful windows
    /// (the orange column).
    pub event_share: f64,
}

/// Table 1 for one metric/threshold: shares per class, overall and per
/// continent.
#[derive(Debug, Clone, Default)]
pub struct Table1 {
    /// Overall shares per class (normalized by total traffic).
    pub overall: BTreeMap<TemporalClass, Share>,
    /// Per-continent shares (normalized by the continent's traffic).
    pub per_continent: BTreeMap<(TemporalClass, u8), Share>,
}

/// Compute Table 1 for a metric at a threshold.
pub fn table1(
    cfg: &AnalysisConfig,
    ds: &Summaries,
    kind: AnalysisKind,
    metric: DegradationMetric,
    threshold: f64,
) -> Table1 {
    // Per class: (bytes of its groups, bytes of their eventful windows).
    let mut overall: BTreeMap<TemporalClass, (u64, u64)> = BTreeMap::new();
    let mut per_continent: BTreeMap<(TemporalClass, u8), (u64, u64)> = BTreeMap::new();
    let mut cont_total: BTreeMap<u8, u64> = BTreeMap::new();
    let mut total = 0u64;

    for (key, g) in &ds.groups {
        let windows: Vec<(WindowStatus, u64)> = match kind {
            AnalysisKind::Degradation => degradation_events(cfg, g, metric, threshold)
                .iter()
                .map(|a| (a.status, a.bytes))
                .collect(),
            AnalysisKind::Opportunity => opportunity_events(cfg, g, metric, threshold)
                .iter()
                .map(|a| (a.status, a.bytes))
                .collect(),
        };
        let statuses: Vec<WindowStatus> = windows.iter().map(|w| w.0).collect();
        let class = classify_group(cfg, &statuses);
        let ebytes: u64 = windows.iter().filter(|w| w.0 == WindowStatus::Event).map(|w| w.1).sum();

        total += g.total_bytes;
        *cont_total.entry(key.continent).or_default() += g.total_bytes;
        for acc in [
            overall.entry(class).or_default(),
            per_continent.entry((class, key.continent)).or_default(),
        ] {
            acc.0 += g.total_bytes;
            acc.1 += ebytes;
        }
    }

    let share = |(group, event): (u64, u64), of: u64| Share {
        group_share: group as f64 / of.max(1) as f64,
        event_share: event as f64 / of.max(1) as f64,
    };
    Table1 {
        overall: overall.into_iter().map(|(class, b)| (class, share(b, total))).collect(),
        per_continent: per_continent
            .into_iter()
            .map(|((class, cont), b)| ((class, cont), share(b, cont_total[&cont])))
            .collect(),
    }
}

/// One Table-2 row: opportunity traffic for a (preferred, alternate)
/// relationship pair.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Table2Row {
    /// Fraction of total traffic with opportunity on this pair.
    pub absolute: f64,
    /// Fraction of all opportunity on this pair (sums to 1).
    pub relative: f64,
    /// Of this pair's opportunity, fraction where the alternate's AS
    /// path was longer than the preferred route's.
    pub longer: f64,
    /// Of this pair's opportunity, fraction where the alternate was
    /// prepended more.
    pub prepended: f64,
}

/// Table 2: opportunity broken down by relationship pair.
pub fn table2(
    cfg: &AnalysisConfig,
    ds: &Summaries,
    metric: DegradationMetric,
    threshold: f64,
) -> BTreeMap<(Relationship, Relationship), Table2Row> {
    // Per pair: opportunity bytes, and those on a longer / more prepended
    // alternate.
    let mut pairs: BTreeMap<(Relationship, Relationship), (u64, u64, u64)> = BTreeMap::new();
    let mut total = 0u64;
    let mut total_opp = 0u64;

    for (_, g) in &ds.groups {
        total += g.total_bytes;
        for a in opportunity_events(cfg, g, metric, threshold) {
            if a.status != WindowStatus::Event {
                continue;
            }
            let key = (a.pref_relationship.unwrap(), a.alt_relationship.unwrap());
            let pair = pairs.entry(key).or_default();
            pair.0 += a.bytes;
            pair.1 += if a.alt_longer { a.bytes } else { 0 };
            pair.2 += if a.alt_prepended { a.bytes } else { 0 };
            total_opp += a.bytes;
        }
    }

    let share = |part: u64, of: u64| part as f64 / of.max(1) as f64;
    pairs
        .into_iter()
        .map(|(key, (b, longer, prepended))| {
            let row = Table2Row {
                absolute: share(b, total),
                relative: share(b, total_opp),
                longer: share(longer, b),
                prepended: share(prepended, b),
            };
            (key, row)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::record::{ns, GroupKey, SessionRecord};
    use edgeperf_routing::{PopId, Prefix};

    /// One group with a persistent 20 ms opportunity, another stable —
    /// but for a 25 ms spike in window 7 when `spike` is set.
    fn records(spike: bool) -> Vec<SessionRecord> {
        let mut records = Vec::new();
        for (gidx, alt_rtt) in [(0u32, 40.0f64), (1, 60.0)] {
            let group = GroupKey {
                pop: PopId(0),
                prefix: Prefix::new(gidx << 24, 16),
                country: gidx as u16,
                continent: gidx as u8,
            };
            for w in 0..10u32 {
                for (rank, rtt, rel) in
                    [(0u8, 60.0, Relationship::PublicPeer), (1u8, alt_rtt, Relationship::Transit)]
                {
                    for i in 0..40 {
                        records.push(SessionRecord {
                            group,
                            window: w,
                            route_rank: rank,
                            relationship: rel,
                            longer_path: rank == 1,
                            more_prepended: rank == 1 && gidx == 0,
                            min_rtt_ns: ns(rtt
                                + (i as f64 - 20.0) * 0.05
                                + if spike && gidx == 1 && w == 7 && rank == 0 {
                                    25.0
                                } else {
                                    0.0
                                }),
                            hdratio: Some(0.9),
                            bytes: 100,
                        });
                    }
                }
            }
        }
        records
    }

    fn dataset() -> Summaries {
        Dataset::from_records(&records(false), 10).summarize()
    }

    fn cfg() -> AnalysisConfig {
        AnalysisConfig { windows_per_day: 2, ..Default::default() }
    }

    #[test]
    fn table1_splits_classes_by_continent() {
        let ds = dataset();
        let t = table1(&cfg(), &ds, AnalysisKind::Opportunity, DegradationMetric::MinRtt, 5.0);
        // Group 0 (continent 0) has continuous opportunity; group 1 none.
        let cont = t.per_continent.get(&(TemporalClass::Continuous, 0)).unwrap();
        assert!((cont.group_share - 1.0).abs() < 1e-9);
        let unev = t.per_continent.get(&(TemporalClass::Uneventful, 1)).unwrap();
        assert!((unev.group_share - 1.0).abs() < 1e-9);
        // Overall: both groups have equal traffic.
        assert!((t.overall[&TemporalClass::Continuous].group_share - 0.5).abs() < 1e-9);
        // Events cover only rank-0 bytes of group 0 (half its traffic).
        assert!(t.overall[&TemporalClass::Continuous].event_share > 0.2);
    }

    #[test]
    fn table1_degradation_on_stable_data_is_uneventful() {
        let ds = dataset();
        let t = table1(&cfg(), &ds, AnalysisKind::Degradation, DegradationMetric::MinRtt, 5.0);
        assert!((t.overall[&TemporalClass::Uneventful].group_share - 1.0).abs() < 1e-9);
    }

    #[test]
    fn table2_attributes_opportunity_to_pair() {
        let ds = dataset();
        let t = table2(&cfg(), &ds, DegradationMetric::MinRtt, 5.0);
        assert_eq!(t.len(), 1);
        let row = t[&(Relationship::PublicPeer, Relationship::Transit)];
        assert!(row.absolute > 0.0 && row.absolute < 0.5);
        assert!((row.relative - 1.0).abs() < 1e-9);
        assert!((row.longer - 1.0).abs() < 1e-9);
        assert!((row.prepended - 1.0).abs() < 1e-9);
    }

    #[test]
    fn spilled_rows_feed_the_same_table1_and_fig8() {
        use crate::figures::fig8_degradation;
        use crate::segment::{decode_segment, encode_segment, sort_cells};
        use crate::sink::{RecordShard, RecordSink, StreamingDataset};
        // One source: whatever produced the summaries, rows that went
        // through the segment codec (in the store's canonical order, not
        // the grid's) rebuild a grid the analyses cannot tell apart.
        let mut stream = StreamingDataset::new(10);
        let mut shard = stream.new_shard();
        records(true).into_iter().for_each(|r| shard.push(r));
        stream.merge_shard(shard);
        let direct = stream.summarize();
        let mut rows = direct.to_cells();
        sort_cells(&mut rows);
        let decoded = decode_segment(&encode_segment(&rows)).expect("round trip");
        let rebuilt = Summaries::from_cells(&decoded);

        // `{:?}` prints floats in shortest round-trip form (and the CDFs
        // point by point): equal text, equal bits.
        let outputs = |ds: &Summaries| {
            let metric = DegradationMetric::MinRtt;
            let tables = [AnalysisKind::Degradation, AnalysisKind::Opportunity]
                .map(|kind| table1(&cfg(), ds, kind, metric, 5.0));
            let fig8 = fig8_degradation(&cfg(), ds, metric).expect("valid comparisons");
            format!("{tables:?} {fig8:?}")
        };
        assert_eq!(outputs(&rebuilt), outputs(&direct));
        assert!(outputs(&direct).contains("Episodic"), "the spike must register");
    }

    #[test]
    fn table2_empty_when_no_opportunity() {
        let mut records = Vec::new();
        let group =
            GroupKey { pop: PopId(0), prefix: Prefix::new(0, 16), country: 0, continent: 0 };
        for w in 0..4u32 {
            for rank in 0..2u8 {
                for i in 0..40 {
                    records.push(SessionRecord {
                        group,
                        window: w,
                        route_rank: rank,
                        relationship: Relationship::Transit,
                        longer_path: false,
                        more_prepended: false,
                        min_rtt_ns: ns(50.0 + (i as f64 - 20.0) * 0.05),
                        hdratio: Some(0.9),
                        bytes: 100,
                    });
                }
            }
        }
        let ds = Dataset::from_records(&records, 4).summarize();
        assert!(table2(&cfg(), &ds, DegradationMetric::MinRtt, 5.0).is_empty());
    }
}
