//! Record sinks: where the study runner puts each measured session.
//!
//! The runner is generic over a [`RecordSink`]. Each parallel worker owns
//! a thread-local [`RecordSink::Shard`], pushes records into it as
//! sessions complete, and the runner merges finished shards back into the
//! sink at join time. Because every prefix — and therefore every
//! (group, window, route-rank) cell — is processed by exactly one worker,
//! per-cell contents are independent of how the scheduler distributed
//! prefixes across workers.
//!
//! Three implementations cover the analysis modes:
//!
//! - [`crate::ColumnarSink`] — the exact path: workers append 20-byte
//!   rows (cell id, MinRTT, HDratio) to columnar shards that the sink
//!   adopts whole at join time and then *keeps*. Per-cell summaries
//!   ([`ColumnarSink::summarize`]) and the per-session view of Figures 6–7
//!   are read off those rows; nothing else holds an exact sample, and
//!   memory grows by those 20 bytes a session.
//! - [`StreamingDataset`] — the production path (§3.4.1): bounded-memory
//!   t-digest cells keyed exactly like the exact dataset's; no per-session
//!   row is ever kept.
//! - `Vec<SessionRecord>` — every record whole (56 bytes): what the study
//!   supervisor checkpoints, and the reference tests rebuild a
//!   [`crate::Dataset`] from.
//!
//! This module is the one entry point for sinks: the traits, the
//! [`SinkStats`] summary, and every implementation ([`ColumnarSink`] and
//! [`ColumnarShard`] are re-exported here from their implementation
//! module) — import from `edgeperf_analysis::sink` rather than reaching
//! into `columnar`/`streaming` directly.

pub use crate::columnar::{ColumnarShard, ColumnarSink};

use crate::dataset::{CellSummary, GroupData, GroupSlots, Summaries};
use crate::record::{GroupKey, SessionRecord};
use crate::streaming::StreamingAggregation;
use edgeperf_routing::Relationship;
use edgeperf_stats::TDigest;
use std::collections::BTreeMap;

/// Concrete summary counters every sink reports through
/// [`RecordSink::stats`] — the bridge from sink internals to metrics
/// gauges (`sink.records`, `sink.cells`, …).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SinkStats {
    /// Session records ingested.
    pub records: u64,
    /// Materialized (group, window, route-rank) cells.
    pub cells: u64,
    /// Centroids currently held across every cell digest (streaming
    /// sinks; 0 elsewhere) — the sink's bounded-memory footprint.
    pub digest_centroids: u64,
    /// Digest buffer-compression passes run (streaming sinks; 0 elsewhere).
    pub digest_compressions: u64,
}

/// A per-worker accumulator of session records.
pub trait RecordShard: Send {
    /// Record one measured session.
    fn push(&mut self, record: SessionRecord);
}

/// A destination for study records, assembled from per-worker shards.
pub trait RecordSink {
    /// The thread-local accumulator handed to each worker.
    type Shard: RecordShard;

    /// The finished artifact this sink is turned into once the run ends
    /// (e.g. [`crate::Dataset`] for [`ColumnarSink`]). Sinks whose working
    /// state *is* the artifact use `Self`.
    type Snapshot;

    /// Per-impl summary type, convertible into the concrete [`SinkStats`].
    type Stats: Into<SinkStats>;

    /// Short label for metrics and log lines (`"vec"`, `"columnar"`, …).
    fn name(&self) -> &'static str {
        "sink"
    }

    /// Create an empty shard for one worker.
    fn new_shard(&self) -> Self::Shard;

    /// Fold a finished worker's shard into the sink.
    fn merge_shard(&mut self, shard: Self::Shard);

    /// Called once by the runner after every shard has been merged.
    /// Sinks with deferred state (digest insert buffers) settle it here
    /// so post-run queries borrow `&self` without hidden work.
    fn finalize(&mut self) {}

    /// Summary counters (record/cell/digest totals) for observability.
    fn stats(&self) -> Self::Stats;

    /// Consume the sink, yielding its end product.
    fn into_snapshot(self) -> Self::Snapshot
    where
        Self: Sized;
}

impl RecordShard for Vec<SessionRecord> {
    fn push(&mut self, record: SessionRecord) {
        Vec::push(self, record);
    }
}

impl RecordSink for Vec<SessionRecord> {
    type Shard = Vec<SessionRecord>;
    type Snapshot = Vec<SessionRecord>;
    type Stats = SinkStats;

    fn name(&self) -> &'static str {
        "vec"
    }

    fn new_shard(&self) -> Vec<SessionRecord> {
        Vec::new()
    }

    fn merge_shard(&mut self, shard: Vec<SessionRecord>) {
        self.extend(shard);
    }

    fn stats(&self) -> SinkStats {
        SinkStats { records: self.len() as u64, ..SinkStats::default() }
    }

    fn into_snapshot(self) -> Vec<SessionRecord> {
        self
    }
}

/// Bounded-memory measurements for one (group, window, route-rank) cell —
/// the streaming analogue of [`crate::Aggregation`], held by
/// [`StreamingDataset`] and by the live tier's open windows alike.
#[derive(Debug, Clone)]
pub struct StreamingCell {
    /// Metric sketches (MinRTT / HDratio digests + traffic bytes).
    pub agg: StreamingAggregation,
    /// Relationship of the route measured by this cell.
    pub relationship: Relationship,
    /// This route's AS path is longer than the preferred route's.
    pub longer_path: bool,
    /// This route is prepended more than the preferred route.
    pub more_prepended: bool,
}

impl StreamingCell {
    /// Empty cell for a route with `relationship` (the first record of a
    /// cell pins it).
    pub fn new(relationship: Relationship) -> Self {
        StreamingCell {
            agg: StreamingAggregation::new(),
            relationship,
            longer_path: false,
            more_prepended: false,
        }
    }

    /// Record one session; the path flags are OR-ed over the cell.
    #[inline]
    pub fn push(
        &mut self,
        min_rtt_ms: f64,
        hdratio: Option<f64>,
        bytes: u64,
        longer_path: bool,
        more_prepended: bool,
    ) {
        self.agg.push(min_rtt_ms, hdratio, bytes);
        self.longer_path |= longer_path;
        self.more_prepended |= more_prepended;
    }

    fn merge(&mut self, other: &StreamingCell) {
        self.agg.merge(&other.agg);
        self.longer_path |= other.longer_path;
        self.more_prepended |= other.more_prepended;
    }

    /// Summarise from digest order statistics: the medians are digest
    /// quantiles and the Price–Bonett variances read the exact path's
    /// ranks off the digest. Allocation-free once the cell is flushed.
    pub fn summary(&self) -> CellSummary {
        CellSummary {
            n: self.agg.n(),
            n_tested: self.agg.n_tested(),
            bytes: self.agg.bytes(),
            min_rtt_p50: self.agg.min_rtt_p50(),
            min_rtt_var: self.agg.min_rtt_median_variance(),
            hdratio_p50: self.agg.hdratio_p50(),
            hdratio_var: self.agg.hdratio_median_variance(),
            relationship: self.relationship,
            longer_path: self.longer_path,
            more_prepended: self.more_prepended,
        }
    }
}

/// The streaming study dataset: the same (group → rank → window) cell
/// layout as [`crate::Dataset`], but each cell is a pair of t-digests
/// instead of sorted sample vectors. Memory is bounded by the number of
/// *cells*, not the number of sessions.
#[derive(Debug, Clone)]
pub struct StreamingDataset {
    pub(crate) grid: GroupSlots<StreamingCell>,
}

impl StreamingDataset {
    /// Empty dataset over a fixed number of 15-minute windows.
    pub fn new(n_windows: usize) -> Self {
        StreamingDataset { grid: GroupSlots::new(n_windows) }
    }

    /// Number of windows in the study.
    pub fn n_windows(&self) -> usize {
        self.grid.n_windows
    }

    /// Number of user groups.
    pub fn len(&self) -> usize {
        self.grid.slots.len()
    }

    /// True when no record has been inserted.
    pub fn is_empty(&self) -> bool {
        self.grid.slots.is_empty()
    }

    /// Iterate groups in insertion order (first record wins the slot).
    pub fn iter(&self) -> impl Iterator<Item = (&GroupKey, &GroupData<StreamingCell>)> {
        self.grid.slots.iter().map(|(k, g)| (k, g))
    }

    /// Data for one group, if present.
    pub fn get(&self, key: &GroupKey) -> Option<&GroupData<StreamingCell>> {
        self.grid.get(key)
    }

    fn insert(&mut self, r: SessionRecord) {
        assert!(r.route_rank < 8, "suspicious route rank {}", r.route_rank);
        self.grid
            .cell(r.group, r.route_rank as usize, r.window as usize, r.bytes)
            .get_or_insert_with(|| StreamingCell::new(r.relationship))
            .push(r.min_rtt_ms, r.hdratio, r.bytes, r.longer_path, r.more_prepended);
    }

    /// Fold another dataset (typically a worker shard) into this one.
    /// Cells present on both sides merge via [`TDigest::merge`].
    pub fn merge(&mut self, other: StreamingDataset) {
        assert_eq!(self.n_windows(), other.n_windows(), "window-count mismatch");
        for (key, g) in other.grid.slots {
            for (rank, windows) in g.ranks.into_iter().enumerate() {
                for (w, cell) in windows.into_iter().enumerate() {
                    let Some(cell) = cell else { continue };
                    match self.grid.cell(key, rank, w, cell.agg.bytes()) {
                        Some(existing) => existing.merge(&cell),
                        slot @ None => *slot = Some(cell),
                    }
                }
            }
        }
    }

    /// Flush every cell digest: subsequent queries are allocation-free
    /// and the dataset holds centroids only. Each cell's insert buffers
    /// are released as it is flushed, but finalizing does raise the peak:
    /// a study's cells mostly hold ~80 samples, which is under the
    /// digest's compression threshold, so an 8-byte buffered sample
    /// becomes a 16-byte centroid nearly one for one — 13.9 M samples
    /// into 8.26 M centroids, resident set 183 → 313 MB at seed 7
    /// (7.72 M sessions) — beside freed buffers the allocator has not
    /// reused yet. That step, not the run, sets `repro all --streaming`'s
    /// peak, and is the next ceiling of the `offline_repro` workload.
    /// The runner calls this through [`RecordSink::finalize`].
    pub fn flush(&mut self) {
        for (_, g) in &mut self.grid.slots {
            for ws in &mut g.ranks {
                for cell in ws.iter_mut().flatten() {
                    cell.agg.flush();
                }
            }
        }
    }

    /// Summarise every cell once, groups in [`iter`](Self::iter) order.
    pub fn summarize(&self) -> Summaries {
        Summaries {
            groups: self.iter().map(|(k, g)| (*k, g.summarize(StreamingCell::summary))).collect(),
        }
    }

    /// Total traffic across the dataset.
    pub fn total_bytes(&self) -> u64 {
        self.grid.slots.iter().map(|(_, g)| g.total_bytes).sum()
    }

    /// Traffic carried on preferred routes only (rank 0).
    pub fn preferred_bytes(&self) -> u64 {
        self.iter().flat_map(|(_, g)| g.preferred()).map(|c| c.agg.bytes()).sum()
    }

    /// Number of materialized (group, window, route-rank) cells.
    pub fn cell_count(&self) -> usize {
        self.cells().count()
    }

    /// Sessions recorded across every cell.
    pub fn record_count(&self) -> usize {
        self.cells().map(|c| c.agg.n()).sum()
    }

    fn cells(&self) -> impl Iterator<Item = &StreamingCell> {
        self.iter().flat_map(|(_, g)| g.cells())
    }

    /// Total centroids held across every cell digest — the dataset's
    /// memory footprint, bounded by cell count rather than session count.
    pub fn state_centroids(&self) -> usize {
        self.cells().map(|c| c.agg.state_centroids()).sum()
    }

    /// Per-session MinRTT digests over preferred-route cells: overall and
    /// per continent — the streaming analogue of
    /// [`crate::figures::fig6_minrtt`], obtained by merging rank-0 cell
    /// digests (each session contributes weight 1, as in the exact path).
    pub fn minrtt_rollup(&self) -> (TDigest, BTreeMap<u8, TDigest>) {
        self.rank0_rollup(|c| c.agg.minrtt_digest())
    }

    /// Per-session HDratio digests over preferred-route cells, overall and
    /// per continent (streaming analogue of [`crate::figures::fig6_hdratio`]).
    pub fn hdratio_rollup(&self) -> (TDigest, BTreeMap<u8, TDigest>) {
        self.rank0_rollup(|c| c.agg.hdratio_digest())
    }

    fn rank0_rollup(
        &self,
        digest: impl Fn(&StreamingCell) -> &TDigest,
    ) -> (TDigest, BTreeMap<u8, TDigest>) {
        let mut overall = TDigest::new(100.0);
        let mut per: BTreeMap<u8, TDigest> = BTreeMap::new();
        for (key, g) in self.iter() {
            for cell in g.preferred() {
                let d = digest(cell);
                if d.is_empty() {
                    continue;
                }
                overall.merge(d);
                per.entry(key.continent).or_insert_with(|| TDigest::new(100.0)).merge(d);
            }
        }
        (overall, per)
    }
}

impl RecordShard for StreamingDataset {
    fn push(&mut self, record: SessionRecord) {
        self.insert(record);
    }
}

impl RecordSink for StreamingDataset {
    type Shard = StreamingDataset;
    type Snapshot = StreamingDataset;
    type Stats = SinkStats;

    fn name(&self) -> &'static str {
        "streaming"
    }

    fn new_shard(&self) -> StreamingDataset {
        StreamingDataset::new(self.n_windows())
    }

    fn merge_shard(&mut self, shard: StreamingDataset) {
        self.merge(shard);
    }

    fn finalize(&mut self) {
        self.flush();
    }

    fn stats(&self) -> SinkStats {
        SinkStats {
            records: self.record_count() as u64,
            cells: self.cell_count() as u64,
            digest_centroids: self.state_centroids() as u64,
            digest_compressions: self.cells().map(|c| c.agg.compressions()).sum(),
        }
    }

    fn into_snapshot(self) -> StreamingDataset {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AnalysisConfig;
    use crate::dataset::Dataset;
    use crate::figures::{fig10_by_relationship, RelPair};
    use edgeperf_routing::{PopId, Prefix};

    fn rec(prefix: u32, window: u32, rank: u8, rtt: f64, hdr: Option<f64>) -> SessionRecord {
        SessionRecord {
            group: GroupKey {
                pop: PopId(0),
                prefix: Prefix::new(prefix << 16, 16),
                country: (prefix % 7) as u16,
                continent: (prefix % 5) as u8,
            },
            window,
            route_rank: rank,
            relationship: if rank == 0 { Relationship::PrivatePeer } else { Relationship::Transit },
            longer_path: rank > 0,
            more_prepended: false,
            min_rtt_ms: rtt,
            hdratio: hdr,
            bytes: 100,
        }
    }

    fn synthetic(n: usize) -> Vec<SessionRecord> {
        (0..n)
            .map(|i| {
                let u = (i as f64 * 0.618_033_988_749).fract();
                rec(
                    (i % 13) as u32,
                    (i % 4) as u32,
                    (i % 2) as u8,
                    20.0 + 60.0 * u,
                    (i % 3 != 0).then_some(u),
                )
            })
            .collect()
    }

    #[test]
    fn vec_sink_collects_across_shards() {
        let mut sink: Vec<SessionRecord> = Vec::new();
        let mut s1 = sink.new_shard();
        let mut s2 = sink.new_shard();
        for (i, r) in synthetic(100).into_iter().enumerate() {
            if i % 2 == 0 {
                s1.push(r);
            } else {
                s2.push(r);
            }
        }
        sink.merge_shard(s1);
        sink.merge_shard(s2);
        sink.finalize();
        assert_eq!(sink.len(), 100);
    }

    #[test]
    fn sink_stats_report_records_cells_and_digest_state() {
        let records = synthetic(2_000);

        let mut vec_sink: Vec<SessionRecord> = Vec::new();
        let mut columnar = ColumnarSink::new(4);
        let mut stream = StreamingDataset::new(4);
        let (mut vs, mut cs, mut ss) =
            (vec_sink.new_shard(), columnar.new_shard(), stream.new_shard());
        for r in &records {
            vs.push(*r);
            cs.push(*r);
            ss.push(*r);
        }
        vec_sink.merge_shard(vs);
        columnar.merge_shard(cs);
        stream.merge_shard(ss);
        stream.finalize();

        assert_eq!(vec_sink.name(), "vec");
        assert_eq!(vec_sink.stats().records, 2_000);

        assert_eq!(columnar.name(), "columnar");
        let c = columnar.stats();
        assert_eq!(c.records, 2_000);
        assert!(c.cells > 0);

        assert_eq!(stream.name(), "streaming");
        let s = stream.stats();
        assert_eq!(s.records, 2_000);
        assert_eq!(s.cells, c.cells, "both sinks saw the same cells");
        assert!(s.digest_centroids > 0);
        assert!(s.digest_compressions > 0, "finalize flushed every digest");
    }

    #[test]
    fn streaming_dataset_mirrors_exact_dataset() {
        let records = synthetic(4_000);
        let exact = Dataset::from_records(&records, 4);
        let mut stream = StreamingDataset::new(4);
        for r in &records {
            RecordShard::push(&mut stream, *r);
        }
        stream.flush();
        assert_eq!(stream.len(), exact.groups.len());
        assert_eq!(stream.total_bytes(), exact.total_bytes());
        assert_eq!(stream.preferred_bytes(), exact.preferred_bytes());
        for (key, g) in &exact.groups {
            let sg = stream.get(key).expect("group present");
            for (rank, ws) in g.ranks.iter().enumerate() {
                for (w, cell) in ws.iter().enumerate() {
                    let Some(cell) = cell else {
                        assert!(sg.cell(rank, w).is_none());
                        continue;
                    };
                    let s = &sg.cell(rank, w).unwrap().agg;
                    assert_eq!(s.n(), cell.n());
                    assert_eq!(s.bytes(), cell.bytes);
                    assert!((s.min_rtt_p50() - cell.min_rtt_p50()).abs() < 0.5);
                    match (s.hdratio_p50(), cell.hdratio_p50()) {
                        (Some(a), Some(b)) => assert!((a - b).abs() < 0.02, "{a} vs {b}"),
                        (a, b) => assert_eq!(a.is_none(), b.is_none()),
                    }
                    // Extremes are exact, not approximate.
                    assert_eq!(s.min_rtt_quantile(0.0), cell.min_rtt_ms[0]);
                    assert_eq!(s.min_rtt_quantile(1.0), *cell.min_rtt_ms.last().unwrap());
                }
            }
        }
    }

    #[test]
    fn sharded_merge_matches_single_shard() {
        let records = synthetic(3_000);
        let mut single = StreamingDataset::new(4);
        for r in &records {
            RecordShard::push(&mut single, *r);
        }
        // Shard by prefix (as the runner does: one prefix → one worker),
        // in arbitrary worker order.
        let mut sink = StreamingDataset::new(4);
        let mut shards: Vec<StreamingDataset> = (0..3).map(|_| sink.new_shard()).collect();
        for r in &records {
            RecordShard::push(&mut shards[(r.group.prefix.base >> 16) as usize % 3], *r);
        }
        for s in shards.into_iter().rev() {
            sink.merge_shard(s);
        }
        sink.finalize();
        assert_eq!(sink.len(), single.len());
        for (key, g) in single.iter() {
            let sg = sink.get(key).expect("group present");
            for (rank, ws) in g.ranks.iter().enumerate() {
                for (w, cell) in ws.iter().enumerate() {
                    let (Some(a), Some(b)) = (cell.as_ref(), sg.cell(rank, w)) else {
                        assert!(cell.is_none() && sg.cell(rank, w).is_none());
                        continue;
                    };
                    // One prefix lands in exactly one shard, so cells are
                    // bit-identical, not merely close.
                    assert_eq!(a.agg.n(), b.agg.n());
                    assert_eq!(a.agg.min_rtt_p50().to_bits(), b.agg.min_rtt_p50().to_bits());
                }
            }
        }
    }

    #[test]
    fn merged_cells_keep_exact_extremes() {
        // The satellite t-digest fix, observed at the sink level: a cell
        // split across two compressed shards still reports the true
        // sample extremes after the join-time merge.
        let mut lo_shard = StreamingDataset::new(1);
        let mut hi_shard = StreamingDataset::new(1);
        for i in 0..2_000 {
            let r = rec(1, 0, 0, 10.0 + i as f64 * 0.1, None);
            if i < 1_000 {
                RecordShard::push(&mut lo_shard, r);
            } else {
                RecordShard::push(&mut hi_shard, r);
            }
        }
        let mut sink = StreamingDataset::new(1);
        sink.merge_shard(hi_shard);
        sink.merge_shard(lo_shard);
        let (_, g) = sink.iter().next().unwrap();
        let agg = &g.cell(0, 0).unwrap().agg;
        assert_eq!(agg.min_rtt_quantile(0.0), 10.0);
        assert_eq!(agg.min_rtt_quantile(1.0), 10.0 + 1_999.0 * 0.1);
    }

    #[test]
    fn one_million_records_bounded_state() {
        // The streaming sink must not materialize the record vector: a
        // million sessions across 64 cells leave only digest state behind,
        // orders of magnitude below one slot per record.
        let mut ds = StreamingDataset::new(4);
        for i in 0..1_000_000usize {
            let u = (i as f64 * 0.618_033_988_749).fract();
            RecordShard::push(
                &mut ds,
                rec((i % 8) as u32, (i % 4) as u32, ((i / 8) % 2) as u8, 10.0 + 90.0 * u, Some(u)),
            );
        }
        ds.flush();
        let cells = 64;
        let centroids = ds.state_centroids();
        assert!(centroids < cells * 2 * 400, "state = {centroids} centroids");
        // And the data is still queryable.
        let (overall, per) = ds.minrtt_rollup();
        assert!((overall.quantile(0.5) - 55.0).abs() < 2.0);
        assert!(!per.is_empty());
    }

    #[test]
    fn fig10_over_streaming_summaries_finds_peering_vs_transit() {
        // Preferred private peer at ~50 ms, transit alternate at ~45 ms,
        // 40 sessions per cell: a clean, valid comparison.
        let mut ds = StreamingDataset::new(1);
        for i in 0..40 {
            let jitter = (i as f64 - 20.0) * 0.05;
            RecordShard::push(&mut ds, rec(3, 0, 0, 50.0 + jitter, None));
            RecordShard::push(&mut ds, rec(3, 0, 1, 45.0 + jitter, None));
        }
        let (cfg, ds) = (AnalysisConfig::default(), ds.summarize());
        let out =
            fig10_by_relationship(&cfg, &ds, RelPair::PeeringVsTransit).expect("valid comparison");
        assert!((out.diff.quantile(0.5) - 5.0).abs() < 1.0);
        assert!(out.traffic_covered > 0.9);
        assert!(fig10_by_relationship(&cfg, &ds, RelPair::TransitVsTransit).is_none());
    }
}
