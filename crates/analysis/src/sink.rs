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
//! - [`crate::ColumnarSink`] — the exact path: workers append 16-byte
//!   rows (cell index, MinRTT in nanoseconds, HDratio) to columnar shards
//!   for the window open, and the shard closes the window's cells when
//!   the next window's first record arrives, in the worker: every cell's summary, from the
//!   cell's exact order statistics, becomes a [`crate::WindowCell`] row,
//!   what Figures 6–7 read of HDratio goes into a
//!   [tally](crate::figures::HdratioTally), and only the preferred route's
//!   MinRTTs are kept, grouped by cell, for Figure 6. Merging places the
//!   rows, adds the tally and appends the kept stream to one study-wide
//!   buffer. Memory grows by a row a cell (64 B a grid slot), ~1.2 bytes
//!   a study's preferred session (whole nanoseconds, sorted within the
//!   group and Rice-coded as gaps) and an entry a distinct HDratio, beside
//!   one window's rows a worker.
//! - [`StreamingDataset`] — the production path (§3.4.1): the same
//!   columnar shards, each closed cell a t-digest [`StreamingCell`]
//!   summarised into its row the way the live tier closes a window's
//!   cells, and merged into its group's Figure 6 rollup digest; the same
//!   HDratio tally. No per-session row is kept past its window.
//! - `Vec<SessionRecord>` — every record whole (56 bytes): what
//!   `run_study` returns, and the reference tests rebuild a
//!   [`crate::Dataset`] from.
//!
//! This module is the one entry point for sinks: the traits, the
//! [`SinkStats`] summary, and every implementation ([`ColumnarSink`] and
//! [`ColumnarShard`] are re-exported here from their implementation
//! module) — import from `edgeperf_analysis::sink` rather than reaching
//! into `columnar`/`streaming` directly.

pub use crate::columnar::{ColumnarShard, ColumnarSink};

use crate::columnar::{Keep, Merged, ROLLUP_COMPRESSION};
use crate::dataset::{CellSummary, Summaries};
use crate::figures::HdratioTally;
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
    /// Centroids currently held (streaming sinks; 0 elsewhere): the
    /// merged groups' Figure 6 rollups — the sink's bounded-memory
    /// footprint.
    pub digest_centroids: u64,
    /// Buffer-compression passes cell digests have run (streaming sinks;
    /// 0 elsewhere).
    pub digest_compressions: u64,
}

/// A per-worker accumulator of session records.
///
/// A work item's records arrive window by window: once a record of
/// another window has been pushed, no record of an earlier window's cell
/// follows (the study runner simulates a prefix window by window). A
/// shard may close a window's cells when the next window opens —
/// [`ColumnarShard`] does, and refuses a record for a cell it has closed,
/// naming the cell.
pub trait RecordShard: Send {
    /// Record one measured session, in the order the trait's docs give.
    fn push(&mut self, record: SessionRecord);

    /// The runner finished the shard's work item (a prefix): every record
    /// of it has been pushed, and none will follow. A shard may settle
    /// what it holds — [`ColumnarShard`] closes its open window, settles
    /// what its sink keeps and gives back its columns, and refuses any
    /// record after; the default keeps everything as it is.
    fn seal(&mut self) {}
}

/// A destination for study records, assembled from per-worker shards.
pub trait RecordSink {
    /// The thread-local accumulator handed to each worker.
    type Shard: RecordShard;

    /// The finished artifact this sink is turned into once the run ends
    /// (e.g. [`crate::Summaries`] for [`ColumnarSink`]). Sinks whose working
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
    /// Sinks with deferred state settle it here (the exact sink gives
    /// back its kept buffer's spare capacity) so post-run queries borrow
    /// `&self` without hidden work.
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
/// the streaming analogue of [`crate::Aggregation`], what
/// [`StreamingDataset`]'s shards and the live tier's open windows close a
/// cell into alike.
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

/// The streaming study dataset: the same (group → rank → window) grid of
/// [`crate::WindowCell`] rows as the exact sink, each row read off a pair
/// of t-digests instead of sorted samples. Its shards are
/// [`ColumnarShard`]s that close each cell when its window ends into a
/// [`StreamingCell`] fed the cell's sessions in arrival order, flushed and
/// summarised as the live tier's windows are — the same rows, bit for bit
/// — and merge each preferred cell's MinRTT digest into its group's Figure
/// 6 rollup, window by window. Merging a shard places its rows, adds its
/// HDratio tally — the exact sink's, so Figures 6–7's HDratio readings are
/// the exact ones — and appends its groups' rollups. Memory is bounded by
/// the rows (64 B a grid slot), a rollup digest a group, the tally and one
/// window's sessions a worker — not by the number of sessions, and not by
/// the number of cells times a digest — and
/// [`take_summaries`](Self::take_summaries) hands the rows over rather
/// than copying them.
///
/// The runner merges shards in work-item order, so groups — and the
/// Figure 6 rollup, merged group by group — come out the same bits
/// whichever worker ran which prefix.
#[derive(Debug)]
pub struct StreamingDataset {
    merged: Merged,
    /// Each merged group's rollup, groups in merge order.
    rollups: Vec<(GroupKey, TDigest)>,
    /// Compression passes run by the merged cells' digests.
    compressions: u64,
}

impl StreamingDataset {
    /// Empty dataset over a fixed number of 15-minute windows.
    pub fn new(n_windows: usize) -> Self {
        StreamingDataset { merged: Merged::new(n_windows), rollups: Vec::new(), compressions: 0 }
    }

    /// Every cell's row, groups in merge order, copied out of the dataset.
    pub fn summarize(&self) -> Summaries {
        Summaries { groups: self.merged.grid.slots.clone() }
    }

    /// [`summarize`](Self::summarize) without the copy: the grid is handed
    /// over, and the dataset keeps its Figure 6 rollups, its tally and its
    /// counters.
    pub fn take_summaries(&mut self) -> Summaries {
        Summaries { groups: self.merged.grid.take() }
    }

    /// Number of materialized (group, window, route-rank) cells, handed
    /// over included.
    pub fn cell_count(&self) -> usize {
        self.merged.cells as usize
    }

    /// Centroids held now — the merged groups' rollup digests — the
    /// dataset's digest footprint.
    pub fn state_centroids(&self) -> usize {
        self.rollups.iter().map(|(_, d)| d.centroid_count()).sum()
    }

    /// What the dataset holds, by part: the grid's bytes (zero once handed
    /// over) and the Figure 6 rollup digests' centroids, 16 B each.
    pub fn footprint(&self) -> [(&'static str, usize); 2] {
        let grid = self.merged.grid.slots.iter().map(|(_, g)| g.grid_bytes()).sum();
        [("grid_bytes", grid), ("rollup_bytes", 16 * self.state_centroids())]
    }

    /// Per-session MinRTT digests over preferred-route sessions: overall
    /// and per continent — the streaming analogue of
    /// [`crate::figures::fig6_minrtt`]: the groups' rollups merged in merge
    /// order (each session contributes weight 1, as in the exact path). An
    /// estimate, not a rank: a quantile that falls where the sessions thin
    /// out lies between two centroids far apart, and is read by
    /// interpolating between them — Figure 6's p80 at seed 51, scale 1
    /// reads 4.6 % above the exact one (EXPERIMENTS.md).
    pub fn minrtt_rollup(&self) -> (TDigest, BTreeMap<u8, TDigest>) {
        let mut overall = TDigest::new(ROLLUP_COMPRESSION);
        let mut per: BTreeMap<u8, TDigest> = BTreeMap::new();
        for (key, rollup) in &self.rollups {
            overall.merge(rollup);
            let of_continent = per.entry(key.continent);
            of_continent.or_insert_with(|| TDigest::new(ROLLUP_COMPRESSION)).merge(rollup);
        }
        (overall, per)
    }

    /// The HDratio tally of every merged preferred-route session — the
    /// exact sink's, count for count: Figure 6's HDratio half and Figure 7.
    pub fn hdratio(&self) -> &HdratioTally {
        &self.merged.tally
    }
}

impl RecordSink for StreamingDataset {
    type Shard = ColumnarShard;
    type Snapshot = StreamingDataset;
    type Stats = SinkStats;

    fn name(&self) -> &'static str {
        "streaming"
    }

    fn new_shard(&self) -> ColumnarShard {
        self.merged.shard(Keep::Digests { rollups: Vec::new(), compressions: 0 })
    }

    /// Seal `shard`, place its rows and add its tally — a group already
    /// merged is refused, naming it, as [`ColumnarSink`] refuses one — and
    /// append its groups' rollups in the order it first saw them.
    fn merge_shard(&mut self, mut shard: ColumnarShard) {
        self.merged.adopt(&mut shard);
        let Keep::Digests { rollups, compressions } = shard.keep else {
            panic!("an exact shard reached the streaming sink")
        };
        let groups = shard.ids.slots.iter().map(|(key, _)| *key);
        self.rollups.extend(groups.zip(rollups));
        self.compressions += compressions;
    }

    fn stats(&self) -> SinkStats {
        SinkStats {
            digest_centroids: self.state_centroids() as u64,
            digest_compressions: self.compressions,
            ..self.merged.stats()
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
    use crate::dataset::{Dataset, GroupData, GroupSlots};
    use crate::figures::{fig10_by_relationship, RelPair, HDRATIO_BELOW_ONE};
    use crate::record::ns;
    use crate::segment::WindowCell;
    use edgeperf_routing::{PopId, Prefix};
    use edgeperf_stats::cdf::CdfBuilder;

    fn rec(prefix: u32, window: u32, rank: u8, rtt_ns: u32, hdr: Option<f64>) -> SessionRecord {
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
            min_rtt_ns: rtt_ns,
            hdratio: hdr,
            bytes: 100,
        }
    }

    /// `n` sessions over 13 prefixes and 4 windows, window by window as a
    /// worker pushes them.
    fn synthetic(n: usize) -> Vec<SessionRecord> {
        let mut records: Vec<SessionRecord> = (0..n)
            .map(|i| {
                let u = (i as f64 * 0.618_033_988_749).fract();
                rec(
                    (i % 13) as u32,
                    (i % 4) as u32,
                    (i % 2) as u8,
                    ns(20.0 + 60.0 * u),
                    (i % 3 != 0).then_some(u),
                )
            })
            .collect();
        records.sort_by_key(|r| r.window);
        records
    }

    /// `records`, in order, through one shard of a streaming sink.
    fn streamed(records: &[SessionRecord], n_windows: usize) -> StreamingDataset {
        let mut sink = StreamingDataset::new(n_windows);
        let mut shard = sink.new_shard();
        records.iter().for_each(|r| shard.push(*r));
        sink.merge_shard(shard);
        sink
    }

    /// Every cell of `records` as a digest cell fed its records in order,
    /// groups in first-seen order: the reference the sink's rows are
    /// checked against.
    fn digest_grid(records: &[SessionRecord]) -> Vec<(GroupKey, GroupData<StreamingCell>)> {
        let mut grid = GroupSlots::new(4);
        for r in records {
            grid.cell(r.group, r.route_rank as usize, r.window as usize, r.bytes)
                .get_or_insert_with(|| StreamingCell::new(r.relationship))
                .push(r.min_rtt_ms(), r.hdratio, r.bytes, r.longer_path, r.more_prepended);
        }
        grid.slots
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
        assert!(s.digest_compressions > 0, "every cell's digests were flushed as it closed");
    }

    /// A group's grid as text: `{:?}` prints floats in shortest round-trip
    /// form, so equal text means equal bits.
    fn grid_bits(g: &GroupData<WindowCell>) -> String {
        format!("{g:?}")
    }

    #[test]
    fn streaming_dataset_mirrors_exact_dataset() {
        let records = synthetic(4_000);
        let exact = Dataset::from_records(&records, 4);
        // Each cell's digests, fed its records as the sink's shards feed
        // them, can be inspected.
        let mut open = digest_grid(&records);
        assert_eq!(open.len(), exact.groups.len());
        for (key, sg) in &open {
            let g = &exact.groups[key];
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
        // Flushed and summarised, as the live tier closes a cell, the same
        // cells are the rows the sink's shards closed, groups in first-seen
        // order.
        for (_, g) in &mut open {
            g.ranks.iter_mut().flatten().flatten().for_each(|cell| cell.agg.flush());
        }
        let mut stream = streamed(&records, 4);
        assert_eq!(stream.cell_count(), exact.cell_count());
        let sealed = stream.summarize();
        assert_eq!(sealed.preferred_bytes(), exact.preferred_bytes());
        assert_eq!(sealed.groups.len(), open.len());
        for ((ka, ga), (kb, gb)) in sealed.groups.iter().zip(&open) {
            assert_eq!(ka, kb, "groups come in first-seen order");
            assert_eq!(grid_bits(ga), grid_bits(&gb.summarize(*kb, StreamingCell::summary)));
        }
        // The streaming sink tallies what the exact sink tallies.
        let mut columnar = ColumnarSink::new(4);
        let mut shard = columnar.new_shard();
        records.iter().for_each(|r| shard.push(*r));
        columnar.merge_shard(shard);
        assert_eq!(columnar.hdratio(), stream.hdratio());
        let exact = columnar.hdratio().rollup();
        assert_eq!(exact, stream.hdratio().rollup());
        assert_eq!(exact, crate::figures::HdratioTally::of(&records).rollup());
        assert_eq!((exact.0.tested, exact.1.len()), (1_333, 5));
        // And they are a per-session CDF's readings, bit for bit.
        let cdf_of = |continent: Option<u8>| {
            let mut b = CdfBuilder::new();
            let preferred = records.iter().filter(|r| r.route_rank == 0);
            let of = preferred.filter(|r| continent.is_none_or(|c| c == r.group.continent));
            of.filter_map(|r| r.hdratio).for_each(|h| b.push(h));
            b.build()
        };
        let all = exact.1.iter().map(|(c, n)| (Some(*c), n));
        for (continent, counts) in all.chain([(None, &exact.0)]) {
            let cdf = cdf_of(continent);
            assert_eq!(counts.tested as f64, cdf.total_weight(), "{continent:?}");
            assert_eq!(counts.fraction_zero().to_bits(), cdf.fraction_leq(0.0).to_bits());
            let below_one = cdf.fraction_leq(HDRATIO_BELOW_ONE);
            assert_eq!(counts.fraction_below_one().to_bits(), below_one.to_bits());
        }

        // Handed over, the grid is the copy's bits, and the dataset still
        // counts what it held.
        let (stats, copied) = (stream.stats(), stream.summarize());
        let taken = stream.take_summaries();
        assert_eq!(format!("{:?}", taken.groups), format!("{:?}", copied.groups));
        assert_eq!(stream.stats(), stats);
        assert!(stream.summarize().groups.is_empty(), "taken, not copied");
    }

    #[test]
    fn sharded_merge_matches_single_shard() {
        let records = synthetic(3_000);
        let single = streamed(&records, 4);
        // Shard by prefix (as the runner does: one prefix → one worker),
        // merged in arbitrary order.
        let mut sink = StreamingDataset::new(4);
        let mut shards: Vec<ColumnarShard> = (0..3).map(|_| sink.new_shard()).collect();
        for r in &records {
            shards[(r.group.prefix.base >> 16) as usize % 3].push(*r);
        }
        for s in shards.into_iter().rev() {
            sink.merge_shard(s);
        }
        assert_eq!(sink.stats(), single.stats());
        // One prefix lands in exactly one shard, so cells are bit-identical,
        // not merely close.
        let by_key: BTreeMap<_, _> = sink.summarize().groups.into_iter().collect();
        let single = single.summarize().groups;
        assert_eq!(by_key.len(), single.len());
        for (key, g) in &single {
            assert_eq!(grid_bits(g), grid_bits(&by_key[key]));
        }
    }

    #[test]
    fn shards_merged_in_work_item_order_read_the_same_sealed_or_not() {
        // The runner's contract: a shard a prefix, sealed when the prefix
        // is done, merged in prefix order. Sealed by its worker or merged
        // unsealed, a shard leaves the same bits — summaries, Figure 6
        // rollup, tally, counters — and groups follow their work items.
        let records = synthetic(6_000);
        let run = |seal: bool| {
            let mut sink = StreamingDataset::new(4);
            for prefix in 0..13u32 {
                let mut shard = sink.new_shard();
                let of_prefix = records.iter().filter(|r| r.group.prefix.base >> 16 == prefix);
                of_prefix.for_each(|r| shard.push(*r));
                if seal {
                    shard.seal();
                }
                sink.merge_shard(shard);
            }
            sink.finalize();
            sink
        };
        let (sealed, unsealed) = (run(true), run(false));
        assert_eq!(sealed.stats(), unsealed.stats());
        assert_eq!(sealed.stats().records, 6_000);
        assert_eq!(sealed.hdratio(), unsealed.hdratio());
        let (a, b) = (sealed.summarize(), unsealed.summarize());
        assert_eq!(a.groups.len(), 13);
        for ((ka, ga), (kb, gb)) in a.groups.iter().zip(&b.groups) {
            assert_eq!(ka, kb);
            assert_eq!(grid_bits(ga), grid_bits(gb));
        }
        let prefixes: Vec<u32> = a.groups.iter().map(|(k, _)| k.prefix.base >> 16).collect();
        assert_eq!(prefixes, (0..13).collect::<Vec<_>>(), "groups follow their work items");
        let ((all_a, per_a), (all_b, per_b)) = (sealed.minrtt_rollup(), unsealed.minrtt_rollup());
        assert_eq!(all_a.to_parts(), all_b.to_parts());
        assert_eq!(per_a.len(), 5);
        for (c, d) in &per_a {
            assert_eq!(d.to_parts(), per_b[c].to_parts());
        }
        // And a cell's row does not depend on what else its shard held:
        // one shard of every record summarises to the same bits, group
        // for group.
        let by_key: BTreeMap<_, _> = streamed(&records, 4).summarize().groups.into_iter().collect();
        for (key, g) in &a.groups {
            assert_eq!(grid_bits(g), grid_bits(&by_key[key]));
        }
    }

    #[test]
    #[should_panic(expected = "reached the sink in two shards")]
    fn a_group_in_two_shards_is_refused() {
        // Not produced by the runner, which hands a prefix to one worker:
        // the first shard's cells are rows by the time the second arrives.
        let mut sink = StreamingDataset::new(1);
        let mut shards = [sink.new_shard(), sink.new_shard()];
        for i in 0..2_000 {
            shards[i % 2].push(rec(1, 0, 0, ns(10.0 + i as f64 * 0.1), None));
        }
        shards.into_iter().for_each(|shard| sink.merge_shard(shard));
    }

    #[test]
    fn one_million_records_bounded_state() {
        // The streaming sink must not materialize the record vector: a
        // million sessions across 64 cells leave one rollup digest a group
        // behind, orders of magnitude below one slot per record — and the
        // data is still queryable.
        let mut records = (0..1_000_000usize).map(|i| {
            let u = (i as f64 * 0.618_033_988_749).fract();
            let rank = ((i / 8) % 2) as u8;
            rec((i % 8) as u32, (i % 4) as u32, rank, ns(10.0 + 90.0 * u), Some(u))
        });
        let mut ds = StreamingDataset::new(4);
        let mut shard = ds.new_shard();
        for window in 0..4 {
            records.by_ref().take(250_000).for_each(|r| shard.push(SessionRecord { window, ..r }));
        }
        ds.merge_shard(shard);
        ds.finalize();
        assert_eq!((ds.cell_count(), ds.stats().records), (64, 1_000_000));
        assert!(ds.state_centroids() < 8 * 400, "state = {} centroids", ds.state_centroids());
        let (overall, per) = ds.minrtt_rollup();
        assert!((overall.quantile(0.5) - 55.0).abs() < 2.0);
        assert!(!per.is_empty());
    }

    #[test]
    fn fig10_over_streaming_summaries_finds_peering_vs_transit() {
        // Preferred private peer at ~50 ms, transit alternate at ~45 ms,
        // 40 sessions per cell: a clean, valid comparison.
        let mut records = Vec::new();
        for i in 0..40 {
            let jitter = (i as f64 - 20.0) * 0.05;
            records.push(rec(3, 0, 0, ns(50.0 + jitter), None));
            records.push(rec(3, 0, 1, ns(45.0 + jitter), None));
        }
        let (cfg, ds) = (AnalysisConfig::default(), streamed(&records, 1).summarize());
        let out =
            fig10_by_relationship(&cfg, &ds, RelPair::PeeringVsTransit).expect("valid comparison");
        assert!((out.diff.quantile(0.5) - 5.0).abs() < 1.0);
        assert!(out.traffic_covered > 0.9);
        assert!(fig10_by_relationship(&cfg, &ds, RelPair::TransitVsTransit).is_none());
    }
}
