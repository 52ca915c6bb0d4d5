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
//!   buffer. Memory grows by a row a cell (64 B a grid slot), ~2.2 bytes
//!   a study's preferred session (whole nanoseconds, sorted within the
//!   cell and Rice-coded as gaps) and an entry a distinct HDratio, beside
//!   one window's rows a worker.
//! - [`StreamingDataset`] — the production path (§3.4.1): t-digest cells
//!   keyed exactly like the exact dataset's, each reduced to its row
//!   when the runner [seals](RecordShard::seal) the work item that filled
//!   it; no per-session row is ever kept, and no digest outlives its
//!   prefix.
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

use crate::dataset::{CellSummary, GroupData, GroupSlots, Summaries};
use crate::figures::HdratioCounts;
use crate::hash::FxHashSet;
use crate::record::{GroupKey, SessionRecord};
use crate::segment::WindowCell;
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
    /// Centroids currently held (streaming sinks; 0 elsewhere): every open
    /// cell's digests plus the sealed groups' Figure 6 rollups — the sink's
    /// bounded-memory footprint.
    pub digest_centroids: u64,
    /// Buffer-compression passes cell digests have run, sealed cells
    /// included (streaming sinks; 0 elsewhere).
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

    /// The runner finished work item `unit` (a prefix index): every record
    /// of it has been pushed, and none for a group pushed so far will
    /// follow. A shard may settle what it holds — [`StreamingDataset`]
    /// reduces the item's cells to their summaries, [`ColumnarShard`]
    /// closes its open window and gives back its columns; the default
    /// keeps everything as it is.
    fn seal(&mut self, _unit: usize) {}
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
    /// Sinks with deferred state (groups nobody sealed, a canonical group
    /// order) settle it here so post-run queries borrow `&self` without
    /// hidden work.
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

/// One user group once the runner has finished its work item: what the
/// analyses read, and nothing a session wrote.
#[derive(Debug, Clone)]
struct SealedGroup {
    /// The work item that pushed the group; sealed groups are ordered by it.
    unit: usize,
    key: GroupKey,
    /// Every cell summarised by [`StreamingCell::summary`], packed.
    summaries: GroupData<WindowCell>,
    /// The preferred route's MinRTT digests merged in window order.
    minrtt: TDigest,
}

/// The streaming study dataset: the same (group → rank → window) cell
/// layout as [`crate::Dataset`], each cell a pair of t-digests instead of
/// sorted sample vectors — for as long as its group is *open*. A
/// 15-minute aggregation is final once its window is over, so when the
/// runner reports a work item done ([`RecordShard::seal`]) every group
/// pushed since the previous seal is reduced to its grid of
/// [`WindowCell`] rows plus one MinRTT digest for Figure 6, and its cells
/// are dropped. Memory is bounded by the rows (64 B a grid slot) and the
/// open cells of the groups in flight, one per worker — not by
/// the number of sessions, and not by the number of cells times a digest
/// — and [`take_summaries`](Self::take_summaries) hands the rows over
/// rather than copying them.
///
/// [`RecordSink::finalize`] seals whatever is still open (a caller that
/// never sealed gets its groups in first-seen order) and orders sealed
/// groups by work item, so summaries and the Figure 6 rollup are the same
/// bits whichever worker ran which prefix. Queries that read sealed state
/// panic with "finalize first" while a group is open.
#[derive(Debug, Clone)]
pub struct StreamingDataset {
    open: GroupSlots<StreamingCell>,
    sealed: Vec<SealedGroup>,
    /// Indexed by continent; grown on first sight.
    hdratio: Vec<HdratioCounts>,
    /// Compression passes run by cells sealed so far.
    compressions: u64,
    /// The sessions and cells of the grids handed over.
    taken: SinkStats,
}

impl StreamingDataset {
    /// Empty dataset over a fixed number of 15-minute windows.
    pub fn new(n_windows: usize) -> Self {
        StreamingDataset {
            open: GroupSlots::new(n_windows),
            sealed: Vec::new(),
            hdratio: Vec::new(),
            compressions: 0,
            taken: SinkStats::default(),
        }
    }

    /// Number of windows in the study.
    pub fn n_windows(&self) -> usize {
        self.open.n_windows
    }

    /// Number of user groups, sealed and open.
    pub fn len(&self) -> usize {
        self.sealed.len() + self.open.slots.len()
    }

    /// True when no record has been inserted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate the open groups in insertion order (first record wins the
    /// slot): the digest cells of everything pushed since the last seal.
    pub fn iter(&self) -> impl Iterator<Item = (&GroupKey, &GroupData<StreamingCell>)> {
        self.open.slots.iter().map(|(k, g)| (k, g))
    }

    /// Digest cells of one open group, if present.
    pub fn get(&self, key: &GroupKey) -> Option<&GroupData<StreamingCell>> {
        self.open.get(key)
    }

    fn assert_finalized(&self) {
        assert!(self.open.slots.is_empty(), "finalize first: a group is still open");
    }

    /// Every cell's row, groups in work-item order, copied out of the
    /// dataset. Panics ("finalize first") while a group is open.
    pub fn summarize(&self) -> Summaries {
        self.assert_finalized();
        Summaries { groups: self.sealed.iter().map(|g| (g.key, g.summaries.clone())).collect() }
    }

    /// [`summarize`](Self::summarize) without the copy: every sealed
    /// group's grid is handed over, and the dataset keeps its Figure 6
    /// rollups and counters and what it counted of the rows.
    pub fn take_summaries(&mut self) -> Summaries {
        self.assert_finalized();
        self.taken.records += self.sealed_cells().map(|c| u64::from(c.n)).sum::<u64>();
        self.taken.cells += self.sealed_cells().count() as u64;
        let grids = self.sealed.iter_mut().map(|g| (g.key, std::mem::take(&mut g.summaries)));
        Summaries { groups: grids.collect() }
    }

    /// Number of materialized (group, window, route-rank) cells, sealed
    /// (handed over included) and open.
    pub fn cell_count(&self) -> usize {
        self.taken.cells as usize + self.sealed_cells().count() + self.open_cells().count()
    }

    /// Sessions recorded across every cell, sealed (handed over included)
    /// and open.
    pub(crate) fn record_count(&self) -> u64 {
        self.taken.records
            + self.sealed_cells().map(|c| u64::from(c.n)).sum::<u64>()
            + self.open_cells().map(|c| c.agg.n() as u64).sum::<u64>()
    }

    fn sealed_cells(&self) -> impl Iterator<Item = &WindowCell> {
        self.sealed.iter().flat_map(|g| g.summaries.cells())
    }

    fn open_cells(&self) -> impl Iterator<Item = &StreamingCell> {
        self.iter().flat_map(|(_, g)| g.cells())
    }

    /// Centroids held now — the sealed groups' rollup digests plus every
    /// open cell's — the dataset's digest footprint.
    pub fn state_centroids(&self) -> usize {
        self.sealed.iter().map(|g| g.minrtt.centroid_count()).sum::<usize>()
            + self.open_cells().map(|c| c.agg.state_centroids()).sum::<usize>()
    }

    /// What the dataset holds, by part: the sealed grids' bytes (zero once
    /// handed over) and their Figure 6 rollup digests' centroids, 16 B
    /// each.
    pub fn footprint(&self) -> [(&'static str, usize); 2] {
        let grid = self.sealed.iter().map(|g| g.summaries.grid_bytes()).sum();
        let rollup = self.sealed.iter().map(|g| 16 * g.minrtt.centroid_count()).sum();
        [("grid_bytes", grid), ("rollup_bytes", rollup)]
    }

    /// Per-session MinRTT digests over preferred-route sessions: overall
    /// and per continent — the streaming analogue of
    /// [`crate::figures::fig6_minrtt`]: the sealed groups' digests merged
    /// in work-item order (each session contributes weight 1, as in the
    /// exact path). An estimate, not a rank: a quantile that falls where
    /// the sessions thin out lies between two centroids far apart, and is
    /// read by interpolating between them — Figure 6's p80 at seed 51,
    /// scale 1 reads 4.6 % above the exact one (EXPERIMENTS.md). Panics
    /// ("finalize first") while a group is open.
    pub fn minrtt_rollup(&self) -> (TDigest, BTreeMap<u8, TDigest>) {
        self.assert_finalized();
        let mut overall = TDigest::new(100.0);
        let mut per: BTreeMap<u8, TDigest> = BTreeMap::new();
        for g in &self.sealed {
            overall.merge(&g.minrtt);
            per.entry(g.key.continent).or_insert_with(|| TDigest::new(100.0)).merge(&g.minrtt);
        }
        (overall, per)
    }

    /// Per-session HDratio point masses over preferred-route sessions:
    /// overall and for every continent with a tested session (streaming
    /// analogue of [`ColumnarSink::hdratio_rollup`]). Counted as records
    /// arrive, so open groups are covered.
    pub fn hdratio_rollup(&self) -> (HdratioCounts, BTreeMap<u8, HdratioCounts>) {
        HdratioCounts::rollup(&self.hdratio)
    }
}

impl RecordShard for StreamingDataset {
    fn push(&mut self, r: SessionRecord) {
        assert!(r.route_rank < 8, "suspicious route rank {}", r.route_rank);
        self.open
            .cell(r.group, r.route_rank as usize, r.window as usize, r.bytes)
            .get_or_insert_with(|| StreamingCell::new(r.relationship))
            .push(r.min_rtt_ms(), r.hdratio, r.bytes, r.longer_path, r.more_prepended);
        if let (0, Some(h)) = (r.route_rank, r.hdratio) {
            HdratioCounts::of(&mut self.hdratio, r.group.continent).record(h);
        }
    }

    /// Turn every open group into a `SealedGroup` of work item `unit`:
    /// each cell flushed and summarised, the preferred route's MinRTT
    /// digests merged oldest window first, the cells dropped.
    fn seal(&mut self, unit: usize) {
        for (key, mut group) in self.open.take() {
            for cell in group.ranks.iter_mut().flatten().flatten() {
                cell.agg.flush();
                self.compressions += cell.agg.compressions();
            }
            let mut minrtt = TDigest::new(100.0);
            group.preferred().for_each(|cell| minrtt.merge(cell.agg.minrtt_digest()));
            minrtt.flush();
            let summaries = group.summarize(key, StreamingCell::summary);
            self.sealed.push(SealedGroup { unit, key, summaries, minrtt });
        }
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

    /// Sealed groups are concatenated, open ones adopted whole. The
    /// runner hands each prefix to one worker, so no two shards share a
    /// group; an open group the sink already holds is refused, naming the
    /// group, as [`ColumnarSink`] refuses one (a group sealed in both shards
    /// is `finalize`'s "sealed twice").
    fn merge_shard(&mut self, shard: StreamingDataset) {
        assert_eq!(self.n_windows(), shard.n_windows(), "window-count mismatch");
        self.sealed.extend(shard.sealed);
        self.compressions += shard.compressions;
        for (continent, theirs) in shard.hdratio.iter().enumerate() {
            HdratioCounts::of(&mut self.hdratio, continent as u8).add(theirs);
        }
        for (key, g) in shard.open.slots {
            assert!(self.open.get(&key).is_none(), "group {key:?} reached the sink in two shards");
            for (rank, windows) in g.ranks.into_iter().enumerate() {
                for (w, cell) in windows.into_iter().enumerate() {
                    if let Some(cell) = cell {
                        let bytes = cell.agg.bytes();
                        *self.open.cell(key, rank, w, bytes) = Some(cell);
                    }
                }
            }
        }
    }

    /// Seal what is open and order the sealed groups by work item, so
    /// nothing read afterwards depends on which worker ran which prefix.
    /// A group sealed twice would be counted twice by every analysis: a
    /// runner bug, and a panic naming the group.
    fn finalize(&mut self) {
        // Groups nobody sealed follow every work item, in first-seen order
        // (the sort is stable).
        self.seal(usize::MAX);
        self.sealed.sort_by_key(|g| g.unit);
        let mut seen = FxHashSet::default();
        for g in &self.sealed {
            assert!(seen.insert(g.key), "group {:?} sealed twice", g.key);
        }
    }

    fn stats(&self) -> SinkStats {
        SinkStats {
            records: self.record_count(),
            cells: self.cell_count() as u64,
            digest_centroids: self.state_centroids() as u64,
            digest_compressions: self.compressions
                + self.open_cells().map(|c| c.agg.compressions()).sum::<u64>(),
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
    use crate::figures::{fig10_by_relationship, RelPair, HDRATIO_BELOW_ONE};
    use crate::record::ns;
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

    /// A group's grid as text: `{:?}` prints floats in shortest round-trip
    /// form, so equal text means equal bits.
    fn grid_bits(g: &GroupData<WindowCell>) -> String {
        format!("{g:?}")
    }

    #[test]
    fn streaming_dataset_mirrors_exact_dataset() {
        let records = synthetic(4_000);
        let exact = Dataset::from_records(&records, 4);
        // Nothing seals this sink, so its digest cells can be inspected.
        let mut stream = StreamingDataset::new(4);
        for r in &records {
            RecordShard::push(&mut stream, *r);
        }
        assert_eq!(stream.len(), exact.groups.len());
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
        // Sealed, the same cells are the summaries the analyses read, and
        // the Figure 6 HDratio counters are the exact sink's.
        let open: Vec<_> =
            stream.iter().map(|(k, g)| (*k, g.summarize(*k, StreamingCell::summary))).collect();
        stream.finalize();
        assert!(stream.iter().next().is_none(), "finalize leaves no group open");
        assert_eq!((stream.len(), stream.cell_count()), (exact.groups.len(), exact.cell_count()));
        let sealed = stream.summarize();
        assert_eq!(sealed.preferred_bytes(), exact.preferred_bytes());
        assert_eq!(sealed.groups.len(), open.len());
        for ((ka, ga), (kb, gb)) in sealed.groups.iter().zip(&open) {
            assert_eq!(ka, kb, "a sink nobody sealed keeps first-seen order");
            assert_eq!(grid_bits(ga), grid_bits(gb));
        }
        // The exact sink tallies the same point masses as it merges.
        let mut columnar = ColumnarSink::new(4);
        let mut shard = columnar.new_shard();
        records.iter().for_each(|r| shard.push(*r));
        columnar.merge_shard(shard);
        let exact = columnar.hdratio_rollup();
        assert_eq!(exact, stream.hdratio_rollup());
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

        // Handed over, the grids are the copies' bits, and the dataset
        // still counts what they held.
        let (stats, copied) = (stream.stats(), stream.summarize());
        let taken = stream.take_summaries();
        assert_eq!(format!("{:?}", taken.groups), format!("{:?}", copied.groups));
        assert_eq!(stream.stats(), stats);
        assert!(stream.summarize().groups.iter().all(|(_, g)| g.cells().next().is_none()));
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
    fn sealed_groups_come_out_in_unit_order_whoever_sealed_them() {
        // The runner's contract: one prefix → one worker, sealed with the
        // prefix index when done. Whichever worker ran which prefix, and
        // in whatever order shards merge, the finalized sink is the same
        // bits — summaries, Figure 6 rollup, counters — as one shard that
        // ran every prefix in order.
        let records = synthetic(6_000);
        let run = |workers: usize, owner: fn(u32) -> usize| {
            let mut sink = StreamingDataset::new(4);
            let mut shards: Vec<StreamingDataset> =
                (0..workers).map(|_| sink.new_shard()).collect();
            for prefix in 0..13u32 {
                let shard = &mut shards[owner(prefix)];
                records
                    .iter()
                    .filter(|r| r.group.prefix.base >> 16 == prefix)
                    .for_each(|r| shard.push(*r));
                shard.seal(prefix as usize);
                assert!(shard.iter().next().is_none(), "sealing drops the cells");
            }
            shards.into_iter().rev().for_each(|s| sink.merge_shard(s));
            sink.finalize();
            sink
        };
        let (serial, stolen) = (run(1, |_| 0), run(3, |p| (p as usize * 7 + 1) % 3));
        assert_eq!(serial.stats(), stolen.stats());
        assert_eq!(serial.stats().records, 6_000);
        assert_eq!(serial.hdratio_rollup(), stolen.hdratio_rollup());
        let (a, b) = (serial.summarize(), stolen.summarize());
        assert_eq!(a.groups.len(), 13);
        for ((ka, ga), (kb, gb)) in a.groups.iter().zip(&b.groups) {
            assert_eq!(ka, kb);
            assert_eq!(grid_bits(ga), grid_bits(gb));
        }
        let prefixes: Vec<u32> = a.groups.iter().map(|(k, _)| k.prefix.base >> 16).collect();
        assert_eq!(prefixes, (0..13).collect::<Vec<_>>(), "groups follow their work items");
        let ((all_a, per_a), (all_b, per_b)) = (serial.minrtt_rollup(), stolen.minrtt_rollup());
        assert_eq!(all_a.to_parts(), all_b.to_parts());
        assert_eq!(per_a.len(), 5);
        for (c, d) in &per_a {
            assert_eq!(d.to_parts(), per_b[c].to_parts());
        }
        // And sealing changes no summary: the same records through a sink
        // nobody sealed summarise to the same bits, group for group.
        let mut unsealed = StreamingDataset::new(4);
        records.iter().for_each(|r| unsealed.push(*r));
        unsealed.finalize();
        let by_key: BTreeMap<_, _> = unsealed.summarize().groups.into_iter().collect();
        for (key, g) in &a.groups {
            assert_eq!(grid_bits(g), grid_bits(&by_key[key]));
        }
    }

    #[test]
    #[should_panic(expected = "finalize first")]
    fn summaries_of_an_open_group_do_not_exist() {
        // A query over sealed state must not silently leave out a group
        // that is still open; it refuses instead.
        let mut ds = StreamingDataset::new(4);
        synthetic(200).into_iter().filter(|r| r.group.prefix.base >> 16 < 2).for_each(|r| {
            ds.push(r);
        });
        ds.seal(0);
        ds.push(rec(5, 0, 0, 30_000_000, None));
        // Counts cover open groups; the HDratio counters never wait.
        assert_eq!((ds.len(), ds.record_count(), ds.stats().records), (3, 33, 33));
        assert!(ds.hdratio_rollup().0.tested > 0);
        let _ = ds.summarize();
    }

    #[test]
    #[should_panic(expected = "finalize first")]
    fn the_figure_6_rollup_of_an_open_group_does_not_exist() {
        let mut ds = StreamingDataset::new(4);
        ds.push(rec(5, 0, 0, 30_000_000, None));
        let _ = ds.minrtt_rollup();
    }

    #[test]
    #[should_panic(expected = "sealed twice")]
    fn a_group_sealed_twice_is_a_runner_bug() {
        let mut ds = StreamingDataset::new(4);
        ds.push(rec(5, 0, 0, 30_000_000, None));
        ds.seal(0);
        ds.push(rec(5, 1, 0, 31_000_000, None));
        ds.seal(1);
        ds.finalize();
    }

    #[test]
    #[should_panic(expected = "reached the sink in two shards")]
    fn a_group_open_in_two_shards_is_refused() {
        // Not produced by the runner, which hands a prefix to one worker:
        // a cell split across two shards would need a digest merge.
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
        // million sessions across 64 cells leave only digest state behind,
        // orders of magnitude below one slot per record.
        let mut ds = StreamingDataset::new(4);
        for i in 0..1_000_000usize {
            let u = (i as f64 * 0.618_033_988_749).fract();
            RecordShard::push(
                &mut ds,
                rec(
                    (i % 8) as u32,
                    (i % 4) as u32,
                    ((i / 8) % 2) as u8,
                    ns(10.0 + 90.0 * u),
                    Some(u),
                ),
            );
        }
        let cells = 64;
        let centroids = ds.state_centroids();
        assert!(centroids < cells * 2 * 400, "state = {centroids} centroids");
        // Sealed, what is left is one rollup digest a group — and the
        // data is still queryable.
        ds.finalize();
        assert!(ds.state_centroids() < 8 * 400, "state = {} centroids", ds.state_centroids());
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
            RecordShard::push(&mut ds, rec(3, 0, 0, ns(50.0 + jitter), None));
            RecordShard::push(&mut ds, rec(3, 0, 1, ns(45.0 + jitter), None));
        }
        ds.finalize();
        let (cfg, ds) = (AnalysisConfig::default(), ds.summarize());
        let out =
            fig10_by_relationship(&cfg, &ds, RelPair::PeeringVsTransit).expect("valid comparison");
        assert!((out.diff.quantile(0.5) - 5.0).abs() < 1.0);
        assert!(out.traffic_covered > 0.9);
        assert!(fig10_by_relationship(&cfg, &ds, RelPair::TransitVsTransit).is_none());
    }
}
