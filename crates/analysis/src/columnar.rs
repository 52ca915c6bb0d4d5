//! Columnar (SoA) worker shards: the one exact representation of a study.
//!
//! A [`ColumnarShard`] aggregates *during* the parallel pass. Every
//! session appends one row to three aligned columns — a `u32` dense cell
//! id, its MinRTT and its HDratio (NaN when the session tested nothing) —
//! 20 bytes, and a row still carries the joint (MinRTT, HDratio) that
//! Figure 7 needs. The steady-state cost per record is one memo equality
//! check, two array indexings, and three unconditional pushes. The group →
//! cell-table map is only consulted when the group changes, which the
//! runner's per-prefix record order makes rare; within a group, (rank,
//! window) → cell id resolves through a dense table with no hashing at
//! all. This matters because the runner interleaves ranks
//! record-by-record (each session emits preferred + alternates
//! back-to-back), so a cell-keyed memo would miss on almost every record.
//!
//! At join time [`ColumnarSink`] adopts each shard: one stable counting
//! scatter over the per-cell counts the pass tracked lays its
//! (MinRTT, HDratio) pairs out cell by cell, so the cell column becomes
//! one `u32` end offset a cell and a kept row is 16 bytes. The scheduler
//! hands each prefix to exactly one worker, so shards share no group (a
//! hand-built shard that does share a group with one already adopted is
//! folded into it, so the sink's shards never share a cell). The sink is
//! then kept, not exploded: [`ColumnarSink::summarize`] reads every cell's
//! order statistics off one transient sorted column per shard and metric,
//! [`ColumnarSink::rows`] and the sink's [`PreferredSessions`] view walk
//! the cells for Figures 6–7, and [`ColumnarSink::into_dataset`] — the
//! oracle tests and benches compare against — copies the same sorted
//! slices out into a [`Dataset`].

use crate::dataset::{
    in_dataset_order, median_and_variance, Aggregation, CellSummary, Dataset, GroupSlots, Summaries,
};
use crate::figures::PreferredSessions;
use crate::hash::{FxHashMap, FxHashSet};
use crate::record::{GroupKey, SessionRecord};
use crate::sink::{RecordShard, RecordSink, SinkStats};
use edgeperf_routing::Relationship;
use std::ops::Range;

/// Identity of one (group, window, route-rank) cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CellKey {
    /// User group (PoP × prefix × country).
    pub group: GroupKey,
    /// 15-minute window index.
    pub window: u32,
    /// Route rank (0 = preferred).
    pub rank: u8,
}

/// Per-cell scalar metadata, updated in place on every record.
#[derive(Debug, Clone)]
pub(crate) struct CellMeta {
    pub(crate) key: CellKey,
    pub(crate) relationship: Relationship,
    pub(crate) longer_path: bool,
    pub(crate) more_prepended: bool,
    pub(crate) bytes: u64,
    pub(crate) n_rtt: u32,
    pub(crate) n_hd: u32,
}

/// One group's dense (rank, window) → cell-id table. Entries store
/// `cell id + 1` so zero means "no cell yet"; rows grow lazily to the
/// highest window seen.
#[derive(Debug)]
struct ShardGroup {
    ranks: Vec<Vec<u32>>,
}

/// One worker's columnar accumulator: one row per session in three
/// aligned columns keyed by a dense per-shard cell id, plus one metadata
/// slot per cell.
#[derive(Debug, Default)]
pub struct ColumnarShard {
    group_index: FxHashMap<GroupKey, u32>,
    memo: Option<(GroupKey, u32)>,
    groups: Vec<ShardGroup>,
    pub(crate) cells: Vec<CellMeta>,
    pub(crate) cell: Vec<u32>,
    pub(crate) min_rtt: Vec<f64>,
    /// NaN for a session that tested nothing.
    pub(crate) hdratio: Vec<f64>,
}

impl ColumnarShard {
    /// Number of distinct cells this shard has seen.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// MinRTT samples recorded (one per session).
    #[cfg(test)]
    pub(crate) fn sample_count(&self) -> usize {
        self.min_rtt.len()
    }

    /// Dense id of the cell `key`, created on first sight.
    #[inline]
    pub(crate) fn cell_id(&mut self, key: CellKey, relationship: Relationship) -> usize {
        assert!(key.rank < 8, "suspicious route rank {}", key.rank);
        let gi = match self.memo {
            Some((k, i)) if k == key.group => i as usize,
            _ => {
                let i = *self.group_index.entry(key.group).or_insert_with(|| {
                    self.groups.push(ShardGroup { ranks: Vec::new() });
                    (self.groups.len() - 1) as u32
                });
                self.memo = Some((key.group, i));
                i as usize
            }
        };
        let (rank, window) = (key.rank as usize, key.window as usize);
        let ranks = &mut self.groups[gi].ranks;
        if ranks.len() <= rank {
            ranks.resize_with(rank + 1, Vec::new);
        }
        let row = &mut ranks[rank];
        if row.len() <= window {
            row.resize(window + 1, 0);
        }
        match row[window] {
            0 => {
                let id = self.cells.len() as u32;
                self.cells.push(CellMeta {
                    key,
                    relationship,
                    longer_path: false,
                    more_prepended: false,
                    bytes: 0,
                    n_rtt: 0,
                    n_hd: 0,
                });
                row[window] = id + 1;
                id as usize
            }
            id_plus_1 => (id_plus_1 - 1) as usize,
        }
    }

    /// Fold `other` in: a cell both hold unions its samples, adds its
    /// bytes and ORs its flags (the relationship seen first stays), and
    /// `other`'s rows follow this shard's.
    fn absorb(&mut self, other: ColumnarShard) {
        let remap: Vec<u32> = other
            .cells
            .iter()
            .map(|theirs| {
                let ci = self.cell_id(theirs.key, theirs.relationship);
                let cell = &mut self.cells[ci];
                cell.bytes += theirs.bytes;
                cell.longer_path |= theirs.longer_path;
                cell.more_prepended |= theirs.more_prepended;
                cell.n_rtt += theirs.n_rtt;
                cell.n_hd += theirs.n_hd;
                ci as u32
            })
            .collect();
        self.cell.extend(other.cell.iter().map(|&ci| remap[ci as usize]));
        self.min_rtt.extend(other.min_rtt);
        self.hdratio.extend(other.hdratio);
    }
}

/// A shard as the sink keeps it: the worker's rows laid out cell by cell —
/// cell `ci` is rows `ends[ci - 1]..ends[ci]` of both columns, in the order
/// its worker pushed them — so a row is its 16 bytes of (MinRTT, HDratio)
/// and a cell's place costs one `u32`.
#[derive(Debug)]
struct AdoptedShard {
    groups: FxHashSet<GroupKey>,
    cells: Vec<CellMeta>,
    ends: Vec<u32>,
    min_rtt: Vec<f64>,
    /// NaN for a session that tested nothing.
    hdratio: Vec<f64>,
}

impl AdoptedShard {
    /// Group `shard`'s rows by cell: a stable counting scatter to the
    /// prefix sums of the per-cell counts the pass tracked.
    fn adopt(shard: ColumnarShard) -> Self {
        let rows = shard.cell.len();
        assert!(u32::try_from(rows).is_ok(), "a shard's rows fit u32");
        // Until the scatter is done `ends[ci]` is the next free row of cell
        // `ci`; it starts at the cell's first row and stops at its end.
        let mut ends = Vec::with_capacity(shard.cells.len());
        let mut total = 0usize;
        for c in &shard.cells {
            ends.push(total as u32);
            total += c.n_rtt as usize;
        }
        assert_eq!(total, rows, "per-cell counts cover every row");
        let mut min_rtt = vec![0.0; rows];
        let mut hdratio = vec![0.0; rows];
        for ((&ci, &rtt), &hd) in shard.cell.iter().zip(&shard.min_rtt).zip(&shard.hdratio) {
            let row = &mut ends[ci as usize];
            min_rtt[*row as usize] = rtt;
            hdratio[*row as usize] = hd;
            *row += 1;
        }
        let groups = shard.group_index.into_keys().collect();
        AdoptedShard { groups, cells: shard.cells, ends, min_rtt, hdratio }
    }

    /// Back to the worker's form (cells in the same order, rows cell by
    /// cell), so that a shard sharing a group can be [absorbed].
    ///
    /// [absorbed]: ColumnarShard::absorb
    fn into_shard(self) -> ColumnarShard {
        let mut shard = ColumnarShard::default();
        for (ci, (meta, rows)) in self.cells().enumerate() {
            assert_eq!(shard.cell_id(meta.key, meta.relationship), ci, "cell keys are distinct");
            shard.cell.extend(rows.map(|_| ci as u32));
        }
        ColumnarShard { cells: self.cells, min_rtt: self.min_rtt, hdratio: self.hdratio, ..shard }
    }

    /// Every cell with the rows it owns in both columns.
    fn cells(&self) -> impl Iterator<Item = (&CellMeta, Range<usize>)> {
        let mut start = 0;
        self.cells.iter().zip(&self.ends).map(move |(meta, &end)| {
            let rows = start..end as usize;
            start = end as usize;
            (meta, rows)
        })
    }

    /// Every session of the cells `keep` admits, cell by cell: its cell, its
    /// MinRTT (ms) and its HDratio if it tested.
    fn sessions(
        &self,
        keep: fn(&CellKey) -> bool,
    ) -> impl Iterator<Item = (CellKey, f64, Option<f64>)> + '_ {
        self.cells().filter(move |(meta, _)| keep(&meta.key)).flat_map(|(meta, rows)| {
            let rows = self.min_rtt[rows.clone()].iter().zip(&self.hdratio[rows]);
            rows.map(|(&min_rtt, &hd)| (meta.key, min_rtt, (!hd.is_nan()).then_some(hd)))
        })
    }

    /// The one place where rows become sorted cells: a copy of `column`
    /// with each cell's slice sorted once — a cell's NaNs (the untested
    /// mark, a positive NaN) after its samples.
    fn sorted_column(&self, column: &[f64]) -> Vec<f64> {
        let mut values = column.to_vec();
        for (_, rows) in self.cells() {
            values[rows].sort_unstable_by(f64::total_cmp);
        }
        values
    }

    /// Put `cell(metadata, its rows)` of every cell into its slot of
    /// `grid`, in first-seen order (so groups land in first-seen order too).
    fn place<C: Clone>(
        &self,
        grid: &mut GroupSlots<C>,
        mut cell: impl FnMut(&CellMeta, Range<usize>) -> C,
    ) {
        for (meta, rows) in self.cells() {
            let CellKey { group, window, rank } = meta.key;
            *grid.cell(group, rank as usize, window as usize, meta.bytes) = Some(cell(meta, rows));
        }
    }

    /// Summarise every cell into `grid` from its exact order statistics.
    /// One sorted column is alive at a time: MinRTT's is read and freed
    /// before HDratio's is built.
    fn summarize_into(&self, grid: &mut GroupSlots<CellSummary>) {
        let min_rtt: Vec<(f64, Option<f64>)> = {
            let column = self.sorted_column(&self.min_rtt);
            let stats = self.cells().map(|(_, rows)| median_and_variance(&column[rows]));
            stats.map(|s| s.expect("a cell holds a session")).collect()
        };
        let (hdratio, mut min_rtt) = (self.sorted_column(&self.hdratio), min_rtt.into_iter());
        self.place(grid, |meta, rows| {
            let (min_rtt_p50, min_rtt_var) = min_rtt.next().expect("one a cell");
            let tested = &hdratio[rows][..meta.n_hd as usize];
            let (hdratio_p50, hdratio_var) = median_and_variance(tested).unzip();
            CellSummary {
                n: meta.n_rtt as usize,
                n_tested: meta.n_hd as usize,
                bytes: meta.bytes,
                min_rtt_p50,
                min_rtt_var,
                hdratio_p50,
                hdratio_var: hdratio_var.flatten(),
                relationship: meta.relationship,
                longer_path: meta.longer_path,
                more_prepended: meta.more_prepended,
            }
        })
    }
}

impl RecordShard for ColumnarShard {
    fn push(&mut self, r: SessionRecord) {
        assert!(!r.min_rtt_ms.is_nan(), "NaN MinRTT");
        let key = CellKey { group: r.group, window: r.window, rank: r.route_rank };
        let ci = self.cell_id(key, r.relationship);
        let cell = &mut self.cells[ci];
        cell.bytes += r.bytes;
        cell.longer_path |= r.longer_path;
        cell.more_prepended |= r.more_prepended;
        cell.n_rtt += 1;
        let hdratio = match r.hdratio {
            Some(h) => {
                // NaN is how a row says "untested".
                assert!(!h.is_nan(), "NaN HDratio");
                cell.n_hd += 1;
                h
            }
            None => f64::NAN,
        };
        self.cell.push(ci as u32);
        self.min_rtt.push(r.min_rtt_ms);
        self.hdratio.push(hdratio);
    }
}

/// The exact study: every worker shard adopted and kept, from which the
/// per-cell summaries, the per-session rows and (for tests) the
/// [`Dataset`] are all read.
#[derive(Debug, Default)]
pub struct ColumnarSink {
    pub(crate) n_windows: usize,
    shards: Vec<AdoptedShard>,
}

impl ColumnarSink {
    /// Empty sink over a fixed number of 15-minute windows.
    pub fn new(n_windows: usize) -> Self {
        ColumnarSink { n_windows, shards: Vec::new() }
    }

    /// Distinct cells across all shards (shards never share a cell).
    pub fn cell_count(&self) -> usize {
        self.shards.iter().map(|s| s.cells.len()).sum()
    }

    /// Summarise every cell once from its exact order statistics — the
    /// same numbers, groups in the same order, as
    /// `into_dataset().summarize()`, without building the dataset: one
    /// shard and one metric at a time is copied into a flat column and
    /// sorted cell by cell, read, and freed.
    pub fn summarize(&self) -> Summaries {
        let mut grid = GroupSlots::new(self.n_windows);
        for shard in &self.shards {
            shard.summarize_into(&mut grid);
        }
        Summaries { groups: in_dataset_order(grid.slots) }
    }

    /// Every session, shard by shard and within a shard cell by cell (cells
    /// in first-seen order, a cell's sessions in the order its worker
    /// pushed them): its cell, its MinRTT (ms) and its HDratio if it tested.
    pub fn rows(&self) -> impl Iterator<Item = (CellKey, f64, Option<f64>)> + '_ {
        self.shards.iter().flat_map(|s| s.sessions(|_| true))
    }

    /// Assemble the exact [`Dataset`] — the oracle tests and benches hold
    /// [`summarize`](Self::summarize) and the other sinks against. Cells
    /// are copied out of the same sorted columns `summarize` reads.
    pub fn into_dataset(self) -> Dataset {
        let mut grid = GroupSlots::new(self.n_windows);
        for shard in &self.shards {
            let min_rtt = shard.sorted_column(&shard.min_rtt);
            let hdratio = shard.sorted_column(&shard.hdratio);
            shard.place(&mut grid, |meta, rows| Aggregation {
                min_rtt_ms: min_rtt[rows.clone()].to_vec(),
                hdratio: hdratio[rows][..meta.n_hd as usize].to_vec(),
                bytes: meta.bytes,
                relationship: meta.relationship,
                longer_path: meta.longer_path,
                more_prepended: meta.more_prepended,
            });
        }
        Dataset { n_windows: self.n_windows, groups: grid.slots.into_iter().collect() }
    }
}

impl PreferredSessions for ColumnarSink {
    fn preferred_sessions(&self) -> impl Iterator<Item = (u8, f64, Option<f64>)> {
        let preferred = self.shards.iter().flat_map(|s| s.sessions(|cell| cell.rank == 0));
        preferred.map(|(cell, min_rtt, hdratio)| (cell.group.continent, min_rtt, hdratio))
    }
}

impl RecordSink for ColumnarSink {
    type Shard = ColumnarShard;
    type Snapshot = Dataset;
    type Stats = SinkStats;

    fn name(&self) -> &'static str {
        "columnar"
    }

    fn new_shard(&self) -> ColumnarShard {
        ColumnarShard::default()
    }

    fn merge_shard(&mut self, mut shard: ColumnarShard) {
        // The runner hands each prefix to one worker, so its shards share
        // no group and this loop never runs; a hand-built split that does
        // is folded together here, and nothing downstream meets a cell in
        // two shards.
        while let Some(i) =
            self.shards.iter().position(|s| shard.group_index.keys().any(|g| s.groups.contains(g)))
        {
            let mut merged = self.shards.remove(i).into_shard();
            merged.absorb(shard);
            shard = merged;
        }
        self.shards.push(AdoptedShard::adopt(shard));
    }

    fn stats(&self) -> SinkStats {
        SinkStats {
            records: self.shards.iter().map(|s| s.min_rtt.len() as u64).sum(),
            cells: self.cell_count() as u64,
            ..SinkStats::default()
        }
    }

    fn into_snapshot(self) -> Dataset {
        self.into_dataset()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use edgeperf_routing::{PopId, Prefix};

    pub(crate) fn rec(
        prefix: u32,
        window: u32,
        rank: u8,
        rtt: f64,
        hdr: Option<f64>,
    ) -> SessionRecord {
        SessionRecord {
            group: GroupKey {
                pop: PopId((prefix % 3) as u16),
                prefix: Prefix::new(prefix << 16, 16),
                country: (prefix % 7) as u16,
                continent: (prefix % 5) as u8,
            },
            window,
            route_rank: rank,
            relationship: if rank == 0 { Relationship::PrivatePeer } else { Relationship::Transit },
            longer_path: rank > 0,
            more_prepended: prefix.is_multiple_of(11),
            min_rtt_ms: rtt,
            hdratio: hdr,
            bytes: 50 + u64::from(prefix),
        }
    }

    pub(crate) fn synthetic(n: usize) -> Vec<SessionRecord> {
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

    /// Cell-by-cell bit equality of two datasets.
    fn assert_identical(a: &Dataset, b: &Dataset) {
        assert_eq!(a.n_windows, b.n_windows);
        assert_eq!(a.groups.len(), b.groups.len());
        for (key, ga) in &a.groups {
            let gb = b.groups.get(key).expect("group present in both");
            assert_eq!(ga.total_bytes, gb.total_bytes);
            assert_eq!(ga.ranks.len(), gb.ranks.len());
            for (rank, ws) in ga.ranks.iter().enumerate() {
                for (w, ca) in ws.iter().enumerate() {
                    let cb = &gb.ranks[rank][w];
                    match (ca, cb) {
                        (Some(x), Some(y)) => {
                            let bits =
                                |v: &[f64]| v.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
                            assert_eq!(bits(&x.min_rtt_ms), bits(&y.min_rtt_ms));
                            assert_eq!(bits(&x.hdratio), bits(&y.hdratio));
                            assert_eq!(x.bytes, y.bytes);
                            assert_eq!(x.relationship, y.relationship);
                            assert_eq!(x.longer_path, y.longer_path);
                            assert_eq!(x.more_prepended, y.more_prepended);
                        }
                        (None, None) => {}
                        other => panic!("cell presence differs at rank {rank} w {w}: {other:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn single_shard_matches_from_records() {
        let records = synthetic(5_000);
        let mut sink = ColumnarSink::new(4);
        let mut shard = sink.new_shard();
        for r in &records {
            shard.push(*r);
        }
        sink.merge_shard(shard);
        assert_eq!(sink.cell_count(), Dataset::from_records(&records, 4).cell_count());
        assert_identical(&sink.into_dataset(), &Dataset::from_records(&records, 4));
    }

    #[test]
    fn prefix_split_shards_match_from_records() {
        // Split records by prefix across 4 shards merged in reverse order
        // — the runner's contract (one prefix → one worker, any order).
        let records = synthetic(5_000);
        let mut sink = ColumnarSink::new(4);
        let mut shards: Vec<ColumnarShard> = (0..4).map(|_| sink.new_shard()).collect();
        for r in &records {
            shards[(r.group.prefix.base >> 16) as usize % 4].push(*r);
        }
        for s in shards.into_iter().rev() {
            sink.merge_shard(s);
        }
        assert_identical(&sink.into_dataset(), &Dataset::from_records(&records, 4));
    }

    #[test]
    fn cross_shard_cell_collision_merges() {
        // Not produced by the runner, but the merge must stay correct if a
        // cell's records land in two shards: samples union, flags OR.
        let records = synthetic(2_000);
        let mut sink = ColumnarSink::new(4);
        let mut a = sink.new_shard();
        let mut b = sink.new_shard();
        for (i, r) in records.iter().enumerate() {
            if i % 2 == 0 {
                a.push(*r);
            } else {
                b.push(*r);
            }
        }
        sink.merge_shard(b);
        sink.merge_shard(a);
        let ds = sink.into_dataset();
        // Relationship is keyed to rank in `rec`, so first-wins across
        // shards cannot differ here; everything else must be exact.
        assert_identical(&ds, &Dataset::from_records(&records, 4));
    }

    #[test]
    fn memo_handles_interleaved_cells() {
        // Alternating cells defeat the memo every push; correctness must
        // not depend on the memo hitting.
        let mut records = Vec::new();
        for i in 0..500 {
            records.push(rec(1, 0, 0, 30.0 + i as f64, None));
            records.push(rec(2, 3, 1, 60.0 + i as f64, Some(0.5)));
        }
        let mut sink = ColumnarSink::new(4);
        let mut shard = sink.new_shard();
        for r in &records {
            shard.push(*r);
        }
        assert_eq!(shard.cell_count(), 2);
        assert_eq!(shard.sample_count(), 1_000);
        sink.merge_shard(shard);
        assert_identical(&sink.into_dataset(), &Dataset::from_records(&records, 4));
    }

    #[test]
    #[should_panic]
    fn window_out_of_range_panics_at_assembly() {
        let mut sink = ColumnarSink::new(1);
        let mut shard = sink.new_shard();
        shard.push(rec(1, 3, 0, 30.0, None));
        sink.merge_shard(shard);
        let _ = sink.into_dataset();
    }
}
