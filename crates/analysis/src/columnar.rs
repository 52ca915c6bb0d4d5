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
//! At join time [`ColumnarSink`] takes ownership of whole shards without
//! touching their rows: the scheduler hands each prefix to exactly one
//! worker, so shards share no group and the merge is a `Vec::push` of the
//! shard itself (a hand-built shard that does share a group with one
//! already merged is folded into it, so the sink's shards never share a
//! cell). The sink is then kept, not exploded: [`ColumnarSink::summarize`]
//! reads every cell's order statistics off one transient flat column per
//! shard and metric, [`ColumnarSink::rows`] and the sink's
//! [`PreferredSessions`] view re-read the rows for Figures 6–7, and
//! [`ColumnarSink::into_dataset`] — the oracle tests and benches compare
//! against — copies the same sorted slices out into a [`Dataset`].

use crate::dataset::{
    in_dataset_order, median_and_variance, Aggregation, CellSummary, Dataset, GroupSlots, Summaries,
};
use crate::figures::PreferredSessions;
use crate::hash::FxHashMap;
use crate::record::{GroupKey, SessionRecord};
use crate::sink::{RecordShard, RecordSink, SinkStats};
use edgeperf_routing::Relationship;

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

/// One metric of one shard with every cell's samples contiguous and
/// ascending: cell `ci` is `values[ends[ci - 1]..ends[ci]]`.
struct SortedColumn {
    values: Vec<f64>,
    ends: Vec<usize>,
}

impl SortedColumn {
    fn cell(&self, ci: usize) -> &[f64] {
        let start = if ci == 0 { 0 } else { self.ends[ci - 1] };
        &self.values[start..self.ends[ci]]
    }
}

impl ColumnarShard {
    /// Number of distinct cells this shard has seen.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// MinRTT samples recorded (one per session).
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

    /// The one place where rows become sorted cells: scatter the non-NaN
    /// `rows` to the prefix sums of `count` (each cell's sample count was
    /// tracked during the pass), then sort each cell's slice once.
    fn sorted_column(&self, rows: &[f64], count: impl Fn(&CellMeta) -> u32) -> SortedColumn {
        // Until the scatter is done `ends[ci]` is the next free slot of cell
        // `ci`; it starts at the cell's first slot and stops at its end.
        let mut ends = Vec::with_capacity(self.cells.len());
        let mut total = 0usize;
        for c in &self.cells {
            ends.push(total);
            total += count(c) as usize;
        }
        let mut values = vec![0.0; total];
        for (&ci, &v) in self.cell.iter().zip(rows) {
            if !v.is_nan() {
                let slot = &mut ends[ci as usize];
                values[*slot] = v;
                *slot += 1;
            }
        }
        let mut start = 0;
        for &end in &ends {
            values[start..end].sort_unstable_by(f64::total_cmp);
            start = end;
        }
        SortedColumn { values, ends }
    }

    /// Put `cell(id, metadata)` of every cell into its slot of `grid`, in
    /// first-seen order (so groups land in first-seen order too).
    fn place<C: Clone>(
        &self,
        grid: &mut GroupSlots<C>,
        mut cell: impl FnMut(usize, &CellMeta) -> C,
    ) {
        for (ci, meta) in self.cells.iter().enumerate() {
            let CellKey { group, window, rank } = meta.key;
            *grid.cell(group, rank as usize, window as usize, meta.bytes) = Some(cell(ci, meta));
        }
    }

    /// Summarise every cell into `grid` from its exact order statistics.
    /// One sorted column is alive at a time: MinRTT's is read and freed
    /// before HDratio's is built.
    fn summarize_into(&self, grid: &mut GroupSlots<CellSummary>) {
        let min_rtt: Vec<(f64, Option<f64>)> = {
            let column = self.sorted_column(&self.min_rtt, |c| c.n_rtt);
            (0..self.cells.len())
                .map(|ci| median_and_variance(column.cell(ci)).expect("a cell holds a session"))
                .collect()
        };
        let hdratio = self.sorted_column(&self.hdratio, |c| c.n_hd);
        self.place(grid, |ci, meta| {
            let (min_rtt_p50, min_rtt_var) = min_rtt[ci];
            let (hdratio_p50, hdratio_var) = median_and_variance(hdratio.cell(ci)).unzip();
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

/// The exact study: worker shards kept whole, from which the per-cell
/// summaries, the per-session rows and (for tests) the [`Dataset`] are all
/// read.
#[derive(Debug, Default)]
pub struct ColumnarSink {
    pub(crate) n_windows: usize,
    shards: Vec<ColumnarShard>,
}

impl ColumnarSink {
    /// Empty sink over a fixed number of 15-minute windows.
    pub fn new(n_windows: usize) -> Self {
        ColumnarSink { n_windows, shards: Vec::new() }
    }

    /// Distinct cells across all shards (shards never share a cell).
    pub fn cell_count(&self) -> usize {
        self.shards.iter().map(ColumnarShard::cell_count).sum()
    }

    /// Summarise every cell once from its exact order statistics — the
    /// same numbers, groups in the same order, as
    /// `into_dataset().summarize()`, without building the dataset: one
    /// shard and one metric at a time is scattered into a flat column,
    /// read, and freed.
    pub fn summarize(&self) -> Summaries {
        let mut grid = GroupSlots::new(self.n_windows);
        for shard in &self.shards {
            shard.summarize_into(&mut grid);
        }
        Summaries { groups: in_dataset_order(grid.slots) }
    }

    /// Every session as its worker pushed it, shard by shard: its cell,
    /// its MinRTT (ms) and its HDratio if it tested.
    pub fn rows(&self) -> impl Iterator<Item = (CellKey, f64, Option<f64>)> + '_ {
        self.shards.iter().flat_map(|s| {
            s.cell.iter().zip(&s.min_rtt).zip(&s.hdratio).map(move |((&ci, &min_rtt), &hd)| {
                (s.cells[ci as usize].key, min_rtt, (!hd.is_nan()).then_some(hd))
            })
        })
    }

    /// Assemble the exact [`Dataset`] — the oracle tests and benches hold
    /// [`summarize`](Self::summarize) and the other sinks against. Cells
    /// are copied out of the same sorted columns `summarize` reads.
    pub fn into_dataset(self) -> Dataset {
        let mut grid = GroupSlots::new(self.n_windows);
        for shard in &self.shards {
            let min_rtt = shard.sorted_column(&shard.min_rtt, |c| c.n_rtt);
            let hdratio = shard.sorted_column(&shard.hdratio, |c| c.n_hd);
            shard.place(&mut grid, |ci, meta| Aggregation {
                min_rtt_ms: min_rtt.cell(ci).to_vec(),
                hdratio: hdratio.cell(ci).to_vec(),
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
        self.rows()
            .filter(|(key, ..)| key.rank == 0)
            .map(|(key, min_rtt, hdratio)| (key.group.continent, min_rtt, hdratio))
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
        while let Some(i) = self
            .shards
            .iter()
            .position(|s| shard.group_index.keys().any(|g| s.group_index.contains_key(g)))
        {
            let mut merged = self.shards.remove(i);
            merged.absorb(shard);
            shard = merged;
        }
        // Adopt the shard whole: rows stay where the worker wrote them,
        // minus the growth slack.
        shard.cell.shrink_to_fit();
        shard.min_rtt.shrink_to_fit();
        shard.hdratio.shrink_to_fit();
        self.shards.push(shard);
    }

    fn stats(&self) -> SinkStats {
        SinkStats {
            records: self.shards.iter().map(|s| s.sample_count() as u64).sum(),
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
