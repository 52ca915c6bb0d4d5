//! Columnar (SoA) worker shards for the exact analysis path.
//!
//! The original exact pipeline had each worker append `SessionRecord`s to
//! a `Vec`, then rebuilt every aggregation serially after the join by
//! re-hashing all records into a map of cells. At fleet scale that is the
//! wrong shape twice over: the AoS record vector is written once and read
//! once, and the post-join rebuild is a second serial pass over data the
//! workers already had grouped.
//!
//! A [`ColumnarShard`] instead aggregates *during* the parallel pass into
//! struct-of-arrays columns. Samples append to flat per-metric logs — a
//! `Vec<u32>` of dense cell ids alongside a `Vec<f64>` of values — so the
//! steady-state cost per record is one memo equality check, two array
//! indexings, and a few unconditional pushes. The group → cell-table map
//! is only consulted when the group changes, which the runner's
//! per-prefix record order makes rare; within a group, (rank, window) →
//! cell id resolves through a dense table with no hashing at all. This
//! matters because the runner interleaves ranks record-by-record (each
//! session emits preferred + alternates back-to-back), so a cell-keyed
//! memo would miss on almost every record.
//!
//! At join time [`ColumnarSink`] takes ownership of whole shards without
//! touching their samples: the scheduler hands each prefix to exactly one
//! worker, so cells never collide across shards and the merge is a
//! `Vec::push` of the shard itself. [`ColumnarSink::into_dataset`] then
//! scatters each log into per-cell vectors preallocated at their exact
//! final length (each cell's sample count was tracked during the pass, so
//! there is no growth-doubling churn) and sorts each cell once.

use crate::dataset::{Aggregation, Dataset, GroupSlots};
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
struct CellMeta {
    key: CellKey,
    relationship: Relationship,
    longer_path: bool,
    more_prepended: bool,
    bytes: u64,
    n_rtt: u32,
    n_hd: u32,
}

/// One group's dense (rank, window) → cell-id table. Entries store
/// `cell id + 1` so zero means "no cell yet"; rows grow lazily to the
/// highest window seen.
#[derive(Debug)]
struct ShardGroup {
    ranks: Vec<Vec<u32>>,
}

/// One worker's columnar accumulator: flat per-metric sample logs keyed
/// by a dense per-shard cell id, plus one metadata slot per cell.
#[derive(Debug, Default)]
pub struct ColumnarShard {
    group_index: FxHashMap<GroupKey, u32>,
    memo: Option<(GroupKey, u32)>,
    groups: Vec<ShardGroup>,
    cells: Vec<CellMeta>,
    rtt_cell: Vec<u32>,
    rtt_val: Vec<f64>,
    hd_cell: Vec<u32>,
    hd_val: Vec<f64>,
}

impl ColumnarShard {
    /// Number of distinct cells this shard has seen.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// MinRTT samples recorded (one per session).
    pub fn sample_count(&self) -> usize {
        self.rtt_val.len()
    }
}

impl RecordShard for ColumnarShard {
    fn push(&mut self, r: SessionRecord) {
        assert!(r.route_rank < 8, "suspicious route rank {}", r.route_rank);
        let gi = match self.memo {
            Some((k, i)) if k == r.group => i as usize,
            _ => {
                let i = *self.group_index.entry(r.group).or_insert_with(|| {
                    self.groups.push(ShardGroup { ranks: Vec::new() });
                    (self.groups.len() - 1) as u32
                });
                self.memo = Some((r.group, i));
                i as usize
            }
        };
        let (rank, window) = (r.route_rank as usize, r.window as usize);
        let ranks = &mut self.groups[gi].ranks;
        if ranks.len() <= rank {
            ranks.resize_with(rank + 1, Vec::new);
        }
        let row = &mut ranks[rank];
        if row.len() <= window {
            row.resize(window + 1, 0);
        }
        let ci = match row[window] {
            0 => {
                let id = self.cells.len() as u32;
                self.cells.push(CellMeta {
                    key: CellKey { group: r.group, window: r.window, rank: r.route_rank },
                    relationship: r.relationship,
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
        };
        let cell = &mut self.cells[ci];
        cell.bytes += r.bytes;
        cell.longer_path |= r.longer_path;
        cell.more_prepended |= r.more_prepended;
        cell.n_rtt += 1;
        self.rtt_cell.push(ci as u32);
        self.rtt_val.push(r.min_rtt_ms);
        if let Some(h) = r.hdratio {
            cell.n_hd += 1;
            self.hd_cell.push(ci as u32);
            self.hd_val.push(h);
        }
    }
}

/// Exact-path sink that keeps worker shards whole until the study ends.
#[derive(Debug, Default)]
pub struct ColumnarSink {
    n_windows: usize,
    shards: Vec<ColumnarShard>,
}

impl ColumnarSink {
    /// Empty sink over a fixed number of 15-minute windows.
    pub fn new(n_windows: usize) -> Self {
        ColumnarSink { n_windows, shards: Vec::new() }
    }

    /// Distinct cells across all shards (the peak cell count of the run,
    /// since the scheduler never sends one cell to two workers).
    pub fn cell_count(&self) -> usize {
        self.shards.iter().map(ColumnarShard::cell_count).sum()
    }

    /// Assemble the exact [`Dataset`]. Each shard's sample logs scatter
    /// once into per-cell vectors preallocated at their exact final
    /// length, then each cell is sorted once.
    pub fn into_dataset(self) -> Dataset {
        let n_windows = self.n_windows;
        let mut grid: GroupSlots<Aggregation> = GroupSlots::new(n_windows);
        for shard in self.shards {
            let ColumnarShard { cells, rtt_cell, rtt_val, hd_cell, hd_val, .. } = shard;
            let mut min_rtt: Vec<Vec<f64>> =
                cells.iter().map(|c| Vec::with_capacity(c.n_rtt as usize)).collect();
            for (&ci, &v) in rtt_cell.iter().zip(&rtt_val) {
                min_rtt[ci as usize].push(v);
            }
            let mut hdratio: Vec<Vec<f64>> =
                cells.iter().map(|c| Vec::with_capacity(c.n_hd as usize)).collect();
            for (&ci, &v) in hd_cell.iter().zip(&hd_val) {
                hdratio[ci as usize].push(v);
            }
            for (ci, meta) in cells.into_iter().enumerate() {
                let key = meta.key;
                let mut mr = std::mem::take(&mut min_rtt[ci]);
                let mut hd = std::mem::take(&mut hdratio[ci]);
                mr.sort_unstable_by(f64::total_cmp);
                hd.sort_unstable_by(f64::total_cmp);
                match grid.cell(key.group, key.rank as usize, key.window as usize, meta.bytes) {
                    Some(cell) => {
                        // Two shards produced the same cell — impossible
                        // from the study runner, but merge defensively so
                        // hand-built shard splits stay correct.
                        cell.min_rtt_ms.extend_from_slice(&mr);
                        cell.hdratio.extend_from_slice(&hd);
                        cell.min_rtt_ms.sort_unstable_by(f64::total_cmp);
                        cell.hdratio.sort_unstable_by(f64::total_cmp);
                        cell.bytes += meta.bytes;
                        cell.longer_path |= meta.longer_path;
                        cell.more_prepended |= meta.more_prepended;
                    }
                    slot @ None => {
                        let mut cell = Aggregation::new(meta.relationship);
                        cell.min_rtt_ms = mr;
                        cell.hdratio = hd;
                        cell.bytes = meta.bytes;
                        cell.longer_path = meta.longer_path;
                        cell.more_prepended = meta.more_prepended;
                        *slot = Some(cell);
                    }
                }
            }
        }
        Dataset { n_windows, groups: grid.slots.into_iter().collect() }
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

    fn merge_shard(&mut self, shard: ColumnarShard) {
        // Zero-copy: adopt the shard whole; samples stay where the worker
        // wrote them until `into_dataset` moves each column into its cell.
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
mod tests {
    use super::*;
    use edgeperf_routing::{PopId, Prefix};

    fn rec(prefix: u32, window: u32, rank: u8, rtt: f64, hdr: Option<f64>) -> SessionRecord {
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
