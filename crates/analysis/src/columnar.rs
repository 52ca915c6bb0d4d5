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
//! one `u32` end offset a cell, and keeps each metric in the narrowest
//! [`ColumnForm`] that gives every value back to the bit. A study's
//! MinRTTs are whole nanoseconds (the runner divides a nanosecond count
//! by 10⁶) and its HDratios `achieved / tested`, a few hundred distinct
//! ratios a prefix, so a kept row is 4 + 2 bytes. The scheduler
//! hands each prefix to exactly one worker, so shards share no group (a
//! hand-built shard that does share a group with one already adopted is
//! folded into it, so the sink's shards never share a cell). The sink is
//! then kept, not exploded: [`ColumnarSink::summarize`] reads every cell's
//! order statistics off one transient sorted column per shard and metric,
//! [`ColumnarSink::rows`] and the sink's [`PreferredSessions`] view walk
//! the cells for Figures 6–7, decoding as they go, and
//! [`ColumnarSink::into_dataset`] — the oracle tests and benches compare
//! against — copies the same sorted slices out into a [`Dataset`].

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

/// How an adopted shard keeps one metric's rows: the first of these forms
/// that gives every value of the shard back with the same `to_bits`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnForm {
    /// Whole nanoseconds below 2³², a value being its count ÷ 10⁶ (a
    /// MinRTT in ms): 4 B a row.
    Nanos,
    /// A code into a palette of this many distinct values (at most 65,536
    /// and three quarters of the rows; the untested NaN is one of them):
    /// 2 B a row, 8 B a value.
    Palette(usize),
    /// The `f64` itself: 8 B a row.
    Plain,
}

/// One metric's rows in their [`ColumnForm`].
#[derive(Debug)]
enum Column {
    Nanos(Vec<u32>),
    Palette { codes: Vec<u16>, palette: Vec<f64> },
    Plain(Vec<f64>),
}

/// `ms` as a whole number of nanoseconds, if it is one below 2³².
fn nanos_of(ms: f64) -> Option<u32> {
    // `as` saturates (NaN to 0); what does not come back is refused.
    let nanos = (ms * 1e6).round() as u32;
    (f64::from(nanos) / 1e6).to_bits().eq(&ms.to_bits()).then_some(nanos)
}

/// `values` laid out cell by cell — value `i` at the next free row of cell
/// `cell[i]`, whose first row is `starts[cell[i]]` — each as `encode`
/// gives it, or `None` at the first value it cannot.
fn scatter<T: Copy + Default>(
    values: &[f64],
    cell: &[u32],
    starts: &[u32],
    mut encode: impl FnMut(f64) -> Option<T>,
) -> Option<Vec<T>> {
    let mut next = starts.to_vec();
    let mut rows = vec![T::default(); values.len()];
    for (&ci, &value) in cell.iter().zip(values) {
        let row = &mut next[ci as usize];
        rows[*row as usize] = encode(value)?;
        *row += 1;
    }
    Some(rows)
}

impl Column {
    /// Scatter `values` (see [`scatter`]) into the first form that holds
    /// every one of them bit for bit.
    fn adopt(values: &[f64], cell: &[u32], starts: &[u32]) -> Column {
        if let Some(nanos) = scatter(values, cell, starts, nanos_of) {
            return Column::Nanos(nanos);
        }
        // A palette narrower than the values it codes: 2 B a row and 8 B an
        // entry against 8 B a row.
        let most = (values.len() / 4 * 3).min(1 << u16::BITS);
        let (mut palette, mut index) = (Vec::new(), FxHashMap::default());
        // Ratios such as k/2ⁿ differ only in their bits' high half, and
        // FxHash picks a bucket by the low bits: mix and fold the halves
        // (each a bijection) first.
        let key = |value: f64| {
            let mixed = value.to_bits().wrapping_mul(0x9e37_79b9_7f4a_7c15);
            mixed ^ mixed >> 32
        };
        let code = |value: f64| match index.get(&key(value)) {
            Some(&code) => Some(code),
            None if palette.len() < most => {
                let code = palette.len() as u16;
                palette.push(value);
                index.insert(key(value), code);
                Some(code)
            }
            None => None,
        };
        if let Some(codes) = scatter(values, cell, starts, code) {
            palette.shrink_to_fit();
            return Column::Palette { codes, palette };
        }
        Column::Plain(scatter(values, cell, starts, Some).expect("an f64 holds itself"))
    }

    fn form(&self) -> ColumnForm {
        match self {
            Column::Nanos(_) => ColumnForm::Nanos,
            Column::Palette { palette, .. } => ColumnForm::Palette(palette.len()),
            Column::Plain(_) => ColumnForm::Plain,
        }
    }

    fn len(&self) -> usize {
        match self {
            Column::Nanos(nanos) => nanos.len(),
            Column::Palette { codes, .. } => codes.len(),
            Column::Plain(values) => values.len(),
        }
    }

    /// Rows `rows`, decoded as they are read, their bits as adopted.
    fn values(&self, rows: Range<usize>) -> Values<'_> {
        match self {
            Column::Nanos(nanos) => Values::Nanos(nanos[rows].iter()),
            Column::Palette { codes, palette } => Values::Palette(codes[rows].iter(), palette),
            Column::Plain(values) => Values::Plain(values[rows].iter()),
        }
    }

    /// Every row decoded, in order.
    fn to_vec(&self) -> Vec<f64> {
        self.values(0..self.len()).collect()
    }
}

/// A run of a [`Column`]'s rows, decoded.
enum Values<'a> {
    Nanos(std::slice::Iter<'a, u32>),
    Palette(std::slice::Iter<'a, u16>, &'a [f64]),
    Plain(std::slice::Iter<'a, f64>),
}

impl Iterator for Values<'_> {
    type Item = f64;

    #[inline]
    fn next(&mut self) -> Option<f64> {
        match self {
            Values::Nanos(nanos) => nanos.next().map(|&nanos| f64::from(nanos) / 1e6),
            Values::Palette(codes, palette) => codes.next().map(|&code| palette[code as usize]),
            Values::Plain(values) => values.next().copied(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            Values::Nanos(nanos) => nanos.size_hint(),
            Values::Palette(codes, _) => codes.size_hint(),
            Values::Plain(values) => values.size_hint(),
        }
    }
}

/// A shard as the sink keeps it: the worker's rows laid out cell by cell —
/// cell `ci` is rows `ends[ci - 1]..ends[ci]` of both columns, in the order
/// its worker pushed them — so a row is its (MinRTT, HDratio) pair in the
/// two columns' forms and a cell's place costs one `u32`.
#[derive(Debug)]
struct AdoptedShard {
    groups: FxHashSet<GroupKey>,
    cells: Vec<CellMeta>,
    ends: Vec<u32>,
    min_rtt: Column,
    /// NaN for a session that tested nothing.
    hdratio: Column,
}

impl AdoptedShard {
    /// Group `shard`'s rows by cell: a stable counting scatter to the
    /// prefix sums of the per-cell counts the pass tracked, each metric
    /// into its narrowest form.
    fn adopt(shard: ColumnarShard) -> Self {
        let rows = shard.cell.len();
        assert!(u32::try_from(rows).is_ok(), "a shard's rows fit u32");
        let mut starts = Vec::with_capacity(shard.cells.len());
        let mut total = 0usize;
        for c in &shard.cells {
            starts.push(total as u32);
            total += c.n_rtt as usize;
        }
        assert_eq!(total, rows, "per-cell counts cover every row");
        let min_rtt = Column::adopt(&shard.min_rtt, &shard.cell, &starts);
        let hdratio = Column::adopt(&shard.hdratio, &shard.cell, &starts);
        let mut ends = starts;
        ends.iter_mut().zip(&shard.cells).for_each(|(end, c)| *end += c.n_rtt);
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
        let (min_rtt, hdratio) = (self.min_rtt.to_vec(), self.hdratio.to_vec());
        ColumnarShard { cells: self.cells, min_rtt, hdratio, ..shard }
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
            let rows = self.min_rtt.values(rows.clone()).zip(self.hdratio.values(rows));
            rows.map(|(min_rtt, hd)| (meta.key, min_rtt, (!hd.is_nan()).then_some(hd)))
        })
    }

    /// The one place where rows become sorted cells: `column` decoded, with
    /// each cell's slice sorted once — a cell's NaNs (the untested mark, a
    /// positive NaN) after its samples.
    fn sorted_column(&self, column: &Column) -> Vec<f64> {
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

    /// Every adopted shard's MinRTT form and HDratio form, in the order the
    /// shards were merged.
    pub fn column_forms(&self) -> impl Iterator<Item = (ColumnForm, ColumnForm)> + '_ {
        self.shards.iter().map(|s| (s.min_rtt.form(), s.hdratio.form()))
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

    /// `n` sessions of `prefix` shaped like a study's: a MinRTT of a whole
    /// `nanos(i)` nanoseconds and an `achieved / tested` HDratio, a fifth
    /// of them untested.
    fn study_shaped(prefix: u32, n: usize, nanos: impl Fn(usize) -> u64) -> Vec<SessionRecord> {
        let session = |i: usize| {
            let tested = 1 + i % 9;
            let hdratio = (i * 7 % (tested + 1)) as f64 / tested as f64;
            let min_rtt = nanos(i) as f64 / 1e6;
            rec(
                prefix,
                (i % 4) as u32,
                (i / 4 % 2) as u8,
                min_rtt,
                (!i.is_multiple_of(5)).then_some(hdratio),
            )
        };
        (0..n).map(session).collect()
    }

    /// One adopted shard per entry of `shards`, merged in order.
    fn adopted(shards: &[Vec<SessionRecord>]) -> ColumnarSink {
        let mut sink = ColumnarSink::new(4);
        for records in shards {
            let mut shard = sink.new_shard();
            records.iter().for_each(|r| shard.push(*r));
            sink.merge_shard(shard);
        }
        sink
    }

    /// Every way the sink is read — its rows, its summaries, Figures 6–7
    /// and its dataset — gives the bits `records`, held as `f64`s, give.
    fn assert_reads_as(sink: ColumnarSink, records: &[SessionRecord]) {
        // Rows come cell by cell, cells in first-seen order.
        let mut first_seen = FxHashMap::default();
        let mut want: Vec<_> = records
            .iter()
            .map(|r| {
                let key = CellKey { group: r.group, window: r.window, rank: r.route_rank };
                let next = first_seen.len();
                let seen = *first_seen.entry(key).or_insert(next);
                (seen, (key, r.min_rtt_ms.to_bits(), r.hdratio.map(f64::to_bits)))
            })
            .collect();
        want.sort_by_key(|&(seen, _)| seen);
        let rows = sink.rows().map(|(key, rtt, hd)| (key, rtt.to_bits(), hd.map(f64::to_bits)));
        assert!(rows.eq(want.into_iter().map(|(_, row)| row)), "rows differ");

        // `{:?}` prints a float in its shortest round-trip form: equal text,
        // equal bits (-0.0 included).
        use crate::figures::{fig6_hdratio, fig6_minrtt, fig7_hdratio_by_minrtt};
        let figures = (fig6_minrtt(&sink), fig6_hdratio(&sink), fig7_hdratio_by_minrtt(&sink));
        let want = (fig6_minrtt(records), fig6_hdratio(records), fig7_hdratio_by_minrtt(records));
        assert_eq!(format!("{figures:?}"), format!("{want:?}"));
        let whole = Dataset::from_records(records, 4);
        let summaries = sink.summarize();
        assert_eq!(summaries.groups.len(), whole.groups.len());
        for (key, g) in &summaries.groups {
            let want = whole.groups[key].summarize(Aggregation::summary);
            assert_eq!(format!("{g:?}"), format!("{want:?}"));
        }
        assert_identical(&sink.into_dataset(), &whole);
    }

    #[test]
    fn each_shard_takes_the_first_form_that_gives_back_every_bit() {
        let edges = [
            -0.0,
            0.0,
            5e-324,
            f64::MIN_POSITIVE / 3.0,
            0.1 + 0.2,
            0.3,
            4_294.967_295,
            4_294.967_296,
            1e300,
        ];
        let ratios = [Some(-0.0), Some(0.1 + 0.2), Some(5e-324), None, Some(1.0)];
        let distinct = |i: usize| 1_000 + 7_919 * i as u64;
        let mut negative_zero = study_shaped(3, 400, distinct);
        negative_zero[7].min_rtt_ms = -0.0;
        let shards = [
            // Whole nanoseconds up to the most a `u32` counts.
            study_shaped(1, 400, |i| if i == 7 { u32::MAX.into() } else { distinct(i) }),
            // One 2³² ns among 50 whole milliseconds: a palette, this shard only.
            study_shaped(2, 400, |i| if i == 7 { 1 << 32 } else { 1_000_000 * (i as u64 % 50) }),
            // One -0.0 among 400 distinct values, too many for a palette.
            negative_zero,
            (0..36).map(|i| rec(4, (i % 4) as u32, 0, edges[i % 9], ratios[i % 5])).collect(),
        ];
        let hdratios = |records: &[SessionRecord]| {
            let bits = records.iter().map(|r| r.hdratio.unwrap_or(f64::NAN).to_bits());
            ColumnForm::Palette(bits.collect::<FxHashSet<_>>().len())
        };
        let sink = adopted(&shards);
        assert_eq!(
            sink.column_forms().collect::<Vec<_>>(),
            [
                (ColumnForm::Nanos, hdratios(&shards[0])),
                (ColumnForm::Palette(51), hdratios(&shards[1])),
                (ColumnForm::Plain, hdratios(&shards[2])),
                (ColumnForm::Palette(9), ColumnForm::Palette(5)),
            ]
        );
        assert_reads_as(sink, &shards.concat());
    }

    #[test]
    fn a_palette_holds_at_most_65_536_values() {
        // Every HDratio twice, so that a palette is narrower than the values.
        let twice = |prefix: u32, distinct: usize| -> Vec<SessionRecord> {
            let session = |i: usize| {
                let min_rtt = (20_000_000 + i as u64 % 977) as f64 / 1e6;
                let hdratio = (i % distinct) as f64 / distinct as f64;
                rec(prefix, (i % 4) as u32, (i / 4 % 2) as u8, min_rtt, Some(hdratio))
            };
            (0..2 * distinct).map(session).collect()
        };
        let shards = [twice(1, 1 << 16), twice(2, (1 << 16) + 1)];
        let sink = adopted(&shards);
        assert_eq!(
            sink.column_forms().collect::<Vec<_>>(),
            [
                (ColumnForm::Nanos, ColumnForm::Palette(1 << 16)),
                (ColumnForm::Nanos, ColumnForm::Plain)
            ]
        );
        assert_reads_as(sink, &shards.concat());
    }

    #[test]
    fn a_compact_shard_folded_back_into_a_worker_shard_keeps_its_bits() {
        // Two shards of one prefix: the first is adopted compact, then taken
        // back to the worker's form to absorb the second.
        let records = study_shaped(1, 400, |i| 7_919 * i as u64);
        let (first, second) = records.split_at(150);
        let sink = adopted(&[first.to_vec(), second.to_vec()]);
        let min_rtt: Vec<_> = sink.column_forms().map(|(min_rtt, _)| min_rtt).collect();
        assert_eq!(min_rtt, [ColumnForm::Nanos], "the second shard folded into the first");
        assert_reads_as(sink, &records);
    }
}
