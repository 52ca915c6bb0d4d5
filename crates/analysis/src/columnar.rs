//! Columnar (SoA) worker shards: the one exact representation of a study.
//!
//! A [`ColumnarShard`] aggregates *during* the parallel pass. Every
//! session appends one row to three aligned columns — a `u32` dense cell
//! id, its MinRTT and its HDratio (NaN when the session tested nothing) —
//! 20 bytes, and a row still carries the joint (MinRTT, HDratio) that
//! Figure 7 needs. A cell's id lives in the same `GroupSlots` grid every
//! dataset built cell by cell uses, sized from the sink's window count, so
//! the steady-state cost per record is one memo equality check, two array
//! indexings, and three unconditional pushes. The group → grid map is only
//! consulted when the group changes, which the runner's per-prefix record
//! order makes rare; within a group, (rank, window) → cell id resolves
//! through the dense grid with no hashing at all. This matters because the
//! runner interleaves ranks record-by-record (each session emits its
//! preferred and alternate records back-to-back), so a cell-keyed memo
//! would miss on almost every record.
//!
//! At join time [`ColumnarSink`] seals each shard as it adopts it, the
//! way the streaming sink seals a prefix. What Figures 6–7 read of
//! HDratio — point masses by continent, and by Figure 7's MinRTT bucket a
//! count of each distinct HDratio — goes into the sink's
//! [`HdratioTally`] off the shard's preferred-route rows. Then one stable
//! counting scatter over the per-cell counts the pass tracked lays a
//! metric's rows out cell by cell in a transient column, the preferred
//! route's cells first. Their MinRTTs — the only per-session values left
//! to read, by Figure 6 — are kept in the narrowest form that gives every
//! value back to the bit, so their cell column becomes one `u32` end
//! offset a cell. A study's MinRTTs are whole nanoseconds (the runner
//! divides a nanosecond count by 10⁶), so a kept row is 4 bytes. Then
//! each cell's slice is sorted once and its order statistics go into the
//! sink's summary grid; an alternate route's rows are never stored. The
//! scheduler hands each prefix to exactly one worker, so shards share no
//! group, and the sink refuses a shard that does: the group's cells are
//! already summaries. [`ColumnarSink::rows`] and the sink's
//! [`PreferredSessions`] view walk the kept cells, decoding as they go,
//! and [`ColumnarSink::take_summaries`] hands the grid over.

use crate::dataset::{in_dataset_order, median_and_variance, CellSummary, GroupSlots, Summaries};
use crate::figures::{HdratioCounts, HdratioTally, PreferredSessions};
use crate::record::{GroupKey, SessionRecord};
use crate::segment::WindowCell;
use crate::sink::{RecordShard, RecordSink, SinkStats};
use edgeperf_routing::Relationship;
use std::collections::BTreeMap;
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

/// One worker's columnar accumulator: one row per session in three
/// aligned columns keyed by a dense per-shard cell id, plus one metadata
/// slot per cell. Made by [`ColumnarSink::new_shard`], whose window count
/// it takes: a record outside it panics at push.
#[derive(Debug)]
pub struct ColumnarShard {
    /// Every cell's id, in its group's `ranks[rank][window]` slot.
    ids: GroupSlots<u32>,
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
        let slot = self.ids.cell(key.group, key.rank as usize, key.window as usize, 0);
        let id = *slot.get_or_insert_with(|| {
            self.cells.push(CellMeta {
                key,
                relationship,
                longer_path: false,
                more_prepended: false,
                bytes: 0,
                n_rtt: 0,
                n_hd: 0,
            });
            (self.cells.len() - 1) as u32
        });
        id as usize
    }
}

/// An adopted shard's MinRTTs, in the first of these forms that gives
/// every one of them back with the same `to_bits`.
#[derive(Debug)]
enum Column {
    /// Whole nanoseconds below 2³², a value being its count ÷ 10⁶ (a
    /// MinRTT in ms): 4 B a row.
    Nanos(Vec<u32>),
    /// The `f64` itself: 8 B a row.
    Plain(Vec<f64>),
}

/// `ms` as a whole number of nanoseconds, if it is one below 2³².
fn nanos_of(ms: f64) -> Option<u32> {
    // `as` saturates (NaN to 0); what does not come back is refused.
    let nanos = (ms * 1e6).round() as u32;
    (f64::from(nanos) / 1e6).to_bits().eq(&ms.to_bits()).then_some(nanos)
}

impl Column {
    /// `values` in the first form that holds every one of them bit for bit.
    fn adopt(values: &[f64]) -> Column {
        // One exact-sized allocation, where collecting an `Option` grows by
        // doubling.
        let mut nanos = Vec::with_capacity(values.len());
        for &value in values {
            match nanos_of(value) {
                Some(n) => nanos.push(n),
                None => return Column::Plain(values.to_vec()),
            }
        }
        Column::Nanos(nanos)
    }

    /// Rows `rows`, decoded as they are read, their bits as adopted.
    fn values(&self, rows: Range<usize>) -> impl Iterator<Item = f64> + '_ {
        let (nanos, plain): (&[u32], &[f64]) = match self {
            Column::Nanos(nanos) => (&nanos[rows], &[]),
            Column::Plain(values) => (&[], &values[rows]),
        };
        nanos.iter().map(|&nanos| f64::from(nanos) / 1e6).chain(plain.iter().copied())
    }
}

/// What the sink keeps of a shard: the MinRTTs of its preferred-route
/// cells, laid out cell by cell — cell `ci` is rows `ends[ci - 1]..ends[ci]`,
/// in the order its worker pushed them — so a cell's place costs one `u32`.
#[derive(Debug)]
struct AdoptedShard {
    cells: Vec<CellKey>,
    ends: Vec<u32>,
    min_rtt: Column,
}

impl AdoptedShard {
    /// Seal `shard`: tally its tested preferred-route sessions into
    /// `hdratio`, summarise every cell into `grid`, in first-seen order
    /// (so groups land in first-seen order too), and keep its
    /// preferred-route MinRTTs. A stable counting scatter to the prefix
    /// sums of the per-cell counts the pass tracked lays a metric out cell
    /// by cell, preferred cells first, in one transient column; the
    /// preferred MinRTTs are adopted into their narrowest form, then every
    /// cell's slice is sorted once — its NaNs (the untested mark, a
    /// positive NaN) after its samples — and read. MinRTT's statistics are
    /// taken before HDratio is scattered into the same column.
    fn adopt(
        shard: ColumnarShard,
        grid: &mut GroupSlots<WindowCell>,
        hdratio: &mut HdratioTally,
    ) -> Self {
        let rows = shard.cell.len();
        assert!(u32::try_from(rows).is_ok(), "a shard's rows fit u32");
        let cells = &shard.cells;
        for ((&ci, &min_rtt), &h) in shard.cell.iter().zip(&shard.min_rtt).zip(&shard.hdratio) {
            let CellKey { group, rank, .. } = cells[ci as usize].key;
            if rank == 0 && !h.is_nan() {
                hdratio.record(group.continent, min_rtt, h);
            }
        }
        let (preferred, alternate): (Vec<usize>, Vec<usize>) =
            (0..cells.len()).partition(|&ci| cells[ci].key.rank == 0);
        let mut starts = vec![0; cells.len()];
        let mut total = 0u32;
        for &ci in preferred.iter().chain(&alternate) {
            starts[ci] = total;
            total += cells[ci].n_rtt;
        }
        assert_eq!(total as usize, rows, "per-cell counts cover every row");
        let kept: usize = preferred.iter().map(|&ci| cells[ci].n_rtt as usize).sum();
        let rows_of = |ci: usize| starts[ci] as usize..(starts[ci] + cells[ci].n_rtt) as usize;

        let mut column = vec![0.0; rows];
        let scatter = |column: &mut [f64], values: &[f64]| {
            let mut next = starts.clone();
            for (&ci, &value) in shard.cell.iter().zip(values) {
                column[next[ci as usize] as usize] = value;
                next[ci as usize] += 1;
            }
        };
        let sort = |column: &mut [f64]| {
            (0..cells.len()).for_each(|ci| column[rows_of(ci)].sort_unstable_by(f64::total_cmp));
        };
        scatter(&mut column, &shard.min_rtt);
        let min_rtt = Column::adopt(&column[..kept]);
        sort(&mut column);
        let min_rtt_stats: Vec<(f64, Option<f64>)> = (0..cells.len())
            .map(|ci| median_and_variance(&column[rows_of(ci)]).expect("a cell holds a session"))
            .collect();
        scatter(&mut column, &shard.hdratio);
        sort(&mut column);
        for (ci, (meta, (min_rtt_p50, min_rtt_var))) in cells.iter().zip(min_rtt_stats).enumerate()
        {
            let tested = &column[rows_of(ci)][..meta.n_hd as usize];
            let (hdratio_p50, hdratio_var) = median_and_variance(tested).unzip();
            let CellKey { group, window, rank } = meta.key;
            let summary = CellSummary {
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
            };
            let row = WindowCell::new(window, group, rank, &summary);
            *grid.cell(group, rank as usize, window as usize, meta.bytes) = Some(row);
        }
        AdoptedShard {
            cells: preferred.iter().map(|&ci| cells[ci].key).collect(),
            ends: preferred.iter().map(|&ci| starts[ci] + cells[ci].n_rtt).collect(),
            min_rtt,
        }
    }

    /// Every session kept, cell by cell: its cell and its MinRTT (ms).
    fn sessions(&self) -> impl Iterator<Item = (CellKey, f64)> + '_ {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        self.cells.iter().zip(starts.zip(&self.ends)).flat_map(|(&key, (start, &end))| {
            self.min_rtt.values(start as usize..end as usize).map(move |min_rtt| (key, min_rtt))
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

/// The exact study, sealed shard by shard as it is merged: every cell's
/// summary, from its exact order statistics, the preferred route's
/// MinRTTs, which Figure 6 reads, and what Figures 6–7 read of its
/// HDratios, tallied.
#[derive(Debug)]
pub struct ColumnarSink {
    pub(crate) n_windows: usize,
    summaries: GroupSlots<WindowCell>,
    preferred: Vec<AdoptedShard>,
    hdratio: HdratioTally,
    records: u64,
    cells: u64,
}

impl ColumnarSink {
    /// Empty sink over a fixed number of 15-minute windows.
    pub fn new(n_windows: usize) -> Self {
        let (summaries, hdratio) = (GroupSlots::new(n_windows), HdratioTally::default());
        ColumnarSink { n_windows, summaries, preferred: Vec::new(), hdratio, records: 0, cells: 0 }
    }

    /// Distinct cells merged (shards never share a group).
    pub fn cell_count(&self) -> usize {
        self.cells as usize
    }

    /// Every cell's summary — the same numbers, groups in the same order,
    /// as `Dataset::from_records` over the merged sessions, then
    /// `summarize()` — copied out of the sink.
    pub fn summarize(&self) -> Summaries {
        Summaries { groups: in_dataset_order(self.summaries.slots.clone()) }
    }

    /// [`summarize`](Self::summarize) without the copy: the grid is handed
    /// over and the sink keeps only its rows and tally.
    pub fn take_summaries(&mut self) -> Summaries {
        Summaries { groups: in_dataset_order(self.summaries.take()) }
    }

    /// Every preferred-route session, shard by shard and within a shard
    /// cell by cell (cells in first-seen order, a cell's sessions in the
    /// order its worker pushed them): its cell and its MinRTT (ms).
    pub fn rows(&self) -> impl Iterator<Item = (CellKey, f64)> + '_ {
        self.preferred.iter().flat_map(AdoptedShard::sessions)
    }

    /// For every shard that kept rows, in merge order, whether its MinRTTs
    /// are kept as whole nanoseconds (4 B a row) rather than `f64`s (8 B).
    pub fn min_rtt_in_nanos(&self) -> impl Iterator<Item = bool> + '_ {
        self.preferred.iter().map(|s| matches!(s.min_rtt, Column::Nanos(_)))
    }

    /// The HDratio tally of every merged preferred-route session.
    pub fn hdratio(&self) -> &HdratioTally {
        &self.hdratio
    }

    /// Figure 6's HDratio point masses, as `StreamingDataset` answers them.
    pub fn hdratio_rollup(&self) -> (HdratioCounts, BTreeMap<u8, HdratioCounts>) {
        self.hdratio.rollup()
    }
}

impl PreferredSessions for ColumnarSink {
    fn preferred_sessions(&self) -> impl Iterator<Item = (u8, f64)> {
        self.rows().map(|(cell, min_rtt)| (cell.group.continent, min_rtt))
    }
}

impl RecordSink for ColumnarSink {
    type Shard = ColumnarShard;
    type Snapshot = Summaries;
    type Stats = SinkStats;

    fn name(&self) -> &'static str {
        "columnar"
    }

    fn new_shard(&self) -> ColumnarShard {
        ColumnarShard {
            ids: GroupSlots::new(self.n_windows),
            cells: Vec::new(),
            cell: Vec::new(),
            min_rtt: Vec::new(),
            hdratio: Vec::new(),
        }
    }

    /// Seal `shard` into the sink. The runner hands each prefix to one
    /// worker, so no two shards share a group; one that does is refused,
    /// naming the group, since that group's cells are summaries already.
    fn merge_shard(&mut self, shard: ColumnarShard) {
        for (group, _) in &shard.ids.slots {
            assert!(
                self.summaries.get(group).is_none(),
                "group {group:?} reached the sink in two shards"
            );
        }
        self.records += shard.cell.len() as u64;
        self.cells += shard.cells.len() as u64;
        let kept = AdoptedShard::adopt(shard, &mut self.summaries, &mut self.hdratio);
        if !kept.cells.is_empty() {
            self.preferred.push(kept);
        }
    }

    /// Every merged session, whether or not its rows were kept.
    fn stats(&self) -> SinkStats {
        SinkStats { records: self.records, cells: self.cells, ..SinkStats::default() }
    }

    fn into_snapshot(mut self) -> Summaries {
        self.take_summaries()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::hash::FxHashMap;
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

    /// One shard a `Vec` of `shards`, pushed in order, merged in order.
    fn adopted(shards: &[Vec<SessionRecord>]) -> ColumnarSink {
        let mut sink = ColumnarSink::new(4);
        for records in shards {
            let mut shard = sink.new_shard();
            records.iter().for_each(|r| shard.push(*r));
            sink.merge_shard(shard);
        }
        sink
    }

    /// Every way the sink is read — its rows, Figures 6–7 and its summaries
    /// — gives the bits `records`, in merge order and held as `f64`s, give:
    /// the rows are the preferred route's MinRTTs, the HDratio tally
    /// theirs, and the summaries are `Dataset::from_records`'s, groups in
    /// the same order.
    fn assert_reads_as(mut sink: ColumnarSink, records: &[SessionRecord]) {
        // Rows come cell by cell, cells in first-seen order.
        let mut first_seen = FxHashMap::default();
        let mut want: Vec<_> = records
            .iter()
            .filter(|r| r.route_rank == 0)
            .map(|r| {
                let key = CellKey { group: r.group, window: r.window, rank: r.route_rank };
                let next = first_seen.len();
                let seen = *first_seen.entry(key).or_insert(next);
                (seen, (key, r.min_rtt_ms.to_bits()))
            })
            .collect();
        want.sort_by_key(|&(seen, _)| seen);
        let rows = sink.rows().map(|(key, rtt)| (key, rtt.to_bits()));
        assert!(rows.eq(want.into_iter().map(|(_, row)| row)), "rows differ");

        // `{:?}` prints a float in its shortest round-trip form: equal text,
        // equal bits (-0.0 included).
        use crate::figures::{fig6_minrtt, HdratioTally};
        let tally = HdratioTally::of(records);
        assert_eq!(sink.hdratio(), &tally);
        let figures = (fig6_minrtt(&sink), sink.hdratio_rollup(), sink.hdratio().fig7());
        let want = (fig6_minrtt(records), tally.rollup(), tally.fig7());
        assert_eq!(format!("{figures:?}"), format!("{want:?}"));
        let whole = Dataset::from_records(records, 4);
        assert_eq!(sink.cell_count(), whole.cell_count());
        assert_eq!(sink.stats().records, records.len() as u64);
        let want = format!("{:?}", whole.summarize().groups);
        assert_eq!(format!("{:?}", sink.summarize().groups), want);
        assert_eq!(format!("{:?}", sink.take_summaries().groups), want);
        assert!(sink.summarize().groups.is_empty(), "taken, not copied");
    }

    #[test]
    fn single_shard_matches_from_records() {
        let records = synthetic(5_000);
        assert_reads_as(adopted(std::slice::from_ref(&records)), &records);
    }

    #[test]
    fn prefix_split_shards_match_from_records() {
        // Split records by prefix across 4 shards merged in reverse order
        // — the runner's contract (one prefix → one worker, any order).
        let mut shards = vec![Vec::new(); 4];
        for r in synthetic(5_000) {
            shards[(r.group.prefix.base >> 16) as usize % 4].push(r);
        }
        shards.reverse();
        assert_reads_as(adopted(&shards), &shards.concat());
    }

    #[test]
    #[should_panic(expected = "reached the sink in two shards")]
    fn a_group_in_two_shards_is_refused() {
        // Not produced by the runner: the first shard's cells are sealed
        // into summaries by the time the second arrives.
        let records = synthetic(2_000);
        let (even, odd): (Vec<_>, Vec<_>) = records.iter().partition(|r| r.window % 2 == 0);
        adopted(&[even, odd]);
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
        let mut shard = ColumnarSink::new(4).new_shard();
        records.iter().for_each(|r| shard.push(*r));
        assert_eq!(shard.cell_count(), 2);
        assert_eq!(shard.sample_count(), 1_000);
        assert_reads_as(adopted(std::slice::from_ref(&records)), &records);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn window_out_of_range_panics_at_push() {
        adopted(&[vec![rec(1, 4, 0, 30.0, None)]]);
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
        // Each shard's form is chosen over its preferred-route rows: half of
        // them, session 8 among them.
        let mut negative_zero = study_shaped(3, 400, distinct);
        negative_zero[8].min_rtt_ms = -0.0;
        let shards = [
            // Whole nanoseconds up to the most a `u32` counts.
            study_shaped(1, 400, |i| if i == 8 { u32::MAX.into() } else { distinct(i) }),
            // One 2³² ns among whole milliseconds: plain, this shard only.
            study_shaped(2, 400, |i| if i == 8 { 1 << 32 } else { 1_000_000 * (i as u64 % 50) }),
            // One -0.0 among whole nanoseconds.
            negative_zero,
            (0..36).map(|i| rec(4, (i % 4) as u32, 0, edges[i % 9], ratios[i % 5])).collect(),
            study_shaped(5, 400, distinct),
        ];
        let sink = adopted(&shards);
        let nanos: Vec<bool> = sink.min_rtt_in_nanos().collect();
        assert_eq!(nanos, [true, false, false, false, true]);
        assert_reads_as(sink, &shards.concat());
    }
}
