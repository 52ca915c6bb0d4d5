//! Columnar (SoA) worker shards: the one exact representation of a study.
//!
//! A [`ColumnarShard`] aggregates *during* the parallel pass, a window at
//! a time. Every session of the open window appends one row to three
//! aligned columns — a `u32` cell index, its MinRTT in whole nanoseconds
//! (a `u32`) and its HDratio (NaN when the session tested nothing) — 16
//! bytes, and a row still carries the joint (MinRTT, HDratio) that
//! Figure 7 needs. A cell's id lives in the same `GroupSlots` grid every
//! dataset built cell by cell uses, sized from the sink's window count,
//! so the steady-state cost per record is one memo equality check, two
//! array indexings, and three unconditional pushes. The group → grid map is only consulted when the group changes,
//! which the runner's per-prefix record order makes rare; within a group,
//! (rank, window) → cell id resolves through the dense grid with no
//! hashing at all. This matters because the runner interleaves ranks
//! record-by-record (each session emits its preferred and alternate
//! records back-to-back), so a cell-keyed memo would miss on almost every
//! record.
//!
//! A work item's records arrive window by window
//! ([`RecordShard::push`]), and a (group, window) cell is final once its
//! window is over (§3.3). So the shard closes a window's cells when the
//! first record of another window arrives, and again when it is sealed or
//! merged, on the worker's thread. Closing lays the window's rows out cell
//! by cell — a counting scatter over the window's per-cell counts into
//! two columns the shard reuses, stable, so a cell's rows keep their
//! arrival order — and makes each cell its [`WindowCell`] row; what
//! Figures 6–7 read of HDratio — point masses by continent, and by Figure
//! 7's MinRTT bucket a count of each distinct HDratio — goes into the
//! shard's [`HdratioTally`]. The columns are then cleared for the next
//! window, so a shard holds one window's rows beside what it has closed.
//!
//! Both offline sinks fill these shards; the sink that makes one picks
//! what a closed cell becomes beside its row and its tally entries:
//!
//! - [`ColumnarSink`]'s (exact): the cell's slice is sorted once, its
//!   NaNs (the untested mark, a positive NaN) after its samples; its order
//!   statistics, read in milliseconds, make the row; and a preferred
//!   cell's sorted MinRTTs — the only per-session values left to read, by
//!   Figure 6, which pools them by continent — are appended to its group's
//!   run, a `u32` a row. An alternate route's MinRTTs are never kept.
//!   Sealing the shard (or merging it unsealed) sorts each group's run once
//!   and Rice-codes it: the run's least value and the gaps between the
//!   rest, with one parameter for the run, under `k + 3` bits a row, 1.2
//!   bytes a row at seed 7, scale 1 (one coded run a cell was 2.17, a `u32`
//!   a row 4). A sealed shard's runs lie group after group in one bit
//!   stream, a kept group named once beside its run's end row.
//! - [`crate::StreamingDataset`]'s (§3.4.1): the cell's rows, in arrival
//!   order, feed a [`StreamingCell`], which is flushed and summarised as
//!   the live tier closes a window's cells — the same bits; a preferred
//!   cell's MinRTT digest is then merged into its group's Figure 6 rollup,
//!   window by window, and the cell is dropped. Sealing flushes each
//!   group's rollup.
//!
//! A shard is one work item: once sealed it takes no more records.
//!
//! [`ColumnarSink`] merges a shard by placing its rows in the sink's grid
//! in closing order — first-seen order, since the records came window by
//! window — adding its tally to the sink's and appending its stream to one
//! study-wide buffer. Of the shard it keeps only Figure 6's index: its
//! word range and its kept groups, each once beside its run's end row. A
//! row names its cell nowhere else: the grid
//! already holds every cell's key. The scheduler hands each prefix to
//! exactly one worker, so shards share no group, and the sink refuses a
//! shard that does: the group's cells are already summaries.
//! [`ColumnarSink::rows`] and the sink's [`PreferredSessions`] view walk
//! the kept runs, decoding as they go, and
//! [`ColumnarSink::take_summaries`] hands the grid over. What the sink
//! holds, part by part, is [`ColumnarSink::footprint`].

use crate::dataset::{
    in_dataset_order, median_and_variance, CellSummary, GroupData, GroupSlots, Summaries,
};
use crate::figures::{HdratioTally, PreferredSessions};
use crate::record::{ms, GroupKey, SessionRecord};
use crate::segment::WindowCell;
use crate::sink::{RecordShard, RecordSink, SinkStats, StreamingCell};
use crate::streaming::StreamingAggregation;
use edgeperf_routing::Relationship;
use edgeperf_stats::TDigest;
use std::ops::Range;

/// t-digest compression δ of a group's Figure 6 rollup.
pub(crate) const ROLLUP_COMPRESSION: f64 = 100.0;

/// Identity of one (group, window, route-rank) cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct CellKey {
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

/// One worker's columnar accumulator for one work item: the open window's
/// sessions, one row each in three aligned columns keyed by the cell's
/// index in the window, plus one metadata slot per open cell; and what it
/// has closed — a [`WindowCell`] row a cell, the HDratio tally and what
/// its sink keeps beside them: each group's MinRTT run (exact) or Figure 6
/// rollup digest (streaming). Made by a sink's `new_shard`,
/// whose window count it takes: a record outside it panics at push, and
/// so does a record for a cell whose window has closed, or any record
/// once the shard is sealed.
#[derive(Debug)]
pub struct ColumnarShard {
    /// Every cell's id, in its group's `ranks[rank][window]` slot: a
    /// closed cell's below `base`, an open one's `base` plus its index.
    pub(crate) ids: GroupSlots<u32>,
    pub(crate) base: u32,
    /// The window whose cells are open, if any.
    window: Option<u32>,
    /// The work item is done: every cell is a row.
    pub(crate) sealed: bool,
    cells: Vec<CellMeta>,
    cell: Vec<u32>,
    /// Whole nanoseconds.
    min_rtt: Vec<u32>,
    /// NaN for a session that tested nothing.
    hdratio: Vec<f64>,
    scratch: Scratch,
    /// Every closed cell's row, in closing order.
    pub(crate) rows: Vec<WindowCell>,
    /// The closed cells' tested preferred-route sessions.
    pub(crate) tally: HdratioTally,
    pub(crate) keep: Keep,
}

/// What a shard keeps of its closed cells beside their rows and tally:
/// its sink's choice. Both are indexed like the shard's `ids.slots`.
#[derive(Debug)]
pub(crate) enum Keep {
    /// The exact sink's: each group's closed preferred MinRTTs, cell after
    /// cell, each cell sorted, until sealing codes each run once.
    Runs { raw: Vec<Vec<u32>>, coded: KeptRuns },
    /// The streaming sink's: each group's Figure 6 rollup, its preferred
    /// cells' flushed MinRTT digests merged window by window, and the
    /// compression passes the closed cells' digests ran.
    Digests { rollups: Vec<TDigest>, compressions: u64 },
}

impl ColumnarShard {
    fn new(n_windows: usize, keep: Keep) -> Self {
        ColumnarShard {
            ids: GroupSlots::new(n_windows),
            base: 0,
            window: None,
            sealed: false,
            cells: Vec::new(),
            cell: Vec::new(),
            min_rtt: Vec::new(),
            hdratio: Vec::new(),
            scratch: Scratch::default(),
            rows: Vec::new(),
            tally: HdratioTally::default(),
            keep,
        }
    }

    /// Number of distinct cells this shard has seen, closed and open.
    pub fn cell_count(&self) -> usize {
        self.base as usize + self.cells.len()
    }

    /// The sealed exact shard's coded runs.
    ///
    /// # Panics
    /// Panics on a streaming shard, whose rollups have no coded form.
    pub(crate) fn coded(&self) -> &KeptRuns {
        match &self.keep {
            Keep::Runs { coded, .. } => coded,
            Keep::Digests { .. } => panic!("a streaming shard keeps no MinRTT runs"),
        }
    }

    /// MinRTT samples recorded (one per session), closed and open.
    #[cfg(test)]
    pub(crate) fn sample_count(&self) -> usize {
        self.rows.iter().map(|r| r.n as usize).sum::<usize>() + self.min_rtt.len()
    }

    /// Index in the open window of the cell `key`, opened on first sight.
    /// A cell of a closed window is refused, naming it: its row is written.
    #[inline]
    fn cell_id(&mut self, key: CellKey, relationship: Relationship) -> usize {
        assert!(key.rank < 8, "suspicious route rank {}", key.rank);
        let next = self.base + self.cells.len() as u32;
        let slot = self.ids.cell(key.group, key.rank as usize, key.window as usize, 0);
        let id = *slot.get_or_insert(next);
        if id == next {
            self.cells.push(CellMeta {
                key,
                relationship,
                longer_path: false,
                more_prepended: false,
                bytes: 0,
                n_rtt: 0,
                n_hd: 0,
            });
        }
        assert!(id >= self.base, "cell {key:?} reached its shard after its window closed");
        (id - self.base) as usize
    }

    /// Close the open window's cells: each one's row, its tested preferred
    /// sessions tallied and, for a preferred cell, its MinRTTs kept as the
    /// sink keeps them.
    fn close(&mut self) {
        self.window = None;
        if self.cells.is_empty() {
            return;
        }
        let ColumnarShard {
            ids,
            base,
            cells,
            cell,
            min_rtt,
            hdratio,
            scratch,
            rows,
            tally,
            keep,
            ..
        } = self;
        for ((&ci, &rtt), &h) in cell.iter().zip(&*min_rtt).zip(&*hdratio) {
            let CellKey { group, rank, .. } = cells[ci as usize].key;
            if rank == 0 && !h.is_nan() {
                tally.record(group.continent, ms(rtt), h);
            }
        }
        // Each cell's start row, then — once the scatter has moved it past
        // every row of the cell — its end row.
        let Scratch { by_rtt, by_hd, ends, in_ms } = scratch;
        ends.clear();
        ends.extend(cells.iter().scan(0, |start, c| {
            *start += c.n_rtt;
            Some(*start - c.n_rtt)
        }));
        by_rtt.clear();
        by_rtt.resize(cell.len(), 0);
        by_hd.clear();
        by_hd.resize(cell.len(), 0.0);
        for ((&ci, &rtt), &h) in cell.iter().zip(&*min_rtt).zip(&*hdratio) {
            let at = &mut ends[ci as usize];
            (by_rtt[*at as usize], by_hd[*at as usize]) = (rtt, h);
            *at += 1;
        }
        let rows_of = |ci: usize| (ends[ci] - cells[ci].n_rtt) as usize..ends[ci] as usize;
        for (ci, meta) in cells.iter().enumerate() {
            let (rtts, hds) = (&mut by_rtt[rows_of(ci)], &mut by_hd[rows_of(ci)]);
            let CellKey { group, window, rank } = meta.key;
            let slot = || ids.position(&group).expect("an open cell's group has ids") as usize;
            let summary = match keep {
                Keep::Runs { raw, .. } => {
                    // Counts sort as their milliseconds do: `ms` is monotone
                    // and one-to-one on `u32`s.
                    rtts.sort_unstable();
                    hds.sort_unstable_by(f64::total_cmp);
                    if rank == 0 {
                        let at = slot();
                        if raw.len() <= at {
                            raw.resize_with(at + 1, Vec::new);
                        }
                        raw[at].extend_from_slice(rtts);
                    }
                    exact_summary(meta, rtts, hds, in_ms)
                }
                Keep::Digests { rollups, compressions } => {
                    let cell = digest_cell(meta, rtts, hds);
                    *compressions += cell.agg.compressions();
                    if rank == 0 {
                        let at = slot();
                        if rollups.len() <= at {
                            rollups.resize_with(at + 1, || TDigest::new(ROLLUP_COMPRESSION));
                        }
                        rollups[at].merge(cell.agg.minrtt_digest());
                    }
                    cell.summary()
                }
            };
            rows.push(WindowCell::new(window, group, rank, &summary).expect("u32 counts"));
        }
        *base += cells.len() as u32;
        cells.clear();
        cell.clear();
        min_rtt.clear();
        hdratio.clear();
    }
}

/// A closed cell's summary off its exact order statistics: its MinRTTs
/// and HDratios each sorted, the untested NaNs last.
fn exact_summary(meta: &CellMeta, rtts: &[u32], hds: &[f64], in_ms: &mut Vec<f64>) -> CellSummary {
    in_ms.clear();
    in_ms.extend(rtts.iter().map(|&n| ms(n)));
    let (min_rtt_p50, min_rtt_var) = median_and_variance(in_ms).expect("a cell holds a session");
    let (hdratio_p50, hdratio_var) = median_and_variance(&hds[..meta.n_hd as usize]).unzip();
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
}

/// A closed cell as the live tier closes one: a [`StreamingCell`] fed the
/// cell's sessions in arrival order, then flushed.
fn digest_cell(meta: &CellMeta, rtts: &[u32], hds: &[f64]) -> StreamingCell {
    let CellMeta { relationship, longer_path, more_prepended, mut bytes, .. } = *meta;
    let agg = StreamingAggregation::new();
    let mut cell = StreamingCell { agg, relationship, longer_path, more_prepended };
    for (&rtt, &h) in rtts.iter().zip(hds) {
        // The cell's bytes ride on its first session: they only add up.
        cell.agg.push(ms(rtt), (!h.is_nan()).then_some(h), std::mem::take(&mut bytes));
    }
    cell.agg.flush();
    cell
}

/// Sort and code each group's raw run once, groups in `slots` order.
fn code_runs(slots: &[(GroupKey, GroupData<u32>)], raw: Vec<Vec<u32>>) -> KeptRuns {
    if raw.is_empty() {
        return KeptRuns::default();
    }
    let (mut stream, mut groups, mut end) = (BitWriter::default(), Vec::new(), 0u32);
    for ((group, _), mut run) in slots.iter().zip(raw) {
        if run.is_empty() {
            continue;
        }
        run.sort_unstable();
        stream.run(&run);
        end = u32::try_from(run.len())
            .ok()
            .and_then(|n| end.checked_add(n))
            .expect("a shard's kept rows fit u32");
        groups.push((*group, end));
    }
    // A zero word past the stream's last, so that a reader takes two
    // whole words wherever a field starts.
    let mut words = stream.words;
    words.push(0);
    KeptRuns { words: words.into_boxed_slice(), groups: groups.into_boxed_slice() }
}

/// What a close lays the open window out in, reused from window to window.
#[derive(Debug, Default)]
struct Scratch {
    /// The window's MinRTTs and HDratios, cell by cell.
    by_rtt: Vec<u32>,
    by_hd: Vec<f64>,
    /// Each cell's end row in them.
    ends: Vec<u32>,
    /// One cell's sorted MinRTTs in ms, as its summary reads them.
    in_ms: Vec<f64>,
}

/// Bits of a run's header: its Rice parameter and its least value.
pub(crate) const K_BITS: u32 = 5;
pub(crate) const HEAD_BITS: usize = K_BITS as usize + 32;

/// Sorted runs of whole nanoseconds, Rice-coded one after another in one
/// bit stream, each word filled from its least significant bit, and where
/// the stream is. A run is its parameter `k` in 5 bits, its least value in
/// 32, then for each further value the low `k` bits of its gap to the one
/// before, then each gap's `gap >> k` in unary (that many zeros, then a
/// one). `k` is ⌊log₂⌋ of the run's mean gap (0 below 1), so Σ(gap >> k)
/// < 2n and a row costs under `k + 3` bits however skewed its run. Low
/// bits lie at fixed strides and the unary codes are found a set bit at a
/// time, so a reader's cursors do not wait on one another.
#[derive(Debug, Default)]
pub(crate) struct BitWriter {
    pub(crate) words: Vec<u64>,
    pos: usize,
}

impl BitWriter {
    /// Append a run of `sorted` values: its Rice parameter, ⌊log₂⌋ of its
    /// mean gap (0 below 1 or for one value), its least value, the low
    /// bits of each gap, then each gap's high bits in unary.
    pub(crate) fn run(&mut self, sorted: &[u32]) {
        let mean_gap =
            u64::from(sorted[sorted.len() - 1] - sorted[0]).checked_div(sorted.len() as u64 - 1);
        let k = mean_gap.and_then(u64::checked_ilog2).unwrap_or(0);
        self.write(k, K_BITS);
        self.write(sorted[0], 32);
        let gaps = sorted.windows(2).map(|pair| pair[1] - pair[0]);
        gaps.clone().for_each(|gap| self.write(gap & ((1 << k) - 1), k));
        gaps.for_each(|gap| {
            self.pos += (gap >> k) as usize;
            self.write(1, 1);
        });
    }

    /// Append `value`, below 2^`width` (≤ 32), in `width` bits. Words are
    /// added zeroed, so a zero needs no write.
    fn write(&mut self, value: u32, width: u32) {
        let (word, bit) = (self.pos / 64, self.pos % 64);
        self.pos += width as usize;
        if self.words.len() < self.pos.div_ceil(64) {
            self.words.resize(self.pos.div_ceil(64), 0);
        }
        if value != 0 {
            let value = u64::from(value);
            self.words[word] |= value << bit;
            if bit + width as usize > 64 {
                self.words[word + 1] |= value >> (64 - bit);
            }
        }
    }
}

/// The `width` (≤ 32) bits of `words` from bit `pos` on: `pos` lies in
/// the stream, which a zero word follows.
#[inline]
pub(crate) fn bits_at(words: &[u64], pos: usize, width: u32) -> u32 {
    let (i, bit) = (pos / 64, pos % 64);
    // Two shifts, so that `bit` 0 shifts the next word out entirely.
    let window = words[i] >> bit | (words[i + 1] << 1) << (63 - bit);
    (window & ((1 << width) - 1)) as u32
}

/// A sealed shard's kept MinRTTs: each kept group's run, sorted, group
/// after group in one [`BitWriter`] stream, and the groups once each
/// beside their runs' end rows — group `i`'s run is rows
/// `groups[i - 1].1..groups[i].1`. Those groups are Figure 6's index: 20 B
/// a group, one prefix's few in a shard.
#[derive(Debug, Default)]
pub(crate) struct KeptRuns {
    /// The stream, with a zero word after it; no word when no run.
    pub(crate) words: Box<[u64]>,
    pub(crate) groups: Box<[(GroupKey, u32)]>,
}

/// A merged shard's kept runs: where its words lie in the sink's buffer,
/// and its kept groups as [`KeptRuns`] has them.
#[derive(Debug)]
struct Adopted {
    words: Range<usize>,
    groups: Box<[(GroupKey, u32)]>,
}

/// Kept sessions in order, run by run, their stream decoded as they are
/// read: each one's group and its MinRTT in whole nanoseconds.
struct Sessions<'a> {
    /// The stream, with a zero word after it.
    words: &'a [u64],
    groups: &'a [(GroupKey, u32)],
    /// The next run to open.
    run: usize,
    row: u32,
    /// The end row of the open run.
    end: u32,
    cursor: Cursor,
}

/// Where a reader of a kept stream is.
#[derive(Debug, Clone, Copy, Default)]
struct Cursor {
    /// The open run's Rice parameter and last value.
    k: u32,
    nanos: u32,
    /// Where the open run's next low bits are.
    low: usize,
    /// Where the next unary code starts (past a run's last, where the
    /// next run does), the word that holds it and that word's bits from
    /// there on.
    unary: usize,
    word: usize,
    ones: u64,
}

impl Cursor {
    /// Read the header of the `n`-row run that starts at `unary`.
    fn open(&mut self, words: &[u64], n: u32) {
        let start = self.unary;
        self.k = bits_at(words, start, K_BITS);
        self.nanos = bits_at(words, start + K_BITS as usize, 32);
        self.low = start + HEAD_BITS;
        self.unary = self.low + (n as usize - 1) * self.k as usize;
        self.word = self.unary / 64;
        self.ones = words[self.word] & (!0 << (self.unary % 64));
    }

    /// Step to the open run's next value: add its gap, whose low bits lie
    /// at `low` and whose `gap >> k` is the zeros before the next one bit.
    #[inline]
    fn step(&mut self, words: &[u64]) {
        while self.ones == 0 {
            self.word += 1;
            self.ones = words[self.word];
        }
        let one = self.word * 64 + self.ones.trailing_zeros() as usize;
        self.ones &= self.ones - 1;
        let q = (one - self.unary) as u32;
        self.unary = one + 1;
        let low = bits_at(words, self.low, self.k);
        self.low += self.k as usize;
        self.nanos += q << self.k | low;
    }
}

impl<'a> Sessions<'a> {
    fn new(words: &'a [u64], groups: &'a [(GroupKey, u32)]) -> Self {
        Sessions { words, groups, run: 0, row: 0, end: 0, cursor: Cursor::default() }
    }
}

impl Iterator for Sessions<'_> {
    type Item = (GroupKey, u32);

    fn next(&mut self) -> Option<(GroupKey, u32)> {
        let words = self.words;
        if self.row == self.end {
            let start = self.end;
            self.end = self.groups.get(self.run)?.1;
            self.run += 1;
            self.cursor.open(words, self.end - start);
        } else {
            self.cursor.step(words);
        }
        self.row += 1;
        Some((self.groups[self.run - 1].0, self.cursor.nanos))
    }

    /// What Figure 6's walks call: the rest of the open run through
    /// `next`, then run by run with the cursor a local, which keeps it out
    /// of memory between rows.
    fn fold<B, F: FnMut(B, (GroupKey, u32)) -> B>(mut self, init: B, mut f: F) -> B {
        let mut acc = init;
        while self.row < self.end {
            acc = f(acc, self.next().expect("the open run's rows"));
        }
        let Sessions { words, groups, run, end: row, mut cursor, .. } = self;
        let runs = &groups[run..];
        let starts = std::iter::once(row).chain(runs.iter().map(|&(_, end)| end));
        for (&(group, end), start) in runs.iter().zip(starts) {
            cursor.open(words, end - start);
            acc = f(acc, (group, cursor.nanos));
            for _ in 1..end - start {
                cursor.step(words);
                acc = f(acc, (group, cursor.nanos));
            }
        }
        acc
    }
}

impl RecordShard for ColumnarShard {
    fn push(&mut self, r: SessionRecord) {
        if self.window != Some(r.window) {
            assert!(!self.sealed, "a sealed shard was pushed a record of {:?}", r.group);
            self.close();
            self.window = Some(r.window);
        }
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
        self.min_rtt.push(r.min_rtt_ns);
        self.hdratio.push(hdratio);
    }

    /// Close the open window — every cell this shard has seen is then a
    /// row — settle what the sink keeps (code each group's run, or flush
    /// each group's rollup) and give back the columns: the work item is
    /// done. Sealing a sealed shard does nothing.
    fn seal(&mut self) {
        if self.sealed {
            return;
        }
        self.close();
        match &mut self.keep {
            Keep::Runs { raw, coded } => *coded = code_runs(&self.ids.slots, std::mem::take(raw)),
            Keep::Digests { rollups, .. } => {
                // A group with no preferred cell has an empty rollup.
                rollups.resize_with(self.ids.slots.len(), || TDigest::new(ROLLUP_COMPRESSION));
                rollups.iter_mut().for_each(TDigest::flush);
            }
        }
        self.sealed = true;
        (self.cells, self.cell, self.min_rtt, self.hdratio) = Default::default();
        self.scratch = Scratch::default();
    }
}

/// What both offline sinks hold of the shards they merged: every cell's
/// row in one grid, groups in merge order and within a shard in the order
/// its cells closed, the HDratio tally, and the sessions and cells merged.
#[derive(Debug)]
pub(crate) struct Merged {
    pub(crate) grid: GroupSlots<WindowCell>,
    pub(crate) tally: HdratioTally,
    pub(crate) records: u64,
    pub(crate) cells: u64,
}

impl Merged {
    pub(crate) fn new(n_windows: usize) -> Self {
        Merged {
            grid: GroupSlots::new(n_windows),
            tally: HdratioTally::default(),
            records: 0,
            cells: 0,
        }
    }

    /// A shard for this grid that keeps what `keep` keeps.
    pub(crate) fn shard(&self, keep: Keep) -> ColumnarShard {
        ColumnarShard::new(self.grid.n_windows, keep)
    }

    /// Seal `shard`, place its rows in closing order and add its tally,
    /// leaving it what its sink keeps. The runner hands each prefix to one
    /// worker, so no two shards share a group; one that does is refused,
    /// naming the group, since that group's cells are summaries already.
    pub(crate) fn adopt(&mut self, shard: &mut ColumnarShard) {
        shard.seal();
        for (group, _) in &shard.ids.slots {
            assert!(
                self.grid.get(group).is_none(),
                "group {group:?} reached the sink in two shards"
            );
        }
        self.tally.merge(&shard.tally);
        for row in std::mem::take(&mut shard.rows) {
            self.records += u64::from(row.n);
            let cell =
                self.grid.cell(row.group(), row.rank as usize, row.window as usize, row.bytes);
            *cell = Some(row);
            self.cells += 1;
        }
    }

    /// The sessions and cells merged.
    pub(crate) fn stats(&self) -> SinkStats {
        SinkStats { records: self.records, cells: self.cells, ..SinkStats::default() }
    }
}

/// The exact study, closed cell by cell in the workers and merged shard by
/// shard: every cell's summary, from its exact order statistics, the
/// preferred route's MinRTTs, which Figure 6 reads, a sorted run a group,
/// and what Figures 6–7 read of its HDratios, tallied.
#[derive(Debug)]
pub struct ColumnarSink {
    merged: Merged,
    /// Every merged shard's coded runs, shard after shard.
    kept: Vec<u64>,
    preferred: Vec<Adopted>,
}

impl ColumnarSink {
    /// Empty sink over a fixed number of 15-minute windows.
    pub fn new(n_windows: usize) -> Self {
        ColumnarSink { merged: Merged::new(n_windows), kept: Vec::new(), preferred: Vec::new() }
    }

    /// Number of 15-minute windows in the study.
    pub(crate) fn n_windows(&self) -> usize {
        self.merged.grid.n_windows
    }

    /// Distinct cells merged (shards never share a group).
    pub fn cell_count(&self) -> usize {
        self.merged.cells as usize
    }

    /// Every cell's summary — the same numbers, groups in the same order,
    /// as `Dataset::from_records` over the merged sessions, then
    /// `summarize()` — copied out of the sink.
    pub fn summarize(&self) -> Summaries {
        Summaries { groups: in_dataset_order(self.merged.grid.slots.clone()) }
    }

    /// [`summarize`](Self::summarize) without the copy: the grid is handed
    /// over and the sink keeps only its rows and tally.
    pub fn take_summaries(&mut self) -> Summaries {
        Summaries { groups: in_dataset_order(self.merged.grid.take()) }
    }

    /// Every preferred-route session, shard by shard and within a shard
    /// group by group (groups in first-seen order, a group's sessions in
    /// order of their MinRTTs, whatever their windows; Figure 6 reads them
    /// order-free): its group and its MinRTT (ms).
    pub fn rows(&self) -> impl Iterator<Item = (GroupKey, f64)> + '_ {
        self.preferred.iter().flat_map(|shard| {
            let words = &self.kept[shard.words.clone()];
            Sessions::new(words, &shard.groups).map(|(group, n)| (group, ms(n)))
        })
    }

    /// The HDratio tally of every merged preferred-route session: Figure
    /// 6's HDratio half and Figure 7.
    pub fn hdratio(&self) -> &HdratioTally {
        &self.merged.tally
    }

    /// What the sink holds, by part: the grid's bytes (zero once handed
    /// over), the kept buffer's bytes and rows, the Figure 6 index's bytes
    /// — every merged shard's word range and kept groups — and the HDratio
    /// tally's entries.
    pub fn footprint(&self) -> [(&'static str, usize); 5] {
        let grid = self.merged.grid.slots.iter().map(|(_, g)| g.grid_bytes()).sum();
        let ends = self.preferred.iter().filter_map(|shard| shard.groups.last());
        let rows = ends.map(|&(_, end)| end as usize).sum();
        let groups = self.preferred.iter().map(|shard| std::mem::size_of_val(&*shard.groups));
        let index = groups.sum::<usize>() + std::mem::size_of_val(&*self.preferred);
        [
            ("grid_bytes", grid),
            ("kept_bytes", std::mem::size_of_val(&*self.kept)),
            ("kept_rows", rows),
            ("index_bytes", index),
            ("tally_entries", self.merged.tally.distinct_hdratios()),
        ]
    }
}

impl PreferredSessions for ColumnarSink {
    fn preferred_sessions(&self) -> impl Iterator<Item = (u8, f64)> {
        self.rows().map(|(group, min_rtt)| (group.continent, min_rtt))
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
        self.merged.shard(Keep::Runs { raw: Vec::new(), coded: KeptRuns::default() })
    }

    /// Seal `shard`, place its rows and add its tally, then append its coded runs to the sink's buffer.
    fn merge_shard(&mut self, mut shard: ColumnarShard) {
        self.merged.adopt(&mut shard);
        let Keep::Runs { coded, .. } = shard.keep else {
            panic!("a streaming shard reached the exact sink")
        };
        if !coded.groups.is_empty() {
            // Copied into one buffer on this thread, not adopted where the
            // worker allocated them: left there, a study's runs lie among
            // the free blocks of every prefix its worker ran, and the job's
            // peak rose by ~1.4 MB in some runs of the same study.
            let start = self.kept.len();
            self.kept.extend_from_slice(&coded.words);
            self.preferred.push(Adopted { words: start..self.kept.len(), groups: coded.groups });
        }
    }

    /// The kept buffer stops growing: give back its spare capacity.
    fn finalize(&mut self) {
        self.kept.shrink_to_fit();
    }

    /// Every merged session, whether or not its rows were kept.
    fn stats(&self) -> SinkStats {
        self.merged.stats()
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
        rtt_ns: u32,
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
            min_rtt_ns: rtt_ns,
            hdratio: hdr,
            bytes: 50 + u64::from(prefix),
        }
    }

    /// `n` sessions over 13 prefixes and 4 windows, window by window as a
    /// worker pushes them, groups and ranks interleaved within a window.
    pub(crate) fn synthetic(n: usize) -> Vec<SessionRecord> {
        let mut records: Vec<SessionRecord> = (0..n)
            .map(|i| {
                let u = (i as f64 * 0.618_033_988_749).fract();
                rec(
                    (i % 13) as u32,
                    (i % 4) as u32,
                    (i % 2) as u8,
                    20_000_000 + (60e6 * u) as u32,
                    (i % 3 != 0).then_some(u),
                )
            })
            .collect();
        records.sort_by_key(|r| r.window);
        records
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

    /// Each group's preferred MinRTTs (ms bits), sorted, groups in
    /// first-seen order — the rows a sink of `records`, in merge order,
    /// must yield.
    fn sorted_runs(records: &[SessionRecord]) -> Vec<(GroupKey, u64)> {
        let mut first_seen = FxHashMap::default();
        let mut want: Vec<_> = records
            .iter()
            .map(|r| {
                let next = first_seen.len();
                (*first_seen.entry(r.group).or_insert(next), r)
            })
            .filter(|(_, r)| r.route_rank == 0)
            .map(|(first, r)| (first, r.group, r.min_rtt_ns))
            .collect();
        want.sort_by_key(|&(first, _, rtt)| (first, rtt));
        want.into_iter().map(|(_, group, rtt)| (group, ms(rtt).to_bits())).collect()
    }

    /// Every way the sink is read — its rows, Figures 6–7 and its summaries
    /// — gives the bits `records`, in merge order, give:
    /// the rows are the preferred route's MinRTTs, the HDratio tally
    /// theirs, and the summaries are `Dataset::from_records`'s, groups in
    /// the same order.
    fn assert_reads_as(mut sink: ColumnarSink, records: &[SessionRecord]) {
        // Rows come group by group, groups in first-seen order, a group's
        // MinRTTs in order whatever their windows.
        let rows: Vec<_> = sink.rows().map(|(group, rtt)| (group, rtt.to_bits())).collect();
        assert_eq!(rows, sorted_runs(records), "rows differ");
        // Folded, as Figure 6 reads them, from wherever `next` left off,
        // they are the same rows.
        for skip in [0, 1, rows.len() / 3, rows.len() / 2, rows.len().saturating_sub(1), rows.len()]
        {
            let mut folded = Vec::new();
            sink.rows().skip(skip).for_each(|(group, rtt)| folded.push((group, rtt.to_bits())));
            assert_eq!(folded, rows[skip..], "rows folded after {skip}");
        }

        // `{:?}` prints a float in its shortest round-trip form: equal text,
        // equal bits (-0.0 included).
        use crate::figures::{fig6_minrtt, HdratioTally};
        let tally = HdratioTally::of(records);
        assert_eq!(sink.hdratio(), &tally);
        let figures = (fig6_minrtt(&sink), sink.hdratio().rollup(), sink.hdratio().fig7());
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
    #[should_panic(expected = "reached its shard after its window closed")]
    fn a_closed_window_is_refused_not_reopened() {
        // A cell's row is written when its window closes: a later record
        // for it could only be lost, so it is refused, naming the cell.
        let mut shard = ColumnarSink::new(4).new_shard();
        for window in [0, 1, 0] {
            shard.push(rec(1, window, 0, 30_000_000, None));
        }
    }

    #[test]
    #[should_panic(expected = "a sealed shard was pushed a record")]
    fn a_sealed_shard_is_refused_not_reopened() {
        // A shard is one work item: sealed, every cell of it is a row and
        // its runs are coded, so a later record could only be lost.
        let mut shard = ColumnarSink::new(4).new_shard();
        shard.push(rec(1, 0, 0, 30_000_000, None));
        shard.seal();
        shard.push(rec(2, 1, 0, 30_000_000, None));
    }

    #[test]
    fn memo_handles_interleaved_cells() {
        // Alternating cells of one window — another group, another rank —
        // defeat the memo every push; correctness must not depend on the
        // memo hitting.
        let mut records = Vec::new();
        for i in 0..500 {
            records.push(rec(1, 0, 0, 30_000_000 + 1_000_000 * i, None));
            records.push(rec(2, 0, 1, 60_000_000 + 1_000_000 * i, Some(0.5)));
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
        adopted(&[vec![rec(1, 4, 0, 30_000_000, None)]]);
    }

    /// `n` sessions of `prefix` shaped like a study's: a MinRTT of
    /// `nanos(i)` nanoseconds and an `achieved / tested` HDratio, a fifth
    /// of them untested.
    fn study_shaped(prefix: u32, n: usize, nanos: impl Fn(usize) -> u32) -> Vec<SessionRecord> {
        let session = |i: usize| {
            let tested = 1 + i % 9;
            let hdratio = (i * 7 % (tested + 1)) as f64 / tested as f64;
            rec(
                prefix,
                (i % 4) as u32,
                (i / 4 % 2) as u8,
                nanos(i),
                (!i.is_multiple_of(5)).then_some(hdratio),
            )
        };
        let mut records: Vec<SessionRecord> = (0..n).map(session).collect();
        records.sort_by_key(|r| r.window);
        records
    }

    #[test]
    fn every_nanosecond_count_a_u32_holds_reads_back() {
        // The least and the most a `u32` counts, among study-shaped rows
        // and as the whole of a cell.
        let distinct = |i: usize| 1_000 + 7_919 * i as u32;
        let shards = [
            study_shaped(1, 400, |i| if i == 8 { u32::MAX } else { distinct(i) }),
            study_shaped(2, 400, |i| if i == 8 { 0 } else { 1_000_000 * (i as u32 % 50) }),
            study_shaped(3, 36, |i| [0, 1, u32::MAX][i % 3]),
        ];
        assert_reads_as(adopted(&shards), &shards.concat());
    }

    /// A group's MinRTTs, in nanoseconds, pushed in this order: `shape`
    /// picks what the codec must survive, `n` (1–600) how many, and
    /// `seed` the values. Shapes 3 and 4 hold two rows and one.
    fn run_nanos(shape: u8, n: usize, spread: u32, seed: u64) -> Vec<u32> {
        let mut state = seed;
        let mut next = move || {
            // SplitMix64.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let base = next() as u32;
        // Values from `base` up, `spread` bits wide, clamped: ties aplenty
        // when the width is below the row count.
        let mut scattered = |bits: u32| -> Vec<u32> {
            (0..n).map(|_| base.saturating_add((next() >> (64 - bits)) as u32)).collect()
        };
        match shape {
            // Gaps anywhere from 0 to 2³² − 1 (`k` from 0 to 31).
            0 => scattered(spread.max(1)),
            // Every row tied: `k` 0.
            1 => vec![base; n],
            // A tight run and one outlier gap.
            2 => {
                let mut run = scattered(4);
                run[n / 2] = if base < 1 << 31 { u32::MAX } else { 0 };
                run
            }
            // The widest gap there is: `k` 31.
            3 => vec![u32::MAX, 0],
            _ => vec![base],
        }
    }

    /// The Rice parameter the codec must pick for a run of `shape`.
    fn expected_k(shape: u8) -> Option<u32> {
        match shape {
            1 | 4 => Some(0),
            3 => Some(31),
            _ => None,
        }
    }

    /// The records of groups `first..` of `runs`, each run's values dealt
    /// over the four windows and its preferred and alternate routes, and
    /// pushed window by window, a window's cells interleaved, as a
    /// worker's records are.
    fn interleaved(first: u32, runs: &[Vec<u32>]) -> Vec<SessionRecord> {
        let mut records = Vec::new();
        for (g, nanos) in runs.iter().enumerate() {
            let prefix = first + g as u32;
            let rank = |i: usize| u8::from(i % 3 == 2);
            records.extend(nanos.iter().enumerate().map(|(i, &ns)| {
                rec(prefix, (i % 4) as u32, rank(i), ns, (i % 5 > 0).then_some(0.5))
            }));
        }
        let scrambled = |r: &SessionRecord| u64::from(r.min_rtt_ns).wrapping_mul(0x9e37);
        records.sort_by_key(|r| (r.window, scrambled(r)));
        records
    }

    use proptest::prelude::*;

    proptest! {
        /// Whatever a group holds, each shard's kept stream gives back each
        /// group's preferred MinRTTs sorted, bit for bit; and a run's stream
        /// is its 37-bit header and under `k + 3` bits a further row, the
        /// shard's stream the words its bits fill and a zero word.
        #[test]
        fn prop_kept_runs_round_trip_sorted_within_their_bound(
            shards in prop::collection::vec(
                prop::collection::vec((0u8..5, 1usize..601, 0u32..33, any::<u64>()), 1..6),
                1..4,
            )
        ) {
            let mut records = Vec::new();
            let mut shapes = FxHashMap::default();
            for (s, runs) in shards.iter().enumerate() {
                let nanos: Vec<Vec<u32>> =
                    runs.iter().map(|&(shape, n, spread, seed)| run_nanos(shape, n, spread, seed)).collect();
                let shard = interleaved(8 * s as u32, &nanos);
                for (g, &(shape, ..)) in runs.iter().enumerate() {
                    shapes.insert(rec(8 * s as u32 + g as u32, 0, 0, 0, None).group, shape);
                }
                records.push(shard);
            }
            let sink = adopted(&records);
            for shard in &sink.preferred {
                let words = &sink.kept[shard.words.clone()];
                let mut rows = Sessions::new(words, &shard.groups);
                let starts = std::iter::once(0).chain(shard.groups.iter().map(|&(_, end)| end));
                for (&(group, end), start) in shard.groups.iter().zip(starts) {
                    let (from, n) = (rows.cursor.unary, (end - start) as usize);
                    rows.by_ref().take(n).for_each(drop);
                    let k = rows.cursor.k as usize;
                    prop_assert!(rows.cursor.unary - from <= HEAD_BITS + (k + 3) * (n - 1));
                    // A run holds its preferred rows only, so a group of one
                    // row's shape holds it whole.
                    if let Some(want) = expected_k(shapes[&group]).filter(|_| n > 1 || shapes[&group] == 4) {
                        prop_assert_eq!(rows.cursor.k, want);
                    }
                }
                prop_assert!(rows.next().is_none());
                prop_assert_eq!(words.len(), rows.cursor.unary.div_ceil(64) + 1);
                prop_assert_eq!(words.last(), Some(&0));
            }
            assert_reads_as(sink, &records.concat());
        }

        /// A shard whose groups' cells interleave within each window reads
        /// back each group's sorted MinRTTs — sealed by its worker or
        /// merged unsealed — and the two sinks hold the same stream.
        #[test]
        fn prop_interleaved_groups_read_back_sealed_or_not(
            runs in prop::collection::vec(
                prop::collection::vec(0u32..200_000_000, 1..300),
                1..7,
            ),
        ) {
            let records = interleaved(0, &runs);
            let fill = |seal: bool| {
                let mut sink = ColumnarSink::new(4);
                let mut shard = sink.new_shard();
                records.iter().for_each(|r| shard.push(*r));
                if seal {
                    shard.seal();
                }
                sink.merge_shard(shard);
                sink
            };
            let want = sorted_runs(&records);
            let sinks = [fill(true), fill(false)];
            for sink in &sinks {
                let rows: Vec<_> = sink.rows().map(|(group, rtt)| (group, rtt.to_bits())).collect();
                prop_assert_eq!(&rows, &want);
                prop_assert_eq!(sink.preferred.len(), 1);
                prop_assert_eq!(&sink.kept, &sinks[0].kept);
            }
        }
    }
}
