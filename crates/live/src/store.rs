//! Tiered window store: closed windows spilled to columnar on-disk
//! segments once they age past the in-RAM retention horizon.
//!
//! Each worker keeps its last [`crate::LiveConfig::retention_windows`]
//! closed windows in RAM, each one run of [`WindowCell`] rows in the
//! canonical [`cell_sort_key`] order. With a spill directory configured,
//! a window evicted from that map is first handed here: its run is
//! streamed as it lies through the shared columnar codec's
//! [`SegmentWriter`] ([`edgeperf_analysis::segment`]) and published
//! under the tmp + rename discipline. Spilling stores the **final
//! summary bit patterns**, not the digests, so a historical query merged
//! with live RAM windows is bit-identical to a run that never spilled: a
//! change of address, not of value.
//!
//! ## Queries: a cursor a segment, read a row group at a time
//!
//! A query answers with [`Cursors`], one run cursor an overlapping
//! segment, and collects nothing: each cursor yields its segment's
//! matching rows in canonical order, so a reply
//! ([`crate::reply::CellsReply`]) merges them with the RAM windows and
//! never sorts. A cursor holds the matching rows of the one row group it
//! stands in, and reads the next group that may hold a match (by the
//! footer's window and key ranges) when those are spent; every cursor of
//! a query reads and decodes through one shared pair of buffers. A reply
//! merges twice — once to count the
//! rows its header announces, once to write them — so in the first pass
//! each cursor also keeps the rows it matched, but only while they fit one
//! row group ([`GROUP_ROWS`]): the second pass replays a run that fit and
//! reads one that overflowed again. A point query (a few rows a segment)
//! reads each group once; a four-window range reads its groups twice and
//! holds a group a run, never its 32,768 rows. [`StoreStats`]'
//! `query_groups_read` / `query_bytes_read` / `query_rows_examined` count
//! every group read, second-pass re-reads included;
//! `query_rows_returned` counts the store rows replies carried, not
//! those a RAM copy of the same key displaced.
//!
//! ## What is in RAM, and what the lock covers
//!
//! Besides the manifest's [`SegmentMeta`], the store keeps every
//! segment's [`SegmentIndex`] — its footer: where each row group of
//! ≤ 512 rows sits and the smallest and largest cell key in it — loaded
//! and verified once in [`SegmentStore::open`] and otherwise handed over
//! by the writer that produced the segment. That is ~46 bytes per 512
//! rows, and it is what a query consults to decide which groups to read.
//!
//! The state mutex guards that mirror and the manifest file, nothing
//! else. A query takes it to clone the overlapping segments' indexes and
//! open their files, then releases it; its cursors read group by group,
//! each verified by its own checksum, for as long as the reply that
//! holds them writes. A compaction takes it to choose victims and reserve
//! an id, merges unlocked, and re-takes it to commit. Open handles are
//! what make that safe: a compaction that commits mid-reply unlinks files
//! the reply's cursors still read to the end, twice. Only a spill holds
//! the lock across its write — it is the worker's own window, and the
//! degraded-mode bookkeeping must see spills one at a time.
//!
//! ## Manifest and crash safety
//!
//! `manifest.json` is the single source of truth for which segments
//! exist. The write order is fixed: segment staged → segment renamed →
//! manifest staged → manifest renamed → (compaction only) old files
//! deleted. A crash between any two steps leaves either an orphan
//! `.tmp` or an unreferenced `.seg`, both removed by
//! [`SegmentStore::open`] on restart — the manifest can never reference
//! a torn or missing segment. [`CrashPoint`] lets tests stop the store
//! at each boundary and prove that invariant.
//!
//! ## Compaction
//!
//! Every spill produces one small per-(worker, window) segment. Once
//! enough accumulate, [`SegmentStore::compact_once`] (driven by the
//! server's background compactor thread) merges the smallest batch into
//! one time-sorted segment — same codec, same manifest discipline —
//! keeping segment count (and per-query open work) bounded. The merge is
//! k-way over cursors on the victims — the same cursor a query uses, with
//! a query that matches everything — and holds one row group per victim,
//! one shared pair of read buffers and the writer's group, whatever the
//! segments' size.
//!
//! ## Degraded mode
//!
//! A disk that starts failing (ENOSPC, EIO, a yanked volume) must not
//! take the live tier down with it, and must not silently shed history
//! either. After `spill_fail_threshold` *consecutive* spill failures
//! the store enters **degraded** mode: spill attempts are skipped
//! without touching the disk — the server keeps the evicted windows in
//! RAM instead (RAM-only retention; see `server::worker::handle_close`)
//! — and every few skipped attempts one *probe* spill goes to disk anyway,
//! with the skip run doubling after each failed probe
//! (`INITIAL_PROBE_SKIP` → `MAX_PROBE_SKIP`). The first probe that
//! succeeds clears degraded mode and the server's retained backlog
//! drains through the normal eviction loop. The state is visible:
//! [`StoreStats::spill_errors`] and [`StoreStats::degraded`] ride the
//! `store` protocol reply, and the server mirrors them into the
//! `store.spill_errors` / `store.degraded` metrics.
//!
//! Fault injection (`SegmentStore::set_chaos`) drives all of this
//! deterministically: a [`ChaosPlan`]'s `spillfail`/`compactfail`/
//! `spilldelay` clauses fire by 0-based operation index, so a test (or
//! the CI chaos job) can script "spills 0–2 fail, then the disk heals"
//! and assert the exact degraded/recovered sequence.

use crate::chaos::ChaosPlan;
use crate::protocol::CellQuery;
use crate::window::{CellKey, CellSummary};
use edgeperf_analysis::segment::{
    cell_sort_key, sort_cells, GroupEntry, SegmentIndex, SegmentReader, SegmentWriter, StagedFile,
    WindowCell, GROUP_ROWS,
};
use edgeperf_core::EdgeperfError;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Current manifest format version.
const MANIFEST_VERSION: u64 = 1;

/// File name of the manifest inside the spill directory.
const MANIFEST_FILE: &str = "manifest.json";

/// Flatten one closed cell into its storage-neutral segment row.
///
/// # Panics
/// Panics on a summary of more sessions than a row counts, which no
/// [`crate::WindowRing`] closes.
pub fn window_cell(window: u32, key: &CellKey, s: &CellSummary) -> WindowCell {
    WindowCell::new(window, key.0, key.1, s).unwrap_or_else(|e| panic!("{key:?}: {e}"))
}

/// What [`SegmentStore::query`] answers: a run cursor an overlapping
/// segment, in manifest order, each yielding its segment's matching rows
/// in the canonical [`cell_sort_key`] order the segment holds them in.
/// Nothing is read until a reply's first pass asks; see the module docs
/// for the passes and what a cursor holds. Empty ([`Default`]) for a
/// server without a store. When dropped it adds what its passes read,
/// and the rows the reply carried, to the store's `query_*` totals.
#[derive(Default)]
pub struct Cursors<'s> {
    runs: Vec<RunCursor>,
    reads: Reads,
    /// Passes started: the first keeps, later ones replay or re-read.
    passes: u32,
    /// Store rows the reply carries, as its first pass counted them.
    carried: u64,
    totals: Option<&'s [AtomicU64; 4]>,
}

impl Cursors<'_> {
    /// Runs: one an overlapping segment.
    pub(crate) fn len(&self) -> usize {
        self.runs.len()
    }

    /// Put every run on its first matching row for a new pass. The first
    /// pass reads each segment, and a run keeps the rows it matches while
    /// they fit one row group ([`GROUP_ROWS`]); each later pass replays a
    /// run that fit from what it kept, and reads a run that overflowed
    /// again from its first group.
    pub(crate) fn start_pass(&mut self) -> Result<(), EdgeperfError> {
        self.passes += 1;
        for run in &mut self.runs {
            if self.passes == 1 {
                run.segment.seek(&mut self.reads)?;
                run.keep();
            } else if run.kept.is_some() {
                run.replay = Some(0);
            } else {
                run.segment.rewind();
                run.segment.seek(&mut self.reads)?;
            }
        }
        Ok(())
    }

    /// The row run `i` stands on; `None` once it is spent.
    pub(crate) fn head(&self, i: usize) -> Option<&WindowCell> {
        let run = &self.runs[i];
        match (run.replay, &run.kept) {
            (Some(at), Some(kept)) => kept.get(at),
            _ => run.segment.head(),
        }
    }

    /// Move run `i` to its next matching row.
    pub(crate) fn step(&mut self, i: usize) -> Result<(), EdgeperfError> {
        let run = &mut self.runs[i];
        if let Some(at) = &mut run.replay {
            *at += 1;
            return Ok(());
        }
        run.segment.advance(&mut self.reads)?;
        if self.passes == 1 {
            run.keep();
        }
        Ok(())
    }

    /// Record that the reply carries `rows` of the store's rows — what
    /// its first pass counted, store rows that lost their key to a RAM
    /// row left out.
    pub(crate) fn carry(&mut self, rows: u64) {
        self.carried = rows;
    }
}

impl Drop for Cursors<'_> {
    fn drop(&mut self) {
        let Some(totals) = self.totals else { return };
        let Reads { groups, bytes, rows, .. } = self.reads;
        for (total, by) in totals.iter().zip([groups, bytes, rows, self.carried]) {
            total.fetch_add(by, Ordering::Relaxed);
        }
    }
}

/// One run of a query's answer: its segment's cursor, and what the first
/// pass kept of it.
struct RunCursor {
    segment: GroupCursor,
    /// The rows the first pass matched, while they fit one row group;
    /// `None` once they overflowed it.
    kept: Option<Vec<WindowCell>>,
    /// Where a later pass stands in `kept`; `None` while reading the
    /// segment.
    replay: Option<usize>,
}

impl RunCursor {
    /// Keep the row the segment cursor stands on, or give up keeping once
    /// a row group's worth is already kept.
    fn keep(&mut self) {
        let Some(&row) = self.segment.head() else { return };
        match &mut self.kept {
            Some(kept) if kept.len() < GROUP_ROWS => {
                if kept.is_empty() {
                    kept.reserve_exact(GROUP_ROWS);
                }
                kept.push(row);
            }
            _ => self.kept = None,
        }
    }
}

/// The read buffers a merge's cursors take turns with — a group's bytes,
/// and its rows decoded — and what they read through them: row groups,
/// their bytes, the rows decoded out of them.
#[derive(Default)]
struct Reads {
    buf: Vec<u8>,
    decoded: Vec<WindowCell>,
    /// The largest group any of the cursors may read, in bytes and in
    /// rows, reserved at the first read: each buffer is one allocation.
    largest: (usize, usize),
    groups: u64,
    bytes: u64,
    rows: u64,
}

impl Reads {
    fn new<'a>(segments: impl IntoIterator<Item = &'a SegmentIndex>) -> Reads {
        let groups = segments.into_iter().flat_map(|index| index.groups());
        let largest = groups
            .fold((0, 0), |(len, rows), g| (len.max(g.len as usize), rows.max(g.rows as usize)));
        Reads { largest, ..Reads::default() }
    }

    /// Read group `i` of `reader` through the buffers, and append the
    /// rows of it `q` matches to `out`.
    fn read(
        &mut self,
        reader: &SegmentReader,
        i: usize,
        q: &CellQuery,
        out: &mut Vec<WindowCell>,
    ) -> Result<(), EdgeperfError> {
        self.buf.clear();
        self.buf.reserve_exact(self.largest.0);
        self.decoded.clear();
        self.decoded.reserve_exact(self.largest.1);
        reader.read_group(i, &mut self.buf, &mut self.decoded)?;
        self.groups += 1;
        self.bytes += u64::from(reader.index().groups()[i].len);
        self.rows += self.decoded.len() as u64;
        out.extend(self.decoded.iter().filter(|c| q.matches(c.window, &c.group())));
        Ok(())
    }
}

/// A segment read one row group at a time: the groups that may hold a
/// row `query` matches (every group, for a compaction's default query),
/// and the rows of the group it stands in that do. What it reads goes
/// through the [`Reads`] its caller lends, so a cursor holds only what
/// matched: a row or two of each group for a point query.
struct GroupCursor {
    reader: SegmentReader,
    query: CellQuery,
    /// The next group to consider reading.
    next_group: usize,
    rows: Vec<WindowCell>,
    /// The row the cursor stands on in `rows`.
    at: usize,
}

impl GroupCursor {
    fn new(reader: SegmentReader, query: CellQuery) -> GroupCursor {
        GroupCursor { reader, query, next_group: 0, rows: Vec::new(), at: 0 }
    }

    /// The row the cursor stands on; `None` before the first
    /// [`seek`](Self::seek) and once the segment is spent.
    fn head(&self) -> Option<&WindowCell> {
        self.rows.get(self.at)
    }

    /// Stand on a row: the current one if there is one, else the first
    /// match of the next group that may hold one.
    fn seek(&mut self, reads: &mut Reads) -> Result<(), EdgeperfError> {
        while self.at == self.rows.len() {
            self.rows.clear();
            self.at = 0;
            let groups = self.reader.index().groups();
            let next =
                (self.next_group..groups.len()).find(|&i| may_match(&groups[i], &self.query));
            let Some(i) = next else {
                self.next_group = groups.len();
                return Ok(());
            };
            if self.rows.capacity() == 0 {
                let most = groups.iter().map(|g| g.rows as usize).max().unwrap_or(0);
                self.rows.reserve_exact(most);
            }
            self.next_group = i + 1;
            reads.read(&self.reader, i, &self.query, &mut self.rows)?;
        }
        Ok(())
    }

    /// Step past the row the cursor stands on to the next match.
    fn advance(&mut self, reads: &mut Reads) -> Result<(), EdgeperfError> {
        self.at += 1;
        self.seek(reads)
    }

    /// Back to before the first group, for another pass.
    fn rewind(&mut self) {
        (self.next_group, self.at) = (0, 0);
        self.rows.clear();
    }
}

/// One segment the manifest references.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct SegmentMeta {
    /// Store-unique segment id (also the file name stem).
    pub id: u64,
    /// File name inside the spill directory.
    pub file: String,
    /// Cell rows in the segment.
    pub cells: u64,
    /// First window index covered.
    pub from_window: u32,
    /// Last window index covered.
    pub until_window: u32,
    /// Encoded size in bytes (validated against the file on open).
    pub bytes: u64,
}

/// The on-disk manifest image.
#[derive(Debug, Serialize, Deserialize)]
struct Manifest {
    version: u64,
    next_id: u64,
    segments: Vec<SegmentMeta>,
}

/// Store statistics served by the `store` command.
#[derive(Debug, Clone, Default, Serialize, Deserialize, PartialEq)]
pub struct StoreStats {
    /// Segments currently referenced by the manifest.
    pub segments: u64,
    /// Cell rows across those segments.
    pub cells: u64,
    /// Bytes across those segments.
    pub bytes: u64,
    /// First window index any segment covers.
    pub from_window: Option<u32>,
    /// Last window index any segment covers.
    pub until_window: Option<u32>,
    /// Windows spilled since this store opened.
    pub spilled_windows: u64,
    /// Cells spilled since this store opened.
    pub spilled_cells: u64,
    /// Compaction merges since this store opened.
    pub compactions: u64,
    /// Spill attempts that failed on disk.
    pub spill_errors: u64,
    /// The store is currently in degraded (RAM-only retention) mode.
    pub degraded: bool,
    /// Row groups queries have read since this store opened: every
    /// read, a reply's second-pass re-reads included.
    pub query_groups_read: u64,
    /// Segment bytes those reads moved.
    pub query_bytes_read: u64,
    /// Rows decoded out of them.
    pub query_rows_examined: u64,
    /// Store rows replies carried, each once: a matching row whose key a
    /// RAM window carries too is not returned.
    pub query_rows_returned: u64,
}

/// Where an injected crash stops the store mid-operation. Test-only
/// instrumentation: each point sits on one boundary of the fixed write
/// order, so tests can prove recovery holds across every cut.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CrashPoint {
    /// Normal operation.
    #[default]
    None,
    /// Segment bytes staged at `.tmp`, not yet renamed.
    BeforeSegmentRename,
    /// Segment renamed into place, manifest untouched.
    BeforeManifestStage,
    /// New manifest staged at `.tmp`, old manifest still live.
    BeforeManifestRename,
}

/// What a spill attempt did (the `Ok` half; disk failures are `Err`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpillOutcome {
    /// The window is durably on disk (or was empty; nothing to write).
    Spilled,
    /// Degraded mode skipped the disk entirely: the caller must keep
    /// the window in RAM and retry on a later eviction pass.
    DegradedSkip,
}

/// Skipped spill attempts after entering degraded mode, before the
/// first re-probe of the disk.
const INITIAL_PROBE_SKIP: u64 = 2;

/// Cap on the skip run between probes (each failed probe doubles it).
const MAX_PROBE_SKIP: u64 = 64;

/// One manifested segment: what the manifest says of it, and its footer.
#[derive(Clone)]
struct Segment {
    meta: SegmentMeta,
    index: Arc<SegmentIndex>,
}

impl Segment {
    fn reader(&self, dir: &Path) -> Result<SegmentReader, EdgeperfError> {
        let path = dir.join(&self.meta.file);
        let file = File::open(&path).map_err(|e| io_err("open segment", &path, e))?;
        Ok(SegmentReader::new(file, Arc::clone(&self.index)))
    }
}

/// In-memory mirror of the manifest plus session counters. Mutated only
/// under the store lock, and only after the corresponding disk state is
/// durable.
#[derive(Default)]
struct StoreState {
    next_id: u64,
    segments: Vec<Segment>,
    spilled_windows: u64,
    spilled_cells: u64,
    compactions: u64,
    /// Spill attempts that failed on disk (injected or real).
    spill_errors: u64,
    /// Consecutive spill failures; reset by any success.
    consecutive_failures: u64,
    /// Degraded (RAM-only retention) mode is active.
    degraded: bool,
    /// Skipped attempts remaining before the next probe.
    skip_remaining: u64,
    /// Length of the next skip run (doubles per failed probe).
    probe_skip: u64,
    /// Injected fault schedule (empty in production).
    chaos: ChaosPlan,
    /// Spill attempts that reached the disk path (chaos op index).
    spill_ops: u64,
    /// Compaction merges attempted (chaos op index).
    compact_ops: u64,
}

/// The tiered window store. One per server, shared by every worker
/// (spills), the protocol query path and the background compactor.
pub struct SegmentStore {
    dir: PathBuf,
    /// Compaction triggers once this many segments exist.
    compact_min_segments: usize,
    /// Segments merged per compaction round.
    compact_batch: usize,
    /// Consecutive spill failures that flip the store into degraded
    /// (RAM-only retention) mode.
    spill_fail_threshold: u64,
    state: Mutex<StoreState>,
    /// Held for the whole of a compaction, so that two can never pick
    /// the same victims. Never taken by a spill or a query.
    compacting: Mutex<()>,
    crash: Mutex<CrashPoint>,
    /// Running query totals — row groups read, segment bytes those reads
    /// moved, rows decoded out of them, store rows replies carried —
    /// behind [`StoreStats`]'s `query_*` fields, added by each dropped
    /// [`Cursors`]. Relaxed: statistics, publishing nothing.
    query_totals: [AtomicU64; 4],
}

fn corrupt(message: String) -> EdgeperfError {
    EdgeperfError::Segment { message }
}

fn io_err(context: &str, path: &Path, e: std::io::Error) -> EdgeperfError {
    corrupt(format!("{context} {}: {e}", path.display()))
}

impl SegmentStore {
    /// Open (or create) the store at `dir`, replaying the manifest:
    /// validate every referenced segment file and sweep orphan `.seg` /
    /// `.tmp` files a crash may have left behind.
    pub fn open(
        dir: &Path,
        compact_min_segments: usize,
        compact_batch: usize,
        spill_fail_threshold: u32,
    ) -> Result<SegmentStore, EdgeperfError> {
        std::fs::create_dir_all(dir).map_err(|e| io_err("create spill dir", dir, e))?;
        let manifest_path = dir.join(MANIFEST_FILE);
        let mut state = StoreState::default();
        if manifest_path.exists() {
            let text = std::fs::read_to_string(&manifest_path)
                .map_err(|e| io_err("read manifest", &manifest_path, e))?;
            let manifest: Manifest = serde_json::from_str(&text)
                .map_err(|e| corrupt(format!("manifest does not parse: {e}")))?;
            if manifest.version != MANIFEST_VERSION {
                return Err(corrupt(format!("unsupported manifest version {}", manifest.version)));
            }
            for meta in manifest.segments {
                let path = dir.join(&meta.file);
                let file = File::open(&path)
                    .map_err(|e| io_err("manifest references missing segment", &path, e))?;
                let len = file.metadata().map_err(|e| io_err("stat segment", &path, e))?.len();
                if len != meta.bytes {
                    return Err(corrupt(format!(
                        "segment {} is {len} bytes, manifest says {}",
                        meta.file, meta.bytes
                    )));
                }
                let index = SegmentIndex::of_file(&file)?;
                if index.rows() != meta.cells {
                    return Err(corrupt(format!(
                        "segment {} indexes {} rows, manifest says {}",
                        meta.file,
                        index.rows(),
                        meta.cells
                    )));
                }
                state.segments.push(Segment { meta, index: Arc::new(index) });
            }
            state.next_id = manifest.next_id;
        }
        // Sweep anything the manifest does not own: staged `.tmp` files
        // and segments whose manifest update never landed. Also advance
        // `next_id` past every orphan id so a failed removal can never
        // collide with a future spill.
        let entries = std::fs::read_dir(dir).map_err(|e| io_err("list spill dir", dir, e))?;
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let referenced =
                name == MANIFEST_FILE || state.segments.iter().any(|s| s.meta.file == name);
            if referenced {
                continue;
            }
            if StagedFile::is_staging(&entry.path()) || name.ends_with(".seg") {
                if let Some(id) = segment_file_id(name) {
                    state.next_id = state.next_id.max(id + 1);
                }
                let _ = std::fs::remove_file(entry.path());
            }
        }
        state.probe_skip = INITIAL_PROBE_SKIP;
        Ok(SegmentStore {
            dir: dir.to_path_buf(),
            compact_min_segments: compact_min_segments.max(2),
            compact_batch: compact_batch.max(2),
            spill_fail_threshold: u64::from(spill_fail_threshold.max(1)),
            state: Mutex::new(state),
            compacting: Mutex::new(()),
            crash: Mutex::new(CrashPoint::None),
            query_totals: Default::default(),
        })
    }

    /// Arm a deterministic disk-fault schedule (`spillfail` /
    /// `compactfail` / `spilldelay` clauses; the rest are ignored here).
    pub(crate) fn set_chaos(&self, plan: ChaosPlan) {
        self.state.lock().expect("store state").chaos = plan;
    }

    /// The spill directory this store owns.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Arm the next matching operation boundary to fail as if the
    /// process died there (test instrumentation; see [`CrashPoint`]).
    #[cfg(test)]
    fn inject_crash(&self, point: CrashPoint) {
        *self.crash.lock().expect("crash point") = point;
    }

    fn crashed_at(&self, point: CrashPoint) -> Result<(), EdgeperfError> {
        if *self.crash.lock().expect("crash point") == point {
            return Err(corrupt(format!("injected crash at {point:?}")));
        }
        Ok(())
    }

    /// Spill window `index`'s cells, in any order: they are sorted into
    /// canonical order and `spill`ed.
    pub fn spill_window(
        &self,
        index: u32,
        cells: &[(CellKey, CellSummary)],
    ) -> Result<SpillOutcome, EdgeperfError> {
        let mut rows: Vec<WindowCell> =
            cells.iter().map(|(key, s)| window_cell(index, key, s)).collect();
        sort_cells(&mut rows);
        self.spill(&rows)
    }

    /// Spill one evicted window's `rows`, already in canonical order —
    /// the slice a worker keeps — streamed as they lie into one segment,
    /// then the manifest commits it.
    ///
    /// In degraded mode most attempts return
    /// [`SpillOutcome::DegradedSkip`] without touching the disk; the
    /// caller must keep the window in RAM and offer it again on a later
    /// eviction pass. Every `probe_skip`-th attempt goes to disk as a
    /// probe — the first success clears degraded mode.
    pub(crate) fn spill(&self, rows: &[WindowCell]) -> Result<SpillOutcome, EdgeperfError> {
        let mut state = self.state.lock().expect("store state");
        if rows.is_empty() {
            state.spilled_windows += 1;
            return Ok(SpillOutcome::Spilled);
        }
        if state.degraded && state.skip_remaining > 0 {
            state.skip_remaining -= 1;
            return Ok(SpillOutcome::DegradedSkip);
        }
        let op = state.spill_ops;
        state.spill_ops += 1;
        if let Some(delay) = state.chaos.spill_delay(op) {
            std::thread::sleep(delay);
        }
        let result = if state.chaos.spill_fails(op) {
            Err(corrupt(format!("injected ENOSPC (chaos, spill op {op})")))
        } else {
            self.spill_to_disk(&mut state, rows)
        };
        match result {
            Ok(()) => {
                state.spilled_windows += 1;
                state.consecutive_failures = 0;
                state.degraded = false;
                state.probe_skip = INITIAL_PROBE_SKIP;
                Ok(SpillOutcome::Spilled)
            }
            Err(e) => {
                state.spill_errors += 1;
                state.consecutive_failures += 1;
                if state.degraded || state.consecutive_failures >= self.spill_fail_threshold {
                    state.degraded = true;
                    state.skip_remaining = state.probe_skip;
                    state.probe_skip = (state.probe_skip * 2).min(MAX_PROBE_SKIP);
                }
                Err(e)
            }
        }
    }

    /// The disk half of a spill: durably place the segment, then commit
    /// the manifest referencing it.
    fn spill_to_disk(
        &self,
        state: &mut StoreState,
        rows: &[WindowCell],
    ) -> Result<(), EdgeperfError> {
        let id = state.next_id;
        state.next_id += 1;
        let segment = self.write_segment(id, |out| {
            rows.iter().try_for_each(|c| out.push(c)).map_err(|e| write_err(id, e))
        })?;
        state.spilled_cells += segment.meta.cells;
        let mut segments = state.segments.clone();
        segments.push(segment);
        self.commit_manifest(state, segments)
    }

    /// Stream the rows `fill` pushes into segment `id`'s file, staged
    /// then renamed. The manifest is NOT updated here — an untracked
    /// `.seg` is the worst a crash after this can leave.
    fn write_segment(
        &self,
        id: u64,
        fill: impl FnOnce(&mut SegmentWriter<StagedFile>) -> Result<(), EdgeperfError>,
    ) -> Result<Segment, EdgeperfError> {
        let file = format!("seg-{id:08}.seg");
        let path = self.dir.join(&file);
        let staged = StagedFile::create(&path).map_err(|e| io_err("stage segment", &path, e))?;
        let mut out = SegmentWriter::new(staged).map_err(|e| write_err(id, e))?;
        fill(&mut out)?;
        let (staged, index) = out.finish().map_err(|e| write_err(id, e))?;
        self.crashed_at(CrashPoint::BeforeSegmentRename)?;
        staged.commit().map_err(|e| io_err("rename segment", &path, e))?;
        let bytes = std::fs::metadata(&path).map_err(|e| io_err("stat segment", &path, e))?.len();
        let (from_window, until_window) = index.window_span().expect("non-empty segment");
        let meta = SegmentMeta { id, file, cells: index.rows(), from_window, until_window, bytes };
        Ok(Segment { meta, index: Arc::new(index) })
    }

    /// Write the manifest naming `segments`, then mirror it into
    /// `state`. In-memory state moves only after the rename lands, so
    /// the mirror never gets ahead of disk.
    fn commit_manifest(
        &self,
        state: &mut StoreState,
        segments: Vec<Segment>,
    ) -> Result<(), EdgeperfError> {
        self.crashed_at(CrashPoint::BeforeManifestStage)?;
        let manifest = Manifest {
            version: MANIFEST_VERSION,
            next_id: state.next_id,
            segments: segments.iter().map(|s| s.meta.clone()).collect(),
        };
        let text = serde_json::to_string(&manifest)
            .map_err(|e| corrupt(format!("manifest does not serialize: {e}")))?;
        let path = self.dir.join(MANIFEST_FILE);
        let stage_err = |e| io_err("stage manifest", &path, e);
        let mut staged = StagedFile::create(&path).map_err(stage_err)?;
        staged.write_all(text.as_bytes()).map_err(stage_err)?;
        self.crashed_at(CrashPoint::BeforeManifestRename)?;
        staged.commit().map_err(|e| io_err("rename manifest", &path, e))?;
        state.segments = segments;
        Ok(())
    }

    /// A run cursor for every manifested segment that overlaps `q`'s
    /// window range: the lock is held to snapshot the segments and open
    /// their files, not to read. A reply reads them, group by group, as
    /// it merges; only the row groups whose window and key range can hold
    /// a match are read, each verified by its own checksum.
    pub fn query(&self, q: &CellQuery) -> Result<Cursors<'_>, EdgeperfError> {
        let state = self.state.lock().expect("store state");
        let overlaps = |m: &SegmentMeta| {
            q.from_window.is_none_or(|lo| lo <= m.until_window)
                && q.until_window.is_none_or(|hi| hi >= m.from_window)
        };
        let overlapping: Vec<&Segment> =
            state.segments.iter().filter(|s| overlaps(&s.meta)).collect();
        let runs = overlapping
            .iter()
            .map(|s| {
                let segment = GroupCursor::new(s.reader(&self.dir)?, *q);
                Ok(RunCursor { segment, kept: Some(Vec::new()), replay: None })
            })
            .collect::<Result<_, EdgeperfError>>()?;
        let reads = Reads::new(overlapping.iter().map(|s| &*s.index));
        Ok(Cursors { runs, reads, totals: Some(&self.query_totals), ..Cursors::default() })
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> StoreStats {
        let [query_groups_read, query_bytes_read, query_rows_examined, query_rows_returned] =
            self.query_totals.each_ref().map(|total| total.load(Ordering::Relaxed));
        let state = self.state.lock().expect("store state");
        let mut stats = StoreStats {
            segments: u64::try_from(state.segments.len()).expect("usize fits u64"),
            spilled_windows: state.spilled_windows,
            spilled_cells: state.spilled_cells,
            compactions: state.compactions,
            spill_errors: state.spill_errors,
            degraded: state.degraded,
            query_groups_read,
            query_bytes_read,
            query_rows_examined,
            query_rows_returned,
            ..StoreStats::default()
        };
        for Segment { meta, .. } in &state.segments {
            stats.cells += meta.cells;
            stats.bytes += meta.bytes;
            stats.from_window =
                Some(stats.from_window.map_or(meta.from_window, |w| w.min(meta.from_window)));
            stats.until_window =
                Some(stats.until_window.map_or(meta.until_window, |w| w.max(meta.until_window)));
        }
        stats
    }

    /// Would [`compact_once`](Self::compact_once) do work right now?
    /// Cheap enough for the compactor thread to poll.
    pub fn needs_compaction(&self) -> bool {
        self.state.lock().expect("store state").segments.len() >= self.compact_min_segments
    }

    /// Merge the smallest batch of segments into one time-sorted
    /// segment. Returns whether a merge happened. Old files are deleted
    /// only after the new manifest lands; a crash in between leaves
    /// orphan `.seg` files for the next open to sweep.
    ///
    /// The lock is held to choose the victims and again to commit; the
    /// merge between runs beside spills and queries, and what spilled
    /// meanwhile is kept: the commit is `current − victims + merged`.
    pub fn compact_once(&self) -> Result<bool, EdgeperfError> {
        self.compact_pausing(|| ())
    }

    /// [`compact_once`](Self::compact_once), calling `before_commit`
    /// once the merged segment is in place and the lock not yet re-taken.
    fn compact_pausing(&self, before_commit: impl FnOnce()) -> Result<bool, EdgeperfError> {
        let _one_at_a_time = self.compacting.lock().expect("compaction lock");
        let (id, victims, readers) = {
            let mut state = self.state.lock().expect("store state");
            if state.segments.len() < self.compact_min_segments {
                return Ok(false);
            }
            let op = state.compact_ops;
            state.compact_ops += 1;
            if state.chaos.compact_fails(op) {
                return Err(corrupt(format!("injected EIO (chaos, compaction op {op})")));
            }
            // Victims: the smallest segments by cell count (ties by id, so
            // the choice — and the merged output — is deterministic).
            let mut victims: Vec<&Segment> = state.segments.iter().collect();
            victims.sort_by_key(|s| (s.meta.cells, s.meta.id));
            victims.truncate(self.compact_batch);
            let readers =
                victims.iter().map(|s| s.reader(&self.dir)).collect::<Result<Vec<_>, _>>()?;
            let victims: Vec<SegmentMeta> = victims.into_iter().map(|s| s.meta.clone()).collect();
            let id = state.next_id;
            state.next_id += 1;
            (id, victims, readers)
        };
        let merged = self.write_segment(id, |out| merge(readers, out, id))?;
        before_commit();
        let mut state = self.state.lock().expect("store state");
        let mut segments: Vec<Segment> = state
            .segments
            .iter()
            .filter(|s| victims.iter().all(|v| v.id != s.meta.id))
            .cloned()
            .collect();
        segments.push(merged);
        self.commit_manifest(&mut state, segments)?;
        state.compactions += 1;
        drop(state);
        for victim in victims {
            let _ = std::fs::remove_file(self.dir.join(victim.file));
        }
        Ok(true)
    }
}

fn write_err(id: u64, e: std::io::Error) -> EdgeperfError {
    corrupt(format!("write segment {id}: {e}"))
}

/// Can row group `g` hold a cell matching `q`? Its window must fall in
/// the range; and since [`cell_sort_key`] orders a window's cells by pop
/// then prefix, a `pop=` filter (with `prefix=`, if given) names a key
/// interval that must meet the group's `first..=last`.
fn may_match(g: &GroupEntry, q: &CellQuery) -> bool {
    let in_range = q.from_window.is_none_or(|lo| lo <= g.last.0)
        && q.until_window.is_none_or(|hi| hi >= g.first.0);
    let Some(pop) = q.group.pop else { return in_range };
    let (lo, hi) = match q.group.prefix {
        Some((base, len)) => ((pop, base, len), (pop, base, len)),
        None => ((pop, 0, 0), (pop, u32::MAX, u8::MAX)),
    };
    in_range && (g.first.1, g.first.2, g.first.3) <= hi && (g.last.1, g.last.2, g.last.3) >= lo
}

/// K-way merge of `readers` — each already in [`cell_sort_key`] order,
/// as every segment this store writes is — into `out`, through one read
/// buffer. Equal keys leave in input order, so the output is row for row
/// what concatenating the inputs and [`sort_cells`] (a stable sort) would
/// give.
fn merge(
    readers: Vec<SegmentReader>,
    out: &mut SegmentWriter<StagedFile>,
    id: u64,
) -> Result<(), EdgeperfError> {
    let mut reads = Reads::new(readers.iter().map(SegmentReader::index));
    let mut inputs: Vec<GroupCursor> =
        readers.into_iter().map(|reader| GroupCursor::new(reader, CellQuery::default())).collect();
    let mut heads = BinaryHeap::with_capacity(inputs.len());
    for (i, input) in inputs.iter_mut().enumerate() {
        input.seek(&mut reads)?;
        if let Some(row) = input.head() {
            heads.push(Reverse((cell_sort_key(row), i)));
        }
    }
    while let Some(Reverse((_, i))) = heads.pop() {
        let input = &mut inputs[i];
        out.push(input.head().expect("a head stands on its row")).map_err(|e| write_err(id, e))?;
        input.advance(&mut reads)?;
        if let Some(row) = input.head() {
            heads.push(Reverse((cell_sort_key(row), i)));
        }
    }
    Ok(())
}

/// `seg-XXXXXXXX.seg[.tmp]` → `XXXXXXXX` as an id, if the name matches.
fn segment_file_id(name: &str) -> Option<u64> {
    name.strip_prefix("seg-")?.split('.').next().and_then(|stem| stem.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgeperf_analysis::GroupKey;
    use edgeperf_routing::{PopId, Prefix, Relationship};

    fn summary(seed: u64) -> CellSummary {
        CellSummary {
            n: usize::try_from(seed % 90 + 10).unwrap(),
            n_tested: usize::try_from(seed % 50).unwrap(),
            bytes: seed * 1_003,
            min_rtt_p50: 20.0 + seed as f64 * 0.31,
            min_rtt_var: (!seed.is_multiple_of(3)).then_some(1e-3 * seed as f64),
            hdratio_p50: (seed % 4 != 1).then(|| (seed % 100) as f64 / 100.0),
            hdratio_var: seed.is_multiple_of(5).then(|| 2e-4 * (seed + 1) as f64),
            relationship: match seed % 3 {
                0 => Relationship::PrivatePeer,
                1 => Relationship::PublicPeer,
                _ => Relationship::Transit,
            },
            longer_path: seed % 2 == 1,
            more_prepended: seed.is_multiple_of(7),
        }
    }

    fn key(seed: u64) -> CellKey {
        (
            GroupKey {
                pop: PopId(u16::try_from(seed % 4).unwrap()),
                prefix: Prefix::new(u32::try_from((seed % 100) << 16).unwrap(), 16),
                country: u16::try_from(seed % 30).unwrap(),
                continent: u8::try_from(seed % 5).unwrap(),
            },
            u8::try_from(seed % 3).unwrap(),
        )
    }

    fn window(seed: u64, n: usize) -> Vec<(CellKey, CellSummary)> {
        (0..n)
            .map(|i| {
                let s = seed * 1_000 + u64::try_from(i).unwrap();
                (key(s), summary(s))
            })
            .collect()
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("edgeperf-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Every bit of a row, comparable: equal means bit-identical.
    type Bits = (
        edgeperf_analysis::CellSortKey,
        (Relationship, bool, bool),
        (u64, u64, u64),
        u64,
        [Option<u64>; 3],
    );

    fn bits(c: &WindowCell) -> Bits {
        (
            cell_sort_key(c),
            (c.relationship(), c.longer_path(), c.more_prepended()),
            (c.n.into(), c.n_tested.into(), c.bytes),
            c.min_rtt_p50.to_bits(),
            [c.min_rtt_var(), c.hdratio_p50(), c.hdratio_var()].map(|v| v.map(f64::to_bits)),
        )
    }

    /// `rows` in canonical order, as [`bits`].
    fn sorted_bits(mut rows: Vec<WindowCell>) -> Vec<Bits> {
        sort_cells(&mut rows);
        rows.iter().map(bits).collect()
    }

    /// The rest of a pass: each run's rows from where it stands, run
    /// after run, each checked to be in canonical order.
    fn rest(cursors: &mut Cursors<'_>) -> Vec<WindowCell> {
        let mut rows = Vec::new();
        for i in 0..cursors.len() {
            let start = rows.len();
            while let Some(&row) = cursors.head(i) {
                rows.push(row);
                cursors.step(i).expect("reads");
            }
            let keys: Vec<_> = rows[start..].iter().map(cell_sort_key).collect();
            assert!(keys.is_sorted(), "a run out of canonical order: {keys:?}");
        }
        rows
    }

    /// A query's rows: one pass, carried whole, as a reply without RAM
    /// windows makes it — so what it reads and returns lands in the
    /// totals.
    fn drained(cursors: Result<Cursors<'_>, EdgeperfError>) -> Vec<WindowCell> {
        let mut cursors = cursors.expect("queries");
        cursors.start_pass().expect("reads");
        let rows = rest(&mut cursors);
        cursors.carry(rows.len() as u64);
        rows
    }

    /// The unindexed answer: filter every row there is.
    fn answer(all: &[WindowCell], q: &CellQuery) -> Vec<Bits> {
        sorted_bits(all.iter().filter(|c| q.matches(c.window, &c.group())).copied().collect())
    }

    fn rows_of(index: u32, cells: &[(CellKey, CellSummary)]) -> Vec<WindowCell> {
        cells.iter().map(|(k, s)| window_cell(index, k, s)).collect()
    }

    /// Share `part` (of 2) of a window wide enough to fill several row
    /// groups: `n` cells over 7 pops, every prefix its own group.
    fn wide_window(index: u32, part: u32, n: u32) -> Vec<(CellKey, CellSummary)> {
        (0..n)
            .map(|i| {
                let g = i * 2 + part;
                let group = GroupKey {
                    pop: PopId(u16::try_from(g % 7).unwrap()),
                    prefix: Prefix::new(g << 8, 24),
                    country: u16::try_from(g % 30).unwrap(),
                    continent: u8::try_from(g % 5).unwrap(),
                };
                (
                    (group, u8::try_from(g % 2).unwrap()),
                    summary(u64::from(index) * 100_000 + u64::from(g)),
                )
            })
            .collect()
    }

    /// A point query for the group of `cell` over every window.
    fn point(cell: &WindowCell) -> CellQuery {
        let g = cell.group();
        let group = crate::protocol::GroupFilter {
            pop: Some(g.pop.0),
            prefix: Some((g.prefix.base, g.prefix.len)),
            ..Default::default()
        };
        CellQuery { group, ..Default::default() }
    }

    #[test]
    fn spill_then_query_is_bit_identical() {
        let dir = tmpdir("roundtrip");
        let store = SegmentStore::open(&dir, 8, 8, 3).expect("opens");
        let w3 = window(3, 17);
        let w4 = window(4, 9);
        store.spill_window(3, &w3).expect("spills");
        store.spill_window(4, &w4).expect("spills");
        let got = drained(store.query(&CellQuery::default()));
        assert_eq!(got.len(), w3.len() + w4.len());
        let mut expected: Vec<WindowCell> = w3
            .iter()
            .map(|(k, s)| window_cell(3, k, s))
            .chain(w4.iter().map(|(k, s)| window_cell(4, k, s)))
            .collect();
        sort_cells(&mut expected);
        let mut got_sorted = got.clone();
        sort_cells(&mut got_sorted);
        for (a, b) in expected.iter().zip(&got_sorted) {
            assert_eq!(a.group(), b.group());
            assert_eq!(a.min_rtt_p50.to_bits(), b.min_rtt_p50.to_bits());
            assert_eq!(a.min_rtt_var().map(f64::to_bits), b.min_rtt_var().map(f64::to_bits));
            assert_eq!(a.hdratio_p50().map(f64::to_bits), b.hdratio_p50().map(f64::to_bits));
        }
        // Range and group filters prune.
        let only3 = drained(store.query(&CellQuery {
            from_window: Some(3),
            until_window: Some(3),
            ..Default::default()
        }));
        assert_eq!(only3.len(), w3.len());
        assert!(only3.iter().all(|c| c.window == 3));
        let stats = store.stats();
        assert_eq!(stats.segments, 2);
        assert_eq!(stats.spilled_windows, 2);
        assert_eq!(stats.from_window, Some(3));
        assert_eq!(stats.until_window, Some(4));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_replays_the_manifest_and_sweeps_orphans() {
        let dir = tmpdir("reopen");
        {
            let store = SegmentStore::open(&dir, 8, 8, 3).expect("opens");
            store.spill_window(1, &window(1, 5)).expect("spills");
            store.spill_window(2, &window(2, 6)).expect("spills");
        }
        // Fake crash leftovers: a staged tmp and an unreferenced segment.
        edgeperf_analysis::atomic_write(&dir.join("seg-00000099.seg"), b"torn").unwrap();
        StagedFile::create(&dir.join("seg-00000100.seg")).unwrap().write_all(b"staged").unwrap();
        let store = SegmentStore::open(&dir, 8, 8, 3).expect("reopens");
        assert!(!dir.join("seg-00000099.seg").exists(), "orphan segment swept");
        assert!(!dir.join("seg-00000100.seg.tmp").exists(), "orphan tmp swept");
        assert_eq!(drained(store.query(&CellQuery::default())).len(), 11);
        // Ids never collide with swept orphans.
        store.spill_window(3, &window(3, 2)).expect("spills");
        let stats = store.stats();
        assert_eq!(stats.segments, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_crash_point_recovers_without_a_torn_manifest() {
        for point in [
            CrashPoint::BeforeSegmentRename,
            CrashPoint::BeforeManifestStage,
            CrashPoint::BeforeManifestRename,
        ] {
            let dir = tmpdir(&format!("crash-{point:?}"));
            let cells_before;
            {
                let store = SegmentStore::open(&dir, 8, 8, 3).expect("opens");
                store.spill_window(1, &window(1, 4)).expect("spills");
                cells_before = drained(store.query(&CellQuery::default())).len();
                store.inject_crash(point);
                store.spill_window(2, &window(2, 7)).expect_err("crash injected");
            }
            // Recovery: the manifest must parse, reference only intact
            // files, and still serve everything it committed before the
            // crash. The interrupted spill is simply absent.
            let store = SegmentStore::open(&dir, 8, 8, 3)
                .unwrap_or_else(|e| panic!("{point:?}: recovery failed: {e}"));
            let after = drained(store.query(&CellQuery::default()));
            assert_eq!(after.len(), cells_before, "{point:?}");
            // No stray staging files survive recovery.
            for entry in std::fs::read_dir(&dir).unwrap().flatten() {
                let name = entry.file_name().to_string_lossy().to_string();
                assert!(!name.ends_with(".tmp"), "{point:?} left {name}");
            }
            // And the store keeps working.
            store.spill_window(2, &window(2, 7)).expect("spills after recovery");
            assert_eq!(drained(store.query(&CellQuery::default())).len(), cells_before + 7);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn compaction_merges_small_segments_and_preserves_cells() {
        let dir = tmpdir("compact");
        let store = SegmentStore::open(&dir, 4, 4, 3).expect("opens");
        for w in 0..6u32 {
            store.spill_window(w, &window(u64::from(w), 3)).expect("spills");
        }
        assert!(store.needs_compaction());
        let before = {
            let mut v = drained(store.query(&CellQuery::default()));
            sort_cells(&mut v);
            v
        };
        assert!(store.compact_once().expect("compacts"));
        let stats = store.stats();
        assert_eq!(stats.compactions, 1);
        assert_eq!(stats.segments, 3, "4 victims merged into 1, 2 untouched");
        let after = {
            let mut v = drained(store.query(&CellQuery::default()));
            sort_cells(&mut v);
            v
        };
        assert_eq!(before.len(), after.len());
        for (a, b) in before.iter().zip(&after) {
            assert_eq!(bits(a), bits(b));
        }
        // Compacting below the threshold is a no-op.
        assert!(!store.compact_once().expect("no-op"));
        // Reopen still serves the merged state.
        drop(store);
        let store = SegmentStore::open(&dir, 4, 4, 3).expect("reopens");
        assert_eq!(drained(store.query(&CellQuery::default())).len(), before.len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_windows_are_counted_but_not_written() {
        let dir = tmpdir("empty");
        let store = SegmentStore::open(&dir, 8, 8, 3).expect("opens");
        store.spill_window(9, &[]).expect("spills nothing");
        let stats = store.stats();
        assert_eq!(stats.spilled_windows, 1);
        assert_eq!(stats.segments, 0);
        assert!(drained(store.query(&CellQuery::default())).is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn consecutive_failures_enter_degraded_mode_and_a_probe_recovers() {
        let dir = tmpdir("degraded");
        let store = SegmentStore::open(&dir, 8, 8, 3).expect("opens");
        store.set_chaos(ChaosPlan::parse("spillfail:0@3").expect("plan"));
        for op in 0..3u64 {
            assert!(!store.stats().degraded, "not degraded before op {op}");
            let err = store.spill_window(1, &window(1, 4)).expect_err("injected");
            assert!(err.to_string().contains("injected ENOSPC"), "op {op}: {err}");
        }
        assert!(store.stats().degraded, "threshold 3 reached");
        assert_eq!(store.stats().spill_errors, 3);
        // Two skipped attempts before the first probe — no disk contact.
        for _ in 0..2 {
            assert_eq!(
                store.spill_window(2, &window(2, 4)).expect("skips"),
                SpillOutcome::DegradedSkip
            );
        }
        // The probe reaches the (now healthy) disk and clears degraded.
        assert_eq!(store.spill_window(3, &window(3, 4)).expect("probes"), SpillOutcome::Spilled);
        assert!(!store.stats().degraded);
        let stats = store.stats();
        assert_eq!(stats.spill_errors, 3);
        assert!(!stats.degraded);
        assert_eq!(stats.spilled_windows, 1, "only the successful spill counts");
        assert_eq!(stats.segments, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_probes_double_the_skip_run() {
        let dir = tmpdir("probe-doubling");
        let store = SegmentStore::open(&dir, 8, 8, 1).expect("opens");
        store.set_chaos(ChaosPlan::parse("spillfail:0@2").expect("plan"));
        // Op 0 fails → degraded at threshold 1, first skip run of 2.
        store.spill_window(1, &window(1, 3)).expect_err("fails");
        assert!(store.stats().degraded);
        for _ in 0..2 {
            assert_eq!(
                store.spill_window(1, &window(1, 3)).expect("skips"),
                SpillOutcome::DegradedSkip
            );
        }
        // The probe (op 1) fails too → the skip run doubles to 4.
        store.spill_window(1, &window(1, 3)).expect_err("probe fails");
        for _ in 0..4 {
            assert_eq!(
                store.spill_window(1, &window(1, 3)).expect("skips"),
                SpillOutcome::DegradedSkip
            );
        }
        // The next probe (op 2) is past the fault window and recovers.
        assert_eq!(store.spill_window(1, &window(1, 3)).expect("probes"), SpillOutcome::Spilled);
        assert!(!store.stats().degraded);
        assert_eq!(store.stats().spill_errors, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_faults_are_injected_by_op_index() {
        let dir = tmpdir("compactfail");
        let store = SegmentStore::open(&dir, 4, 4, 3).expect("opens");
        store.set_chaos(ChaosPlan::parse("compactfail:0").expect("plan"));
        for w in 0..4u32 {
            store.spill_window(w, &window(u64::from(w), 3)).expect("spills");
        }
        let err = store.compact_once().expect_err("injected");
        assert!(err.to_string().contains("injected EIO"), "{err}");
        // The next attempt (op 1) is past the fault window and succeeds.
        assert!(store.compact_once().expect("compacts"));
        assert_eq!(store.stats().compactions, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_point_query_reads_only_the_groups_that_can_match() {
        let dir = tmpdir("pruning");
        let store = SegmentStore::open(&dir, 4, 4, 3).expect("opens");
        let mut all = Vec::new();
        for w in 0..4u32 {
            let cells = wide_window(w, 0, 2_000);
            all.extend(rows_of(w, &cells));
            store.spill_window(w, &cells).expect("spills");
        }
        assert!(store.compact_once().expect("compacts"));
        let q = point(&all[1_234]);
        let got = drained(store.query(&q));
        assert_eq!(sorted_bits(got.clone()), answer(&all, &q));
        assert_eq!(got.len(), 4, "one cell a window");
        let stats = store.stats();
        assert_eq!(stats.query_rows_returned, 4);
        assert_eq!(stats.query_groups_read, 4, "one group a window: {stats:?}");
        assert!(stats.query_rows_examined <= 4 * GROUP_ROWS as u64, "{stats:?}");
        assert!(stats.query_bytes_read * 3 < stats.bytes, "{stats:?}");
        // A window range prunes by window, a full scan reads it all.
        let q = CellQuery { from_window: Some(1), until_window: Some(2), ..Default::default() };
        assert_eq!(sorted_bits(drained(store.query(&q))), answer(&all, &q));
        let full = drained(store.query(&CellQuery::default()));
        assert_eq!(sorted_bits(full), answer(&all, &CellQuery::default()));
        assert_eq!(store.stats().query_rows_examined - stats.query_rows_examined, 4_000 + 8_000);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_query_outlives_the_compaction_that_unlinks_its_segments() {
        let dir = tmpdir("query-vs-compaction");
        let store = SegmentStore::open(&dir, 4, 4, 3).expect("opens");
        let mut all = Vec::new();
        for w in 0..4u32 {
            let cells = wide_window(w, 0, 1_200);
            all.extend(rows_of(w, &cells));
            store.spill_window(w, &cells).expect("spills");
        }
        // After its first groups the query stands aside for a whole
        // compaction: all four segments it snapshotted are unlinked under
        // it, and it must still read every one to the end — twice, as a
        // reply re-reads runs longer than a row group.
        let mut cursors = store.query(&CellQuery::default()).expect("queries");
        cursors.start_pass().expect("reads the first groups");
        assert!(store.compact_once().expect("compacts beside the query"));
        assert_eq!(store.stats().segments, 1);
        assert!(!dir.join("seg-00000000.seg").exists(), "victims are gone from the directory");
        let first = rest(&mut cursors);
        cursors.start_pass().expect("the unlinked files read again");
        let second = rest(&mut cursors);
        assert_eq!(sorted_bits(first), answer(&all, &CellQuery::default()));
        assert_eq!(sorted_bits(second), answer(&all, &CellQuery::default()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_compaction_keeps_what_spilled_while_it_merged() {
        let dir = tmpdir("spill-vs-compaction");
        let store = SegmentStore::open(&dir, 4, 4, 3).expect("opens");
        let mut all = Vec::new();
        for w in 0..4u32 {
            let cells = window(u64::from(w), 9);
            all.extend(rows_of(w, &cells));
            store.spill_window(w, &cells).expect("spills");
        }
        let late = window(4, 9);
        all.extend(rows_of(4, &late));
        let merged = store
            .compact_pausing(|| {
                store.spill_window(4, &late).expect("spills beside the merge");
            })
            .expect("compacts");
        assert!(merged);
        let stats = store.stats();
        assert_eq!((stats.segments, stats.cells), (2, 45), "merged + the late spill");
        assert_eq!(
            sorted_bits(drained(store.query(&CellQuery::default()))),
            answer(&all, &CellQuery::default())
        );
        // And the manifest on disk agrees.
        drop(store);
        let store = SegmentStore::open(&dir, 4, 4, 3).expect("reopens");
        assert_eq!(store.stats().cells, 45);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_spill_completes_while_a_query_is_parked_mid_read() {
        let dir = tmpdir("parked-query");
        let store = SegmentStore::open(&dir, 8, 8, 3).expect("opens");
        store.spill_window(0, &wide_window(0, 0, 1_200)).expect("spills");
        let mut cursors = store.query(&CellQuery::default()).expect("queries");
        cursors.start_pass().expect("reads its first group");
        // The query holds its file handles, not the store's lock.
        assert_eq!(store.spill_window(1, &window(1, 5)).expect("spills"), SpillOutcome::Spilled);
        assert_eq!(rest(&mut cursors).len(), 1_200, "the snapshot predates the spill");
        drop(cursors);
        assert_eq!(store.stats().segments, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_second_pass_replays_a_run_that_fit_and_rereads_one_that_did_not() {
        let dir = tmpdir("two-passes");
        let store = SegmentStore::open(&dir, 8, 8, 3).expect("opens");
        // Window 0 matches 2,000 rows (four groups), window 1 matches 300.
        let mut all = rows_of(0, &wide_window(0, 0, 2_000));
        all.extend(rows_of(1, &wide_window(1, 0, 300)));
        store.spill_window(0, &wide_window(0, 0, 2_000)).expect("spills");
        store.spill_window(1, &wide_window(1, 0, 300)).expect("spills");
        let q = CellQuery::default();
        let mut cursors = store.query(&q).expect("queries");
        cursors.start_pass().expect("reads");
        let first = rest(&mut cursors);
        let after_first = (cursors.reads.groups, cursors.reads.rows);
        assert_eq!(after_first, (5, 2_300), "every group once");
        assert!(cursors.runs[0].kept.is_none(), "2,000 matches overflow a row group");
        assert_eq!(cursors.runs[1].kept.as_ref().map(Vec::len), Some(300));
        cursors.start_pass().expect("reads again");
        let second = rest(&mut cursors);
        assert_eq!(
            first.iter().map(bits).collect::<Vec<_>>(),
            second.iter().map(bits).collect::<Vec<_>>()
        );
        assert_eq!(sorted_bits(second), answer(&all, &q));
        assert_eq!(
            (cursors.reads.groups, cursors.reads.rows),
            (9, 4_300),
            "the run that overflowed is read again, the one that fit is not"
        );
        cursors.carry(2_300);
        drop(cursors);
        let stats = store.stats();
        assert_eq!(
            (stats.query_groups_read, stats.query_rows_examined, stats.query_rows_returned),
            (9, 4_300, 2_300),
            "every group read counts, re-reads too; a row returned counts once"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn queries_racing_spills_and_compaction_never_miss_a_cell() {
        use std::sync::atomic::{AtomicBool, AtomicU32};
        const WINDOWS: u32 = 96;
        let dir = tmpdir("race");
        let store = SegmentStore::open(&dir, 4, 4, 3).expect("opens");
        let shares: Vec<Vec<Vec<(CellKey, CellSummary)>>> =
            (0..2).map(|part| (0..WINDOWS).map(|w| wide_window(w, part, 700)).collect()).collect();
        // oracle[w]: window w's rows from both spillers, canonical order.
        let oracle: Vec<Vec<WindowCell>> = (0..WINDOWS)
            .map(|w| {
                let mut rows = rows_of(w, &shares[0][w as usize]);
                rows.extend(rows_of(w, &shares[1][w as usize]));
                sort_cells(&mut rows);
                rows
            })
            .collect();
        // spilled[part]: windows below it are durably spilled by `part`.
        let spilled = [AtomicU32::new(0), AtomicU32::new(0)];
        let spilling = AtomicBool::new(true);
        let deadline = std::time::Instant::now() + std::time::Duration::from_millis(400);
        let queries = std::thread::scope(|scope| {
            let spillers: Vec<_> = (0..2)
                .map(|part| {
                    let (store, shares, spilled) = (&store, &shares[part], &spilled[part]);
                    scope.spawn(move || {
                        for (w, cells) in shares.iter().enumerate() {
                            // At least a compaction's worth, then to the deadline.
                            if w >= 12 && std::time::Instant::now() > deadline {
                                break;
                            }
                            let w = u32::try_from(w).unwrap();
                            store.spill_window(w, cells).expect("spills");
                            spilled.store(w + 1, Ordering::SeqCst);
                        }
                    })
                })
                .collect();
            let compactor = scope.spawn(|| {
                while spilling.load(Ordering::SeqCst) || store.needs_compaction() {
                    if !store.compact_once().expect("compacts") {
                        std::thread::yield_now();
                    }
                }
            });
            let askers: Vec<_> = (0..4u64)
                .map(|t| {
                    let (store, oracle, spilled, spilling) = (&store, &oracle, &spilled, &spilling);
                    scope.spawn(move || {
                        let mut asked = 0u64;
                        let mut turn = t;
                        while spilling.load(Ordering::SeqCst) {
                            // Loaded before the query: everything below
                            // `lo` must be in the answer, whatever the
                            // compactor does meanwhile.
                            let lo =
                                spilled.iter().map(|s| s.load(Ordering::SeqCst)).min().unwrap();
                            if lo == 0 {
                                std::thread::yield_now();
                                continue;
                            }
                            turn = turn
                                .wrapping_mul(6_364_136_223_846_793_005)
                                .wrapping_add(1_442_695);
                            let pick = u32::try_from(turn >> 40).unwrap();
                            let q = if turn & 1 == 0 {
                                let from = pick % lo;
                                CellQuery {
                                    from_window: Some(from),
                                    until_window: Some((from + 5).min(lo - 1)),
                                    ..Default::default()
                                }
                            } else {
                                let cell = &oracle[0][pick as usize % oracle[0].len()];
                                CellQuery { until_window: Some(lo - 1), ..point(cell) }
                            };
                            let got = drained(store.query(&q));
                            let span = q.from_window.unwrap_or(0) as usize..=(lo - 1) as usize;
                            let all: Vec<WindowCell> = oracle[span].concat();
                            assert_eq!(
                                sorted_bits(got),
                                answer(&all, &q),
                                "{q:?} with {lo} spilled"
                            );
                            asked += 1;
                        }
                        asked
                    })
                })
                .collect();
            for spiller in spillers {
                spiller.join().expect("spiller");
            }
            spilling.store(false, Ordering::SeqCst);
            compactor.join().expect("compactor");
            askers.into_iter().map(|a| a.join().expect("asker")).sum::<u64>()
        });
        let stats = store.stats();
        assert!(queries > 0 && stats.compactions > 0, "{queries} queries, {stats:?}");
        let spills: u32 = spilled.iter().map(|s| s.load(Ordering::SeqCst)).sum();
        assert_eq!(stats.spilled_cells, u64::from(spills) * 700, "{stats:?}");
        assert_eq!(stats.cells, stats.spilled_cells, "nothing lost, nothing doubled");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_version_1_segment_is_refused_not_read() {
        // A version-1 image of no rows: header, row count, checksum.
        let mut v1 = b"EPSG\x01\0\0\0\0".to_vec();
        v1.extend_from_slice(&edgeperf_analysis::segment::checksum(&v1).to_le_bytes());
        let refused = |err: EdgeperfError| {
            assert_eq!(err.reason(), "segment", "{err}");
            assert!(err.to_string().ends_with("unsupported segment version 1"), "{err}");
        };
        refused(edgeperf_analysis::decode_segment(&v1).expect_err("version 1 is refused"));
        let dir = tmpdir("v1");
        std::fs::create_dir_all(&dir).expect("mkdir");
        edgeperf_analysis::atomic_write(&dir.join("seg-00000000.seg"), &v1).expect("writes");
        let manifest = r#"{"version":1,"next_id":1,"segments":[{"id":0,"file":"seg-00000000.seg",
            "cells":0,"from_window":0,"until_window":0,"bytes":17}]}"#;
        edgeperf_analysis::atomic_write(&dir.join(MANIFEST_FILE), manifest.as_bytes())
            .expect("writes");
        refused(SegmentStore::open(&dir, 8, 8, 3).err().expect("version 1 is refused on open"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_rejects_a_segment_whose_footer_does_not_verify() {
        let dir = tmpdir("bad-footer");
        {
            let store = SegmentStore::open(&dir, 8, 8, 3).expect("opens");
            store.spill_window(1, &window(1, 5)).expect("spills");
        }
        let path = dir.join("seg-00000000.seg");
        let mut image = std::fs::read(&path).expect("reads");
        let at = image.len() - 30;
        image[at] ^= 1;
        edgeperf_analysis::atomic_write(&path, &image).expect("rewrites");
        let err = SegmentStore::open(&dir, 8, 8, 3).err().expect("footer is checked on open");
        assert_eq!(err.reason(), "segment", "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// Random rows, randomly split into spills, merged a random
        /// number of times: the indexed answer to a random query is the
        /// decode-everything-and-filter answer, and every merged segment
        /// is its inputs concatenated and `sort_cells`ed, bit for bit.
        #[test]
        fn prop_indexed_answers_and_kway_merges_match_the_plain_ones(
            picks in proptest::prop::collection::vec(
                (0u32..5, 0u64..400, 0usize..3),
                1..160,
            ),
            merges in 0usize..4,
            queries in proptest::prop::collection::vec(
                (
                    proptest::prop::option::of(0u32..6),
                    proptest::prop::option::of(0u32..6),
                    proptest::prop::option::of(0u16..4),
                    proptest::prop::option::of(0u32..100),
                    proptest::prop::option::of(0u16..30),
                ),
                6,
            ),
        ) {
            use proptest::prelude::*;
            let dir = tmpdir("prop");
            let store = SegmentStore::open(&dir, 2, 3, 3).expect("opens");
            // One spill per (window, part); a cell is in one part only.
            let mut spills: std::collections::BTreeMap<(u32, usize), Vec<(CellKey, CellSummary)>> =
                Default::default();
            let mut seen = std::collections::HashSet::new();
            for &(w, seed, part) in &picks {
                if seen.insert((w, key(seed))) {
                    spills.entry((w, part)).or_default().push((key(seed), summary(seed + u64::from(w))));
                }
            }
            let mut all = Vec::new();
            for ((w, _), cells) in &spills {
                all.extend(rows_of(*w, cells));
                store.spill_window(*w, cells).expect("spills");
            }
            let decode = |file: &str| {
                edgeperf_analysis::decode_segment(&std::fs::read(dir.join(file)).expect("reads"))
                    .expect("decodes")
            };
            for _ in 0..merges {
                let before: Vec<(SegmentMeta, Vec<WindowCell>)> = (store.state.lock().unwrap())
                    .segments
                    .iter()
                    .map(|s| (s.meta.clone(), decode(&s.meta.file)))
                    .collect();
                if !store.compact_once().expect("compacts") {
                    break;
                }
                let after: Vec<SegmentMeta> =
                    store.state.lock().unwrap().segments.iter().map(|s| s.meta.clone()).collect();
                // The victims, in the order the merge took them.
                let mut victims: Vec<_> =
                    before.iter().filter(|(m, _)| after.iter().all(|a| a.id != m.id)).collect();
                victims.sort_by_key(|(m, _)| (m.cells, m.id));
                let mut plain: Vec<WindowCell> =
                    victims.into_iter().flat_map(|(_, rows)| rows.iter().copied()).collect();
                sort_cells(&mut plain);
                let merged = decode(&after.last().expect("the merged segment").file);
                prop_assert_eq!(
                    merged.iter().map(bits).collect::<Vec<_>>(),
                    plain.iter().map(bits).collect::<Vec<_>>()
                );
            }
            for &(from_window, until_window, pop, prefix, country) in &queries {
                let group = crate::protocol::GroupFilter {
                    pop,
                    prefix: prefix.map(|p| (p << 16, 16)),
                    country,
                    continent: None,
                };
                let q = CellQuery { from_window, until_window, group };
                prop_assert_eq!(sorted_bits(drained(store.query(&q))), answer(&all, &q));
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
