//! Tiered window store: closed windows spilled to columnar on-disk
//! segments once they age past the in-RAM retention horizon.
//!
//! Each worker keeps its last [`crate::LiveConfig::retention_windows`]
//! closed windows in RAM, exactly as before. With a spill directory
//! configured, a window evicted from that map is first handed here:
//! its cells become one [`WindowCell`] run, sorted into the canonical
//! order, encoded with the shared columnar codec
//! ([`edgeperf_analysis::segment`]) and written under the tmp + rename
//! discipline. Spilling stores the **final summary bit patterns**, not
//! the digests, so a historical query merged with live RAM windows is
//! bit-identical to a run that never spilled: a change of address, not
//! of value.
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
//! keeping segment count (and per-query open/decode work) bounded.
//!
//! ## Degraded mode
//!
//! A disk that starts failing (ENOSPC, EIO, a yanked volume) must not
//! take the live tier down with it, and must not silently shed history
//! either. After `spill_fail_threshold` *consecutive* spill failures
//! the store enters **degraded** mode: spill attempts are skipped
//! without touching the disk — the server keeps the evicted windows in
//! RAM instead (RAM-only retention; see `server::handle_close`) — and
//! every few skipped attempts one *probe* spill goes to disk anyway,
//! with the skip run doubling after each failed probe
//! ([`INITIAL_PROBE_SKIP`] → [`MAX_PROBE_SKIP`]). The first probe that
//! succeeds clears degraded mode and the server's retained backlog
//! drains through the normal eviction loop. The state is visible:
//! [`StoreStats::spill_errors`] and [`StoreStats::degraded`] ride the
//! `store` protocol reply, and the server mirrors them into the
//! `store.spill_errors` / `store.degraded` metrics.
//!
//! Fault injection ([`SegmentStore::set_chaos`]) drives all of this
//! deterministically: a [`ChaosPlan`]'s `spillfail`/`compactfail`/
//! `spilldelay` clauses fire by 0-based operation index, so a test (or
//! the CI chaos job) can script "spills 0–2 fail, then the disk heals"
//! and assert the exact degraded/recovered sequence.

use crate::chaos::ChaosPlan;
use crate::protocol::CellQuery;
use crate::server::CellLine;
use crate::window::{CellKey, CellSummary};
use edgeperf_analysis::segment::{
    decode_segment, encode_segment, sort_cells, stage, window_span, WindowCell,
};
use edgeperf_core::EdgeperfError;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Current manifest format version.
const MANIFEST_VERSION: u64 = 1;

/// File name of the manifest inside the spill directory.
const MANIFEST_FILE: &str = "manifest.json";

/// Flatten one closed cell into its storage-neutral segment row.
pub fn window_cell(window: u32, key: &CellKey, s: &CellSummary) -> WindowCell {
    WindowCell::new(window, key.0, key.1, s)
}

/// Flatten a segment row into the wire form served by `cells` — the
/// same representation [`CellLine::new`] builds from a RAM window, so
/// disk- and RAM-sourced cells are indistinguishable on the wire.
pub fn cell_line(c: &WindowCell) -> CellLine {
    CellLine {
        window: c.window,
        pop: c.group.pop.0,
        prefix_base: c.group.prefix.base,
        prefix_len: c.group.prefix.len,
        country: c.group.country,
        continent: c.group.continent,
        rank: c.rank,
        relationship: c.relationship.label().to_string(),
        longer_path: c.longer_path,
        more_prepended: c.more_prepended,
        n: c.n,
        n_tested: c.n_tested,
        bytes: c.bytes,
        min_rtt_p50: c.min_rtt_p50,
        min_rtt_var: c.min_rtt_var,
        hdratio_p50: c.hdratio_p50,
        hdratio_var: c.hdratio_var,
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
    /// Spill attempts that failed on disk (absent in replies from
    /// before degraded mode existed).
    #[serde(default)]
    pub spill_errors: u64,
    /// The store is currently in degraded (RAM-only retention) mode.
    #[serde(default)]
    pub degraded: bool,
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

/// In-memory mirror of the manifest plus session counters. Mutated only
/// under the store lock, and only after the corresponding disk state is
/// durable.
#[derive(Default)]
struct StoreState {
    next_id: u64,
    segments: Vec<SegmentMeta>,
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
    crash: Mutex<CrashPoint>,
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
            for meta in &manifest.segments {
                let path = dir.join(&meta.file);
                let md = std::fs::metadata(&path)
                    .map_err(|e| io_err("manifest references missing segment", &path, e))?;
                if md.len() != meta.bytes {
                    return Err(corrupt(format!(
                        "segment {} is {} bytes, manifest says {}",
                        meta.file,
                        md.len(),
                        meta.bytes
                    )));
                }
            }
            state.next_id = manifest.next_id;
            state.segments = manifest.segments;
        }
        // Sweep anything the manifest does not own: staged `.tmp` files
        // and segments whose manifest update never landed. Also advance
        // `next_id` past every orphan id so a failed removal can never
        // collide with a future spill.
        let entries = std::fs::read_dir(dir).map_err(|e| io_err("list spill dir", dir, e))?;
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let referenced = name == MANIFEST_FILE || state.segments.iter().any(|m| m.file == name);
            if referenced {
                continue;
            }
            if name.ends_with(".tmp") || name.ends_with(".seg") {
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
            crash: Mutex::new(CrashPoint::None),
        })
    }

    /// Arm a deterministic disk-fault schedule (`spillfail` /
    /// `compactfail` / `spilldelay` clauses; the rest are ignored here).
    pub fn set_chaos(&self, plan: ChaosPlan) {
        self.state.lock().expect("store state").chaos = plan;
    }

    /// The store is currently in degraded (RAM-only retention) mode.
    pub fn is_degraded(&self) -> bool {
        self.state.lock().expect("store state").degraded
    }

    /// Spill attempts that failed on disk since this store opened.
    pub fn spill_error_count(&self) -> u64 {
        self.state.lock().expect("store state").spill_errors
    }

    /// The spill directory this store owns.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Arm the next matching operation boundary to fail as if the
    /// process died there (test instrumentation; see [`CrashPoint`]).
    pub fn inject_crash(&self, point: CrashPoint) {
        *self.crash.lock().expect("crash point") = point;
    }

    fn crashed_at(&self, point: CrashPoint) -> Result<(), EdgeperfError> {
        if *self.crash.lock().expect("crash point") == point {
            return Err(corrupt(format!("injected crash at {point:?}")));
        }
        Ok(())
    }

    /// Spill one evicted window. The cells arrive exactly as the
    /// worker's RAM map held them; they are sorted into canonical order
    /// and written as one segment, then the manifest commits it.
    ///
    /// In degraded mode most attempts return
    /// [`SpillOutcome::DegradedSkip`] without touching the disk; the
    /// caller must keep the window in RAM and offer it again on a later
    /// eviction pass. Every `probe_skip`-th attempt goes to disk as a
    /// probe — the first success clears degraded mode.
    pub fn spill_window(
        &self,
        index: u32,
        cells: &[(CellKey, CellSummary)],
    ) -> Result<SpillOutcome, EdgeperfError> {
        let mut rows: Vec<WindowCell> =
            cells.iter().map(|(key, s)| window_cell(index, key, s)).collect();
        sort_cells(&mut rows);
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
        rows: Vec<WindowCell>,
    ) -> Result<(), EdgeperfError> {
        let meta = self.write_segment(state, rows)?;
        state.spilled_cells += meta.cells;
        let mut segments = state.segments.clone();
        segments.push(meta);
        self.commit_manifest(state, segments)
    }

    /// Encode and durably place one segment file (staged, then renamed).
    /// The manifest is NOT updated here — an untracked `.seg` is the
    /// worst a crash after this can leave.
    fn write_segment(
        &self,
        state: &mut StoreState,
        rows: Vec<WindowCell>,
    ) -> Result<SegmentMeta, EdgeperfError> {
        let (from_window, until_window) = window_span(&rows).expect("non-empty segment");
        let image = encode_segment(&rows);
        let id = state.next_id;
        state.next_id += 1;
        let file = format!("seg-{id:08}.seg");
        let path = self.dir.join(&file);
        let tmp = stage(&path, &image).map_err(|e| io_err("stage segment", &path, e))?;
        self.crashed_at(CrashPoint::BeforeSegmentRename)?;
        std::fs::rename(&tmp, &path).map_err(|e| io_err("rename segment", &path, e))?;
        Ok(SegmentMeta {
            id,
            file,
            cells: u64::try_from(rows.len()).expect("usize fits u64"),
            from_window,
            until_window,
            bytes: u64::try_from(image.len()).expect("usize fits u64"),
        })
    }

    /// Write the manifest naming `segments`, then mirror it into
    /// `state`. In-memory state moves only after the rename lands, so
    /// the mirror never gets ahead of disk.
    fn commit_manifest(
        &self,
        state: &mut StoreState,
        segments: Vec<SegmentMeta>,
    ) -> Result<(), EdgeperfError> {
        self.crashed_at(CrashPoint::BeforeManifestStage)?;
        let manifest = Manifest { version: MANIFEST_VERSION, next_id: state.next_id, segments };
        let text = serde_json::to_string(&manifest)
            .map_err(|e| corrupt(format!("manifest does not serialize: {e}")))?;
        let path = self.dir.join(MANIFEST_FILE);
        let tmp = stage(&path, text.as_bytes()).map_err(|e| io_err("stage manifest", &path, e))?;
        self.crashed_at(CrashPoint::BeforeManifestRename)?;
        std::fs::rename(&tmp, &path).map_err(|e| io_err("rename manifest", &path, e))?;
        state.segments = manifest.segments;
        Ok(())
    }

    /// Read every cell matching `q` out of the manifested segments.
    /// Segments whose window span misses the query range are skipped
    /// without being opened.
    pub fn query(&self, q: &CellQuery) -> Result<Vec<WindowCell>, EdgeperfError> {
        let state = self.state.lock().expect("store state");
        let mut out = Vec::new();
        for meta in &state.segments {
            let overlaps = q.from_window.is_none_or(|lo| lo <= meta.until_window)
                && q.until_window.is_none_or(|hi| hi >= meta.from_window);
            if !overlaps {
                continue;
            }
            let path = self.dir.join(&meta.file);
            let bytes = std::fs::read(&path).map_err(|e| io_err("read segment", &path, e))?;
            let cells = decode_segment(&bytes)?;
            out.extend(cells.into_iter().filter(|c| q.matches(c.window, &c.group)));
        }
        Ok(out)
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> StoreStats {
        let state = self.state.lock().expect("store state");
        let mut stats = StoreStats {
            segments: u64::try_from(state.segments.len()).expect("usize fits u64"),
            spilled_windows: state.spilled_windows,
            spilled_cells: state.spilled_cells,
            compactions: state.compactions,
            spill_errors: state.spill_errors,
            degraded: state.degraded,
            ..StoreStats::default()
        };
        for meta in &state.segments {
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
    pub fn compact_once(&self) -> Result<bool, EdgeperfError> {
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
        let mut by_size: Vec<usize> = (0..state.segments.len()).collect();
        by_size.sort_by_key(|&i| (state.segments[i].cells, state.segments[i].id));
        let victims: Vec<usize> = by_size.into_iter().take(self.compact_batch).collect();
        let mut rows = Vec::new();
        for &i in &victims {
            let path = self.dir.join(&state.segments[i].file);
            let bytes = std::fs::read(&path).map_err(|e| io_err("read segment", &path, e))?;
            rows.extend(decode_segment(&bytes)?);
        }
        sort_cells(&mut rows);
        let merged = self.write_segment(&mut state, rows)?;
        let mut segments: Vec<SegmentMeta> = state
            .segments
            .iter()
            .enumerate()
            .filter(|(i, _)| !victims.contains(i))
            .map(|(_, m)| m.clone())
            .collect();
        let old_files: Vec<String> =
            victims.iter().map(|&i| state.segments[i].file.clone()).collect();
        segments.push(merged);
        self.commit_manifest(&mut state, segments)?;
        state.compactions += 1;
        for file in old_files {
            let _ = std::fs::remove_file(self.dir.join(file));
        }
        Ok(true)
    }
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

    #[test]
    fn spill_then_query_is_bit_identical() {
        let dir = tmpdir("roundtrip");
        let store = SegmentStore::open(&dir, 8, 8, 3).expect("opens");
        let w3 = window(3, 17);
        let w4 = window(4, 9);
        store.spill_window(3, &w3).expect("spills");
        store.spill_window(4, &w4).expect("spills");
        let got = store.query(&CellQuery::default()).expect("queries");
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
            assert_eq!(a.group, b.group);
            assert_eq!(a.min_rtt_p50.to_bits(), b.min_rtt_p50.to_bits());
            assert_eq!(a.min_rtt_var.map(f64::to_bits), b.min_rtt_var.map(f64::to_bits));
            assert_eq!(a.hdratio_p50.map(f64::to_bits), b.hdratio_p50.map(f64::to_bits));
        }
        // Range and group filters prune.
        let only3 = store
            .query(&CellQuery { from_window: Some(3), until_window: Some(3), ..Default::default() })
            .expect("queries");
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
        edgeperf_analysis::stage(&dir.join("seg-00000100.seg"), b"staged").unwrap();
        let store = SegmentStore::open(&dir, 8, 8, 3).expect("reopens");
        assert!(!dir.join("seg-00000099.seg").exists(), "orphan segment swept");
        assert!(!dir.join("seg-00000100.seg.tmp").exists(), "orphan tmp swept");
        assert_eq!(store.query(&CellQuery::default()).expect("queries").len(), 11);
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
                cells_before = store.query(&CellQuery::default()).expect("queries").len();
                store.inject_crash(point);
                store.spill_window(2, &window(2, 7)).expect_err("crash injected");
            }
            // Recovery: the manifest must parse, reference only intact
            // files, and still serve everything it committed before the
            // crash. The interrupted spill is simply absent.
            let store = SegmentStore::open(&dir, 8, 8, 3)
                .unwrap_or_else(|e| panic!("{point:?}: recovery failed: {e}"));
            let after = store.query(&CellQuery::default()).expect("queries");
            assert_eq!(after.len(), cells_before, "{point:?}");
            // No stray staging files survive recovery.
            for entry in std::fs::read_dir(&dir).unwrap().flatten() {
                let name = entry.file_name().to_string_lossy().to_string();
                assert!(!name.ends_with(".tmp"), "{point:?} left {name}");
            }
            // And the store keeps working.
            store.spill_window(2, &window(2, 7)).expect("spills after recovery");
            assert_eq!(
                store.query(&CellQuery::default()).expect("queries").len(),
                cells_before + 7
            );
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
            let mut v = store.query(&CellQuery::default()).expect("queries");
            sort_cells(&mut v);
            v
        };
        assert!(store.compact_once().expect("compacts"));
        let stats = store.stats();
        assert_eq!(stats.compactions, 1);
        assert_eq!(stats.segments, 3, "4 victims merged into 1, 2 untouched");
        let after = {
            let mut v = store.query(&CellQuery::default()).expect("queries");
            sort_cells(&mut v);
            v
        };
        assert_eq!(before.len(), after.len());
        for (a, b) in before.iter().zip(&after) {
            assert_eq!(a.group, b.group);
            assert_eq!(a.window, b.window);
            assert_eq!(a.min_rtt_p50.to_bits(), b.min_rtt_p50.to_bits());
        }
        // Compacting below the threshold is a no-op.
        assert!(!store.compact_once().expect("no-op"));
        // Reopen still serves the merged state.
        drop(store);
        let store = SegmentStore::open(&dir, 4, 4, 3).expect("reopens");
        assert_eq!(store.query(&CellQuery::default()).expect("queries").len(), before.len());
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
        assert!(store.query(&CellQuery::default()).expect("queries").is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn consecutive_failures_enter_degraded_mode_and_a_probe_recovers() {
        let dir = tmpdir("degraded");
        let store = SegmentStore::open(&dir, 8, 8, 3).expect("opens");
        store.set_chaos(ChaosPlan::parse("spillfail:0@3").expect("plan"));
        for op in 0..3u64 {
            assert!(!store.is_degraded(), "not degraded before op {op}");
            let err = store.spill_window(1, &window(1, 4)).expect_err("injected");
            assert!(err.to_string().contains("injected ENOSPC"), "op {op}: {err}");
        }
        assert!(store.is_degraded(), "threshold 3 reached");
        assert_eq!(store.spill_error_count(), 3);
        // Two skipped attempts before the first probe — no disk contact.
        for _ in 0..2 {
            assert_eq!(
                store.spill_window(2, &window(2, 4)).expect("skips"),
                SpillOutcome::DegradedSkip
            );
        }
        // The probe reaches the (now healthy) disk and clears degraded.
        assert_eq!(store.spill_window(3, &window(3, 4)).expect("probes"), SpillOutcome::Spilled);
        assert!(!store.is_degraded());
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
        assert!(store.is_degraded());
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
        assert!(!store.is_degraded());
        assert_eq!(store.spill_error_count(), 2);
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
}
