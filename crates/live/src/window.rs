//! Watermark-driven ring of sliding aggregation windows.
//!
//! Each ingest worker owns one [`WindowRing`]. Records carry event time;
//! the ring assigns them to `floor(ts / window_ms)` windows whose
//! per-(group, route-rank) cells are the same bounded-memory
//! [`StreamingCell`]s the offline
//! [`edgeperf_analysis::StreamingDataset`] uses. A finite replay through
//! the server reproduces one serial ring's cells bit for bit
//! ([`crate::serial_cells`]); that it reproduces the offline job's too is
//! untested (ROADMAP's "One digest path").
//!
//! An open cell costs what it holds: a 72-byte arena entry (key, route
//! flags, an empty slot for its digests), a 24-byte slot in the window's
//! index map, and its sessions — 16 B each until its 512th: 64 B for up
//! to four, 512 B at the paper's 30-session minimum. From the 512th on it
//! holds a boxed digest pair instead, at most ~10 KB however hot the cell
//! (two 4 KiB insert buffers and 16 B a centroid, trimmed at every
//! compression). Closing a window builds a small cell's digests from its
//! sessions (a sort each, and no merge test under ~60 sessions), then
//! summarises and drops its cells one at a time: a summary's Price–Bonett
//! tails sum only their terms `exp` does not round to zero.
//!
//! [`ClosedWindow::share`] then packs a closed window into the 64-byte
//! [`WindowCell`] rows everything downstream reads: its worker's detector,
//! and its worker, which retains, spills and replies from them.
//!
//! The *watermark* trails the maximum observed timestamp by the allowed
//! lateness. A window closes when the watermark passes its end: its cells
//! are flushed, summarized ([`CellSummary`], the form `benchmark/` reads)
//! and handed to the caller.
//! Records addressed at an already-closed window are rejected with the
//! typed [`EdgeperfError::LateRecord`] — never silently dropped.

use crate::record::{check_measurements, LiveRecord};
use crate::store::window_cell;
pub use edgeperf_analysis::CellSummary;
use edgeperf_analysis::{cell_sort_key, FxHashMap, GroupKey, StreamingCell, WindowCell};
use edgeperf_core::EdgeperfError;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One (group, route-rank) cell address within a window.
pub type CellKey = (GroupKey, u8);

/// One window the watermark has passed, ready for detection and queries.
#[derive(Debug, Clone)]
pub struct ClosedWindow {
    /// Window index (`floor(ts / window_ms)`).
    pub index: u32,
    /// Cells in worker insertion order.
    pub cells: Vec<(CellKey, CellSummary)>,
}

/// One closed window as its worker keeps and shares it: its rows in
/// canonical [`cell_sort_key`] order, immutable.
pub type SharedWindow = Arc<[WindowCell]>;

impl ClosedWindow {
    /// The window as its detector and worker keep it, packed once when the
    /// detector observes it: one allocation of 64-byte rows, sorted where
    /// it lies. A window's (group, rank) keys are distinct, so an unstable
    /// sort is the canonical order and allocates nothing more.
    pub fn share(&self) -> SharedWindow {
        let mut rows: SharedWindow =
            self.cells.iter().map(|(k, s)| window_cell(self.index, k, s)).collect();
        Arc::get_mut(&mut rows).expect("not shared yet").sort_unstable_by_key(cell_sort_key);
        rows
    }
}

/// Cells of one still-open window: a dense arena in insertion order,
/// addressed through an index map whose slots hold a key and a `u32`
/// (the layout `StreamingDataset` uses for its groups).
#[derive(Debug, Default)]
struct OpenWindow {
    index: FxHashMap<CellKey, u32>,
    cells: Vec<(CellKey, StreamingCell)>,
}

impl OpenWindow {
    /// Fold `r` into its cell, unless the cell already counts as many
    /// sessions as its row can.
    fn push(&mut self, r: &LiveRecord) -> Result<(), EdgeperfError> {
        let key = (r.group, r.route_rank);
        let slot = *self.index.entry(key).or_insert_with(|| {
            self.cells.push((key, StreamingCell::new(r.relationship)));
            u32::try_from(self.cells.len() - 1).expect("a window holds fewer than 2^32 cells")
        });
        let cell = &mut self.cells[slot as usize].1;
        admit(cell.agg.n())?;
        cell.push(r.min_rtt_ms, r.hdratio, r.bytes, r.longer_path, r.more_prepended);
        Ok(())
    }

    /// Summarise the cells in insertion order, dropping each cell's
    /// digests as soon as its summary is taken.
    fn close(self, index: u32) -> ClosedWindow {
        drop(self.index);
        // Sized for the summaries: collecting in place would keep the
        // arena's allocation, 72 bytes a cell, alive for the whole
        // retention of the closed window. A cell's digests — built here
        // from its sessions if it never reached 512 — live only until its
        // summary is taken.
        let mut cells = Vec::with_capacity(self.cells.len());
        cells.extend(self.cells.into_iter().map(|(key, mut cell)| {
            cell.agg.flush();
            (key, cell.summary())
        }));
        ClosedWindow { index, cells }
    }
}

/// Whether a cell of `sessions` takes one more: a closed cell's row counts
/// its sessions in a `u32`, so the record that would take a cell past
/// `u32::MAX` is refused as [`EdgeperfError::CellOverflow`] rather than
/// counted short.
fn admit(sessions: usize) -> Result<(), EdgeperfError> {
    match u32::try_from(sessions) {
        Ok(n) if n < u32::MAX => Ok(()),
        _ => Err(EdgeperfError::CellOverflow { sessions: sessions as u64 + 1 }),
    }
}

/// Per-worker event-time windowing state; see the module docs.
#[derive(Debug)]
pub struct WindowRing {
    window_ms: f64,
    lateness_ms: f64,
    max_ts_ms: f64,
    /// Windows below this index are closed; records addressed at them are
    /// late. Derived from the watermark by one rule (`floor(wm / window)`)
    /// so the late check and the close sweep can never disagree.
    closed_below: u32,
    open: BTreeMap<u32, OpenWindow>,
}

impl WindowRing {
    /// Empty ring. `window_ms` and `lateness_ms` as in
    /// [`crate::LiveConfig`].
    pub fn new(window_ms: f64, lateness_ms: f64) -> Self {
        WindowRing {
            window_ms,
            lateness_ms,
            max_ts_ms: -1.0,
            closed_below: 0,
            open: BTreeMap::new(),
        }
    }

    /// Current watermark (ms); negative until the first record arrives.
    pub(crate) fn watermark_ms(&self) -> f64 {
        self.max_ts_ms - self.lateness_ms
    }

    /// Number of still-open windows (bounded by lateness / window + 2).
    pub fn open_windows(&self) -> usize {
        self.open.len()
    }

    /// Ingest one record. Returns the windows this record's timestamp
    /// closed (usually none). Records behind the watermark — addressed at
    /// an already-closed window — are rejected as
    /// [`EdgeperfError::LateRecord`]; a bad timestamp or measurement (the
    /// frame decoder's rule: a non-finite or negative MinRTT, a non-finite
    /// HDratio) is rejected before it touches a cell or the watermark, and
    /// so is one its cell has no room to count
    /// ([`EdgeperfError::CellOverflow`]: a cell holds at most `u32::MAX`).
    pub fn push(&mut self, r: &LiveRecord) -> Result<Vec<ClosedWindow>, EdgeperfError> {
        if !r.ts_ms.is_finite() {
            return Err(EdgeperfError::NonFinite { field: "ts_ms".to_string(), value: r.ts_ms });
        }
        if r.ts_ms < 0.0 {
            return Err(EdgeperfError::NegativeTimestamp {
                field: "ts_ms".to_string(),
                value: r.ts_ms,
            });
        }
        check_measurements(r.min_rtt_ms, r.hdratio)?;
        // Window indices live in `u32` (ClosedWindow, the protocol, the
        // offline SessionRecord all agree); a saturating `as` cast here
        // used to collapse every far-future timestamp into window
        // u32::MAX — one never-closing window silently absorbing bad
        // telemetry. Compute in u64 and reject the unrepresentable.
        let index64 = (r.ts_ms / self.window_ms) as u64;
        let Ok(index) = u32::try_from(index64) else {
            return Err(EdgeperfError::WindowOverflow {
                ts_ms: r.ts_ms,
                window_ms: self.window_ms,
            });
        };
        if index < self.closed_below {
            return Err(EdgeperfError::LateRecord {
                ts_ms: r.ts_ms,
                watermark_ms: self.watermark_ms(),
            });
        }
        self.open.entry(index).or_default().push(r)?;
        if r.ts_ms > self.max_ts_ms {
            self.max_ts_ms = r.ts_ms;
            return Ok(self.advance());
        }
        Ok(Vec::new())
    }

    /// Close every window the watermark has passed.
    fn advance(&mut self) -> Vec<ClosedWindow> {
        let wm = self.watermark_ms();
        if wm < 0.0 {
            return Vec::new();
        }
        // The watermark trails max_ts, whose index was proven to fit in
        // `push` — but compute in u64 anyway so a saturate can never
        // silently reappear here if that invariant shifts.
        let boundary = u32::try_from((wm / self.window_ms) as u64).unwrap_or(u32::MAX);
        if boundary <= self.closed_below {
            return Vec::new();
        }
        self.closed_below = boundary;
        let mut closed = Vec::new();
        while let Some(entry) = self.open.first_entry() {
            let index = *entry.key();
            if index >= boundary {
                break;
            }
            closed.push(entry.remove().close(index));
        }
        closed
    }

    /// Drop every open window, keeping the watermark and which windows are
    /// closed: what a dirty worker panic leaves, whose open cells may hold
    /// half a batch. A record for a window closed before is still late, so
    /// no closed window reopens. Returns how many windows were dropped.
    pub(crate) fn discard_open(&mut self) -> usize {
        let dropped = self.open.len();
        self.open.clear();
        dropped
    }

    /// Close every open window regardless of the watermark (drain path).
    pub fn force_close(&mut self) -> Vec<ClosedWindow> {
        let open = std::mem::take(&mut self.open);
        if let Some(&last) = open.keys().next_back() {
            self.closed_below = self.closed_below.max(last.saturating_add(1));
        }
        open.into_iter().map(|(index, w)| w.close(index)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgeperf_routing::{PopId, Prefix, Relationship};

    fn rec(ts_ms: f64, prefix: u32, rank: u8, rtt: f64) -> LiveRecord {
        LiveRecord {
            ts_ms,
            group: GroupKey {
                pop: PopId(1),
                prefix: Prefix::new(prefix << 16, 16),
                country: 1,
                continent: 0,
            },
            route_rank: rank,
            relationship: if rank == 0 { Relationship::PrivatePeer } else { Relationship::Transit },
            longer_path: rank > 0,
            more_prepended: false,
            min_rtt_ms: rtt,
            hdratio: Some((rtt / 100.0).clamp(0.0, 1.0)),
            bytes: 100,
        }
    }

    #[test]
    fn windows_close_when_watermark_passes() {
        // 100 ms windows, 50 ms lateness.
        let mut ring = WindowRing::new(100.0, 50.0);
        assert!(ring.push(&rec(10.0, 1, 0, 40.0)).unwrap().is_empty());
        assert!(ring.push(&rec(90.0, 1, 0, 41.0)).unwrap().is_empty());
        // ts 120: watermark 70, window 0 still open.
        assert!(ring.push(&rec(120.0, 1, 0, 42.0)).unwrap().is_empty());
        assert_eq!(ring.open_windows(), 2);
        // ts 160: watermark 110 passes window 0's end.
        let closed = ring.push(&rec(160.0, 1, 0, 43.0)).unwrap();
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].index, 0);
        assert_eq!(closed[0].cells.len(), 1);
        assert_eq!(closed[0].cells[0].1.n, 2);
    }

    #[test]
    fn late_records_are_typed_rejects() {
        let mut ring = WindowRing::new(100.0, 0.0);
        ring.push(&rec(50.0, 1, 0, 40.0)).unwrap();
        let closed = ring.push(&rec(250.0, 1, 0, 41.0)).unwrap();
        assert_eq!(closed.len(), 1, "window 0 closed");
        let err = ring.push(&rec(60.0, 1, 0, 42.0)).unwrap_err();
        match err {
            EdgeperfError::LateRecord { ts_ms, watermark_ms } => {
                assert_eq!(ts_ms, 60.0);
                assert_eq!(watermark_ms, 250.0);
            }
            other => panic!("expected LateRecord, got {other:?}"),
        }
        assert_eq!(err.reason(), "late");
        // In-window disorder is fine: window 2 is still open, and 230 is
        // behind the 250 maximum but not behind the watermark's windows.
        assert!(ring.push(&rec(230.0, 1, 0, 42.0)).unwrap().is_empty());
    }

    #[test]
    fn bad_timestamps_are_rejected() {
        let mut ring = WindowRing::new(100.0, 0.0);
        assert_eq!(ring.push(&rec(-5.0, 1, 0, 40.0)).unwrap_err().reason(), "negative_timestamp");
        assert_eq!(ring.push(&rec(f64::NAN, 1, 0, 40.0)).unwrap_err().reason(), "non_finite");
    }

    /// A bad measurement a library caller hands the ring is the decoder's
    /// typed reject, not a panic inside a digest, and it leaves no trace:
    /// the ring that refused it closes the cells and windows of one that
    /// never saw it, bit for bit.
    #[test]
    fn bad_measurements_are_typed_rejects_that_touch_no_cell() {
        let mut ring = WindowRing::new(100.0, 50.0);
        let mut clean = WindowRing::new(100.0, 50.0);
        for i in 0..40 {
            let r = rec(i as f64 * 2.0, i % 3, 0, 30.0 + i as f64);
            ring.push(&r).unwrap();
            clean.push(&r).unwrap();
        }
        // Each bad record is far enough ahead to close window 0 if it were
        // taken, and addresses a cell that exists.
        let nan_rtt = LiveRecord { min_rtt_ms: f64::NAN, ..rec(500.0, 1, 0, 0.0) };
        let err = ring.push(&nan_rtt).unwrap_err();
        assert!(matches!(err, EdgeperfError::InvalidMinRtt { value } if value.is_nan()), "{err:?}");
        assert_eq!(err.reason(), "invalid_min_rtt");
        let negative_rtt = rec(500.0, 1, 0, -1.0);
        assert!(matches!(
            ring.push(&negative_rtt).unwrap_err(),
            EdgeperfError::InvalidMinRtt { value } if value == -1.0
        ));
        let nan_hdratio = LiveRecord { hdratio: Some(f64::NAN), ..rec(500.0, 1, 0, 40.0) };
        match ring.push(&nan_hdratio).unwrap_err() {
            EdgeperfError::NonFinite { field, value } => {
                assert_eq!(field, "hdratio");
                assert!(value.is_nan());
            }
            other => panic!("expected NonFinite, got {other:?}"),
        }
        assert_eq!(ring.watermark_ms().to_bits(), clean.watermark_ms().to_bits());
        assert_eq!(ring.open_windows(), 1, "nothing closed");
        let (got, want) = (ring.force_close(), clean.force_close());
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            // `{:?}` of an f64 round-trips it, so equal text is equal bits.
            assert_eq!(format!("{g:?}"), format!("{w:?}"));
        }
    }

    /// A closed cell's row counts its sessions in a `u32`: a cell takes
    /// records up to `u32::MAX` and refuses the next as a typed reject,
    /// never a count that wraps or saturates. (`push` asks this of every
    /// record; 2³² records a cell are out of a test's reach.)
    #[test]
    fn a_cell_takes_u32_max_sessions_and_refuses_the_next() {
        let full = u32::MAX as usize;
        assert_eq!(admit(0), Ok(()));
        assert_eq!(admit(full - 1), Ok(()));
        for sessions in [full, full + 1, usize::MAX / 2] {
            let err = admit(sessions).unwrap_err();
            assert_eq!(err, EdgeperfError::CellOverflow { sessions: sessions as u64 + 1 });
            assert_eq!(err.reason(), "cell_overflow");
        }
    }

    /// The old saturating u32 cast mapped every timestamp past the
    /// u32 window horizon into window u32::MAX — a single never-closing
    /// window silently swallowing far-future telemetry. Indices at the
    /// horizon still work; beyond it the push is a typed reject.
    #[test]
    fn window_indices_beyond_the_u32_horizon_are_typed_rejects() {
        let window_ms = 100.0;
        let mut ring = WindowRing::new(window_ms, 0.0);
        // Highest representable window index: still accepted.
        let horizon_ts = u32::MAX as f64 * window_ms;
        assert!(ring.push(&rec(horizon_ts, 1, 0, 40.0)).is_ok());
        // One window past the horizon: rejected, never saturated.
        let over_ts = (u32::MAX as f64 + 1.0) * window_ms;
        let err = ring.push(&rec(over_ts, 1, 0, 41.0)).unwrap_err();
        match err {
            EdgeperfError::WindowOverflow { ts_ms, window_ms: w } => {
                assert_eq!(ts_ms, over_ts);
                assert_eq!(w, window_ms);
            }
            other => panic!("expected WindowOverflow, got {other:?}"),
        }
        assert_eq!(err.reason(), "window_overflow");
        // Far-future garbage (the motivating case: corrupt epoch units).
        assert_eq!(ring.push(&rec(1.0e18, 1, 0, 42.0)).unwrap_err().reason(), "window_overflow");
        // The ring still closes and drains normally afterwards.
        let closed = ring.force_close();
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].index, u32::MAX);
        assert_eq!(ring.open_windows(), 0);
    }

    #[test]
    fn cells_are_bit_identical_to_direct_aggregation() {
        let mut ring = WindowRing::new(100.0, 0.0);
        let mut direct = StreamingCell::new(Relationship::PrivatePeer);
        for i in 0..500 {
            let r = rec(i as f64 * 0.1, 7, 0, 30.0 + (i % 41) as f64 * 0.7);
            direct.push(r.min_rtt_ms, r.hdratio, r.bytes, r.longer_path, r.more_prepended);
            ring.push(&r).unwrap();
        }
        direct.agg.flush();
        let closed = ring.force_close();
        assert_eq!(closed.len(), 1);
        let (_, summary) = &closed[0].cells[0];
        let expected = direct.summary();
        assert_eq!(summary.n, expected.n);
        assert_eq!(summary.min_rtt_p50.to_bits(), expected.min_rtt_p50.to_bits());
        assert_eq!(summary.min_rtt_var.unwrap().to_bits(), expected.min_rtt_var.unwrap().to_bits());
        assert_eq!(summary.hdratio_p50.unwrap().to_bits(), expected.hdratio_p50.unwrap().to_bits());
    }

    #[test]
    fn force_close_empties_the_ring_and_marks_windows_closed() {
        let mut ring = WindowRing::new(100.0, 1_000.0);
        ring.push(&rec(10.0, 1, 0, 40.0)).unwrap();
        ring.push(&rec(310.0, 2, 1, 50.0)).unwrap();
        let closed = ring.force_close();
        assert_eq!(closed.len(), 2);
        assert_eq!(ring.open_windows(), 0);
        assert_eq!(ring.push(&rec(10.0, 1, 0, 40.0)).unwrap_err().reason(), "late");
    }

    #[test]
    fn ten_thousand_cells_close_in_insertion_order_with_counts_intact() {
        let mut ring = WindowRing::new(1_000.0, 0.0);
        // Cell i gets 1 + i % 3 records, spread over three passes so later
        // records find their cell through the index, not at the arena's end.
        let key_of = |i: u32| (5_000 + i * 7) % 10_000;
        for pass in 0..3 {
            for i in (0..10_000u32).filter(|i| i % 3 >= pass) {
                ring.push(&rec(1.0, key_of(i) >> 1, (key_of(i) & 1) as u8, 40.0)).unwrap();
            }
        }
        let closed = ring.force_close();
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].cells.len(), 10_000);
        for (i, ((group, rank), summary)) in (0..10_000u32).zip(&closed[0].cells) {
            let key = key_of(i);
            assert_eq!((group.prefix.base >> 16, *rank), (key >> 1, (key & 1) as u8), "slot {i}");
            assert_eq!(summary.n as u64, 1 + u64::from(i % 3), "slot {i}");
        }
    }

    #[test]
    fn force_close_after_a_ring_rebuild_leaves_no_cell_behind() {
        // A dirty worker panic abandons the ring's open windows mid-window
        // (`server::worker::recover`): the ring must then hand out every
        // cell pushed after the discard, and nothing from before it.
        let mut ring = WindowRing::new(100.0, 1_000.0);
        for i in 0..500 {
            ring.push(&rec(i as f64, i % 50, 0, 40.0)).unwrap();
        }
        assert_eq!(ring.open_windows(), 5);
        assert_eq!(ring.discard_open(), 5);
        assert_eq!(ring.open_windows(), 0);
        for i in 0..300u32 {
            ring.push(&rec(200.0 + i as f64, 100 + i % 30, (i % 2) as u8, 40.0)).unwrap();
        }
        let closed = ring.force_close();
        assert_eq!(closed.iter().map(|w| w.index).collect::<Vec<_>>(), [2, 3, 4]);
        let cells = closed.iter().flat_map(|w| &w.cells);
        assert_eq!(cells.clone().count(), 3 * 30);
        assert_eq!(cells.clone().map(|(_, s)| s.n).sum::<usize>(), 300);
        assert!(cells.clone().all(|((group, _), _)| group.prefix.base >> 16 >= 100));
        assert_eq!(ring.open_windows(), 0);
        assert!(ring.force_close().is_empty(), "nothing left to close");
    }

    #[test]
    fn open_window_count_is_bounded_by_lateness() {
        let mut ring = WindowRing::new(100.0, 250.0);
        for i in 0..10_000 {
            ring.push(&rec(i as f64 * 10.0, 1, 0, 40.0)).unwrap();
            assert!(ring.open_windows() <= 5, "{} open at i={i}", ring.open_windows());
        }
    }
}
