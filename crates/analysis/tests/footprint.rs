//! Footprint gate: a cell costs what it holds, and the exact sink holds
//! every session once. Heap bytes are counted exactly by a counting
//! global allocator, which is why this is a test binary of its own with a
//! single `#[test]` (parallel tests would share the counter); only that
//! test's thread is counted.

use edgeperf_analysis::sink::{RecordShard, RecordSink};
use edgeperf_analysis::{
    ColumnarSink, GroupKey, SessionRecord, StreamingAggregation, StreamingDataset,
};
use edgeperf_routing::{PopId, Prefix, Relationship};
use edgeperf_stats::TDigest;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Bytes the test thread has allocated and not freed. Relaxed: a
/// statistic, publishes nothing.
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);

/// High-water mark of [`LIVE_BYTES`] since [`peak_above`] last reset it.
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set on the test's own thread: the harness's main thread allocates
    /// while the test runs, and must not be counted.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

fn counted() -> bool {
    COUNTED.try_with(Cell::get).unwrap_or(false)
}

fn grew(by: usize) {
    if counted() {
        let live = LIVE_BYTES.fetch_add(by, Ordering::Relaxed) + by;
        PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
    }
}

fn shrank(by: usize) {
    if counted() {
        LIVE_BYTES.fetch_sub(by, Ordering::Relaxed);
    }
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator
// state, and the thread-local they read has no destructor and so never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller guarantees `layout` has non-zero size.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        shrank(layout.size());
        grew(new_size);
        // SAFETY: as for `dealloc`; the caller guarantees `new_size` > 0.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Heap bytes `build`'s value holds once built.
fn heap_of<T>(build: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    let value = build();
    (value, LIVE_BYTES.load(Ordering::Relaxed).saturating_sub(before))
}

/// `run`'s value, the heap it holds, and how far above that the heap
/// peaked while `run` ran.
fn peak_above<T>(run: impl FnOnce() -> T) -> (T, usize, usize) {
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(before, Ordering::Relaxed);
    let value = run();
    let held = LIVE_BYTES.load(Ordering::Relaxed).saturating_sub(before);
    (value, held, PEAK_BYTES.load(Ordering::Relaxed) - before - held)
}

fn open_cell(samples: usize) -> StreamingAggregation {
    let mut cell = StreamingAggregation::new();
    for i in 0..samples {
        let u = (i as f64 * 0.618_033_988_749).fract();
        cell.push(20.0 + 80.0 * u, Some(u), 1_000);
    }
    cell
}

/// Session `i` of cell `cell`: eight cells (2 ranks × 4 windows) a group.
fn session(cell: u32, i: usize) -> SessionRecord {
    let (prefix, rank, window) = (cell / 8, (cell / 4 % 2) as u8, cell % 4);
    let u = ((i as u32 * 8_191 + cell) as f64 * 0.618_033_988_749).fract();
    SessionRecord {
        group: GroupKey {
            pop: PopId(1),
            prefix: Prefix::new(prefix << 8, 24),
            country: 1,
            continent: 0,
        },
        window,
        route_rank: rank,
        relationship: Relationship::Transit,
        longer_path: false,
        more_prepended: false,
        min_rtt_ms: 20.0 + 80.0 * u,
        hdratio: Some(u),
        bytes: 1_000,
    }
}

/// `per_cell` sessions in each of `groups` × 2 ranks × 4 windows cells,
/// finalized.
fn finalized_dataset(groups: u32, per_cell: usize) -> StreamingDataset {
    let mut sink = StreamingDataset::new(4);
    let mut shard = sink.new_shard();
    for i in 0..per_cell {
        for cell in 0..groups * 8 {
            shard.push(session(cell, i));
        }
    }
    sink.merge_shard(shard);
    sink.finalize();
    sink
}

/// Two merged shards, of `groups[0]` and `groups[1]` groups, `per_cell`
/// sessions in each cell.
fn columnar_sink(groups: [u32; 2], per_cell: usize) -> ColumnarSink {
    let mut sink = ColumnarSink::new(4);
    for cells in [0..groups[0] * 8, groups[0] * 8..(groups[0] + groups[1]) * 8] {
        let mut shard = sink.new_shard();
        for i in 0..per_cell {
            cells.clone().for_each(|cell| shard.push(session(cell, i)));
        }
        sink.merge_shard(shard);
    }
    sink
}

/// Heap of an open cell holding 100,000 samples at the commit whose
/// digests were born with a 512 × 16 B insert buffer.
const PARENT_100K_CELL_BYTES: usize = 25_504;

#[test]
fn cells_cost_what_they_hold() {
    COUNTED.set(true);
    // Empty digests own no heap at all.
    let (_digest, bytes) = heap_of(|| TDigest::new(100.0));
    assert_eq!(bytes, 0, "TDigest::new allocated");
    let parts = TDigest::new(100.0).to_parts();
    let (_digest, bytes) = heap_of(|| TDigest::from_parts(parts));
    assert_eq!(bytes, 0, "TDigest::from_parts(empty) allocated");

    // The paper's minimum-sample cell (30 sessions, both metrics).
    let (_cell, bytes) = heap_of(|| open_cell(30));
    assert!(bytes <= 600, "an open 30-sample cell holds {bytes} B");

    // A hot cell costs no more than it did with eager buffers.
    let (_cell, bytes) = heap_of(|| open_cell(100_000));
    assert!(
        bytes <= PARENT_100K_CELL_BYTES,
        "an open 100,000-sample cell holds {bytes} B, parent {PARENT_100K_CELL_BYTES} B"
    );

    // A finalized dataset holds centroids only. Its digest heap is its
    // heap minus that of the same layout with one session per cell, whose
    // digests are one exactly-sized centroid each.
    let (skeleton, skeleton_bytes) = heap_of(|| finalized_dataset(64, 1));
    let layout_bytes = skeleton_bytes - 16 * skeleton.state_centroids();
    for per_cell in [30, 80, 600] {
        let (dataset, bytes) = heap_of(|| finalized_dataset(64, per_cell));
        let (digest_bytes, centroids) = (bytes - layout_bytes, dataset.state_centroids());
        assert!(
            2 * digest_bytes <= 3 * 16 * centroids,
            "{per_cell} per cell: {digest_bytes} B of digest heap for {centroids} centroids"
        );
    }

    // The exact sink holds every session once: a 20 B row, beside cell and
    // group tables the same layout has with one session per cell.
    let groups = [64, 192];
    let cells = (groups[0] + groups[1]) as usize * 8;
    let (_skeleton, skeleton_bytes) = heap_of(|| columnar_sink(groups, 1));
    let table_bytes = skeleton_bytes - 20 * cells;
    let per_cell = 40;
    let (sink, bytes) = heap_of(|| columnar_sink(groups, per_cell));
    let rows = sink.stats().records as usize;
    assert_eq!(rows, cells * per_cell);
    assert!(
        bytes <= 20 * rows + table_bytes,
        "{rows} rows in {bytes} B beside {table_bytes} B of tables"
    );

    // Summarising it keeps one shard's one metric in a flat column at a
    // time (8 B a row of the largest shard) beside that shard's per-cell
    // offsets and MinRTT statistics (32 B a cell) and the grid's group
    // index (under 64 B a group) — never a second copy of the study.
    let (summaries, held, transient) = peak_above(|| sink.summarize());
    assert_eq!(summaries.groups.len(), (groups[0] + groups[1]) as usize);
    let largest_cells = groups[1] as usize * 8;
    assert!(
        transient
            <= 8 * largest_cells * per_cell + 32 * largest_cells + 64 * summaries.groups.len(),
        "summarize peaked {transient} B above the sink and the {held} B it returns"
    );
}
