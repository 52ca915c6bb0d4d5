//! Footprint gate: a cell costs what it holds. Heap bytes are counted
//! exactly by a counting global allocator, which is why this is a test
//! binary of its own with a single `#[test]` (parallel tests would share
//! the counter).

use edgeperf_analysis::sink::{RecordShard, RecordSink};
use edgeperf_analysis::{GroupKey, SessionRecord, StreamingAggregation, StreamingDataset};
use edgeperf_routing::{PopId, Prefix, Relationship};
use edgeperf_stats::TDigest;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Bytes currently allocated. Relaxed: a statistic, publishes nothing.
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator
// state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller guarantees `layout` has non-zero size.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(new_size, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
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

fn open_cell(samples: usize) -> StreamingAggregation {
    let mut cell = StreamingAggregation::new();
    for i in 0..samples {
        let u = (i as f64 * 0.618_033_988_749).fract();
        cell.push(20.0 + 80.0 * u, Some(u), 1_000);
    }
    cell
}

/// `per_cell` sessions in each of `groups` × 2 ranks × 4 windows cells,
/// finalized.
fn finalized_dataset(groups: u32, per_cell: usize) -> StreamingDataset {
    let mut sink = StreamingDataset::new(4);
    let mut shard = sink.new_shard();
    for i in 0..per_cell {
        for cell in 0..groups * 8 {
            let (prefix, rank, window) = (cell / 8, (cell / 4 % 2) as u8, cell % 4);
            let u = ((i as u32 * 8_191 + cell) as f64 * 0.618_033_988_749).fract();
            shard.push(SessionRecord {
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
            });
        }
    }
    sink.merge_shard(shard);
    sink.finalize();
    sink
}

/// Heap of an open cell holding 100,000 samples at the commit whose
/// digests were born with a 512 × 16 B insert buffer.
const PARENT_100K_CELL_BYTES: usize = 25_504;

#[test]
fn cells_cost_what_they_hold() {
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
}
