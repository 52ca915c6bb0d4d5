//! Footprint gate: a cell costs what it holds, and the exact sink holds
//! every session once. Heap bytes are counted exactly by the counting
//! global allocator in `counting/`, which is why this is a test binary of
//! its own with a single `#[test]`.

mod counting;

use counting::{count_this_thread, heap_of, peak_above};
use edgeperf_analysis::sink::{RecordShard, RecordSink};
use edgeperf_analysis::{
    ColumnarSink, GroupKey, SessionRecord, StreamingAggregation, StreamingDataset,
};
use edgeperf_routing::{PopId, Prefix, Relationship};
use edgeperf_stats::TDigest;
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
    count_this_thread();
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
