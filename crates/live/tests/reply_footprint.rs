//! Footprint gate for `cells` replies: a reply is merged and written from
//! the windows the workers share and the store's segments, not built or
//! sorted. A retained window of 8,192 cells is one allocation of 64 B a
//! cell. Merging and writing the `recent_4w` read at the wide shape —
//! 32,768 rows from four such windows, 10.6 MB on the wire — peaks below
//! 256 KiB of live heap (one 64 KiB buffer and a heap of one head a
//! window) in at most two allocator requests, as many as a 256-row reply
//! makes. The same 32,768 rows spilled as four segments and read back as
//! a range answer peak below 512 KiB — a head, a row group's matches and
//! a kept block a segment, one pair of read buffers and the write buffer —
//! in as many
//! requests as a 256-row answer from the same four segments makes. A sort
//! index (24 B a row, 786 KB here), the store's matches collected in one
//! vector (64 B a row, 2.1 MB), a `Vec<CellLine>` (a `String` a row), a
//! `Value` tree a row or the reply as one `String` fails here. Heap is
//! counted exactly by the counting global allocator the analysis crate's
//! footprint test uses, hence one `#[test]`.

#[path = "../../analysis/tests/counting/mod.rs"]
mod counting;

use counting::{count_this_thread, heap_of, peak_above, requests};
use edgeperf_analysis::GroupKey;
use edgeperf_live::{
    CellQuery, CellSummary, CellsReply, ClosedWindow, Cursors, SegmentStore, SharedWindow,
};
use edgeperf_routing::{PopId, Prefix, Relationship};

const WINDOWS: u32 = 4;

/// Window `window` as it closes: `rows` cells in an order no sort would
/// leave them in.
fn closed(window: u32, rows: u32) -> ClosedWindow {
    let cells = (0..rows).map(|i| {
        let g = i.wrapping_mul(2_654_435_761).wrapping_add(window) % rows;
        let group = GroupKey {
            pop: PopId(u16::try_from(g % 8).expect("small")),
            prefix: Prefix::new(g << 8, 24),
            country: u16::try_from(g % 40).expect("small"),
            continent: 2,
        };
        let summary = CellSummary {
            n: 30 + g as usize % 50,
            n_tested: 30,
            bytes: u64::from(g) * 1_009,
            min_rtt_p50: 20.0 + f64::from(g % 700) * 0.137 + f64::from(window),
            min_rtt_var: Some(0.04 + f64::from(g) * 1e-7),
            hdratio_p50: (!g.is_multiple_of(3)).then_some(0.9 - f64::from(g % 11) * 0.013),
            hdratio_var: (!g.is_multiple_of(3)).then_some(1e-4),
            relationship: Relationship::Transit,
            longer_path: false,
            more_prepended: g.is_multiple_of(2),
        };
        ((group, u8::from(i % 2 == 1)), summary)
    });
    ClosedWindow { index: window, cells: cells.collect() }
}

/// Merge and write the rows of `windows` and `store` in windows 0–3
/// into a sink, as the server does between the workers' and the store's
/// answers and the socket: bytes written, heap peak, allocator requests.
fn reply(windows: &[SharedWindow], store: Option<&SegmentStore>) -> (u64, usize, usize) {
    let range =
        CellQuery { from_window: Some(0), until_window: Some(WINDOWS - 1), ..CellQuery::default() };
    let ((bytes, held, transient), asked) = requests(|| {
        peak_above(|| {
            let stored = store.map_or(Cursors::default(), |s| s.query(&range).expect("queries"));
            CellsReply::canonical(windows, stored, &range)
                .expect("reads")
                .write(&mut std::io::sink())
                .expect("a sink takes everything")
        })
    });
    (bytes, held + transient, asked)
}

/// A store holding `rows` cells of each of windows 0–3, a segment each.
fn spilled(tag: &str, rows: u32) -> SegmentStore {
    let dir =
        std::env::temp_dir().join(format!("edgeperf-reply-footprint-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = SegmentStore::open(&dir, 16, 8, 3).expect("opens");
    for w in 0..WINDOWS {
        store.spill_window(w, &closed(w, rows).cells).expect("spills");
    }
    store
}

#[test]
fn a_reply_holds_a_buffer_and_a_head_a_window_not_its_rows() {
    count_this_thread();
    let wide: Vec<SharedWindow> = (0..WINDOWS)
        .map(|w| {
            let closed = closed(w, 8_192);
            let (shared, heap) = heap_of(|| closed.share());
            let arc_counts = 2 * std::mem::size_of::<usize>();
            assert_eq!(heap, 64 * 8_192 + arc_counts, "a retained window is 64 B a cell");
            shared
        })
        .collect();
    let small: Vec<SharedWindow> = (0..WINDOWS).map(|w| closed(w, 64).share()).collect();
    let (bytes, peak, asked) = reply(&wide, None);
    assert!(bytes > 9 << 20, "32,768 rows are ~10 MB of JSON, wrote {bytes} B");
    assert!(peak < 256 << 10, "writing {bytes} B of reply peaked at {peak} B of heap");
    let (small_bytes, _, small_asked) = reply(&small, None);
    assert!(small_bytes < bytes / 100);
    assert_eq!(asked, small_asked, "allocator requests must not grow with the row count");
    assert!(asked <= 2, "a buffer and the merge's heads, {asked} requests");

    // The store half: the same rows, spilled, answer a range query.
    let (wide, small) = (spilled("wide", 8_192), spilled("small", 64));
    let (stored_bytes, peak, asked) = reply(&[], Some(&wide));
    assert_eq!(stored_bytes, bytes, "a spilled row is written as its RAM copy was");
    assert!(peak < 512 << 10, "writing {bytes} B of stored reply peaked at {peak} B of heap");
    let (small_stored_bytes, _, small_asked) = reply(&[], Some(&small));
    assert_eq!(small_stored_bytes, small_bytes);
    assert_eq!(asked, small_asked, "allocator requests must not grow with the row count");
    for store in [wide, small] {
        std::fs::remove_dir_all(store.dir()).expect("cleanup");
    }
}
