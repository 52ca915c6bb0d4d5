//! Footprint gate for `cells` replies: a reply is written from
//! the windows the workers share, not built. Ordering and writing the
//! `recent_4w` read at the wide shape — 32,768 rows from four shared
//! 8,192-row windows, 10.6 MB on the wire — peaks below 2 MB of live heap
//! (the 24-byte-a-row sort index and one 64 KiB buffer) and asks the
//! allocator for memory as often as a 256-row reply does. A
//! `Vec<CellLine>` (a `String` a row), a `Value` tree a row or the reply
//! as one `String` — the path this replaced held the rows four times
//! over, ~20 MB — fails here. Heap is counted exactly by the counting
//! global allocator the analysis crate's footprint test uses, hence one
//! `#[test]`.

#[path = "../../analysis/tests/counting/mod.rs"]
mod counting;

use counting::{count_this_thread, peak_above, requests};
use edgeperf_analysis::GroupKey;
use edgeperf_live::{CellQuery, CellSummary, CellsReply, SharedWindow};
use edgeperf_routing::{PopId, Prefix, Relationship};

const WINDOWS: u32 = 4;

/// Window `window`: `rows` cells in an order no sort would leave them in.
fn window(window: u32, rows: u32) -> SharedWindow {
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
    (window, cells.collect())
}

/// Order and write the four newest windows into a sink, as the server
/// does between the workers' answer and the socket: bytes written, heap
/// peak, allocator requests.
fn reply(windows: &[SharedWindow]) -> (u64, usize, usize) {
    let recent = CellQuery { from_window: Some(0), ..CellQuery::default() };
    let ((bytes, held, transient), asked) = requests(|| {
        peak_above(|| {
            CellsReply::canonical(windows, &[], &recent)
                .write(&mut std::io::sink())
                .expect("a sink takes everything")
        })
    });
    (bytes, held + transient, asked)
}

#[test]
fn a_reply_holds_an_index_and_a_buffer_not_its_rows() {
    count_this_thread();
    let wide: Vec<SharedWindow> = (0..WINDOWS).map(|w| window(w, 8_192)).collect();
    let small: Vec<SharedWindow> = (0..WINDOWS).map(|w| window(w, 64)).collect();
    let (bytes, peak, asked) = reply(&wide);
    assert!(bytes > 9 << 20, "32,768 rows are ~10 MB of JSON, wrote {bytes} B");
    assert!(peak < 2 << 20, "writing {bytes} B of reply peaked at {peak} B of heap");
    let (small_bytes, _, small_asked) = reply(&small);
    assert!(small_bytes < bytes / 100);
    assert_eq!(asked, small_asked, "allocator requests must not grow with the row count");
    assert!(asked <= 4, "an index and a buffer, {asked} requests");
}
