//! Footprint gate for the open windows: a worker's [`WindowRing`] holds an
//! open cell as a 72-byte arena entry, a slot of its window's index and
//! the sessions the cell has seen, not as a pair of empty t-digests. One
//! wide-shaped window (4,096 groups, ~28 preferred-route and ~3
//! alternate-route sessions a group) goes in, then the next window's
//! first 60 s, while the 60 s lateness keeps the first window open. The
//! ring then holds under 450 B an open cell, where a 280-byte entry with
//! two eager digests (two 256 B first buffers) held ~900. Heap bytes are
//! counted exactly by the analysis crate's counting allocator, hence one
//! `#[test]`.

#[path = "../../analysis/tests/counting/mod.rs"]
mod counting;

use counting::{count_this_thread, heap_of};
use edgeperf_analysis::GroupKey;
use edgeperf_live::{LiveRecord, WindowRing};
use edgeperf_routing::{PopId, Prefix, Relationship};
use std::collections::HashSet;

const GROUPS: u64 = 4_096;
const PER_WINDOW: u64 = 125_000;
const WINDOW_MS: f64 = 900_000.0;
const LATENESS_MS: f64 = 60_000.0;

/// Record `i` of the stream: window `i / PER_WINDOW`, timestamps spread
/// evenly over it, every group in turn, one record in 11 on the
/// alternate route and one in 5 untested.
fn record(i: u64) -> LiveRecord {
    let (window, j) = (i / PER_WINDOW, i % PER_WINDOW);
    // An odd multiplier visits every group once in each run of 4,096.
    let g = j * 2_654_435_761 % GROUPS;
    let rank = u8::from(j.is_multiple_of(11));
    let u = (i as f64 * 0.618_033_988_749).fract();
    LiveRecord {
        ts_ms: window as f64 * WINDOW_MS + j as f64 * (WINDOW_MS / PER_WINDOW as f64),
        group: GroupKey {
            pop: PopId(u16::try_from(g % 8).expect("small")),
            prefix: Prefix::new(u32::try_from(g << 8).expect("small"), 24),
            country: u16::try_from(g % 40).expect("small"),
            continent: 2,
        },
        route_rank: rank,
        relationship: if rank == 0 { Relationship::PrivatePeer } else { Relationship::Transit },
        longer_path: rank == 1,
        more_prepended: false,
        min_rtt_ms: 20.0 + 80.0 * u,
        hdratio: (!j.is_multiple_of(5)).then_some(u),
        bytes: 10_000,
    }
}

#[test]
fn an_open_cell_holds_its_sessions_not_two_digests() {
    // A window and the first 60 s of the next: the watermark stays short of
    // the first window's end.
    let records = PER_WINDOW + PER_WINDOW / 15;
    let open_cells = (0..records)
        .map(|i| {
            let r = record(i);
            (i / PER_WINDOW, r.group, r.route_rank)
        })
        .collect::<HashSet<_>>()
        .len();
    count_this_thread();
    let (ring, bytes) = heap_of(|| {
        let mut ring = WindowRing::new(WINDOW_MS, LATENESS_MS);
        for i in 0..records {
            assert!(ring.push(&record(i)).expect("valid").is_empty(), "record {i} closed a window");
        }
        ring
    });
    assert_eq!(ring.open_windows(), 2);
    assert!(open_cells > 12_000, "{open_cells} open cells");
    let per_cell = bytes / open_cells;
    assert!(per_cell < 450, "{open_cells} open cells hold {bytes} B, {per_cell} B a cell");
}
