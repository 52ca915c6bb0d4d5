//! Footprint gate for the online detector: it keeps no summaries of its
//! own. Its baseline history is the packed windows its worker retains
//! anyway, so beside those rows it holds a map entry a group and a status
//! pair a group a retained window. 4,096 wide-shaped groups (a preferred
//! and an alternate route each) go through 24 windows at `--retention 8`,
//! then again at 16. Beside the rows the detector holds at most 300 B a
//! group, where a per-group deque of 88-byte summaries held ~1,040, and a
//! further retained window costs a group at most 2 B, where it cost a
//! summary. Heap bytes are counted exactly by the analysis crate's
//! counting allocator, hence one `#[test]`.

#[path = "../../analysis/tests/counting/mod.rs"]
mod counting;

use counting::{count_this_thread, heap_of};
use edgeperf_analysis::{AnalysisConfig, CellSummary, GroupKey, WindowCell};
use edgeperf_live::{ClosedWindow, OnlineDetector, SharedWindow};
use edgeperf_routing::{PopId, Prefix, Relationship};
use std::collections::VecDeque;
use std::mem::size_of;
use std::sync::Arc;

const GROUPS: u16 = 4_096;
const WINDOWS: u16 = 24;

/// A cell of `n` sessions, four in five tested, around `rtt` and `hd`.
fn summary(n: usize, rtt: f64, hd: f64, rank: u8) -> CellSummary {
    CellSummary {
        n,
        n_tested: n * 4 / 5,
        bytes: 10_000 * n as u64,
        min_rtt_p50: rtt,
        min_rtt_var: Some(16.0 / n as f64),
        hdratio_p50: Some(hd),
        hdratio_var: Some(0.01 / n as f64),
        relationship: if rank == 0 { Relationship::PrivatePeer } else { Relationship::Transit },
        longer_path: rank == 1,
        more_prepended: false,
    }
}

/// Window `w`: every group's ~28-session preferred route and ~3-session
/// alternate, in insertion order, medians moving from window to window so
/// that baselines are real comparisons.
fn window(w: u16) -> ClosedWindow {
    let cells = (0..GROUPS)
        .flat_map(|g| {
            let group = GroupKey {
                pop: PopId(g % 8),
                prefix: Prefix::new(u32::from(g) << 8, 24),
                country: g % 40,
                continent: 2,
            };
            let rtt = 20.0 + f64::from(g % 80) + f64::from((w * 7 + g) % 11);
            let hd = 0.5 + f64::from((w + g) % 9) * 0.05;
            [((group, 0), summary(28, rtt, hd, 0)), ((group, 1), summary(3, rtt + 9.0, hd, 1))]
        })
        .collect();
    ClosedWindow { index: u32::from(w), cells }
}

/// The detector's heap after `WINDOWS` windows at `retention`, less the
/// rows its worker would retain anyway: the last `retention` windows the
/// detector handed back, kept here as a worker keeps them.
fn beside_the_rows(retention: usize) -> usize {
    let mut closed: VecDeque<SharedWindow> = VecDeque::with_capacity(retention + 1);
    let (detector, bytes) = heap_of(|| {
        let mut detector = OnlineDetector::new(AnalysisConfig::default(), 5.0, 0.05, retention);
        for w in 0..WINDOWS {
            let (rows, _) = detector.observe(&window(w));
            closed.push_back(rows);
            if closed.len() > retention {
                closed.pop_front();
            }
        }
        detector
    });
    assert_eq!(closed.len(), retention);
    assert!(closed.iter().all(|rows| Arc::strong_count(rows) == 2), "one copy, two owners");
    // An `Arc<[T]>` is one allocation: two counts, then the rows.
    let rows: usize = closed
        .iter()
        .map(|rows| 2 * size_of::<usize>() + size_of::<WindowCell>() * rows.len())
        .sum();
    drop(detector);
    bytes.checked_sub(rows).expect("the rows are part of what was counted")
}

#[test]
fn the_detector_keeps_no_rows_of_its_own() {
    count_this_thread();
    let groups = usize::from(GROUPS);
    let at_8 = beside_the_rows(8);
    let at_16 = beside_the_rows(16);
    let per_group = at_8 / groups;
    assert!(per_group <= 300, "{at_8} B beside the rows at retention 8, {per_group} B a group");
    // Per-detector costs of a retained window (a pointer, a cursor, a
    // scratch summary) round away; a group's costs do not.
    let per_window = at_16.saturating_sub(at_8) / (groups * 8);
    assert!(
        per_window <= 2,
        "{at_8} → {at_16} B from retention 8 to 16: {per_window} B a group a window"
    );
}
