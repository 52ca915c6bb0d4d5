//! Footprint gate for the tiered store: a historical query and a
//! compaction hold row groups, not segments. On eight 25,000-row
//! segments (1.6 MB each on disk, 1.6 MB decoded at 64 B a row) a point
//! query over every window holds room for a row group's matches and for
//! the matches it keeps a segment, and one pair of read buffers, and
//! peaks below 1 MB of live heap; a merge of all
//! eight peaks below 2 MB; reading a segment whole — `fs::read` plus
//! `decode_segment` is 3.4 MB for one, `rows.extend(..)` over eight 15–30
//! MB — fails here. Heap bytes are counted exactly by the counting global
//! allocator the analysis crate's footprint test uses, hence one
//! `#[test]`.

#[path = "../../analysis/tests/counting/mod.rs"]
mod counting;

use counting::{count_this_thread, peak_above};
use edgeperf_analysis::{GroupKey, GROUP_ROWS};
use edgeperf_live::{CellKey, CellQuery, CellSummary, CellsReply, GroupFilter, SegmentStore};
use edgeperf_routing::{PopId, Prefix, Relationship};

const SEGMENTS: u32 = 8;
const ROWS: u32 = 25_000;

/// Window `window`'s cells: `ROWS` groups over 8 pops.
fn window(window: u32) -> Vec<(CellKey, CellSummary)> {
    (0..ROWS)
        .map(|g| {
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
                min_rtt_p50: 20.0 + f64::from(g % 700) * 0.1 + f64::from(window),
                min_rtt_var: Some(0.04),
                hdratio_p50: (g % 3 != 0).then_some(0.9),
                hdratio_var: (g % 3 != 0).then_some(1e-4),
                relationship: Relationship::Transit,
                longer_path: false,
                more_prepended: g % 2 == 0,
            };
            ((group, 0), summary)
        })
        .collect()
}

#[test]
fn queries_and_compaction_hold_row_groups_not_segments() {
    count_this_thread();
    let dir = std::env::temp_dir().join(format!("edgeperf-store-footprint-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = SegmentStore::open(&dir, SEGMENTS as usize, SEGMENTS as usize, 3).expect("opens");
    for w in 0..SEGMENTS {
        store.spill_window(w, &window(w)).expect("spills");
    }
    assert_eq!(store.stats().segments, u64::from(SEGMENTS));

    let g = 12_345u32;
    let group =
        GroupFilter { pop: Some((g % 8) as u16), prefix: Some((g << 8, 24)), ..Default::default() };
    let point = CellQuery { group, ..CellQuery::default() };
    for merged in [false, true] {
        let segments = if merged { 1 } else { SEGMENTS as usize };
        let (reply, held, transient) = peak_above(|| {
            let stored = store.query(&point).expect("queries");
            CellsReply::canonical(&[], stored, &point).expect("reads")
        });
        assert_eq!(reply.rows(), SEGMENTS as usize, "one cell a window");
        // A segment's cursor holds room for one group's matches and for
        // the matches it keeps, a group's worth each; the read buffers —
        // a group's encoding (under 72 B a row) and its rows decoded —
        // are one for all of them; then the cursors themselves and the
        // merge's heads.
        let group = 72 * GROUP_ROWS;
        assert!(
            held <= (segments + 1) * 2 * group + 4_096,
            "a point query over {segments} segments holds {held} B after counting"
        );
        assert!(
            held + transient < 1 << 20,
            "a point query (merged: {merged}) peaked {transient} B above the {held} B it holds"
        );
        reply.write(&mut std::io::sink()).expect("a sink takes everything");
        if !merged {
            let (did, held, transient) = peak_above(|| store.compact_once().expect("compacts"));
            assert!(did, "eight segments meet the threshold");
            assert!(
                held + transient < 2 << 20,
                "merging eight segments peaked {transient} B above the {held} B index it leaves"
            );
            assert_eq!(store.stats().segments, 1);
        }
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
