//! The proof kit: what "bit-identical" is compared against, and how.
//!
//! The live tier's correctness claim is that the cells it serves are,
//! bit for bit, the cells of **one serial [`WindowRing`] pass** over the
//! same records — at any worker count, on either wire, through spill,
//! chaos and fleet failover. [`serial_cells`] is that pass and
//! [`first_difference`] that comparison; the third piece of the kit,
//! [`crate::LiveClient::wait_processed`], is the settle-wait before a
//! query. Every suite and `loadgen` mode that claims bit-identity calls
//! these, so the reference is a stated one — not a second run of the
//! server code under test, which a bug shared by both runs would pass.

use crate::protocol::{cell_line_sort_key, CellLine};
use crate::record::LiveRecord;
use crate::window::WindowRing;
use edgeperf_core::EdgeperfError;

/// The oracle: `records`, in order, through one [`WindowRing`] of this
/// geometry; the cells of every window the watermark closes, in
/// canonical (window, group, rank) order. The newest windows, which only
/// a drain would close, are not in it — a live server has not closed
/// them either. A record the ring rejects (late, bad timestamp) is the
/// caller's error: an oracle over a replay that is not clean proves
/// nothing.
pub fn serial_cells(
    records: &[LiveRecord],
    window_ms: f64,
    lateness_ms: f64,
) -> Result<Vec<CellLine>, EdgeperfError> {
    let mut ring = WindowRing::new(window_ms, lateness_ms);
    let mut cells = Vec::new();
    for record in records {
        for window in ring.push(record)? {
            cells.extend(window.cells.iter().map(|(k, s)| CellLine::new(window.index, k, s)));
        }
    }
    cells.sort_by_key(cell_line_sort_key);
    Ok(cells)
}

/// Compare two row sequences position by position, every float by its
/// bit pattern (`0.0` is not `-0.0`, one NaN payload is not another, an
/// absent statistic is not a present one). `None` when they are the same
/// rows in the same order; otherwise the first difference, naming the
/// row index and the field.
pub fn first_difference(got: &[CellLine], want: &[CellLine]) -> Option<String> {
    for (row, (g, w)) in got.iter().zip(want).enumerate() {
        if let Some(field) = differing_field(g, w) {
            return Some(format!("row {row}: {field} differs: got {g:?}, want {w:?}"));
        }
    }
    let common = got.len().min(want.len());
    match (got.get(common), want.get(common)) {
        (Some(extra), _) => Some(format!("row {common}: got {extra:?}, want no such row")),
        (None, Some(missing)) => Some(format!("row {common}: got no such row, want {missing:?}")),
        (None, None) => None,
    }
}

/// The first field, in wire order, whose bits differ.
fn differing_field(a: &CellLine, b: &CellLine) -> Option<&'static str> {
    // Destructured so a field added to the row cannot be left out here.
    let CellLine {
        window,
        pop,
        prefix_base,
        prefix_len,
        country,
        continent,
        rank,
        relationship,
        longer_path,
        more_prepended,
        n,
        n_tested,
        bytes,
        min_rtt_p50,
        min_rtt_var,
        hdratio_p50,
        hdratio_var,
    } = a;
    let bits = |v: &Option<f64>| v.map(f64::to_bits);
    [
        ("window", *window == b.window),
        ("pop", *pop == b.pop),
        ("prefix_base", *prefix_base == b.prefix_base),
        ("prefix_len", *prefix_len == b.prefix_len),
        ("country", *country == b.country),
        ("continent", *continent == b.continent),
        ("rank", *rank == b.rank),
        ("relationship", *relationship == b.relationship),
        ("longer_path", *longer_path == b.longer_path),
        ("more_prepended", *more_prepended == b.more_prepended),
        ("n", *n == b.n),
        ("n_tested", *n_tested == b.n_tested),
        ("bytes", *bytes == b.bytes),
        ("min_rtt_p50", min_rtt_p50.to_bits() == b.min_rtt_p50.to_bits()),
        ("min_rtt_var", bits(min_rtt_var) == bits(&b.min_rtt_var)),
        ("hdratio_p50", bits(hdratio_p50) == bits(&b.hdratio_p50)),
        ("hdratio_var", bits(hdratio_var) == bits(&b.hdratio_var)),
    ]
    .into_iter()
    .find_map(|(field, same)| (!same).then_some(field))
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgeperf_analysis::GroupKey;
    use edgeperf_routing::{PopId, Prefix, Relationship};

    fn row(window: u32) -> CellLine {
        CellLine {
            window,
            pop: 1,
            prefix_base: 0x0A00_0100,
            prefix_len: 24,
            country: 7,
            continent: 2,
            rank: 0,
            relationship: "private".to_string(),
            longer_path: false,
            more_prepended: false,
            n: 31,
            n_tested: 30,
            bytes: 1_000,
            min_rtt_p50: 42.5,
            min_rtt_var: Some(0.25),
            hdratio_p50: Some(0.0),
            hdratio_var: None,
        }
    }

    #[test]
    fn the_comparator_tells_bit_patterns_apart_and_names_row_and_field() {
        let want = [row(0), row(1), row(2)];
        assert_eq!(first_difference(&want, &want), None);
        let nan = |payload: u64| f64::from_bits(f64::NAN.to_bits() | payload);
        let cases = [
            ("hdratio_p50", CellLine { hdratio_p50: Some(-0.0), ..row(1) }),
            ("min_rtt_p50", CellLine { min_rtt_p50: nan(2), ..row(1) }),
            ("hdratio_var", CellLine { hdratio_var: Some(0.0), ..row(1) }),
            ("min_rtt_var", CellLine { min_rtt_var: None, ..row(1) }),
            ("relationship", CellLine { relationship: "transit".to_string(), ..row(1) }),
        ];
        for (field, changed) in cases {
            let got = [row(0), changed, row(2)];
            let difference = first_difference(&got, &want).expect(field);
            assert!(difference.starts_with(&format!("row 1: {field} differs")), "{difference}");
        }
        // Two NaNs that `==`, JSON (`null`) and `is_nan` all call the same.
        let (mut a, mut b) = (want.clone(), want.clone());
        (a[2].min_rtt_p50, b[2].min_rtt_p50) = (nan(1), nan(2));
        assert_eq!(first_difference(&a, &a), None);
        let difference = first_difference(&a, &b).expect("payloads differ");
        assert!(difference.starts_with("row 2: min_rtt_p50 differs"), "{difference}");
        // The first difference wins, and a length mismatch is one.
        a[0].n = 32;
        assert!(first_difference(&a, &b).expect("two differences").starts_with("row 0: n "));
        let short = first_difference(&want[..2], &want).expect("a row short");
        assert!(short.starts_with("row 2: got no such row"), "{short}");
        let long = first_difference(&want, &want[..2]).expect("a row over");
        assert!(long.starts_with("row 2: got CellLine"), "{long}");
    }

    fn record(ts_ms: f64, prefix: u32, min_rtt_ms: f64) -> LiveRecord {
        LiveRecord {
            ts_ms,
            group: GroupKey {
                pop: PopId(1),
                prefix: Prefix::new(prefix << 8, 24),
                country: 1,
                continent: 0,
            },
            route_rank: 0,
            relationship: Relationship::PrivatePeer,
            longer_path: false,
            more_prepended: false,
            min_rtt_ms,
            hdratio: None,
            bytes: 100,
        }
    }

    #[test]
    fn the_oracle_holds_watermark_closed_windows_in_canonical_order() {
        // 100 ms windows, no lateness: the record at 250 closes 0 and 1.
        let records = [
            record(10.0, 9, 40.0),
            record(20.0, 3, 41.0),
            record(110.0, 3, 42.0),
            record(250.0, 3, 43.0),
        ];
        let cells = serial_cells(&records, 100.0, 0.0).expect("in order");
        let keys: Vec<(u32, u32)> = cells.iter().map(|c| (c.window, c.prefix_base >> 8)).collect();
        assert_eq!(keys, [(0, 3), (0, 9), (1, 3)], "window 2 is still open");
        let late = [records[3], records[0]];
        assert_eq!(serial_cells(&late, 100.0, 0.0).expect_err("late").reason(), "late");
    }
}
