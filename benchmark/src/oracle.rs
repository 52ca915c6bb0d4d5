//! The reference computation: one serial in-process [`WindowRing`] pass
//! over one lap gives the cells of *every* full window, because each
//! cell's digest sees the same insertion sequence in every lap (single
//! in-order connection, groups sharded whole to one worker).

use crate::gen::{Lap, WINDOW_MS};
use edgeperf::analysis::GroupKey;
use edgeperf::live::{cell_line_sort_key, CellLine, WindowRing};

/// Allowed lateness every workload runs the server with.
pub const LATENESS_MS: f64 = 60_000.0;

/// Expected cells of one full window, in canonical order, window index 0.
pub struct Oracle {
    cells: Vec<CellLine>,
}

/// Field-for-field equality with floats compared by bit pattern, `window`
/// excluded (the caller checks it against the expected index).
fn same_cell(a: &CellLine, b: &CellLine) -> bool {
    let bits = |v: Option<f64>| v.map(f64::to_bits);
    (a.group(), a.rank) == (b.group(), b.rank)
        && a.relationship == b.relationship
        && (a.longer_path, a.more_prepended) == (b.longer_path, b.more_prepended)
        && (a.n, a.n_tested, a.bytes) == (b.n, b.n_tested, b.bytes)
        && a.min_rtt_p50.to_bits() == b.min_rtt_p50.to_bits()
        && bits(a.min_rtt_var) == bits(b.min_rtt_var)
        && bits(a.hdratio_p50) == bits(b.hdratio_p50)
        && bits(a.hdratio_var) == bits(b.hdratio_var)
}

impl Oracle {
    /// Fold `lap` through a fresh ring and close it.
    pub fn build(lap: &Lap) -> Oracle {
        let mut ring = WindowRing::new(WINDOW_MS, LATENESS_MS);
        for rec in &lap.records {
            let closed = ring.push(rec).expect("a lap holds only valid, in-order records");
            assert!(closed.is_empty(), "a lap spans one window");
        }
        let mut closed = ring.force_close();
        assert_eq!(closed.len(), 1, "a lap spans one window");
        let window = closed.pop().expect("one window");
        let mut cells: Vec<CellLine> =
            window.cells.iter().map(|(key, s)| CellLine::new(0, key, s)).collect();
        cells.sort_by_key(cell_line_sort_key);
        Oracle { cells }
    }

    /// Check a query reply: `rows` must be exactly the oracle's cells
    /// (those of `group`, when given) once per window of `windows`.
    /// Sorts `rows` into canonical order first; a bare `cells` on a
    /// store-less server replies in worker order.
    pub fn check(
        &self,
        rows: &mut [CellLine],
        windows: std::ops::RangeInclusive<u32>,
        group: Option<&GroupKey>,
    ) -> Result<(), String> {
        rows.sort_by_key(cell_line_sort_key);
        let wanted: Vec<&CellLine> =
            self.cells.iter().filter(|c| group.is_none_or(|g| c.group() == *g)).collect();
        let mut got = rows.iter();
        for window in windows {
            for want in wanted.iter().copied() {
                match got.next() {
                    Some(row) if row.window == window && same_cell(row, want) => {}
                    Some(row) => {
                        return Err(format!("window {window}: got {row:?}, oracle has {want:?}"))
                    }
                    None => return Err(format!("window {window}: reply ends before {want:?}")),
                }
            }
        }
        match got.next() {
            Some(extra) => Err(format!("reply has a row the oracle lacks: {extra:?}")),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{group, Shape, WIDE};

    fn oracle() -> Oracle {
        Oracle::build(&Lap::generate(Shape { groups: 16, records_per_window: 4_000, ..WIDE }, 5))
    }

    #[test]
    fn a_shifted_copy_per_window_passes_and_any_flipped_bit_fails() {
        let oracle = oracle();
        let reply = |windows: std::ops::RangeInclusive<u32>| -> Vec<CellLine> {
            windows
                .flat_map(|w| oracle.cells.iter().map(move |c| CellLine { window: w, ..c.clone() }))
                .collect()
        };
        let mut rows = reply(7..=9);
        rows.reverse();
        assert_eq!(oracle.check(&mut rows, 7..=9, None), Ok(()));
        assert!(oracle.check(&mut reply(7..=9), 7..=10, None).is_err(), "a window is missing");
        assert!(oracle.check(&mut reply(7..=9), 7..=8, None).is_err(), "a window too many");
        let mut flipped = reply(7..=7);
        flipped[3].min_rtt_p50 = f64::from_bits(flipped[3].min_rtt_p50.to_bits() ^ 1);
        assert!(oracle.check(&mut flipped, 7..=7, None).is_err());
    }

    #[test]
    fn a_group_filter_keeps_only_that_group() {
        let oracle = oracle();
        let g = group(3);
        let mut rows: Vec<CellLine> = oracle
            .cells
            .iter()
            .filter(|c| c.group() == g)
            .map(|c| CellLine { window: 2, ..c.clone() })
            .collect();
        assert!(!rows.is_empty() && rows.len() <= 2);
        assert_eq!(oracle.check(&mut rows, 2..=2, Some(&g)), Ok(()));
        assert!(oracle.check(&mut rows, 2..=2, None).is_err());
    }
}
