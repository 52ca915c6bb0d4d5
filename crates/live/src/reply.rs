//! A `cells` reply, ordered and written from rows that stay
//! where they are.
//!
//! A worker answers a query with its closed windows themselves — shared
//! immutable slices ([`SharedWindow`]), not copies — and the tiered store
//! with one `Vec<WindowCell>`. [`CellsReply`] is what the connection's
//! reader thread makes of the two: which rows the reply holds and in what
//! order, as a sort index of 24 bytes a row, known before the header goes
//! out; then header and rows, each row straight from its slice through
//! [`crate::protocol::write_row`], through one fixed-size buffer. No
//! [`crate::CellLine`], no `String` and no copy of a row exists on the way
//! (`tests/reply_footprint.rs` holds that to bytes and allocation counts).

use crate::protocol::{write_cells_header, write_row, CellQuery};
use crate::store::window_cell;
use crate::window::{CellKey, CellSummary};
use edgeperf_analysis::{cell_sort_key, CellSortKey, WindowCell};
use std::io::{self, BufWriter, Write};
use std::sync::Arc;

/// One closed window as its worker keeps and shares it: the window index
/// and its cells in the worker's insertion order.
pub type SharedWindow = (u32, Arc<[(CellKey, CellSummary)]>);

/// The one buffer a reply is written through, whatever its row count.
const REPLY_BUFFER_BYTES: usize = 64 << 10;

/// `Entry::slot` of a row that lives in the spilled rows, not a window.
const SPILLED: u32 = u32::MAX;

/// Where one reply row lives — `windows[slot].1[row]`, or `spilled[row]`
/// under [`SPILLED`] — behind the key that orders it. Derived `Ord` is
/// (key, slot, row): canonical order, a RAM row ahead of a spilled one
/// with its key, otherwise as the sources lie.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Entry {
    key: CellSortKey,
    slot: u32,
    row: u32,
}

/// The rows of one reply and their order; see the module docs.
pub struct CellsReply<'a> {
    windows: &'a [SharedWindow],
    spilled: &'a [WindowCell],
    order: Vec<Entry>,
}

fn index(i: usize) -> u32 {
    u32::try_from(i).expect("a reply addresses fewer than 2^32 rows a source")
}

impl<'a> CellsReply<'a> {
    /// The rows of `windows` matching `query` merged with `spilled`
    /// (rows the store already matched against it), in canonical
    /// (window, group, rank) order — the order of a stable sort of the
    /// windows' rows followed by the spilled ones. A spilled row whose
    /// key a window row carries is left out: the copies are bit-identical
    /// by construction, so RAM winning is about double rows, not bits.
    pub fn canonical(
        windows: &'a [SharedWindow],
        spilled: &'a [WindowCell],
        query: &CellQuery,
    ) -> Self {
        let in_range = || windows.iter().enumerate().filter(|(_, w)| query.contains_window(w.0));
        let ram_rows =
            if query.group.is_all() { in_range().map(|(_, w)| w.1.len()).sum() } else { 0 };
        let mut order = Vec::with_capacity(ram_rows + spilled.len());
        for (slot, (window, cells)) in in_range() {
            for (row, (key, summary)) in cells.iter().enumerate() {
                if query.group.matches(&key.0) {
                    let key = cell_sort_key(&window_cell(*window, key, summary));
                    order.push(Entry { key, slot: index(slot), row: index(row) });
                }
            }
        }
        let from_ram = order.len();
        order.extend(spilled.iter().enumerate().map(|(row, cell)| Entry {
            key: cell_sort_key(cell),
            slot: SPILLED,
            row: index(row),
        }));
        order.sort_unstable();
        if from_ram > 0 && from_ram < order.len() {
            let mut ram_key = None;
            order.retain(|e| {
                if e.slot == SPILLED {
                    ram_key != Some(e.key)
                } else {
                    ram_key = Some(e.key);
                    true
                }
            });
        }
        CellsReply { windows, spilled, order }
    }

    /// Rows the reply holds — what its header announces.
    pub fn rows(&self) -> usize {
        self.order.len()
    }

    /// Write the whole reply — the header with the row count, the rows,
    /// the closing newline — to `out` through one 64 KiB buffer, flushed.
    /// Returns the bytes written.
    pub fn write(&self, out: &mut impl Write) -> io::Result<u64> {
        let mut out =
            BufWriter::with_capacity(REPLY_BUFFER_BYTES, Counted { inner: out, bytes: 0 });
        write_cells_header(&mut out, self.rows())?;
        self.write_rows(&mut out)?;
        out.write_all(b"\n")?;
        out.flush()?;
        Ok(out.get_ref().bytes)
    }

    /// Every row, each behind the newline that ends the line before it
    /// (the header's, to begin with).
    fn write_rows(&self, out: &mut impl Write) -> io::Result<()> {
        for e in &self.order {
            out.write_all(b"\n")?;
            if e.slot == SPILLED {
                write_row(out, &self.spilled[e.row as usize])?;
            } else {
                let (window, cells) = &self.windows[e.slot as usize];
                let (key, summary) = &cells[e.row as usize];
                write_row(out, &window_cell(*window, key, summary))?;
            }
        }
        Ok(())
    }
}

/// Counts what passes through, a flush of the reply buffer at a time.
struct Counted<W> {
    inner: W,
    bytes: u64,
}

impl<W: Write> Write for Counted<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{cell_line_sort_key, CellLine};
    use crate::protocol::{GroupFilter, Response};
    use crate::store::cell_line;
    use edgeperf_analysis::GroupKey;
    use edgeperf_routing::{PopId, Prefix, Relationship};

    fn key(g: u32, rank: u8) -> CellKey {
        let group = GroupKey {
            pop: PopId(u16::try_from(g % 3).expect("small")),
            prefix: Prefix::new(g << 8, 24),
            country: 7,
            continent: 2,
        };
        (group, rank)
    }

    fn summary(seed: u32) -> CellSummary {
        CellSummary {
            n: 30 + seed as usize,
            n_tested: 20,
            bytes: u64::from(seed) * 1_009,
            min_rtt_p50: 20.0 + f64::from(seed) * 0.37,
            min_rtt_var: Some(0.04),
            hdratio_p50: (!seed.is_multiple_of(3)).then_some(0.9),
            hdratio_var: None,
            relationship: Relationship::Transit,
            longer_path: false,
            more_prepended: seed.is_multiple_of(2),
        }
    }

    fn window(index: u32, groups: &[u32]) -> SharedWindow {
        (index, groups.iter().map(|&g| (key(g, 0), summary(g + index))).collect())
    }

    fn written(reply: &CellsReply<'_>) -> String {
        let mut out = Vec::new();
        let bytes = reply.write(&mut out).expect("writes");
        assert_eq!(bytes, out.len() as u64);
        String::from_utf8(out).expect("utf-8")
    }

    fn lines(windows: &[SharedWindow]) -> Vec<CellLine> {
        windows
            .iter()
            .flat_map(|(w, cells)| cells.iter().map(|(k, s)| CellLine::new(*w, k, s)))
            .collect()
    }

    fn rendered(rows: Vec<CellLine>) -> String {
        Response::Cells(rows).render() + "\n"
    }

    #[test]
    fn canonical_order_filters_sorts_and_lets_ram_win_duplicates() {
        let windows = [window(4, &[9, 2, 5]), window(3, &[1, 4]), window(4, &[7, 10])];
        // Spilled: window 3's group 4 again (a duplicate, with different
        // bits so the test can see which copy was written), window 2,
        // and one row twice over — store rows only ever lose to RAM.
        let stale = CellSummary { n: 999, ..summary(7) };
        let spilled = [
            window_cell(3, &key(4, 0), &stale),
            window_cell(2, &key(8, 0), &summary(1)),
            window_cell(2, &key(6, 0), &summary(2)),
            window_cell(2, &key(6, 0), &summary(3)),
        ];
        let all = CellQuery::default();
        let reply = CellsReply::canonical(&windows, &spilled, &all);
        let mut expected = lines(&windows);
        expected.extend(spilled[1..].iter().map(cell_line));
        expected.sort_by_key(cell_line_sort_key);
        assert_eq!(reply.rows(), expected.len());
        assert_eq!(written(&reply), rendered(expected.clone()));

        // A filter applies to the windows' rows (the store applied it to
        // its own), and a window outside the range is skipped whole.
        let group = GroupFilter { pop: Some(1), ..GroupFilter::default() };
        let q = CellQuery { from_window: Some(4), until_window: None, group };
        let reply = CellsReply::canonical(&windows, &[], &q);
        expected.retain(|c| c.window == 4 && c.pop == 1);
        assert_eq!(reply.rows(), 2, "pop 1 is groups 1, 4, 7 and 10; 7 and 10 are in window 4");
        assert_eq!(written(&reply), rendered(expected));
    }
}
