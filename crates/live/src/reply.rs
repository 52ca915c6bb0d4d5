//! A `cells` reply, merged and written from rows that stay where they
//! are.
//!
//! A closed cell is one 72-byte [`WindowCell`] from its window's close to
//! the reply. A worker keeps each closed window as one shared immutable
//! slice ([`SharedWindow`]) already in canonical (window, group, rank)
//! order, and the tiered store answers with one sorted run a segment
//! ([`Runs`]). [`CellsReply`] is what the connection's reader thread makes
//! of them: a k-way merge of those runs — the RAM windows first, in worker
//! order, then the store's runs in manifest order — that keeps the rows the
//! query matches and lets a RAM row win its key over store rows. The merge
//! runs twice: once to count the rows the header announces, once to write
//! each row straight from its run through [`crate::protocol::write_row`]
//! and one fixed-size buffer. No row is sorted or copied and no
//! [`crate::CellLine`] or `String` exists on the way: what a reply holds
//! is one head a run and the buffer (`tests/reply_footprint.rs` holds
//! that to bytes and allocation counts).

use crate::protocol::{write_cells_header, write_row, CellQuery};
use crate::store::Runs;
use crate::window::SharedWindow;
use edgeperf_analysis::{cell_sort_key, CellSortKey, WindowCell};
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::io::{self, BufWriter, Write};

/// The one buffer a reply is written through, whatever its row count.
const REPLY_BUFFER_BYTES: usize = 64 << 10;

/// A merge head: (key, run, row) of a run's next matching row, reversed
/// so that a [`BinaryHeap`]'s top is the smallest (key, run) — canonical
/// order, and of equal keys the earlier run's row.
type Head = Reverse<(CellSortKey, usize, usize)>;

/// The rows of one reply and their order; see the module docs.
pub struct CellsReply<'a> {
    windows: &'a [SharedWindow],
    stored: &'a Runs,
    query: CellQuery,
    /// The merge's heads, one a run at most: allocated once, emptied by
    /// each pass and refilled by the next.
    heads: BinaryHeap<Head>,
    rows: usize,
}

impl<'a> CellsReply<'a> {
    /// The rows of `windows` and of the store's runs `stored` that match
    /// `query`, in canonical (window, group, rank) order — the order of a
    /// stable sort of the windows' rows followed by the store's. A store
    /// row whose key a window row carries is left out: the copies are
    /// bit-identical by construction, so RAM winning is about double
    /// rows, not bits. Two store rows of one key are both kept.
    pub fn canonical(windows: &'a [SharedWindow], stored: &'a Runs, query: &CellQuery) -> Self {
        let heads = BinaryHeap::with_capacity(windows.len() + stored.ends.len());
        let mut reply = CellsReply { windows, stored, query: *query, heads, rows: 0 };
        reply.rows = reply.merge(|_| Ok(())).expect("counting writes nothing");
        reply
    }

    /// Rows the reply holds — what its header announces.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Write the whole reply — the header with the row count, the rows,
    /// the closing newline — to `out` through one 64 KiB buffer, flushed.
    /// Returns the bytes written.
    pub fn write(mut self, out: &mut impl Write) -> io::Result<u64> {
        let mut out =
            BufWriter::with_capacity(REPLY_BUFFER_BYTES, Counted { inner: out, bytes: 0 });
        write_cells_header(&mut out, self.rows)?;
        // Every row behind the newline that ends the line before it.
        self.merge(|row| {
            out.write_all(b"\n")?;
            write_row(&mut out, row)
        })?;
        out.write_all(b"\n")?;
        out.flush()?;
        Ok(out.get_ref().bytes)
    }

    /// Hand `visit` every reply row in order, and count them: the k-way
    /// merge of the runs — each window, then each store run — with ties
    /// to the earlier run, skipping store rows whose key a window row
    /// carries.
    fn merge(&mut self, mut visit: impl FnMut(&WindowCell) -> io::Result<()>) -> io::Result<usize> {
        let (windows, stored, query) = (self.windows, self.stored, self.query);
        let run = |i: usize| match i.checked_sub(windows.len()) {
            None => &windows[i][..],
            Some(i) => stored.run(i),
        };
        // Run `i`'s first row from `at` on that the query matches.
        let head = |i: usize, at: usize| {
            let rows = &run(i)[at..];
            let skip = rows.iter().position(|c| query.matches(c.window, &c.group()))?;
            Some(Reverse((cell_sort_key(&rows[skip]), i, at + skip)))
        };
        self.heads.extend((0..windows.len() + stored.ends.len()).filter_map(|i| head(i, 0)));
        let (mut ram_key, mut rows) = (None, 0);
        while let Some(mut top) = self.heads.peek_mut() {
            let Reverse((key, i, at)) = *top;
            let from_ram = i < windows.len();
            if from_ram {
                ram_key = Some(key);
            }
            if from_ram || ram_key != Some(key) {
                visit(&run(i)[at])?;
                rows += 1;
            }
            match head(i, at + 1) {
                Some(next) => *top = next,
                None => {
                    PeekMut::pop(top);
                }
            }
        }
        Ok(rows)
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
    use crate::protocol::{CellLine, GroupFilter, Response};
    use crate::store::{cell_line, window_cell};
    use crate::window::{CellKey, CellSummary, ClosedWindow};
    use edgeperf_analysis::{sort_cells, GroupKey};
    use edgeperf_routing::{PopId, Prefix, Relationship};
    use proptest::prelude::*;

    fn key(g: u32, rank: u8) -> CellKey {
        let group = GroupKey {
            pop: PopId(u16::try_from(g % 3).expect("small")),
            prefix: Prefix::new(g << 8, 24),
            country: u16::try_from(g % 4).expect("small"),
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

    /// A run as a worker or a segment holds one: canonical order.
    fn run(mut rows: Vec<WindowCell>) -> Vec<WindowCell> {
        sort_cells(&mut rows);
        rows
    }

    fn window(index: u32, groups: &[u32]) -> SharedWindow {
        let cells = groups.iter().map(|&g| (key(g, 0), summary(g + index))).collect();
        ClosedWindow { index, cells }.share()
    }

    fn stored(runs: Vec<Vec<WindowCell>>) -> Runs {
        let mut out = Runs::default();
        for rows in runs {
            out.rows.extend(run(rows));
            out.ends.push(out.rows.len());
        }
        out
    }

    fn written(reply: CellsReply<'_>) -> String {
        let rows = reply.rows();
        let mut out = Vec::new();
        let bytes = reply.write(&mut out).expect("writes");
        assert_eq!(bytes, out.len() as u64);
        let text = String::from_utf8(out).expect("utf-8");
        assert_eq!(text.lines().count(), rows + 1, "the header counts the rows written");
        text
    }

    fn rendered(rows: Vec<CellLine>) -> String {
        Response::Cells(rows).render() + "\n"
    }

    /// The reference answer: every matching row, the windows' then the
    /// store's, stably sorted by key; then each store row whose key a
    /// window row carries dropped.
    fn reference(windows: &[SharedWindow], stored: &Runs, query: &CellQuery) -> Vec<CellLine> {
        let matching = |c: &&WindowCell| query.matches(c.window, &c.group());
        let ram = windows.iter().flat_map(|w| w.iter()).filter(matching).map(|c| (true, c));
        let mut rows: Vec<(bool, &WindowCell)> =
            ram.chain(stored.rows.iter().filter(matching).map(|c| (false, c))).collect();
        rows.sort_by_key(|(_, c)| cell_sort_key(c));
        let mut ram_key = None;
        rows.retain(|&(from_ram, c)| {
            if from_ram {
                ram_key = Some(cell_sort_key(c));
            }
            from_ram || ram_key != Some(cell_sort_key(c))
        });
        rows.into_iter().map(|(_, c)| cell_line(c)).collect()
    }

    #[test]
    fn canonical_order_filters_merges_and_lets_ram_win_duplicates() {
        let windows = [window(4, &[9, 2, 5]), window(3, &[1, 4]), window(4, &[7, 10])];
        // Store runs: window 3's group 4 again (a duplicate, with
        // different bits so the test can see which copy was written),
        // window 2, and one row twice over — store rows only ever lose
        // to RAM.
        let stale = CellSummary { n: 999, ..summary(7) };
        let spilled = stored(vec![
            vec![window_cell(3, &key(4, 0), &stale), window_cell(2, &key(8, 0), &summary(1))],
            vec![window_cell(2, &key(6, 0), &summary(2))],
            vec![window_cell(2, &key(6, 0), &summary(3))],
        ]);
        let all = CellQuery::default();
        let expected = reference(&windows, &spilled, &all);
        assert_eq!(expected.len(), 10, "seven window rows and four store rows, one lost to RAM");
        assert!(expected.iter().all(|c| c.n != 999), "the RAM copy won");
        assert_eq!(written(CellsReply::canonical(&windows, &spilled, &all)), rendered(expected));

        // A filter applies to every run, and a window outside the range
        // gives nothing.
        let group = GroupFilter { pop: Some(1), ..GroupFilter::default() };
        let q = CellQuery { from_window: Some(4), until_window: None, group };
        let reply = CellsReply::canonical(&windows, &spilled, &q);
        assert_eq!(reply.rows(), 2, "pop 1 is groups 1, 4, 7 and 10; 7 and 10 are in window 4");
        assert_eq!(written(reply), rendered(reference(&windows, &spilled, &q)));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Random windows and store runs over few enough keys that store
        /// rows repeat a window's key and each other's, in one run and
        /// across runs, under no filter, a window range or one group
        /// field: the merged reply is the reference's, byte for byte.
        #[test]
        fn prop_the_merge_writes_what_a_sorted_index_wrote(
            ram in prop::collection::vec(
                (0u32..3, prop::collection::vec((0u32..6, 0u8..2), 1..12)),
                1..5,
            ),
            store in prop::collection::vec(
                prop::collection::vec((0u32..3, 0u32..6, 0u8..2, 0u32..3), 1..12),
                1..4,
            ),
            range in (0u8..3, 0u32..3, 0u32..3),
            filter in (0u8..5, 0u16..3, 0u32..6, 0u16..4),
        ) {
            let windows: Vec<SharedWindow> = ram
                .iter()
                .map(|&(index, ref cells)| {
                    let mut keys: Vec<CellKey> = cells.iter().map(|&(g, r)| key(g, r)).collect();
                    keys.sort_by_key(|(group, rank)| (group.prefix.base, *rank));
                    keys.dedup();
                    let cells = keys.into_iter().map(|k| (k, summary(index))).collect();
                    ClosedWindow { index, cells }.share()
                })
                .collect();
            let spilled = stored(
                store
                    .iter()
                    .map(|rows| {
                        let cell = |&(w, g, r, copy): &(u32, u32, u8, u32)| {
                            window_cell(w, &key(g, r), &summary(100 + g + copy))
                        };
                        rows.iter().map(cell).collect()
                    })
                    .collect(),
            );
            let (from_window, until_window) = match range {
                (0, ..) => (None, None),
                (1, from, _) => (Some(from), None),
                (_, a, b) => (Some(a.min(b)), Some(a.max(b))),
            };
            let group = match filter {
                (0 | 1, ..) => GroupFilter::default(),
                (2, pop, ..) => GroupFilter { pop: Some(pop), ..GroupFilter::default() },
                (3, _, g, _) => GroupFilter { prefix: Some((g << 8, 24)), ..GroupFilter::default() },
                (_, _, _, country) => GroupFilter { country: Some(country), ..GroupFilter::default() },
            };
            let query = CellQuery { from_window, until_window, group };
            let expected = reference(&windows, &spilled, &query);
            let reply = CellsReply::canonical(&windows, &spilled, &query);
            prop_assert_eq!(reply.rows(), expected.len());
            prop_assert_eq!(written(reply), rendered(expected));
        }
    }
}
