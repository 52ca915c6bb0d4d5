//! A `cells` reply, merged and written from rows that stay where they
//! are.
//!
//! A closed cell is one 64-byte [`WindowCell`] from its window's close to
//! the reply. A worker keeps each closed window as one shared immutable
//! slice ([`SharedWindow`]) already in canonical (window, group, rank)
//! order, and the tiered store answers with one run cursor an overlapping
//! segment ([`Cursors`]), each reading its segment's matching rows in that
//! order a row group at a time. [`CellsReply`] is what the connection's
//! reader thread makes of them: a k-way merge of those runs — the RAM
//! windows first, in worker order, then the store's runs in manifest order
//! — that keeps the rows the query matches and lets a RAM row win its key
//! over store rows.
//!
//! The merge runs twice, because the header announces the row count
//! before the first row. The first pass counts, and each store run keeps
//! the rows it matched while they fit one row group; the second writes
//! each row straight from its run through `protocol::write_row`
//! and one fixed-size buffer, replaying a store run that fit from what it
//! kept and reading one that overflowed again. A store error in the first
//! pass is the reply (`{"error":"store: …"}`, nothing else written); one
//! in the second, after the header, fails [`CellsReply::write`] and the
//! server closes the connection, so a client sees a reply end short of its
//! count, never a short reply passed off as whole. No row is sorted or
//! collected and no [`crate::CellLine`] or `String` exists on the way:
//! what a reply holds is one head a run, a row group's matches and a kept
//! block a store run, one pair of read buffers and the write buffer
//! (`tests/reply_footprint.rs` holds that to bytes and allocation counts).

use crate::protocol::{write_cells_header, write_row, CellQuery};
use crate::store::Cursors;
use crate::window::SharedWindow;
use edgeperf_analysis::{cell_sort_key, CellSortKey, WindowCell};
use edgeperf_core::EdgeperfError;
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::io::{self, BufWriter, Write};

/// The one buffer a reply is written through, whatever its row count.
const REPLY_BUFFER_BYTES: usize = 64 << 10;

/// A merge head: (key, run, row) of a run's next matching row, reversed
/// so that a [`BinaryHeap`]'s top is the smallest (key, run) — canonical
/// order, and of equal keys the earlier run's row. The row index is a RAM
/// window's; a store run's cursor knows where it stands.
type Head = Reverse<(CellSortKey, usize, usize)>;

/// The rows of one reply and their order; see the module docs.
pub struct CellsReply<'a> {
    windows: &'a [SharedWindow],
    stored: Cursors<'a>,
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
    /// rows, not bits. Two store rows of one key are both kept. Counting
    /// them reads the store: its error is this one, and nothing has been
    /// written.
    pub fn canonical(
        windows: &'a [SharedWindow],
        stored: Cursors<'a>,
        query: &CellQuery,
    ) -> Result<Self, EdgeperfError> {
        let heads = BinaryHeap::with_capacity(windows.len() + stored.len());
        let mut reply = CellsReply { windows, stored, query: *query, heads, rows: 0 };
        let (rows, from_store) = reply.merge(|e| e, |_| Ok(()))?;
        reply.rows = rows;
        reply.stored.carry(from_store);
        Ok(reply)
    }

    /// Rows the reply holds — what its header announces.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Write the whole reply — the header with the row count, the rows,
    /// the closing newline — to `out` through one 64 KiB buffer, flushed.
    /// Returns the bytes written. A store run read again that fails, or
    /// answers other than it did, fails the write after the header.
    pub fn write(mut self, out: &mut impl Write) -> io::Result<u64> {
        let mut out =
            BufWriter::with_capacity(REPLY_BUFFER_BYTES, Counted { inner: out, bytes: 0 });
        write_cells_header(&mut out, self.rows)?;
        // Every row behind the newline that ends the line before it.
        let (rows, _) = self.merge(io::Error::other, |row| {
            out.write_all(b"\n")?;
            write_row(&mut out, row)
        })?;
        if rows != self.rows {
            let message =
                format!("the header announced {} rows, the merge found {rows}", self.rows);
            return Err(io::Error::new(io::ErrorKind::InvalidData, message));
        }
        out.write_all(b"\n")?;
        out.flush()?;
        Ok(out.get_ref().bytes)
    }

    /// Hand `visit` every reply row in order, and count them, and the
    /// store's among them: one pass of the k-way merge of the runs —
    /// each window, then each store run — with ties to the earlier run,
    /// skipping store rows whose key a window row carries. A store read
    /// error leaves through `lost`.
    fn merge<E>(
        &mut self,
        lost: fn(EdgeperfError) -> E,
        mut visit: impl FnMut(&WindowCell) -> Result<(), E>,
    ) -> Result<(usize, u64), E> {
        let (windows, query) = (self.windows, self.query);
        let ram = windows.len();
        // RAM window `i`'s first row from `at` on that the query matches.
        let ram_head = |i: usize, at: usize| {
            let rows = &windows[i][at..];
            let skip = rows.iter().position(|c| query.matches(c.window, &c.group()))?;
            Some(Reverse((cell_sort_key(&rows[skip]), i, at + skip)))
        };
        // The row store run `j` stands on.
        let store_head = |stored: &Cursors<'_>, j: usize| {
            stored.head(j).map(|c| Reverse((cell_sort_key(c), ram + j, 0)))
        };
        self.stored.start_pass().map_err(lost)?;
        self.heads.extend((0..ram).filter_map(|i| ram_head(i, 0)));
        self.heads.extend((0..self.stored.len()).filter_map(|j| store_head(&self.stored, j)));
        let (mut ram_key, mut rows, mut from_store) = (None, 0, 0);
        while let Some(mut top) = self.heads.peek_mut() {
            let Reverse((key, i, at)) = *top;
            let next = match i.checked_sub(ram) {
                None => {
                    ram_key = Some(key);
                    visit(&windows[i][at])?;
                    rows += 1;
                    ram_head(i, at + 1)
                }
                Some(j) => {
                    if ram_key != Some(key) {
                        visit(self.stored.head(j).expect("a head stands on its row"))?;
                        rows += 1;
                        from_store += 1;
                    }
                    self.stored.step(j).map_err(lost)?;
                    store_head(&self.stored, j)
                }
            };
            match next {
                Some(next) => *top = next,
                None => {
                    PeekMut::pop(top);
                }
            }
        }
        Ok((rows, from_store))
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
    use crate::store::{window_cell, SegmentStore};
    use crate::window::{CellKey, CellSummary, ClosedWindow};
    use crate::LiveClient;
    use edgeperf_analysis::{sort_cells, GroupKey, SegmentIndex};
    use edgeperf_routing::{PopId, Prefix, Relationship};
    use proptest::prelude::*;
    use std::os::unix::fs::FileExt;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

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

    /// A store in a directory of its own whose segments are `runs`, one a
    /// run, each in canonical order as a spill writes it. Compaction runs
    /// only when a test calls it, four segments at a time.
    struct Spilled {
        store: SegmentStore,
        runs: Vec<Vec<WindowCell>>,
    }

    impl Spilled {
        fn new(runs: Vec<Vec<WindowCell>>) -> Spilled {
            static NEXT: AtomicU64 = AtomicU64::new(0);
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            let dir =
                std::env::temp_dir().join(format!("edgeperf-reply-{}-{n}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let store = SegmentStore::open(&dir, 4, 4, 3).expect("opens");
            let runs: Vec<Vec<WindowCell>> = runs.into_iter().map(run).collect();
            for rows in &runs {
                store.spill(rows).expect("spills");
            }
            Spilled { store, runs }
        }

        fn query(&self, query: &CellQuery) -> Cursors<'_> {
            self.store.query(query).expect("queries")
        }

        /// Segment `id`'s file.
        fn segment(&self, id: u64) -> PathBuf {
            self.store.dir().join(format!("seg-{id:08}.seg"))
        }

        /// Flip a byte inside the last row group of segment `id`, in
        /// place: a reader holding the file open sees it too.
        fn corrupt_last_group(&self, id: u64) {
            let path = self.segment(id);
            let file =
                std::fs::OpenOptions::new().read(true).write(true).open(path).expect("opens");
            let index = SegmentIndex::of_file(&file).expect("indexes");
            let at = index.groups().last().expect("a group").offset + 9;
            let mut byte = [0u8];
            file.read_exact_at(&mut byte, at).expect("reads");
            file.write_all_at(&[byte[0] ^ 0x40], at).expect("writes in place");
        }
    }

    impl Drop for Spilled {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(self.store.dir());
        }
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
    fn reference(windows: &[SharedWindow], stored: &Spilled, query: &CellQuery) -> Vec<CellLine> {
        let matching = |c: &&WindowCell| query.matches(c.window, &c.group());
        let ram = windows.iter().flat_map(|w| w.iter()).filter(matching).map(|c| (true, c));
        let store = stored.runs.iter().flatten().filter(matching).map(|c| (false, c));
        let mut rows: Vec<(bool, &WindowCell)> = ram.chain(store).collect();
        rows.sort_by_key(|(_, c)| cell_sort_key(c));
        let mut ram_key = None;
        rows.retain(|&(from_ram, c)| {
            if from_ram {
                ram_key = Some(cell_sort_key(c));
            }
            from_ram || ram_key != Some(cell_sort_key(c))
        });
        rows.into_iter().map(|(_, c)| CellLine::from(c)).collect()
    }

    /// `n` store rows over windows 0–2 and groups 0–349 from `seed`: a
    /// run longer than 1,050 rows repeats a (window, group).
    fn store_rows(n: usize, seed: u32) -> Vec<WindowCell> {
        (0..u32::try_from(n).expect("small"))
            .map(|i| {
                let (w, g) = ((i * 5 + seed) % 3, (i * 13 + seed * 7) % 350);
                let rank = u8::try_from((i / 3 + seed) % 2).expect("a bit");
                window_cell(w, &key(g, rank), &summary(100 + g + i % 3))
            })
            .collect()
    }

    #[test]
    fn canonical_order_filters_merges_and_lets_ram_win_duplicates() {
        let windows = [window(4, &[9, 2, 5]), window(3, &[1, 4]), window(4, &[7, 10])];
        // Store runs: window 3's group 4 again (a duplicate, with
        // different bits so the test can see which copy was written),
        // window 2, and one row twice over — store rows only ever lose
        // to RAM.
        let stale = CellSummary { n: 999, ..summary(7) };
        let spilled = Spilled::new(vec![
            vec![window_cell(3, &key(4, 0), &stale), window_cell(2, &key(8, 0), &summary(1))],
            vec![window_cell(2, &key(6, 0), &summary(2))],
            vec![window_cell(2, &key(6, 0), &summary(3))],
        ]);
        let all = CellQuery::default();
        let expected = reference(&windows, &spilled, &all);
        assert_eq!(expected.len(), 10, "seven window rows and four store rows, one lost to RAM");
        assert!(expected.iter().all(|c| c.n != 999), "the RAM copy won");
        let reply = CellsReply::canonical(&windows, spilled.query(&all), &all).expect("reads");
        assert_eq!(written(reply), rendered(expected));

        // A filter applies to every run, and a window outside the range
        // gives nothing.
        let group = GroupFilter { pop: Some(1), ..GroupFilter::default() };
        let q = CellQuery { from_window: Some(4), until_window: None, group };
        let reply = CellsReply::canonical(&windows, spilled.query(&q), &q).expect("reads");
        assert_eq!(reply.rows(), 2, "pop 1 is groups 1, 4, 7 and 10; 7 and 10 are in window 4");
        assert_eq!(written(reply), rendered(reference(&windows, &spilled, &q)));
    }

    #[test]
    fn query_rows_returned_counts_the_store_rows_the_reply_carries() {
        // Window 3 is in both tiers — spilled, and still (or again, after
        // a restart's replay) in RAM — for groups 1 and 2; group 3 is on
        // disk alone.
        let both = window(3, &[1, 2]);
        let spilled = Spilled::new(vec![both
            .iter()
            .copied()
            .chain([window_cell(3, &key(3, 0), &summary(6))])
            .collect()]);
        let all = CellQuery::default();
        let reply = CellsReply::canonical(std::slice::from_ref(&both), spilled.query(&all), &all)
            .expect("reads");
        assert_eq!(reply.rows(), 3);
        written(reply);
        let stats = spilled.store.stats();
        assert_eq!(stats.query_rows_examined, 3, "every stored row was read");
        assert_eq!(stats.query_rows_returned, 1, "two of them lost their key to RAM: {stats:?}");
    }

    #[test]
    fn a_store_error_while_counting_is_the_reply_and_nothing_is_written() {
        let spilled = Spilled::new(vec![store_rows(700, 1)]);
        spilled.corrupt_last_group(0);
        let all = CellQuery::default();
        let err = CellsReply::canonical(&[], spilled.query(&all), &all)
            .err()
            .expect("the first pass reads every group");
        assert_eq!(err.reason(), "segment", "{err}");
        let reply = Response::StoreError(err.to_string()).render();
        assert!(reply.starts_with("{\"error\":\"store: "), "{reply}");
    }

    #[test]
    fn a_group_corrupted_between_the_passes_fails_the_write_and_the_client_sees_eof() {
        // 2,000 rows: four row groups, more than a run keeps, so the
        // second pass reads them again — ~600 KB of reply, the last group
        // torn under it.
        let spilled = Spilled::new(vec![store_rows(2_000, 1)]);
        let all = CellQuery::default();
        let reply = CellsReply::canonical(&[], spilled.query(&all), &all).expect("reads");
        assert_eq!(reply.rows(), 2_000);
        spilled.corrupt_last_group(0);
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("binds");
        let addr = listener.local_addr().expect("an address");
        std::thread::scope(|scope| {
            let server = scope.spawn(move || {
                let (stream, _) = listener.accept().expect("accepts");
                let mut request = String::new();
                std::io::BufRead::read_line(&mut std::io::BufReader::new(&stream), &mut request)
                    .expect("reads the request");
                let written = reply.write(&mut &stream);
                // The server closes the connection on any write error.
                drop(stream);
                written
            });
            let mut client = LiveClient::connect(addr).expect("connects");
            let got = client.cells_query(&all).expect_err("the reply ends short of its count");
            assert_eq!(got.kind(), io::ErrorKind::UnexpectedEof, "{got}");
            let err = server.join().expect("server thread").expect_err("the re-read fails");
            assert!(err.to_string().contains("checksum"), "{err}");
        });
    }

    #[test]
    fn a_reply_outlives_the_compaction_that_unlinks_its_segments() {
        // Four segments, each longer than a run keeps: the reply's second
        // pass reads them all again after a compaction unlinked them.
        let spilled = Spilled::new((0..4).map(|seed| store_rows(600, seed)).collect());
        let windows = [window(1, &[0, 3, 6])];
        let all = CellQuery::default();
        let expected = rendered(reference(&windows, &spilled, &all));
        let reply = CellsReply::canonical(&windows, spilled.query(&all), &all).expect("reads");
        assert!(spilled.store.compact_once().expect("compacts beside the reply"));
        assert!(!spilled.segment(0).exists(), "the victims are unlinked");
        assert_eq!(written(reply), expected);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random windows and spilled store runs over few enough keys
        /// that store rows repeat a window's key and each other's, in one
        /// run and across runs, with runs on either side of a row group's
        /// worth of matches — kept by the first pass, or read again —
        /// under no filter, a window range or one group field: the merged
        /// reply is the reference's, byte for byte.
        #[test]
        fn prop_the_merge_writes_what_a_sorted_index_wrote(
            ram in prop::collection::vec(
                (0u32..3, prop::collection::vec((0u32..350, 0u8..2), 1..40)),
                1..5,
            ),
            store in prop::collection::vec((0usize..1_600, 0u32..1_000), 1..4),
            range in (0u8..3, 0u32..3, 0u32..3),
            filter in (0u8..5, 0u16..3, 0u32..350, 0u16..4),
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
            let spilled =
                Spilled::new(store.iter().map(|&(n, seed)| store_rows(n, seed)).collect());
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
            let reply =
                CellsReply::canonical(&windows, spilled.query(&query), &query).expect("reads");
            prop_assert_eq!(reply.rows(), expected.len());
            prop_assert_eq!(written(reply), rendered(expected));
        }
    }
}
