//! Columnar on-disk segment codec for the tiered window store, plus the
//! atomic-write discipline every durable artifact in the tree shares.
//!
//! A *segment* is the unit the live tier spills closed windows into: a
//! run of [`WindowCell`] rows — one per (window, group, route-rank) cell,
//! exactly the plain-data summary a closed live window carries.
//!
//! ## Layout (`EPSG` version 2)
//!
//! ```text
//! header   "EPSG" | version = 2                                  5 bytes
//! group*   rows: u32 | columns | FxHash(rows, columns): u64
//! footer   entry* | FxHash(entries): u64
//!          entry = offset: u64 | len: u32 | rows: u32
//!                  | first cell_sort_key | last cell_sort_key    46 bytes
//! trailer  footer offset: u64 | footer len: u32 | "GSPE"        16 bytes
//! ```
//!
//! A **row group** holds at most [`GROUP_ROWS`] rows of **one window**,
//! encoded column-major like [`crate::columnar::ColumnarShard`] keeps its
//! in-memory cells (all windows, then all pops, then all prefixes, …) and
//! closed by its own checksum, so a reader verifies and decodes one group
//! without touching the rest of the file. The footer indexes the groups
//! — where each one is, how many rows it holds, and the smallest and
//! largest [`cell_sort_key`] among them — which is what lets a query
//! read only the groups its window range and group filter can match.
//!
//! Float statistics are stored as raw little-endian `f64` bit patterns,
//! so a decode → merge → query path is **bit-identical** to the
//! never-spilled in-RAM cells: spilling is a change of address, not of
//! value. Optional statistics (Price–Bonett variances, HDratio medians)
//! are a presence bitmap followed by the present values only.
//!
//! ## What a reader trusts
//!
//! Nothing that a verified checksum does not cover. The trailer is
//! checked by arithmetic (magic, and `offset + len + 16` must equal the
//! file length), the footer by its checksum and by its entries tiling
//! the bytes between header and footer exactly, each group by its own
//! checksum and by holding the row count its entry promised. Every count
//! read from disk is bounded by the bytes that hold it before anything is
//! allocated for it. Problems are the typed [`EdgeperfError::Segment`].
//!
//! Version 1 images (no groups: header, row count, the columns of every
//! row, one checksum over it all) stay readable — [`SegmentIndex`]
//! presents one as a single group with unbounded keys, read whole.
//!
//! ## Writing
//!
//! [`SegmentWriter`] streams rows out group by group through one
//! reusable buffer. Over a [`StagedFile`] it writes beside the segment's
//! path and the caller's `commit` renames — the same tmp + rename
//! discipline [`atomic_write`] gives single-buffer artifacts (manifests,
//! checkpoints) — so a crash mid-write can only ever leave an orphan
//! temp file, never a torn segment at a live path.

use crate::dataset::CellSummary;
use crate::degradation::DegradationMetric;
use crate::record::GroupKey;
use edgeperf_core::EdgeperfError;
use edgeperf_routing::{PopId, Prefix, Relationship};
use std::fs::File;
use std::hash::Hasher;
use std::io::{self, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Magic bytes opening every segment file.
pub(crate) const SEGMENT_MAGIC: [u8; 4] = *b"EPSG";

/// Current segment format version.
pub const SEGMENT_VERSION: u8 = 2;

/// One closed cell: the one form every reader of a (window, group, rank)
/// cell's statistic takes it in — the offline analyses and both sinks'
/// grids, and the live tier, which holds, shares, spills and replies
/// from it. 72 bytes: what is stored as itself is a public field; the
/// group is flat fields behind [`group`](Self::group), and one flag byte
/// holds the route annotations and which optional statistics are
/// present — an absent one's slot holds `0.0` and is never read.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WindowCell {
    /// Window index (`floor(ts / window_ms)`).
    pub window: u32,
    prefix_base: u32,
    pop: u16,
    country: u16,
    prefix_len: u8,
    continent: u8,
    /// Route rank (0 = preferred).
    pub rank: u8,
    /// The segment's two route flags, the relationship code from
    /// [`REL_SHIFT`] and a presence bit an optional statistic from
    /// [`HAS_SHIFT`].
    flags: u8,
    /// Sessions recorded.
    pub n: u64,
    /// Sessions with an HDratio.
    pub n_tested: u64,
    /// Traffic bytes.
    pub bytes: u64,
    /// Median MinRTT (ms).
    pub min_rtt_p50: f64,
    /// The MinRTT median's variance, the HDratio median and its variance.
    optional: [f64; 3],
}

const _: () = assert!(std::mem::size_of::<WindowCell>() == 72);

/// Where [`WindowCell`]'s flag byte keeps the relationship code (two
/// bits) and the presence bits of its three optional statistics.
const REL_SHIFT: usize = 2;
const HAS_SHIFT: usize = 4;

impl WindowCell {
    /// The row for summary `s` of cell (`window`, `group`, `rank`).
    pub fn new(window: u32, group: GroupKey, rank: u8, s: &CellSummary) -> WindowCell {
        let mut row = WindowCell {
            window,
            prefix_base: group.prefix.base,
            pop: group.pop.0,
            country: group.country,
            prefix_len: group.prefix.len,
            continent: group.continent,
            rank,
            flags: (rel_code(s.relationship) << REL_SHIFT)
                | (u8::from(s.longer_path) * FLAG_LONGER_PATH)
                | (u8::from(s.more_prepended) * FLAG_MORE_PREPENDED),
            n: u64::try_from(s.n).expect("usize fits u64"),
            n_tested: u64::try_from(s.n_tested).expect("usize fits u64"),
            bytes: s.bytes,
            min_rtt_p50: s.min_rtt_p50,
            optional: [0.0; 3],
        };
        for (i, value) in [s.min_rtt_var, s.hdratio_p50, s.hdratio_var].into_iter().enumerate() {
            if let Some(value) = value {
                row.set_optional(i, value);
            }
        }
        row
    }

    /// The cell's user group.
    pub fn group(&self) -> GroupKey {
        GroupKey {
            pop: PopId(self.pop),
            prefix: Prefix { base: self.prefix_base, len: self.prefix_len },
            country: self.country,
            continent: self.continent,
        }
    }

    /// Relationship of the route measured by this cell.
    pub fn relationship(&self) -> Relationship {
        rel_from_code((self.flags >> REL_SHIFT) & 3).expect("built from a valid relationship")
    }

    /// This route's AS path is longer than the preferred route's.
    pub fn longer_path(&self) -> bool {
        self.flags & FLAG_LONGER_PATH != 0
    }

    /// This route is prepended more than the preferred route.
    pub fn more_prepended(&self) -> bool {
        self.flags & FLAG_MORE_PREPENDED != 0
    }

    /// The cell's median of `metric`, if it has one.
    pub fn p50(&self, metric: DegradationMetric) -> Option<f64> {
        match metric {
            DegradationMetric::MinRtt => Some(self.min_rtt_p50),
            DegradationMetric::HdRatio => self.hdratio_p50(),
        }
    }

    /// Price–Bonett variance of the MinRTT median.
    pub fn min_rtt_var(&self) -> Option<f64> {
        self.get_optional(0)
    }

    /// Median HDratio.
    pub fn hdratio_p50(&self) -> Option<f64> {
        self.get_optional(1)
    }

    /// Price–Bonett variance of the HDratio median.
    pub fn hdratio_var(&self) -> Option<f64> {
        self.get_optional(2)
    }

    fn get_optional(&self, i: usize) -> Option<f64> {
        (self.flags & (1 << (HAS_SHIFT + i)) != 0).then_some(self.optional[i])
    }

    fn set_optional(&mut self, i: usize, value: f64) {
        self.optional[i] = value;
        self.flags |= 1 << (HAS_SHIFT + i);
    }
}

/// What [`cell_sort_key`] orders by: (window, pop, prefix base, prefix
/// length, country, continent, rank).
pub type CellSortKey = (u32, u16, u32, u8, u16, u8, u8);

/// Canonical query/compaction order: (window, group fields, rank). Two
/// distinct cells can never tie — (window, group, rank) addresses a cell
/// uniquely — so the order is total and merge output is deterministic.
pub fn cell_sort_key(c: &WindowCell) -> CellSortKey {
    (c.window, c.pop, c.prefix_base, c.prefix_len, c.country, c.continent, c.rank)
}

/// Sort cells into the canonical time-sorted order (see [`cell_sort_key`]).
pub fn sort_cells(cells: &mut [WindowCell]) {
    cells.sort_by_key(cell_sort_key);
}

pub(crate) fn rel_code(r: Relationship) -> u8 {
    match r {
        Relationship::PrivatePeer => 0,
        Relationship::PublicPeer => 1,
        Relationship::Transit => 2,
    }
}

pub(crate) fn rel_from_code(code: u8) -> Result<Relationship, EdgeperfError> {
    match code {
        0 => Ok(Relationship::PrivatePeer),
        1 => Ok(Relationship::PublicPeer),
        2 => Ok(Relationship::Transit),
        other => Err(corrupt(format!("unknown relationship code {other}"))),
    }
}

pub(crate) fn corrupt(message: String) -> EdgeperfError {
    EdgeperfError::Segment { message }
}

pub(crate) const FLAG_LONGER_PATH: u8 = 1;
pub(crate) const FLAG_MORE_PREPENDED: u8 = 2;

/// The version-1 format: one unindexed run of rows, read whole.
const VERSION_1: u8 = 1;

/// Most rows in one row group. 512 rows encode to ~34 KB — small enough
/// that a point query decodes little it does not return and a k-way
/// merge holds a group per input, large enough that the 46-byte index
/// entry and 12-byte group frame stay near 0.2 % of the file.
pub const GROUP_ROWS: usize = 512;

/// Magic + version.
const HEADER_LEN: usize = SEGMENT_MAGIC.len() + 1;

/// Magic closing every version-2 file (the trailer's last four bytes).
const TRAILER_MAGIC: [u8; 4] = *b"GSPE";

/// Footer offset (u64), footer length (u32), [`TRAILER_MAGIC`].
const TRAILER_LEN: usize = 16;

/// Encoded [`cell_sort_key`]: 4 + 2 + 4 + 1 + 2 + 1 + 1.
const KEY_LEN: usize = 15;

/// One footer entry: offset (u64), length (u32), rows (u32), two keys.
const ENTRY_LEN: usize = 16 + 2 * KEY_LEN;

/// The columns every row has: 4+2+4+1+2+1+1+1+1 + 8*4.
const FIXED_ROW_BYTES: u64 = 49;

/// Bytes of a row group's frame: its row count and its checksum.
const GROUP_FRAME: usize = 4 + 8;

/// The shortest image there is: a version-1 segment of no rows.
const MIN_IMAGE_LEN: u64 = (HEADER_LEN + GROUP_FRAME) as u64;

/// The shortest version-2 image: header, empty footer, trailer.
const MIN_V2_LEN: u64 = (HEADER_LEN + 8 + TRAILER_LEN) as u64;

/// The fewest bytes `rows` rows can encode to (no optional statistic
/// present): the bound that rejects a forged count before it sizes an
/// allocation.
fn min_columns_len(rows: u32) -> u64 {
    let rows = u64::from(rows);
    rows * FIXED_ROW_BYTES + 3 * rows.div_ceil(8)
}

/// The most: all three optional statistics present on every row.
fn max_columns_len(rows: u32) -> u64 {
    min_columns_len(rows) + u64::from(rows) * 24
}

/// Can `len` bytes be the columns of exactly `rows` rows?
fn columns_fit(rows: u32, len: u64) -> bool {
    (min_columns_len(rows)..=max_columns_len(rows)).contains(&len)
}

/// The FxHash every durable artifact of the tree is closed with.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h = crate::hash::FxHasher::default();
    h.write(bytes);
    h.finish()
}

/// `cells` as a row count and one column per field, appended to `out`.
fn encode_columns(out: &mut Vec<u8>, cells: &[WindowCell]) {
    let n = u32::try_from(cells.len()).expect("a row group's count fits u32");
    out.extend_from_slice(&n.to_le_bytes());
    column(out, cells, |c| c.window.to_le_bytes());
    column(out, cells, |c| c.pop.to_le_bytes());
    column(out, cells, |c| c.prefix_base.to_le_bytes());
    column(out, cells, |c| [c.prefix_len]);
    column(out, cells, |c| c.country.to_le_bytes());
    column(out, cells, |c| [c.continent]);
    column(out, cells, |c| [c.rank]);
    column(out, cells, |c| [(c.flags >> REL_SHIFT) & 3]);
    column(out, cells, |c| [c.flags & (FLAG_LONGER_PATH | FLAG_MORE_PREPENDED)]);
    column(out, cells, |c| c.n.to_le_bytes());
    column(out, cells, |c| c.n_tested.to_le_bytes());
    column(out, cells, |c| c.bytes.to_le_bytes());
    column(out, cells, |c| c.min_rtt_p50.to_le_bytes());
    (0..3).for_each(|i| encode_optional(out, cells, i));
}

/// One fixed-width column: every row's `bytes`, in row order.
fn column<const N: usize>(
    out: &mut Vec<u8>,
    cells: &[WindowCell],
    bytes: impl Fn(&WindowCell) -> [u8; N],
) {
    cells.iter().for_each(|c| out.extend_from_slice(&bytes(c)));
}

/// Optional statistic `i`'s presence bitmap (LSB-first within each byte)
/// then the present values' raw bits, in row order.
fn encode_optional(out: &mut Vec<u8>, cells: &[WindowCell], i: usize) {
    let bitmap = out.len();
    out.resize(bitmap + cells.len().div_ceil(8), 0);
    for (row, c) in cells.iter().enumerate() {
        if let Some(v) = c.get_optional(i) {
            out[bitmap + row / 8] |= 1 << (row % 8);
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
}

fn encode_key(out: &mut Vec<u8>, key: &CellSortKey) {
    out.extend_from_slice(&key.0.to_le_bytes());
    out.extend_from_slice(&key.1.to_le_bytes());
    out.extend_from_slice(&key.2.to_le_bytes());
    out.push(key.3);
    out.extend_from_slice(&key.4.to_le_bytes());
    out.extend_from_slice(&[key.5, key.6]);
}

/// A bounds-checked little-endian reader over encoded bytes.
pub(crate) struct Reader<'a> {
    pub(crate) bytes: &'a [u8],
    pub(crate) at: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], EdgeperfError> {
        let end =
            self.at.checked_add(n).filter(|&end| end <= self.bytes.len()).ok_or_else(|| {
                corrupt(format!("truncated at byte {} (wanted {n} more)", self.at))
            })?;
        let s = &self.bytes[self.at..end];
        self.at = end;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, EdgeperfError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> Result<u16, EdgeperfError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, EdgeperfError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, EdgeperfError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn key(&mut self) -> Result<CellSortKey, EdgeperfError> {
        Ok((self.u32()?, self.u16()?, self.u32()?, self.u8()?, self.u16()?, self.u8()?, self.u8()?))
    }

    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }
}

/// Split `bytes` into what its trailing checksum covers, verified.
pub(crate) fn checked_body(bytes: &[u8]) -> Result<&[u8], EdgeperfError> {
    let Some(at) = bytes.len().checked_sub(8) else {
        return Err(corrupt(format!("{} bytes cannot hold a checksum", bytes.len())));
    };
    let (body, tail) = bytes.split_at(at);
    let stored = u64::from_le_bytes(tail.try_into().expect("8 bytes"));
    let computed = checksum(body);
    if stored != computed {
        return Err(corrupt(format!(
            "checksum mismatch (stored {stored:#x}, computed {computed:#x})"
        )));
    }
    Ok(body)
}

/// Decode a row count and that many rows' columns — the whole of what
/// `r` has left — appending the rows to `out`.
fn decode_columns(r: &mut Reader<'_>, out: &mut Vec<WindowCell>) -> Result<(), EdgeperfError> {
    let n = r.u32()?;
    // Length arithmetic before the allocation: a forged count cannot
    // size a vector its own bytes could not fill.
    if !columns_fit(n, r.remaining() as u64) {
        return Err(corrupt(format!("{n} rows cannot fill {} bytes", r.remaining())));
    }
    let start = out.len();
    out.resize(start + n as usize, WindowCell::default());
    let cells = &mut out[start..];
    read_column(r, cells, |c, b| c.window = u32::from_le_bytes(b))?;
    read_column(r, cells, |c, b| c.pop = u16::from_le_bytes(b))?;
    read_column(r, cells, |c, b| c.prefix_base = u32::from_le_bytes(b))?;
    read_column(r, cells, |c, [b]| c.prefix_len = b)?;
    read_column(r, cells, |c, b| c.country = u16::from_le_bytes(b))?;
    read_column(r, cells, |c, [b]| c.continent = b)?;
    read_column(r, cells, |c, [b]| c.rank = b)?;
    for c in &mut *cells {
        let code = r.u8()?;
        rel_from_code(code)?;
        c.flags = code << REL_SHIFT;
    }
    for c in &mut *cells {
        let flags = r.u8()?;
        if flags & !(FLAG_LONGER_PATH | FLAG_MORE_PREPENDED) != 0 {
            return Err(corrupt(format!("unknown flag bits {flags:#04x}")));
        }
        c.flags |= flags;
    }
    read_column(r, cells, |c, b| c.n = u64::from_le_bytes(b))?;
    read_column(r, cells, |c, b| c.n_tested = u64::from_le_bytes(b))?;
    read_column(r, cells, |c, b| c.bytes = u64::from_le_bytes(b))?;
    read_column(r, cells, |c, b| c.min_rtt_p50 = f64::from_le_bytes(b))?;
    for i in 0..3 {
        let bitmap = r.take(cells.len().div_ceil(8))?;
        for (row, c) in cells.iter_mut().enumerate() {
            if bitmap[row / 8] & (1 << (row % 8)) != 0 {
                c.set_optional(i, f64::from_bits(r.u64()?));
            }
        }
    }
    if r.remaining() != 0 {
        return Err(corrupt(format!("{} trailing bytes after the last column", r.remaining())));
    }
    Ok(())
}

/// Read one fixed-width column into every row through `set`.
fn read_column<const N: usize>(
    r: &mut Reader<'_>,
    cells: &mut [WindowCell],
    set: impl Fn(&mut WindowCell, [u8; N]),
) -> Result<(), EdgeperfError> {
    for c in cells {
        set(c, r.take(N)?.try_into().expect("N bytes"));
    }
    Ok(())
}

/// Decode a whole version-1 image: checksum, header, then every row.
fn decode_v1(bytes: &[u8], out: &mut Vec<WindowCell>) -> Result<(), EdgeperfError> {
    let mut r = Reader { bytes: checked_body(bytes)?, at: 0 };
    let head = r.take(HEADER_LEN)?;
    if head[..SEGMENT_MAGIC.len()] != SEGMENT_MAGIC || head[HEADER_LEN - 1] != VERSION_1 {
        return Err(corrupt(format!("bad version-1 header {head:02x?}")));
    }
    decode_columns(&mut r, out)
}

/// Where one row group sits in its file and what it holds — one footer
/// entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupEntry {
    /// Byte offset of the group in the file.
    pub offset: u64,
    /// Encoded length, frame included.
    pub len: u32,
    /// Rows in the group.
    pub rows: u32,
    /// Smallest [`cell_sort_key`] among them.
    pub first: CellSortKey,
    /// Largest.
    pub last: CellSortKey,
}

/// A segment's verified footer: every row group's place and key range.
/// Small (46 bytes per ≤ [`GROUP_ROWS`] rows), so the store keeps one in
/// RAM per segment and picks the groups a query needs without touching
/// the disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentIndex {
    version: u8,
    groups: Vec<GroupEntry>,
}

impl SegmentIndex {
    /// The row groups, in file order.
    pub fn groups(&self) -> &[GroupEntry] {
        &self.groups
    }

    /// Rows across every group.
    pub fn rows(&self) -> u64 {
        self.groups.iter().map(|g| u64::from(g.rows)).sum()
    }

    /// The `(first, last)` window any group covers, `None` when empty.
    pub fn window_span(&self) -> Option<(u32, u32)> {
        let first = self.groups.iter().map(|g| g.first.0).min()?;
        Some((first, self.groups.iter().map(|g| g.last.0).max()?))
    }

    /// Index a whole image held in memory.
    pub fn of_image(bytes: &[u8]) -> Result<SegmentIndex, EdgeperfError> {
        Self::read(bytes.len() as u64, |buf, offset| {
            let at = usize::try_from(offset).expect("below the image length");
            buf.copy_from_slice(&bytes[at..at + buf.len()]);
            Ok(())
        })
    }

    /// Index an open segment file: three small reads — header, trailer,
    /// footer.
    pub fn of_file(file: &File) -> Result<SegmentIndex, EdgeperfError> {
        let len = file.metadata().map_err(|e| corrupt(format!("stat segment: {e}")))?.len();
        Self::read(len, |buf, offset| read_at(file, buf, offset))
    }

    /// Index a `len`-byte image through `read_at`, which is only ever
    /// asked for ranges already checked to lie inside `len`. A version-1
    /// image is one group spanning the file, with unbounded keys.
    fn read(
        len: u64,
        read_at: impl Fn(&mut [u8], u64) -> Result<(), EdgeperfError>,
    ) -> Result<SegmentIndex, EdgeperfError> {
        let too_short = || corrupt(format!("{len} bytes is too short for a segment"));
        if len < MIN_IMAGE_LEN {
            return Err(too_short());
        }
        let mut head = [0u8; HEADER_LEN + 4];
        read_at(&mut head, 0)?;
        let mut r = Reader { bytes: &head, at: 0 };
        let magic = r.take(SEGMENT_MAGIC.len())?;
        if magic != SEGMENT_MAGIC {
            return Err(corrupt(format!("bad magic {magic:02x?}")));
        }
        match r.u8()? {
            VERSION_1 => {
                let rows = r.u32()?;
                let Some(len) =
                    u32::try_from(len).ok().filter(|_| columns_fit(rows, len - MIN_IMAGE_LEN))
                else {
                    return Err(corrupt(format!("{rows} version-1 rows cannot fill {len} bytes")));
                };
                let unbounded = (u32::MAX, u16::MAX, u32::MAX, u8::MAX, u16::MAX, u8::MAX, u8::MAX);
                let whole =
                    GroupEntry { offset: 0, len, rows, first: Default::default(), last: unbounded };
                Ok(SegmentIndex { version: VERSION_1, groups: vec![whole] })
            }
            SEGMENT_VERSION if len < MIN_V2_LEN => Err(too_short()),
            SEGMENT_VERSION => {
                let mut trailer = [0u8; TRAILER_LEN];
                read_at(&mut trailer, len - TRAILER_LEN as u64)?;
                let (offset, footer_len) = parse_trailer(&trailer, len)?;
                let mut footer = vec![0u8; footer_len];
                read_at(&mut footer, offset)?;
                parse_footer(&footer, offset)
            }
            version => Err(corrupt(format!("unsupported segment version {version}"))),
        }
    }

    /// Verify and decode group `i` out of `bytes`, the `len` bytes at its
    /// `offset`, appending its rows to `out`.
    fn decode_group(
        &self,
        i: usize,
        bytes: &[u8],
        out: &mut Vec<WindowCell>,
    ) -> Result<(), EdgeperfError> {
        let before = out.len();
        if self.version == VERSION_1 {
            decode_v1(bytes, out)?;
        } else {
            decode_columns(&mut Reader { bytes: checked_body(bytes)?, at: 0 }, out)?;
        }
        let rows = out.len() - before;
        if rows != self.groups[i].rows as usize {
            return Err(corrupt(format!(
                "group {i} holds {rows} rows, its index entry says {}",
                self.groups[i].rows
            )));
        }
        Ok(())
    }
}

/// Where the footer is, from the trailer of a `len`-byte version-2 file.
/// Nothing here is checksummed; it is arithmetic that holds the trailer
/// to account — the footer must end exactly where the trailer begins.
fn parse_trailer(trailer: &[u8], len: u64) -> Result<(u64, usize), EdgeperfError> {
    let mut r = Reader { bytes: trailer, at: 0 };
    let (offset, footer_len) = (r.u64()?, r.u32()?);
    if r.take(TRAILER_MAGIC.len())? != TRAILER_MAGIC {
        return Err(corrupt("bad trailer magic".to_string()));
    }
    let ends = offset.checked_add(u64::from(footer_len) + TRAILER_LEN as u64);
    if offset < HEADER_LEN as u64 || footer_len < 8 || ends != Some(len) {
        return Err(corrupt(format!(
            "trailer puts a {footer_len}-byte footer at {offset} of {len} bytes"
        )));
    }
    Ok((offset, footer_len as usize))
}

/// Verify the footer found at `offset` and decode its entries, which
/// must tile the bytes between the header and `offset` with groups that
/// can hold the rows they claim.
fn parse_footer(footer: &[u8], offset: u64) -> Result<SegmentIndex, EdgeperfError> {
    let mut r = Reader { bytes: checked_body(footer)?, at: 0 };
    if !r.remaining().is_multiple_of(ENTRY_LEN) {
        return Err(corrupt(format!("footer of {} bytes is not whole entries", footer.len())));
    }
    let mut groups = Vec::with_capacity(r.remaining() / ENTRY_LEN);
    let mut at = HEADER_LEN as u64;
    while r.remaining() > 0 {
        let g = GroupEntry {
            offset: r.u64()?,
            len: r.u32()?,
            rows: r.u32()?,
            first: r.key()?,
            last: r.key()?,
        };
        let columns = u64::from(g.len).checked_sub(GROUP_FRAME as u64);
        let sized = (1..=GROUP_ROWS as u32).contains(&g.rows)
            && columns.is_some_and(|c| columns_fit(g.rows, c));
        if g.offset != at || !sized || g.first > g.last || g.first.0 != g.last.0 {
            return Err(corrupt(format!("footer entry {} is inconsistent: {g:?}", groups.len())));
        }
        at += u64::from(g.len);
        groups.push(g);
    }
    if at != offset {
        return Err(corrupt(format!("groups end at byte {at}, the footer starts at {offset}")));
    }
    Ok(SegmentIndex { version: SEGMENT_VERSION, groups })
}

fn read_at(file: &File, buf: &mut [u8], offset: u64) -> Result<(), EdgeperfError> {
    file.read_exact_at(buf, offset)
        .map_err(|e| corrupt(format!("read {} bytes at {offset}: {e}", buf.len())))
}

/// The smallest and largest [`cell_sort_key`] among `rows`. Rows in
/// order — what the store writes — cost one comparison each.
fn key_range(rows: &[WindowCell]) -> Option<(CellSortKey, CellSortKey)> {
    let mut keys = rows.iter().map(cell_sort_key);
    let first = keys.next()?;
    let mut last = first;
    for key in keys {
        if key < last {
            let keys = rows.iter().map(cell_sort_key);
            return Some(keys.fold((first, first), |(lo, hi), k| (lo.min(k), hi.max(k))));
        }
        last = key;
    }
    Some((first, last))
}

/// Streams rows into a version-2 segment one row group at a time: rows
/// gather until the group is full or the window changes, are encoded
/// into one buffer sized for a full group, and leave in a single write.
/// What the writer holds is a group of rows, that buffer and the index
/// so far — never the segment.
///
/// Rows pushed in [`cell_sort_key`] order make the tightest index; any
/// order is indexed correctly.
pub struct SegmentWriter<W: Write> {
    out: W,
    pending: Vec<WindowCell>,
    buf: Vec<u8>,
    groups: Vec<GroupEntry>,
    offset: u64,
}

impl<W: Write> SegmentWriter<W> {
    /// Start a segment on `out`.
    pub fn new(mut out: W) -> io::Result<SegmentWriter<W>> {
        out.write_all(&SEGMENT_MAGIC)?;
        out.write_all(&[SEGMENT_VERSION])?;
        Ok(SegmentWriter {
            out,
            pending: Vec::with_capacity(GROUP_ROWS),
            buf: Vec::with_capacity(
                GROUP_FRAME + usize::try_from(max_columns_len(GROUP_ROWS as u32)).expect("~37 KB"),
            ),
            groups: Vec::new(),
            offset: HEADER_LEN as u64,
        })
    }

    /// Append one row.
    pub fn push(&mut self, cell: &WindowCell) -> io::Result<()> {
        let fits = self.pending.len() < GROUP_ROWS
            && self.pending.last().is_none_or(|p| p.window == cell.window);
        if !fits {
            self.flush_pending()?;
        }
        self.pending.push(*cell);
        Ok(())
    }

    /// Encode, write and index the pending rows (of one window, at most
    /// [`GROUP_ROWS`]) as one group; nothing for none.
    fn flush_pending(&mut self) -> io::Result<()> {
        let Some((first, last)) = key_range(&self.pending) else { return Ok(()) };
        self.buf.clear();
        encode_columns(&mut self.buf, &self.pending);
        let sum = checksum(&self.buf);
        self.buf.extend_from_slice(&sum.to_le_bytes());
        self.out.write_all(&self.buf)?;
        let len = u32::try_from(self.buf.len()).expect("a row group is a few tens of KB");
        let rows = u32::try_from(self.pending.len()).expect("at most GROUP_ROWS");
        self.pending.clear();
        self.groups.push(GroupEntry { offset: self.offset, len, rows, first, last });
        self.offset += u64::from(len);
        Ok(())
    }

    /// Write the last group, the footer and the trailer; hand back the
    /// sink and the index just written.
    pub fn finish(mut self) -> io::Result<(W, SegmentIndex)> {
        self.flush_pending()?;
        self.buf.clear();
        for g in &self.groups {
            self.buf.extend_from_slice(&g.offset.to_le_bytes());
            self.buf.extend_from_slice(&g.len.to_le_bytes());
            self.buf.extend_from_slice(&g.rows.to_le_bytes());
            encode_key(&mut self.buf, &g.first);
            encode_key(&mut self.buf, &g.last);
        }
        let sum = checksum(&self.buf);
        self.buf.extend_from_slice(&sum.to_le_bytes());
        let footer_len = u32::try_from(self.buf.len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "footer exceeds 4 GiB"))?;
        self.buf.extend_from_slice(&self.offset.to_le_bytes());
        self.buf.extend_from_slice(&footer_len.to_le_bytes());
        self.buf.extend_from_slice(&TRAILER_MAGIC);
        self.out.write_all(&self.buf)?;
        Ok((self.out, SegmentIndex { version: SEGMENT_VERSION, groups: self.groups }))
    }
}

/// Reads a segment file one verified row group at a time, through a
/// buffer its caller lends — so readers that take turns, like a merge's
/// inputs, share one.
pub struct SegmentReader {
    file: File,
    index: Arc<SegmentIndex>,
}

impl SegmentReader {
    /// Open the segment at `path` and verify its index.
    pub fn open(path: &Path) -> Result<SegmentReader, EdgeperfError> {
        let file = File::open(path)
            .map_err(|e| corrupt(format!("open segment {}: {e}", path.display())))?;
        let index = Arc::new(SegmentIndex::of_file(&file)?);
        Ok(SegmentReader::new(file, index))
    }

    /// Read `file` through an index already verified for it.
    pub fn new(file: File, index: Arc<SegmentIndex>) -> SegmentReader {
        SegmentReader { file, index }
    }

    /// The segment's index.
    pub fn index(&self) -> &SegmentIndex {
        &self.index
    }

    /// Read, verify and decode row group `i`, appending its rows to
    /// `out`. One positioned read of exactly that group's bytes, into
    /// `buf`.
    pub fn read_group(
        &self,
        i: usize,
        buf: &mut Vec<u8>,
        out: &mut Vec<WindowCell>,
    ) -> Result<(), EdgeperfError> {
        let g = self.index.groups[i];
        buf.resize(g.len as usize, 0);
        read_at(&self.file, buf, g.offset)?;
        self.index.decode_group(i, buf, out)
    }
}

/// Encode `cells` into a self-checking segment image, in the order given.
pub fn encode_segment(cells: &[WindowCell]) -> Vec<u8> {
    let image = Vec::with_capacity(64 + cells.len() * 80);
    let mut writer = SegmentWriter::new(image).expect("a Vec takes every write");
    cells.iter().try_for_each(|c| writer.push(c)).expect("a Vec takes every write");
    writer.finish().expect("a Vec takes every write").0
}

/// Decode a segment image of either version, verifying every checksum
/// and all length arithmetic before any row is surfaced.
pub fn decode_segment(bytes: &[u8]) -> Result<Vec<WindowCell>, EdgeperfError> {
    let index = SegmentIndex::of_image(bytes)?;
    let mut cells = Vec::with_capacity(usize::try_from(index.rows()).expect("bounded by len"));
    for (i, g) in index.groups.iter().enumerate() {
        let at = usize::try_from(g.offset).expect("inside the image");
        index.decode_group(i, &bytes[at..at + g.len as usize], &mut cells)?;
    }
    Ok(cells)
}

const STAGING_SUFFIX: &str = ".tmp";

fn staging_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(STAGING_SUFFIX);
    path.with_file_name(name)
}

/// A file on its way to `path`: bytes are written beside it under a
/// staging name, and [`commit`](Self::commit) renames them into place. A
/// crash (or a drop) before the commit leaves an orphan staging file; a
/// reader can never observe a torn file at `path` itself. This is the
/// one sanctioned way to write durable artifacts (segments, manifests,
/// checkpoints) — `scripts/gates.sh` greps direct `std::fs::write` and
/// `File::create` out of the live, fleet and world tiers.
pub struct StagedFile {
    file: File,
    path: PathBuf,
}

impl StagedFile {
    /// Start staging the file that [`commit`](Self::commit) publishes at
    /// `path`.
    pub fn create(path: &Path) -> io::Result<StagedFile> {
        Ok(StagedFile { file: File::create(staging_path(path))?, path: path.to_path_buf() })
    }

    /// Publish the staged bytes at the path given to
    /// [`create`](Self::create).
    pub fn commit(self) -> io::Result<()> {
        drop(self.file);
        std::fs::rename(staging_path(&self.path), &self.path)
    }

    /// Is `path` a staging name — what an uncommitted [`StagedFile`]
    /// leaves behind?
    pub fn is_staging(path: &Path) -> bool {
        path.file_name().and_then(|n| n.to_str()).is_some_and(|n| n.ends_with(STAGING_SUFFIX))
    }
}

impl Write for StagedFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.file.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.file.flush()
    }
}

/// Write `bytes` to `path` through a [`StagedFile`].
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut staged = StagedFile::create(path)?;
    staged.write_all(bytes)?;
    staged.commit()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn relationship(i: u32) -> Relationship {
        [Relationship::PrivatePeer, Relationship::PublicPeer, Relationship::Transit][i as usize % 3]
    }

    fn group(i: u32) -> GroupKey {
        GroupKey {
            pop: PopId(u16::try_from(i % 5).unwrap()),
            prefix: Prefix { base: 0x0A00_0000 + (i << 8), len: 24 },
            country: u16::try_from(i % 40).unwrap(),
            continent: u8::try_from(i % 6).unwrap(),
        }
    }

    fn summary(i: u32) -> CellSummary {
        CellSummary {
            n: i as usize * 31 + 1,
            n_tested: i as usize * 17,
            bytes: u64::from(i) * 100_003,
            min_rtt_p50: 15.0 + f64::from(i) * 0.37,
            min_rtt_var: (!i.is_multiple_of(4)).then(|| 0.01 + f64::from(i) * 1e-4),
            hdratio_p50: (i % 3 != 1).then(|| (f64::from(i % 100)) / 100.0),
            hdratio_var: (i % 6 == 2).then(|| 3e-5 * f64::from(i + 1)),
            relationship: relationship(i),
            longer_path: i.is_multiple_of(5),
            more_prepended: i.is_multiple_of(7),
        }
    }

    fn cell(i: u32) -> WindowCell {
        WindowCell::new(i / 3, group(i), u8::try_from(i % 2).unwrap(), &summary(i))
    }

    /// Counts, route annotations and floats as their bits: equal means
    /// bit-identical.
    type Bits = ((u64, u64, u64), (Relationship, bool, bool), [Option<u64>; 4]);

    fn summary_bits(s: &CellSummary) -> Bits {
        let floats = [Some(s.min_rtt_p50), s.min_rtt_var, s.hdratio_p50, s.hdratio_var];
        let count = |n: usize| u64::try_from(n).unwrap();
        (
            (count(s.n), count(s.n_tested), s.bytes),
            (s.relationship, s.longer_path, s.more_prepended),
            floats.map(|f| f.map(f64::to_bits)),
        )
    }

    fn row_bits(c: &WindowCell) -> Bits {
        let floats = [Some(c.min_rtt_p50), c.min_rtt_var(), c.hdratio_p50(), c.hdratio_var()];
        (
            (c.n, c.n_tested, c.bytes),
            (c.relationship(), c.longer_path(), c.more_prepended()),
            floats.map(|f| f.map(f64::to_bits)),
        )
    }

    fn assert_bits_equal(a: &WindowCell, b: &WindowCell) {
        assert_eq!((a.window, a.group(), a.rank), (b.window, b.group(), b.rank));
        assert_eq!(row_bits(a), row_bits(b));
    }

    #[test]
    fn roundtrip_is_bit_identical() {
        let cells: Vec<WindowCell> = (0..257).map(cell).collect();
        let image = encode_segment(&cells);
        let back = decode_segment(&image).expect("decodes");
        assert_eq!(back.len(), cells.len());
        for (a, b) in cells.iter().zip(&back) {
            assert_bits_equal(a, b);
        }
    }

    #[test]
    fn empty_segment_roundtrips() {
        let image = encode_segment(&[]);
        assert!(decode_segment(&image).expect("decodes").is_empty());
        assert_eq!(SegmentIndex::of_image(&image).expect("indexes").window_span(), None);
    }

    #[test]
    fn any_corrupted_byte_is_detected() {
        let cells: Vec<WindowCell> = (0..40).map(cell).collect();
        let image = encode_segment(&cells);
        // Flip one byte at a spread of offsets (including inside the
        // checksum itself) — every single flip must surface as a typed
        // segment error, never as silently different cells.
        for at in (0..image.len()).step_by(7) {
            let mut bad = image.clone();
            bad[at] ^= 0x40;
            let err = decode_segment(&bad).expect_err("corruption detected");
            assert_eq!(err.reason(), "segment", "byte {at}: {err}");
        }
        // Truncation too.
        assert!(decode_segment(&image[..image.len() - 3]).is_err());
        assert!(decode_segment(&[]).is_err());
    }

    #[test]
    fn groups_hold_one_window_and_at_most_group_rows() {
        // Window 0 fills two groups and starts a third; window 1 must
        // open its own although that third has room.
        let mut cells: Vec<WindowCell> = (0..1_100).map(cell).collect();
        for (i, c) in cells.iter_mut().enumerate() {
            c.window = u32::from(i >= 1_030);
        }
        let image = encode_segment(&cells);
        let index = SegmentIndex::of_image(&image).expect("indexes");
        let rows: Vec<u32> = index.groups().iter().map(|g| g.rows).collect();
        assert_eq!(rows, [512, 512, 6, 70]);
        assert_eq!(index.rows(), 1_100);
        let mut at = 0;
        for g in index.groups() {
            let held = &cells[at..at + g.rows as usize];
            assert_eq!(g.first, held.iter().map(cell_sort_key).min().unwrap());
            assert_eq!(g.last, held.iter().map(cell_sort_key).max().unwrap());
            at += g.rows as usize;
        }
        // Framing costs well under the 3 % the store budgets for it.
        let columns: usize = image.len() - index.groups().len() * (GROUP_FRAME + ENTRY_LEN);
        assert!(image.len() * 100 < columns * 101, "{} vs {columns}", image.len());
    }

    #[test]
    fn a_staged_file_reads_back_group_by_group() {
        let path =
            std::env::temp_dir().join(format!("edgeperf-segment-{}.seg", std::process::id()));
        let cells: Vec<WindowCell> = (0..700).map(cell).collect();
        let staged = StagedFile::create(&path).expect("stages");
        let mut writer = SegmentWriter::new(staged).expect("starts");
        for c in &cells {
            writer.push(c).expect("writes");
        }
        let (staged, written) = writer.finish().expect("finishes");
        assert!(!path.exists(), "only the staged file exists until the commit");
        assert!(StagedFile::is_staging(&staging_path(&path)) && !StagedFile::is_staging(&path));
        staged.commit().expect("renames");
        assert!(!staging_path(&path).exists(), "the commit is a rename, not a copy");
        assert_eq!(std::fs::read(&path).expect("reads"), encode_segment(&cells));

        let reader = SegmentReader::open(&path).expect("opens");
        assert_eq!(*reader.index(), written);
        let (mut back, mut buf) = (Vec::new(), Vec::new());
        for i in 0..written.groups().len() {
            let before = back.len();
            reader.read_group(i, &mut buf, &mut back).expect("group verifies");
            assert_eq!(back.len() - before, written.groups()[i].rows as usize);
        }
        for (a, b) in cells.iter().zip(&back) {
            assert_bits_equal(a, b);
        }
        assert_eq!(back.len(), cells.len());
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn sort_is_total_over_distinct_cells() {
        let mut cells: Vec<WindowCell> = (0..100).map(cell).collect();
        sort_cells(&mut cells);
        for pair in cells.windows(2) {
            assert!(cell_sort_key(&pair[0]) <= cell_sort_key(&pair[1]));
        }
        let index = SegmentIndex::of_image(&encode_segment(&cells)).expect("indexes");
        assert_eq!(index.window_span(), Some((0, 33)));
    }

    #[test]
    fn staging_path_appends_tmp() {
        assert_eq!(
            staging_path(Path::new("/x/seg-00000007.seg")),
            PathBuf::from("/x/seg-00000007.seg.tmp")
        );
    }

    /// Pack a cell into its row and take it back out.
    fn repacked(window: u32, group: GroupKey, rank: u8, s: &CellSummary) -> WindowCell {
        let row = WindowCell::new(window, group, rank, s);
        assert_eq!((row.window, row.group(), row.rank), (window, group, rank));
        assert_eq!(row_bits(&row), summary_bits(s));
        row
    }

    /// Float bit patterns a packing could lose: both zeros, NaNs of
    /// either sign with any payload (quiet or signalling), subnormals,
    /// infinities, and anything at all.
    fn odd_float() -> impl Strategy<Value = f64> {
        (0u8..7, 1u64..1 << 52, any::<u64>()).prop_map(|(class, payload, raw)| match class {
            0 => -0.0,
            1 => 0.0,
            2 => f64::INFINITY,
            3 => f64::from_bits(0x7FF0_0000_0000_0000 | payload),
            4 => f64::from_bits(0xFFF0_0000_0000_0000 | payload),
            5 => f64::from_bits(payload),
            _ => f64::from_bits(raw),
        })
    }

    fn odd_count() -> impl Strategy<Value = u64> {
        (0u8..3, any::<u64>()).prop_map(|(class, raw)| [u64::MAX, 0, raw][usize::from(class)])
    }

    /// Every presence combination of the three optional statistics, every
    /// relationship and both route flags: 96 rows, each reading back the
    /// summary it was packed from.
    #[test]
    fn packing_keeps_every_option_relationship_and_flag() {
        let group = group(7);
        for present in 0..8u8 {
            for rel in 0..3 {
                for route in 0..4u8 {
                    let (longer_path, more_prepended) = (route & 1 != 0, route & 2 != 0);
                    let s = CellSummary {
                        n: usize::MAX,
                        n_tested: 0,
                        bytes: u64::MAX,
                        min_rtt_p50: -0.0,
                        min_rtt_var: (present & 1 != 0)
                            .then(|| f64::from_bits(0x7FF0_0000_0000_0001)),
                        hdratio_p50: (present & 2 != 0).then_some(-0.0),
                        hdratio_var: (present & 4 != 0).then(|| f64::from_bits(1)),
                        relationship: relationship(rel),
                        longer_path,
                        more_prepended,
                    };
                    repacked(u32::MAX, group, u8::MAX, &s);
                }
            }
        }
    }

    proptest! {
        /// Packing is lossless: whatever the group, rank, counts and
        /// float bits, a (key, summary) pair comes back out of its
        /// 72-byte row bit for bit.
        #[test]
        fn prop_packing_is_lossless(
            key in (any::<u32>(), any::<u16>(), any::<u32>(), any::<u8>(), any::<u16>(), any::<u8>(), any::<u8>()),
            counts in (odd_count(), odd_count(), odd_count()),
            floats in (odd_float(), odd_float(), odd_float(), odd_float()),
            present in 0u8..8,
            route in (0u32..3, any::<bool>(), any::<bool>()),
        ) {
            let (window, pop, base, len, country, continent, rank) = key;
            let group = GroupKey { pop: PopId(pop), prefix: Prefix { base, len }, country, continent };
            let s = CellSummary {
                n: usize::try_from(counts.0).unwrap(),
                n_tested: usize::try_from(counts.1).unwrap(),
                bytes: counts.2,
                min_rtt_p50: floats.0,
                min_rtt_var: (present & 1 != 0).then_some(floats.1),
                hdratio_p50: (present & 2 != 0).then_some(floats.2),
                hdratio_var: (present & 4 != 0).then_some(floats.3),
                relationship: relationship(route.0),
                longer_path: route.1,
                more_prepended: route.2,
            };
            let row = repacked(window, group, rank, &s);
            // And the codec keeps what the row holds.
            let back = decode_segment(&encode_segment(&[row])).expect("decodes");
            assert_bits_equal(&back[0], &row);
        }

        /// Arbitrary f64 bit patterns (including NaNs, infinities, -0.0
        /// and subnormals) survive the codec bit-exactly, and presence
        /// of the optional statistics is preserved per row.
        #[test]
        fn prop_roundtrip_preserves_arbitrary_bits(
            rows in prop::collection::vec(
                (
                    any::<u32>(),
                    any::<u64>(),
                    any::<u64>(),
                    prop::option::of(any::<u64>()),
                    prop::option::of(any::<u64>()),
                ),
                0..64,
            )
        ) {
            let cells: Vec<WindowCell> = rows
                .iter()
                .enumerate()
                .map(|(i, &(window, nbits, p50bits, varbits, hdbits))| {
                    let i = u32::try_from(i).unwrap();
                    let summary = CellSummary {
                        n: usize::try_from(nbits).unwrap(),
                        min_rtt_p50: f64::from_bits(p50bits),
                        min_rtt_var: varbits.map(f64::from_bits),
                        hdratio_var: hdbits.map(f64::from_bits),
                        ..summary(i)
                    };
                    WindowCell::new(window, group(i), cell(i).rank, &summary)
                })
                .collect();
            let back = decode_segment(&encode_segment(&cells)).expect("decodes");
            prop_assert_eq!(back.len(), cells.len());
            for (a, b) in cells.iter().zip(&back) {
                assert_bits_equal(a, b);
            }
        }
    }
}
