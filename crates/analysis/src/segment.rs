//! Columnar on-disk segment codec for the tiered window store, plus the
//! atomic-write discipline every durable artifact in the tree shares.
//!
//! A *segment* is the unit the live tier spills closed windows into: a
//! flat run of [`WindowCell`] rows — one per (window, group, route-rank)
//! cell, exactly the plain-data summary a closed live window carries —
//! encoded column-major like [`crate::columnar::ColumnarShard`] keeps its
//! in-memory cells (all windows, then all pops, then all prefixes, …).
//! Columnar order makes the common time-range scan a few contiguous
//! reads and compresses trivially if a transport wants to.
//!
//! Float statistics are stored as raw little-endian `f64` bit patterns,
//! so a decode → merge → query path is **bit-identical** to the
//! never-spilled in-RAM cells: spilling is a change of address, not of
//! value. Optional statistics (Price–Bonett variances, HDratio medians)
//! are a presence bitmap followed by the present values only.
//!
//! Every segment ends with an FxHash checksum over the preceding bytes;
//! decode verifies magic, version, length arithmetic and checksum before
//! trusting any row, and reports problems as the typed
//! [`EdgeperfError::Segment`]. Writers must go through [`atomic_write`]
//! (write `<path>.tmp`, then rename) — the same tmp + rename discipline
//! the supervisor checkpoint uses — so a crash mid-write can only ever
//! leave an orphan temp file, never a torn segment at a live path.

use crate::dataset::CellSummary;
use crate::record::GroupKey;
use edgeperf_core::EdgeperfError;
use edgeperf_routing::{PopId, Prefix, Relationship};
use std::hash::Hasher;
use std::io;
use std::path::{Path, PathBuf};

/// Magic bytes opening every segment file.
pub const SEGMENT_MAGIC: [u8; 4] = *b"EPSG";

/// Current segment format version.
pub const SEGMENT_VERSION: u8 = 1;

/// One spilled cell: the flat, storage-neutral form of a closed live
/// window's ((group, rank), summary) entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowCell {
    /// Window index (`floor(ts / window_ms)`).
    pub window: u32,
    /// The cell's user group.
    pub group: GroupKey,
    /// Route rank (0 = preferred).
    pub rank: u8,
    /// Relationship of the route measured by this cell.
    pub relationship: Relationship,
    /// This route's AS path is longer than the preferred route's.
    pub longer_path: bool,
    /// This route is prepended more than the preferred route.
    pub more_prepended: bool,
    /// Sessions recorded.
    pub n: u64,
    /// Sessions with an HDratio.
    pub n_tested: u64,
    /// Traffic bytes.
    pub bytes: u64,
    /// Median MinRTT (ms).
    pub min_rtt_p50: f64,
    /// Price–Bonett variance of the MinRTT median.
    pub min_rtt_var: Option<f64>,
    /// Median HDratio.
    pub hdratio_p50: Option<f64>,
    /// Price–Bonett variance of the HDratio median.
    pub hdratio_var: Option<f64>,
}

impl WindowCell {
    /// The row for summary `s` of cell (`window`, `group`, `rank`).
    pub fn new(window: u32, group: GroupKey, rank: u8, s: &CellSummary) -> WindowCell {
        WindowCell {
            window,
            group,
            rank,
            relationship: s.relationship,
            longer_path: s.longer_path,
            more_prepended: s.more_prepended,
            n: u64::try_from(s.n).expect("usize fits u64"),
            n_tested: u64::try_from(s.n_tested).expect("usize fits u64"),
            bytes: s.bytes,
            min_rtt_p50: s.min_rtt_p50,
            min_rtt_var: s.min_rtt_var,
            hdratio_p50: s.hdratio_p50,
            hdratio_var: s.hdratio_var,
        }
    }

    /// The summary this row stores, bit for bit.
    pub fn summary(&self) -> CellSummary {
        CellSummary {
            n: usize::try_from(self.n).unwrap_or(usize::MAX),
            n_tested: usize::try_from(self.n_tested).unwrap_or(usize::MAX),
            bytes: self.bytes,
            min_rtt_p50: self.min_rtt_p50,
            min_rtt_var: self.min_rtt_var,
            hdratio_p50: self.hdratio_p50,
            hdratio_var: self.hdratio_var,
            relationship: self.relationship,
            longer_path: self.longer_path,
            more_prepended: self.more_prepended,
        }
    }
}

/// Canonical query/compaction order: (window, group fields, rank). Two
/// distinct cells can never tie — (window, group, rank) addresses a cell
/// uniquely — so the order is total and merge output is deterministic.
pub fn cell_sort_key(c: &WindowCell) -> (u32, u16, u32, u8, u16, u8, u8) {
    (
        c.window,
        c.group.pop.0,
        c.group.prefix.base,
        c.group.prefix.len,
        c.group.country,
        c.group.continent,
        c.rank,
    )
}

/// Sort cells into the canonical time-sorted order (see [`cell_sort_key`]).
pub fn sort_cells(cells: &mut [WindowCell]) {
    cells.sort_by_key(cell_sort_key);
}

fn rel_code(r: Relationship) -> u8 {
    match r {
        Relationship::PrivatePeer => 0,
        Relationship::PublicPeer => 1,
        Relationship::Transit => 2,
    }
}

fn rel_from_code(code: u8) -> Result<Relationship, EdgeperfError> {
    match code {
        0 => Ok(Relationship::PrivatePeer),
        1 => Ok(Relationship::PublicPeer),
        2 => Ok(Relationship::Transit),
        other => Err(corrupt(format!("unknown relationship code {other}"))),
    }
}

fn corrupt(message: String) -> EdgeperfError {
    EdgeperfError::Segment { message }
}

const FLAG_LONGER_PATH: u8 = 1;
const FLAG_MORE_PREPENDED: u8 = 2;

fn checksum(bytes: &[u8]) -> u64 {
    let mut h = crate::hash::FxHasher::default();
    h.write(bytes);
    h.finish()
}

/// Encode `cells` into a self-checking columnar segment image.
pub fn encode_segment(cells: &[WindowCell]) -> Vec<u8> {
    let n = cells.len();
    // Fixed columns: 4+2+4+1+2+1+1+1+1 + 8*3 + 8 = 49 bytes/cell, plus
    // three optional-column bitmaps and up to three more f64s.
    let mut out = Vec::with_capacity(16 + n * 80);
    out.extend_from_slice(&SEGMENT_MAGIC);
    out.push(SEGMENT_VERSION);
    out.extend_from_slice(&u32::try_from(n).expect("segment cell count fits u32").to_le_bytes());
    for c in cells {
        out.extend_from_slice(&c.window.to_le_bytes());
    }
    for c in cells {
        out.extend_from_slice(&c.group.pop.0.to_le_bytes());
    }
    for c in cells {
        out.extend_from_slice(&c.group.prefix.base.to_le_bytes());
    }
    for c in cells {
        out.push(c.group.prefix.len);
    }
    for c in cells {
        out.extend_from_slice(&c.group.country.to_le_bytes());
    }
    for c in cells {
        out.push(c.group.continent);
    }
    for c in cells {
        out.push(c.rank);
    }
    for c in cells {
        out.push(rel_code(c.relationship));
    }
    for c in cells {
        let mut flags = 0u8;
        if c.longer_path {
            flags |= FLAG_LONGER_PATH;
        }
        if c.more_prepended {
            flags |= FLAG_MORE_PREPENDED;
        }
        out.push(flags);
    }
    for c in cells {
        out.extend_from_slice(&c.n.to_le_bytes());
    }
    for c in cells {
        out.extend_from_slice(&c.n_tested.to_le_bytes());
    }
    for c in cells {
        out.extend_from_slice(&c.bytes.to_le_bytes());
    }
    for c in cells {
        out.extend_from_slice(&c.min_rtt_p50.to_bits().to_le_bytes());
    }
    encode_optional(&mut out, cells, |c| c.min_rtt_var);
    encode_optional(&mut out, cells, |c| c.hdratio_p50);
    encode_optional(&mut out, cells, |c| c.hdratio_var);
    let sum = checksum(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Presence bitmap (LSB-first within each byte) then the present values'
/// raw bits, in row order.
fn encode_optional(
    out: &mut Vec<u8>,
    cells: &[WindowCell],
    get: impl Fn(&WindowCell) -> Option<f64>,
) {
    let mut bitmap = vec![0u8; cells.len().div_ceil(8)];
    for (i, c) in cells.iter().enumerate() {
        if get(c).is_some() {
            bitmap[i / 8] |= 1 << (i % 8);
        }
    }
    out.extend_from_slice(&bitmap);
    for c in cells {
        if let Some(v) = get(c) {
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
}

/// A bounds-checked little-endian reader over the segment image.
struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], EdgeperfError> {
        let end =
            self.at.checked_add(n).filter(|&end| end <= self.bytes.len()).ok_or_else(|| {
                corrupt(format!("truncated at byte {} (wanted {n} more)", self.at))
            })?;
        let s = &self.bytes[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u8s(&mut self, n: usize) -> Result<&'a [u8], EdgeperfError> {
        self.take(n)
    }

    fn u16(&mut self) -> Result<u16, EdgeperfError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }

    fn u32(&mut self) -> Result<u32, EdgeperfError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, EdgeperfError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }
}

/// Decode a segment image, verifying magic, version, length arithmetic
/// and the trailing checksum before any row is surfaced.
pub fn decode_segment(bytes: &[u8]) -> Result<Vec<WindowCell>, EdgeperfError> {
    if bytes.len() < SEGMENT_MAGIC.len() + 1 + 4 + 8 {
        return Err(corrupt(format!("{} bytes is too short for a segment", bytes.len())));
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(tail.try_into().expect("8 bytes"));
    let computed = checksum(body);
    if stored != computed {
        return Err(corrupt(format!(
            "checksum mismatch (stored {stored:#x}, computed {computed:#x})"
        )));
    }
    let mut r = Reader { bytes: body, at: 0 };
    let magic = r.take(SEGMENT_MAGIC.len())?;
    if magic != SEGMENT_MAGIC {
        return Err(corrupt(format!("bad magic {magic:02x?}")));
    }
    let version = r.u8s(1)?[0];
    if version != SEGMENT_VERSION {
        return Err(corrupt(format!("unsupported segment version {version}")));
    }
    let n = r.u32()? as usize;
    let mut cells = vec![
        WindowCell {
            window: 0,
            group: GroupKey {
                pop: PopId(0),
                prefix: Prefix { base: 0, len: 0 },
                country: 0,
                continent: 0,
            },
            rank: 0,
            relationship: Relationship::PrivatePeer,
            longer_path: false,
            more_prepended: false,
            n: 0,
            n_tested: 0,
            bytes: 0,
            min_rtt_p50: 0.0,
            min_rtt_var: None,
            hdratio_p50: None,
            hdratio_var: None,
        };
        n
    ];
    for c in &mut cells {
        c.window = r.u32()?;
    }
    for c in &mut cells {
        c.group.pop = PopId(r.u16()?);
    }
    for c in &mut cells {
        c.group.prefix.base = r.u32()?;
    }
    for c in &mut cells {
        c.group.prefix.len = r.u8s(1)?[0];
    }
    for c in &mut cells {
        c.group.country = r.u16()?;
    }
    for c in &mut cells {
        c.group.continent = r.u8s(1)?[0];
    }
    for c in &mut cells {
        c.rank = r.u8s(1)?[0];
    }
    for c in &mut cells {
        c.relationship = rel_from_code(r.u8s(1)?[0])?;
    }
    for c in &mut cells {
        let flags = r.u8s(1)?[0];
        if flags & !(FLAG_LONGER_PATH | FLAG_MORE_PREPENDED) != 0 {
            return Err(corrupt(format!("unknown flag bits {flags:#04x}")));
        }
        c.longer_path = flags & FLAG_LONGER_PATH != 0;
        c.more_prepended = flags & FLAG_MORE_PREPENDED != 0;
    }
    for c in &mut cells {
        c.n = r.u64()?;
    }
    for c in &mut cells {
        c.n_tested = r.u64()?;
    }
    for c in &mut cells {
        c.bytes = r.u64()?;
    }
    for c in &mut cells {
        c.min_rtt_p50 = f64::from_bits(r.u64()?);
    }
    decode_optional(&mut r, &mut cells, |c, v| c.min_rtt_var = v)?;
    decode_optional(&mut r, &mut cells, |c, v| c.hdratio_p50 = v)?;
    decode_optional(&mut r, &mut cells, |c, v| c.hdratio_var = v)?;
    if r.at != body.len() {
        return Err(corrupt(format!("{} trailing bytes after the last column", body.len() - r.at)));
    }
    Ok(cells)
}

fn decode_optional(
    r: &mut Reader<'_>,
    cells: &mut [WindowCell],
    set: impl Fn(&mut WindowCell, Option<f64>),
) -> Result<(), EdgeperfError> {
    let bitmap = r.u8s(cells.len().div_ceil(8))?.to_vec();
    for (i, c) in cells.iter_mut().enumerate() {
        if bitmap[i / 8] & (1 << (i % 8)) != 0 {
            set(c, Some(f64::from_bits(r.u64()?)));
        } else {
            set(c, None);
        }
    }
    Ok(())
}

/// The `(first, last)` window span of a run of cells, `None` when empty.
pub fn window_span(cells: &[WindowCell]) -> Option<(u32, u32)> {
    let mut it = cells.iter().map(|c| c.window);
    let first = it.next()?;
    Some(it.fold((first, first), |(lo, hi), w| (lo.min(w), hi.max(w))))
}

/// The path a writer stages bytes at before renaming over `path`.
pub fn staging_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Stage `bytes` at [`staging_path`] and return that path — the first
/// half of [`atomic_write`], exposed on its own so the tiered store's
/// crash-injection tests can stop between stage and rename.
pub fn stage(path: &Path, bytes: &[u8]) -> io::Result<PathBuf> {
    let tmp = staging_path(path);
    std::fs::write(&tmp, bytes)?;
    Ok(tmp)
}

/// Write `bytes` to `path` atomically: stage at [`staging_path`], then
/// rename. A crash between the two steps leaves an orphan `.tmp` file; a
/// reader can never observe a torn file at `path` itself. This is the
/// one sanctioned way to write durable artifacts (segments, manifests,
/// checkpoints) — CI greps direct `std::fs::write` out of `crates/live`.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = stage(path, bytes)?;
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cell(i: u32) -> WindowCell {
        WindowCell {
            window: i / 3,
            group: GroupKey {
                pop: PopId(u16::try_from(i % 5).unwrap()),
                prefix: Prefix { base: 0x0A00_0000 + (i << 8), len: 24 },
                country: u16::try_from(i % 40).unwrap(),
                continent: u8::try_from(i % 6).unwrap(),
            },
            rank: u8::try_from(i % 2).unwrap(),
            relationship: match i % 3 {
                0 => Relationship::PrivatePeer,
                1 => Relationship::PublicPeer,
                _ => Relationship::Transit,
            },
            longer_path: i.is_multiple_of(5),
            more_prepended: i.is_multiple_of(7),
            n: u64::from(i) * 31 + 1,
            n_tested: u64::from(i) * 17,
            bytes: u64::from(i) * 100_003,
            min_rtt_p50: 15.0 + f64::from(i) * 0.37,
            min_rtt_var: (!i.is_multiple_of(4)).then(|| 0.01 + f64::from(i) * 1e-4),
            hdratio_p50: (i % 3 != 1).then(|| (f64::from(i % 100)) / 100.0),
            hdratio_var: (i % 6 == 2).then(|| 3e-5 * f64::from(i + 1)),
        }
    }

    fn assert_bits_equal(a: &WindowCell, b: &WindowCell) {
        assert_eq!(a.window, b.window);
        assert_eq!(a.group, b.group);
        assert_eq!(a.rank, b.rank);
        assert_eq!(a.relationship, b.relationship);
        assert_eq!(a.longer_path, b.longer_path);
        assert_eq!(a.more_prepended, b.more_prepended);
        assert_eq!(a.n, b.n);
        assert_eq!(a.n_tested, b.n_tested);
        assert_eq!(a.bytes, b.bytes);
        assert_eq!(a.min_rtt_p50.to_bits(), b.min_rtt_p50.to_bits());
        assert_eq!(a.min_rtt_var.map(f64::to_bits), b.min_rtt_var.map(f64::to_bits));
        assert_eq!(a.hdratio_p50.map(f64::to_bits), b.hdratio_p50.map(f64::to_bits));
        assert_eq!(a.hdratio_var.map(f64::to_bits), b.hdratio_var.map(f64::to_bits));
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
        assert_eq!(window_span(&[]), None);
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
    fn sort_is_total_over_distinct_cells() {
        let mut cells: Vec<WindowCell> = (0..100).map(cell).collect();
        sort_cells(&mut cells);
        for pair in cells.windows(2) {
            assert!(cell_sort_key(&pair[0]) <= cell_sort_key(&pair[1]));
        }
        assert_eq!(window_span(&cells), Some((0, 33)));
    }

    #[test]
    fn staging_path_appends_tmp() {
        assert_eq!(
            staging_path(Path::new("/x/seg-00000007.seg")),
            PathBuf::from("/x/seg-00000007.seg.tmp")
        );
    }

    proptest! {
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
                    let mut c = cell(u32::try_from(i).unwrap());
                    c.window = window;
                    c.n = nbits;
                    c.min_rtt_p50 = f64::from_bits(p50bits);
                    c.min_rtt_var = varbits.map(f64::from_bits);
                    c.hdratio_var = hdbits.map(f64::from_bits);
                    c
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
