//! Segment decoders against hostile bytes (ROADMAP: "every decoder that
//! reads bytes off disk is fuzzed"). Whatever `decode_segment` and
//! `SegmentReader` are handed — arbitrary bytes, a valid image cut at any
//! offset or with any one bit flipped, a forged count
//! under a recomputed checksum — the answer is the typed
//! `EdgeperfError::Segment`: never a panic, never rows, and never an
//! allocation sized by anything but bytes that are really there. Runs
//! under the counting allocator in `counting/`, hence one `#[test]`.

mod counting;

use counting::{count_this_thread, largest_request};
use edgeperf_analysis::{
    decode_segment, encode_segment, CellSummary, FxHasher, GroupKey, SegmentIndex, SegmentReader,
    WindowCell,
};
use edgeperf_core::EdgeperfError;
use edgeperf_routing::{PopId, Prefix, Relationship};
use std::hash::Hasher;
use std::path::Path;

/// Row `i` of the image the suite damages.
fn cell(i: u32) -> WindowCell {
    let group = GroupKey {
        pop: PopId(u16::try_from(i % 5).unwrap()),
        prefix: Prefix { base: 0x0A00_0000 + (i << 8), len: 24 },
        country: u16::try_from(i % 40).unwrap(),
        continent: u8::try_from(i % 6).unwrap(),
    };
    let summary = CellSummary {
        n: i as usize * 31 + 1,
        n_tested: i as usize * 17,
        bytes: u64::from(i) * 100_003,
        min_rtt_p50: 15.0 + f64::from(i) * 0.37,
        min_rtt_var: (!i.is_multiple_of(4)).then(|| 0.01 + f64::from(i) * 1e-4),
        hdratio_p50: (i % 3 != 1).then(|| (f64::from(i % 100)) / 100.0),
        hdratio_var: (i % 6 == 2).then(|| 3e-5 * f64::from(i + 1)),
        relationship: match i % 3 {
            0 => Relationship::PrivatePeer,
            1 => Relationship::PublicPeer,
            _ => Relationship::Transit,
        },
        longer_path: i.is_multiple_of(5),
        more_prepended: i.is_multiple_of(7),
    };
    WindowCell::new(i / 3, group, u8::try_from(i % 2).unwrap(), &summary).unwrap()
}

fn same_bits(a: &[WindowCell], b: &[WindowCell]) -> bool {
    let bits = |c: &WindowCell| {
        let floats = [Some(c.min_rtt_p50), c.min_rtt_var(), c.hdratio_p50(), c.hdratio_var()];
        (
            edgeperf_analysis::cell_sort_key(c),
            c.n,
            c.n_tested,
            c.bytes,
            floats.map(|f| f.map(f64::to_bits)),
        )
    };
    a.len() == b.len()
        && a.iter().zip(b).all(|(a, b)| {
            bits(a) == bits(b)
                && (a.relationship(), a.longer_path(), a.more_prepended())
                    == (b.relationship(), b.longer_path(), b.more_prepended())
        })
}

fn checksum(bytes: &[u8]) -> [u8; 8] {
    let mut h = FxHasher::default();
    h.write(bytes);
    h.finish().to_le_bytes()
}

/// The most a decoder may ask the allocator for at once, given `len`
/// bytes of input: the rows those bytes could encode (49 bytes a row at
/// the least, `size_of::<WindowCell>()` in memory) or a copy of the bytes
/// themselves, and an error message.
fn allowance(len: usize) -> usize {
    len * std::mem::size_of::<WindowCell>() / 49 + 512
}

/// Every group of the file at `path`, the way the store reads one: a
/// cleared row buffer per group.
fn read_through_a_reader(path: &Path) -> Result<Vec<WindowCell>, EdgeperfError> {
    let reader = SegmentReader::open(path)?;
    let (mut all, mut rows, mut buf) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..reader.index().groups().len() {
        rows.clear();
        reader.read_group(i, &mut buf, &mut rows)?;
        all.extend_from_slice(&rows);
    }
    Ok(all)
}

/// `bytes` must be refused as a segment error, within the allocation
/// allowance — by `decode_segment`, and written to `file` (when given)
/// by `SegmentReader` too.
fn assert_refused(bytes: &[u8], file: Option<&Path>, what: &str) {
    let (decoded, largest) = largest_request(|| decode_segment(bytes));
    let err = decoded.err().unwrap_or_else(|| panic!("{what}: decode_segment surfaced rows"));
    assert_eq!(err.reason(), "segment", "{what}: {err}");
    assert!(largest <= allowance(bytes.len()), "{what}: decode_segment asked for {largest} B");
    let Some(scratch) = file else { return };
    std::fs::write(scratch, bytes).expect("scratch file");
    let (read, largest) = largest_request(|| read_through_a_reader(scratch));
    let err = read.err().unwrap_or_else(|| panic!("{what}: SegmentReader surfaced rows"));
    assert_eq!(err.reason(), "segment", "{what}: {err}");
    assert!(largest <= allowance(bytes.len()), "{what}: SegmentReader asked for {largest} B");
}

#[test]
fn hostile_bytes_are_refused_without_a_panic_or_an_oversized_allocation() {
    count_this_thread();
    let scratch = &std::env::temp_dir().join(format!("edgeperf-fuzz-{}.seg", std::process::id()));
    let file = Some(scratch.as_path());
    let rows: Vec<WindowCell> = (0..64).map(cell).collect();

    // 22 windows, so 22 row groups, a footer and a trailer.
    let v2 = encode_segment(&rows);
    assert_eq!(v2[4], 2);
    let index = SegmentIndex::of_image(&v2).expect("indexes");
    assert_eq!(index.groups().len(), 22);
    std::fs::write(scratch, &v2).expect("scratch file");
    assert!(same_bits(&read_through_a_reader(scratch).expect("reads"), &rows));

    let footer_and_trailer = index.groups().len() * 46 + 8 + 16;
    // Cut anywhere.
    for len in 0..v2.len() {
        assert_refused(&v2[..len], file, &format!("v2 cut to {len} bytes"));
    }
    // Any one bit, anywhere — groups, footer and trailer alike. The
    // reader, which costs a file each, takes every bit of the header and
    // of the footer and trailer, and one bit a byte between.
    let framing = 9..v2.len() - footer_and_trailer;
    let mut bad = v2.clone();
    for bit in 0..v2.len() * 8 {
        let (byte, mask) = (bit / 8, 1 << (bit % 8));
        let on_disk = !framing.contains(&byte) || bit % 8 == byte % 8;
        bad[byte] ^= mask;
        assert_refused(&bad, file.filter(|_| on_disk), &format!("v2 with bit {bit} flipped"));
        bad[byte] ^= mask;
    }
    // And bytes glued on the end.
    bad.extend_from_slice(&[0; 16]);
    assert_refused(&bad, file, "v2 with 16 bytes appended");

    // Forged counts under checksums recomputed to match: it is length
    // arithmetic, not the checksum, that must stop these — and before
    // anything is sized by them.
    let group = index.groups()[0];
    let (at, end) = (group.offset as usize, group.offset as usize + group.len as usize);
    let mut forged = v2.clone();
    forged[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    let sum = checksum(&forged[at..end - 8]);
    forged[end - 8..end].copy_from_slice(&sum);
    assert_refused(&forged, file, "v2 group claiming 4 G rows");

    // A session count of 2^32, eight bytes on disk, is more than a row's
    // `u32` holds: the first row's, after the group's 17 bytes a row of
    // key, relationship and flag columns.
    for count in [0, 1] {
        let mut forged = v2.clone();
        let n = at + 4 + 17 * group.rows as usize + 8 * count * group.rows as usize;
        forged[n..n + 8].copy_from_slice(&(1u64 << 32).to_le_bytes());
        let sum = checksum(&forged[at..end - 8]);
        forged[end - 8..end].copy_from_slice(&sum);
        assert_refused(&forged, file, &format!("v2 count column {count} holding 2^32"));
    }

    let footer = index.groups().last().map(|g| g.offset as usize + g.len as usize).unwrap();
    let footer_end = v2.len() - 16 - 8;
    for rows in [0u32, 400, 513, u32::MAX] {
        let mut forged = v2.clone();
        forged[footer + 12..footer + 16].copy_from_slice(&rows.to_le_bytes());
        let sum = checksum(&forged[footer..footer_end]);
        forged[footer_end..footer_end + 8].copy_from_slice(&sum);
        assert_refused(&forged, file, &format!("v2 footer entry claiming {rows} rows"));
    }

    let mut forged = v2.clone();
    let trailer = forged.len() - 16;
    forged[trailer + 8..trailer + 12].copy_from_slice(&0xffff_fff0u32.to_le_bytes());
    assert_refused(&forged, file, "v2 trailer claiming a 4 GB footer");

    // Arbitrary bytes, bare and behind a plausible header and trailer.
    let mut state = 0x5eed_u64;
    let mut next = move || {
        state =
            state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) as usize
    };
    for round in 0..4_000 {
        let mut bytes: Vec<u8> = (0..next() % 300).map(|_| next() as u8).collect();
        if round % 2 == 1 && bytes.len() >= 5 {
            bytes[..4].copy_from_slice(b"EPSG");
            bytes[4] = 1 + (round / 2 % 2) as u8;
        }
        if round % 4 == 3 && bytes.len() >= 29 {
            let end = bytes.len();
            bytes[end - 4..].copy_from_slice(b"GSPE");
        }
        assert_refused(&bytes, file, &format!("arbitrary bytes, round {round}"));
    }
    std::fs::remove_file(scratch).expect("cleanup");
}
