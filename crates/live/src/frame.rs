//! The compact binary wire format for live ingest.
//!
//! JSONL is the default wire format and stays fully supported; binary
//! mode exists for load generators and edge relays that already hold
//! post-estimator values and do not want to pay JSON formatting and
//! parsing on the hot path. A connection opts in by sending an 8-byte
//! preamble as its very first bytes; anything else (in particular the
//! `{` that opens every JSONL record) leaves the connection in line
//! mode, so negotiation is silent and old clients need no changes.
//!
//! ## Preamble (8 bytes)
//!
//! | offset | size | value                                    |
//! |-------:|-----:|------------------------------------------|
//! | 0      | 4    | magic `EPB1`                             |
//! | 4      | 1    | protocol version (currently `1`)         |
//! | 5      | 1    | frame body length the client will send   |
//! | 6      | 2    | reserved, must be zero                   |
//!
//! The declared body length must be at least [`FRAME_BODY_LEN`]; a
//! larger value is accepted and the surplus bytes of every frame are
//! skipped, so a newer client with appended fields still interoperates
//! with this decoder (forward compatibility). The server sends no
//! acknowledgement — the first bytes commit the mode.
//!
//! Byte 6 is a flag byte (it was reserved-zero before the resume
//! protocol, so old preambles still parse identically): bit 0
//! (`PREAMBLE_FLAG_HELLO`) announces that a 20-byte hello block
//! follows the preamble — magic `EPH1`, then session id and epoch as
//! u64 LE (`hello_block`/`parse_hello`). The server replies
//! `{"acked":N}\n` before any frames flow, and the client resumes its
//! replay from record N (DESIGN.md §15). Byte 7 stays reserved-zero.
//!
//! ## Frame (1 + body-length bytes)
//!
//! A 1-byte body length prefix (redundantly repeated per frame so a
//! truncated stream is detected deterministically), then the
//! little-endian body:
//!
//! | offset | size | field        | encoding                         |
//! |-------:|-----:|--------------|----------------------------------|
//! | 0      | 8    | `ts_ms`      | f64 LE bits                      |
//! | 8      | 8    | `min_rtt_ms` | f64 LE bits                      |
//! | 16     | 8    | `hdratio`    | f64 LE bits, 0.0 when absent     |
//! | 24     | 8    | `bytes`      | u64 LE                           |
//! | 32     | 4    | prefix base  | u32 LE (host bits zero)          |
//! | 36     | 2    | pop          | u16 LE                           |
//! | 38     | 2    | country      | u16 LE                           |
//! | 40     | 1    | prefix len   | u8, 0–32                         |
//! | 41     | 1    | continent    | u8                               |
//! | 42     | 1    | route rank   | u8                               |
//! | 43     | 1    | meta         | packed flags, see below          |
//!
//! Meta byte: bits 0–1 relationship (0 private peer, 1 public peer,
//! 2 transit, 3 invalid), bit 2 `longer_path`, bit 3 `more_prepended`,
//! bit 4 `hdratio` present. Remaining bits must be zero.
//!
//! Floats travel as raw IEEE-754 bits, so a record round-trips
//! **bit-identically** — the property the JSONL path buys with full
//! `{:?}` formatting, here for free. Any malformed frame is a typed
//! reject — [`EdgeperfError::Frame`], or for a field's value the error
//! the JSONL path gives the same value; unlike a bad JSONL line there is no
//! newline to resynchronize on, so the server closes the connection
//! after counting the reject.

use edgeperf_analysis::GroupKey;
use edgeperf_core::EdgeperfError;
use edgeperf_routing::{PopId, Relationship};

use crate::record::{check_measurements, prefix_from_wire, LiveRecord};

/// First four bytes of a binary-mode connection.
pub(crate) const FRAME_MAGIC: [u8; 4] = *b"EPB1";
/// Protocol version this decoder speaks.
pub(crate) const FRAME_VERSION: u8 = 1;
/// Total preamble length in bytes.
pub(crate) const PREAMBLE_LEN: usize = 8;
/// Body length of a version-1 frame.
pub const FRAME_BODY_LEN: usize = 44;
/// On-wire length of a version-1 frame (length prefix + body).
pub const FRAME_WIRE_LEN: usize = 1 + FRAME_BODY_LEN;
/// Preamble flag (byte 6, bit 0): a hello block follows the preamble.
pub(crate) const PREAMBLE_FLAG_HELLO: u8 = 0x01;
/// First four bytes of the binary hello block.
pub(crate) const HELLO_MAGIC: [u8; 4] = *b"EPH1";
/// Total hello block length: magic + session u64 + epoch u64.
pub(crate) const HELLO_LEN: usize = 20;

const META_RELATIONSHIP_MASK: u8 = 0b0000_0011;
const META_LONGER_PATH: u8 = 0b0000_0100;
const META_MORE_PREPENDED: u8 = 0b0000_1000;
const META_HAS_HDRATIO: u8 = 0b0001_0000;
const META_KNOWN_BITS: u8 = 0b0001_1111;

/// The 8-byte preamble a client sends to switch the connection to
/// binary mode.
pub fn preamble() -> [u8; PREAMBLE_LEN] {
    let mut p = [0u8; PREAMBLE_LEN];
    p[..4].copy_from_slice(&FRAME_MAGIC);
    p[4] = FRAME_VERSION;
    p[5] = FRAME_BODY_LEN as u8;
    p
}

/// The preamble variant announcing a hello block (resume protocol).
pub(crate) fn preamble_with_hello() -> [u8; PREAMBLE_LEN] {
    let mut p = preamble();
    p[6] = PREAMBLE_FLAG_HELLO;
    p
}

/// Validate a complete preamble. Returns the declared frame body length
/// and whether a [`hello_block`] follows the preamble.
pub(crate) fn parse_preamble(p: &[u8; PREAMBLE_LEN]) -> Result<(usize, bool), EdgeperfError> {
    debug_assert_eq!(p[..4], FRAME_MAGIC, "caller matches magic before parsing");
    if p[4] != FRAME_VERSION {
        return Err(EdgeperfError::Frame {
            message: format!("unsupported protocol version {}", p[4]),
        });
    }
    let body_len = p[5] as usize;
    if body_len < FRAME_BODY_LEN {
        return Err(EdgeperfError::Frame {
            message: format!("declared body length {body_len} below minimum {FRAME_BODY_LEN}"),
        });
    }
    if p[6] & !PREAMBLE_FLAG_HELLO != 0 || p[7] != 0 {
        return Err(EdgeperfError::Frame {
            message: format!("reserved preamble bytes nonzero ({}, {})", p[6], p[7]),
        });
    }
    Ok((body_len, p[6] & PREAMBLE_FLAG_HELLO != 0))
}

/// Encode the hello block: session id and reconnect epoch.
pub(crate) fn hello_block(session: u64, epoch: u64) -> [u8; HELLO_LEN] {
    let mut b = [0u8; HELLO_LEN];
    b[..4].copy_from_slice(&HELLO_MAGIC);
    b[4..12].copy_from_slice(&session.to_le_bytes());
    b[12..20].copy_from_slice(&epoch.to_le_bytes());
    b
}

/// Decode a hello block into `(session, epoch)`.
pub(crate) fn parse_hello(b: &[u8; HELLO_LEN]) -> Result<(u64, u64), EdgeperfError> {
    if b[..4] != HELLO_MAGIC {
        return Err(EdgeperfError::Frame {
            message: format!("bad hello magic {:02x}{:02x}{:02x}{:02x}", b[0], b[1], b[2], b[3]),
        });
    }
    let session = u64::from_le_bytes(b[4..12].try_into().expect("8-byte slice"));
    let epoch = u64::from_le_bytes(b[12..20].try_into().expect("8-byte slice"));
    Ok((session, epoch))
}

fn relationship_code(rel: Relationship) -> u8 {
    match rel {
        Relationship::PrivatePeer => 0,
        Relationship::PublicPeer => 1,
        Relationship::Transit => 2,
    }
}

/// Encode a record as one version-1 wire frame.
pub fn encode_frame(r: &LiveRecord) -> [u8; FRAME_WIRE_LEN] {
    let mut f = [0u8; FRAME_WIRE_LEN];
    f[0] = FRAME_BODY_LEN as u8;
    let b = &mut f[1..];
    b[0..8].copy_from_slice(&r.ts_ms.to_le_bytes());
    b[8..16].copy_from_slice(&r.min_rtt_ms.to_le_bytes());
    b[16..24].copy_from_slice(&r.hdratio.unwrap_or(0.0).to_le_bytes());
    b[24..32].copy_from_slice(&r.bytes.to_le_bytes());
    b[32..36].copy_from_slice(&r.group.prefix.base.to_le_bytes());
    b[36..38].copy_from_slice(&r.group.pop.0.to_le_bytes());
    b[38..40].copy_from_slice(&r.group.country.to_le_bytes());
    b[40] = r.group.prefix.len;
    b[41] = r.group.continent;
    b[42] = r.route_rank;
    let mut meta = relationship_code(r.relationship);
    if r.longer_path {
        meta |= META_LONGER_PATH;
    }
    if r.more_prepended {
        meta |= META_MORE_PREPENDED;
    }
    if r.hdratio.is_some() {
        meta |= META_HAS_HDRATIO;
    }
    b[43] = meta;
    f
}

fn le_f64(b: &[u8]) -> f64 {
    f64::from_le_bytes(b.try_into().expect("8-byte slice"))
}

/// Decode one frame *body* (the bytes after the length prefix; any
/// forward-compat surplus already stripped by the caller).
///
/// Validation mirrors the JSONL path: non-finite or negative
/// `min_rtt_ms` is [`EdgeperfError::InvalidMinRtt`], a non-finite
/// flagged `hdratio` is [`EdgeperfError::NonFinite`], a prefix length
/// above 32 is [`EdgeperfError::InvalidPrefixLen`], and structurally
/// impossible packed fields (relationship code 3, unknown meta bits,
/// non-finite `ts_ms`) are [`EdgeperfError::Frame`].
pub(crate) fn decode_body(b: &[u8]) -> Result<LiveRecord, EdgeperfError> {
    debug_assert!(b.len() >= FRAME_BODY_LEN, "caller checks the length prefix");
    let meta = b[43];
    if meta & !META_KNOWN_BITS != 0 {
        return Err(EdgeperfError::Frame { message: format!("unknown meta bits {meta:#04x}") });
    }
    let relationship = match meta & META_RELATIONSHIP_MASK {
        0 => Relationship::PrivatePeer,
        1 => Relationship::PublicPeer,
        2 => Relationship::Transit,
        _ => return Err(EdgeperfError::Frame { message: "relationship code 3 is invalid".into() }),
    };
    let base = u32::from_le_bytes(b[32..36].try_into().expect("4-byte slice"));
    let prefix = prefix_from_wire(base, b[40])?;
    let ts_ms = le_f64(&b[0..8]);
    if !ts_ms.is_finite() || ts_ms < 0.0 {
        return Err(EdgeperfError::Frame { message: format!("invalid ts_ms {ts_ms}") });
    }
    let min_rtt_ms = le_f64(&b[8..16]);
    let hdratio = (meta & META_HAS_HDRATIO != 0).then(|| le_f64(&b[16..24]));
    check_measurements(min_rtt_ms, hdratio)?;
    Ok(LiveRecord {
        ts_ms,
        group: GroupKey {
            pop: PopId(u16::from_le_bytes(b[36..38].try_into().expect("2-byte slice"))),
            prefix,
            country: u16::from_le_bytes(b[38..40].try_into().expect("2-byte slice")),
            continent: b[41],
        },
        route_rank: b[42],
        relationship,
        longer_path: meta & META_LONGER_PATH != 0,
        more_prepended: meta & META_MORE_PREPENDED != 0,
        min_rtt_ms,
        hdratio,
        bytes: u64::from_le_bytes(b[24..32].try_into().expect("8-byte slice")),
    })
}

/// Incremental frame decoder over a reusable read buffer.
///
/// The reader loop appends raw socket bytes via [`writable`] +
/// [`advance`] and drains complete frames via [`next_record`]; partially
/// received frames stay buffered across reads, and consumed bytes are
/// compacted to the front only when the buffer would otherwise grow —
/// no per-record allocation.
///
/// [`writable`]: FrameDecoder::writable
/// [`advance`]: FrameDecoder::advance
/// [`next_record`]: FrameDecoder::next_record
#[derive(Debug)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Start of unconsumed bytes in `buf`.
    head: usize,
    /// Frame body length declared in the preamble (≥ [`FRAME_BODY_LEN`];
    /// bytes past [`FRAME_BODY_LEN`] are skipped per frame).
    body_len: usize,
}

impl FrameDecoder {
    /// A decoder for frames of the declared `body_len`, with `capacity`
    /// bytes of initial buffer (grown only if one read outpaces it).
    pub fn new(body_len: usize, capacity: usize) -> Self {
        let capacity = capacity.max(1 + body_len);
        FrameDecoder { buf: Vec::with_capacity(capacity), head: 0, body_len }
    }

    /// Number of buffered, not yet consumed bytes.
    pub(crate) fn pending(&self) -> usize {
        self.buf.len() - self.head
    }

    fn filled(&self) -> usize {
        self.buf.len()
    }

    /// The spare region to read socket bytes into. Always non-empty.
    pub fn writable(&mut self) -> &mut [u8] {
        // Compact (or grow) only when the tail is exhausted, so steady
        // state is a cheap copy of at most one partial frame.
        if self.buf.capacity() == self.buf.len() {
            if self.head > 0 {
                self.buf.copy_within(self.head.., 0);
                let pending = self.buf.len() - self.head;
                self.buf.truncate(pending);
                self.head = 0;
            }
            if self.buf.capacity() == self.buf.len() {
                self.buf.reserve(1 + self.body_len);
            }
        }
        let len = self.buf.len();
        let cap = self.buf.capacity();
        // Hand out the uninitialized tail as zeroed spare space.
        self.buf.resize(cap, 0);
        &mut self.buf[len..]
    }

    /// Record that `n` bytes of the last [`writable`] slice were filled.
    ///
    /// [`writable`]: FrameDecoder::writable
    pub fn advance(&mut self, n: usize, writable_len: usize) {
        debug_assert!(n <= writable_len);
        let filled = self.filled() - (writable_len - n);
        self.buf.truncate(filled);
    }

    /// Decode the next complete frame, if one is buffered.
    ///
    /// Returns `Ok(None)` when more bytes are needed, and a typed error
    /// for a malformed frame (the caller closes the connection, so the
    /// decoder's state past the error is irrelevant).
    pub fn next_record(&mut self) -> Result<Option<LiveRecord>, EdgeperfError> {
        let pending = &self.buf[self.head..];
        let Some(&len_prefix) = pending.first() else {
            return Ok(None);
        };
        let frame_body = len_prefix as usize;
        if frame_body < FRAME_BODY_LEN {
            return Err(EdgeperfError::Frame {
                message: format!("length prefix {frame_body} below minimum {FRAME_BODY_LEN}"),
            });
        }
        if frame_body != self.body_len {
            return Err(EdgeperfError::Frame {
                message: format!(
                    "length prefix {frame_body} disagrees with negotiated body length {}",
                    self.body_len
                ),
            });
        }
        if pending.len() < 1 + frame_body {
            return Ok(None);
        }
        let record = decode_body(&pending[1..1 + FRAME_BODY_LEN])?;
        self.head += 1 + frame_body;
        if self.head == self.buf.len() {
            // Tail fully drained: reset without touching the bytes.
            self.buf.clear();
            self.head = 0;
        }
        Ok(Some(record))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgeperf_routing::Prefix;

    fn sample(hdratio: Option<f64>, relationship: Relationship) -> LiveRecord {
        LiveRecord {
            ts_ms: 1_234_567.875,
            group: GroupKey {
                pop: PopId(7),
                prefix: Prefix::new(0x0a00_0000, 24),
                country: 840,
                continent: 3,
            },
            route_rank: 2,
            relationship,
            longer_path: true,
            more_prepended: false,
            min_rtt_ms: 41.0625,
            hdratio,
            bytes: 123_456_789_012,
        }
    }

    /// Feed bytes the way the reader loop does: fill whatever the
    /// decoder hands out, however small, until the piece is consumed.
    fn feed(dec: &mut FrameDecoder, mut piece: &[u8]) {
        while !piece.is_empty() {
            let w = dec.writable();
            let wlen = w.len();
            let n = piece.len().min(wlen);
            w[..n].copy_from_slice(&piece[..n]);
            dec.advance(n, wlen);
            piece = &piece[n..];
        }
    }

    fn assert_bit_identical(a: &LiveRecord, b: &LiveRecord) {
        assert_eq!(a.ts_ms.to_bits(), b.ts_ms.to_bits());
        assert_eq!(a.group, b.group);
        assert_eq!(a.route_rank, b.route_rank);
        assert_eq!(a.relationship, b.relationship);
        assert_eq!(a.longer_path, b.longer_path);
        assert_eq!(a.more_prepended, b.more_prepended);
        assert_eq!(a.min_rtt_ms.to_bits(), b.min_rtt_ms.to_bits());
        assert_eq!(a.hdratio.map(f64::to_bits), b.hdratio.map(f64::to_bits));
        assert_eq!(a.bytes, b.bytes);
    }

    #[test]
    fn frames_round_trip_bit_exactly() {
        for rel in [Relationship::PrivatePeer, Relationship::PublicPeer, Relationship::Transit] {
            // Awkward f64 bits (0.1 has no exact binary form) must survive.
            for hdratio in [None, Some(0.1), Some(0.0), Some(1.0)] {
                let mut r = sample(hdratio, rel);
                r.min_rtt_ms = 0.1 + 0.2; // 0.30000000000000004
                let wire = encode_frame(&r);
                assert_eq!(wire[0] as usize, FRAME_BODY_LEN);
                let back = decode_body(&wire[1..]).unwrap();
                assert_bit_identical(&r, &back);
            }
        }
    }

    #[test]
    fn absent_hdratio_is_distinct_from_zero() {
        let absent = encode_frame(&sample(None, Relationship::Transit));
        let zero = encode_frame(&sample(Some(0.0), Relationship::Transit));
        assert_eq!(decode_body(&absent[1..]).unwrap().hdratio, None);
        assert_eq!(decode_body(&zero[1..]).unwrap().hdratio, Some(0.0));
    }

    #[test]
    fn preamble_parses_and_rejects() {
        let p = preamble();
        assert_eq!(p[..4], FRAME_MAGIC);
        assert_eq!(parse_preamble(&p).unwrap(), (FRAME_BODY_LEN, false));

        let mut bad = preamble();
        bad[4] = 9;
        assert_eq!(parse_preamble(&bad).unwrap_err().reason(), "frame");

        let mut short = preamble();
        short[5] = FRAME_BODY_LEN as u8 - 1;
        assert_eq!(parse_preamble(&short).unwrap_err().reason(), "frame");

        let mut reserved = preamble();
        reserved[7] = 1;
        assert_eq!(parse_preamble(&reserved).unwrap_err().reason(), "frame");

        // Only bit 0 of the flag byte is defined.
        let mut flags = preamble();
        flags[6] = 0x02;
        assert_eq!(parse_preamble(&flags).unwrap_err().reason(), "frame");

        // Forward compat: a longer declared body is fine.
        let mut longer = preamble();
        longer[5] = FRAME_BODY_LEN as u8 + 8;
        assert_eq!(parse_preamble(&longer).unwrap(), (FRAME_BODY_LEN + 8, false));
    }

    #[test]
    fn hello_block_round_trips_and_rejects_bad_magic() {
        let p = preamble_with_hello();
        assert_eq!(parse_preamble(&p).unwrap(), (FRAME_BODY_LEN, true));
        for (session, epoch) in [(0u64, 0u64), (7, 3), (u64::MAX, u64::MAX)] {
            let b = hello_block(session, epoch);
            assert_eq!(parse_hello(&b).unwrap(), (session, epoch));
        }
        let mut bad = hello_block(1, 1);
        bad[0] = b'X';
        assert_eq!(parse_hello(&bad).unwrap_err().reason(), "frame");
    }

    #[test]
    fn decoder_handles_frames_split_at_every_boundary() {
        let records = [
            sample(Some(0.75), Relationship::PrivatePeer),
            sample(None, Relationship::Transit),
            sample(Some(0.0), Relationship::PublicPeer),
        ];
        let mut wire = Vec::new();
        for r in &records {
            wire.extend_from_slice(&encode_frame(r));
        }
        // Feed the stream one byte at a time: every possible split point.
        for chunk in [1usize, 2, 7, FRAME_WIRE_LEN - 1, FRAME_WIRE_LEN, wire.len()] {
            let mut dec = FrameDecoder::new(FRAME_BODY_LEN, 64);
            let mut out = Vec::new();
            for piece in wire.chunks(chunk) {
                feed(&mut dec, piece);
                while let Some(r) = dec.next_record().unwrap() {
                    out.push(r);
                }
            }
            assert_eq!(out.len(), records.len(), "chunk size {chunk}");
            for (a, b) in records.iter().zip(&out) {
                assert_bit_identical(a, b);
            }
            assert_eq!(dec.pending(), 0, "chunk size {chunk}");
        }
    }

    #[test]
    fn forward_compat_frames_skip_surplus_bytes() {
        let r = sample(Some(0.5), Relationship::PublicPeer);
        let base = encode_frame(&r);
        let extended_body = FRAME_BODY_LEN + 4;
        let mut wire = Vec::new();
        for _ in 0..2 {
            wire.push(extended_body as u8);
            wire.extend_from_slice(&base[1..]);
            wire.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef]); // future fields
        }
        let mut dec = FrameDecoder::new(extended_body, 16);
        feed(&mut dec, &wire);
        let mut out = Vec::new();
        while let Some(rec) = dec.next_record().unwrap() {
            out.push(rec);
        }
        assert_eq!(out.len(), 2);
        for got in &out {
            assert_bit_identical(&r, got);
        }
    }

    #[test]
    fn malformed_frames_are_typed_rejects() {
        // Short length prefix.
        let mut dec = FrameDecoder::new(FRAME_BODY_LEN, 64);
        let w = dec.writable();
        w[0] = 3;
        let wlen = w.len();
        dec.advance(1, wlen);
        assert_eq!(dec.next_record().unwrap_err().reason(), "frame");

        // Length prefix disagreeing with the negotiated body length.
        let mut dec = FrameDecoder::new(FRAME_BODY_LEN, 64);
        let w = dec.writable();
        w[0] = FRAME_BODY_LEN as u8 + 1;
        let wlen = w.len();
        dec.advance(1, wlen);
        assert_eq!(dec.next_record().unwrap_err().reason(), "frame");

        // Invalid packed fields.
        let good = sample(Some(0.5), Relationship::Transit);
        let corrupt = |f: &mut [u8; FRAME_WIRE_LEN]| {
            let mut dec = FrameDecoder::new(FRAME_BODY_LEN, 64);
            let w = dec.writable();
            let wlen = w.len();
            w[..f.len()].copy_from_slice(f);
            dec.advance(f.len(), wlen);
            dec.next_record().unwrap_err()
        };

        let mut f = encode_frame(&good);
        f[1 + 43] = (f[1 + 43] & !0b11) | 0b11; // relationship code 3
        assert_eq!(corrupt(&mut f).reason(), "frame");

        let mut f = encode_frame(&good);
        f[1 + 40] = 33; // prefix length: the JSONL path's reject
        assert_eq!(corrupt(&mut f).reason(), "invalid_prefix_len");

        let mut f = encode_frame(&good);
        f[1 + 43] |= 0b1000_0000; // unknown meta bit
        assert_eq!(corrupt(&mut f).reason(), "frame");

        let mut f = encode_frame(&good);
        f[1 + 8..1 + 16].copy_from_slice(&(-1.0f64).to_le_bytes());
        assert_eq!(corrupt(&mut f).reason(), "invalid_min_rtt");

        let mut f = encode_frame(&good);
        f[1 + 16..1 + 24].copy_from_slice(&f64::NAN.to_le_bytes());
        assert_eq!(corrupt(&mut f).reason(), "non_finite");

        let mut f = encode_frame(&good);
        f[1..1 + 8].copy_from_slice(&f64::INFINITY.to_le_bytes());
        assert_eq!(corrupt(&mut f).reason(), "frame");
    }

    /// Property coverage for the decoder: arbitrary garbage, and valid
    /// streams cut at every possible boundary, chaos-style.
    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// A structurally valid record derived deterministically from a
        /// seed, with enough field variety to cover every meta-bit
        /// combination and both hdratio arms.
        fn record_from_seed(seed: u64) -> LiveRecord {
            let rel = match seed % 3 {
                0 => Relationship::PrivatePeer,
                1 => Relationship::PublicPeer,
                _ => Relationship::Transit,
            };
            LiveRecord {
                ts_ms: (seed % 1_000_000) as f64 + 0.25,
                group: GroupKey {
                    pop: PopId((seed % 16) as u16),
                    prefix: Prefix::new(
                        u32::try_from((seed % 100) << 16).expect("fits in u32"),
                        (seed % 33) as u8,
                    ),
                    country: (seed % 200) as u16,
                    continent: (seed % 6) as u8,
                },
                route_rank: (seed % 3) as u8,
                relationship: rel,
                longer_path: seed % 2 == 1,
                more_prepended: seed.is_multiple_of(7),
                min_rtt_ms: 1.0 + (seed % 500) as f64 * 0.125,
                hdratio: (seed % 4 != 1).then(|| (seed % 100) as f64 / 100.0),
                bytes: seed.wrapping_mul(1_003),
            }
        }

        /// Drain the decoder; panics bubble, errors are returned.
        fn drain(dec: &mut FrameDecoder) -> Result<Vec<LiveRecord>, EdgeperfError> {
            let mut out = Vec::new();
            while let Some(r) = dec.next_record()? {
                out.push(r);
            }
            Ok(out)
        }

        proptest! {
            /// Arbitrary bytes, fed in arbitrary chunk sizes: the
            /// decoder must never panic, and every outcome must be a
            /// decoded frame or a typed reject reason — exactly the
            /// labels `ingest.reject.<reason>` can take on this path.
            #[test]
            fn arbitrary_streams_never_panic_and_errors_are_typed(
                bytes in prop::collection::vec(any::<u8>(), 0..600),
                chunk in 1usize..80,
            ) {
                let mut dec = FrameDecoder::new(FRAME_BODY_LEN, 64);
                'stream: for piece in bytes.chunks(chunk) {
                    feed(&mut dec, piece);
                    match drain(&mut dec) {
                        Ok(_) => {}
                        Err(e) => {
                            prop_assert!(
                                matches!(
                                    e.reason(),
                                    "frame" | "invalid_min_rtt" | "non_finite" | "invalid_prefix_len"
                                ),
                                "untyped reject {e}"
                            );
                            // The server closes the connection here.
                            break 'stream;
                        }
                    }
                }
            }

            /// A valid frame stream truncated mid-frame and split into
            /// two reads at an arbitrary boundary decodes exactly the
            /// complete frames — bit-identically to an unsplit read —
            /// and retains exactly the truncated tail as pending bytes.
            #[test]
            fn split_reads_decode_identically_to_whole_reads(
                seeds in prop::collection::vec(any::<u64>(), 1..8),
                cut in any::<u64>(),
                truncate in 0usize..FRAME_WIRE_LEN,
            ) {
                let records: Vec<LiveRecord> =
                    seeds.iter().map(|&s| record_from_seed(s)).collect();
                let mut wire = Vec::new();
                for r in &records {
                    wire.extend_from_slice(&encode_frame(r));
                }
                wire.truncate(wire.len() - truncate);
                let complete = wire.len() / FRAME_WIRE_LEN;
                let tail = wire.len() % FRAME_WIRE_LEN;

                // One whole read.
                let mut whole = FrameDecoder::new(FRAME_BODY_LEN, 64);
                feed(&mut whole, &wire);
                let got_whole = drain(&mut whole).expect("valid stream");

                // Two reads split at an arbitrary boundary, with the
                // decoder drained in between (state must carry over).
                let cut = usize::try_from(cut).unwrap_or(usize::MAX) % (wire.len() + 1);
                let mut split = FrameDecoder::new(FRAME_BODY_LEN, 64);
                feed(&mut split, &wire[..cut]);
                let mut got_split = drain(&mut split).expect("valid prefix");
                feed(&mut split, &wire[cut..]);
                got_split.extend(drain(&mut split).expect("valid suffix"));

                prop_assert_eq!(got_whole.len(), complete);
                prop_assert_eq!(got_split.len(), complete);
                prop_assert_eq!(whole.pending(), tail);
                prop_assert_eq!(split.pending(), tail);
                for ((a, b), want) in got_whole.iter().zip(&got_split).zip(&records) {
                    assert_bit_identical(a, b);
                    assert_bit_identical(a, want);
                }
            }
        }
    }
}
