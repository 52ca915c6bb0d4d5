//! `live::frame`: what the data connection's reader pays to turn socket
//! bytes into records — the real [`FrameDecoder`], fed in slices of the
//! server's default read buffer (64 KiB) as the socket path feeds it, minus
//! the syscall.

use crate::gen::Lap;
use crate::trace::{Open, Tracer};
use edgeperf::live::{encode_frame, FrameDecoder, LiveConfig, FRAME_BODY_LEN};

pub const SPAN: &str = "live.frame.decode";

/// Decode the first `records` records of `lap`, one span per slice.
/// Returns the records decoded.
pub fn probe(lap: &Lap, records: usize, tracer: &mut Tracer, root: Open) -> u64 {
    let wire: Vec<u8> = lap.records[..records].iter().flat_map(encode_frame).collect();
    let name = tracer.name(SPAN);
    let slice_len = LiveConfig::default().read_buffer_bytes;
    let mut decoder = FrameDecoder::new(FRAME_BODY_LEN, slice_len);
    let mut decoded = 0u64;
    for (slice_no, slice) in wire.chunks(slice_len).enumerate() {
        let span = tracer.begin(name, root, slice_no as u64);
        let mut offset = 0;
        while offset < slice.len() {
            let writable = decoder.writable();
            let writable_len = writable.len();
            let n = writable_len.min(slice.len() - offset);
            writable[..n].copy_from_slice(&slice[offset..offset + n]);
            decoder.advance(n, writable_len);
            offset += n;
            while let Some(rec) = decoder.next_record().expect("frames encoded here decode") {
                std::hint::black_box(&rec);
                decoded += 1;
            }
        }
        tracer.end(span);
    }
    assert_eq!(decoded, records as u64, "every encoded frame decodes");
    decoded
}
