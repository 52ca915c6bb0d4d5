//! `analysis::segment`: the columnar codec under the store — encode on
//! spill and compaction, decode on every query and compaction.

use crate::child::Error;
use crate::trace::{Open, Tracer};
use edgeperf::analysis::{decode_segment, encode_segment, sort_cells, WindowCell};

pub const ENCODE_SPAN: &str = "analysis.segment.encode";
pub const DECODE_SPAN: &str = "analysis.segment.decode";

/// Encode and decode one window's `rows` `rounds` times, a span per call.
/// Returns the encoded size of the window.
pub fn probe(
    mut rows: Vec<WindowCell>,
    rounds: u64,
    tracer: &mut Tracer,
    root: Open,
) -> Result<usize, Error> {
    let (encode, decode) = (tracer.name(ENCODE_SPAN), tracer.name(DECODE_SPAN));
    sort_cells(&mut rows);
    let mut bytes = 0;
    for round in 0..rounds {
        let span = tracer.begin(encode, root, round);
        let image = encode_segment(&rows);
        tracer.end(span);
        let span = tracer.begin(decode, root, round);
        let back = decode_segment(&image)?;
        tracer.end(span);
        assert_eq!(back.len(), rows.len(), "the codec round-trips every row");
        bytes = image.len();
    }
    Ok(bytes)
}
