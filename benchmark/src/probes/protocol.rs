//! `live::protocol`: what a `cells` reply costs per row beyond finding the
//! cells — the server's render ([`Response::render`]) and the client's
//! parse, the same calls [`edgeperf::live::LiveClient`] makes.

use crate::trace::{Open, Tracer};
use edgeperf::live::{CellLine, Response};

pub const SPAN: &str = "live.protocol.render";

/// Render and parse `rows` `rounds` times, a span per reply.
pub fn probe(rows: &[CellLine], rounds: u64, tracer: &mut Tracer, root: Open) {
    let name = tracer.name(SPAN);
    let reply = Response::Cells(rows.to_vec());
    for round in 0..rounds {
        let span = tracer.begin(name, root, round);
        let rendered = reply.render();
        let mut parsed = 0;
        for line in rendered.lines().skip(1) {
            let row: CellLine = serde_json::from_str(line).expect("a rendered row parses");
            std::hint::black_box(row);
            parsed += 1;
        }
        tracer.end(span);
        assert_eq!(parsed, rows.len());
    }
}
