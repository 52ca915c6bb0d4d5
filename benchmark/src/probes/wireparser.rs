//! `serve::WireParser`: the JSONL *data* wire — JSON parse plus the core
//! estimator per line. No workload sends records this way; the number is
//! keep-or-delete evidence for ROADMAP item 2c.

use crate::gen::Lap;
use crate::trace::{Open, Tracer};
use edgeperf::core::HD_GOODPUT_BPS;
use edgeperf::ingest::{sample_line, SessionIn};
use edgeperf::serve::{WireParser, WireSession};

pub const SPAN: &str = "serve.wireparser.parse";

const BATCH: usize = 64;

/// Parse the first `lines` records of `lap`, rendered as wire lines around
/// the repository's sample session; a span per 64 lines.
pub fn probe(lap: &Lap, lines: usize, tracer: &mut Tracer, root: Open) -> u64 {
    let session: SessionIn = serde_json::from_str(&sample_line()).expect("the sample line parses");
    let rendered: Vec<String> = lap.records[..lines]
        .iter()
        .map(|rec| {
            WireSession {
                ts_ms: rec.ts_ms,
                pop: rec.group.pop.0,
                prefix_base: rec.group.prefix.base,
                prefix_len: rec.group.prefix.len,
                country: rec.group.country,
                continent: rec.group.continent,
                route_rank: rec.route_rank,
                relationship: rec.relationship.label().to_string(),
                longer_path: rec.longer_path,
                more_prepended: rec.more_prepended,
                session: SessionIn { min_rtt_ms: rec.min_rtt_ms, ..session.clone() },
            }
            .to_line()
        })
        .collect();
    let name = tracer.name(SPAN);
    let parser = WireParser::new(HD_GOODPUT_BPS);
    let mut parsed = 0;
    for (batch_no, batch) in rendered.chunks(BATCH).enumerate() {
        let span = tracer.begin(name, root, batch_no as u64);
        for line in batch {
            std::hint::black_box(parser.parse_line(line).expect("a rendered line parses"));
            parsed += 1;
        }
        tracer.end(span);
    }
    parsed
}
