//! The `edgeperf serve` wire format: the bridge between the typed-error
//! JSONL ingest (this crate's [`crate::ingest`]) and the live server
//! (`edgeperf-live`).
//!
//! A wire line is one [`WireSession`] per line: the raw socket-statistics
//! session ([`SessionIn`], exactly as accepted by `edgeperf estimate`)
//! plus the event timestamp and routing annotations the live windowing
//! needs. [`WireParser`] runs the core estimator on each line — the same
//! `SessionIn::evaluate` the offline CLI uses — and yields the
//! `LiveRecord` the server folds into its windows, so live summaries are
//! produced by the very same estimator code path.

use crate::ingest::SessionIn;
use edgeperf_analysis::GroupKey;
use edgeperf_core::EdgeperfError;
use edgeperf_live::{prefix_from_wire, relationship_from_label, LiveRecord};
use edgeperf_routing::PopId;
use serde::{Deserialize, Serialize};

/// One session on the wire: event time + routing annotations + the raw
/// estimator input.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WireSession {
    /// Event time in milliseconds since the stream epoch.
    pub ts_ms: f64,
    /// Serving PoP id.
    pub pop: u16,
    /// Client BGP prefix base address.
    pub prefix_base: u32,
    /// Client BGP prefix length.
    pub prefix_len: u8,
    /// Client country id.
    pub country: u16,
    /// Client continent id.
    pub continent: u8,
    /// Rank of the pinned egress route (0 = policy-preferred).
    #[serde(default)]
    pub route_rank: u8,
    /// Relationship label: `private`, `public` or `transit`.
    pub relationship: String,
    /// The pinned route's AS path is longer than the preferred route's.
    #[serde(default)]
    pub longer_path: bool,
    /// The pinned route is prepended more than the preferred route.
    #[serde(default)]
    pub more_prepended: bool,
    /// The captured socket statistics, as in `edgeperf estimate` input.
    pub session: SessionIn,
}

impl WireSession {
    /// The group key encoded in this line; a `prefix_len` above 32 is
    /// [`EdgeperfError::InvalidPrefixLen`].
    pub fn group(&self) -> Result<GroupKey, EdgeperfError> {
        Ok(GroupKey {
            pop: PopId(self.pop),
            prefix: prefix_from_wire(self.prefix_base, self.prefix_len)?,
            country: self.country,
            continent: self.continent,
        })
    }

    /// Serialize to one wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        serde_json::to_string(self).expect("wire session serializes")
    }
}

/// Run the core estimator on an already-parsed [`WireSession`] and build
/// the [`LiveRecord`] the live server windows.
///
/// This is *the* estimator entry point for both wire formats: the JSONL
/// path reaches it through [`WireParser::parse_line`], and a binary
/// client (the load generator's `--wire binary` mode) calls it locally
/// before encoding frames — which is exactly why binary-ingested cells
/// stay bit-identical to JSONL-ingested ones: the f64s come from the
/// same code on either side of the socket.
pub fn record_from_wire(wire: &WireSession, target_bps: f64) -> Result<LiveRecord, EdgeperfError> {
    let relationship = relationship_from_label(&wire.relationship)?;
    let verdict = wire.session.evaluate(target_bps)?;
    let bytes = wire.session.responses.iter().map(|r| r.bytes).sum();
    Ok(LiveRecord {
        ts_ms: wire.ts_ms,
        group: wire.group()?,
        route_rank: wire.route_rank,
        relationship,
        longer_path: wire.longer_path,
        more_prepended: wire.more_prepended,
        min_rtt_ms: verdict.min_rtt_ms,
        hdratio: verdict.hdratio,
        bytes,
    })
}

/// [`edgeperf_live::LineParser`] over the JSONL wire format: parse,
/// run the core HDratio/MinRTT estimator, reject with the same typed
/// errors (and therefore the same `ingest.reject.<reason>` labels) as
/// the offline path.
pub struct WireParser {
    /// HD goodput target in bits per second.
    pub target_bps: f64,
}

impl WireParser {
    /// Parser evaluating sessions at `target_bps`.
    pub fn new(target_bps: f64) -> WireParser {
        WireParser { target_bps }
    }

    /// Parse and evaluate one wire line.
    pub fn parse_line(&self, line: &str) -> Result<LiveRecord, EdgeperfError> {
        let wire: WireSession = serde_json::from_str(line)
            .map_err(|e| EdgeperfError::Json { message: e.to_string() })?;
        record_from_wire(&wire, self.target_bps)
    }
}

impl edgeperf_live::LineParser for WireParser {
    fn parse(&self, line: &str) -> Result<LiveRecord, EdgeperfError> {
        self.parse_line(line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::sample_line;
    use edgeperf_core::HD_GOODPUT_BPS;
    use edgeperf_routing::Relationship;

    fn wire(ts_ms: f64) -> WireSession {
        WireSession {
            ts_ms,
            pop: 3,
            prefix_base: 0x0A000000,
            prefix_len: 16,
            country: 7,
            continent: 2,
            route_rank: 0,
            relationship: "private".to_string(),
            longer_path: false,
            more_prepended: false,
            session: serde_json::from_str(&sample_line()).unwrap(),
        }
    }

    #[test]
    fn wire_lines_round_trip_through_the_parser() {
        let w = wire(1234.5);
        let parser = WireParser::new(HD_GOODPUT_BPS);
        let rec = parser.parse_line(&w.to_line()).unwrap();
        assert_eq!(rec.ts_ms, 1234.5);
        assert_eq!(rec.group, w.group().unwrap());
        assert_eq!(rec.relationship, Relationship::PrivatePeer);
        assert_eq!(rec.min_rtt_ms, 60.0);
        assert_eq!(rec.hdratio, Some(1.0));
        assert_eq!(rec.bytes, 36_000);
    }

    #[test]
    fn estimator_rejects_flow_through_with_typed_reasons() {
        let parser = WireParser::new(HD_GOODPUT_BPS);
        assert_eq!(parser.parse_line("not json").unwrap_err().reason(), "json");

        let mut w = wire(0.0);
        w.relationship = "imaginary".to_string();
        assert_eq!(parser.parse_line(&w.to_line()).unwrap_err().reason(), "json");

        let mut w = wire(0.0);
        w.session.min_rtt_ms = -1.0;
        assert_eq!(parser.parse_line(&w.to_line()).unwrap_err().reason(), "invalid_min_rtt");

        let w = WireSession { prefix_len: 33, ..wire(0.0) };
        assert_eq!(parser.parse_line(&w.to_line()).unwrap_err().reason(), "invalid_prefix_len");
    }

    /// A line whose prefix length is above 32 is one counted, typed
    /// reject, and the connection that sent it goes on answering.
    #[test]
    fn a_prefix_len_above_32_is_a_counted_reject_not_a_dead_reader() {
        use edgeperf_live::{LiveClient, LiveConfig, LiveServer};
        let config = LiveConfig { workers: 2, ..LiveConfig::default() };
        let parser = std::sync::Arc::new(WireParser::new(HD_GOODPUT_BPS));
        let server = LiveServer::start(config, parser, edgeperf_obs::Metrics::enabled())
            .expect("server starts");
        let mut client = LiveClient::connect(server.addr()).expect("connect");
        client.set_io_timeout(Some(std::time::Duration::from_secs(10))).expect("timeout");
        client.send_line(&wire(1_000.0).to_line()).expect("send");
        client.send_line(&WireSession { prefix_len: 33, ..wire(1_000.0) }.to_line()).expect("send");
        client.flush().expect("flush");

        let snap = client.snapshot().expect("the same connection answers");
        assert_eq!((snap.accepted, snap.rejected), (1, 1), "{snap:?}");
        let reasons: Vec<(&str, u64)> =
            snap.reject_reasons.iter().map(|r| (r.reason.as_str(), r.count)).collect();
        assert_eq!(reasons, [("invalid_prefix_len", 1)]);
        let metrics = client.metrics_json().expect("metrics");
        assert!(metrics.contains("\"ingest.reject.invalid_prefix_len\":1"), "{metrics}");
        assert!(client.shutdown().expect("shutdown").drained);
        let _ = server.join();
    }

    /// A reader that panics on a record hands back everything it holds:
    /// its client sees EOF at once, its session is free to resume, the
    /// record counts as consumed (one `reader_panic` reject) and the
    /// records before it are applied.
    #[test]
    fn a_reader_panic_hands_back_its_socket_session_and_records() {
        use edgeperf_live::{LiveClient, LiveConfig, LiveServer};
        use std::io::{BufRead, BufReader, Write};
        use std::net::TcpStream;
        use std::time::{Duration, Instant};
        let wire_parser = WireParser::new(HD_GOODPUT_BPS);
        let parser = move |line: &str| {
            assert!(!line.contains("marker"), "the reader panics on the marker line");
            wire_parser.parse_line(line)
        };
        let metrics = edgeperf_obs::Metrics::enabled();
        let config = LiveConfig { workers: 2, ..LiveConfig::default() };
        let server = LiveServer::start(config, std::sync::Arc::new(parser), metrics.clone())
            .expect("server starts");

        let mut conn = TcpStream::connect(server.addr()).expect("connect");
        conn.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
        let mut replies = BufReader::new(conn.try_clone().expect("clone"));
        let mut reply = String::new();
        conn.write_all(b"hello 7 1\n").expect("hello");
        replies.read_line(&mut reply).expect("ack");
        assert_eq!(reply, "{\"acked\":0}\n");
        let before = 5u32;
        let mut lines: String =
            (0..before).map(|i| wire(1_000.0 + f64::from(i)).to_line() + "\n").collect();
        lines.push_str("{\"marker\":true}\n");
        conn.write_all(lines.as_bytes()).expect("send");

        let started = Instant::now();
        reply.clear();
        let read = replies.read_line(&mut reply).expect("EOF, not the read timeout");
        assert_eq!((read, started.elapsed() < Duration::from_secs(2)), (0, true), "{reply}");

        let mut client = LiveClient::connect(server.addr()).expect("connect");
        let started = Instant::now();
        let acked = client.request("hello 7 2").expect("the session is free");
        assert_eq!(acked, format!("{{\"acked\":{}}}", before + 1));
        assert!(started.elapsed() < Duration::from_secs(2), "{:?}", started.elapsed());

        let snap = client.snapshot().expect("snapshot");
        assert_eq!((snap.accepted, snap.rejected), (u64::from(before), 1), "{snap:?}");
        assert_eq!(snap.reject_reasons[0].reason, "reader_panic");
        let metrics_json = client.metrics_json().expect("metrics");
        assert!(metrics_json.contains("\"live.readers.panicked\":1"), "{metrics_json}");
        let last = client.shutdown().expect("shutdown");
        assert!(last.drained);
        assert_eq!(last.accepted + last.rejected, u64::from(before) + 1);
        let _ = server.join();
        assert_eq!(metrics.snapshot().gauges["live.readers.active"], 0.0, "no reader cell left");
    }
}
