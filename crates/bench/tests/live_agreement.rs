//! Live/offline agreement: a finite replay through `edgeperf serve`
//! yields window medians and Price–Bonett variances **bit-identical** to
//! the offline streaming pipeline, at parallelism 1, 4, and 16 — over the
//! JSONL wire *and* over the binary frame wire.
//!
//! Why this holds: records are sharded to workers by group hash, so every
//! record of a group flows through one worker in connection order, and
//! each worker's per-cell t-digest therefore sees the exact insertion
//! sequence a serial offline [`WindowRing`] sees. A single client
//! connection preserves the global order. The `cells` wire format prints
//! floats with shortest-round-trip precision, so the assertion survives
//! the JSON hop. On the binary path, the client runs the same estimator
//! locally and frames carry raw little-endian f64 bits, so the identity
//! extends across the frame codec too.
//!
//! Also covers the late-record path end to end: a record behind the
//! watermark must surface as a typed `late` reject in the snapshot, the
//! reason table, and the `ingest.reject.late` metric — never a silent
//! drop.

use std::sync::Arc;

use edgeperf::core::HD_GOODPUT_BPS;
use edgeperf::ingest::{ResponseIn, SessionIn};
use edgeperf::live::{
    BinarySender, CellLine, LiveClient, LiveConfig, LiveServer, ServerHandle, WindowRing,
};
use edgeperf::obs::Metrics;
use edgeperf::serve::{WireParser, WireSession};
use edgeperf_bench::loadgen::{generate_lines, LoadgenConfig};

const WINDOW_MS: f64 = 1_000.0;
const LATENESS_MS: f64 = 250.0;

fn start(workers: usize) -> ServerHandle {
    let config = LiveConfig {
        workers,
        window_ms: WINDOW_MS,
        lateness_ms: LATENESS_MS,
        retention_windows: 16,
        ..LiveConfig::default()
    };
    LiveServer::start(config, Arc::new(WireParser::new(HD_GOODPUT_BPS)), Metrics::enabled())
        .expect("server starts")
}

/// The offline reference: the same lines through a serial [`WindowRing`]
/// (the exact per-cell aggregation `StreamingDataset` uses), collecting
/// the cells of every window the watermark closes.
fn offline_cells(lines: &[String], parser: &WireParser) -> Vec<CellLine> {
    let mut ring = WindowRing::new(WINDOW_MS, LATENESS_MS);
    let mut out = Vec::new();
    for line in lines {
        let rec = parser.parse_line(line).expect("offline parse");
        for cw in ring.push(&rec).expect("offline push") {
            for (key, summary) in &cw.cells {
                out.push(CellLine::new(cw.index, key, summary));
            }
        }
    }
    out
}

/// Replay the lines over one connection and fetch the closed cells.
fn live_cells(lines: &[String], workers: usize) -> Vec<CellLine> {
    let server = start(workers);
    let mut client = LiveClient::connect(server.addr()).expect("connect");
    for line in lines {
        client.send_line(line).expect("send");
    }
    client.flush().expect("flush");
    let cells = client.cells().expect("cells");
    let snap = client.shutdown().expect("shutdown");
    assert_eq!(snap.accepted, lines.len() as u64, "every line ingested: {snap:?}");
    assert_eq!(snap.rejected, 0, "{snap:?}");
    assert_eq!(snap.late, 0, "{snap:?}");
    let _ = server.join();
    cells
}

/// Replay the same lines over one *binary* connection: run the estimator
/// locally (the same `record_from_wire` the server's JSONL path uses),
/// encode each record as a frame, and fetch the closed cells over a
/// separate JSONL control connection.
fn live_cells_binary(lines: &[String], parser: &WireParser, workers: usize) -> Vec<CellLine> {
    let server = start(workers);
    let mut sender = BinarySender::connect(server.addr()).expect("binary connect");
    for line in lines {
        let rec = parser.parse_line(line).expect("local parse");
        sender.send(&rec).expect("send frame");
    }
    sender.finish().expect("finish");
    // Binary connections carry no commands; poll a control connection
    // until the server has folded in every frame.
    let mut control = LiveClient::connect(server.addr()).expect("control connect");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    loop {
        let snap = control.snapshot().expect("snapshot");
        if snap.accepted + snap.rejected >= lines.len() as u64 {
            assert_eq!(snap.accepted, lines.len() as u64, "every frame ingested: {snap:?}");
            assert_eq!(snap.rejected, 0, "{snap:?}");
            assert_eq!(snap.late, 0, "{snap:?}");
            break;
        }
        assert!(std::time::Instant::now() < deadline, "server stuck: {snap:?}");
        std::thread::sleep(std::time::Duration::from_micros(200));
    }
    let cells = control.cells().expect("cells");
    let snap = control.shutdown().expect("shutdown");
    assert!(snap.drained);
    let _ = server.join();
    cells
}

type SortKey = (u32, u16, u32, u8, u16, u8, u8);

fn sort_key(c: &CellLine) -> SortKey {
    (c.window, c.pop, c.prefix_base, c.prefix_len, c.country, c.continent, c.rank)
}

fn assert_bit_identical(live: &[CellLine], offline: &[CellLine]) {
    assert_eq!(live.len(), offline.len(), "cell count");
    for (x, y) in live.iter().zip(offline) {
        assert_eq!(sort_key(x), sort_key(y), "cell identity");
        assert_eq!(x.n, y.n);
        assert_eq!(x.n_tested, y.n_tested);
        assert_eq!(x.bytes, y.bytes);
        assert_eq!(x.relationship, y.relationship);
        assert_eq!(x.longer_path, y.longer_path);
        assert_eq!(x.more_prepended, y.more_prepended);
        assert_eq!(x.min_rtt_p50.to_bits(), y.min_rtt_p50.to_bits(), "{x:?} vs {y:?}");
        assert_eq!(x.min_rtt_var.map(f64::to_bits), y.min_rtt_var.map(f64::to_bits), "{x:?}");
        assert_eq!(x.hdratio_p50.map(f64::to_bits), y.hdratio_p50.map(f64::to_bits), "{x:?}");
        assert_eq!(x.hdratio_var.map(f64::to_bits), y.hdratio_var.map(f64::to_bits), "{x:?}");
    }
}

#[test]
fn live_replay_matches_offline_windows_bit_for_bit() {
    let gen = LoadgenConfig {
        sessions: 4_000,
        groups: 16,
        windows: 6,
        window_ms: WINDOW_MS,
        max_txns: 3,
        ..LoadgenConfig::default()
    };
    let lines = generate_lines(&gen);
    let parser = WireParser::new(HD_GOODPUT_BPS);

    let mut offline = offline_cells(&lines, &parser);
    offline.sort_by_key(sort_key);
    // 6 windows of data; the watermark closes all but the last, with at
    // least one rank-0 cell per group in each.
    assert!(offline.len() >= 5 * 16, "only {} offline cells closed", offline.len());

    for workers in [1usize, 4, 16] {
        let mut live = live_cells(&lines, workers);
        live.sort_by_key(sort_key);
        assert_bit_identical(&live, &offline);
    }
}

#[test]
fn binary_replay_matches_jsonl_and_offline_bit_for_bit() {
    let gen = LoadgenConfig {
        sessions: 4_000,
        groups: 16,
        windows: 6,
        window_ms: WINDOW_MS,
        max_txns: 3,
        ..LoadgenConfig::default()
    };
    let lines = generate_lines(&gen);
    let parser = WireParser::new(HD_GOODPUT_BPS);

    let mut offline = offline_cells(&lines, &parser);
    offline.sort_by_key(sort_key);
    assert!(offline.len() >= 5 * 16, "only {} offline cells closed", offline.len());

    for workers in [1usize, 4, 16] {
        let mut jsonl = live_cells(&lines, workers);
        jsonl.sort_by_key(sort_key);
        let mut binary = live_cells_binary(&lines, &parser, workers);
        binary.sort_by_key(sort_key);
        // Binary-ingested cells equal JSONL-ingested cells equal the
        // offline reference, to the bit, at this worker count.
        assert_bit_identical(&binary, &jsonl);
        assert_bit_identical(&binary, &offline);
    }
}

fn wire_line(ts_ms: f64) -> String {
    let session = SessionIn {
        min_rtt_ms: 40.0,
        responses: vec![ResponseIn {
            bytes: 50_000,
            issued_at_ms: 0.0,
            first_tx_ms: Some(0.1),
            wnic: Some(14_600),
            second_last_ack_ms: Some(60.0),
            full_ack_ms: Some(61.0),
            last_packet_bytes: Some(1_240),
            bytes_in_flight_at_write: 0,
            prev_unsent_at_write: false,
        }],
        http: None,
        duration_ms: Some(100.0),
    };
    WireSession {
        ts_ms,
        pop: 1,
        prefix_base: 0x0A00_0100,
        prefix_len: 24,
        country: 1,
        continent: 0,
        route_rank: 0,
        relationship: "private".to_string(),
        longer_path: false,
        more_prepended: false,
        session,
    }
    .to_line()
}

#[test]
fn late_records_are_counted_and_typed_end_to_end() {
    let config =
        LiveConfig { workers: 1, window_ms: 1_000.0, lateness_ms: 100.0, ..LiveConfig::default() };
    let server =
        LiveServer::start(config, Arc::new(WireParser::new(HD_GOODPUT_BPS)), Metrics::enabled())
            .expect("server starts");
    let mut client = LiveClient::connect(server.addr()).expect("connect");
    // ts 5000 drives the watermark to 4900; ts 100 is then behind it.
    client.send_line(&wire_line(5_000.0)).expect("send");
    client.send_line(&wire_line(100.0)).expect("send");
    client.flush().expect("flush");

    let snap = client.snapshot().expect("snapshot");
    assert_eq!(snap.accepted, 1, "{snap:?}");
    assert_eq!(snap.rejected, 1, "{snap:?}");
    assert_eq!(snap.late, 1, "{snap:?}");
    let reasons: Vec<(&str, u64)> =
        snap.reject_reasons.iter().map(|r| (r.reason.as_str(), r.count)).collect();
    assert_eq!(reasons, vec![("late", 1)], "typed reject reason");

    let metrics = client.metrics_json().expect("metrics");
    assert!(metrics.contains("ingest.reject.late"), "late counter exported: {metrics}");

    let fin = client.shutdown().expect("shutdown");
    assert!(fin.drained);
    assert_eq!(fin.late, 1);
    let _ = server.join();
}
