//! Live/offline agreement: a finite replay through `edgeperf serve`
//! yields window medians and Price–Bonett variances **bit-identical** to
//! the offline streaming pipeline, at parallelism 1, 4, and 16 — over the
//! JSONL wire *and* over the binary frame wire. The reference is the
//! proof kit's [`serial_cells`], the comparison its [`first_difference`],
//! over the settled horizon `cells from=0 until=K`.
//!
//! Why this holds: records are sharded to workers by group hash, so every
//! record of a group flows through one worker in connection order, and
//! each worker's per-cell t-digest therefore sees the exact insertion
//! sequence a serial offline `WindowRing` sees. A single client
//! connection preserves the global order. The `cells` wire format prints
//! floats with shortest-round-trip precision, so the assertion survives
//! the JSON hop. On the binary path, the client runs the same estimator
//! locally and frames carry raw little-endian f64 bits, so the identity
//! extends across the frame codec too.
//!
//! The offline study's streaming sink closes its cells into the same
//! rows: a study's records through `StreamingDataset`, at parallelism 1
//! and 4, and through one `WindowRing` a prefix, give the same rows bit
//! for bit — one digest path, offline and live.
//!
//! Also covers the late-record path end to end: a record behind the
//! watermark must surface as a typed `late` reject in the snapshot, the
//! reason table, and the `ingest.reject.late` metric — never a silent
//! drop.

use std::collections::HashMap;
use std::sync::Arc;

use edgeperf::analysis::{SessionRecord, StreamingDataset};
use edgeperf::core::HD_GOODPUT_BPS;
use edgeperf::ingest::{ResponseIn, SessionIn};
use edgeperf::live::{
    cell_line_sort_key, first_difference, serial_cells, BinarySender, CellLine, CellQuery,
    ClosedWindow, LiveClient, LiveConfig, LiveRecord, LiveServer, ServerHandle, WindowRing,
};
use edgeperf::obs::Metrics;
use edgeperf::serve::{WireParser, WireSession};
use edgeperf::world::{run_study_into, StudyConfig, World, WorldConfig};
use edgeperf_bench::loadgen::{generate_lines, settled_horizon, LoadgenConfig};
use serde_json::Value;

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

/// The replay every test below sends, and its settled horizon `K`: 6
/// windows of 1 s under 250 ms of lateness settle windows 0..=4.
fn replay() -> (Vec<String>, CellQuery) {
    let gen = LoadgenConfig {
        sessions: 4_000,
        groups: 16,
        windows: 6,
        window_ms: WINDOW_MS,
        lateness_ms: LATENESS_MS,
        max_txns: 3,
        ..LoadgenConfig::default()
    };
    let until = settled_horizon(&gen).expect("five windows settle");
    assert_eq!(until, 4);
    let settled =
        CellQuery { from_window: Some(0), until_window: Some(until), ..CellQuery::default() };
    (generate_lines(&gen), settled)
}

/// The offline reference: the same lines through the kit's serial
/// oracle (the exact per-cell aggregation `StreamingDataset` uses) — the
/// cells of every window the watermark closes, which here is the settled
/// horizon and nothing past it.
fn offline_reference(lines: &[String], parser: &WireParser) -> Vec<CellLine> {
    let records: Vec<LiveRecord> =
        lines.iter().map(|l| parser.parse_line(l).expect("offline parse")).collect();
    serial_cells(&records, WINDOW_MS, LATENESS_MS).expect("offline push")
}

/// Replay the lines over one connection and fetch the settled cells.
fn live_cells(lines: &[String], settled: &CellQuery, workers: usize) -> Vec<CellLine> {
    let server = start(workers);
    let mut client = LiveClient::connect(server.addr()).expect("connect");
    for line in lines {
        client.send_line(line).expect("send");
    }
    client.flush().expect("flush");
    let cells = client.cells_query(settled).expect("cells");
    let snap = client.shutdown().expect("shutdown");
    assert_eq!(snap.accepted, lines.len() as u64, "every line ingested: {snap:?}");
    assert_eq!(snap.rejected, 0, "{snap:?}");
    assert_eq!(snap.late, 0, "{snap:?}");
    let _ = server.join();
    cells
}

/// Replay the same lines over one *binary* connection: run the estimator
/// locally (the same `record_from_wire` the server's JSONL path uses),
/// encode each record as a frame, and fetch the settled cells over a
/// separate JSONL control connection.
fn live_cells_binary(
    lines: &[String],
    settled: &CellQuery,
    parser: &WireParser,
    workers: usize,
) -> Vec<CellLine> {
    let server = start(workers);
    let mut sender = BinarySender::connect(server.addr()).expect("binary connect");
    for line in lines {
        let rec = parser.parse_line(line).expect("local parse");
        sender.send(&rec).expect("send frame");
    }
    sender.finish().expect("finish");
    // Binary connections carry no commands; a control connection waits
    // until the server has folded in every frame.
    let mut control = LiveClient::connect(server.addr()).expect("control connect");
    let snap = control.wait_processed(lines.len() as u64).expect("every frame processed");
    assert_eq!(snap.accepted, lines.len() as u64, "every frame ingested: {snap:?}");
    assert_eq!(snap.rejected, 0, "{snap:?}");
    assert_eq!(snap.late, 0, "{snap:?}");
    let cells = control.cells_query(settled).expect("cells");
    let snap = control.shutdown().expect("shutdown");
    assert!(snap.drained);
    let _ = server.join();
    cells
}

#[test]
fn live_replay_matches_offline_windows_bit_for_bit() {
    let (lines, settled) = replay();
    let parser = WireParser::new(HD_GOODPUT_BPS);

    let offline = offline_reference(&lines, &parser);
    // 6 windows of data; the watermark closes all but the last, with at
    // least one rank-0 cell per group in each.
    assert!(offline.len() >= 5 * 16, "only {} offline cells closed", offline.len());

    for workers in [1usize, 4, 16] {
        let live = live_cells(&lines, &settled, workers);
        assert_eq!(first_difference(&live, &offline), None, "workers={workers}");
    }
}

#[test]
fn the_streaming_sinks_rows_are_the_live_rings_bit_for_bit() {
    // `sink_agreement`'s skewed world: a quarter of the countries, one day.
    let world =
        World::generate(WorldConfig { seed: 99, country_fraction: 0.25, ..Default::default() });
    let cfg = StudyConfig {
        seed: 17,
        days: 1,
        sessions_per_group_window: 20,
        parallelism: 1,
        ..Default::default()
    };
    const STUDY_WINDOW_MS: f64 = 900_000.0;
    let mut records: Vec<SessionRecord> = Vec::new();
    run_study_into(&world, &cfg, &mut records);

    // The live tier's rows: a window's records stamped inside it, through
    // one ring a prefix — a prefix's records come window by window, but a
    // ring for the whole study would take each later prefix's first
    // windows as late — every ring closed at the end.
    let rows = |closed: Vec<ClosedWindow>| -> Vec<CellLine> {
        let of_window = |w: &ClosedWindow| -> Vec<CellLine> {
            w.cells.iter().map(|(key, s)| CellLine::new(w.index, key, s)).collect()
        };
        closed.iter().flat_map(of_window).collect()
    };
    let mut rings = HashMap::new();
    let mut live: Vec<CellLine> = Vec::new();
    for r in &records {
        let record = LiveRecord {
            ts_ms: (f64::from(r.window) + 0.5) * STUDY_WINDOW_MS,
            group: r.group,
            route_rank: r.route_rank,
            relationship: r.relationship,
            longer_path: r.longer_path,
            more_prepended: r.more_prepended,
            min_rtt_ms: f64::from(r.min_rtt_ns) / 1e6,
            hdratio: r.hdratio,
            bytes: r.bytes,
        };
        let ring =
            rings.entry(r.group.prefix).or_insert_with(|| WindowRing::new(STUDY_WINDOW_MS, 0.0));
        live.extend(rows(ring.push(&record).expect("a window's records come in order")));
    }
    rings.values_mut().for_each(|ring| live.extend(rows(ring.force_close())));
    live.sort_by_key(cell_line_sort_key);
    assert!(live.len() > 500, "only {} cells", live.len());

    for parallelism in [1, 4] {
        let mut sink = StreamingDataset::new(cfg.n_windows() as usize);
        run_study_into(&world, &StudyConfig { parallelism, ..cfg }, &mut sink);
        assert_eq!(sink.cell_count(), live.len());
        let grids = sink.summarize().groups;
        let mut offline: Vec<CellLine> =
            grids.iter().flat_map(|(_, g)| g.cells()).map(CellLine::from).collect();
        offline.sort_by_key(cell_line_sort_key);
        assert_eq!(first_difference(&offline, &live), None, "parallelism {parallelism}");
    }
}

#[test]
fn binary_replay_matches_jsonl_and_offline_bit_for_bit() {
    let (lines, settled) = replay();
    let parser = WireParser::new(HD_GOODPUT_BPS);

    let offline = offline_reference(&lines, &parser);
    assert!(offline.len() >= 5 * 16, "only {} offline cells closed", offline.len());

    for workers in [1usize, 4, 16] {
        let jsonl = live_cells(&lines, &settled, workers);
        let binary = live_cells_binary(&lines, &settled, &parser, workers);
        // Binary-ingested cells equal JSONL-ingested cells equal the
        // offline reference, to the bit, at this worker count.
        assert_eq!(first_difference(&binary, &jsonl), None, "workers={workers}");
        assert_eq!(first_difference(&binary, &offline), None, "workers={workers}");
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
    let registry = serde_json::parse(&metrics).expect("a registry snapshot");
    let Some(Value::Object(counters)) = registry.get("counters") else {
        panic!("no counters in {metrics}");
    };
    // The counters whose names start with `prefix`, summed.
    let count = |prefix: &str| -> f64 {
        let values = counters.iter().filter(|(name, _)| name.starts_with(prefix));
        values.map(|(_, v)| if let Value::Num(n) = v { *n } else { 0.0 }).sum()
    };
    assert_eq!(count("ingest.reject.late"), 1.0, "late counter exported: {metrics}");
    // One tally: the registry mirrors the snapshot, so the late record
    // is not also counted accepted.
    assert_eq!(count("live.accepted"), snap.accepted as f64, "{metrics}");
    assert_eq!(count("ingest.reject."), snap.rejected as f64, "{metrics}");

    let fin = client.shutdown().expect("shutdown");
    assert!(fin.drained);
    assert_eq!(fin.late, 1);
    let _ = server.join();
}
