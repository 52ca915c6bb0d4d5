//! What a `cells` reply is on the wire, byte for byte, now that
//! the server writes it from the windows its workers share instead of
//! building it: at 1, 2 and 4 workers, bare / window-filtered /
//! `pop=`+`prefix=`, without a store and with one that holds some windows
//! only on disk, some only in RAM and some in both, the bytes are those
//! of `Response::Cells(expected).render()` with `expected` built the old
//! way — the `Vec<CellLine>` of the proof kit's [`serial_cells`], in its
//! canonical order, the bare store-less `cells` included. The deleted
//! `digest` verb answers as any unknown command does. And the three
//! `live.query.*` metrics say what the replies actually carried.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::Arc;

use edgeperf_analysis::GroupKey;
use edgeperf_core::EdgeperfError;
use edgeperf_live::{
    parse_cells_header, serial_cells, BinarySender, CellLine, CellQuery, GroupFilter, LiveClient,
    LiveConfig, LiveRecord, LiveServer, Request, Response, ServerHandle,
};
use edgeperf_obs::Metrics;
use edgeperf_routing::{PopId, Prefix, Relationship};

const WINDOW_MS: f64 = 1_000.0;
const LATENESS_MS: f64 = 250.0;
const GROUPS: u32 = 48;
const WINDOWS: u32 = 5;
const PER_WINDOW: u32 = 1_500;

fn group(g: u32) -> GroupKey {
    GroupKey {
        pop: PopId(u16::try_from(g % 4).expect("small")),
        prefix: Prefix::new(g << 8, 24),
        country: u16::try_from(g % 9).expect("small"),
        continent: u8::try_from(g % 6).expect("small"),
    }
}

/// `WINDOWS` full windows in timestamp order, then one record per group
/// two windows on, which closes the last of them on every worker.
fn records() -> Vec<LiveRecord> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state =
            state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        state >> 33
    };
    let total = WINDOWS * PER_WINDOW;
    let mut out: Vec<LiveRecord> = (0..total)
        .map(|i| {
            let g = u32::try_from(next() % u64::from(GROUPS)).expect("small");
            let rank = u8::try_from(next() % 2).expect("small");
            let u = (next() % 10_000) as f64 / 10_000.0;
            LiveRecord {
                ts_ms: f64::from(i) * WINDOW_MS / f64::from(PER_WINDOW),
                group: group(g),
                route_rank: rank,
                relationship: [Relationship::PrivatePeer, Relationship::Transit][usize::from(rank)],
                longer_path: rank > 0,
                more_prepended: g.is_multiple_of(3),
                min_rtt_ms: 8.0 + 120.0 * u * u,
                hdratio: (!next().is_multiple_of(5)).then_some(1.0 - u),
                bytes: 1_000 + next() % 50_000,
            }
        })
        .collect();
    let closer = LiveRecord { ts_ms: f64::from(WINDOWS + 1) * WINDOW_MS, ..out[0] };
    out.extend((0..GROUPS).map(|g| LiveRecord { group: group(g), ..closer }));
    out
}

/// The reply the old build-then-render path gave: every row of the
/// oracle's (canonical) `serial` that `query` selects, as a `CellLine`.
fn expected_rows(serial: &[CellLine], query: &CellQuery) -> Vec<CellLine> {
    serial.iter().filter(|c| query.matches(c.window, &c.group())).cloned().collect()
}

/// `workers` workers keeping `retention` windows in RAM, spilling the
/// rest to `spill_dir` when there is one.
fn config(workers: usize, retention: usize, spill_dir: Option<&Path>) -> LiveConfig {
    LiveConfig {
        workers,
        window_ms: WINDOW_MS,
        lateness_ms: LATENESS_MS,
        retention_windows: retention,
        spill_dir: spill_dir.map(Path::to_path_buf),
        ..LiveConfig::default()
    }
}

/// Start a server, replay `records` over the binary wire and wait until
/// every one is folded in.
fn replayed(
    config: LiveConfig,
    metrics: Metrics,
    records: &[LiveRecord],
) -> (ServerHandle, LiveClient) {
    let parser = |_: &str| Err(EdgeperfError::UnknownDuration);
    let server = LiveServer::start(config, Arc::new(parser), metrics).expect("server starts");
    let mut sender = BinarySender::connect(server.addr()).expect("binary connect");
    for rec in records {
        sender.send(rec).expect("send frame");
    }
    sender.finish().expect("finish");
    let mut control = LiveClient::connect(server.addr()).expect("control connect");
    let snap = control.wait_processed(records.len() as u64).expect("every frame processed");
    assert_eq!((snap.accepted, snap.rejected), (records.len() as u64, 0));
    (server, control)
}

fn stop(server: ServerHandle, mut control: LiveClient) {
    assert!(control.shutdown().expect("shutdown").drained);
    let _ = server.join();
}

/// One command line on a raw line connection; the reply exactly as sent,
/// the rows of a `cells` reply and the newline that ends it included.
fn raw_reply(conn: &mut BufReader<TcpStream>, command: &str) -> String {
    writeln!(conn.get_mut(), "{command}").expect("send");
    let mut reply = String::new();
    conn.read_line(&mut reply).expect("header");
    for _ in 0..parse_cells_header(reply.trim_end()).unwrap_or(0) {
        assert_ne!(conn.read_line(&mut reply).expect("row"), 0, "reply ended early");
    }
    reply
}

fn raw(server: &ServerHandle) -> BufReader<TcpStream> {
    BufReader::new(TcpStream::connect(server.addr()).expect("raw connect"))
}

fn queries() -> [(&'static str, CellQuery); 3] {
    let g = group(17);
    let point = GroupFilter {
        pop: Some(g.pop.0),
        prefix: Some((g.prefix.base, g.prefix.len)),
        ..GroupFilter::default()
    };
    [
        ("bare", CellQuery::default()),
        (
            "windows",
            CellQuery { from_window: Some(1), until_window: Some(3), ..CellQuery::default() },
        ),
        ("point", CellQuery { group: point, ..CellQuery::default() }),
    ]
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("edgeperf-reply-bytes-{tag}-{}", std::process::id()))
}

/// Check every query against a server.
fn check(server: &ServerHandle, serial: &[CellLine], what: &str) {
    let mut conn = raw(server);
    for (name, query) in queries() {
        let expected = expected_rows(serial, &query);
        assert!(!expected.is_empty(), "{what} {name}: the query selects something");
        let got = raw_reply(&mut conn, &Request::Cells(query).wire_line());
        assert!(
            got == Response::Cells(expected).render() + "\n",
            "{what} {name}: reply bytes differ from the rendered Vec<CellLine>"
        );
    }
}

#[test]
fn streamed_replies_are_the_rendered_replies_byte_for_byte() {
    let records = records();
    let serial = serial_cells(&records, WINDOW_MS, LATENESS_MS).expect("in-order records");
    let mut windows: Vec<u32> = serial.iter().map(|c| c.window).collect();
    windows.dedup();
    assert_eq!(windows, [0, 1, 2, 3, 4]);
    for workers in [1usize, 2, 4] {
        // No store: everything in RAM, and a bare `cells` is as canonical
        // as every other reply.
        let (server, control) = replayed(config(workers, 16, None), Metrics::disabled(), &records);
        check(&server, &serial, &format!("workers={workers} store-less"));
        // The `digest` verb is gone: what it answers is what any
        // unknown command answers.
        assert_eq!(
            raw_reply(&mut raw(&server), "digest proto=1"),
            "{\"error\":\"unknown command digest proto=1\"}\n"
        );
        stop(server, control);

        // A store: the first server spills all but its newest windows
        // (0..=2 at least); a second one on the same directory replays
        // windows 2.. and keeps them all, so window 2 is on disk and in
        // RAM, 0 and 1 on disk only, 4 in RAM only.
        let dir = tmp_dir(&format!("w{workers}"));
        let _ = std::fs::remove_dir_all(&dir);
        let (server, control) =
            replayed(config(workers, 2, Some(&dir)), Metrics::disabled(), &records);
        stop(server, control);
        let tail: Vec<LiveRecord> =
            records.iter().filter(|r| r.ts_ms >= 2.0 * WINDOW_MS).copied().collect();
        let (server, mut control) =
            replayed(config(workers, 16, Some(&dir)), Metrics::disabled(), &tail);
        let store = control.store_stats().expect("store stats");
        assert!(
            store.from_window == Some(0) && matches!(store.until_window, Some(2 | 3)),
            "the first server spilled windows 0..=2 and never its newest: {store:?}"
        );
        check(&server, &serial, &format!("workers={workers} spilling"));
        stop(server, control);
        std::fs::remove_dir_all(&dir).expect("spill dir cleanup");
    }
}

/// Per-query observability (ROADMAP item 5's `serve` metrics): two
/// `cells` queries, and the `metrics` verb reports one timing each and
/// exactly the rows and bytes the two replies carried.
#[test]
fn query_metrics_count_what_the_replies_carried() {
    let records = records();
    let (server, control) = replayed(config(2, 16, None), Metrics::enabled(), &records);
    let mut conn = raw(&server);
    let windows = CellQuery { from_window: Some(1), until_window: Some(3), ..CellQuery::default() };
    let ranged = raw_reply(&mut conn, &Request::Cells(windows).wire_line());
    let bare = raw_reply(&mut conn, "cells");
    let rows = |reply: &str| reply.lines().count() as f64 - 1.0;
    assert!(rows(&ranged) > 0.0 && rows(&bare) > rows(&ranged));
    let metrics = serde_json::parse(raw_reply(&mut conn, "metrics").trim_end())
        .expect("metrics reply parses");
    let metric = |kind: &str, name: &str| {
        metrics
            .get(kind)
            .and_then(|m| m.get(name))
            .unwrap_or_else(|| panic!("{kind}.{name}"))
            .clone()
    };
    assert_eq!(
        metric("counters", "live.query.rows"),
        serde_json::Value::Num(rows(&ranged) + rows(&bare))
    );
    assert_eq!(
        metric("counters", "live.query.reply_bytes"),
        serde_json::Value::Num((ranged.len() + bare.len()) as f64)
    );
    let timing = metric("histograms", "live.query.cells_ns");
    assert_eq!(timing.get("count"), Some(&serde_json::Value::Num(2.0)));
    assert!(matches!(timing.get("sum"), Some(serde_json::Value::Num(ns)) if *ns > 0.0));
    stop(server, control);
}
