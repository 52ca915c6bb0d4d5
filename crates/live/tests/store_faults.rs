//! A store read that fails while a `cells` reply is being counted is the
//! reply: a real server whose spilled segment is damaged on disk answers
//! `{"error":"store: …"}` and nothing else, and the connection goes on
//! serving. (A failure after the header — the reply's second pass — is
//! `reply.rs`'s test: it cannot be timed against a running server.)

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::os::unix::fs::FileExt;
use std::sync::Arc;

use edgeperf_analysis::{GroupKey, SegmentIndex};
use edgeperf_core::EdgeperfError;
use edgeperf_live::{
    BinarySender, CellQuery, LiveClient, LiveConfig, LiveRecord, LiveServer, Request,
};
use edgeperf_obs::Metrics;
use edgeperf_routing::{PopId, Prefix, Relationship};

const WINDOW_MS: f64 = 1_000.0;
const WINDOWS: u32 = 5;
const GROUPS: u32 = 40;

/// One record a group a window, then one a group two windows on, which
/// closes the last of them.
fn records() -> Vec<LiveRecord> {
    (0..=WINDOWS + 1)
        .filter(|&w| w != WINDOWS)
        .flat_map(|w| {
            (0..GROUPS).map(move |g| LiveRecord {
                ts_ms: f64::from(w) * WINDOW_MS + f64::from(g),
                group: GroupKey {
                    pop: PopId(u16::try_from(g % 4).expect("small")),
                    prefix: Prefix::new(g << 8, 24),
                    country: 1,
                    continent: 2,
                },
                route_rank: 0,
                relationship: Relationship::Transit,
                longer_path: false,
                more_prepended: false,
                min_rtt_ms: 10.0 + f64::from(g),
                hdratio: Some(0.5),
                bytes: 1_000,
            })
        })
        .collect()
}

#[test]
fn a_segment_damaged_on_disk_is_a_store_error_before_any_row() {
    let dir = std::env::temp_dir().join(format!("edgeperf-store-faults-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = LiveConfig {
        workers: 1,
        window_ms: WINDOW_MS,
        lateness_ms: 250.0,
        retention_windows: 1,
        spill_dir: Some(dir.clone()),
        ..LiveConfig::default()
    };
    let parser = |_: &str| Err(EdgeperfError::UnknownDuration);
    let server =
        LiveServer::start(config, Arc::new(parser), Metrics::disabled()).expect("server starts");
    let mut sender = BinarySender::connect(server.addr()).expect("binary connect");
    let records = records();
    for rec in &records {
        sender.send(rec).expect("send frame");
    }
    sender.finish().expect("finish");
    let mut control = LiveClient::connect(server.addr()).expect("control connect");
    control.wait_processed(records.len() as u64).expect("every frame processed");
    assert!(control.store_stats().expect("store stats").segments > 0, "windows were spilled");

    // Flip a byte inside the first row group of the first segment, in
    // place: its checksum no longer holds.
    let segment = dir.join("seg-00000000.seg");
    let file = std::fs::OpenOptions::new().read(true).write(true).open(&segment).expect("opens");
    let at = SegmentIndex::of_file(&file).expect("indexes").groups()[0].offset + 9;
    let mut byte = [0u8];
    file.read_exact_at(&mut byte, at).expect("reads");
    file.write_all_at(&[byte[0] ^ 0x40], at).expect("writes in place");

    let mut conn = BufReader::new(TcpStream::connect(server.addr()).expect("raw connect"));
    let query = CellQuery { from_window: Some(0), until_window: Some(3), ..CellQuery::default() };
    writeln!(conn.get_mut(), "{}", Request::Cells(query).wire_line()).expect("send");
    writeln!(conn.get_mut(), "{}", Request::Version.wire_line()).expect("send");
    let mut reply = String::new();
    conn.read_line(&mut reply).expect("a reply");
    assert!(reply.starts_with("{\"error\":\"store: "), "{reply}");
    assert!(reply.contains("checksum"), "{reply}");
    // The next line is the next command's reply: no header or row went
    // out before the error.
    reply.clear();
    conn.read_line(&mut reply).expect("a reply");
    assert!(reply.starts_with("{\"protocol\":"), "{reply}");

    assert!(control.shutdown().expect("shutdown").drained);
    let _ = server.join();
    std::fs::remove_dir_all(&dir).expect("spill dir cleanup");
}
