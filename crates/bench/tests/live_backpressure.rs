//! Backpressure discipline of the live server's lock-free fan-out:
//! when a per-worker lane fills, the reader must *block* until the
//! worker catches up — never drop, never error — and the control
//! plane (ping) must stay responsive because it bypasses the record
//! lanes entirely.
//!
//! Every test here runs with `queue_capacity: 1`, which rounds up to a
//! single batch slot per (connection, worker) lane. Total in-flight
//! buffering is then a few hundred records at most, so replays of tens
//! of thousands of sessions are guaranteed to hit the full-ring path
//! thousands of times. If the server dropped on full instead of
//! blocking, `accepted` could not equal the number of lines sent.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use edgeperf::core::HD_GOODPUT_BPS;
use edgeperf::live::{LiveClient, LiveConfig, LiveServer, ServerHandle};
use edgeperf::obs::Metrics;
use edgeperf::serve::WireParser;
use edgeperf_bench::loadgen::{generate_lines, LoadgenConfig};

fn start(workers: usize) -> ServerHandle {
    let config = LiveConfig {
        workers,
        window_ms: 1_000.0,
        lateness_ms: 250.0,
        queue_capacity: 1,
        retention_windows: 16,
        ..LiveConfig::default()
    };
    LiveServer::start(config, Arc::new(WireParser::new(HD_GOODPUT_BPS)), Metrics::enabled())
        .expect("server starts")
}

fn lines(sessions: usize, seed: u64) -> Vec<String> {
    generate_lines(&LoadgenConfig {
        sessions,
        groups: 16,
        windows: 4,
        window_ms: 1_000.0,
        max_txns: 2,
        seed,
        ..LoadgenConfig::default()
    })
}

/// A replay far larger than the total lane capacity completes with
/// every record accepted: the reader blocked on full rings (thousands
/// of times, given one batch slot per lane) instead of shedding load,
/// and the drain protocol flushed every in-flight batch before the
/// final snapshot.
#[test]
fn full_lanes_block_the_reader_and_drop_nothing() {
    let sent = 8_000usize;
    let replay = lines(sent, 7);
    let server = start(2);
    let mut client = LiveClient::connect(server.addr()).expect("connect");
    for line in &replay {
        client.send_line(line).expect("send");
    }
    client.flush().expect("flush");
    let snap = client.shutdown().expect("shutdown");
    assert!(snap.drained, "{snap:?}");
    assert_eq!(snap.accepted, sent as u64, "blocked, not dropped: {snap:?}");
    assert_eq!(snap.rejected, 0, "{snap:?}");
    assert_eq!(snap.late, 0, "{snap:?}");
    let _ = server.join();
}

/// Ping rides each worker's control channel, not the record lanes, so
/// it answers even while another connection keeps every lane
/// saturated. The flood runs on its own thread; the main thread pings
/// throughout and every round-trip must succeed.
#[test]
fn ping_stays_responsive_while_lanes_are_full() {
    let sent = 20_000usize;
    let replay = lines(sent, 11);
    let server = start(2);
    let addr = server.addr();

    let done = Arc::new(AtomicBool::new(false));
    let flood = {
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut client = LiveClient::connect(addr).expect("flood connect");
            for line in &replay {
                client.send_line(line).expect("flood send");
            }
            client.flush().expect("flood flush");
            // Sync barrier: snapshot waits until this connection's
            // records are all applied, so the main thread sees exact
            // totals once `done` flips.
            let snap = client.snapshot().expect("flood snapshot");
            done.store(true, Ordering::Release);
            snap
        })
    };

    let mut control = LiveClient::connect(addr).expect("control connect");
    let mut pings = 0u32;
    while !done.load(Ordering::Acquire) {
        control.ping().expect("ping under load");
        pings += 1;
    }
    assert!(pings > 0, "at least one ping raced the flood");
    let flood_snap = flood.join().expect("flood thread");
    assert_eq!(flood_snap.accepted, sent as u64, "{flood_snap:?}");
    assert_eq!(flood_snap.rejected, 0, "{flood_snap:?}");

    let snap = control.shutdown().expect("shutdown");
    assert!(snap.drained, "{snap:?}");
    assert_eq!(snap.accepted, sent as u64, "{snap:?}");
    let _ = server.join();
}

/// The full multi-connection replay protocol (loadgen's exactly-once
/// sessions, advanced together in chunks) against a server whose lanes
/// hold a single batch each: every (connection, worker) lane saturates
/// constantly, yet the run ends with every session accepted, zero
/// rejects, and a clean drain.
#[test]
fn concurrent_connections_drain_clean_under_pressure() {
    let sessions = 12_000usize;
    let server = start(4);
    let cfg = LoadgenConfig {
        addr: server.addr().to_string(),
        sessions,
        connections: 3,
        groups: 16,
        windows: 4,
        window_ms: 1_000.0,
        // Must match the server's lateness bound: the sender chunking
        // keys off it to keep connection skew ahead of the watermark.
        lateness_ms: 250.0,
        max_txns: 2,
        shutdown: true,
        ..LoadgenConfig::default()
    };
    let report = edgeperf_bench::loadgen::run(&cfg).expect("replay");
    assert!(report.drained, "{report:?}");
    assert_eq!(report.accepted, sessions as u64, "blocked, not dropped: {report:?}");
    assert_eq!(report.rejected, 0, "{report:?}");
    assert_eq!(report.late, 0, "{report:?}");
    let _ = server.join();
}
