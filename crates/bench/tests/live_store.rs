//! Integration tests for the tiered window store through the live
//! server: windows evicted past the RAM retention horizon spill to
//! columnar segments, and a `cells` range query that spans disk and RAM
//! must return rows bit-identical to a server that kept the whole
//! horizon in memory — at any worker count, after a restart, and after
//! background compaction has rewritten the segments.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use edgeperf::core::HD_GOODPUT_BPS;
use edgeperf::live::{
    first_difference, CellLine, CellQuery, GroupFilter, LiveClient, LiveConfig, LiveServer,
    ServerHandle,
};
use edgeperf::obs::Metrics;
use edgeperf::serve::WireParser;
use edgeperf_bench::loadgen::{generate_lines, LoadgenConfig};

const WINDOW_MS: f64 = 1_000.0;
const LATENESS_MS: f64 = 250.0;
const WINDOWS: u32 = 24;

fn lines(sessions: usize) -> Vec<String> {
    generate_lines(&LoadgenConfig {
        sessions,
        groups: 16,
        windows: WINDOWS,
        window_ms: WINDOW_MS,
        max_txns: 2,
        lateness_ms: LATENESS_MS,
        ..LoadgenConfig::default()
    })
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

fn start(config: LiveConfig) -> ServerHandle {
    LiveServer::start(config, Arc::new(WireParser::new(HD_GOODPUT_BPS)), Metrics::enabled())
        .expect("server starts")
}

fn tmp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("edgeperf-live-store-{tag}-{}", std::process::id()))
}

/// Replay every line down the connection and block until the server has
/// folded them all in (single connection, so the replay is late-free).
fn replay(client: &mut LiveClient, lines: &[String]) {
    for line in lines {
        client.send_line(line).expect("send");
    }
    client.flush().expect("flush");
    let snap = client.wait_processed(lines.len() as u64).expect("every line processed");
    assert_eq!(snap.rejected, 0, "clean replay: {snap:?}");
}

/// The full horizon. `from=0` makes the query "filtered", which routes
/// both store-less and store-backed servers through the canonical sort.
fn full() -> CellQuery {
    CellQuery { from_window: Some(0), ..CellQuery::default() }
}

#[test]
fn spilled_query_is_bit_identical_to_all_ram_at_1_4_16_workers() {
    let lines = lines(4_000);
    for workers in [1usize, 4, 16] {
        let dir = tmp_dir(&format!("workers{workers}"));
        let spill = start(config(workers, 2, Some(&dir)));
        let mut client = LiveClient::connect(spill.addr()).expect("connect");
        replay(&mut client, &lines);
        let store = client.store_stats().expect("store stats");
        assert!(store.spilled_windows > 0, "retention 2 of {WINDOWS} must spill: {store:?}");
        assert!(store.segments > 0, "{store:?}");
        let spilled_rows = client.cells_query(&full()).expect("spilled cells");
        client.shutdown().expect("shutdown");
        let _ = spill.join();

        let ram = start(config(workers, WINDOWS as usize + 4, None));
        let mut client = LiveClient::connect(ram.addr()).expect("connect");
        replay(&mut client, &lines);
        let ram_rows = client.cells_query(&full()).expect("ram cells");
        client.shutdown().expect("shutdown");
        let _ = ram.join();

        assert!(!spilled_rows.is_empty());
        assert_eq!(
            first_difference(&spilled_rows, &ram_rows),
            None,
            "disk+RAM merge drifted from all-RAM at workers={workers}"
        );
        std::fs::remove_dir_all(&dir).expect("spill dir cleanup");
    }
}

#[test]
fn range_and_group_filters_match_a_manual_filter_of_the_full_result() {
    let lines = lines(3_000);
    let dir = tmp_dir("filters");
    let server = start(config(4, 2, Some(&dir)));
    let mut client = LiveClient::connect(server.addr()).expect("connect");
    replay(&mut client, &lines);

    let all = client.cells_query(&full()).expect("full cells");
    assert!(!all.is_empty());

    let sub = CellQuery { from_window: Some(3), until_window: Some(11), ..CellQuery::default() };
    let got = client.cells_query(&sub).expect("range cells");
    let want: Vec<CellLine> =
        all.iter().filter(|c| (3..=11).contains(&c.window)).cloned().collect();
    assert!(!got.is_empty(), "historical range must hit spilled windows");
    assert_eq!(
        first_difference(&got, &want),
        None,
        "window-range query drifted from a manual filter"
    );

    let pop = all[0].pop;
    let grouped = CellQuery {
        from_window: Some(0),
        group: GroupFilter { pop: Some(pop), ..GroupFilter::default() },
        ..CellQuery::default()
    };
    let got = client.cells_query(&grouped).expect("group cells");
    let want: Vec<CellLine> = all.iter().filter(|c| c.pop == pop).cloned().collect();
    assert!(!got.is_empty());
    assert_eq!(
        first_difference(&got, &want),
        None,
        "group-filtered query drifted from a manual filter"
    );

    client.shutdown().expect("shutdown");
    let _ = server.join();
    std::fs::remove_dir_all(&dir).expect("spill dir cleanup");
}

#[test]
fn restart_serves_spilled_history_from_the_manifest() {
    let lines = lines(3_000);
    let dir = tmp_dir("restart");
    // Every window at or below this index is past the retention horizon
    // on every worker, i.e. on disk only.
    let historical =
        CellQuery { from_window: Some(0), until_window: Some(12), ..CellQuery::default() };

    let first = start(config(4, 2, Some(&dir)));
    let mut client = LiveClient::connect(first.addr()).expect("connect");
    replay(&mut client, &lines);
    let before = client.cells_query(&historical).expect("historical cells");
    assert!(!before.is_empty(), "nothing spilled below window 12");
    client.shutdown().expect("shutdown");
    let _ = first.join();

    // A fresh server over the same directory, fed nothing: the manifest
    // replay alone must serve the same history.
    let second = start(config(4, 2, Some(&dir)));
    let mut client = LiveClient::connect(second.addr()).expect("connect");
    let after = client.cells_query(&historical).expect("recovered cells");
    assert_eq!(first_difference(&after, &before), None, "manifest recovery lost or altered cells");
    client.shutdown().expect("shutdown");
    let _ = second.join();
    std::fs::remove_dir_all(&dir).expect("spill dir cleanup");
}

#[test]
fn compaction_rewrites_segments_without_changing_query_results() {
    let lines = lines(3_000);
    let dir = tmp_dir("compaction");
    let server =
        start(LiveConfig { compact_min_segments: 2, compact_batch: 2, ..config(4, 2, Some(&dir)) });
    let mut client = LiveClient::connect(server.addr()).expect("connect");
    replay(&mut client, &lines);

    // The compactor runs on a 50ms tick; with thresholds this low it
    // must fire quickly once the replay has spilled.
    let deadline = Instant::now() + Duration::from_secs(10);
    let store = loop {
        let store = client.store_stats().expect("store stats");
        if store.compactions > 0 {
            break store;
        }
        assert!(Instant::now() < deadline, "compactor never ran: {store:?}");
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(store.spilled_windows > 0, "{store:?}");
    let compacted_rows = client.cells_query(&full()).expect("compacted cells");
    client.shutdown().expect("shutdown");
    let _ = server.join();

    let ram = start(config(4, WINDOWS as usize + 4, None));
    let mut client = LiveClient::connect(ram.addr()).expect("connect");
    replay(&mut client, &lines);
    let ram_rows = client.cells_query(&full()).expect("ram cells");
    client.shutdown().expect("shutdown");
    let _ = ram.join();

    assert!(!compacted_rows.is_empty());
    assert_eq!(
        first_difference(&compacted_rows, &ram_rows),
        None,
        "compaction changed what a full-range query returns"
    );
    std::fs::remove_dir_all(&dir).expect("spill dir cleanup");
}
