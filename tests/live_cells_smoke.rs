//! Tier-1 smoke for the live cell path: a seeded wide-shaped replay — many
//! groups, about 30 records per (group, rank) cell, the paper's validity
//! minimum — through a real `LiveServer` over the binary wire at
//! one and two workers must report cells bit-identical to a serial
//! `WindowRing` (the proof kit's [`serial_cells`], compared by its
//! [`first_difference`]). The full-size suites (`live_agreement`, `live_store`,
//! `live_chaos`) live in `crates/bench` and do not run under `cargo test -q`.

use std::sync::Arc;

use edgeperf::analysis::GroupKey;
use edgeperf::core::HD_GOODPUT_BPS;
use edgeperf::live::{
    cell_line_sort_key, first_difference, serial_cells, BinarySender, CellLine, LiveClient,
    LiveConfig, LiveRecord, LiveServer,
};
use edgeperf::obs::Metrics;
use edgeperf::routing::{PopId, Prefix, Relationship};
use edgeperf::serve::WireParser;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;

const WINDOW_MS: f64 = 1_000.0;
const LATENESS_MS: f64 = 250.0;
const GROUPS: u64 = 512;
const PER_WINDOW: u64 = GROUPS * 2 * 30;
/// Three full windows; one record per group in the fifth then closes the
/// third on whichever worker owns the group.
const FULL_WINDOWS: u64 = 3;

fn group(g: u64) -> GroupKey {
    GroupKey {
        pop: PopId((g % 4) as u16),
        prefix: Prefix::new((g as u32) << 8, 24),
        country: (g % 9) as u16,
        continent: (g % 6) as u8,
    }
}

/// Timestamps evenly spread and in order, uniform group and rank, no
/// HDratio for one record in five.
fn records() -> Vec<LiveRecord> {
    let mut rng = ChaCha12Rng::seed_from_u64(0x11CE11);
    let mut out: Vec<LiveRecord> = (0..FULL_WINDOWS * PER_WINDOW)
        .map(|i| {
            let (g, rank) = (rng.gen_range(0..GROUPS), rng.gen_range(0..2u8));
            let u = rng.gen_range(0.0..1.0f64);
            LiveRecord {
                ts_ms: i as f64 * WINDOW_MS / PER_WINDOW as f64,
                group: group(g),
                route_rank: rank,
                relationship: if rank == 0 {
                    Relationship::PrivatePeer
                } else {
                    Relationship::Transit
                },
                longer_path: rank > 0,
                more_prepended: g % 3 == 0,
                min_rtt_ms: 8.0 + 120.0 * u * u,
                hdratio: (rng.gen_range(0..5) != 0).then_some(1.0 - u),
                bytes: rng.gen_range(1_000..51_000u64),
            }
        })
        .collect();
    let closer = LiveRecord { ts_ms: (FULL_WINDOWS + 1) as f64 * WINDOW_MS, ..out[0] };
    out.extend((0..GROUPS).map(|g| LiveRecord { group: group(g), ..closer }));
    out
}

fn served_cells(records: &[LiveRecord], workers: usize) -> Vec<CellLine> {
    let config = LiveConfig {
        workers,
        window_ms: WINDOW_MS,
        lateness_ms: LATENESS_MS,
        retention_windows: 8,
        ..LiveConfig::default()
    };
    let server =
        LiveServer::start(config, Arc::new(WireParser::new(HD_GOODPUT_BPS)), Metrics::disabled())
            .expect("server starts");
    let mut sender = BinarySender::connect(server.addr()).expect("binary connect");
    for rec in records {
        sender.send(rec).expect("send frame");
    }
    sender.finish().expect("finish");
    // Binary connections carry no commands: a control connection waits
    // until every frame is accounted for.
    let mut control = LiveClient::connect(server.addr()).expect("control connect");
    let snap = control.wait_processed(records.len() as u64).expect("every frame processed");
    assert_eq!((snap.accepted, snap.rejected, snap.late), (records.len() as u64, 0, 0));
    let mut cells = control.cells().expect("cells");
    assert!(control.shutdown().expect("shutdown").drained);
    let _ = server.join();
    cells.sort_by_key(cell_line_sort_key);
    cells
}

#[test]
fn wide_replay_cells_are_bit_identical_to_a_serial_ring() {
    let records = records();
    let serial = serial_cells(&records, WINDOW_MS, LATENESS_MS).expect("in-order records");
    let windows: Vec<u32> = serial.iter().map(|c| c.window).collect();
    assert_eq!((windows[0], windows[windows.len() - 1]), (0, FULL_WINDOWS as u32 - 1));
    assert_eq!(serial.len() as u64, FULL_WINDOWS * GROUPS * 2, "every cell of every window");
    for workers in [1, 2] {
        let served = served_cells(&records, workers);
        assert_eq!(first_difference(&served, &serial), None, "workers={workers}");
    }
}
