//! What the coordinator answers on its socket, byte for byte.
//! `crates/live/tests/reply_bytes.rs` pins every PoP reply; this pins the
//! fleet's: a 2-PoP fleet fed a fixed binary replay answers each verb
//! below with the bytes in `data/coordinator_replies.txt`, recorded from
//! the commit before `FleetClient` became a `LiveClient` and `dispatch`
//! handed the PoP's verbs to `Request::parse` (the ephemeral `addr`
//! fields masked). Two replies changed on purpose then and are asserted
//! on their own, so at that commit this test fails on exactly them:
//! trailing junk after a PoP verb is refused where it used to be served,
//! and a bad `cells` argument is refused in the PoP's own words where it
//! used to be wrapped in `fleet: protocol: …`.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

use edgeperf_analysis::GroupKey;
use edgeperf_core::EdgeperfError;
use edgeperf_fleet::{CatchmentModel, ClientKey, Fleet, FleetConfig};
use edgeperf_live::{parse_cells_header, BinarySender, LiveClient, LiveRecord};
use edgeperf_obs::Metrics;
use edgeperf_routing::{PopId, Prefix, Relationship};

const POPS: u16 = 2;
const SEED: u64 = 7;
const WINDOW_MS: f64 = 1_000.0;
const GROUPS: u32 = 6;
const WINDOWS: u32 = 3;
const PER_WINDOW: u32 = 240;

fn client_key(g: u32) -> ClientKey {
    ClientKey {
        prefix_base: 0x0A00_0000 + (g << 8),
        prefix_len: 24,
        country: u16::try_from(g % 5).expect("small"),
        continent: u8::try_from(g % 6).expect("small"),
    }
}

/// `WINDOWS` full windows in timestamp order over `GROUPS` groups, each
/// record carrying the PoP the catchment homes its group on, then one
/// record per group two windows on, which closes the last of them.
fn records(catchment: &CatchmentModel) -> Vec<LiveRecord> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state =
            state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        state >> 33
    };
    let group = |g: u32| {
        let key = client_key(g);
        GroupKey {
            pop: PopId(catchment.home(&key).expect("both PoPs alive")),
            prefix: Prefix::new(key.prefix_base, key.prefix_len),
            country: key.country,
            continent: key.continent,
        }
    };
    let mut out: Vec<LiveRecord> = (0..WINDOWS * PER_WINDOW)
        .map(|i| {
            let g = u32::try_from(next() % u64::from(GROUPS)).expect("small");
            let u = (next() % 10_000) as f64 / 10_000.0;
            LiveRecord {
                ts_ms: f64::from(i) * WINDOW_MS / f64::from(PER_WINDOW),
                group: group(g),
                route_rank: 0,
                relationship: Relationship::PrivatePeer,
                longer_path: false,
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

/// One command on the coordinator's socket; the reply exactly as sent,
/// the rows of a `cells` reply and every newline included.
fn raw_reply(conn: &mut BufReader<TcpStream>, command: &str) -> String {
    writeln!(conn.get_mut(), "{command}").expect("send");
    let mut reply = String::new();
    conn.read_line(&mut reply).expect("first line");
    for _ in 0..parse_cells_header(reply.trim_end()).unwrap_or(0) {
        assert_ne!(conn.read_line(&mut reply).expect("row"), 0, "reply ended early");
    }
    reply
}

/// `"addr":"127.0.0.1:PORT"` → `"addr":"*"`: the one thing in a reply
/// that differs run to run.
fn mask_addrs(reply: &str) -> String {
    let mut out = String::new();
    let mut rest = reply;
    while let Some((head, tail)) = rest.split_once("\"addr\":\"") {
        out.push_str(head);
        out.push_str("\"addr\":\"*");
        rest = &tail[tail.find('"').expect("closing quote")..];
    }
    out + rest
}

#[test]
fn coordinator_replies_are_the_recorded_bytes() {
    let config = FleetConfig {
        pops: POPS,
        workers: 2,
        window_ms: WINDOW_MS,
        lateness_ms: 250.0,
        retention_windows: 16,
        seed: SEED,
        ..FleetConfig::default()
    };
    let parser = |_: &str| Err(EdgeperfError::UnknownDuration);
    let fleet = Fleet::start(&config, Arc::new(parser), &Metrics::enabled()).expect("fleet starts");

    // Each record straight to the PoP its group is homed on, as anycast
    // would deliver it; then wait until every PoP has folded its share in.
    let records = records(&CatchmentModel::new(POPS, SEED));
    for (pop, addr) in fleet.pop_addrs().iter().enumerate() {
        let mine: Vec<&LiveRecord> =
            records.iter().filter(|r| usize::from(r.group.pop.0) == pop).collect();
        assert!(!mine.is_empty(), "the catchment homes some group on PoP {pop}");
        let mut sender = BinarySender::connect(addr).expect("binary connect");
        mine.iter().for_each(|rec| sender.send(rec).expect("send frame"));
        sender.finish().expect("finish");
        let mut control = LiveClient::connect(addr).expect("control connect");
        let snap = control.wait_processed(mine.len() as u64).expect("PoP folds its share in");
        assert_eq!((snap.accepted, snap.rejected), (mine.len() as u64, 0), "PoP {pop}");
    }

    let mut conn = BufReader::new(TcpStream::connect(fleet.addr()).expect("connect"));
    let mut transcript = String::new();
    for command in [
        "ping",
        "fleet ping",
        "pops",
        "home 167772160/24 3 1",
        "snapshot",
        "cells",
        "cells from=0 until=1",
        "stats",
        "kill 1",
        "kill 1",
        "kill 9",
        "frobnicate",
    ] {
        transcript.push_str(&format!("> {command}\n"));
        transcript.push_str(&mask_addrs(&raw_reply(&mut conn, command)));
    }

    // The two deliberate changes (module docs).
    assert_eq!(
        raw_reply(&mut conn, "snapshot x"),
        "{\"error\":\"fleet: protocol: unknown command snapshot x\"}\n"
    );
    assert_eq!(
        raw_reply(&mut conn, "cells from=x"),
        "{\"error\":\"cells: from=x: bad window index x\"}\n"
    );

    transcript.push_str("> shutdown\n");
    transcript.push_str(&raw_reply(&mut conn, "shutdown"));
    assert!(fleet.join().drained);
    assert!(
        transcript == include_str!("data/coordinator_replies.txt"),
        "the coordinator's replies moved:\n{transcript}"
    );
}
