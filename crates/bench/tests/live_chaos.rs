//! Chaos integration tests for the live tier: deterministic fault
//! plans (wire cuts, torn records, slow-loris stalls, worker panics,
//! injected ENOSPC) against the reconnect-and-resume client, asserting
//! the recovery is *exact* (`ChaosReport::verdict`) — every record
//! applied exactly once and the closed cells of the settled horizon
//! bit-identical to the serial oracle — at several worker counts and on
//! both wire formats.

use edgeperf_bench::loadgen::{run_chaos, ChaosRunOpts, LoadgenConfig, WireMode};
use edgeperf_live::ChaosPlan;
use std::path::PathBuf;

fn cfg(wire: WireMode, sessions: usize, windows: u32, seed: u64) -> LoadgenConfig {
    LoadgenConfig { wire, sessions, windows, groups: 16, seed, ..LoadgenConfig::default() }
}

fn tmp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("edgeperf-live-chaos-{tag}-{}", std::process::id()))
}

#[test]
fn kills_mid_replay_resume_bit_identical_at_1_4_16_workers_both_wires() {
    let plan = ChaosPlan::parse("disconnect:40;torn:90;disconnect:150;torn:230;seed:3")
        .expect("valid plan");
    for wire in [WireMode::Jsonl, WireMode::Binary] {
        for workers in [1usize, 4, 16] {
            let report = run_chaos(
                &cfg(wire, 1_200, 4, 3),
                &plan,
                &ChaosRunOpts { workers, ..ChaosRunOpts::default() },
            )
            .expect("chaos replay");
            assert_eq!(report.verdict(), Ok(()), "{report:?}");
            assert_eq!(report.sessions, 1_200);
            assert_eq!(report.injected_disconnects, 2, "wire={wire:?} workers={workers}");
            assert_eq!(report.injected_torn, 2, "wire={wire:?} workers={workers}");
            assert!(report.reconnects >= 4, "four cuts force four reconnects: {report:?}");
            assert_eq!(
                report.truncated_tails, 2,
                "each torn record leaves one unconsumed tail: {report:?}"
            );
        }
    }
}

#[test]
fn worker_panics_recover_in_place_without_losing_records() {
    let plan = ChaosPlan::parse("panic:0@100;panic:0@250;panic:1@200;seed:9").expect("valid plan");
    let report = run_chaos(
        &cfg(WireMode::Jsonl, 1_500, 4, 9),
        &plan,
        &ChaosRunOpts { workers: 2, ..ChaosRunOpts::default() },
    )
    .expect("chaos replay");
    assert_eq!(report.verdict(), Ok(()), "{report:?}");
    assert_eq!(report.sessions, 1_500);
    assert_eq!(report.worker_recovered, 3, "all three scripted panics recovered: {report:?}");
    assert_eq!(report.reconnects, 0, "worker panics are invisible to the client: {report:?}");
}

#[test]
fn injected_enospc_degrades_the_store_then_a_probe_recovers_it() {
    let dir = tmp_dir("enospc");
    let plan = ChaosPlan::parse("spillfail:0@3;seed:5").expect("valid plan");
    let report = run_chaos(
        &cfg(WireMode::Jsonl, 2_500, 12, 5),
        &plan,
        &ChaosRunOpts { workers: 2, spill: Some((dir.clone(), 2)), ..ChaosRunOpts::default() },
    )
    .expect("chaos replay");
    std::fs::remove_dir_all(&dir).expect("spill dir cleanup");
    assert_eq!(report.verdict(), Ok(()), "{report:?}");
    assert_eq!(report.sessions, 2_500);
    assert!(report.spill_errors >= 3, "three injected ENOSPC failures counted: {report:?}");
    assert!(!report.degraded_at_end, "a later probe must clear degraded mode: {report:?}");
}

#[test]
fn slow_client_eviction_is_survived_by_resume() {
    let plan = ChaosPlan::parse("stall:60@800;seed:11").expect("valid plan");
    let report = run_chaos(
        &cfg(WireMode::Binary, 1_200, 4, 11),
        &plan,
        &ChaosRunOpts { workers: 2, idle_timeout_ms: 150, ..ChaosRunOpts::default() },
    )
    .expect("chaos replay");
    assert_eq!(report.verdict(), Ok(()), "{report:?}");
    assert_eq!(report.sessions, 1_200);
    assert_eq!(report.injected_stalls, 1, "{report:?}");
    assert!(report.conns_evicted >= 1, "the stall must outlive the idle deadline: {report:?}");
    assert!(report.reconnects >= 1, "eviction forces a resume: {report:?}");
}
