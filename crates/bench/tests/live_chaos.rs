//! Chaos integration tests for the live tier: deterministic fault
//! plans (wire cuts, torn records, slow-loris stalls, worker panics,
//! injected ENOSPC) against the reconnect-and-resume client, asserting
//! the recovery is *exact* (`ChaosReport::verdict`) — every record
//! applied exactly once and the closed cells of the settled horizon
//! bit-identical to the serial oracle — at several worker counts and on
//! both wire formats.

use edgeperf_bench::loadgen::{run_chaos, ChaosRunOpts, LoadgenConfig, WireMode};
use edgeperf_live::{ChaosPlan, LiveClient};
use serde_json::Value;
use std::io;
use std::path::PathBuf;

fn cfg(wire: WireMode, sessions: usize, windows: u32, seed: u64) -> LoadgenConfig {
    LoadgenConfig { wire, sessions, windows, groups: 16, seed, ..LoadgenConfig::default() }
}

fn tmp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("edgeperf-live-chaos-{tag}-{}", std::process::id()))
}

#[test]
fn kills_mid_replay_resume_bit_identical_at_1_4_16_workers_both_wires() {
    let plan =
        ChaosPlan::parse("disconnect:40;torn:90;disconnect:150;torn:230").expect("valid plan");
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
    let plan = ChaosPlan::parse("panic:0@100;panic:0@250;panic:1@200").expect("valid plan");
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
    let plan = ChaosPlan::parse("spillfail:0@3").expect("valid plan");
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

/// A number in a parsed reply, by path; 0 when absent, as a registry
/// reports a metric nothing touched.
fn num(v: &Value, path: &[&str]) -> f64 {
    match path.iter().try_fold(v, |v, key| v.get(key)) {
        Some(Value::Num(n)) => *n,
        _ => 0.0,
    }
}

/// `Err` naming the first metric `serve` mirrors from its account whose
/// registry value is not the account's field in `snapshot`, `stats` or
/// `store`.
fn metrics_mirror_the_account(control: &mut LiveClient) -> io::Result<()> {
    let parse = |reply: String| serde_json::parse(&reply).map_err(io::Error::other);
    // The compactor is the one thing that moves on a quiesced server:
    // read again until `store` holds still across the replies.
    let (snap, stats, store, metrics) = loop {
        let store = control.store_stats().ok();
        let snap = control.snapshot()?;
        let (stats, metrics) = (parse(control.stats_json()?)?, parse(control.metrics_json()?)?);
        if control.store_stats().ok() == store {
            break (snap, stats, store, metrics);
        }
    };
    let lost = snap.reject_reasons.iter().find(|r| r.reason == "worker_lost");
    let mut counters = vec![
        ("live.accepted".to_string(), snap.accepted),
        ("worker.lost_records".to_string(), lost.map_or(0, |r| r.count)),
        ("live.windows.closed".to_string(), snap.windows_closed),
        ("live.events.minrtt".to_string(), snap.events_minrtt),
        ("live.events.hdratio".to_string(), snap.events_hdratio),
        ("live.episodes.opened".to_string(), snap.episodes_opened),
        ("live.episodes.closed".to_string(), snap.episodes_opened - snap.episodes_open),
    ];
    counters.extend(
        snap.reject_reasons.iter().map(|r| (format!("ingest.reject.{}", r.reason), r.count)),
    );
    let mut gauges = Vec::new();
    if let Some(store) = &store {
        counters.push(("store.compactions".to_string(), store.compactions));
        counters.push(("store.spill_errors".to_string(), store.spill_errors));
        gauges.push(("store.degraded".to_string(), f64::from(u8::from(store.degraded))));
    }
    let Some(Value::Array(workers)) = stats.get("workers") else {
        return Err(io::Error::other("a stats reply without workers"));
    };
    for row in workers {
        let w = num(row, &["worker"]);
        for field in ["processed", "queue_depth"] {
            gauges.push((format!("live.worker.{w}.{field}"), num(row, &[field])));
        }
    }
    let Some(Value::Object(registered)) = metrics.get("counters") else {
        return Err(io::Error::other("a metrics reply without counters"));
    };
    let rejects: f64 = registered
        .iter()
        .filter(|(name, _)| name.starts_with("ingest.reject."))
        .map(|(_, v)| num(v, &[]))
        .sum();
    let mirrored = counters
        .into_iter()
        .map(|(name, want)| (num(&metrics, &["counters", &name]), want as f64, name))
        .chain(
            gauges.into_iter().map(|(name, want)| (num(&metrics, &["gauges", &name]), want, name)),
        )
        .chain([(rejects, snap.rejected as f64, "the sum of ingest.reject.*".to_string())]);
    for (got, want, name) in mirrored {
        if got != want {
            return Err(io::Error::other(format!(
                "{name}: {got} in metrics, {want} in the account"
            )));
        }
    }
    Ok(())
}

/// `metrics` keeps no tally of its own: after worker panics and
/// injected ENOSPC, every counter and gauge it mirrors from the server's
/// account equals that account's field in `snapshot`, `stats` or `store`.
#[test]
fn metrics_mirror_the_account_after_panics_and_spill_failures() {
    let dir = tmp_dir("mirror");
    let plan = ChaosPlan::parse("panic:0@300;panic:1@700;spillfail:0@3").expect("valid plan");
    let opts = ChaosRunOpts {
        workers: 2,
        spill: Some((dir.clone(), 2)),
        inspect: metrics_mirror_the_account,
        ..ChaosRunOpts::default()
    };
    let report = run_chaos(&cfg(WireMode::Jsonl, 2_500, 12, 13), &plan, &opts);
    std::fs::remove_dir_all(&dir).expect("spill dir cleanup");
    let report = report.expect("the registry mirrors the account");
    assert_eq!(report.verdict(), Ok(()), "{report:?}");
    assert_eq!(report.worker_recovered, 2, "{report:?}");
    assert!(report.spill_errors >= 1, "{report:?}");
}

#[test]
fn slow_client_eviction_is_survived_by_resume() {
    let plan = ChaosPlan::parse("stall:60@800").expect("valid plan");
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
