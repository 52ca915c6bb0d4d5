//! Load generator for the live ingest server (`edgeperf serve`).
//!
//! Replays simulated workload sessions (from `edgeperf-workload`'s
//! session planner, so the transaction mixture matches the paper's
//! traffic shape) over TCP — as `WireSession` JSONL or, with
//! [`WireMode::Binary`], as the length-prefixed binary frames of
//! `edgeperf_live::frame` — paced to a target rate across several
//! connections, while a dedicated control connection pings through the
//! worker queues to measure end-to-end ingest latency. The resulting
//! [`LoadReport`] says whether the replay was clean (everything accepted,
//! nothing rejected or late); how fast the server is gets measured by
//! `benchmark/`, not here.
//!
//! In binary mode the generator runs the core estimator *locally*
//! ([`edgeperf::serve::record_from_wire`], the same function the
//! server's JSONL path calls) and ships the resulting `f64` bits verbatim
//! in little-endian frames — which is why binary-ingested cells are
//! bit-identical to JSONL-ingested ones.

use edgeperf::ingest::{ResponseIn, SessionIn};
use edgeperf::serve::{WireParser, WireSession};
use edgeperf_core::{HD_GOODPUT_BPS, MILLISECOND};
pub use edgeperf_live::WireMode;
use edgeperf_live::{
    encode_frame, preamble, replay_with_resume, CellLine, CellQuery, ChaosPlan, LineParser,
    LiveClient, LiveConfig, LiveServer, RetryPolicy, ServerHandle, WireChaos,
};
use edgeperf_obs::Metrics;
use edgeperf_workload::WorkloadConfig;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};
use std::io::{self, BufWriter, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Knobs for one load run.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address.
    pub addr: String,
    /// Wire format for the data connections.
    pub wire: WireMode,
    /// Target send rate in sessions/s (0 = unthrottled).
    pub rate: f64,
    /// Total sessions to replay.
    pub sessions: usize,
    /// Parallel data connections.
    pub connections: usize,
    /// Distinct user groups to spread sessions over.
    pub groups: usize,
    /// PoPs the groups are spread over.
    pub pops: u16,
    /// Event time spans this many windows.
    pub windows: u32,
    /// Window length used to lay out event time (ms).
    pub window_ms: f64,
    /// Cap on transactions per session (keeps wire lines bounded; the
    /// workload planner's video sessions can carry hundreds).
    pub max_txns: usize,
    /// The server's allowed lateness (must match its `--lateness-ms`):
    /// the replay is chunked so cross-connection event-time skew stays
    /// within half this bound, guaranteeing a late-free replay.
    pub lateness_ms: f64,
    /// HD goodput target (bps) for the local estimator pass in binary
    /// mode; must match the server's target so both wire formats yield
    /// the same records.
    pub target_bps: f64,
    /// Workload/rng seed.
    pub seed: u64,
    /// Ping cadence on the control connection (ms).
    pub ping_interval_ms: u64,
    /// Drain the server after the replay (`shutdown` command).
    pub shutdown: bool,
}

impl Default for LoadgenConfig {
    fn default() -> LoadgenConfig {
        LoadgenConfig {
            addr: "127.0.0.1:4620".to_string(),
            wire: WireMode::Jsonl,
            rate: 0.0,
            sessions: 100_000,
            connections: 4,
            groups: 64,
            pops: 4,
            windows: 8,
            window_ms: 900_000.0,
            max_txns: 6,
            lateness_ms: 60_000.0,
            target_bps: HD_GOODPUT_BPS,
            seed: 7,
            ping_interval_ms: 10,
            shutdown: false,
        }
    }
}

/// What a load run achieved, plus the server's closing snapshot.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LoadReport {
    /// Wire format the data connections used (`jsonl` / `binary`).
    #[serde(default)]
    pub wire: String,
    /// Configured target rate (sessions/s; 0 = unthrottled).
    pub target_rate: f64,
    /// Sessions replayed.
    pub sessions: u64,
    /// Wall-clock replay time (s).
    pub elapsed_s: f64,
    /// Sessions per second actually sustained.
    pub achieved_sessions_per_sec: f64,
    /// Ping round-trips measured during the replay.
    pub pings: u64,
    /// Median control-path round-trip, ms. Pings ride each worker's
    /// control channel, which bypasses the record lanes — so this
    /// measures command responsiveness under load, not queue wait.
    pub p50_ingest_latency_ms: f64,
    /// p99 control-path round-trip, ms.
    pub p99_ingest_latency_ms: f64,
    /// Server: records folded into windows.
    pub accepted: u64,
    /// Server: lines rejected (parse errors + late records).
    pub rejected: u64,
    /// Server: late records (behind the watermark).
    pub late: u64,
    /// Server: distinct groups observed.
    pub groups: u64,
    /// Server: windows closed.
    pub windows_closed: u64,
    /// Server: confident MinRTT degradation events.
    pub events_minrtt: u64,
    /// The server drained cleanly (only with [`LoadgenConfig::shutdown`]).
    pub drained: bool,
}

/// Pre-render the whole replay as wire lines. Event time is laid out
/// monotonically across [`LoadgenConfig::windows`] windows, so a replay
/// never produces late records regardless of pacing.
pub fn generate_lines(cfg: &LoadgenConfig) -> Vec<String> {
    let mut rng = ChaCha12Rng::seed_from_u64(cfg.seed);
    let workload = WorkloadConfig::default();
    let span_ms = cfg.windows as f64 * cfg.window_ms;
    let relationships = ["private", "public", "transit"];
    (0..cfg.sessions)
        .map(|i| {
            let g = i % cfg.groups.max(1);
            let plan = workload.generate(&mut rng);
            let min_rtt_ms = 15.0 + (g % 60) as f64 * 1.5 + rng.gen_range(0.0..4.0);
            // Per-group achievable goodput straddles the 2.5 Mbps HD
            // target so both HD outcomes occur.
            let goodput_bps = 1.2e6 * (1.0 + (g % 8) as f64);
            let responses: Vec<ResponseIn> = plan
                .transactions
                .iter()
                .take(cfg.max_txns)
                .map(|t| {
                    let issued_at_ms = t.offset as f64 / MILLISECOND as f64;
                    let first_tx_ms = issued_at_ms + 0.1;
                    let transfer_ms = t.bytes as f64 * 8_000.0 / goodput_bps;
                    let full_ack_ms = first_tx_ms + transfer_ms + min_rtt_ms;
                    ResponseIn {
                        bytes: t.bytes,
                        issued_at_ms,
                        first_tx_ms: Some(first_tx_ms),
                        wnic: Some(14_600),
                        second_last_ack_ms: Some((full_ack_ms - 1.0).max(first_tx_ms)),
                        full_ack_ms: Some(full_ack_ms),
                        last_packet_bytes: Some(1_240.min(t.bytes as u32)),
                        bytes_in_flight_at_write: 0,
                        prev_unsent_at_write: false,
                    }
                })
                .collect();
            let session = SessionIn {
                min_rtt_ms,
                responses,
                http: None,
                duration_ms: Some(plan.duration as f64 / MILLISECOND as f64),
            };
            WireSession {
                ts_ms: (i as f64 + 0.5) * span_ms / cfg.sessions as f64,
                pop: (g as u16) % cfg.pops.max(1),
                prefix_base: 0x0A00_0000 + ((g as u32) << 8),
                prefix_len: 24,
                country: (g % 40) as u16,
                continent: (g % 6) as u8,
                route_rank: u8::from(i % 11 == 0),
                relationship: relationships[g % 3].to_string(),
                longer_path: g.is_multiple_of(5),
                more_prepended: g.is_multiple_of(7),
                session,
            }
            .to_line()
        })
        .collect()
}

/// Pre-render the replay as raw socket payloads for `cfg.wire`: JSONL
/// lines with their trailing newline, or binary frames produced by
/// running the estimator locally on the very same generated sessions.
pub(crate) fn render_payloads(cfg: &LoadgenConfig, lines: &[String]) -> io::Result<Vec<Vec<u8>>> {
    match cfg.wire {
        WireMode::Jsonl => Ok(jsonl_payloads(lines)),
        WireMode::Binary => {
            let parser = WireParser::new(cfg.target_bps);
            lines
                .iter()
                .map(|l| {
                    parser
                        .parse_line(l)
                        .map(|rec| encode_frame(&rec).to_vec())
                        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
                })
                .collect()
        }
    }
}

/// Each line with its trailing newline: the JSONL wire's payloads.
pub(crate) fn jsonl_payloads(lines: &[String]) -> Vec<Vec<u8>> {
    lines.iter().map(|l| format!("{l}\n").into_bytes()).collect()
}

/// Poll `snapshot` until the server has accounted for `expected` lines
/// (ingested or rejected), i.e. every byte sent so far is processed.
fn wait_processed(client: &mut LiveClient, expected: u64) -> io::Result<()> {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let snap = client.snapshot()?;
        if snap.accepted + snap.rejected >= expected {
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("server stuck at {}/{expected} processed", snap.accepted + snap.rejected),
            ));
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Run one replay against a live server and collect the report.
pub fn run(cfg: &LoadgenConfig) -> io::Result<LoadReport> {
    let lines = generate_lines(cfg);
    let payloads = render_payloads(cfg, &lines)?;
    drop(lines);
    let connections = cfg.connections.max(1);

    // Ping sampler on its own connection: each round-trip rides a worker
    // queue, so it measures real ingest latency under load.
    let stop = Arc::new(AtomicBool::new(false));
    let pinger = {
        let stop = Arc::clone(&stop);
        let addr = cfg.addr.clone();
        let interval = Duration::from_millis(cfg.ping_interval_ms.max(1));
        std::thread::spawn(move || -> io::Result<Vec<f64>> {
            let mut client = LiveClient::connect(&addr)?;
            let mut samples = Vec::new();
            while !stop.load(Ordering::Acquire) {
                samples.push(client.ping()?.as_secs_f64() * 1e3);
                std::thread::sleep(interval);
            }
            Ok(samples)
        })
    };

    // Senders: stripe the replay across connections. Event time is tied
    // to the global line index, but connections drain at independent
    // speeds, so an unconstrained replay would let one stripe race whole
    // windows ahead and turn the others' records late. The replay is
    // therefore chunked: after each chunk every sender flushes, meets at
    // a barrier, and the leader polls `snapshot` until the server has
    // processed everything sent so far. Chunks span at most half the
    // lateness bound in event time, so no record can fall behind the
    // watermark — and the final sync quiesces the server before the
    // closing snapshot/shutdown (a drain cuts data connections, so bytes
    // still in flight then would be lost).
    let span_ms = cfg.windows as f64 * cfg.window_ms;
    let chunk = ((cfg.sessions as f64 * (cfg.lateness_ms / 2.0) / span_ms) as usize)
        .clamp(connections, cfg.sessions.max(1));
    let barrier = Arc::new(std::sync::Barrier::new(connections));
    let payloads = Arc::new(payloads);
    let started = Instant::now();
    let senders: Vec<_> = (0..connections)
        .map(|c| {
            let payloads = Arc::clone(&payloads);
            let barrier = Arc::clone(&barrier);
            let addr = cfg.addr.clone();
            let per_conn_rate = cfg.rate / connections as f64;
            let wire = cfg.wire;
            std::thread::spawn(move || -> io::Result<u64> {
                let stream = TcpStream::connect(&addr)?;
                stream.set_nodelay(true)?;
                let mut out = BufWriter::with_capacity(1 << 18, stream);
                if wire == WireMode::Binary {
                    out.write_all(&preamble())?;
                }
                // The leader polls replay progress on a dedicated
                // control connection: binary data connections carry no
                // commands, and the snapshot counters are global anyway.
                let mut control = if c == 0 { Some(LiveClient::connect(&addr)?) } else { None };
                let start = Instant::now();
                let mut sent = 0u64;
                let total = payloads.len();
                let mut chunk_start = 0usize;
                while chunk_start < total {
                    let chunk_end = (chunk_start + chunk).min(total);
                    for payload in payloads[chunk_start..chunk_end]
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| (chunk_start + i) % connections == c)
                        .map(|(_, p)| p)
                    {
                        out.write_all(payload)?;
                        sent += 1;
                        if per_conn_rate > 0.0 && sent.is_multiple_of(64) {
                            let due = sent as f64 / per_conn_rate;
                            let ahead = due - start.elapsed().as_secs_f64();
                            if ahead > 0.0 {
                                std::thread::sleep(Duration::from_secs_f64(ahead));
                            }
                        }
                    }
                    out.flush()?;
                    barrier.wait();
                    if let Some(control) = control.as_mut() {
                        wait_processed(control, chunk_end as u64)?;
                    }
                    barrier.wait();
                    chunk_start = chunk_end;
                }
                Ok(sent)
            })
        })
        .collect();

    let mut sent = 0u64;
    for s in senders {
        sent += s.join().expect("sender thread")?;
    }
    let elapsed = started.elapsed().as_secs_f64();

    stop.store(true, Ordering::Release);
    let mut pings = pinger.join().expect("ping thread").unwrap_or_default();
    pings.sort_by(f64::total_cmp);

    // Data connections are closed; fetch the closing server state.
    let mut control = LiveClient::connect(&cfg.addr)?;
    let snapshot = if cfg.shutdown { control.shutdown()? } else { control.snapshot()? };

    Ok(LoadReport {
        wire: cfg.wire.label().to_string(),
        target_rate: cfg.rate,
        sessions: sent,
        elapsed_s: elapsed,
        achieved_sessions_per_sec: if elapsed > 0.0 { sent as f64 / elapsed } else { 0.0 },
        pings: pings.len() as u64,
        p50_ingest_latency_ms: percentile(&pings, 0.50),
        p99_ingest_latency_ms: percentile(&pings, 0.99),
        accepted: snapshot.accepted,
        rejected: snapshot.rejected,
        late: snapshot.late,
        groups: snapshot.groups,
        windows_closed: snapshot.windows_closed,
        events_minrtt: snapshot.events_minrtt,
        drained: snapshot.drained,
    })
}

/// RAM retention (windows per worker) the `loadgen --chaos` binary gives a
/// spilling faulted server unless `--retention` says otherwise: small
/// enough that a CI-sized replay pushes most of its windows to disk, so
/// the plan's disk faults have something to hit.
pub const CHAOS_SPILL_RETENTION: usize = 8;

/// Geometry knobs for a [`run_chaos`] server pair (faulted + control).
#[derive(Debug, Clone)]
pub struct ChaosRunOpts {
    /// Ingest worker threads.
    pub workers: usize,
    /// Server idle read deadline (ms; 0 = off). Combined with a chaos
    /// stall longer than this, it exercises slow-client eviction and
    /// the subsequent resume.
    pub idle_timeout_ms: u64,
    /// Spill the faulted server through a tiered store: `(dir,
    /// retention_windows)`. Disk faults in the plan need this to have
    /// anything to hit.
    pub spill: Option<(std::path::PathBuf, usize)>,
    /// Worker respawn budget before zombie mode.
    pub max_worker_respawns: u32,
}

impl Default for ChaosRunOpts {
    fn default() -> ChaosRunOpts {
        ChaosRunOpts { workers: 4, idle_timeout_ms: 0, spill: None, max_worker_respawns: 8 }
    }
}

/// What a chaos replay achieved: resume/retry traffic, server-side
/// recovery accounting, and the bit-identity verdict against a
/// fault-free control replay of the same sessions.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ChaosReport {
    /// The canonical chaos plan that was injected.
    pub plan: String,
    /// Wire format of the data connection (`jsonl` / `binary`).
    pub wire: String,
    /// Sessions in the replay.
    pub sessions: u64,
    /// Final cumulative server ack (must equal `sessions`).
    pub acked: u64,
    /// Connections the resume loop opened.
    pub connections: u64,
    /// Reconnects after the first connection.
    pub reconnects: u64,
    /// Chaos-injected clean disconnects that fired.
    pub injected_disconnects: u64,
    /// Chaos-injected torn (mid-record) cuts that fired.
    pub injected_torn: u64,
    /// Chaos-injected stalls that fired.
    pub injected_stalls: u64,
    /// Server: records folded into windows (must equal `sessions`).
    pub accepted: u64,
    /// Server: rejected records (0 in a clean recovery).
    pub rejected: u64,
    /// Server: late records.
    pub late: u64,
    /// Server: worker panic recoveries.
    pub worker_recovered: u64,
    /// Server: records lost to dirty panics or zombie workers (0 when
    /// chaos panics land on batch boundaries, as scripted ones do).
    pub worker_lost_records: u64,
    /// Server: truncated wire tails left unconsumed (and replayed).
    pub truncated_tails: u64,
    /// Server: connections evicted by idle/write deadlines.
    pub conns_evicted: u64,
    /// Store: spill attempts that failed (injected ENOSPC + real).
    pub spill_errors: u64,
    /// Store: windows shed past the 8× degraded retention cap (0 in a
    /// lossless run).
    pub windows_shed: u64,
    /// Store: still degraded when the replay ended.
    pub degraded_at_end: bool,
    /// Canonically-sorted cells from the faulted server are
    /// byte-identical (same serialized `f64` bits) to the fault-free
    /// control server's.
    pub bit_identical_to_clean: bool,
    /// Wall-clock chaos replay time (s).
    pub elapsed_s: f64,
}

pub(crate) fn metrics_counter(metrics_json: &str, name: &str) -> u64 {
    let Ok(v) = serde_json::parse(metrics_json) else { return 0 };
    match v.get("counters").and_then(|c| c.get(name)) {
        Some(serde_json::Value::Num(n)) => *n as u64,
        _ => 0,
    }
}

/// Replay `cfg.sessions` through a chaos-injected self-hosted server
/// with [`replay_with_resume`], then through a fault-free control
/// server, and prove the recovery was exact: every record applied
/// exactly once (ack == sessions, rejected == 0) and the closed cells
/// bit-identical to the fault-free run.
///
/// The same `plan` drives both sides of the fault surface: its wire
/// faults fire client-side (disconnects, torn records, stalls) and its
/// worker panics / disk faults fire server-side.
pub fn run_chaos(
    cfg: &LoadgenConfig,
    plan: &ChaosPlan,
    opts: &ChaosRunOpts,
) -> io::Result<ChaosReport> {
    let payloads = render_payloads(cfg, &generate_lines(cfg))?;
    let parser = Arc::new(WireParser::new(cfg.target_bps));
    let full = CellQuery { from_window: Some(0), ..CellQuery::default() };

    // Faulted server: the plan's worker panics and disk faults inject
    // server-side through its config.
    let mut config = LiveConfig {
        chaos: plan.clone(),
        idle_timeout_ms: opts.idle_timeout_ms,
        max_worker_respawns: opts.max_worker_respawns,
        ..hosted_config(cfg, opts.workers)
    };
    if let Some((dir, retention)) = &opts.spill {
        config.spill_dir = Some(dir.clone());
        config.retention_windows = *retention;
        config.compact_min_segments = 8;
        config.compact_batch = 4;
    }
    let server = start_hosted(config, Arc::clone(&parser) as Arc<dyn LineParser>)?;
    let addr = server.addr();

    let mut wire_chaos = WireChaos::new(plan);
    let policy = RetryPolicy { seed: cfg.seed, ..RetryPolicy::default() };
    let started = Instant::now();
    let resume = replay_with_resume(addr, cfg.seed, cfg.wire, &payloads, &policy, &mut wire_chaos)?;
    let elapsed_s = started.elapsed().as_secs_f64();

    let mut control = LiveClient::connect(addr)?;
    let metrics_json = control.metrics_json()?;
    let store_stats = control.store_stats().ok();
    let chaos_rows = control.cells_query(&full)?;
    let snapshot = control.shutdown()?;
    drop(control);
    let _ = server.join();

    // Fault-free control: same sessions, same worker count, all-RAM
    // retention so every window is queryable.
    let clean_config = LiveConfig {
        retention_windows: cfg.windows as usize + 4,
        ..hosted_config(cfg, opts.workers)
    };
    let clean_server = start_hosted(clean_config, parser)?;
    let mut no_chaos = WireChaos::new(&ChaosPlan::default());
    let clean_addr = clean_server.addr();
    replay_with_resume(clean_addr, cfg.seed, cfg.wire, &payloads, &policy, &mut no_chaos)?;
    let mut control = LiveClient::connect(clean_server.addr())?;
    let clean_rows = control.cells_query(&full)?;
    control.shutdown()?;
    drop(control);
    let _ = clean_server.join();

    Ok(ChaosReport {
        plan: plan.to_string(),
        wire: cfg.wire.label().to_string(),
        sessions: resume.total,
        acked: resume.acked,
        connections: u64::from(resume.connections),
        reconnects: u64::from(resume.reconnects),
        injected_disconnects: u64::from(resume.injected_disconnects),
        injected_torn: u64::from(resume.injected_torn),
        injected_stalls: u64::from(resume.injected_stalls),
        accepted: snapshot.accepted,
        rejected: snapshot.rejected,
        late: snapshot.late,
        worker_recovered: metrics_counter(&metrics_json, "worker.recovered"),
        worker_lost_records: metrics_counter(&metrics_json, "worker.lost_records"),
        truncated_tails: metrics_counter(&metrics_json, "ingest.truncated"),
        conns_evicted: metrics_counter(&metrics_json, "live.conns.evicted"),
        spill_errors: store_stats.as_ref().map_or(0, |s| s.spill_errors),
        windows_shed: metrics_counter(&metrics_json, "store.windows_shed"),
        degraded_at_end: store_stats.as_ref().is_some_and(|s| s.degraded),
        bit_identical_to_clean: render_rows(&chaos_rows) == render_rows(&clean_rows),
        elapsed_s,
    })
}

pub(crate) fn render_rows(rows: &[CellLine]) -> Vec<String> {
    rows.iter().map(|c| serde_json::to_string(c).expect("cell line serializes")).collect()
}

/// The [`LiveConfig`] every self-hosted server starts from: ephemeral
/// loopback port, `cfg`'s window geometry.
pub(crate) fn hosted_config(cfg: &LoadgenConfig, workers: usize) -> LiveConfig {
    LiveConfig {
        workers,
        window_ms: cfg.window_ms,
        lateness_ms: cfg.lateness_ms,
        ..LiveConfig::default()
    }
}

/// Start a self-hosted server, metrics enabled.
pub(crate) fn start_hosted(
    config: LiveConfig,
    parser: Arc<dyn LineParser>,
) -> io::Result<ServerHandle> {
    LiveServer::start(config, parser, Metrics::enabled())
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loadgen_replays_into_a_live_server_without_drops() {
        let config = LiveConfig { workers: 2, queue_capacity: 512, ..LiveConfig::default() };
        let server =
            start_hosted(config, Arc::new(WireParser::new(HD_GOODPUT_BPS))).expect("server starts");
        let cfg = LoadgenConfig {
            addr: server.addr().to_string(),
            sessions: 2_000,
            connections: 2,
            groups: 16,
            windows: 4,
            ping_interval_ms: 1,
            shutdown: true,
            ..LoadgenConfig::default()
        };
        let report = run(&cfg).expect("replay succeeds");
        let final_snap = server.join();
        assert!(report.drained);
        assert_eq!(report.sessions, 2_000);
        assert_eq!(report.accepted, 2_000, "every session ingested: {report:?}");
        assert_eq!(report.rejected, 0);
        assert_eq!(report.late, 0);
        assert_eq!(report.groups, 16);
        // 4 event-time windows on each of 2 worker rings.
        assert!(report.windows_closed >= 8, "windows closed: {report:?}");
        assert!(report.pings > 0);
        assert!(report.p99_ingest_latency_ms >= report.p50_ingest_latency_ms);
        assert_eq!(final_snap.accepted, 2_000);
    }

    #[test]
    fn loadgen_replays_binary_frames_without_drops() {
        let server = start_hosted(
            hosted_config(&LoadgenConfig::default(), 2),
            Arc::new(WireParser::new(HD_GOODPUT_BPS)),
        )
        .expect("server starts");
        let cfg = LoadgenConfig {
            addr: server.addr().to_string(),
            wire: WireMode::Binary,
            sessions: 2_000,
            connections: 2,
            groups: 16,
            windows: 4,
            ping_interval_ms: 1,
            shutdown: true,
            ..LoadgenConfig::default()
        };
        let report = run(&cfg).expect("binary replay succeeds");
        server.join();
        assert_eq!(report.wire, "binary");
        assert!(report.drained);
        assert_eq!(report.sessions, 2_000);
        assert_eq!(report.accepted, 2_000, "every frame ingested: {report:?}");
        assert_eq!(report.rejected, 0);
        assert_eq!(report.late, 0);
        assert_eq!(report.groups, 16);
        assert!(report.windows_closed >= 8, "windows closed: {report:?}");
    }

    #[test]
    fn chaos_replay_recovers_exactly_and_matches_clean_run() {
        let cfg = LoadgenConfig {
            sessions: 2_000,
            connections: 1,
            groups: 16,
            windows: 4,
            seed: 7,
            ..LoadgenConfig::default()
        };
        let plan = ChaosPlan::parse("disconnect:50;torn:120;stall:400@50;panic:0@300;seed:7")
            .expect("valid plan");
        let report =
            run_chaos(&cfg, &plan, &ChaosRunOpts { workers: 2, ..ChaosRunOpts::default() })
                .expect("chaos replay");
        assert_eq!(report.acked, 2_000, "every record acked exactly once: {report:?}");
        assert_eq!(report.accepted, 2_000, "no double-counts, no losses: {report:?}");
        assert_eq!(report.rejected, 0);
        assert_eq!(report.worker_lost_records, 0, "scripted panics are clean: {report:?}");
        assert!(report.reconnects >= 2, "disconnect + torn both force reconnects: {report:?}");
        assert_eq!(report.injected_disconnects, 1);
        assert_eq!(report.injected_torn, 1);
        assert_eq!(report.injected_stalls, 1);
        assert_eq!(report.worker_recovered, 1, "worker 0 panicked once: {report:?}");
        assert_eq!(report.truncated_tails, 1, "the torn record's tail was dropped: {report:?}");
        assert!(report.bit_identical_to_clean, "chaos cells drifted from clean: {report:?}");
    }

    #[test]
    fn generated_lines_are_monotone_in_event_time() {
        let cfg = LoadgenConfig { sessions: 100, ..LoadgenConfig::default() };
        let lines = generate_lines(&cfg);
        assert_eq!(lines.len(), 100);
        let mut last = f64::NEG_INFINITY;
        for line in &lines {
            let w: WireSession = serde_json::from_str(line).expect("valid wire line");
            assert!(w.ts_ms > last);
            last = w.ts_ms;
            assert!(!w.session.responses.is_empty());
            assert!(w.session.responses.len() <= cfg.max_txns);
        }
    }
}
