//! Load generator for the live ingest server (`edgeperf serve`): replays
//! that prove the live tier correct. Nothing here paces or times a send —
//! how fast the server is gets measured by `benchmark/`.
//!
//! Every mode replays the same simulated workload sessions
//! ([`generate_lines`], from `edgeperf-workload`'s session planner, so the
//! transaction mixture matches the paper's traffic shape) over TCP — as
//! `WireSession` JSONL or, with [`WireMode::Binary`], as the binary frames
//! of `edgeperf_live::frame` — and ends in a report with a `verdict()`:
//! [`run`] (a plain replay into someone else's server: was it clean?),
//! [`run_chaos`] (a self-hosted fault-injected server under the resume
//! client: was the recovery exact?) and [`crate::fleet_run`] (the same
//! through a multi-PoP fleet). The last two claim bit-identity and mean
//! one thing by it: the served cells of the settled horizon
//! ([`settled_horizon`]) equal [`serial_cells`] — one serial `WindowRing`
//! pass over the very records that were sent — under
//! [`first_difference`].
//!
//! All three send the same way: each data connection is one exactly-once
//! session ([`replay_with_resume`]) carrying its share of the records,
//! and `replay_in_chunks` advances every session together, one stretch
//! of event time at a time.
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
    encode_frame, first_difference, replay_with_resume, serial_cells, CellLine, CellQuery,
    ChaosPlan, LiveClient, LiveConfig, LiveRecord, LiveServer, ResumeReport, WireChaos,
};
use edgeperf_obs::Metrics;
use edgeperf_workload::WorkloadConfig;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::io;
use std::sync::Arc;
use std::time::Instant;

/// PoPs a replay's groups are spread over, group by group.
const POPS: u16 = 4;

/// Knobs for one load run.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address.
    pub addr: String,
    /// Wire format for the data connections.
    pub wire: WireMode,
    /// Total sessions to replay.
    pub sessions: usize,
    /// Parallel data connections.
    pub connections: usize,
    /// Distinct user groups to spread sessions over.
    pub groups: usize,
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
    /// Workload/rng seed.
    pub seed: u64,
    /// Drain the server after the replay (`shutdown` command).
    pub shutdown: bool,
}

impl Default for LoadgenConfig {
    fn default() -> LoadgenConfig {
        LoadgenConfig {
            addr: "127.0.0.1:4620".to_string(),
            wire: WireMode::Jsonl,
            sessions: 100_000,
            connections: 4,
            groups: 64,
            windows: 8,
            window_ms: 900_000.0,
            max_txns: 6,
            lateness_ms: 60_000.0,
            seed: 7,
            shutdown: false,
        }
    }
}

/// What a plain replay sent, plus the server's closing snapshot.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LoadReport {
    /// Wire format the data connections used (`jsonl` / `binary`).
    #[serde(default)]
    pub wire: String,
    /// Sessions replayed.
    pub sessions: u64,
    /// Final cumulative acks summed over the replay's sessions (must
    /// equal `sessions`: every record applied exactly once).
    pub acked: u64,
    /// Wall-clock replay time (s).
    pub elapsed_s: f64,
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

/// A verdict: `Ok`, or the message of the first condition that does not
/// hold.
pub(crate) fn first_violated<const N: usize>(checks: [(bool, String); N]) -> Result<(), String> {
    checks.into_iter().find(|(holds, _)| !holds).map_or(Ok(()), |(_, why)| Err(why))
}

impl LoadReport {
    /// `Ok` when the replay was clean: every session acked and
    /// accepted, nothing rejected or late, groups observed and — when
    /// the run asked for the `shutdown` drain — a clean drain. What
    /// `loadgen --expect-clean` exits on and what the suites assert.
    pub fn verdict(&self, shutdown: bool) -> Result<(), String> {
        let LoadReport { sessions, acked, accepted, rejected, late, .. } = self;
        first_violated([
            (acked == sessions, format!("acked {acked} of {sessions} sessions")),
            (accepted == sessions, format!("accepted {accepted} of {sessions} sessions")),
            (*rejected == 0, format!("{rejected} records rejected")),
            (*late == 0, format!("{late} records late")),
            (self.groups > 0, "no group observed".to_string()),
            (!shutdown || self.drained, "the server did not drain cleanly".to_string()),
        ])
    }
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
                pop: (g as u16) % POPS,
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
            let parser = WireParser::new(HD_GOODPUT_BPS);
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

/// [`settled_horizon`]'s refusal: the replay ends before every shard is
/// known to have closed a window, so a comparison would compare nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct NoSettledWindow {
    /// The least any shard's watermark can be when the replay ends.
    pub watermark_ms: f64,
    /// The window length it falls short of.
    pub window_ms: f64,
}

impl fmt::Display for NoSettledWindow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let NoSettledWindow { watermark_ms, window_ms } = self;
        write!(f, "no settled window: every shard's watermark reaches {watermark_ms:.0} ms, ")?;
        write!(f, "short of one {window_ms:.0} ms window (more sessions, or less lateness)")
    }
}

impl std::error::Error for NoSettledWindow {}

impl From<NoSettledWindow> for io::Error {
    fn from(err: NoSettledWindow) -> Self {
        io::Error::new(io::ErrorKind::InvalidInput, err)
    }
}

/// The settled horizon `K` of `cfg`'s replay: the last window closed on
/// every shard once all of [`generate_lines`] is folded in, however
/// groups fall on workers or PoPs. The last `groups` records visit every
/// group, so every shard has seen `ts(sessions − groups)` or newer and
/// closed every window below `floor((that − lateness_ms) / window_ms)`;
/// `K` is one less (DESIGN.md §15 has the argument). Windows `0..=K` are
/// whole everywhere; a later one may be closed here and open there.
pub fn settled_horizon(cfg: &LoadgenConfig) -> Result<u32, NoSettledWindow> {
    let span_ms = f64::from(cfg.windows) * cfg.window_ms;
    let newest_everywhere = match cfg.sessions.checked_sub(cfg.groups.max(1)) {
        Some(i) => (i as f64 + 0.5) * span_ms / cfg.sessions as f64,
        None => 0.0,
    };
    let watermark_ms = newest_everywhere - cfg.lateness_ms;
    let closed_below = (watermark_ms / cfg.window_ms).floor();
    if closed_below >= 1.0 {
        // At most `cfg.windows`, a `u32`.
        Ok(closed_below as u32 - 1)
    } else {
        Err(NoSettledWindow { watermark_ms, window_ms: cfg.window_ms })
    }
}

/// The `cells` query selecting the settled horizon `0..=until`.
pub(crate) fn settled_query(until: u32) -> CellQuery {
    CellQuery { from_window: Some(0), until_window: Some(until), ..CellQuery::default() }
}

/// The oracle's rows over the settled horizon: `lines` through
/// [`serial_cells`] under `cfg`'s geometry, windows `0..=until`.
pub(crate) fn serial_rows(
    cfg: &LoadgenConfig,
    lines: &[String],
    until: u32,
) -> io::Result<Vec<CellLine>> {
    let parser = WireParser::new(HD_GOODPUT_BPS);
    let records: Result<Vec<LiveRecord>, _> = lines.iter().map(|l| parser.parse_line(l)).collect();
    let rows = records.and_then(|r| serial_cells(&r, cfg.window_ms, cfg.lateness_ms));
    let mut rows = rows.map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    rows.retain(|c| c.window <= until);
    Ok(rows)
}

/// One exactly-once replay session: the records it carries, in global
/// order, replayed as growing prefixes through [`replay_with_resume`].
#[derive(Default)]
pub(crate) struct Stream {
    /// The ingest socket the session lives on.
    pub(crate) addr: String,
    session: u64,
    /// Ascending global record indices this stream carries.
    pub(crate) indices: Vec<usize>,
    /// The payloads at those indices, in the same order.
    payloads: Vec<Vec<u8>>,
    /// Client-side wire faults (none outside a chaos replay).
    chaos: WireChaos,
    /// The last replay call's account: its `total` is the prefix
    /// replayed and acked so far, its `acked` the session's cumulative
    /// ack, and for a stream replayed in one call it is the whole
    /// replay's.
    pub(crate) last: ResumeReport,
}

impl Stream {
    /// An empty session `session` on `addr`, without wire faults.
    pub(crate) fn new(addr: &str, session: u64) -> Stream {
        Stream { addr: addr.to_string(), session, ..Stream::default() }
    }

    /// Append global record `index` (past every index carried so far).
    pub(crate) fn carry(&mut self, index: usize, payload: Vec<u8>) {
        self.indices.push(index);
        self.payloads.push(payload);
    }

    /// Advance to the global barrier `b`: replay the prefix of the
    /// payloads whose global index is below `b` and return once the
    /// server has acked — and so applied — all of it.
    pub(crate) fn replay_to(&mut self, b: usize, wire: WireMode) -> io::Result<()> {
        let k = self.indices.partition_point(|&i| i < b);
        if k as u64 <= self.last.total {
            return Ok(());
        }
        let payloads = &self.payloads[..k];
        self.last = replay_with_resume(&self.addr, self.session, wire, payloads, &mut self.chaos)?;
        if self.last.acked != k as u64 {
            return Err(io::Error::other(format!(
                "session {} on {} quiesced at {} of {k} records",
                self.session, self.addr, self.last.acked
            )));
        }
        Ok(())
    }
}

/// The session id of stream `n` of generation `generation`, unique
/// within one replay of seed `seed`.
pub(crate) fn session_id(seed: u64, generation: u64, n: u64) -> u64 {
    (seed << 20) ^ (generation << 10) ^ n
}

/// Records in one barrier-to-barrier stretch of `cfg`'s replay: at most
/// half the lateness bound of event time, so streams that drift apart
/// within a stretch never send a record behind the watermark.
pub(crate) fn chunk_len(cfg: &LoadgenConfig) -> usize {
    let per_record_ms = f64::from(cfg.windows) * cfg.window_ms / cfg.sessions.max(1) as f64;
    ((cfg.lateness_ms / 2.0 / per_record_ms) as usize).max(1)
}

/// Replay `total` global records through `streams` in stretches of
/// `chunk`. Before each stretch `at_barrier(b, streams)` runs, `b` being
/// the records every stream has had acked so far; then the streams
/// advance through the stretch at once, one thread each, and the
/// stretch ends when every one is acked through it. An ack means
/// applied, so the last barrier leaves the server quiet: nothing in
/// flight for a drain to cut.
pub(crate) fn replay_in_chunks(
    streams: &mut Vec<Stream>,
    total: usize,
    chunk: usize,
    wire: WireMode,
    mut at_barrier: impl FnMut(usize, &mut Vec<Stream>) -> io::Result<()>,
) -> io::Result<()> {
    let mut b = 0;
    while b < total {
        at_barrier(b, streams)?;
        b = (b + chunk).min(total);
        std::thread::scope(|scope| {
            let advancing: Vec<_> = streams
                .iter_mut()
                .map(|stream| scope.spawn(move || stream.replay_to(b, wire)))
                .collect();
            advancing.into_iter().try_for_each(|t| t.join().expect("stream thread"))
        })?;
    }
    Ok(())
}

/// Run one replay against a live server and collect the report: stream
/// `c` of `cfg.connections` carries the records `i` with `i % N == c`.
pub fn run(cfg: &LoadgenConfig) -> io::Result<LoadReport> {
    let lines = generate_lines(cfg);
    let payloads = render_payloads(cfg, &lines)?;
    drop(lines);
    let total = payloads.len();
    let connections = cfg.connections.max(1);
    let mut streams: Vec<Stream> = (0..connections)
        .map(|c| Stream::new(&cfg.addr, session_id(cfg.seed, 0, c as u64)))
        .collect();
    for (i, payload) in payloads.into_iter().enumerate() {
        streams[i % connections].carry(i, payload);
    }

    let started = Instant::now();
    replay_in_chunks(&mut streams, total, chunk_len(cfg), cfg.wire, |_, _| Ok(()))?;
    let elapsed = started.elapsed().as_secs_f64();

    let mut control = LiveClient::connect(&cfg.addr)?;
    let snapshot = if cfg.shutdown { control.shutdown()? } else { control.snapshot()? };

    Ok(LoadReport {
        wire: cfg.wire.label().to_string(),
        sessions: total as u64,
        acked: streams.iter().map(|s| s.last.acked).sum(),
        elapsed_s: elapsed,
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

/// Geometry knobs for [`run_chaos`]'s fault-injected server.
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
    /// Asks the faulted server whatever it likes once the replay is over
    /// and before anything else does; an `Err` fails the run.
    pub inspect: fn(&mut LiveClient) -> io::Result<()>,
}

impl Default for ChaosRunOpts {
    fn default() -> ChaosRunOpts {
        ChaosRunOpts { workers: 4, idle_timeout_ms: 0, spill: None, inspect: |_| Ok(()) }
    }
}

/// What a chaos replay achieved: resume/retry traffic, server-side
/// recovery accounting, and the bit-identity verdict against the serial
/// oracle over the same sessions.
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
    /// The faulted server's `cells from=0 until=settled_until` are, row
    /// for row and bit for bit, [`serial_cells`] of the same sessions.
    pub bit_identical_to_serial: bool,
    /// The settled horizon `K` that comparison covered
    /// ([`settled_horizon`]).
    pub settled_until: u32,
    /// Wall-clock chaos replay time (s).
    pub elapsed_s: f64,
}

impl ChaosReport {
    /// `Ok` when the recovery was exact: every record acked and applied
    /// exactly once, nothing rejected, lost or shed, and the settled
    /// horizon bit-identical to the serial oracle.
    pub fn verdict(&self) -> Result<(), String> {
        let ChaosReport { sessions, acked, accepted, rejected, settled_until, .. } = self;
        let (lost, shed) = (self.worker_lost_records, self.windows_shed);
        first_violated([
            (acked == sessions, format!("acked {acked} of {sessions} sessions")),
            (accepted == sessions, format!("accepted {accepted} of {sessions} sessions")),
            (*rejected == 0, format!("{rejected} records rejected")),
            (lost == 0, format!("{lost} records lost to worker panics")),
            (shed == 0, format!("{shed} windows shed")),
            (self.bit_identical_to_serial, differs_from_serial(*settled_until)),
        ])
    }
}

pub(crate) fn differs_from_serial(settled_until: u32) -> String {
    format!("cells of windows 0..={settled_until} differ from the serial oracle")
}

/// One `metrics` reply, read once. A reply without `counters` and
/// `gauges` — `{"error":"draining"}`, which `metrics_json` hands through
/// by design — is an error carrying the server's line: a counter nobody
/// reported must not read as a clean zero.
pub(crate) struct MetricsReply(serde_json::Value);

impl MetricsReply {
    pub(crate) fn parse(reply: &str) -> io::Result<MetricsReply> {
        match serde_json::parse(reply) {
            Ok(v) if v.get("counters").is_some() && v.get("gauges").is_some() => {
                Ok(MetricsReply(v))
            }
            _ => Err(io::Error::other(format!("metrics reply carries no counters: {reply}"))),
        }
    }

    /// A metric nothing ever touched is not in the registry: zero.
    fn number(&self, kind: &str, name: &str) -> f64 {
        match self.0.get(kind).and_then(|metrics| metrics.get(name)) {
            Some(serde_json::Value::Num(n)) => *n,
            _ => 0.0,
        }
    }

    pub(crate) fn counter(&self, name: &str) -> u64 {
        self.number("counters", name) as u64
    }

    pub(crate) fn gauge(&self, name: &str) -> f64 {
        self.number("gauges", name)
    }
}

/// Replay `cfg.sessions` through a chaos-injected self-hosted server
/// with [`replay_with_resume`] and prove the recovery was exact: every
/// record applied exactly once (ack == sessions, rejected == 0) and the
/// closed cells of the settled horizon bit-identical to the serial
/// oracle. A replay too short to settle a window is refused
/// ([`NoSettledWindow`]) before anything starts.
///
/// The same `plan` drives both sides of the fault surface: its wire
/// faults fire client-side (disconnects, torn records, stalls) and its
/// worker panics / disk faults fire server-side.
pub fn run_chaos(
    cfg: &LoadgenConfig,
    plan: &ChaosPlan,
    opts: &ChaosRunOpts,
) -> io::Result<ChaosReport> {
    let settled_until = settled_horizon(cfg)?;
    let lines = generate_lines(cfg);
    let oracle = serial_rows(cfg, &lines, settled_until)?;
    let payloads = render_payloads(cfg, &lines)?;
    drop(lines);

    // The plan's worker panics and disk faults inject server-side
    // through the config.
    let mut config = LiveConfig {
        workers: opts.workers,
        window_ms: cfg.window_ms,
        lateness_ms: cfg.lateness_ms,
        chaos: plan.clone(),
        idle_timeout_ms: opts.idle_timeout_ms,
        ..LiveConfig::default()
    };
    if let Some((dir, retention)) = &opts.spill {
        config.spill_dir = Some(dir.clone());
        config.retention_windows = *retention;
        config.compact_min_segments = 8;
        config.compact_batch = 4;
    }
    let parser = Arc::new(WireParser::new(HD_GOODPUT_BPS));
    let server = LiveServer::start(config, parser, Metrics::enabled())
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
    let addr = server.addr();

    let total = payloads.len();
    let mut streams = vec![Stream {
        indices: (0..total).collect(),
        payloads,
        chaos: WireChaos::new(plan),
        ..Stream::new(&addr.to_string(), cfg.seed)
    }];
    let started = Instant::now();
    replay_in_chunks(&mut streams, total, total, cfg.wire, |_, _| Ok(()))?;
    let elapsed_s = started.elapsed().as_secs_f64();
    let resume = &streams[0].last;

    let mut control = LiveClient::connect(addr)?;
    (opts.inspect)(&mut control)?;
    let metrics = control.metrics_json()?;
    let store_stats = control.store_stats().ok();
    let rows = control.cells_query(&settled_query(settled_until))?;
    let snapshot = control.shutdown()?;
    drop(control);
    let _ = server.join();
    let metrics = MetricsReply::parse(&metrics)?;

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
        worker_recovered: metrics.counter("worker.recovered"),
        worker_lost_records: metrics.counter("worker.lost_records"),
        truncated_tails: metrics.counter("ingest.truncated"),
        conns_evicted: metrics.counter("live.conns.evicted"),
        spill_errors: store_stats.as_ref().map_or(0, |s| s.spill_errors),
        windows_shed: metrics.counter("store.windows_shed"),
        degraded_at_end: store_stats.as_ref().is_some_and(|s| s.degraded),
        bit_identical_to_serial: first_difference(&rows, &oracle).is_none(),
        settled_until,
        elapsed_s,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgeperf_live::ServerHandle;

    fn start(config: LiveConfig) -> ServerHandle {
        LiveServer::start(config, Arc::new(WireParser::new(HD_GOODPUT_BPS)), Metrics::enabled())
            .expect("server starts")
    }

    #[test]
    fn loadgen_replays_into_a_live_server_without_drops() {
        let config = LiveConfig { workers: 2, queue_capacity: 512, ..LiveConfig::default() };
        let server = start(config);
        let cfg = LoadgenConfig {
            addr: server.addr().to_string(),
            sessions: 2_000,
            connections: 2,
            groups: 16,
            windows: 4,
            shutdown: true,
            ..LoadgenConfig::default()
        };
        let report = run(&cfg).expect("replay succeeds");
        let final_snap = server.join();
        assert_eq!(report.verdict(true), Ok(()), "clean, drained: {report:?}");
        assert_eq!(report.sessions, 2_000);
        assert_eq!(report.groups, 16);
        // 4 event-time windows on each of 2 worker rings.
        assert!(report.windows_closed >= 8, "windows closed: {report:?}");
        assert_eq!(final_snap.accepted, 2_000);
    }

    #[test]
    fn loadgen_replays_binary_frames_without_drops() {
        let server = start(LiveConfig { workers: 2, ..LiveConfig::default() });
        let cfg = LoadgenConfig {
            addr: server.addr().to_string(),
            wire: WireMode::Binary,
            sessions: 2_000,
            connections: 2,
            groups: 16,
            windows: 4,
            shutdown: true,
            ..LoadgenConfig::default()
        };
        let report = run(&cfg).expect("binary replay succeeds");
        server.join();
        assert_eq!(report.wire, "binary");
        assert_eq!(report.verdict(true), Ok(()), "clean, drained: {report:?}");
        assert_eq!(report.sessions, 2_000);
        assert_eq!(report.groups, 16);
        assert!(report.windows_closed >= 8, "windows closed: {report:?}");
    }

    #[test]
    fn chaos_replay_recovers_exactly_and_matches_the_serial_oracle() {
        let cfg = LoadgenConfig {
            sessions: 2_000,
            connections: 1,
            groups: 16,
            windows: 4,
            seed: 7,
            ..LoadgenConfig::default()
        };
        let plan = ChaosPlan::parse("disconnect:50;torn:120;stall:400@50;panic:0@300")
            .expect("valid plan");
        let report =
            run_chaos(&cfg, &plan, &ChaosRunOpts { workers: 2, ..ChaosRunOpts::default() })
                .expect("chaos replay");
        assert_eq!(report.verdict(), Ok(()), "exactly once, scripted panics clean: {report:?}");
        assert_eq!(report.sessions, 2_000);
        assert!(report.reconnects >= 2, "disconnect + torn both force reconnects: {report:?}");
        assert_eq!(report.injected_disconnects, 1);
        assert_eq!(report.injected_torn, 1);
        assert_eq!(report.injected_stalls, 1);
        assert_eq!(report.worker_recovered, 1, "worker 0 panicked once: {report:?}");
        assert_eq!(report.truncated_tails, 1, "the torn record's tail was dropped: {report:?}");
        // 4 windows of 900 s, 60 s lateness: the watermark closes 0..=2.
        assert_eq!(report.settled_until, 2);
    }

    #[test]
    fn the_settled_horizon_follows_the_formula_and_refuses_a_replay_too_short() {
        // The chaos and fleet geometries of `scripts/gates.sh`.
        let chaos = LoadgenConfig { sessions: 20_000, windows: 12, ..LoadgenConfig::default() };
        assert_eq!(settled_horizon(&chaos), Ok(10));
        let fleet = LoadgenConfig {
            sessions: 20_000,
            windows: 8,
            window_ms: 60_000.0,
            lateness_ms: 120_000.0,
            ..LoadgenConfig::default()
        };
        assert_eq!(settled_horizon(&fleet), Ok(4));
        // One window of data can never close itself; neither can a
        // replay whose lateness swallows its whole span, or one that
        // never reaches some group.
        for short in [
            LoadgenConfig { windows: 1, ..chaos.clone() },
            LoadgenConfig { lateness_ms: 12.0 * 900_000.0, ..chaos.clone() },
            LoadgenConfig { sessions: 10, groups: 16, ..chaos.clone() },
        ] {
            let err = settled_horizon(&short).expect_err("nothing settles");
            assert!(err.watermark_ms < err.window_ms, "{err}");
            let plan = ChaosPlan::default();
            let refused = run_chaos(&short, &plan, &ChaosRunOpts::default()).expect_err("typed");
            assert_eq!(refused.kind(), io::ErrorKind::InvalidInput);
            let inner = refused.get_ref().and_then(|e| e.downcast_ref::<NoSettledWindow>());
            assert_eq!(inner, Some(&err), "{refused}");
        }
    }

    #[test]
    fn each_verdict_names_the_first_violated_condition() {
        let clean = LoadReport {
            sessions: 10,
            acked: 10,
            accepted: 10,
            groups: 2,
            drained: true,
            ..LoadReport::default()
        };
        assert_eq!(clean.verdict(true), Ok(()));
        let undrained = LoadReport { drained: false, ..clean.clone() };
        assert_eq!(undrained.verdict(false), Ok(()), "no drain was asked for");
        for (broken, names) in [
            (LoadReport { acked: 9, accepted: 9, ..clean.clone() }, "acked 9 of 10"),
            (LoadReport { accepted: 9, rejected: 1, ..clean.clone() }, "accepted 9 of 10"),
            (LoadReport { rejected: 1, late: 1, ..clean.clone() }, "1 records rejected"),
            (LoadReport { late: 2, groups: 0, ..clean.clone() }, "2 records late"),
            (LoadReport { groups: 0, drained: false, ..clean.clone() }, "no group observed"),
            (undrained, "did not drain"),
        ] {
            let verdict = broken.verdict(true).expect_err(names);
            assert!(verdict.contains(names), "{verdict}");
        }

        let exact = ChaosReport {
            sessions: 10,
            acked: 10,
            accepted: 10,
            bit_identical_to_serial: true,
            settled_until: 3,
            ..ChaosReport::default()
        };
        assert_eq!(exact.verdict(), Ok(()));
        for (broken, names) in [
            (ChaosReport { acked: 9, accepted: 9, ..exact.clone() }, "acked 9 of 10"),
            (ChaosReport { accepted: 11, rejected: 1, ..exact.clone() }, "accepted 11 of 10"),
            (ChaosReport { rejected: 1, worker_lost_records: 1, ..exact.clone() }, "1 records rej"),
            (ChaosReport { worker_lost_records: 3, ..exact.clone() }, "3 records lost"),
            (ChaosReport { windows_shed: 1, ..exact.clone() }, "1 windows shed"),
            (ChaosReport { bit_identical_to_serial: false, ..exact.clone() }, "0..=3 differ"),
        ] {
            let verdict = broken.verdict().expect_err(names);
            assert!(verdict.contains(names), "{verdict}");
        }
    }

    /// A `metrics` reply that says nothing must fail the run, not fill a
    /// report with zeros that `verdict` would pass.
    #[test]
    fn a_metrics_reply_without_counters_is_an_error_not_zeros() {
        for silent in ["{\"error\":\"draining\"}", "{\"counters\":{}}", "not json", ""] {
            let err = MetricsReply::parse(silent).err().expect(silent);
            assert!(err.to_string().ends_with(silent), "the server's line: {err}");
        }
        let reply =
            "{\"counters\":{\"worker.lost_records\":3},\"gauges\":{\"fleet.merge.last_ms\":1.5},\
                     \"histograms\":{},\"spans\":[]}";
        let metrics = MetricsReply::parse(reply).expect("a registry snapshot");
        assert_eq!(metrics.counter("worker.lost_records"), 3);
        assert_eq!(metrics.counter("store.windows_shed"), 0, "never incremented");
        assert_eq!(metrics.gauge("fleet.merge.last_ms"), 1.5);
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
