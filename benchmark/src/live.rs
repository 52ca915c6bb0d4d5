//! The three live workloads — `ingest_dense`, `ingest_wide`, `history` —
//! driven against a real `edgeperf serve` child and measured from outside.
//!
//! Each workload opens its control connections first and its data
//! connection last (see [`crate::proc::newest_reader`]), keeps all of them
//! open to the end, and checks the server's replies against the
//! [`Oracle`].

use crate::child::{Error, Layout, ScratchDir, Server, SERVE_RETENTION, SERVE_WORKERS};
use crate::gen::{group, Lap, Shape, SplitMix64, WINDOW_MS};
use crate::load::{probe_until, visible_lag_ms, wait_accepted, Pace, ProbeSample, SendLog, Sender};
use crate::oracle::{Oracle, LATENESS_MS};
use crate::proc::{self, ProcDelta, ProcSample, Role, ROLES};
use crate::stats::Timing;
use crate::Outcome;
use edgeperf::analysis::GroupKey;
use edgeperf::live::{shard_of, CellQuery, GroupFilter, LiveClient, LiveSnapshot, StoreStats};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Generated inputs of one live workload.
pub struct Inputs {
    pub lap: Lap,
    pub oracle: Oracle,
}

impl Inputs {
    pub fn generate(shape: Shape, seed: u64) -> Inputs {
        let lap = Lap::generate(shape, seed);
        let oracle = Oracle::build(&lap);
        Inputs { lap, oracle }
    }
}

/// Phase lengths: the issue's full-length phases times `factor`.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub factor: f64,
    pub seed: u64,
}

impl Plan {
    fn secs(&self, full: f64) -> Duration {
        Duration::from_secs_f64(full * self.factor)
    }

    pub fn sat(&self) -> Duration {
        self.secs(20.0)
    }

    pub fn paced(&self) -> Duration {
        self.secs(12.0)
    }

    /// Laps the `history` build sends: a fixed count, so the store reaches
    /// the same state on every commit. Never below 20, which still leaves
    /// ten windows spilled behind the RAM tier.
    pub fn build_laps(&self) -> u64 {
        ((240.0 * self.factor).round() as u64).max(20)
    }

    pub fn query(&self) -> Duration {
        self.secs(6.0)
    }

    pub fn mixed(&self) -> Duration {
        self.secs(8.0)
    }

    /// Servers an ingest workload's phases are split over: three at the
    /// declared run length, one when the run is too short for a third of it
    /// to close a dense window.
    pub fn ingest_rounds(&self) -> u32 {
        ((self.factor * 6.0) as u32).clamp(1, 3)
    }

    pub fn quiesce_cap(&self) -> Duration {
        self.secs(5.0).max(Duration::from_secs(1))
    }
}

/// Paced-phase rates (records/s); the issue fixes them per workload.
pub const DENSE_PACED_RPS: f64 = 2_000_000.0;
pub const WIDE_PACED_RPS: f64 = 1_000_000.0;
pub const MIXED_RPS: f64 = 500_000.0;

/// How long any single wait on the server may take before the run fails.
const PHASE_TIMEOUT: Duration = Duration::from_secs(60);

/// One ingest phase as measured: what was sent, what the probe saw, and the
/// server's `/proc` readings either side.
struct Phase {
    records: u64,
    wall_s: f64,
    log: SendLog,
    probes: Vec<ProbeSample>,
    delta: ProcDelta,
}

/// Run the sender through `pace` with the probe polling beside it and
/// `meanwhile` on the calling thread (it is handed an "is the sender still
/// running" test), then wait until the server has applied everything sent.
fn ingest_phase(
    server: &Server,
    sender: &mut Sender<'_>,
    probe: &mut LiveClient,
    pace: Pace,
    before: &ProcSample,
    meanwhile: impl FnOnce(&dyn Fn() -> bool),
) -> Result<(Phase, ProcSample), Error> {
    let first = sender.sent;
    let stop = AtomicBool::new(false);
    let started = Instant::now();
    let (log, probes) = std::thread::scope(|s| {
        let prober = s.spawn(|| probe_until(probe, &stop));
        let sending = s.spawn(|| sender.run(pace));
        meanwhile(&|| !sending.is_finished());
        let log = sending.join().expect("sender thread panicked");
        stop.store(true, Ordering::Release);
        let probes = prober.join().expect("probe thread panicked");
        (log, probes)
    });
    let (log, probes) = (log?, probes?);
    let applied_at = wait_accepted(probe, sender.sent, PHASE_TIMEOUT)?;
    let after = proc::sample(server.pid())?;
    let phase = Phase {
        records: sender.sent - first,
        wall_s: (applied_at - started).as_secs_f64(),
        log,
        probes,
        delta: ProcDelta::between(before, &after),
    };
    Ok((phase, after))
}

impl Phase {
    fn cpu_ns_per_rec(&self) -> f64 {
        self.delta.total_cpu_ns as f64 / self.records as f64
    }

    fn role_ns_per_rec(&self, role: Role) -> f64 {
        self.delta.role_ns(role) as f64 / self.records as f64
    }
}

fn rtt_ms(probes: &[ProbeSample]) -> Vec<f64> {
    probes.iter().map(|p| (p.replied - p.asked).as_secs_f64() * 1e3).collect()
}

/// Windows (from 0) certainly closed on every worker once `sent` records
/// are applied: those whose end plus the allowed lateness lies at least a
/// second of event time — hundreds of records — behind the last record.
fn closed_windows(lap: &Lap, sent: u64) -> u32 {
    if sent == 0 {
        return 0;
    }
    let last_ts = lap.record_at(sent - 1).ts_ms;
    ((last_ts - LATENESS_MS - 1_000.0) / WINDOW_MS).floor().max(0.0) as u32
}

/// Workers that receive at least one of the first `records` records of a lap.
fn workers_reached(lap: &Lap, records: u64) -> u64 {
    let mut seen = [false; SERVE_WORKERS];
    for rec in &lap.records[..records as usize] {
        seen[shard_of(&rec.group, SERVE_WORKERS)] = true;
        if seen.iter().all(|s| *s) {
            break;
        }
    }
    seen.iter().filter(|s| **s).count() as u64
}

/// `windows_closed` the drained server must report: every worker closes
/// each window it received a record of.
fn expected_windows_closed(lap: &Lap, sent: u64) -> u64 {
    let n = lap.len();
    sent / n * workers_reached(lap, n) + workers_reached(lap, sent % n)
}

/// Tally of operations and of the reasons any failed.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Tally {
    fn fail(&mut self, n: u64, note: String) {
        if n > 0 {
            self.failed += n;
            if self.notes.len() < 8 {
                self.notes.push(note);
            }
        }
    }
}

fn window_query(from: u32, until: u32, group: Option<&GroupKey>) -> CellQuery {
    CellQuery {
        from_window: Some(from),
        until_window: Some(until),
        group: group.map_or_else(GroupFilter::default, |g| GroupFilter {
            pop: Some(g.pop.0),
            prefix: Some((g.prefix.base, g.prefix.len)),
            ..GroupFilter::default()
        }),
    }
}

/// One timed, verified `cells` query. Verification runs after the clock
/// stops; a failed or wrong reply counts as a failed operation.
fn timed_query(
    client: &mut LiveClient,
    oracle: &Oracle,
    from: u32,
    until: u32,
    group: Option<&GroupKey>,
    tally: &mut Tally,
) -> (f64, usize) {
    let started = Instant::now();
    let reply = client.cells_query(&window_query(from, until, group));
    let ms = started.elapsed().as_secs_f64() * 1e3;
    tally.attempted += 1;
    let mut rows = match reply {
        Ok(rows) => rows,
        Err(e) => {
            tally.fail(1, format!("cells {from}..={until}: {e}"));
            return (ms, 0);
        }
    };
    if let Err(why) = oracle.check(&mut rows, from..=until, group) {
        tally.fail(1, format!("cells {from}..={until}: {why}"));
    }
    (ms, rows.len())
}

/// One `recent_4w` query: all groups over the newest four closed windows
/// (`newest` is the last of them) — served from RAM.
fn recent_query(client: &mut LiveClient, oracle: &Oracle, newest: u32, tally: &mut Tally) -> f64 {
    timed_query(client, oracle, newest.saturating_sub(3), newest, None, tally).0
}

/// Checks shared by all three live workloads once ingest is over: nothing
/// was rejected or late, and the drained server closed exactly the windows
/// it was sent. Shuts the server down.
fn finish(
    server: Server,
    mut control: LiveClient,
    inputs: &Inputs,
    sent: u64,
    tally: &mut Tally,
    out: &mut Outcome,
) -> Result<(), Error> {
    let stats = control.stats_json()?;
    let processed = worker_processed(&stats);
    if let Some(max) = processed.iter().copied().reduce(f64::max) {
        let mean = processed.iter().sum::<f64>() / processed.len() as f64;
        out.set("live.queue.worker_skew", if mean > 0.0 { max / mean } else { 0.0 });
    }
    out.set("server_peak_rss_mb", proc::sample(server.pid())?.hwm_kb as f64 / 1024.0);
    let last: LiveSnapshot = control.shutdown()?;
    tally.attempted += sent;
    tally.fail(sent.saturating_sub(last.accepted), format!("accepted {} of {sent}", last.accepted));
    tally.fail(last.rejected, format!("{} rejected ({} late)", last.rejected, last.late));
    let want = expected_windows_closed(&inputs.lap, sent);
    if last.windows_closed != want {
        tally.fail(1, format!("windows_closed {} but {want} were sent", last.windows_closed));
    }
    out.set("live.window.windows_closed", last.windows_closed as f64);
    server.wait_exit(PHASE_TIMEOUT)
}

/// `processed` of every worker in a `stats` reply.
fn worker_processed(stats_json: &str) -> Vec<f64> {
    let Ok(value) = serde_json::parse(stats_json) else { return Vec::new() };
    match value.get("workers") {
        Some(serde_json::Value::Array(workers)) => workers
            .iter()
            .filter_map(|w| match w.get("processed") {
                Some(serde_json::Value::Num(n)) => Some(*n),
                _ => None,
            })
            .collect(),
        _ => Vec::new(),
    }
}

/// The untraced per-layer numbers every ingest phase yields from outside.
fn report_roles(out: &mut Outcome, phase: &Phase) {
    for role in ROLES {
        out.set(role_metric(role), phase.role_ns_per_rec(role));
    }
}

fn role_metric(role: Role) -> String {
    format!("live.server.{}_cpu_ns_per_rec", role.label())
}

fn report_loadgen(out: &mut Outcome, logs: &[&SendLog]) {
    let late: Vec<f64> = logs.iter().flat_map(|l| l.late_ms.iter().copied()).collect();
    out.set("bench.loadgen.late_ms_p99", Timing::of(&late).p99);
    let (ns, n) = logs.iter().fold((0, 0), |(ns, n), l| (ns + l.encode_ns, n + l.encoded));
    out.set("bench.loadgen.encode_ns_per_rec", ns as f64 / n.max(1) as f64);
}

fn report_lag(out: &mut Outcome, phase: &Phase) {
    let (lags, _) = visible_lag_ms(&phase.log, &phase.probes);
    let lag = out.timed("visible_lag_ms", lags);
    out.set("visible_lag_ms_p50", lag.p50);
    out.set("live.server.visible_lag_ms_p90", lag.p90);
    out.set("live.server.visible_lag_ms_p99", lag.p99);
}

/// `ingest_dense` / `ingest_wide`: the phases split over
/// [`Plan::ingest_rounds`] fresh servers, every value the median of the
/// rounds. How fast one server process runs depends on things fixed at its
/// start (where its memory landed, its hash seeds) and on the few seconds
/// of the shared machine it happened to get; rounds sample both several
/// times in a run. With `metrics`, the servers run with `--metrics` and
/// only `sat` is run (the traced pass's registry-overhead arm).
pub fn run_ingest(
    layout: &Layout,
    inputs: &Inputs,
    plan: &Plan,
    paced_rps: f64,
    metrics: bool,
) -> Result<Outcome, Error> {
    let rounds = plan.ingest_rounds();
    let round = Plan { factor: plan.factor / rounds as f64, ..*plan };
    let outcomes: Result<Vec<Outcome>, Error> =
        (0..rounds).map(|_| ingest_round(layout, inputs, &round, paced_rps, metrics)).collect();
    let mut outcomes = outcomes?;
    // The split by role is taken whole from the round whose total is the
    // median (the count is odd), so that the roles still sum to the total.
    let total = |o: &Outcome| o.get("ingest_cpu_ns_per_rec").unwrap_or(0.0);
    outcomes.sort_by(|a, b| total(a).total_cmp(&total(b)));
    let middle = &outcomes[outcomes.len() / 2];
    let split = ROLES.map(|role| (role_metric(role), middle.get(&role_metric(role))));
    let mut out = Outcome::median_of(outcomes);
    for (name, value) in split {
        out.set(name, value.unwrap_or(0.0));
    }
    Ok(out)
}

/// One server's `sat`, `paced` and `query` phases.
fn ingest_round(
    layout: &Layout,
    inputs: &Inputs,
    plan: &Plan,
    paced_rps: f64,
    metrics: bool,
) -> Result<Outcome, Error> {
    let mut out = Outcome::default();
    let mut tally = Tally::default();
    let server = Server::start(layout, None, metrics)?;
    let mut control = LiveClient::connect(server.addr)?;
    control.set_io_timeout(Some(PHASE_TIMEOUT))?;
    let mut sender = Sender::connect(server.addr, &inputs.lap, PHASE_TIMEOUT)?;
    let before = proc::sample(server.pid())?;

    let (sat, after_sat) = ingest_phase(
        &server,
        &mut sender,
        &mut control,
        Pace::Saturate(plan.sat()),
        &before,
        |_| (),
    )?;
    out.set("ingest_max_rps", sat.records as f64 / sat.wall_s);
    out.set("ingest_cpu_ns_per_rec", sat.cpu_ns_per_rec());
    report_roles(&mut out, &sat);
    let (_, backlog) = visible_lag_ms(&sat.log, &sat.probes);
    out.set("live.server.backlog_rec_max", backlog as f64);
    if metrics {
        report_loadgen(&mut out, &[&sat.log]);
        finish(server, control, inputs, sender.sent, &mut tally, &mut out)?;
        return Ok(out.finish(tally.attempted, tally.failed, tally.notes));
    }

    let pace = Pace::Paced { rate: paced_rps, length: plan.paced() };
    let (paced, _) = ingest_phase(&server, &mut sender, &mut control, pace, &after_sat, |_| ())?;
    out.set("paced_cpu_ns_per_rec", paced.cpu_ns_per_rec());
    out.set(
        "live.server.ctx_switches_per_krec",
        paced.delta.ctx_switches as f64 / (paced.records as f64 / 1e3),
    );
    report_lag(&mut out, &paced);
    let rtt = Timing::of(&rtt_ms(&[sat.probes.as_slice(), paced.probes.as_slice()].concat()));
    out.set("live.server.snapshot_rtt_ms_p50", rtt.p50);
    out.set("live.server.snapshot_rtt_ms_p99", rtt.p99);
    report_loadgen(&mut out, &[&sat.log, &paced.log]);

    // query: the newest full windows, read back from the now idle server.
    let Some(newest) = closed_windows(&inputs.lap, sender.sent).checked_sub(1) else {
        return Err("the run was too short to close a single window".into());
    };
    let mut recent_ms = Vec::new();
    let phase = Instant::now();
    while phase.elapsed() < plan.query() || recent_ms.is_empty() {
        recent_ms.push(recent_query(&mut control, &inputs.oracle, newest, &mut tally));
    }
    out.timed_p50("query_recent_ms", recent_ms);

    finish(server, control, inputs, sender.sent, &mut tally, &mut out)?;
    Ok(out.finish(tally.attempted, tally.failed, tally.notes))
}

/// Poll `store` until segment and compaction counts have stood still for
/// 500 ms (or the cap passes): the compactor has caught up.
fn quiesce(client: &mut LiveClient, cap: Duration) -> Result<StoreStats, Error> {
    let started = Instant::now();
    let mut last = client.store_stats()?;
    let mut since = Instant::now();
    while since.elapsed() < Duration::from_millis(500) && started.elapsed() < cap {
        std::thread::sleep(Duration::from_millis(50));
        let now = client.store_stats()?;
        if (now.segments, now.compactions) != (last.segments, last.compactions) {
            since = Instant::now();
        }
        last = now;
    }
    Ok(last)
}

/// `(from_window, until_window, bytes, cells)` of every segment in the
/// manifest the server itself wrote; empty when it cannot be read.
fn manifest_segments(spill_dir: &std::path::Path) -> Vec<[f64; 4]> {
    let parsed = std::fs::read_to_string(spill_dir.join("manifest.json"))
        .ok()
        .and_then(|text| serde_json::parse(&text).ok());
    let Some(serde_json::Value::Array(segments)) = parsed.as_ref().and_then(|m| m.get("segments"))
    else {
        return Vec::new();
    };
    let row = |seg: &serde_json::Value| -> Option<[f64; 4]> {
        let mut row = [0.0; 4];
        for (slot, key) in row.iter_mut().zip(["from_window", "until_window", "bytes", "cells"]) {
            let Some(serde_json::Value::Num(n)) = seg.get(key) else { return None };
            *slot = *n;
        }
        Some(row)
    };
    segments.iter().filter_map(row).collect()
}

/// `history`: build a spilled store with a fixed number of laps, let the
/// compactor settle, query it three ways, then query it while ingest
/// resumes.
pub fn run_history(layout: &Layout, inputs: &Inputs, plan: &Plan) -> Result<Outcome, Error> {
    let mut out = Outcome::default();
    let mut tally = Tally::default();
    let spill_dir = layout.scratch("spill")?;
    let server = Server::start(layout, Some(ScratchDir(spill_dir.clone())), false)?;
    let mut control = LiveClient::connect(server.addr)?;
    control.set_io_timeout(Some(PHASE_TIMEOUT))?;
    let mut asker = LiveClient::connect(server.addr)?;
    asker.set_io_timeout(Some(PHASE_TIMEOUT))?;
    let mut sender = Sender::connect(server.addr, &inputs.lap, PHASE_TIMEOUT)?;
    let before = proc::sample(server.pid())?;

    // build: closed loop, fixed record count.
    let laps = plan.build_laps();
    let total = laps * inputs.lap.len();
    let (mut build, _) =
        ingest_phase(&server, &mut sender, &mut control, Pace::UntilTotal(total), &before, |_| ())?;
    out.set("ingest_max_rps", build.records as f64 / build.wall_s);
    let store = quiesce(&mut control, plan.quiesce_cap())?;
    // The compaction the build caused is part of what the build cost.
    let settled = proc::sample(server.pid())?;
    build.delta = ProcDelta::between(&before, &settled);
    out.set("ingest_cpu_ns_per_rec", build.cpu_ns_per_rec());
    report_roles(&mut out, &build);
    let (_, backlog) = visible_lag_ms(&build.log, &build.probes);
    out.set("live.server.backlog_rec_max", backlog as f64);
    out.set("store_bytes_per_cell", store.bytes as f64 / store.cells.max(1) as f64);
    out.set("live.store.segments", store.segments as f64);
    out.set("live.store.compactions", store.compactions as f64);
    out.set("live.store.spilled_cells", store.spilled_cells as f64);
    out.set("live.store.write_amp", settled.write_bytes as f64 / store.bytes.max(1) as f64);

    // Windows 0..=laps-2 are closed; the newest SERVE_RETENTION of them are
    // still in RAM on each worker, everything older was spilled.
    let newest_closed = u32::try_from(laps).expect("lap count fits u32") - 2;
    let historical_until = newest_closed - u32::try_from(SERVE_RETENTION).expect("small");
    let day = 96.min(historical_until + 1);
    let mut rng = SplitMix64::new(plan.seed ^ 0x5155_4552_5953);
    let point_day = |rng: &mut SplitMix64| {
        let from = u32::try_from(rng.below(u64::from(historical_until + 2 - day))).expect("small");
        let g = u32::try_from(rng.below(u64::from(inputs.lap.shape.groups))).expect("small");
        (from, from + day - 1, group(g))
    };

    // query: closed loop, one client, on the settled store. The three kinds
    // take turns, so that each one's median spans the whole phase and a
    // slow few seconds of the machine fall on all of them alike.
    let (mut point_ms, mut range_ms, mut recent_ms) = (Vec::new(), Vec::new(), Vec::new());
    // What a query makes the settled store open and decode.
    let manifest = manifest_segments(&spill_dir);
    let (mut segments, mut bytes, mut examined, mut rows) = (0.0, 0.0, 0.0, 0.0);
    let phase = Instant::now();
    while phase.elapsed() < 3 * plan.query() {
        let (from, until, g) = point_day(&mut rng);
        let (ms, n) = timed_query(&mut asker, &inputs.oracle, from, until, Some(&g), &mut tally);
        point_ms.push(ms);
        for seg in manifest.iter().filter(|s| s[0] <= f64::from(until) && s[1] >= f64::from(from)) {
            segments += 1.0;
            bytes += seg[2];
            examined += seg[3];
        }
        rows += n as f64;
        let from =
            u32::try_from(rng.below(u64::from(historical_until.saturating_sub(2)))).expect("small");
        let until = (from + 3).min(historical_until);
        range_ms.push(timed_query(&mut asker, &inputs.oracle, from, until, None, &mut tally).0);
        recent_ms.push(recent_query(&mut asker, &inputs.oracle, newest_closed, &mut tally));
    }
    let queries = point_ms.len() as f64;
    out.set("live.store.query_segments_opened", segments / queries);
    out.set("live.store.query_bytes_read", bytes / queries);
    out.set("live.store.cells_examined_per_row", if rows > 0.0 { examined / rows } else { 0.0 });
    out.timed_p50("query_point_ms", point_ms);
    out.timed_p50("query_range_ms", range_ms);
    out.timed_p50("query_recent_ms", recent_ms);

    // mixed: point_day queries while ingest resumes open loop.
    let before_mixed = proc::sample(server.pid())?;
    let pace = Pace::Paced { rate: MIXED_RPS, length: plan.mixed() };
    let mut mixed_ms = Vec::new();
    let (mixed, _) =
        ingest_phase(&server, &mut sender, &mut control, pace, &before_mixed, |sending| {
            while sending() {
                let (from, until, g) = point_day(&mut rng);
                let (ms, _) =
                    timed_query(&mut asker, &inputs.oracle, from, until, Some(&g), &mut tally);
                mixed_ms.push(ms);
            }
        })?;
    out.timed_p50("query_point_mixed_ms", mixed_ms);
    // The ingest path's CPU only: the queries run on their connection's
    // reader thread, and a faster query must not read as costlier ingest
    // just because a closed loop then fits more queries into the phase.
    let ingest_path = [Role::Reader, Role::Worker, Role::Compactor];
    let ingest_ns: u64 = ingest_path.iter().map(|r| mixed.delta.role_ns(*r)).sum();
    out.set("mixed_cpu_ns_per_rec", ingest_ns as f64 / mixed.records as f64);
    out.set(
        "live.server.ctx_switches_per_krec",
        mixed.delta.ctx_switches as f64 / (mixed.records as f64 / 1e3),
    );
    report_lag(&mut out, &mixed);
    let rtt = Timing::of(&rtt_ms(&[build.probes.as_slice(), mixed.probes.as_slice()].concat()));
    out.set("live.server.snapshot_rtt_ms_p50", rtt.p50);
    out.set("live.server.snapshot_rtt_ms_p99", rtt.p99);
    report_loadgen(&mut out, &[&build.log, &mixed.log]);

    drop(asker);
    finish(server, control, inputs, sender.sent, &mut tally, &mut out)?;
    Ok(out.finish(tally.attempted, tally.failed, tally.notes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{DENSE, WIDE};

    #[test]
    fn closed_window_count_trails_the_last_record_by_the_lateness() {
        let lap = Lap::generate(Shape { records_per_window: 9_000, ..DENSE }, 1);
        let n = lap.len();
        assert_eq!(closed_windows(&lap, 0), 0);
        assert_eq!(closed_windows(&lap, n), 0, "window 0 is still open at its own end");
        // 61 s of lateness-plus-margin is 610 records of this lap.
        assert_eq!(closed_windows(&lap, n + 600), 0);
        assert_eq!(closed_windows(&lap, n + 620), 1);
        assert_eq!(closed_windows(&lap, 5 * n + 620), 5);
    }

    #[test]
    fn every_worker_closes_every_window_it_saw() {
        let lap = Lap::generate(Shape { records_per_window: 9_000, ..WIDE }, 1);
        let n = lap.len();
        let workers = SERVE_WORKERS as u64;
        assert_eq!(expected_windows_closed(&lap, 3 * n), 3 * workers);
        assert_eq!(expected_windows_closed(&lap, 3 * n + 500), 4 * workers);
        // The very first record reaches exactly one worker.
        assert_eq!(expected_windows_closed(&lap, 3 * n + 1), 3 * workers + 1);
    }

    #[test]
    fn plan_scales_every_phase_by_one_factor() {
        let half = Plan { factor: 0.5, seed: 7 };
        assert_eq!(half.sat(), Duration::from_secs(10));
        assert_eq!(half.paced(), Duration::from_secs(6));
        assert_eq!(half.build_laps(), 120);
        assert_eq!(half.query(), Duration::from_secs(3));
        assert_eq!(half.mixed(), Duration::from_secs(4));
        assert_eq!(Plan { factor: 0.01, seed: 7 }.build_laps(), 20);
        assert_eq!(half.ingest_rounds(), 3);
        assert_eq!(Plan { factor: 1.0, seed: 7 }.ingest_rounds(), 3);
        assert_eq!(Plan { factor: 0.025, seed: 7 }.ingest_rounds(), 1, "--quick");
    }
}
