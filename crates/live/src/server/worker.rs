//! The worker threads: each owns the window ring, detector and closed
//! windows of its shard of the groups, applies batches from its lanes,
//! answers control messages between them, closes (and spills) windows,
//! and survives its own panics.

use super::lanes::{Batch, LaneRx};
use super::query::ControlMsg;
use super::stats::{count_worker_lost, reject, StatCell, WorkerSnap};
use super::Shared;
use crate::config::LiveConfig;
use crate::detect::OnlineDetector;
use crate::protocol::WorkerStatsLine;
use crate::store::SpillOutcome;
use crate::window::{ClosedWindow, SharedWindow, WindowRing};
use edgeperf_analysis::DegradationMetric;
use edgeperf_obs::Histogram;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, TryRecvError};
use std::sync::Arc;

/// Batches a worker takes from one lane before moving to the next —
/// bounds per-lane burst so one hot connection cannot starve the rest.
const BATCHES_PER_LANE_ROUND: usize = 4;

/// Times a panicked worker is respawned before its shard goes into
/// zombie mode (records drained and counted as `worker_lost` rejects,
/// queries keep answering).
const MAX_WORKER_RESPAWNS: u32 = 8;

struct WorkerState {
    ring: WindowRing,
    detector: OnlineDetector,
    /// Closed windows retained in RAM, each an immutable slice of rows in
    /// canonical order, shared with the detector (its baseline history)
    /// and whichever queries are writing it out.
    closed: BTreeMap<u32, SharedWindow>,
    processed: u64,
    windows_closed: u64,
}

impl WorkerState {
    fn snap(&self, w: usize, queue_depth: usize) -> WorkerSnap {
        let mut classes_minrtt = BTreeMap::new();
        for (_, class) in self.detector.classes(DegradationMetric::MinRtt) {
            *classes_minrtt.entry(class).or_insert(0) += 1;
        }
        WorkerSnap {
            // usize → u64 widens on every supported target.
            line: WorkerStatsLine {
                worker: w as u64,
                processed: self.processed,
                queue_depth: queue_depth as u64,
                groups: self.detector.group_count() as u64,
                open_windows: self.ring.open_windows() as u64,
                windows_closed: self.windows_closed,
            },
            events: [
                self.detector.event_count(DegradationMetric::MinRtt),
                self.detector.event_count(DegradationMetric::HdRatio),
            ],
            episodes_opened: self.detector.episodes_opened(),
            episodes_open: self.detector.episodes_open() as u64,
            classes_minrtt,
        }
    }
}

/// Everything a worker owns across panics. Held *outside* the
/// [`catch_unwind`] in [`worker_thread`], so a respawn resumes with the
/// same lanes and — when the panic hit a clean batch boundary — the
/// same window state. Only a panic caught mid-apply (`inflight` set)
/// drops the open windows.
struct WorkerCtx {
    state: WorkerState,
    lanes: Vec<LaneRx>,
    seen_version: u64,
    control_dead: bool,
    /// `processed` thresholds at which the chaos plan panics this
    /// worker, ascending; each fires exactly once.
    pending_panics: Vec<u64>,
    /// Set while a batch is mid-apply: `(lane index, records)`. A panic
    /// with this set means the open windows may be inconsistent.
    inflight: Option<(usize, u64)>,
    /// Respawn budget exhausted: drain lanes, count records as
    /// `worker_lost` rejects, keep answering control and the drain
    /// protocol — never strand a reader or the final snapshot.
    zombie: bool,
}

impl WorkerCtx {
    fn new(cfg: &LiveConfig, w: usize) -> WorkerCtx {
        let detector = OnlineDetector::new(
            cfg.analysis,
            cfg.minrtt_threshold_ms,
            cfg.hdratio_threshold,
            cfg.retention_windows,
        );
        WorkerCtx {
            state: WorkerState {
                ring: WindowRing::new(cfg.window_ms, cfg.lateness_ms),
                detector,
                closed: BTreeMap::new(),
                processed: 0,
                windows_closed: 0,
            },
            lanes: Vec::new(),
            // u64::MAX forces the first iteration to absorb pre-registered
            // lanes.
            seen_version: u64::MAX,
            control_dead: false,
            pending_panics: cfg.chaos.panics_for(w),
            inflight: None,
            zombie: false,
        }
    }
}

/// Worker thread entry: run [`worker_run`] under [`catch_unwind`] and
/// respawn it in place (same thread, same [`WorkerCtx`]) after a panic,
/// up to [`MAX_WORKER_RESPAWNS`] times; past the budget the worker
/// degrades to zombie mode instead of stranding its readers.
pub(super) fn worker_thread(w: usize, shared: &Shared, control: &Receiver<ControlMsg>) {
    let mut ctx = WorkerCtx::new(&shared.config, w);
    for respawns in 0.. {
        if catch_unwind(AssertUnwindSafe(|| worker_run(w, shared, control, &mut ctx))).is_ok() {
            return;
        }
        recover(w, shared, &mut ctx);
        if respawns == MAX_WORKER_RESPAWNS {
            ctx.zombie = true;
            shared.metrics.counter("worker.zombie").inc();
        }
    }
}

/// Post-panic repair, run between [`worker_run`] incarnations. A clean
/// panic (batch boundary, `inflight` empty) needs nothing beyond
/// accounting — all state survived in [`WorkerCtx`]. A dirty panic lost
/// the mid-apply batch and may have left the open windows inconsistent:
/// account the records, unblock the syncing reader, and drop the open
/// windows. The ring keeps its watermark, so a record for a window closed
/// before the panic is still late and the closed windows (in RAM or
/// spilled) are never reopened or replaced. The detector forgets its
/// groups and baselines but keeps its running totals, so the worker's
/// events and episodes never fall back.
fn recover(w: usize, shared: &Shared, ctx: &mut WorkerCtx) {
    // Clear any heartbeat left open mid-batch so the supervisor does
    // not flag the recovered worker as slow forever.
    shared.board.finish(w);
    shared.metrics.counter("worker.recovered").inc();
    if let Some((lane_idx, n)) = ctx.inflight.take() {
        count_worker_lost(shared.stats.worker(w), n);
        if let Some(lane) = ctx.lanes.get(lane_idx) {
            lane.consumed(n);
        }
        let lost = ctx.state.ring.discard_open() as u64;
        shared.metrics.counter("worker.lost_windows").add(lost);
        ctx.state.detector.forget_groups();
    }
}

/// Zombie mode: the respawn budget is gone. Batches are drained and
/// counted as `worker_lost` rejects so readers (and resume acks) never
/// block, but no window state is touched.
fn discard_batch(lane: &mut LaneRx, mut batch: Batch, cell: &StatCell) {
    let n = batch.len() as u64;
    batch.clear();
    count_worker_lost(cell, n);
    let _ = lane.recycle.try_push(batch);
    lane.consumed(n);
}

fn worker_run(w: usize, shared: &Shared, control: &Receiver<ControlMsg>, ctx: &mut WorkerCtx) {
    let hub = shared.hubs.of(w);
    let cell = shared.stats.worker(w);
    let close_ns = shared.metrics.histogram("live.window_close_ns");
    let queue_depth = shared.metrics.histogram("live.queue_depth");

    loop {
        // The doorbell sequence is read *before* scanning: anything rung
        // after this load is caught by the park condition below.
        let seq = hub.seq.load(Ordering::Acquire);
        let version = hub.version.load(Ordering::Acquire);
        if version != ctx.seen_version {
            ctx.lanes.append(&mut hub.incoming.lock().expect("incoming lanes"));
            ctx.seen_version = version;
        }
        // Chaos: a scripted panic fires at a clean batch boundary, so
        // recovery is lossless — it exercises the respawn and resume
        // machinery without corrupting window state.
        if !ctx.zombie {
            if let Some(&at) = ctx.pending_panics.first() {
                if ctx.state.processed >= at {
                    ctx.pending_panics.remove(0);
                    panic!("chaos: injected worker {w} panic at {at} records");
                }
            }
        }
        let mut progress = false;
        // Control bypass: drained every round, never behind record lanes.
        loop {
            match control.try_recv() {
                Ok(msg) => {
                    progress = true;
                    handle_control(w, &ctx.state, &ctx.lanes, msg);
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    ctx.control_dead = true;
                    break;
                }
            }
        }
        // Round-robin over lanes, a bounded burst from each.
        let mut i = 0;
        while i < ctx.lanes.len() {
            let mut taken = 0usize;
            let mut remove = false;
            loop {
                if taken == BATCHES_PER_LANE_ROUND {
                    break;
                }
                // closed must be read before the pop: closed + empty
                // means drained for good.
                let closed = ctx.lanes[i].data.is_closed();
                match ctx.lanes[i].data.try_pop() {
                    Some(batch) => {
                        if ctx.zombie {
                            discard_batch(&mut ctx.lanes[i], batch, cell);
                        } else {
                            ctx.inflight = Some((i, batch.len() as u64));
                            let lane = &mut ctx.lanes[i];
                            apply_batch(w, shared, &mut ctx.state, lane, batch, cell, &close_ns);
                            ctx.inflight = None;
                        }
                        progress = true;
                        taken += 1;
                    }
                    None => {
                        remove = closed;
                        break;
                    }
                }
            }
            if remove {
                ctx.lanes.swap_remove(i);
            } else {
                i += 1;
            }
        }
        if progress {
            let depth: usize = ctx.lanes.iter().map(|l| l.data.len()).sum();
            queue_depth.record(depth as u64);
            continue;
        }
        if ctx.control_dead
            && shared.draining.load(Ordering::Acquire)
            && ctx.lanes.is_empty()
            && hub.version.load(Ordering::Acquire) == ctx.seen_version
        {
            break;
        }
        hub.bell.wait_until(|| {
            hub.seq.load(Ordering::Acquire) != seq
                || hub.version.load(Ordering::Acquire) != ctx.seen_version
        });
    }

    // Drain: every lane closed and drained, control router gone. Flush
    // the remaining windows, then publish the final report.
    if !ctx.zombie {
        for cw in ctx.state.ring.force_close() {
            handle_close(shared, &mut ctx.state, cw, &close_ns);
        }
    }
    shared.report(ctx.state.snap(w, 0));
}

fn handle_control(w: usize, state: &WorkerState, lanes: &[LaneRx], msg: ControlMsg) {
    match msg {
        ControlMsg::Ping(reply) => {
            let _ = reply.send(());
        }
        ControlMsg::Snapshot(reply) => {
            let depth = lanes.iter().map(|l| l.data.len()).sum();
            let _ = reply.send(state.snap(w, depth));
        }
        ControlMsg::Cells(query, reply) => {
            let windows = state
                .closed
                .iter()
                .filter(|(window, _)| query.contains_window(**window))
                .map(|(_, rows)| Arc::clone(rows))
                .collect();
            let _ = reply.send(windows);
        }
    }
}

/// Apply one batch from `lane` into the window ring, then hand the
/// spent `Vec` back through the recycle ring and publish progress
/// (applied counter + lane doorbell) so a parked or syncing reader
/// resumes.
fn apply_batch(
    w: usize,
    shared: &Shared,
    state: &mut WorkerState,
    lane: &mut LaneRx,
    mut batch: Batch,
    cell: &StatCell,
    close_ns: &Histogram,
) {
    let token = shared.board.begin(w, state.processed as usize & 0xFFFF);
    let n = batch.len() as u64;
    let mut accepted = 0u64;
    for rec in batch.drain(..) {
        state.processed += 1;
        match state.ring.push(&rec) {
            Ok(closed) => {
                accepted += 1;
                for cw in closed {
                    handle_close(shared, state, cw, close_ns);
                }
            }
            Err(err) => reject(cell, &err),
        }
    }
    cell.accepted.fetch_add(accepted, Ordering::Relaxed);
    // Return the drained Vec for reuse; a full recycle ring just drops
    // it (the reader will allocate a fresh one).
    let _ = lane.recycle.try_push(batch);
    lane.consumed(n);
    shared.board.finish(w);
    let _ = token;
}

fn handle_close(shared: &Shared, state: &mut WorkerState, cw: ClosedWindow, close_ns: &Histogram) {
    close_ns.time(|| {
        // The detector packs the window; these rows are the one copy.
        let (rows, _) = state.detector.observe(&cw);
        state.windows_closed += 1;
        state.closed.insert(cw.index, rows);
    });
    // The 112-byte summaries are spent: free them before a spill runs.
    drop(cw);
    // Eviction (and spilling) runs outside the close timing: disk I/O
    // must never pollute the close-latency histogram. Spill-then-pop
    // order keeps the invariant that every closed window is in RAM or
    // on disk at all times — a query can at worst see both copies,
    // which the merge path deduplicates (they are bit-identical).
    //
    // Degraded mode: when the store is failing (or skipping while
    // degraded), windows stay in RAM past the retention horizon so no
    // data is dropped while the disk is sick. Retention is only allowed
    // to balloon to 8× before the oldest windows are shed (counted,
    // never silent) to bound memory.
    let retention = shared.config.retention_windows;
    while state.closed.len() > retention {
        let Some(store) = &shared.store else {
            state.closed.pop_first();
            continue;
        };
        let (_, rows) = state.closed.first_key_value().expect("non-empty map");
        match store.spill(rows) {
            Ok(SpillOutcome::Spilled) => {
                state.closed.pop_first();
            }
            _ => {
                if state.closed.len() > retention.saturating_mul(8) {
                    state.closed.pop_first();
                    shared.metrics.counter("store.windows_shed").inc();
                } else {
                    // Keep the window in RAM; the next close retries
                    // (or probes, if degraded).
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{Conns, Hubs, Router, Sessions, Stats};
    use super::*;
    use crate::record::LiveRecord;
    use edgeperf_analysis::{GroupKey, StreamingCell};
    use edgeperf_obs::{HeartbeatBoard, Metrics};
    use edgeperf_routing::{PopId, Prefix, Relationship};
    use std::sync::atomic::AtomicBool;
    use std::sync::{Condvar, Mutex};

    fn group() -> GroupKey {
        GroupKey { pop: PopId(0), prefix: Prefix::new(0x0A00_0000, 16), country: 0, continent: 0 }
    }

    /// One group's closed window: 60 sessions around `rtt_ms`.
    fn window(index: u32, rtt_ms: f64) -> ClosedWindow {
        let mut cell = StreamingCell::new(Relationship::PrivatePeer);
        for i in 0..60 {
            let jitter = (f64::from(i) - 30.0) * 0.05;
            cell.push(rtt_ms + jitter, Some(0.95 + jitter / 100.0), 100, false, false);
        }
        cell.agg.flush();
        ClosedWindow { index, cells: vec![((group(), 0), cell.summary())] }
    }

    /// Six steady windows then a latency spike: one MinRTT event, which
    /// opens an episode.
    fn close_a_spike(shared: &Shared, state: &mut WorkerState, from: u32) {
        let close_ns = Histogram::default();
        for w in from..from + 6 {
            handle_close(shared, state, window(w, 40.0), &close_ns);
        }
        handle_close(shared, state, window(from + 6, 70.0), &close_ns);
    }

    /// One worker's shared state, store-less, at the default geometry.
    fn shared() -> Shared {
        Shared {
            config: LiveConfig { workers: 1, ..LiveConfig::default() },
            bound_addr: ([127, 0, 0, 1], 0).into(),
            metrics: Metrics::enabled(),
            board: HeartbeatBoard::new(1),
            draining: AtomicBool::new(false),
            supervisor_stop: AtomicBool::new(false),
            store: None,
            hubs: Hubs::new(1),
            router: Router::default(),
            stats: Stats::new(1),
            conns: Conns::default(),
            resume: Sessions::new(),
            reports: Mutex::default(),
            reports_ready: Condvar::new(),
            final_snapshot: Mutex::default(),
        }
    }

    /// A session of `window()`'s group at `ts_ms`.
    fn record(ts_ms: f64, rtt_ms: f64) -> LiveRecord {
        LiveRecord {
            ts_ms,
            group: group(),
            route_rank: 0,
            relationship: Relationship::PrivatePeer,
            longer_path: false,
            more_prepended: false,
            min_rtt_ms: rtt_ms,
            hdratio: Some(0.9),
            bytes: 100,
        }
    }

    /// Push `records` through the ring as `apply_batch` does, closing
    /// whatever they close.
    fn apply(shared: &Shared, state: &mut WorkerState, records: &[LiveRecord]) {
        let close_ns = Histogram::default();
        for rec in records {
            for cw in state.ring.push(rec).expect("an accepted record") {
                handle_close(shared, state, cw, &close_ns);
            }
        }
    }

    /// The detector packs a closed window and the worker retains those
    /// same rows: one allocation, two owners.
    #[test]
    fn a_closed_window_is_one_copy() {
        let shared = shared();
        let mut ctx = WorkerCtx::new(&shared.config, 0);
        close_a_spike(&shared, &mut ctx.state, 0);
        let newest = ctx.state.detector.newest_window().expect("a window observed");
        assert!(Arc::ptr_eq(newest, &ctx.state.closed[&6]));
        assert_eq!(Arc::strong_count(newest), 2);
    }

    /// A dirty panic drops the open windows but keeps the watermark: a
    /// record for a window closed before the panic is a `late` reject, so
    /// the window is never reopened and its retained rows stay as they
    /// were. (A ring rebuilt from scratch took the record, re-closed a
    /// partial window 0 over the retained one, and a detector series then
    /// saw an index older than its start.)
    #[test]
    fn a_dirty_panic_keeps_the_watermark() {
        let shared = shared();
        let mut ctx = WorkerCtx::new(&shared.config, 0);
        let (window_ms, lateness_ms) = (shared.config.window_ms, shared.config.lateness_ms);
        let mut first: Vec<LiveRecord> =
            (0..40).map(|i| record(f64::from(i) * 1_000.0, 40.0)).collect();
        // Past window 0's end by the lateness: window 0 closes, 1 opens.
        first.push(record(window_ms + lateness_ms, 41.0));
        apply(&shared, &mut ctx.state, &first);
        let kept = Arc::clone(&ctx.state.closed[&0]);
        assert_eq!((kept.len(), kept[0].n), (1, 40));
        assert_eq!(ctx.state.ring.open_windows(), 1);

        ctx.inflight = Some((0, 1));
        recover(0, &shared, &mut ctx);
        assert_eq!(ctx.state.ring.open_windows(), 0, "window 1's half batch is gone");
        let late = ctx.state.ring.push(&record(5_000.0, 40.0)).expect_err("window 0 is closed");
        assert_eq!(late.reason(), "late");

        // Windows 1 and 2 close after the panic; window 0 is the same rows.
        let after = [1.1, 2.0, 3.0].map(|w| record(w * window_ms + lateness_ms, 42.0));
        apply(&shared, &mut ctx.state, &after);
        assert_eq!(ctx.state.closed.keys().copied().collect::<Vec<_>>(), [0, 1, 2]);
        assert!(Arc::ptr_eq(&ctx.state.closed[&0], &kept));
    }

    /// A dirty panic drops the open windows and the detector's groups;
    /// what the detector had counted stays counted, so the worker's events and episodes only
    /// grow, and the batch the panic took is a `worker_lost` reject.
    #[test]
    fn recover_keeps_what_the_detector_counted() {
        let shared = shared();
        let mut ctx = WorkerCtx::new(&shared.config, 0);
        close_a_spike(&shared, &mut ctx.state, 0);
        let before = ctx.state.snap(0, 0);
        assert_eq!((before.events, before.episodes_opened, before.episodes_open), ([1, 0], 1, 1));

        ctx.inflight = Some((0, 5));
        recover(0, &shared, &mut ctx);
        assert_eq!(ctx.inflight, None);
        let after = ctx.state.snap(0, 0);
        assert_eq!(after.line.groups, 0, "the detector forgot its groups");
        assert_eq!((after.events, after.episodes_opened, after.episodes_open), ([1, 0], 1, 0));
        let snap = shared.stats.snapshot_from(&[after], false);
        assert_eq!((snap.rejected, snap.reject_reasons.len()), (5, 1));
        assert_eq!(snap.reject_reasons[0].reason, "worker_lost");

        // Counting resumes from those totals.
        close_a_spike(&shared, &mut ctx.state, 7);
        let later = ctx.state.snap(0, 0);
        assert_eq!((later.events, later.episodes_opened, later.episodes_open), ([2, 0], 2, 1));
        assert_eq!(later.line.windows_closed, 14);
    }

    /// Past its respawn budget a worker is a zombie: its shard's records
    /// are counted `worker_lost` rejects, the other shard is untouched,
    /// and the server still answers and drains with every record counted.
    #[test]
    fn a_worker_past_its_respawn_budget_rejects_its_shard_as_worker_lost() {
        use crate::{shard_of, ChaosPlan, LiveClient, LiveServer};
        use edgeperf_core::EdgeperfError;
        // A record line names its group's /24: `{7}`.
        fn keyed(subnet: u32) -> LiveRecord {
            let group =
                GroupKey { prefix: Prefix::new(0x0A00_0000 + (subnet << 8), 24), ..group() };
            LiveRecord { group, ..record(1_000.0, 40.0) }
        }
        let parser = |line: &str| {
            let subnet = line
                .trim_matches(['{', '}'])
                .parse()
                .map_err(|_| EdgeperfError::UnknownDuration)?;
            Ok(keyed(subnet))
        };
        let on =
            |shard| (0u32..).find(|s| shard_of(&keyed(*s).group, 2) == shard).expect("a subnet");
        let (lost, kept) = (format!("{{{}}}", on(0)), format!("{{{}}}", on(1)));
        let plan = vec!["panic:0@1"; MAX_WORKER_RESPAWNS as usize + 1].join(";");
        let chaos = ChaosPlan::parse(&plan).expect("plan parses");
        let metrics = Metrics::enabled();
        let config = LiveConfig { workers: 2, chaos, ..LiveConfig::default() };
        let server = LiveServer::start(config, Arc::new(parser), metrics.clone()).expect("starts");
        let mut client = LiveClient::connect(server.addr()).expect("connects");

        // Worker 0 applies one record, then panics once more than its
        // budget, all before it answers the next control message.
        client.send_line(&lost).expect("send");
        assert_eq!(client.snapshot().expect("snapshot").accepted, 1);
        let counters = metrics.snapshot().counters;
        assert_eq!((counters["worker.zombie"], counters["worker.recovered"]), (1, 9));

        for _ in 0..10 {
            client.send_line(&lost).expect("send");
            client.send_line(&kept).expect("send");
        }
        let snap = client.snapshot().expect("a zombie still answers");
        assert_eq!((snap.accepted, snap.rejected), (11, 10));
        let reasons: Vec<_> =
            snap.reject_reasons.iter().map(|r| (r.reason.as_str(), r.count)).collect();
        assert_eq!(reasons, [("worker_lost", 10)]);
        let last = client.shutdown().expect("a zombie drains");
        assert!(last.drained);
        assert_eq!(last.accepted + last.rejected, 21);
        let _ = server.join();
    }
}
