//! Accept/reject accounting; owns `Shared::stats`.
//!
//! Accept/reject tallies are sharded into per-reader and per-worker
//! cells (relaxed atomic counters plus a rarely-touched reason map) and
//! rolled up only when a snapshot is taken. A reader folds its cell into
//! a retired-total *before* closing its lanes, and workers exit only
//! after every lane is closed and drained — so the final drained
//! snapshot is exact, not approximate. These cells, the workers' state
//! and the store's `StoreStats` are the one tally of what the server
//! reports; the metrics registry only mirrors them, through [`publish`].

use super::Shared;
use crate::protocol::{ClassCount, LiveSnapshot, ReasonCount, WorkerStatsLine};
use edgeperf_analysis::TemporalClass;
use edgeperf_core::EdgeperfError;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Point-in-time view of one worker, produced on request or at drain:
/// its row of the `stats` reply plus what only `snapshot` sums.
#[derive(Debug, Clone, Default)]
pub(super) struct WorkerSnap {
    pub(super) line: WorkerStatsLine,
    pub(super) events: [u64; 2],
    pub(super) episodes_opened: u64,
    pub(super) episodes_open: u64,
    /// Groups per MinRTT temporal class, in the enum's (= the paper's
    /// tables') order.
    pub(super) classes_minrtt: BTreeMap<TemporalClass, u64>,
}

/// One shard of the accept/reject accounting, touched only by the
/// reader or worker that owns it until a snapshot reads it.
#[derive(Default)]
pub(super) struct StatCell {
    pub(super) accepted: AtomicU64,
    /// Reason → count, the one reject tally: `rejected` is its sum and
    /// `late` its `late` entry. A mutex, but per-cell and only on the
    /// reject path, which is rare by construction.
    pub(super) reasons: Mutex<BTreeMap<&'static str, u64>>,
}

/// Rolled-up accept/reject totals (also the retirement accumulator for
/// readers that have come and gone).
#[derive(Default, Clone)]
pub(super) struct StatTotals {
    pub(super) accepted: u64,
    pub(super) reasons: BTreeMap<&'static str, u64>,
}

impl StatTotals {
    pub(super) fn add_cell(&mut self, cell: &StatCell) {
        self.accepted += cell.accepted.load(Ordering::Relaxed);
        for (reason, n) in cell.reasons.lock().expect("reason map").iter() {
            *self.reasons.entry(reason).or_insert(0) += n;
        }
    }
}

/// Live reader cells plus the folded totals of retired ones.
#[derive(Default)]
struct ReaderStats {
    active: Vec<Arc<StatCell>>,
    retired: StatTotals,
}

/// Every stat cell of the server: one per worker (accepts, late
/// rejects, lost records) and one per connected reader.
pub(super) struct Stats {
    workers: Vec<StatCell>,
    readers: Mutex<ReaderStats>,
}

impl Stats {
    pub(super) fn new(workers: usize) -> Stats {
        Stats {
            workers: (0..workers).map(|_| StatCell::default()).collect(),
            readers: Mutex::default(),
        }
    }

    /// Worker `w`'s cell.
    pub(super) fn worker(&self, w: usize) -> &StatCell {
        &self.workers[w]
    }

    /// A cell for a newly connected reader.
    pub(super) fn reader_joined(&self) -> Arc<StatCell> {
        let cell = Arc::new(StatCell::default());
        self.readers.lock().expect("reader stats").active.push(Arc::clone(&cell));
        cell
    }

    /// Fold a departing reader's cell into the retired totals.
    pub(super) fn reader_retired(&self, cell: &Arc<StatCell>) {
        let mut readers = self.readers.lock().expect("reader stats");
        readers.active.retain(|c| !Arc::ptr_eq(c, cell));
        readers.retired.add_cell(cell);
    }

    /// Roll the cells up into totals. Exact for any quiescent cell (its
    /// owner stopped counting); a snapshot during traffic is as
    /// approximate as any read of moving counters.
    pub(super) fn totals(&self) -> StatTotals {
        let readers = self.readers.lock().expect("reader stats");
        let mut totals = readers.retired.clone();
        for cell in self.workers.iter().chain(readers.active.iter().map(Arc::as_ref)) {
            totals.add_cell(cell);
        }
        totals
    }

    /// The server-wide snapshot: these totals plus every worker's view.
    pub(super) fn snapshot_from(&self, per_worker: &[WorkerSnap], drained: bool) -> LiveSnapshot {
        let totals = self.totals();
        let mut snap = LiveSnapshot {
            drained,
            workers: self.workers.len() as u64,
            accepted: totals.accepted,
            rejected: totals.reasons.values().sum(),
            late: totals.reasons.get("late").copied().unwrap_or(0),
            ..LiveSnapshot::default()
        };
        let mut classes = BTreeMap::new();
        for w in per_worker {
            snap.groups += w.line.groups;
            snap.windows_closed += w.line.windows_closed;
            snap.open_windows += w.line.open_windows;
            snap.events_minrtt += w.events[0];
            snap.events_hdratio += w.events[1];
            snap.episodes_opened += w.episodes_opened;
            snap.episodes_open += w.episodes_open;
            for (class, n) in &w.classes_minrtt {
                *classes.entry(*class).or_insert(0) += n;
            }
        }
        snap.reject_reasons = totals
            .reasons
            .iter()
            .map(|(reason, count)| ReasonCount { reason: reason.to_string(), count: *count })
            .collect();
        snap.classes_minrtt = classes
            .into_iter()
            .map(|(class, groups)| ClassCount { class: class.label().to_string(), groups })
            .collect();
        snap
    }
}

/// Count a reject into `cell` (the caller's shard).
pub(super) fn reject(cell: &StatCell, err: &EdgeperfError) {
    *cell.reasons.lock().expect("reason map").entry(err.reason()).or_insert(0) += 1;
}

/// Count `dropped` records as `worker_lost` rejects in `cell`: a lane
/// abandoned by its worker, or a batch a panic took with it — neither
/// applied nor late, and never silently gone.
pub(super) fn count_worker_lost(cell: &StatCell, dropped: u64) {
    *cell.reasons.lock().expect("reason map").entry("worker_lost").or_insert(0) += dropped;
}

/// Copy the account into `shared.metrics` under the names `metrics` has
/// always served, whenever the registry is about to be read: the
/// `metrics` verb, the drain and `ServerHandle::join`. `per_worker` are
/// the workers' views, empty when they cannot be asked. A counter is
/// raised to its total, never lowered — every total here only grows —
/// so a missing view leaves its counters where they were.
pub(super) fn publish(shared: &Shared, per_worker: &[WorkerSnap]) {
    let metrics = &shared.metrics;
    let raise = |name: &str, total| metrics.counter(name).raise_to(total);
    let snap = shared.stats.snapshot_from(per_worker, false);
    raise("live.accepted", snap.accepted);
    for ReasonCount { reason, count } in &snap.reject_reasons {
        raise(&format!("ingest.reject.{reason}"), *count);
        if reason == "worker_lost" {
            raise("worker.lost_records", *count);
        }
    }
    let active = shared.stats.readers.lock().expect("reader stats").active.len();
    metrics.gauge("live.readers.active").set(active as f64);
    raise("live.windows.closed", snap.windows_closed);
    raise("live.events.minrtt", snap.events_minrtt);
    raise("live.events.hdratio", snap.events_hdratio);
    raise("live.episodes.opened", snap.episodes_opened);
    // An episode still open when a dirty panic made the detector forget
    // its groups ended there: it counts as closed.
    raise("live.episodes.closed", snap.episodes_opened - snap.episodes_open);
    for WorkerSnap { line, .. } in per_worker {
        let gauge = |what: &str| metrics.gauge(&format!("live.worker.{}.{what}", line.worker));
        gauge("queue_depth").set(line.queue_depth as f64);
        gauge("processed").set(line.processed as f64);
    }
    if let Some(store) = &shared.store {
        let stats = store.stats();
        raise("store.compactions", stats.compactions);
        if stats.spill_errors > 0 {
            raise("store.spill_errors", stats.spill_errors);
        }
        // Shown from the first spill attempt on.
        if stats.spilled_windows + stats.spill_errors > 0 {
            metrics.gauge("store.degraded").set(f64::from(u8::from(stats.degraded)));
        }
        // What historical queries cost, without a `store` round trip.
        for (name, total) in [
            ("store.query_groups_read", stats.query_groups_read),
            ("store.query_bytes_read", stats.query_bytes_read),
            ("store.query_rows_examined", stats.query_rows_examined),
            ("store.query_rows_returned", stats.query_rows_returned),
        ] {
            metrics.gauge(name).set(total as f64);
        }
    }
}
