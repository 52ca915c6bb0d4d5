//! The record lanes between readers and workers; owns `Shared::hubs`.
//!
//! Each connection owns one [`crate::queue::spsc`] lane per worker: a
//! bounded single-producer/single-consumer batch ring paired with a
//! reverse ring that carries spent batch `Vec`s back to the reader, so
//! steady-state ingest takes no locks and performs zero allocations per
//! batch. When a lane fills, the reader spins briefly then parks until
//! the worker frees a slot — the PR-5 "block, never drop" backpressure
//! semantics, without the `sync_channel` lock hand-off that made worker
//! counts *anti*-scale (see the `queue.rs` docs).

use super::stats::{count_worker_lost, StatCell};
use super::Shared;
use crate::queue::{spsc, Consumer, Producer, Waiter};
use crate::record::LiveRecord;
use edgeperf_analysis::{FxHasher, GroupKey};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A coalesced run of parsed records — the unit carried by data lanes
/// and recycled back through the reverse ring.
pub(super) type Batch = Vec<LiveRecord>;

/// Records a reader coalesces per worker before pushing a batch onto the
/// lane. [`crate::LiveConfig::queue_capacity`] is counted in records and
/// converted to `queue_capacity / RECORD_BATCH` ring slots, so worst-case
/// queued records per lane stays ≈ `queue_capacity`.
const RECORD_BATCH: usize = 64;

/// Worker-side rendezvous: new lanes arrive through `incoming`
/// (versioned so the worker only takes the lock when something
/// changed), and `bell`/`seq` are the doorbell producers ring after
/// pushing work.
#[derive(Default)]
pub(super) struct WorkerHub {
    pub(super) bell: Waiter,
    /// Bumped on every doorbell ring; the worker parks until it moves.
    pub(super) seq: AtomicU64,
    /// Bumped when `incoming` gains lanes.
    pub(super) version: AtomicU64,
    pub(super) incoming: Mutex<Vec<LaneRx>>,
}

impl WorkerHub {
    /// Publish progress (a pushed batch, a closed lane, a control
    /// message) and wake the worker if it is parked.
    pub(super) fn ring(&self) {
        self.seq.fetch_add(1, Ordering::Release);
        self.bell.notify();
    }
}

/// One [`WorkerHub`] per worker, by worker index.
pub(super) struct Hubs(Vec<Arc<WorkerHub>>);

impl Hubs {
    pub(super) fn new(workers: usize) -> Hubs {
        Hubs((0..workers).map(|_| Arc::default()).collect())
    }

    /// Worker `w`'s hub.
    pub(super) fn of(&self, w: usize) -> &WorkerHub {
        &self.0[w]
    }

    /// Wake every worker: lanes opened or closed, or the drain began.
    pub(super) fn ring_all(&self) {
        for hub in &self.0 {
            hub.ring();
        }
    }
}

/// Reader-side end of one (reader, worker) lane.
struct LaneTx {
    data: Producer<Batch>,
    /// Spent batch `Vec`s coming back from the worker.
    recycle: Consumer<Batch>,
    /// Parked-producer doorbell; the worker rings it after freeing a
    /// slot or applying a batch.
    bell: Arc<Waiter>,
    /// Records the worker has fully applied from this lane.
    applied: Arc<AtomicU64>,
    hub: Arc<WorkerHub>,
    /// Records pushed onto the lane so far (`applied` chases this).
    pushed: u64,
    /// The partial batch being coalesced.
    batch: Batch,
}

impl LaneTx {
    /// Push the coalesced batch, blocking (spin-then-park) while the
    /// ring is full — backpressure, never drops. Steady state this is a
    /// recycle pop, a slot write, and one release store. Records that
    /// can NOT be delivered because the worker abandoned the lane for
    /// good are counted into `cell` as `worker_lost` rejects, never lost
    /// silently.
    fn flush(&mut self, cell: &StatCell) {
        if self.batch.is_empty() {
            return;
        }
        let next = match self.recycle.try_pop() {
            Some(mut spent) => {
                spent.clear();
                spent
            }
            None => Vec::with_capacity(RECORD_BATCH),
        };
        let mut batch = std::mem::replace(&mut self.batch, next);
        self.pushed += batch.len() as u64;
        loop {
            if self.data.is_abandoned() {
                // Worker gone for good; nothing will ever drain the
                // lane. Count the loss so totals still add up.
                return count_worker_lost(cell, batch.len() as u64);
            }
            match self.data.try_push(batch) {
                Ok(()) => break,
                Err(back) => {
                    batch = back;
                    self.bell.wait_until(|| self.data.has_space() || self.data.is_abandoned());
                }
            }
        }
        self.hub.ring();
    }
}

/// Worker-side end of one (reader, worker) lane.
pub(super) struct LaneRx {
    pub(super) data: Consumer<Batch>,
    pub(super) recycle: Producer<Batch>,
    bell: Arc<Waiter>,
    applied: Arc<AtomicU64>,
}

impl LaneRx {
    /// Publish `n` more records as consumed (applied or accounted lost),
    /// so a parked or syncing reader resumes.
    pub(super) fn consumed(&self, n: u64) {
        self.applied.fetch_add(n, Ordering::Release);
        self.bell.notify();
    }
}

/// Everything a reader owns: one lane per worker plus its stat cell.
#[derive(Default)]
pub(super) struct ReaderLanes {
    lanes: Vec<LaneTx>,
    pub(super) cell: Arc<StatCell>,
}

impl ReaderLanes {
    /// Shard a record to its worker's lane, flushing at the batch size.
    pub(super) fn route(&mut self, rec: LiveRecord) {
        let w = shard_of(&rec.group, self.lanes.len());
        let lane = &mut self.lanes[w];
        lane.batch.push(rec);
        if lane.batch.len() >= RECORD_BATCH {
            lane.flush(&self.cell);
        }
    }

    /// Hand workers every partial batch (called before blocking on the
    /// socket, so a quiet connection never strands records).
    pub(super) fn flush_all(&mut self) {
        for lane in &mut self.lanes {
            lane.flush(&self.cell);
        }
    }

    /// Flush, then wait until the workers have applied everything this
    /// connection pushed — the "commands observe everything this
    /// connection sent before them" barrier.
    pub(super) fn sync(&mut self) {
        self.flush_all();
        for lane in &self.lanes {
            if lane.applied.load(Ordering::Acquire) >= lane.pushed {
                continue;
            }
            lane.bell.wait_until(|| {
                lane.applied.load(Ordering::Acquire) >= lane.pushed || lane.data.is_abandoned()
            });
        }
    }

    /// Reader is done: flush stragglers, fold the stat cell into the
    /// retired totals, and only then close the lanes. Workers treat a
    /// closed, drained lane as gone, and may exit once all lanes are —
    /// the fold-before-close order is what makes the final snapshot
    /// exact.
    pub(super) fn retire(mut self, shared: &Shared) {
        self.flush_all();
        shared.stats.reader_retired(&self.cell);
        self.lanes.clear();
        shared.hubs.ring_all();
    }
}

/// Deterministic group → worker shard (same FxHash as the offline
/// sinks). Public so the bench crate's per-stage profile can time the
/// real routing function.
pub fn shard_of(group: &GroupKey, workers: usize) -> usize {
    let mut h = FxHasher::default();
    group.hash(&mut h);
    (h.finish() as usize) % workers
}

/// Open one lane per worker for a new connection, plus its stat cell.
/// `None` once the server is draining: the control router is closed, and
/// holding it open for the length of the registration is what keeps a
/// drain from missing a lane.
pub(super) fn register_reader(shared: &Shared) -> Option<ReaderLanes> {
    let batch_slots = shared.config.queue_capacity.div_ceil(RECORD_BATCH).max(1);
    let reader = shared.router.while_open(|| {
        let mut lanes = Vec::with_capacity(shared.hubs.0.len());
        for hub in &shared.hubs.0 {
            let (data_tx, data_rx) = spsc::<Batch>(batch_slots);
            // +2 so a worker returning a spent Vec while the reader holds
            // one in flight still finds a slot in the common case; overflow
            // just drops the Vec (allocation, not correctness).
            let (recycle_tx, recycle_rx) = spsc::<Batch>(batch_slots + 2);
            let bell = Arc::new(Waiter::default());
            let applied = Arc::new(AtomicU64::new(0));
            hub.incoming.lock().expect("incoming lanes").push(LaneRx {
                data: data_rx,
                recycle: recycle_tx,
                bell: Arc::clone(&bell),
                applied: Arc::clone(&applied),
            });
            hub.version.fetch_add(1, Ordering::Release);
            lanes.push(LaneTx {
                data: data_tx,
                recycle: recycle_rx,
                bell,
                applied,
                hub: Arc::clone(hub),
                pushed: 0,
                batch: Vec::with_capacity(RECORD_BATCH),
            });
        }
        ReaderLanes { lanes, cell: shared.stats.reader_joined() }
    })?;
    shared.hubs.ring_all();
    Some(reader)
}
