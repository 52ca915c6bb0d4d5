//! Shared-memory heartbeats for worker liveness.
//!
//! The study supervisor needs to answer two questions about every worker
//! without ever blocking it: *what is it working on, and for how long?*
//! and it needs one lever: *abandon that unit of work*. A
//! [`HeartbeatBoard`] holds one lock-free slot per worker:
//!
//! - the worker stamps the slot on [`begin`]/[`finish`] (two relaxed
//!   stores each — nanoseconds, safe inside a hot loop);
//! - the supervisor polls [`active`] to find tasks past their deadline;
//! - cancellation is a token compare: [`request_cancel`] arms the slot
//!   for one specific task *generation*, so a cancel aimed at a slow
//!   prefix can never leak into the next prefix the worker picks up —
//!   even if the two race.
//!
//! Timestamps are microseconds since the board's creation, kept in a
//! `u64` so the whole slot is plain atomics (no locks anywhere on the
//! worker side).
//!
//! [`begin`]: HeartbeatBoard::begin
//! [`finish`]: HeartbeatBoard::finish
//! [`active`]: HeartbeatBoard::active
//! [`request_cancel`]: HeartbeatBoard::request_cancel

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Packed task word: generation in the high 32 bits, `prefix + 1` in the
/// low 32 (0 = idle). Generations are per-worker and only need to
/// disambiguate *adjacent* tasks, so 32 bits never wrap in practice.
const IDLE: u64 = 0;

fn pack(generation: u32, prefix: usize) -> u64 {
    ((generation as u64) << 32) | ((prefix as u64 + 1) & 0xFFFF_FFFF)
}

struct Slot {
    /// Current packed task, or [`IDLE`].
    task: AtomicU64,
    /// Microseconds since board epoch when the current task began.
    started_us: AtomicU64,
    /// Packed task the supervisor wants abandoned (armed until the
    /// worker begins a new task).
    cancel: AtomicU64,
    /// Monotonic per-worker generation counter.
    generation: AtomicU64,
}

/// A task observed in flight by [`HeartbeatBoard::active`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActiveTask {
    /// Worker slot index.
    pub worker: usize,
    /// The prefix index the worker reported via [`HeartbeatBoard::begin`].
    pub prefix: usize,
    /// Opaque cancellation token for this (worker, task) instance.
    pub token: u64,
    /// Microseconds the task has been running at scan time.
    pub elapsed_us: u64,
}

/// One liveness slot per worker; see the module docs.
pub struct HeartbeatBoard {
    epoch: Instant,
    slots: Vec<Slot>,
}

impl HeartbeatBoard {
    /// A board with `workers` slots, all idle.
    pub fn new(workers: usize) -> Self {
        HeartbeatBoard {
            epoch: Instant::now(),
            slots: (0..workers)
                .map(|_| Slot {
                    task: AtomicU64::new(IDLE),
                    started_us: AtomicU64::new(0),
                    cancel: AtomicU64::new(IDLE),
                    generation: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    /// Worker `w` starts working on `prefix`. Returns the cancellation
    /// token identifying this task instance; pass it to [`cancelled`]
    /// from the work loop.
    ///
    /// Beginning a task disarms any stale cancel aimed at a *previous*
    /// task on this slot.
    ///
    /// [`cancelled`]: HeartbeatBoard::cancelled
    pub fn begin(&self, w: usize, prefix: usize) -> u64 {
        let slot = &self.slots[w];
        let generation = slot.generation.fetch_add(1, Ordering::Relaxed) as u32;
        let token = pack(generation, prefix);
        slot.started_us.store(self.now_us(), Ordering::Relaxed);
        slot.task.store(token, Ordering::Release);
        token
    }

    /// Worker `w` finished (or abandoned) its current task.
    pub fn finish(&self, w: usize) {
        self.slots[w].task.store(IDLE, Ordering::Release);
    }

    /// Has the supervisor asked worker `w` to abandon the task identified
    /// by `token`? Cheap enough to poll from an inner loop.
    pub fn cancelled(&self, w: usize, token: u64) -> bool {
        self.slots[w].cancel.load(Ordering::Acquire) == token
    }

    /// Ask worker `w` to abandon the task identified by `token`.
    ///
    /// A no-op if the worker has already moved on: the token encodes the
    /// task generation, and [`cancelled`] compares exactly.
    ///
    /// [`cancelled`]: HeartbeatBoard::cancelled
    pub fn request_cancel(&self, w: usize, token: u64) {
        self.slots[w].cancel.store(token, Ordering::Release);
    }

    /// Snapshot every in-flight task with its elapsed wall-clock time.
    pub fn active(&self) -> Vec<ActiveTask> {
        let now = self.now_us();
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(worker, slot)| {
                let task = slot.task.load(Ordering::Acquire);
                if task == IDLE {
                    return None;
                }
                let started = slot.started_us.load(Ordering::Relaxed);
                Some(ActiveTask {
                    worker,
                    prefix: ((task & 0xFFFF_FFFF) - 1) as usize,
                    token: task,
                    elapsed_us: now.saturating_sub(started),
                })
            })
            .collect()
    }

    /// Tasks running longer than `deadline` at scan time.
    pub fn overdue(&self, deadline: Duration) -> Vec<ActiveTask> {
        let limit = deadline.as_micros() as u64;
        self.active().into_iter().filter(|t| t.elapsed_us > limit).collect()
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn begin_finish_tracks_active_tasks() {
        let board = HeartbeatBoard::new(2);
        assert!(board.active().is_empty());
        let t0 = board.begin(0, 17);
        let active = board.active();
        assert_eq!(active.len(), 1);
        assert_eq!(active[0].worker, 0);
        assert_eq!(active[0].prefix, 17);
        assert_eq!(active[0].token, t0);
        board.begin(1, 3);
        assert_eq!(board.active().len(), 2);
        board.finish(0);
        let active = board.active();
        assert_eq!(active.len(), 1);
        assert_eq!(active[0].prefix, 3);
    }

    #[test]
    fn cancel_targets_one_generation_only() {
        let board = HeartbeatBoard::new(1);
        let t0 = board.begin(0, 5);
        assert!(!board.cancelled(0, t0));
        board.request_cancel(0, t0);
        assert!(board.cancelled(0, t0));
        board.finish(0);
        // The next task on the same worker — even the same prefix — must
        // not observe the stale cancel.
        let t1 = board.begin(0, 5);
        assert_ne!(t0, t1);
        assert!(!board.cancelled(0, t1));
    }

    #[test]
    fn overdue_respects_deadline() {
        let board = HeartbeatBoard::new(1);
        board.begin(0, 0);
        assert!(board.overdue(Duration::from_secs(3600)).is_empty());
        std::thread::sleep(Duration::from_millis(5));
        let overdue = board.overdue(Duration::from_micros(1));
        assert_eq!(overdue.len(), 1);
        assert!(overdue[0].elapsed_us >= 5_000);
    }

    #[test]
    fn tokens_distinguish_workers_and_prefixes() {
        let board = HeartbeatBoard::new(2);
        let a = board.begin(0, 1);
        let b = board.begin(1, 1);
        // Same generation+prefix on different workers packs identically;
        // the (worker, token) pair is what identifies a task.
        assert_eq!(a, b);
        board.request_cancel(0, a);
        assert!(board.cancelled(0, a));
        assert!(!board.cancelled(1, b));
    }
}
