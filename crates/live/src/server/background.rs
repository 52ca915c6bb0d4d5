//! The two background threads: the compactor folding spilled segments,
//! and the supervisor watching worker heartbeats. Both stop on
//! `Shared::supervisor_stop`.

use super::Shared;
use crate::store::SegmentStore;
use std::sync::atomic::Ordering;
use std::time::Duration;

/// Background compactor: folds small spilled segments into larger
/// time-sorted ones whenever the store crosses its segment threshold.
/// Each merge is one atomic manifest swap, so queries racing a
/// compaction see either the small segments or the merged one — never
/// both, never neither.
pub(super) fn compactor_loop(shared: &Shared, store: &SegmentStore) {
    let errors = shared.metrics.counter("store.compact_errors");
    let tick = Duration::from_millis(50);
    while !shared.supervisor_stop.load(Ordering::Acquire) {
        if !store.needs_compaction() {
            std::thread::sleep(tick);
            continue;
        }
        match store.compact_once() {
            Ok(true) => {}
            Ok(false) => std::thread::sleep(tick),
            Err(_) => {
                errors.inc();
                std::thread::sleep(tick);
            }
        }
    }
}

pub(super) fn supervisor_loop(shared: &Shared) {
    let deadline = Duration::from_millis(shared.config.slow_worker_ms);
    let tick = Duration::from_millis((shared.config.slow_worker_ms / 4).clamp(10, 500));
    let slow_gauge = shared.metrics.gauge("live.workers.slow");
    let slow_marks = shared.metrics.counter("live.workers.slow_marks");
    let mut last_slow = 0usize;
    while !shared.supervisor_stop.load(Ordering::Acquire) {
        let slow = shared.board.overdue(deadline).len();
        slow_gauge.set(slow as f64);
        if slow > last_slow {
            slow_marks.add((slow - last_slow) as u64);
        }
        last_slow = slow;
        std::thread::sleep(tick);
    }
    slow_gauge.set(0.0);
}
