//! A deterministic event queue.
//!
//! Events are `(time, payload)` pairs; pops are ordered by time with a
//! monotone sequence number breaking ties, so two events scheduled for the
//! same instant dequeue in scheduling order. This makes simulation runs
//! bit-for-bit reproducible regardless of payload type.

use edgeperf_tcp::Nanos;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Min-heap event queue over an arbitrary payload type.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
    now: Nanos,
}

#[derive(Debug)]
struct Entry<E> {
    key: Reverse<(Nanos, u64)>,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Empty queue at time 0.
    pub fn new() -> Self {
        EventQueue { heap: BinaryHeap::new(), seq: 0, now: 0 }
    }

    /// Current virtual time: the timestamp of the last popped event.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Schedule `payload` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is before the current time (time travel).
    pub(crate) fn schedule(&mut self, at: Nanos, payload: E) {
        assert!(at >= self.now, "scheduling into the past: {at} < {}", self.now);
        self.seq += 1;
        self.heap.push(Entry { key: Reverse((at, self.seq)), payload });
    }

    /// Pop the earliest event, advancing virtual time to it.
    pub fn pop(&mut self) -> Option<(Nanos, E)> {
        self.heap.pop().map(|e| {
            let (t, _) = e.key.0;
            self.now = t;
            (t, e.payload)
        })
    }

    /// Timestamp of the next event without popping it.
    pub(crate) fn peek_time(&self) -> Option<Nanos> {
        self.heap.peek().map(|e| e.key.0 .0)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(30, "c");
        q.schedule(10, "a");
        q.schedule(20, "b");
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop(), Some((20, "b")));
        assert_eq!(q.pop(), Some((30, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        q.schedule(5, 1);
        q.schedule(5, 2);
        q.schedule(5, 3);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    #[test]
    fn now_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(100, ());
        assert_eq!(q.now(), 0);
        q.pop();
        assert_eq!(q.now(), 100);
    }

    #[test]
    #[should_panic]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(100, ());
        q.pop();
        q.schedule(50, ());
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.schedule(7, ());
        assert_eq!(q.peek_time(), Some(7));
        assert_eq!(q.now(), 0);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }
}
