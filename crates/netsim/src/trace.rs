//! Packet-level flow transcripts (tcpdump-style, but structured).
//!
//! Optional per-flow tracing for debugging simulations and for tests that
//! assert on wire-level behaviour: every segment send/delivery/drop and
//! every ACK arrival, with virtual-time stamps. Rendering produces a
//! compact, grep-able text transcript.

use edgeperf_tcp::Nanos;

/// One traced wire event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// Sender put a segment on the path.
    Send {
        /// Virtual time.
        t: Nanos,
        /// First sequence number.
        seq: u64,
        /// Payload length.
        len: u32,
        /// Retransmission?
        retx: bool,
    },
    /// Segment reached the receiver.
    Deliver {
        /// Virtual time.
        t: Nanos,
        /// First sequence number.
        seq: u64,
    },
    /// Segment was dropped by the path.
    Drop {
        /// Virtual time.
        t: Nanos,
        /// First sequence number.
        seq: u64,
    },
    /// Cumulative ACK arrived back at the sender.
    Ack {
        /// Virtual time.
        t: Nanos,
        /// Cumulative sequence acknowledged.
        cum: u64,
    },
}

impl TraceEvent {
    /// Event timestamp.
    pub fn time(&self) -> Nanos {
        match *self {
            TraceEvent::Send { t, .. }
            | TraceEvent::Deliver { t, .. }
            | TraceEvent::Drop { t, .. }
            | TraceEvent::Ack { t, .. } => t,
        }
    }
}

/// A flow's collected events.
#[derive(Debug, Clone, Default)]
pub struct FlowTrace {
    events: Vec<TraceEvent>,
}

impl FlowTrace {
    /// Empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an event (called by the simulator).
    pub fn push(&mut self, ev: TraceEvent) {
        self.events.push(ev);
    }

    /// All events, in occurrence order.
    #[cfg(test)]
    pub(crate) fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Count of events matching a predicate.
    pub fn count(&self, pred: impl Fn(&TraceEvent) -> bool) -> usize {
        self.events.iter().filter(|e| pred(e)).count()
    }

    /// Retransmitted-segment count.
    pub fn retransmissions(&self) -> usize {
        self.count(|e| matches!(e, TraceEvent::Send { retx: true, .. }))
    }

    /// Dropped-segment count.
    pub fn drops(&self) -> usize {
        self.count(|e| matches!(e, TraceEvent::Drop { .. }))
    }

    /// Render a text transcript (`ms  EVENT  details`).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(self.events.len() * 32);
        for e in &self.events {
            let ms = e.time() as f64 / 1e6;
            match *e {
                TraceEvent::Send { seq, len, retx, .. } => {
                    let _ = writeln!(
                        out,
                        "{ms:10.3}  SEND  seq={seq} len={len}{}",
                        if retx { " RETX" } else { "" }
                    );
                }
                TraceEvent::Deliver { seq, .. } => {
                    let _ = writeln!(out, "{ms:10.3}  RECV  seq={seq}");
                }
                TraceEvent::Drop { seq, .. } => {
                    let _ = writeln!(out, "{ms:10.3}  DROP  seq={seq}");
                }
                TraceEvent::Ack { cum, .. } => {
                    let _ = writeln!(out, "{ms:10.3}  ACK   cum={cum}");
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collects_and_counts() {
        let mut t = FlowTrace::new();
        t.push(TraceEvent::Send { t: 0, seq: 0, len: 1460, retx: false });
        t.push(TraceEvent::Drop { t: 1_000_000, seq: 0 });
        t.push(TraceEvent::Send { t: 2_000_000, seq: 0, len: 1460, retx: true });
        t.push(TraceEvent::Deliver { t: 3_000_000, seq: 0 });
        t.push(TraceEvent::Ack { t: 4_000_000, cum: 1460 });
        assert_eq!(t.events().len(), 5);
        assert_eq!(t.retransmissions(), 1);
        assert_eq!(t.drops(), 1);
    }

    #[test]
    fn renders_readable_transcript() {
        let mut t = FlowTrace::new();
        t.push(TraceEvent::Send { t: 500_000, seq: 0, len: 100, retx: false });
        t.push(TraceEvent::Ack { t: 60_500_000, cum: 100 });
        let s = t.render();
        assert!(s.contains("SEND  seq=0 len=100"));
        assert!(s.contains("ACK   cum=100"));
        assert!(s.contains("0.500"));
        assert!(s.contains("60.500"));
    }

    #[test]
    fn event_times_are_accessible() {
        let e = TraceEvent::Deliver { t: 42, seq: 7 };
        assert_eq!(e.time(), 42);
    }
}
