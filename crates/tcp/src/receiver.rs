//! Receiver-side ACK generation with delayed ACKs.
//!
//! Models RFC 1122/5681 receiver behaviour: ACK every second full-sized
//! segment, otherwise delay up to a timeout (Linux: ~40 ms in practice,
//! "30ms+" per the paper §3.2.5); ACK immediately on out-of-order arrival
//! (producing duplicate ACKs) and when an arrival fills a gap.

use crate::time::Nanos;
use std::collections::BTreeMap;

/// What the receiver wants to do after a segment arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckAction {
    /// Emit an ACK for `cum_seq` immediately.
    Now {
        /// Cumulative sequence acknowledged.
        cum_seq: u64,
    },
    /// Hold the ACK; fire it at `deadline` if nothing else triggers first.
    Delayed {
        /// When the delayed-ACK timer expires.
        deadline: Nanos,
    },
}

/// Delayed-ACK receiver model.
#[derive(Debug, Clone)]
pub struct DelayedAckReceiver {
    /// Next expected in-order byte.
    rcv_nxt: u64,
    /// Out-of-order holes: start → end (exclusive).
    ooo: BTreeMap<u64, u64>,
    /// Segments since the last ACK was sent.
    unacked_segments: u32,
    /// Deadline of a pending delayed ACK, if any.
    pending_deadline: Option<Nanos>,
    delayed_ack_timeout: Nanos,
    delayed_ack_disabled: bool,
}

impl DelayedAckReceiver {
    /// New receiver. `timeout` is the delayed-ACK timer; `disabled` forces
    /// an immediate ACK per segment (the NS3-validation configuration).
    pub fn new(timeout: Nanos, disabled: bool) -> Self {
        DelayedAckReceiver {
            rcv_nxt: 0,
            ooo: BTreeMap::new(),
            unacked_segments: 0,
            pending_deadline: None,
            delayed_ack_timeout: timeout,
            delayed_ack_disabled: disabled,
        }
    }

    /// Next expected in-order sequence number (the cumulative ACK value).
    #[cfg(test)]
    fn rcv_nxt(&self) -> u64 {
        self.rcv_nxt
    }

    /// Deadline of the pending delayed ACK, if one is armed.
    #[cfg(test)]
    fn ack_deadline(&self) -> Option<Nanos> {
        self.pending_deadline
    }

    /// A data segment `[seq, seq+len)` arrived at `now`.
    pub fn on_segment(&mut self, now: Nanos, seq: u64, len: u32) -> AckAction {
        assert!(len > 0, "zero-length segment");
        let end = seq + len as u64;

        if seq > self.rcv_nxt {
            // Out of order: buffer the range and duplicate-ACK immediately.
            self.insert_ooo(seq, end);
            self.flush_pending();
            return AckAction::Now { cum_seq: self.rcv_nxt };
        }

        let had_gap = !self.ooo.is_empty();
        let advanced = end > self.rcv_nxt;
        if advanced {
            self.rcv_nxt = end;
            self.drain_ooo();
        }

        // Immediate ACK when: delayed ACKs are off, the segment filled (part
        // of) a gap (RFC 5681), or it was a spurious retransmission of data
        // already received.
        if self.delayed_ack_disabled || had_gap || !advanced {
            self.flush_pending();
            return AckAction::Now { cum_seq: self.rcv_nxt };
        }

        self.unacked_segments += 1;
        if self.unacked_segments >= 2 {
            self.flush_pending();
            AckAction::Now { cum_seq: self.rcv_nxt }
        } else {
            let deadline = now + self.delayed_ack_timeout;
            self.pending_deadline = Some(deadline);
            AckAction::Delayed { deadline }
        }
    }

    /// The delayed-ACK timer fired; returns the cumulative ACK to emit, or
    /// `None` if the pending ACK was already flushed.
    pub fn on_ack_timer(&mut self, now: Nanos) -> Option<u64> {
        match self.pending_deadline {
            Some(d) if d <= now => {
                self.flush_pending();
                Some(self.rcv_nxt)
            }
            _ => None,
        }
    }

    fn flush_pending(&mut self) {
        self.pending_deadline = None;
        self.unacked_segments = 0;
    }

    fn insert_ooo(&mut self, seq: u64, end: u64) {
        // Merge with overlapping/adjacent ranges.
        let mut start = seq;
        let mut stop = end;
        let overlapping: Vec<u64> = self
            .ooo
            .range(..=stop)
            .filter(|&(&s, &e)| e >= start && s <= stop)
            .map(|(&s, _)| s)
            .collect();
        for s in overlapping {
            let e = self.ooo.remove(&s).unwrap();
            start = start.min(s);
            stop = stop.max(e);
        }
        self.ooo.insert(start, stop);
    }

    fn drain_ooo(&mut self) {
        while let Some((&s, &e)) = self.ooo.first_key_value() {
            if s <= self.rcv_nxt {
                self.ooo.remove(&s);
                self.rcv_nxt = self.rcv_nxt.max(e);
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::MILLISECOND;

    const TO: Nanos = 40 * MILLISECOND;

    #[test]
    fn first_segment_is_delayed() {
        let mut r = DelayedAckReceiver::new(TO, false);
        match r.on_segment(0, 0, 1460) {
            AckAction::Delayed { deadline } => assert_eq!(deadline, TO),
            a => panic!("expected delayed, got {a:?}"),
        }
    }

    #[test]
    fn second_segment_acks_immediately() {
        let mut r = DelayedAckReceiver::new(TO, false);
        r.on_segment(0, 0, 1460);
        match r.on_segment(1, 1460, 1460) {
            AckAction::Now { cum_seq } => assert_eq!(cum_seq, 2920),
            a => panic!("expected now, got {a:?}"),
        }
        assert_eq!(r.ack_deadline(), None);
    }

    #[test]
    fn disabled_mode_acks_every_segment() {
        let mut r = DelayedAckReceiver::new(TO, true);
        assert_eq!(r.on_segment(0, 0, 1460), AckAction::Now { cum_seq: 1460 });
        assert_eq!(r.on_segment(1, 1460, 1460), AckAction::Now { cum_seq: 2920 });
    }

    #[test]
    fn out_of_order_produces_dup_ack() {
        let mut r = DelayedAckReceiver::new(TO, false);
        // Segment 1 lost; segment 2 arrives.
        match r.on_segment(0, 1460, 1460) {
            AckAction::Now { cum_seq } => assert_eq!(cum_seq, 0),
            a => panic!("expected dup-ack, got {a:?}"),
        }
        // Another later segment → another dup ack at 0.
        match r.on_segment(1, 2920, 1460) {
            AckAction::Now { cum_seq } => assert_eq!(cum_seq, 0),
            a => panic!("{a:?}"),
        }
    }

    #[test]
    fn gap_fill_acks_everything() {
        let mut r = DelayedAckReceiver::new(TO, false);
        r.on_segment(0, 1460, 1460); // ooo
        r.on_segment(1, 2920, 1460); // ooo
        match r.on_segment(2, 0, 1460) {
            AckAction::Now { cum_seq } => assert_eq!(cum_seq, 4380),
            a => panic!("{a:?}"),
        }
    }

    #[test]
    fn delayed_timer_fires() {
        let mut r = DelayedAckReceiver::new(TO, false);
        let d = match r.on_segment(0, 0, 1000) {
            AckAction::Delayed { deadline } => deadline,
            a => panic!("{a:?}"),
        };
        assert_eq!(r.on_ack_timer(d - 1), None);
        assert_eq!(r.on_ack_timer(d), Some(1000));
        // Timer is one-shot.
        assert_eq!(r.on_ack_timer(d + 1), None);
    }

    #[test]
    fn overlapping_ooo_ranges_merge() {
        let mut r = DelayedAckReceiver::new(TO, false);
        r.on_segment(0, 2920, 1460);
        r.on_segment(1, 1460, 2920); // overlaps the buffered range
        match r.on_segment(2, 0, 1460) {
            AckAction::Now { cum_seq } => assert_eq!(cum_seq, 4380),
            a => panic!("{a:?}"),
        }
    }
}

#[cfg(test)]
mod reorder_properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Whatever order segments of a contiguous stream arrive in, the
        /// receiver's cumulative position ends at the stream length and
        /// never exceeds the bytes that actually arrived.
        #[test]
        fn arbitrary_arrival_order_converges(
            seg_lens in prop::collection::vec(1u32..3_000, 1..20),
            order in prop::collection::vec(any::<u16>(), 1..20),
        ) {
            // Build the contiguous segment list, then permute by `order`.
            let mut segs: Vec<(u64, u32)> = Vec::new();
            let mut seq = 0u64;
            for &len in &seg_lens {
                segs.push((seq, len));
                seq += len as u64;
            }
            let total = seq;
            let mut perm: Vec<usize> = (0..segs.len()).collect();
            perm.sort_by_key(|&i| order.get(i).copied().unwrap_or(0));

            let mut r = DelayedAckReceiver::new(40_000_000, false);
            for (t, &i) in perm.iter().enumerate() {
                let (s, l) = segs[i];
                r.on_segment(t as u64 * 1_000_000, s, l);
                prop_assert!(r.rcv_nxt() <= total);
            }
            prop_assert_eq!(r.rcv_nxt(), total);
        }
    }
}
