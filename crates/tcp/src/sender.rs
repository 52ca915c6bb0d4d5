//! The TCP sender state machine.
//!
//! Byte-sequence based (no wrap handling — a simulated transaction never
//! approaches 2^64 bytes), cumulative ACKs, NewReno-style recovery, RTO
//! with Karn's rule, and Linux-style cwnd-limited gating of window growth
//! (the paper's footnote 3: growth only happens when the connection was
//! actually limited by cwnd, by bytes ACKed, not ACK count).

use crate::cc::{make_cc, CongestionControl};
use crate::config::{TcpConfig, MIN_RTO};
use crate::info::TcpInfo;
use crate::rtt::RttEstimator;
use crate::time::Nanos;
use std::collections::VecDeque;

/// Receive window in bytes: a cap on in-flight data.
const RECEIVE_WINDOW: u64 = 6 * 1024 * 1024;
/// Duplicate ACKs that trigger a fast retransmit.
const DUPACK_THRESHOLD: u32 = 3;

/// Congestion state of the sender.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SenderState {
    /// Normal operation (slow start or congestion avoidance).
    Open,
    /// Fast recovery after a dup-ACK-detected loss.
    Recovery,
    /// RTO-triggered loss state.
    Loss,
}

/// A segment the sender wants on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// First byte sequence number.
    pub seq: u64,
    /// Payload length in bytes.
    pub len: u32,
    /// True if this is a retransmission.
    pub retx: bool,
}

#[derive(Debug, Clone, Copy)]
struct InFlight {
    seq: u64,
    len: u32,
    sent_at: Nanos,
    retx: bool,
}

/// Sender state machine. Drive it with [`TcpSender::next_segment`],
/// [`TcpSender::on_ack`] and [`TcpSender::on_rto`].
pub struct TcpSender {
    cfg: TcpConfig,
    cc: Box<dyn CongestionControl + Send>,
    rtt: RttEstimator,

    /// First unacknowledged sequence number.
    snd_una: u64,
    /// Next new sequence number to send.
    snd_nxt: u64,
    /// Application bytes enqueued (end of stream so far).
    app_limit: u64,

    cwnd: u32,
    ssthresh: u32,
    state: SenderState,
    /// Recovery ends when snd_una passes this point.
    recover: u64,
    dupacks: u32,
    /// Queue of segments to retransmit (seq, len).
    retx_queue: VecDeque<(u64, u32)>,
    /// Segments in flight, ordered by send time (for RTT/RTO).
    in_flight_segs: VecDeque<InFlight>,
    /// Set when a send was blocked by cwnd; gates window growth.
    cwnd_limited: bool,

    bytes_acked_total: u64,
    retransmits: u64,
}

impl TcpSender {
    /// New sender with the given configuration.
    pub fn new(cfg: TcpConfig) -> Self {
        TcpSender {
            cc: make_cc(cfg.cc, cfg.mss),
            rtt: RttEstimator::new(MIN_RTO),
            snd_una: 0,
            snd_nxt: 0,
            app_limit: 0,
            cwnd: cfg.initial_cwnd_bytes(),
            ssthresh: u32::MAX,
            state: SenderState::Open,
            recover: 0,
            dupacks: 0,
            retx_queue: VecDeque::new(),
            in_flight_segs: VecDeque::new(),
            cwnd_limited: false,
            bytes_acked_total: 0,
            retransmits: 0,
            cfg,
        }
    }

    /// Append application bytes to the send stream.
    pub fn enqueue(&mut self, bytes: u64) {
        self.app_limit += bytes;
    }

    /// Bytes currently unacknowledged.
    pub fn bytes_in_flight(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    /// Current congestion window in bytes.
    pub fn cwnd(&self) -> u32 {
        self.cwnd
    }

    /// True when every enqueued byte has been cumulatively acknowledged.
    pub fn all_acked(&self) -> bool {
        self.snd_una == self.app_limit
    }

    /// Next new sequence number (bytes written to the wire so far).
    pub fn snd_nxt(&self) -> u64 {
        self.snd_nxt
    }

    /// End of the currently enqueued application stream.
    pub fn app_limit(&self) -> u64 {
        self.app_limit
    }

    /// True if unsent application data remains.
    pub fn has_unsent_data(&self) -> bool {
        self.snd_nxt < self.app_limit || !self.retx_queue.is_empty()
    }

    /// Instrumentation snapshot (the `TCP_INFO` analogue).
    pub fn info(&self) -> TcpInfo {
        TcpInfo {
            cwnd_bytes: self.cwnd,
            ssthresh_bytes: self.ssthresh,
            bytes_in_flight: self.bytes_in_flight(),
            bytes_acked: self.bytes_acked_total,
            retransmits: self.retransmits,
            min_rtt: self.rtt.min_rtt(),
            srtt: self.rtt.srtt(),
            state: self.state,
        }
    }

    /// The RTT estimator (read-only).
    pub fn rtt(&self) -> &RttEstimator {
        &self.rtt
    }

    /// Seed the RTT estimator with the connection-establishment sample
    /// (the SYN/SYN-ACK exchange): header-sized packets, so this sample
    /// sits at the path's propagation floor — exactly the paper's
    /// footnote-5 observation that MinRTT captures at minimum the header
    /// transmission time.
    pub fn seed_handshake_rtt(&mut self, rtt: Nanos) {
        self.rtt.on_sample(rtt);
    }

    fn window_allows(&self, len: u32) -> bool {
        let inflight = self.bytes_in_flight();
        inflight + len as u64 <= self.cwnd as u64 && inflight + len as u64 <= RECEIVE_WINDOW
    }

    /// Produce the next segment to transmit at `now`, or `None` if the
    /// window or the application limits sending. Call repeatedly until it
    /// returns `None`.
    pub fn next_segment(&mut self, now: Nanos) -> Option<Segment> {
        // Retransmissions take priority and are not cwnd-gated beyond one
        // segment at a time (simplified NewReno).
        if let Some((seq, len)) = self.retx_queue.pop_front() {
            self.retransmits += 1;
            self.in_flight_segs.push_back(InFlight { seq, len, sent_at: now, retx: true });
            return Some(Segment { seq, len, retx: true });
        }

        let remaining = self.app_limit - self.snd_nxt;
        if remaining == 0 {
            return None;
        }
        let len = (remaining.min(self.cfg.mss as u64)) as u32;
        if !self.window_allows(len) {
            self.cwnd_limited = true;
            return None;
        }
        let seq = self.snd_nxt;
        self.snd_nxt += len as u64;
        self.in_flight_segs.push_back(InFlight { seq, len, sent_at: now, retx: false });
        // Slow-start cwnd-limited rule: more than half the cwnd in flight.
        if self.in_slow_start() && self.bytes_in_flight() * 2 > self.cwnd as u64 {
            self.cwnd_limited = true;
        }
        Some(Segment { seq, len, retx: false })
    }

    fn in_slow_start(&self) -> bool {
        self.cwnd < self.ssthresh
    }

    /// Process a cumulative ACK for all bytes below `ack_seq`.
    pub fn on_ack(&mut self, now: Nanos, ack_seq: u64) {
        if ack_seq > self.snd_nxt {
            // Receiver cannot ACK data never sent.
            panic!("ack beyond snd_nxt: {ack_seq} > {}", self.snd_nxt);
        }
        if ack_seq <= self.snd_una {
            self.on_dupack(now);
            return;
        }
        let newly_acked = (ack_seq - self.snd_una) as u32;
        self.snd_una = ack_seq;
        self.bytes_acked_total += newly_acked as u64;
        self.dupacks = 0;

        // RTT sample from the newest segment fully covered by this ACK that
        // was never retransmitted (Karn's rule).
        let mut sample: Option<Nanos> = None;
        while let Some(seg) = self.in_flight_segs.front() {
            if seg.seq + seg.len as u64 <= ack_seq {
                if !seg.retx {
                    sample = Some(now.saturating_sub(seg.sent_at));
                }
                self.in_flight_segs.pop_front();
            } else {
                break;
            }
        }
        if let Some(rtt) = sample {
            self.rtt.on_sample(rtt);
        }
        // Drop queued retransmissions now covered by the ACK.
        self.retx_queue.retain(|&(seq, len)| seq + len as u64 > ack_seq);

        match self.state {
            SenderState::Open => self.grow_cwnd(now, newly_acked),
            SenderState::Recovery => {
                if ack_seq >= self.recover {
                    // Recovery complete: deflate to ssthresh.
                    self.cwnd = self.ssthresh.max(2 * self.cfg.mss);
                    self.state = SenderState::Open;
                } else {
                    // Partial ACK: retransmit the next hole immediately.
                    self.queue_first_unacked_retx();
                }
            }
            SenderState::Loss => {
                if ack_seq >= self.recover {
                    self.state = SenderState::Open;
                } else {
                    // Everything up to `recover` was presumed lost at the
                    // RTO; keep retransmitting the stream sequentially.
                    self.queue_first_unacked_retx();
                }
                // Slow start applies while recovering from loss.
                self.grow_cwnd(now, newly_acked);
            }
        }

        // Safety net: outstanding bytes must always be covered by either an
        // in-flight segment (with its RTO) or a queued retransmission;
        // otherwise the connection would wait forever.
        if self.snd_una < self.snd_nxt
            && self.in_flight_segs.is_empty()
            && self.retx_queue.is_empty()
        {
            self.queue_first_unacked_retx();
        }
    }

    fn grow_cwnd(&mut self, now: Nanos, newly_acked: u32) {
        if !self.cwnd_limited {
            // Application-limited: Linux does not grow the window.
            return;
        }
        let inc = if self.in_slow_start() {
            let inc = self.cc.on_ack_slow_start(newly_acked, self.cwnd);
            // Don't overshoot ssthresh.
            if self.ssthresh != u32::MAX && self.cwnd + inc > self.ssthresh {
                self.ssthresh - self.cwnd
            } else {
                inc
            }
        } else {
            self.cc.on_ack_avoidance(now, newly_acked, self.cwnd, self.rtt.min_rtt().unwrap_or(1))
        };
        self.cwnd = self.cwnd.saturating_add(inc);
        // Re-evaluate limitedness after growth.
        self.cwnd_limited = self.bytes_in_flight() * 2 > self.cwnd as u64;
    }

    fn on_dupack(&mut self, now: Nanos) {
        self.dupacks += 1;
        if self.state == SenderState::Open && self.dupacks >= DUPACK_THRESHOLD {
            // Fast retransmit.
            let (ssthresh, cwnd) = self.cc.on_loss(now, self.cwnd);
            self.ssthresh = ssthresh;
            self.cwnd = cwnd.max(2 * self.cfg.mss);
            self.state = SenderState::Recovery;
            self.recover = self.snd_nxt;
            self.queue_first_unacked_retx();
        }
    }

    fn queue_first_unacked_retx(&mut self) {
        let len = ((self.snd_nxt - self.snd_una).min(self.cfg.mss as u64)) as u32;
        if len == 0 {
            return;
        }
        let seq = self.snd_una;
        if !self.retx_queue.iter().any(|&(s, _)| s == seq) {
            self.retx_queue.push_back((seq, len));
        }
    }

    /// Deadline of the retransmission timer, if data is in flight.
    pub fn rto_deadline(&self) -> Option<Nanos> {
        self.in_flight_segs.front().map(|seg| seg.sent_at + self.rtt.rto())
    }

    /// The retransmission timer fired.
    pub fn on_rto(&mut self, now: Nanos) {
        if self.bytes_in_flight() == 0 {
            return;
        }
        self.rtt.on_timeout();
        let (ssthresh, cwnd) = self.cc.on_timeout(now, self.cwnd, self.cfg.mss);
        self.ssthresh = ssthresh;
        self.cwnd = cwnd;
        self.state = SenderState::Loss;
        self.recover = self.snd_nxt;
        self.dupacks = 0;
        // Everything in flight is presumed lost; retransmit from snd_una.
        self.in_flight_segs.clear();
        self.retx_queue.clear();
        self.queue_first_unacked_retx();
        self.cwnd_limited = true;
    }
}

impl std::fmt::Debug for TcpSender {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpSender")
            .field("snd_una", &self.snd_una)
            .field("snd_nxt", &self.snd_nxt)
            .field("app_limit", &self.app_limit)
            .field("cwnd", &self.cwnd)
            .field("ssthresh", &self.ssthresh)
            .field("state", &self.state)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::CcAlgorithm;
    use crate::time::MILLISECOND;

    fn cfg() -> TcpConfig {
        TcpConfig { cc: CcAlgorithm::Reno, delayed_ack_disabled: true, ..Default::default() }
    }

    /// Send everything allowed at `now`, returning the segments.
    fn drain(s: &mut TcpSender, now: Nanos) -> Vec<Segment> {
        let mut v = Vec::new();
        while let Some(seg) = s.next_segment(now) {
            v.push(seg);
        }
        v
    }

    #[test]
    fn initial_window_is_iw10() {
        let mut s = TcpSender::new(cfg());
        s.enqueue(1_000_000);
        let segs = drain(&mut s, 0);
        assert_eq!(segs.len(), 10);
        assert_eq!(s.bytes_in_flight(), 14_600);
    }

    #[test]
    fn app_limited_sends_less() {
        let mut s = TcpSender::new(cfg());
        s.enqueue(2_000);
        let segs = drain(&mut s, 0);
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].len, 1460);
        assert_eq!(segs[1].len, 540);
    }

    #[test]
    fn slow_start_doubles_when_cwnd_limited() {
        let mut s = TcpSender::new(cfg());
        s.enqueue(1_000_000);
        drain(&mut s, 0);
        let cwnd0 = s.cwnd();
        // ACK the whole window at t = 50 ms.
        s.on_ack(50 * MILLISECOND, s.snd_nxt());
        assert_eq!(s.cwnd(), 2 * cwnd0);
    }

    #[test]
    fn app_limited_does_not_grow_cwnd() {
        let mut s = TcpSender::new(cfg());
        s.enqueue(1_460); // one segment: far below half the window
        drain(&mut s, 0);
        let cwnd0 = s.cwnd();
        s.on_ack(50 * MILLISECOND, s.snd_nxt());
        assert_eq!(s.cwnd(), cwnd0, "app-limited ACK must not grow cwnd");
    }

    #[test]
    fn rtt_is_sampled_from_acks() {
        let mut s = TcpSender::new(cfg());
        s.enqueue(1_460);
        drain(&mut s, 1_000_000);
        s.on_ack(61 * MILLISECOND, s.snd_nxt());
        assert_eq!(s.rtt().min_rtt(), Some(60 * MILLISECOND));
    }

    #[test]
    fn triple_dupack_triggers_fast_retransmit() {
        let mut s = TcpSender::new(cfg());
        s.enqueue(100_000);
        drain(&mut s, 0);
        // Receiver keeps ACKing 0 (first segment lost).
        s.on_ack(10 * MILLISECOND, 0);
        s.on_ack(11 * MILLISECOND, 0);
        assert_eq!(s.info().state, SenderState::Open);
        s.on_ack(12 * MILLISECOND, 0);
        assert_eq!(s.info().state, SenderState::Recovery);
        // The retransmission must be segment 0.
        let seg = s.next_segment(13 * MILLISECOND).expect("retransmission");
        assert!(seg.retx);
        assert_eq!(seg.seq, 0);
    }

    #[test]
    fn recovery_exits_on_full_ack() {
        let mut s = TcpSender::new(cfg());
        s.enqueue(100_000);
        drain(&mut s, 0);
        let sent = s.snd_nxt();
        for t in 1..=3 {
            s.on_ack(t * MILLISECOND, 0);
        }
        assert_eq!(s.info().state, SenderState::Recovery);
        s.next_segment(4 * MILLISECOND); // emit the retransmission
        s.on_ack(50 * MILLISECOND, sent);
        assert_eq!(s.info().state, SenderState::Open);
        assert!(s.all_acked() || s.has_unsent_data());
    }

    #[test]
    fn rto_collapses_window_and_retransmits() {
        let mut s = TcpSender::new(cfg());
        s.enqueue(100_000);
        drain(&mut s, 0);
        let deadline = s.rto_deadline().expect("data in flight");
        s.on_rto(deadline);
        assert_eq!(s.info().state, SenderState::Loss);
        assert_eq!(s.cwnd(), 1460);
        let seg = s.next_segment(deadline + 1).expect("rto retransmission");
        assert!(seg.retx);
        assert_eq!(seg.seq, 0);
    }

    #[test]
    fn karn_rule_skips_retransmitted_samples() {
        let mut s = TcpSender::new(cfg());
        s.enqueue(1_460);
        drain(&mut s, 0);
        let deadline = s.rto_deadline().unwrap();
        s.on_rto(deadline);
        s.next_segment(deadline + 1);
        // ACK arrives; segment was retransmitted → no RTT sample.
        s.on_ack(deadline + 50 * MILLISECOND, 1_460);
        assert_eq!(s.rtt().min_rtt(), None);
    }

    #[test]
    fn cumulative_ack_beyond_sent_panics() {
        let mut s = TcpSender::new(cfg());
        s.enqueue(1_460);
        drain(&mut s, 0);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.on_ack(1, 999_999);
        }));
        assert!(r.is_err());
    }

    #[test]
    fn all_acked_lifecycle() {
        let mut s = TcpSender::new(cfg());
        assert!(s.all_acked());
        s.enqueue(3_000);
        assert!(!s.all_acked());
        drain(&mut s, 0);
        s.on_ack(10 * MILLISECOND, 3_000);
        assert!(s.all_acked());
        assert_eq!(s.bytes_in_flight(), 0);
    }

    #[test]
    fn info_snapshot_tracks_totals() {
        let mut s = TcpSender::new(cfg());
        s.enqueue(14_600);
        drain(&mut s, 0);
        s.on_ack(20 * MILLISECOND, 14_600);
        let info = s.info();
        assert_eq!(info.bytes_acked, 14_600);
        assert_eq!(info.retransmits, 0);
        assert_eq!(info.bytes_in_flight, 0);
    }

    #[test]
    fn ssthresh_caps_slow_start_growth() {
        let mut s = TcpSender::new(cfg());
        s.enqueue(10_000_000);
        // Force a loss to set ssthresh, then verify slow start respects it.
        drain(&mut s, 0);
        let d = s.rto_deadline().unwrap();
        s.on_rto(d);
        let ssthresh = s.info().ssthresh_bytes;
        // Retransmit and ACK progressively; cwnd must not blow past
        // ssthresh within slow start growth steps.
        let mut now = d;
        for _ in 0..50 {
            now += 10 * MILLISECOND;
            while let Some(_seg) = s.next_segment(now) {}
            let target = s.snd_nxt();
            now += 10 * MILLISECOND;
            s.on_ack(now, target);
            if s.cwnd() >= ssthresh {
                break;
            }
        }
        // Growth through ssthresh must be exact, not overshooting.
        assert!(s.cwnd() >= ssthresh);
    }
}
