//! Packet-level simulation of one TCP connection carrying a sequence of
//! application writes (HTTP responses).
//!
//! This is the substrate for the paper's §3.2.3 validation and for
//! high-fidelity session simulation: it wires an `edgeperf-tcp` sender and
//! delayed-ACK receiver across a [`Path`] and records, per application
//! write, exactly the quantities the load-balancer instrumentation captures
//! in production:
//!
//! - `Wnic`: the congestion window when the write's first byte reaches the
//!   NIC (first transmission of the segment containing that byte),
//! - the time the first byte reached the NIC,
//! - the time an ACK covering the *second-to-last* packet arrived (the
//!   delayed-ACK-immune endpoint of §3.2.5),
//! - the time the write was fully acknowledged,
//! - the bytes in flight when the write was issued (for the
//!   bytes-in-flight eligibility rule).

use crate::engine::EventQueue;
use crate::path::{Path, PathConfig};
use crate::trace::{FlowTrace, TraceEvent};
use edgeperf_tcp::receiver::AckAction;
use edgeperf_tcp::{DelayedAckReceiver, Nanos, TcpConfig, TcpInfo, TcpSender, DELAYED_ACK_TIMEOUT};
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

/// Instrumentation record for one application write (one HTTP response).
#[derive(Debug, Clone, Copy)]
pub struct WriteRecord {
    /// Response size in bytes.
    pub bytes: u64,
    /// When the application issued the write.
    pub scheduled_at: Nanos,
    /// First sequence number of the write in the connection's byte stream.
    pub seq_start: u64,
    /// One past the last sequence number.
    pub seq_end: u64,
    /// Bytes still unacknowledged when the write was issued.
    pub bytes_in_flight_at_write: u64,
    /// Whether earlier writes still had unsent bytes when this write was
    /// issued (triggers coalescing in the instrumentation).
    pub prev_unsent_at_write: bool,
    /// (time, cwnd) when the write's first byte was first transmitted.
    pub first_tx: Option<(Nanos, u32)>,
    /// Sequence number of the first byte of the write's final packet.
    pub last_seg_start: Option<u64>,
    /// Length of the final packet in bytes.
    pub last_packet_bytes: Option<u32>,
    /// Arrival time of the first ACK covering the second-to-last packet.
    pub t_second_last_ack: Option<Nanos>,
    /// Arrival time of the first ACK covering the whole write.
    pub t_full_ack: Option<Nanos>,
}

/// Result of a completed flow simulation.
#[derive(Debug, Clone)]
pub struct FlowResult {
    /// Per-write instrumentation records, in write order.
    pub writes: Vec<WriteRecord>,
    /// Final sender state snapshot (MinRTT, retransmits, …).
    pub info: TcpInfo,
    /// Virtual time when the simulation went idle.
    pub finished_at: Nanos,
    /// Path delivery/drop counters.
    pub path_stats: crate::path::PathStats,
    /// Wire-level transcript, if tracing was enabled.
    pub trace: Option<FlowTrace>,
}

#[derive(Debug, Clone, Copy)]
enum Event {
    AppWrite { idx: usize },
    Arrive { seq: u64, len: u32 },
    AckArrive { cum: u64 },
    AckTimer { deadline: Nanos },
    Rto { deadline: Nanos },
    PacedSend,
}

/// # Example
///
/// ```
/// use edgeperf_netsim::{FlowSim, PathConfig};
/// use edgeperf_tcp::{TcpConfig, MILLISECOND, SECOND};
///
/// let mut sim = FlowSim::new(
///     TcpConfig::ns3_validation(10),
///     PathConfig::ideal(5_000_000, 60 * MILLISECOND),
///     42,
/// );
/// sim.schedule_write(0, 50_000);
/// let res = sim.run(60 * SECOND);
/// assert!(res.writes[0].t_full_ack.is_some());
/// assert_eq!(res.info.bytes_acked, 50_000);
/// ```
/// One TCP connection over one path, driven by scheduled writes.
pub struct FlowSim {
    q: EventQueue<Event>,
    sender: TcpSender,
    receiver: DelayedAckReceiver,
    path: Path,
    rng: ChaCha12Rng,
    writes: Vec<WriteRecord>,
    pending_writes: usize,
    /// Index of the first write not yet fully ACKed (monotone cursor).
    ack_cursor: usize,
    trace: Option<FlowTrace>,
    pacing: bool,
    /// Earliest time the next paced segment may leave.
    next_send_at: Nanos,
}

impl FlowSim {
    /// Create a flow with the given TCP and path configuration. `seed`
    /// drives every random decision (loss, jitter) for this flow.
    pub fn new(tcp: TcpConfig, path: PathConfig, seed: u64) -> Self {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let mut path = Path::new(path);
        let mut sender = TcpSender::new(tcp);
        // Connection establishment: the SYN/SYN-ACK exchange seeds the
        // RTT estimator with a header-sized sample at the propagation
        // floor (as the Linux kernel does). The SYN occupies the
        // bottleneck momentarily, which the path state reflects.
        if let Some(delivery) = path.transmit(0, 0, &mut rng) {
            sender.seed_handshake_rtt(delivery + path.ack_delay());
        }
        FlowSim {
            q: EventQueue::new(),
            sender,
            receiver: DelayedAckReceiver::new(DELAYED_ACK_TIMEOUT, tcp.delayed_ack_disabled),
            path,
            rng,
            writes: Vec::new(),
            pending_writes: 0,
            ack_cursor: 0,
            trace: None,
            pacing: tcp.pacing,
            next_send_at: 0,
        }
    }

    /// Record a wire-level transcript of this flow (off by default; the
    /// transcript is returned in [`FlowResult::trace`]).
    pub fn enable_trace(&mut self) {
        self.trace = Some(FlowTrace::new());
    }

    /// Schedule an application write of `bytes` at virtual time `at`.
    /// Must be called before [`FlowSim::run`]; writes may be scheduled in
    /// any order but are sequenced into the byte stream in event order.
    pub fn schedule_write(&mut self, at: Nanos, bytes: u64) {
        assert!(bytes > 0, "zero-byte write");
        let idx = self.writes.len();
        self.writes.push(WriteRecord {
            bytes,
            scheduled_at: at,
            seq_start: 0,
            seq_end: 0,
            bytes_in_flight_at_write: 0,
            prev_unsent_at_write: false,
            first_tx: None,
            last_seg_start: None,
            last_packet_bytes: None,
            t_second_last_ack: None,
            t_full_ack: None,
        });
        self.pending_writes += 1;
        self.q.schedule(at, Event::AppWrite { idx });
    }

    /// Run until every write is delivered and acknowledged, or until
    /// virtual time exceeds `limit`. Returns the instrumentation records.
    pub fn run(mut self, limit: Nanos) -> FlowResult {
        while let Some(t) = self.q.peek_time() {
            if t > limit {
                break;
            }
            let (now, ev) = self.q.pop().expect("peeked event");
            match ev {
                Event::AppWrite { idx } => self.on_app_write(now, idx),
                Event::Arrive { seq, len } => self.on_arrive(now, seq, len),
                Event::AckArrive { cum } => self.on_ack_arrive(now, cum),
                Event::AckTimer { deadline } => {
                    if let Some(cum) = self.receiver.on_ack_timer(deadline) {
                        let at = now + self.path.ack_delay();
                        self.q.schedule(at, Event::AckArrive { cum });
                    }
                }
                Event::Rto { deadline } => {
                    if self.sender.rto_deadline() == Some(deadline) {
                        self.sender.on_rto(now);
                        self.try_send(now);
                    }
                }
                Event::PacedSend => self.try_send(now),
            }
            if self.pending_writes == 0 && self.sender.all_acked() {
                break;
            }
        }
        FlowResult {
            info: self.sender.info(),
            finished_at: self.q.now(),
            path_stats: self.path.stats,
            writes: self.writes,
            trace: self.trace,
        }
    }

    fn on_app_write(&mut self, now: Nanos, idx: usize) {
        let seq_start = self.sender.app_limit();
        let w = &mut self.writes[idx];
        w.seq_start = seq_start;
        w.seq_end = seq_start + w.bytes;
        w.bytes_in_flight_at_write = self.sender.bytes_in_flight();
        w.prev_unsent_at_write = self.sender.has_unsent_data();
        self.sender.enqueue(w.bytes);
        self.try_send(now);
    }

    fn try_send(&mut self, now: Nanos) {
        loop {
            if self.pacing && now < self.next_send_at {
                // Not our turn yet; wake up when it is.
                self.q.schedule(self.next_send_at, Event::PacedSend);
                break;
            }
            let Some(seg) = self.sender.next_segment(now) else { break };
            if !seg.retx {
                self.note_departure(now, seg.seq, seg.len);
            }
            if let Some(tr) = &mut self.trace {
                tr.push(TraceEvent::Send { t: now, seq: seg.seq, len: seg.len, retx: seg.retx });
            }
            match self.path.transmit(now, seg.len, &mut self.rng) {
                Some(delivery) => {
                    self.q.schedule(delivery, Event::Arrive { seq: seg.seq, len: seg.len });
                }
                None => {
                    if let Some(tr) = &mut self.trace {
                        tr.push(TraceEvent::Drop { t: now, seq: seg.seq });
                    }
                }
            }
            if self.pacing {
                // Linux-style pacing: 2×cwnd per sRTT.
                let srtt = self.sender.rtt().srtt().unwrap_or(50 * 1_000_000).max(1);
                let rate = 2.0 * self.sender.cwnd() as f64 / srtt as f64; // bytes/ns
                let interval = (seg.len as f64 / rate) as Nanos;
                self.next_send_at = now + interval;
            }
        }
        if let Some(d) = self.sender.rto_deadline() {
            self.q.schedule(d.max(now), Event::Rto { deadline: d });
        }
    }

    /// Record instrumentation for a first-transmission segment departure.
    fn note_departure(&mut self, now: Nanos, seq: u64, len: u32) {
        let end = seq + len as u64;
        for w in &mut self.writes {
            if w.seq_end == 0 {
                continue; // not yet issued
            }
            // First byte of the write inside this segment → Wnic snapshot.
            if w.first_tx.is_none() && seq <= w.seq_start && w.seq_start < end {
                w.first_tx = Some((now, self.sender.cwnd()));
            }
            // Final byte of the write inside this segment → last packet.
            if w.last_seg_start.is_none() && seq < w.seq_end && w.seq_end <= end {
                w.last_seg_start = Some(seq);
                w.last_packet_bytes = Some((w.seq_end - seq) as u32);
            }
        }
    }

    fn on_arrive(&mut self, now: Nanos, seq: u64, len: u32) {
        if let Some(tr) = &mut self.trace {
            tr.push(TraceEvent::Deliver { t: now, seq });
        }
        match self.receiver.on_segment(now, seq, len) {
            AckAction::Now { cum_seq } => {
                let at = now + self.path.ack_delay();
                self.q.schedule(at, Event::AckArrive { cum: cum_seq });
            }
            AckAction::Delayed { deadline } => {
                self.q.schedule(deadline, Event::AckTimer { deadline });
            }
        }
    }

    fn on_ack_arrive(&mut self, now: Nanos, cum: u64) {
        if let Some(tr) = &mut self.trace {
            tr.push(TraceEvent::Ack { t: now, cum });
        }
        // Update write records before the sender mutates state.
        for i in self.ack_cursor..self.writes.len() {
            let w = &mut self.writes[i];
            if w.seq_end == 0 || w.seq_end > 0 && w.first_tx.is_none() {
                break; // not yet issued/transmitted; later writes aren't either
            }
            if let Some(ls) = w.last_seg_start {
                if w.t_second_last_ack.is_none() && cum >= ls {
                    w.t_second_last_ack = Some(now);
                }
            }
            if w.t_full_ack.is_none() && cum >= w.seq_end {
                w.t_full_ack = Some(now);
                self.pending_writes -= 1;
                if i == self.ack_cursor {
                    self.ack_cursor += 1;
                }
            }
        }
        self.sender.on_ack(now, cum.min(self.sender.snd_nxt()));
        self.try_send(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::LossModel;
    use edgeperf_tcp::{MILLISECOND, SECOND};

    fn ideal_path(bps: u64, rtt_ms: u64) -> PathConfig {
        PathConfig::ideal(bps, rtt_ms * MILLISECOND)
    }

    fn tcp() -> TcpConfig {
        TcpConfig::ns3_validation(10)
    }

    #[test]
    fn single_small_write_completes_in_one_rtt_ish() {
        let mut sim = FlowSim::new(tcp(), ideal_path(1_000_000_000, 60), 1);
        sim.schedule_write(0, 1_000);
        let res = sim.run(10 * SECOND);
        let w = res.writes[0];
        assert!(w.t_full_ack.is_some());
        // One packet over a fat pipe: done in ~RTT (+serialization).
        let t = w.t_full_ack.unwrap();
        assert!((60 * MILLISECOND..62 * MILLISECOND).contains(&t), "t = {t}");
        assert_eq!(w.first_tx.unwrap().1, tcp().initial_cwnd_bytes());
    }

    #[test]
    fn all_bytes_delivered_and_acked() {
        let mut sim = FlowSim::new(tcp(), ideal_path(10_000_000, 40), 2);
        sim.schedule_write(0, 300_000);
        let res = sim.run(60 * SECOND);
        assert!(res.writes[0].t_full_ack.is_some(), "did not finish");
        assert_eq!(res.info.bytes_acked, 300_000);
        assert_eq!(res.path_stats.lost_random, 0);
        assert_eq!(res.path_stats.lost_overflow, 0);
    }

    #[test]
    fn long_transfer_goodput_approaches_bottleneck() {
        let bw = 5_000_000u64;
        let mut sim = FlowSim::new(tcp(), ideal_path(bw, 40), 3);
        let bytes = 2_000_000u64;
        sim.schedule_write(0, bytes);
        let res = sim.run(120 * SECOND);
        let w = res.writes[0];
        let t = w.t_full_ack.expect("finished") - w.first_tx.unwrap().0;
        let goodput = bytes as f64 * 8.0 * SECOND as f64 / t as f64;
        // Should reach within 15% of the bottleneck (headers + slow start).
        assert!(goodput > bw as f64 * 0.85, "goodput = {goodput}");
        assert!(goodput < bw as f64 * 1.01, "goodput = {goodput} exceeds bottleneck");
    }

    #[test]
    fn min_rtt_close_to_propagation() {
        let mut sim = FlowSim::new(tcp(), ideal_path(10_000_000, 80), 4);
        sim.schedule_write(0, 50_000);
        let res = sim.run(60 * SECOND);
        let mr = res.info.min_rtt.expect("rtt sampled");
        assert!(mr >= 80 * MILLISECOND, "{mr}");
        assert!(mr < 95 * MILLISECOND, "{mr}");
    }

    #[test]
    fn second_to_last_ack_precedes_full_ack() {
        let mut sim = FlowSim::new(tcp(), ideal_path(2_000_000, 50), 5);
        sim.schedule_write(0, 100_000);
        let res = sim.run(60 * SECOND);
        let w = res.writes[0];
        let t2 = w.t_second_last_ack.unwrap();
        let tf = w.t_full_ack.unwrap();
        assert!(t2 <= tf);
        assert!(w.last_packet_bytes.unwrap() > 0);
        assert!(w.last_packet_bytes.unwrap() <= 1460);
    }

    #[test]
    fn writes_share_the_connection_window() {
        // Second write starts with the cwnd grown by the first.
        let mut sim = FlowSim::new(tcp(), ideal_path(50_000_000, 60), 6);
        sim.schedule_write(0, 30_000); // grows cwnd
        sim.schedule_write(2 * SECOND, 30_000);
        let res = sim.run(60 * SECOND);
        let w0 = res.writes[0].first_tx.unwrap().1;
        let w1 = res.writes[1].first_tx.unwrap().1;
        assert!(w1 > w0, "cwnd should persist and grow: {w0} → {w1}");
    }

    #[test]
    fn loss_triggers_retransmissions_and_recovery() {
        let path = PathConfig {
            bottleneck_bps: 10_000_000,
            one_way_propagation: 25 * MILLISECOND,
            queue_capacity_bytes: 1 << 24,
            loss: LossModel::bernoulli(0.02),
            ..Default::default()
        };
        let mut sim = FlowSim::new(tcp(), path, 7);
        sim.schedule_write(0, 500_000);
        let res = sim.run(300 * SECOND);
        assert!(res.writes[0].t_full_ack.is_some(), "flow must complete despite loss");
        assert!(res.info.retransmits > 0);
        assert_eq!(res.info.bytes_acked, 500_000);
    }

    #[test]
    fn heavy_loss_still_completes_via_rto() {
        let path = PathConfig {
            bottleneck_bps: 2_000_000,
            one_way_propagation: 50 * MILLISECOND,
            queue_capacity_bytes: 1 << 24,
            loss: LossModel::bernoulli(0.25),
            ..Default::default()
        };
        let mut sim = FlowSim::new(tcp(), path, 8);
        sim.schedule_write(0, 20_000);
        let res = sim.run(600 * SECOND);
        assert!(res.writes[0].t_full_ack.is_some(), "must complete under 25% loss");
    }

    #[test]
    fn shallow_queue_causes_overflow_drops() {
        let path = PathConfig {
            bottleneck_bps: 2_000_000,
            one_way_propagation: 40 * MILLISECOND,
            queue_capacity_bytes: 8_000, // ~5 packets
            loss: LossModel::None,
            ..Default::default()
        };
        let mut sim = FlowSim::new(tcp(), path, 9);
        sim.schedule_write(0, 400_000);
        let res = sim.run(600 * SECOND);
        assert!(res.writes[0].t_full_ack.is_some());
        assert!(res.path_stats.lost_overflow > 0, "burst must overflow the shallow queue");
    }

    #[test]
    fn back_to_back_writes_are_flagged() {
        let mut sim = FlowSim::new(tcp(), ideal_path(1_000_000, 100), 10);
        sim.schedule_write(0, 100_000);
        sim.schedule_write(MILLISECOND, 5_000); // while first still sending
        let res = sim.run(120 * SECOND);
        assert!(res.writes[1].prev_unsent_at_write);
        assert!(res.writes[1].bytes_in_flight_at_write > 0);
    }

    #[test]
    fn deterministic_with_same_seed() {
        let run = |seed| {
            let path = PathConfig {
                loss: LossModel::bernoulli(0.05),
                jitter_max: 3 * MILLISECOND,
                ..Default::default()
            };
            let mut sim = FlowSim::new(tcp(), path, seed);
            sim.schedule_write(0, 123_456);
            let r = sim.run(300 * SECOND);
            (r.finished_at, r.info.retransmits, r.writes[0].t_full_ack)
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn time_limit_stops_runaway() {
        let path = PathConfig {
            loss: LossModel::bernoulli(0.95), // nearly everything lost
            ..Default::default()
        };
        let mut sim = FlowSim::new(tcp(), path, 11);
        sim.schedule_write(0, 1_000_000);
        let res = sim.run(5 * SECOND);
        assert!(res.finished_at <= 6 * SECOND);
    }

    #[test]
    fn delayed_acks_inflate_small_write_completion() {
        // With delayed ACKs on and a single packet, the final ACK waits for
        // the delayed-ACK timer — exactly the distortion §3.2.5 corrects.
        let mut cfg = tcp();
        cfg.delayed_ack_disabled = false;
        let mut sim = FlowSim::new(cfg, ideal_path(1_000_000_000, 20), 12);
        sim.schedule_write(0, 500);
        let res = sim.run(10 * SECOND);
        let t = res.writes[0].t_full_ack.unwrap();
        assert!(t >= 20 * MILLISECOND + DELAYED_ACK_TIMEOUT, "t = {t}");
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use crate::fault::LossModel;
    use edgeperf_tcp::{MILLISECOND, SECOND};

    #[test]
    fn trace_captures_full_exchange() {
        let mut sim = FlowSim::new(
            TcpConfig::ns3_validation(10),
            PathConfig::ideal(10_000_000, 40 * MILLISECOND),
            1,
        );
        sim.enable_trace();
        sim.schedule_write(0, 10_000);
        let res = sim.run(60 * SECOND);
        let trace = res.trace.expect("trace enabled");
        // 7 segments out, 7 delivered, ACKs back, no drops.
        let sends = trace.count(|e| matches!(e, TraceEvent::Send { .. }));
        let delivers = trace.count(|e| matches!(e, TraceEvent::Deliver { .. }));
        assert_eq!(sends, 7);
        assert_eq!(delivers, 7);
        assert_eq!(trace.drops(), 0);
        assert!(trace.count(|e| matches!(e, TraceEvent::Ack { .. })) >= 4);
        // The transcript renders and mentions the final cumulative ACK.
        assert!(trace.render().contains("cum=10000"));
    }

    #[test]
    fn trace_records_drops_and_retransmissions() {
        let mut cfg = PathConfig::ideal(5_000_000, 40 * MILLISECOND);
        cfg.loss = LossModel::bernoulli(0.08);
        let mut sim = FlowSim::new(TcpConfig::ns3_validation(10), cfg, 7);
        sim.enable_trace();
        sim.schedule_write(0, 200_000);
        let res = sim.run(300 * SECOND);
        let trace = res.trace.unwrap();
        assert!(trace.drops() > 0, "8% loss must drop something");
        assert_eq!(trace.retransmissions() as u64, res.info.retransmits);
        // Conservation: every delivered segment was sent.
        let sends = trace.count(|e| matches!(e, TraceEvent::Send { .. }));
        let delivers = trace.count(|e| matches!(e, TraceEvent::Deliver { .. }));
        assert_eq!(sends, delivers + trace.drops());
    }

    #[test]
    fn tracing_off_by_default() {
        let mut sim = FlowSim::new(
            TcpConfig::ns3_validation(10),
            PathConfig::ideal(10_000_000, 40 * MILLISECOND),
            1,
        );
        sim.schedule_write(0, 1_000);
        assert!(sim.run(60 * SECOND).trace.is_none());
    }
}

#[cfg(test)]
mod pacing_tests {
    use super::*;
    use crate::fault::LossModel;
    use edgeperf_tcp::{MILLISECOND, SECOND};

    fn shallow_queue(pacing: bool, seed: u64) -> crate::path::PathStats {
        let tcp = TcpConfig { pacing, ..TcpConfig::ns3_validation(10) };
        let path = PathConfig {
            bottleneck_bps: 4_000_000,
            one_way_propagation: 30 * MILLISECOND,
            queue_capacity_bytes: 10_000, // ~6 packets
            loss: LossModel::None,
            ..Default::default()
        };
        let mut sim = FlowSim::new(tcp, path, seed);
        // A short, slow-start-dominated transfer: the IW10 burst alone
        // overflows the 6-packet queue; pacing spreads it across the RTT.
        sim.schedule_write(0, 30_000);
        let res = sim.run(600 * SECOND);
        assert!(res.writes[0].t_full_ack.is_some(), "must complete");
        res.path_stats
    }

    #[test]
    fn pacing_reduces_burst_overflow_drops() {
        let burst = shallow_queue(false, 1);
        let paced = shallow_queue(true, 1);
        assert!(
            paced.lost_overflow < burst.lost_overflow,
            "paced {} vs burst {}",
            paced.lost_overflow,
            burst.lost_overflow
        );
    }

    #[test]
    fn pacing_spreads_departures_in_time() {
        let run = |pacing: bool| {
            let tcp = TcpConfig { pacing, ..TcpConfig::ns3_validation(10) };
            let mut sim = FlowSim::new(tcp, PathConfig::ideal(50_000_000, 60 * MILLISECOND), 2);
            sim.enable_trace();
            sim.schedule_write(0, 14_600); // exactly one initial window
            let res = sim.run(60 * SECOND);
            let trace = res.trace.unwrap();
            let sends: Vec<u64> = trace
                .events()
                .iter()
                .filter_map(|e| match e {
                    TraceEvent::Send { t, .. } => Some(*t),
                    _ => None,
                })
                .collect();
            (sends.first().copied().unwrap(), sends.last().copied().unwrap())
        };
        let (b0, b9) = run(false);
        assert_eq!(b0, b9, "burst mode sends the window at one instant");
        let (p0, p9) = run(true);
        assert!(p9 > p0 + 10 * MILLISECOND, "paced sends spread out: {p0}..{p9}");
    }

    #[test]
    fn paced_flow_still_delivers_everything() {
        let tcp = TcpConfig { pacing: true, ..TcpConfig::ns3_validation(10) };
        let mut cfg = PathConfig::ideal(5_000_000, 40 * MILLISECOND);
        cfg.loss = LossModel::bernoulli(0.01);
        let mut sim = FlowSim::new(tcp, cfg, 3);
        sim.schedule_write(0, 400_000);
        let res = sim.run(600 * SECOND);
        assert_eq!(res.info.bytes_acked, 400_000);
    }
}
