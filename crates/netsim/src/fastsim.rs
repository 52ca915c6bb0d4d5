//! Round-based fast TCP transfer model for fleet-scale studies.
//!
//! Simulating hundreds of thousands of sessions packet-by-packet is
//! possible but slow; the global study (§§4–6 analogues) instead uses this
//! round-granularity model: each congestion-window round of a transfer is
//! one step. The model captures exactly the effects the estimator is
//! sensitive to — slow-start doubling by bytes ACKed, bottleneck
//! serialization, per-round RTT jitter, loss-triggered window reductions,
//! RTO on tail loss, and cwnd persistence across transactions — while
//! costing O(rounds) per transaction. An integration test
//! (`tests/fastsim_agreement.rs`) compares its agreement with the
//! packet-level [`crate::flow::FlowSim`].

use edgeperf_tcp::time::transmission_time;
use edgeperf_tcp::{Nanos, TcpConfig, MIN_RTO};
use rand::{Rng, RngCore};
use rand_chacha::ChaCha12Rng;

/// Ground-truth condition of a path for the duration of one transfer.
///
/// The world model re-samples these per 15-minute window (diurnal
/// congestion moves `standing_queue` and `loss`).
#[derive(Debug, Clone, Copy)]
pub struct PathState {
    /// Propagation RTT (both directions, no queueing).
    pub base_rtt: Nanos,
    /// Persistent queueing delay added to every round's RTT (congestion
    /// in the backbone creates a standing queue, §3.1).
    pub standing_queue: Nanos,
    /// Max extra per-round delay, uniform in [0, jitter_max].
    pub jitter_max: Nanos,
    /// Bottleneck bandwidth, bits/second.
    pub bottleneck_bps: u64,
    /// Per-packet loss probability.
    pub loss: f64,
}

impl PathState {
    /// The RTT floor this path can exhibit (what MinRTT converges to).
    pub fn rtt_floor(&self) -> Nanos {
        self.base_rtt + self.standing_queue
    }
}

/// Result of one fast-model transfer: the same instrumentation quantities
/// the packet-level [`crate::flow::WriteRecord`] yields.
#[derive(Debug, Clone, Copy)]
pub struct FastTransfer {
    /// Response bytes.
    pub bytes: u64,
    /// cwnd (bytes) when the first byte hit the wire.
    pub wnic: u32,
    /// First byte on wire → ACK of last byte.
    pub ttotal: Nanos,
    /// First byte on wire → ACK covering the second-to-last packet
    /// (the delayed-ACK-immune measurement endpoint).
    pub ttotal_second_last: Nanos,
    /// Bytes in the final packet.
    pub last_packet_bytes: u32,
    /// Smallest RTT sampled during the transfer.
    pub min_rtt_sample: Nanos,
    /// Number of window rounds used.
    pub rounds: u32,
    /// Rounds that experienced loss.
    pub loss_rounds: u32,
}

/// Per-connection state persisted across transactions in a session.
#[derive(Debug, Clone)]
pub struct FastFlow {
    cfg: TcpConfig,
    cwnd: u32,
    ssthresh: u32,
    /// Minimum RTT seen over the connection (the kernel MinRTT analogue).
    min_rtt: Option<Nanos>,
}

impl FastFlow {
    /// Fresh connection with the configured initial window.
    pub fn new(cfg: TcpConfig) -> Self {
        FastFlow { cwnd: cfg.initial_cwnd_bytes(), ssthresh: u32::MAX, cfg, min_rtt: None }
    }

    /// Current congestion window in bytes.
    pub fn cwnd(&self) -> u32 {
        self.cwnd
    }

    /// Connection-lifetime MinRTT, if any transfer has run.
    pub fn min_rtt(&self) -> Option<Nanos> {
        self.min_rtt
    }

    /// Transfer `bytes` over a path in condition `st`, advancing the
    /// connection's congestion state.
    pub fn transfer(&mut self, bytes: u64, st: &PathState, rng: &mut ChaCha12Rng) -> FastTransfer {
        assert!(bytes > 0);
        let mss = self.cfg.mss as u64;
        let hdr = 40u64;
        let wnic = self.cwnd;

        // Per-transfer constants, hoisted out of the round loop. The RNG
        // draw sequence below must stay bit-identical to the original
        // per-round code — determinism tests and every recorded experiment
        // depend on the stream.
        let floor = st.rtt_floor();
        let jitter_span = st.jitter_max.checked_add(1).expect("jitter_max overflows span");
        let one_minus_loss = 1.0 - st.loss;
        let lossy = st.loss > 0.0;
        // Multiplicative-decrease factor per algorithm: Reno 0.5,
        // CUBIC 0.7, BBR-lite none (model-based, loss-blind).
        let beta = match self.cfg.cc {
            edgeperf_tcp::CcAlgorithm::Reno => 0.5,
            edgeperf_tcp::CcAlgorithm::Cubic => 0.7,
            edgeperf_tcp::CcAlgorithm::BbrLite => 1.0,
        };

        let mut sent = 0u64;
        let mut t: Nanos = 0;
        let mut min_rtt = Nanos::MAX;
        let mut rounds = 0u32;
        let mut loss_rounds = 0u32;
        // Completion time of the final round (set on the last iteration).
        let mut t_done: Nanos = 0;

        while sent < bytes {
            rounds += 1;
            let chunk = (self.cwnd as u64).min(bytes - sent);
            let npkts = chunk.div_ceil(mss);
            // Uniform jitter by direct modulo: the same single `next_u64`
            // draw and value as `gen_range(0..=jitter_max)`, without the
            // generic path's u128 widening.
            let rtt = floor + if st.jitter_max > 0 { rng.next_u64() % jitter_span } else { 0 };
            min_rtt = min_rtt.min(rtt);
            let serialization = transmission_time(chunk + npkts * hdr, st.bottleneck_bps);

            // Loss-free paths skip both the powi and the draw (the draw
            // was already skipped before: `&&` short-circuited it).
            let lost = lossy && {
                let p_round_loss = 1.0 - one_minus_loss.powi(npkts as i32);
                rng.gen::<f64>() < p_round_loss
            };

            let cwnd_limited = chunk * 2 > self.cwnd as u64;
            if lost {
                loss_rounds += 1;
                let recovery = if npkts <= 3 {
                    // Too few packets for dup-ACK recovery: RTO path
                    // (even BBR restarts after a tail timeout).
                    self.ssthresh = ((self.cwnd as f64 * beta) as u32).max(2 * self.cfg.mss);
                    self.cwnd = self.cfg.mss;
                    MIN_RTO.max(rtt)
                } else {
                    // Fast retransmit: one extra round, beta decrease.
                    self.ssthresh = ((self.cwnd as f64 * beta) as u32).max(2 * self.cfg.mss);
                    self.cwnd = self.ssthresh;
                    rtt
                };
                t_done = t + serialization + rtt + recovery;
                t += rtt.max(serialization) + recovery;
            } else {
                t_done = t + serialization + rtt;
                t += rtt.max(serialization);
                if cwnd_limited {
                    if self.cwnd < self.ssthresh {
                        // Byte-counted slow start, clamped at ssthresh.
                        let grown = (self.cwnd as u64 + chunk).min(self.ssthresh as u64);
                        self.cwnd = grown as u32;
                    } else {
                        // Congestion avoidance: +MSS per cwnd of ACKed data.
                        let inc = (mss * chunk / self.cwnd as u64) as u32;
                        self.cwnd = self.cwnd.saturating_add(inc);
                    }
                }
            }
            sent += chunk;
        }

        let last_packet_bytes = (((bytes - 1) % mss) + 1) as u32;
        let last_pkt_ser = transmission_time(last_packet_bytes as u64 + hdr, st.bottleneck_bps);
        let min_rtt = if min_rtt == Nanos::MAX { floor } else { min_rtt };
        self.min_rtt = Some(self.min_rtt.map_or(min_rtt, |m| m.min(min_rtt)));

        FastTransfer {
            bytes,
            wnic,
            ttotal: t_done,
            ttotal_second_last: t_done.saturating_sub(last_pkt_ser),
            last_packet_bytes,
            min_rtt_sample: min_rtt,
            rounds,
            loss_rounds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgeperf_tcp::{MILLISECOND, SECOND};
    use rand::SeedableRng;

    fn clean(bps: u64, rtt_ms: u64) -> PathState {
        PathState {
            base_rtt: rtt_ms * MILLISECOND,
            standing_queue: 0,
            jitter_max: 0,
            bottleneck_bps: bps,
            loss: 0.0,
        }
    }

    fn rng() -> ChaCha12Rng {
        ChaCha12Rng::seed_from_u64(9)
    }

    #[test]
    fn single_round_transfer_takes_one_rtt() {
        let mut f = FastFlow::new(TcpConfig::ns3_validation(10));
        let tr = f.transfer(1_000, &clean(1_000_000_000, 60), &mut rng());
        assert_eq!(tr.rounds, 1);
        assert!(tr.ttotal >= 60 * MILLISECOND && tr.ttotal < 61 * MILLISECOND);
        assert_eq!(tr.wnic, 14_600);
    }

    #[test]
    fn slow_start_round_count_matches_formula() {
        // 100 kB with IW10 (14.6 kB): rounds 14.6 + 29.2 + 58.4 → 3 rounds
        // would carry 102 kB, so expect 3 rounds.
        let mut f = FastFlow::new(TcpConfig::ns3_validation(10));
        let tr = f.transfer(100_000, &clean(1_000_000_000, 50), &mut rng());
        assert_eq!(tr.rounds, 3);
    }

    #[test]
    fn cwnd_persists_across_transactions() {
        let mut f = FastFlow::new(TcpConfig::ns3_validation(10));
        let st = clean(100_000_000, 40);
        let w0 = f.cwnd();
        f.transfer(100_000, &st, &mut rng());
        assert!(f.cwnd() > w0);
        let tr2 = f.transfer(1_000, &st, &mut rng());
        assert_eq!(tr2.wnic, f.cwnd(), "wnic reflects grown window");
    }

    #[test]
    fn app_limited_transfer_does_not_grow_cwnd() {
        let mut f = FastFlow::new(TcpConfig::ns3_validation(10));
        let w0 = f.cwnd();
        f.transfer(1_000, &clean(100_000_000, 40), &mut rng());
        assert_eq!(f.cwnd(), w0);
    }

    #[test]
    fn long_transfer_goodput_near_bottleneck() {
        let bw = 5_000_000u64;
        let mut f = FastFlow::new(TcpConfig::ns3_validation(10));
        let bytes = 3_000_000u64;
        let tr = f.transfer(bytes, &clean(bw, 40), &mut rng());
        let goodput = bytes as f64 * 8.0 * SECOND as f64 / tr.ttotal as f64;
        assert!(goodput > bw as f64 * 0.80, "goodput = {goodput}");
        assert!(goodput <= bw as f64 * 1.0, "goodput = {goodput}");
    }

    #[test]
    fn loss_slows_transfers_down() {
        let st_clean = clean(10_000_000, 50);
        let st_lossy = PathState { loss: 0.02, ..st_clean };
        let mut sum_clean = 0u128;
        let mut sum_lossy = 0u128;
        for seed in 0..50 {
            let mut r = ChaCha12Rng::seed_from_u64(seed);
            let mut f = FastFlow::new(TcpConfig::ns3_validation(10));
            sum_clean += f.transfer(500_000, &st_clean, &mut r).ttotal as u128;
            let mut f = FastFlow::new(TcpConfig::ns3_validation(10));
            sum_lossy += f.transfer(500_000, &st_lossy, &mut r).ttotal as u128;
        }
        assert!(sum_lossy > sum_clean * 5 / 4, "loss must cost ≥25%: {sum_lossy} vs {sum_clean}");
    }

    #[test]
    fn tail_loss_on_tiny_transfer_costs_an_rto() {
        // Force certain loss on a 2-packet transfer → RTO (≥ 200 ms).
        let st = PathState { loss: 1.0, ..clean(10_000_000, 20) };
        let mut f = FastFlow::new(TcpConfig::ns3_validation(10));
        let tr = f.transfer(2_000, &st, &mut rng());
        assert!(tr.ttotal >= 200 * MILLISECOND, "ttotal = {}", tr.ttotal);
        assert_eq!(tr.loss_rounds, 1);
        assert_eq!(f.cwnd(), 1460, "window collapses after RTO");
    }

    #[test]
    fn standing_queue_raises_min_rtt() {
        let st = PathState { standing_queue: 30 * MILLISECOND, ..clean(10_000_000, 40) };
        let mut f = FastFlow::new(TcpConfig::ns3_validation(10));
        let tr = f.transfer(10_000, &st, &mut rng());
        assert_eq!(tr.min_rtt_sample, 70 * MILLISECOND);
    }

    #[test]
    fn jitter_never_reduces_below_floor() {
        let st = PathState { jitter_max: 20 * MILLISECOND, ..clean(10_000_000, 40) };
        let mut r = rng();
        for _ in 0..100 {
            let mut f = FastFlow::new(TcpConfig::ns3_validation(10));
            let tr = f.transfer(50_000, &st, &mut r);
            assert!(tr.min_rtt_sample >= 40 * MILLISECOND);
            assert!(tr.min_rtt_sample <= 60 * MILLISECOND);
        }
    }

    #[test]
    fn second_last_endpoint_is_earlier_by_one_serialization() {
        let st = clean(2_000_000, 50);
        let mut f = FastFlow::new(TcpConfig::ns3_validation(10));
        let tr = f.transfer(100_000, &st, &mut rng());
        assert!(tr.ttotal_second_last < tr.ttotal);
        let gap = tr.ttotal - tr.ttotal_second_last;
        // Gap = serialization of the final packet (+ header) at 2 Mbps.
        let expect = transmission_time(tr.last_packet_bytes as u64 + 40, 2_000_000);
        assert_eq!(gap, expect);
    }

    #[test]
    fn deterministic_per_seed() {
        let st = PathState { loss: 0.05, jitter_max: 5 * MILLISECOND, ..clean(8_000_000, 45) };
        let run = |seed| {
            let mut r = ChaCha12Rng::seed_from_u64(seed);
            let mut f = FastFlow::new(TcpConfig::default());
            f.transfer(200_000, &st, &mut r).ttotal
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn last_packet_bytes_is_exact() {
        let st = clean(10_000_000, 30);
        let mut f = FastFlow::new(TcpConfig::ns3_validation(10));
        // 3000 bytes = 1460 + 1460 + 80.
        let tr = f.transfer(3_000, &st, &mut rng());
        assert_eq!(tr.last_packet_bytes, 80);
        // Exactly 2 MSS → last packet is a full MSS.
        let tr = f.transfer(2_920, &st, &mut rng());
        assert_eq!(tr.last_packet_bytes, 1460);
    }
}

#[cfg(test)]
mod cc_tests {
    use super::*;
    use edgeperf_tcp::{CcAlgorithm, MILLISECOND};
    use rand::SeedableRng;

    fn lossy_total(cc: CcAlgorithm) -> u128 {
        let st = PathState {
            base_rtt: 50 * MILLISECOND,
            standing_queue: 0,
            jitter_max: 0,
            bottleneck_bps: 10_000_000,
            loss: 0.015,
        };
        let mut sum = 0u128;
        for seed in 0..40 {
            let mut rng = ChaCha12Rng::seed_from_u64(seed);
            let mut f = FastFlow::new(TcpConfig { cc, ..TcpConfig::default() });
            sum += f.transfer(600_000, &st, &mut rng).ttotal as u128;
        }
        sum
    }

    #[test]
    fn loss_response_ordering_matches_algorithms() {
        let reno = lossy_total(CcAlgorithm::Reno);
        let cubic = lossy_total(CcAlgorithm::Cubic);
        let bbr = lossy_total(CcAlgorithm::BbrLite);
        assert!(bbr < reno, "BBR must beat Reno under loss: {bbr} vs {reno}");
        assert!(cubic <= reno, "CUBIC must not be slower than Reno: {cubic} vs {reno}");
    }

    #[test]
    fn clean_paths_are_cc_agnostic() {
        let st = PathState {
            base_rtt: 50 * MILLISECOND,
            standing_queue: 0,
            jitter_max: 0,
            bottleneck_bps: 10_000_000,
            loss: 0.0,
        };
        let mut times = Vec::new();
        for cc in [CcAlgorithm::Reno, CcAlgorithm::Cubic, CcAlgorithm::BbrLite] {
            let mut rng = ChaCha12Rng::seed_from_u64(1);
            let mut f = FastFlow::new(TcpConfig { cc, ..TcpConfig::default() });
            times.push(f.transfer(200_000, &st, &mut rng).ttotal);
        }
        assert_eq!(times[0], times[1]);
        assert_eq!(times[1], times[2]);
    }
}
