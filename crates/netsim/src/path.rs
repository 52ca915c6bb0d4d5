//! A one-bottleneck network path.
//!
//! Data direction: sender → [policer?] → bottleneck (FIFO drop-tail queue,
//! fixed service rate) → propagation (+ optional jitter) → receiver.
//! ACK direction: fixed propagation delay (ACKs are tiny and rarely the
//! constraint; the paper's model makes the same simplification — MinRTT
//! captures header transmission, §3.2.3 footnote 5).
//!
//! FIFO order is preserved even under jitter: a delivery is never scheduled
//! before the previous one, matching real single-path behaviour where
//! reordering is rare.

use crate::fault::{LossModel, Policer};
use edgeperf_tcp::time::transmission_time;
use edgeperf_tcp::Nanos;
use rand::Rng;
use rand_chacha::ChaCha12Rng;

/// Static configuration of a path.
#[derive(Debug, Clone)]
pub struct PathConfig {
    /// Bottleneck service rate, bits/second.
    pub bottleneck_bps: u64,
    /// One-way propagation delay (each direction); RTT = 2× this plus
    /// queueing and serialization.
    pub one_way_propagation: Nanos,
    /// Drop-tail queue capacity in bytes at the bottleneck.
    pub queue_capacity_bytes: u64,
    /// Loss process applied before the queue (random loss on the
    /// wire, distinct from queue overflow drops).
    pub loss: LossModel,
    /// Max extra per-packet delay (uniform in [0, jitter_max]).
    pub jitter_max: Nanos,
    /// Optional token-bucket policer in front of the queue.
    pub policer: Option<(u64, u64)>,
    /// Per-packet wire overhead (headers) in bytes, counted toward
    /// serialization at the bottleneck but not toward goodput.
    pub header_bytes: u32,
    /// Fraction of the bottleneck consumed by background cross-traffic
    /// (0 = dedicated link). The flow sees a proportionally slower
    /// service rate — the standing effect of sharing a saturated link.
    pub background_utilization: f64,
}

impl Default for PathConfig {
    fn default() -> Self {
        PathConfig {
            bottleneck_bps: 10_000_000,
            one_way_propagation: 25 * edgeperf_tcp::MILLISECOND,
            queue_capacity_bytes: 64 * 1024,
            loss: LossModel::None,
            jitter_max: 0,
            policer: None,
            header_bytes: 40,
            background_utilization: 0.0,
        }
    }
}

impl PathConfig {
    /// The paper's §3.2.3 validation grid point: a clean path with the
    /// given bottleneck and symmetric propagation RTT, no loss, no jitter,
    /// and a queue deep enough to never overflow (BDP-scaled) — "ideal
    /// network conditions".
    pub fn ideal(bottleneck_bps: u64, rtt: Nanos) -> Self {
        PathConfig {
            bottleneck_bps,
            one_way_propagation: rtt / 2,
            // Deep queue: ideal conditions must not drop.
            queue_capacity_bytes: 64 * 1024 * 1024,
            loss: LossModel::None,
            jitter_max: 0,
            policer: None,
            header_bytes: 40,
            background_utilization: 0.0,
        }
    }

    /// Effective service rate after background cross-traffic.
    pub(crate) fn effective_bps(&self) -> u64 {
        assert!(
            (0.0..1.0).contains(&self.background_utilization),
            "background utilization must be in [0, 1): {}",
            self.background_utilization
        );
        ((self.bottleneck_bps as f64) * (1.0 - self.background_utilization)).max(1.0) as u64
    }
}

/// Runtime state of a path (queue occupancy, policer bucket, loss state).
#[derive(Debug)]
pub struct Path {
    cfg: PathConfig,
    loss: LossModel,
    policer: Option<Policer>,
    /// Time the bottleneck server frees up.
    busy_until: Nanos,
    /// FIFO guard: no delivery earlier than the previous one.
    last_delivery: Nanos,
    /// Counters for diagnostics.
    pub stats: PathStats,
}

/// Per-path counters.
#[derive(Debug, Default, Clone, Copy)]
pub struct PathStats {
    /// Packets offered to the path.
    pub offered: u64,
    /// Packets dropped by the random-loss process.
    pub lost_random: u64,
    /// Packets dropped by queue overflow.
    pub lost_overflow: u64,
    /// Packets dropped by the policer.
    pub lost_policed: u64,
    /// Packets delivered.
    pub delivered: u64,
}

impl Path {
    /// Instantiate a path from its configuration.
    pub fn new(cfg: PathConfig) -> Self {
        let policer = cfg.policer.map(|(rate, burst)| Policer::new(rate, burst));
        Path {
            loss: cfg.loss.clone(),
            policer,
            busy_until: 0,
            last_delivery: 0,
            stats: PathStats::default(),
            cfg,
        }
    }

    /// Offer a data packet of `payload` bytes at `now`. Returns the
    /// delivery time at the receiver, or `None` if dropped.
    pub(crate) fn transmit(
        &mut self,
        now: Nanos,
        payload: u32,
        rng: &mut ChaCha12Rng,
    ) -> Option<Nanos> {
        self.stats.offered += 1;
        let wire_bytes = payload + self.cfg.header_bytes;

        if let Some(p) = &mut self.policer {
            if !p.admit(now, wire_bytes) {
                self.stats.lost_policed += 1;
                return None;
            }
        }
        if self.loss.is_lost(rng) {
            self.stats.lost_random += 1;
            return None;
        }

        // Queue occupancy is implied by how far ahead busy_until runs.
        let rate = self.cfg.effective_bps();
        let backlog_time = self.busy_until.saturating_sub(now);
        let backlog_bytes = backlog_time as u128 * rate as u128 / 8 / edgeperf_tcp::SECOND as u128;
        if backlog_bytes + wire_bytes as u128 > self.cfg.queue_capacity_bytes as u128 {
            self.stats.lost_overflow += 1;
            return None;
        }

        let start = self.busy_until.max(now);
        let done = start + transmission_time(wire_bytes as u64, rate);
        self.busy_until = done;

        let jitter =
            if self.cfg.jitter_max > 0 { rng.gen_range(0..=self.cfg.jitter_max) } else { 0 };
        let delivery = (done + self.cfg.one_way_propagation + jitter).max(self.last_delivery);
        self.last_delivery = delivery;
        self.stats.delivered += 1;
        Some(delivery)
    }

    /// Delay for an ACK travelling receiver → sender.
    pub(crate) fn ack_delay(&self) -> Nanos {
        self.cfg.one_way_propagation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgeperf_tcp::{MILLISECOND, SECOND};
    use rand::SeedableRng;

    fn rng() -> ChaCha12Rng {
        ChaCha12Rng::seed_from_u64(1)
    }

    #[test]
    fn lone_packet_takes_serialization_plus_propagation() {
        let mut p = Path::new(PathConfig {
            bottleneck_bps: 3_000_000,
            one_way_propagation: 30 * MILLISECOND,
            header_bytes: 0,
            ..Default::default()
        });
        // 1500 B at 3 Mbps = 4 ms serialization.
        let d = p.transmit(0, 1500, &mut rng()).unwrap();
        assert_eq!(d, 4 * MILLISECOND + 30 * MILLISECOND);
    }

    #[test]
    fn back_to_back_packets_queue() {
        let mut p = Path::new(PathConfig {
            bottleneck_bps: 3_000_000,
            one_way_propagation: 0,
            header_bytes: 0,
            ..Default::default()
        });
        let mut r = rng();
        let d1 = p.transmit(0, 1500, &mut r).unwrap();
        let d2 = p.transmit(0, 1500, &mut r).unwrap();
        assert_eq!(d1, 4 * MILLISECOND);
        assert_eq!(d2, 8 * MILLISECOND);
    }

    #[test]
    fn queue_overflow_drops() {
        let mut p = Path::new(PathConfig {
            bottleneck_bps: 1_000_000,
            one_way_propagation: 0,
            queue_capacity_bytes: 3_000,
            header_bytes: 0,
            ..Default::default()
        });
        let mut r = rng();
        // Capacity covers the in-service packet plus one queued packet.
        assert!(p.transmit(0, 1_500, &mut r).is_some()); // in service (backlog 1500)
        assert!(p.transmit(0, 1_500, &mut r).is_some()); // queued (backlog 3000)
        assert!(p.transmit(0, 1_500, &mut r).is_none()); // overflow
        assert_eq!(p.stats.lost_overflow, 1);
    }

    #[test]
    fn queue_drains_over_time() {
        let mut p = Path::new(PathConfig {
            bottleneck_bps: 1_000_000,
            one_way_propagation: 0,
            queue_capacity_bytes: 3_000,
            header_bytes: 0,
            ..Default::default()
        });
        let mut r = rng();
        for _ in 0..3 {
            p.transmit(0, 1_500, &mut r);
        }
        assert!(p.transmit(0, 1_500, &mut r).is_none());
        // 1500 B at 1 Mbps = 12 ms per packet; after 2 service times
        // there's room again.
        assert!(p.transmit(24 * MILLISECOND, 1_500, &mut r).is_some());
    }

    #[test]
    fn long_flow_throughput_matches_bottleneck() {
        let bw = 5_000_000u64;
        let mut p = Path::new(PathConfig {
            bottleneck_bps: bw,
            one_way_propagation: 10 * MILLISECOND,
            queue_capacity_bytes: 1 << 30,
            header_bytes: 0,
            ..Default::default()
        });
        let mut r = rng();
        let n = 10_000u64;
        let mut last = 0;
        for _ in 0..n {
            last = p.transmit(0, 1500, &mut r).unwrap();
        }
        let goodput = n as f64 * 1500.0 * 8.0 * SECOND as f64 / (last - 10 * MILLISECOND) as f64;
        assert!((goodput - bw as f64).abs() / (bw as f64) < 0.001, "goodput = {goodput}");
    }

    #[test]
    fn jitter_preserves_fifo() {
        let mut p = Path::new(PathConfig {
            bottleneck_bps: 1_000_000_000,
            one_way_propagation: MILLISECOND,
            jitter_max: 5 * MILLISECOND,
            header_bytes: 0,
            ..Default::default()
        });
        let mut r = rng();
        let mut prev = 0;
        for i in 0..500 {
            let d = p.transmit(i * 10_000, 100, &mut r).unwrap();
            assert!(d >= prev, "reordered: {d} < {prev}");
            prev = d;
        }
    }

    #[test]
    fn headers_count_toward_serialization() {
        let mut with = Path::new(PathConfig {
            bottleneck_bps: 1_000_000,
            one_way_propagation: 0,
            header_bytes: 40,
            ..Default::default()
        });
        let mut without = Path::new(PathConfig {
            bottleneck_bps: 1_000_000,
            one_way_propagation: 0,
            header_bytes: 0,
            ..Default::default()
        });
        let mut r = rng();
        let d_with = with.transmit(0, 1460, &mut r).unwrap();
        let d_without = without.transmit(0, 1460, &mut r).unwrap();
        assert!(d_with > d_without);
    }

    #[test]
    fn random_loss_is_counted() {
        let mut p = Path::new(PathConfig { loss: LossModel::bernoulli(0.5), ..Default::default() });
        let mut r = rng();
        let mut delivered = 0;
        for i in 0..1000 {
            if p.transmit(i * MILLISECOND, 100, &mut r).is_some() {
                delivered += 1;
            }
        }
        assert_eq!(p.stats.offered, 1000);
        assert_eq!(p.stats.delivered, delivered);
        assert!(p.stats.lost_random > 300 && p.stats.lost_random < 700);
    }

    #[test]
    fn policer_drops_excess() {
        let mut p = Path::new(PathConfig {
            bottleneck_bps: 100_000_000,
            policer: Some((1_000_000, 3_000)),
            header_bytes: 0,
            ..Default::default()
        });
        let mut r = rng();
        let mut passed = 0;
        for _ in 0..10 {
            if p.transmit(0, 1_500, &mut r).is_some() {
                passed += 1;
            }
        }
        assert_eq!(passed, 2); // only the burst allowance
        assert_eq!(p.stats.lost_policed, 8);
    }
}

#[cfg(test)]
mod cross_traffic_tests {
    use super::*;
    use edgeperf_tcp::MILLISECOND;
    use rand::SeedableRng;

    #[test]
    fn background_utilization_slows_service() {
        let mk = |u: f64| PathConfig {
            bottleneck_bps: 8_000_000,
            one_way_propagation: 0,
            header_bytes: 0,
            background_utilization: u,
            ..Default::default()
        };
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        let d_free = Path::new(mk(0.0)).transmit(0, 1_000, &mut rng).unwrap();
        let d_half = Path::new(mk(0.5)).transmit(0, 1_000, &mut rng).unwrap();
        assert_eq!(d_half, d_free * 2, "50% cross-traffic halves the service rate");
    }

    #[test]
    fn effective_rate_never_hits_zero() {
        let cfg = PathConfig { background_utilization: 0.999, ..Default::default() };
        assert!(cfg.effective_bps() >= 1);
    }

    #[test]
    fn whole_flow_sees_reduced_goodput() {
        use crate::flow::FlowSim;
        use edgeperf_tcp::{TcpConfig, SECOND};
        let run = |u: f64| {
            let mut cfg = PathConfig::ideal(10_000_000, 40 * MILLISECOND);
            cfg.background_utilization = u;
            let mut sim = FlowSim::new(TcpConfig::ns3_validation(10), cfg, 5);
            sim.schedule_write(0, 500_000);
            let res = sim.run(120 * SECOND);
            res.writes[0].t_full_ack.unwrap()
        };
        let t_free = run(0.0);
        let t_busy = run(0.6);
        assert!(
            t_busy as f64 > t_free as f64 * 1.6,
            "cross traffic must slow the transfer: {t_free} -> {t_busy}"
        );
    }
}
