//! BBR-flavoured congestion control (model-based, loss-insensitive).
//!
//! The paper cites BBR (Cardwell et al. \[20\]) when discussing how loss
//! interacts with the congestion controller to determine goodput. This is
//! a deliberately simplified model-based controller in the window-driven
//! mould of this crate's `CongestionControl` trait:
//!
//! - it estimates the bottleneck bandwidth as the windowed maximum of the
//!   ACK delivery rate,
//! - targets `cwnd = gain × BtlBw × MinRTT` (gain 2 while probing),
//! - and — the property that matters to HDratio under loss — does **not**
//!   collapse the window on isolated losses; only an RTO resets it.
//!
//! It is *not* wire-accurate BBR (no pacing phases, no ProbeRTT); it is
//! the representative "rate-based, loss-tolerant" point in the CC design
//! space, for the `cc_comparison` bench/tests.

use crate::cc::CongestionControl;
use crate::time::{Nanos, SECOND};
use std::collections::VecDeque;

/// Simplified BBR: windowed-max bandwidth sampling, BDP-tracking window.
#[derive(Debug, Clone)]
pub struct BbrLite {
    mss: u32,
    /// (sample time, cumulative bytes acked) history for rate estimation.
    deliveries: VecDeque<(Nanos, u64)>,
    cum_acked: u64,
    /// Windowed max delivery rate, bytes/second.
    btl_bw: f64,
    /// When the current btl_bw sample expires (10 RTT window).
    bw_expiry: Nanos,
}

/// Gain applied to the BDP when sizing the window (startup/probing).
const CWND_GAIN: f64 = 2.0;
/// Bandwidth-sample lifetime, as a multiple of MinRTT.
const BW_WINDOW_RTTS: u64 = 10;

impl BbrLite {
    /// New instance for a connection with the given MSS.
    pub fn new(mss: u32) -> Self {
        BbrLite { mss, deliveries: VecDeque::new(), cum_acked: 0, btl_bw: 0.0, bw_expiry: 0 }
    }

    /// Current bottleneck-bandwidth estimate in bits/second.
    #[cfg(test)]
    fn btl_bw_bps(&self) -> f64 {
        self.btl_bw * 8.0
    }

    fn update_rate(&mut self, now: Nanos, acked: u32, min_rtt: Nanos) {
        self.cum_acked += acked as u64;
        self.deliveries.push_back((now, self.cum_acked));
        // Estimate over roughly one RTT of history.
        let horizon = now.saturating_sub(min_rtt.max(1));
        while self.deliveries.len() > 2
            && self.deliveries.front().is_some_and(|&(t, _)| t < horizon)
        {
            self.deliveries.pop_front();
        }
        if let (Some(&(t0, b0)), Some(&(t1, b1))) =
            (self.deliveries.front(), self.deliveries.back())
        {
            if t1 > t0 && b1 > b0 {
                let rate = (b1 - b0) as f64 * SECOND as f64 / (t1 - t0) as f64;
                if rate > self.btl_bw || now >= self.bw_expiry {
                    self.btl_bw = rate;
                    self.bw_expiry = now + BW_WINDOW_RTTS * min_rtt.max(1);
                }
            }
        }
    }

    fn target_cwnd(&self, min_rtt: Nanos, current: u32) -> u32 {
        if self.btl_bw == 0.0 {
            return current;
        }
        let bdp = self.btl_bw * min_rtt as f64 / SECOND as f64;
        ((bdp * CWND_GAIN) as u32).max(4 * self.mss)
    }
}

impl CongestionControl for BbrLite {
    fn on_ack_slow_start(&mut self, acked: u32, _cwnd: u32) -> u32 {
        // Startup: exponential growth like slow start; the rate estimator
        // fills in as ACKs arrive (driven via on_ack_avoidance in this
        // crate's sender only after ssthresh; BBR never sets ssthresh, so
        // slow-start growth keeps running until the window caps at BDP
        // via on_loss/on_ack_avoidance bounding).
        acked
    }

    fn on_ack_avoidance(&mut self, now: Nanos, acked: u32, cwnd: u32, min_rtt: Nanos) -> u32 {
        self.update_rate(now, acked, min_rtt);
        let target = self.target_cwnd(min_rtt, cwnd);
        if target > cwnd {
            // Move a quarter of the gap per ACK batch: fast but stable.
            ((target - cwnd) / 4).max(1)
        } else {
            0
        }
    }

    fn on_loss(&mut self, _now: Nanos, cwnd: u32) -> (u32, u32) {
        // Loss-insensitive: keep operating at the modelled BDP. Return
        // ssthresh just below cwnd so the sender leaves slow start and
        // growth is governed by the model from here on.
        let floor = (cwnd.max(4 * self.mss)).max(self.mss);
        (floor.saturating_sub(1).max(2 * self.mss), floor)
    }

    fn on_timeout(&mut self, _now: Nanos, cwnd: u32, mss: u32) -> (u32, u32) {
        // A real tail timeout: restart conservatively.
        self.btl_bw = 0.0;
        self.deliveries.clear();
        ((cwnd / 2).max(2 * mss), mss)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::MILLISECOND;

    const MSS: u32 = 1460;

    #[test]
    fn rate_estimator_converges() {
        let mut bbr = BbrLite::new(MSS);
        let min_rtt = 50 * MILLISECOND;
        // Deliver 1 MSS per ms → 1460 kB/s ≈ 11.7 Mbps.
        for i in 1..200u64 {
            bbr.on_ack_avoidance(i * MILLISECOND, MSS, 100 * MSS, min_rtt);
        }
        let est = bbr.btl_bw_bps();
        assert!((est - 11_680_000.0).abs() / 11_680_000.0 < 0.1, "est = {est}");
    }

    #[test]
    fn window_tracks_bdp() {
        let mut bbr = BbrLite::new(MSS);
        let min_rtt = 40 * MILLISECOND;
        let mut cwnd = 10 * MSS;
        for i in 1..400u64 {
            cwnd += bbr.on_ack_avoidance(i * MILLISECOND, MSS, cwnd, min_rtt);
        }
        // BDP at ~11.7 Mbps × 40 ms ≈ 58 kB; target = 2×BDP ≈ 117 kB.
        let bdp = bbr.btl_bw_bps() / 8.0 * min_rtt as f64 / SECOND as f64;
        let target = 2.0 * bdp;
        assert!(
            (cwnd as f64) > target * 0.7 && (cwnd as f64) < target * 1.4,
            "cwnd {} vs target {}",
            cwnd,
            target
        );
    }

    #[test]
    fn loss_does_not_collapse_window() {
        let mut bbr = BbrLite::new(MSS);
        for i in 1..100u64 {
            bbr.on_ack_avoidance(i * MILLISECOND, MSS, 60 * MSS, 30 * MILLISECOND);
        }
        let cwnd = 60 * MSS;
        let (_, after) = bbr.on_loss(SECOND, cwnd);
        assert!(after >= cwnd, "BBR must not multiplicatively decrease: {after} < {cwnd}");
    }

    #[test]
    fn timeout_resets_model() {
        let mut bbr = BbrLite::new(MSS);
        for i in 1..100u64 {
            bbr.on_ack_avoidance(i * MILLISECOND, MSS, 60 * MSS, 30 * MILLISECOND);
        }
        assert!(bbr.btl_bw_bps() > 0.0);
        let (_, cwnd) = bbr.on_timeout(SECOND, 60 * MSS, MSS);
        assert_eq!(cwnd, MSS);
        assert_eq!(bbr.btl_bw_bps(), 0.0);
    }

    #[test]
    fn window_stops_growing_past_target() {
        let mut bbr = BbrLite::new(MSS);
        let min_rtt = 20 * MILLISECOND;
        for i in 1..100u64 {
            bbr.on_ack_avoidance(i * MILLISECOND, MSS, 30 * MSS, min_rtt);
        }
        // Ask for growth far above the target: increment must be zero.
        let inc = bbr.on_ack_avoidance(200 * MILLISECOND, MSS, 10_000 * MSS, min_rtt);
        assert_eq!(inc, 0);
    }
}
