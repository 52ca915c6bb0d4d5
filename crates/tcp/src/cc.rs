//! Congestion-control algorithms: Reno and CUBIC.
//!
//! Growth is byte-counted (ABC, RFC 3465 / Linux behaviour): slow start
//! grows the cwnd by the number of bytes ACKed, not per-ACK — the paper's
//! footnote 3 calls this out as the behaviour its model must match.

use crate::time::{Nanos, SECOND};

/// Which congestion-control algorithm a connection runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CcAlgorithm {
    /// NewReno-style AIMD.
    Reno,
    /// CUBIC (RFC 8312) with β = 0.7, C = 0.4.
    Cubic,
    /// Simplified BBR: rate-model-based, loss-insensitive.
    BbrLite,
}

/// Common interface the sender drives.
///
/// All window quantities are in **bytes**. The sender guarantees calls are
/// monotone in `now`.
pub(crate) trait CongestionControl {
    /// Bytes newly acknowledged while in slow start; returns the cwnd
    /// increment in bytes.
    fn on_ack_slow_start(&mut self, acked: u32, cwnd: u32) -> u32;

    /// Bytes newly acknowledged in congestion avoidance; returns the cwnd
    /// increment in bytes.
    fn on_ack_avoidance(&mut self, now: Nanos, acked: u32, cwnd: u32, min_rtt: Nanos) -> u32;

    /// A loss event (fast retransmit). Returns `(ssthresh, cwnd)` in bytes.
    fn on_loss(&mut self, now: Nanos, cwnd: u32) -> (u32, u32);

    /// A retransmission timeout. Returns `(ssthresh, cwnd)` in bytes.
    fn on_timeout(&mut self, now: Nanos, cwnd: u32, mss: u32) -> (u32, u32);
}

/// NewReno AIMD: ×0.5 on loss, +1 MSS per RTT in avoidance.
#[derive(Debug, Clone)]
pub struct Reno {
    mss: u32,
    /// Fractional cwnd credit accumulated in congestion avoidance.
    avoid_credit: u64,
}

impl Reno {
    /// New Reno instance for a connection with the given MSS.
    pub fn new(mss: u32) -> Self {
        Reno { mss, avoid_credit: 0 }
    }
}

impl CongestionControl for Reno {
    fn on_ack_slow_start(&mut self, acked: u32, _cwnd: u32) -> u32 {
        acked
    }

    fn on_ack_avoidance(&mut self, _now: Nanos, acked: u32, cwnd: u32, _min_rtt: Nanos) -> u32 {
        // cwnd += mss * acked / cwnd, accumulated to avoid losing
        // sub-byte increments on small ACKs.
        self.avoid_credit += self.mss as u64 * acked as u64;
        let inc = (self.avoid_credit / cwnd.max(1) as u64) as u32;
        self.avoid_credit %= cwnd.max(1) as u64;
        inc
    }

    fn on_loss(&mut self, _now: Nanos, cwnd: u32) -> (u32, u32) {
        let ssthresh = (cwnd / 2).max(2 * self.mss);
        (ssthresh, ssthresh)
    }

    fn on_timeout(&mut self, _now: Nanos, cwnd: u32, mss: u32) -> (u32, u32) {
        let ssthresh = (cwnd / 2).max(2 * self.mss);
        (ssthresh, mss)
    }
}

/// CUBIC (RFC 8312): window growth is a cubic function of time since the
/// last congestion event, scaled in MSS units.
#[derive(Debug, Clone)]
pub struct Cubic {
    mss: u32,
    /// Window (in segments) just before the last reduction.
    w_max: f64,
    /// Time of the last congestion event.
    epoch_start: Option<Nanos>,
    /// K: time (seconds) for the cubic to return to w_max.
    k: f64,
    /// Fractional segment credit.
    credit: f64,
}

const CUBIC_BETA: f64 = 0.7;
const CUBIC_C: f64 = 0.4;

impl Cubic {
    /// New CUBIC instance for a connection with the given MSS.
    pub fn new(mss: u32) -> Self {
        Cubic { mss, w_max: 0.0, epoch_start: None, k: 0.0, credit: 0.0 }
    }

    fn segments(&self, bytes: u32) -> f64 {
        bytes as f64 / self.mss as f64
    }

    fn w_cubic(&self, t_secs: f64) -> f64 {
        CUBIC_C * (t_secs - self.k).powi(3) + self.w_max
    }
}

impl CongestionControl for Cubic {
    fn on_ack_slow_start(&mut self, acked: u32, _cwnd: u32) -> u32 {
        acked
    }

    fn on_ack_avoidance(&mut self, now: Nanos, acked: u32, cwnd: u32, min_rtt: Nanos) -> u32 {
        let epoch = *self.epoch_start.get_or_insert(now);
        if self.w_max == 0.0 {
            // No loss yet: behave Reno-like until the first congestion event.
            self.w_max = self.segments(cwnd);
            self.k = 0.0;
        }
        let t = (now - epoch) as f64 / SECOND as f64;
        let rtt = (min_rtt.max(1)) as f64 / SECOND as f64;
        let target = self.w_cubic(t + rtt);
        let cwnd_seg = self.segments(cwnd);
        // Standard CUBIC pacing of growth toward the target over one RTT,
        // proportional to bytes ACKed.
        let per_ack = if target > cwnd_seg {
            (target - cwnd_seg) / cwnd_seg
        } else {
            // TCP-friendly floor: at least Reno-rate growth.
            0.01 / cwnd_seg
        };
        self.credit += per_ack * self.segments(acked) / self.segments(self.mss);
        let whole = self.credit.floor();
        self.credit -= whole;
        (whole * self.mss as f64) as u32
    }

    fn on_loss(&mut self, now: Nanos, cwnd: u32) -> (u32, u32) {
        let cwnd_seg = self.segments(cwnd);
        // Fast convergence: if below the previous w_max, shrink it further.
        self.w_max =
            if cwnd_seg < self.w_max { cwnd_seg * (1.0 + CUBIC_BETA) / 2.0 } else { cwnd_seg };
        self.epoch_start = Some(now);
        self.k = (self.w_max * (1.0 - CUBIC_BETA) / CUBIC_C).cbrt();
        let new = ((cwnd_seg * CUBIC_BETA) * self.mss as f64) as u32;
        let new = new.max(2 * self.mss);
        (new, new)
    }

    fn on_timeout(&mut self, now: Nanos, cwnd: u32, mss: u32) -> (u32, u32) {
        let (ssthresh, _) = self.on_loss(now, cwnd);
        (ssthresh, mss)
    }
}

/// Construct the configured algorithm.
pub(crate) fn make_cc(algo: CcAlgorithm, mss: u32) -> Box<dyn CongestionControl + Send> {
    match algo {
        CcAlgorithm::Reno => Box::new(Reno::new(mss)),
        CcAlgorithm::Cubic => Box::new(Cubic::new(mss)),
        CcAlgorithm::BbrLite => Box::new(crate::bbr::BbrLite::new(mss)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::MILLISECOND;

    const MSS: u32 = 1460;

    #[test]
    fn reno_slow_start_doubles_per_rtt() {
        let mut cc = Reno::new(MSS);
        // ACKing a full cwnd in slow start doubles it.
        let cwnd = 10 * MSS;
        let inc = cc.on_ack_slow_start(cwnd, cwnd);
        assert_eq!(inc, cwnd);
    }

    #[test]
    fn reno_avoidance_grows_one_mss_per_rtt() {
        let mut cc = Reno::new(MSS);
        let cwnd = 20 * MSS;
        // ACK a full window's worth of bytes in avoidance: total growth
        // should be ~1 MSS.
        let mut total = 0;
        let mut acked = 0;
        while acked < cwnd {
            total += cc.on_ack_avoidance(0, MSS, cwnd, 50 * MILLISECOND);
            acked += MSS;
        }
        assert!((total as i64 - MSS as i64).unsigned_abs() < 10, "total = {total}");
    }

    #[test]
    fn reno_halves_on_loss() {
        let mut cc = Reno::new(MSS);
        let (ssthresh, cwnd) = cc.on_loss(0, 40 * MSS);
        assert_eq!(ssthresh, 20 * MSS);
        assert_eq!(cwnd, 20 * MSS);
    }

    #[test]
    fn reno_timeout_resets_to_one_mss() {
        let mut cc = Reno::new(MSS);
        let (ssthresh, cwnd) = cc.on_timeout(0, 40 * MSS, MSS);
        assert_eq!(ssthresh, 20 * MSS);
        assert_eq!(cwnd, MSS);
    }

    #[test]
    fn reno_loss_floor_is_two_mss() {
        let mut cc = Reno::new(MSS);
        let (ssthresh, _) = cc.on_loss(0, MSS);
        assert_eq!(ssthresh, 2 * MSS);
    }

    #[test]
    fn cubic_reduces_by_beta_on_loss() {
        let mut cc = Cubic::new(MSS);
        let (_, cwnd) = cc.on_loss(SECOND, 100 * MSS);
        let expected = (100.0 * CUBIC_BETA * MSS as f64) as u32;
        assert_eq!(cwnd, expected);
    }

    #[test]
    fn cubic_recovers_toward_w_max() {
        let mut cc = Cubic::new(MSS);
        let w0 = 100 * MSS;
        let (_, mut cwnd) = cc.on_loss(0, w0);
        // Simulate steady ACK clocking in avoidance for several seconds.
        let rtt = 50 * MILLISECOND;
        let mut now = 0;
        for _ in 0..200 {
            now += rtt;
            let mut acked = 0;
            while acked < cwnd {
                cwnd += cc.on_ack_avoidance(now, MSS, cwnd, rtt);
                acked += MSS;
            }
        }
        // After 10 simulated seconds CUBIC should be at or above w_max.
        assert!(cwnd >= w0, "cwnd = {} vs w_max = {}", cwnd / MSS, w0 / MSS);
    }

    #[test]
    fn cubic_growth_is_slow_near_w_max() {
        let mut cc = Cubic::new(MSS);
        let (_, cwnd_after) = cc.on_loss(0, 100 * MSS);
        // Immediately after loss, per-ACK growth must be small (plateau).
        let inc = cc.on_ack_avoidance(MILLISECOND, MSS, cwnd_after, 20 * MILLISECOND);
        assert!(inc <= MSS, "inc = {inc}");
    }

    #[test]
    fn make_cc_dispatches() {
        let mut r = make_cc(CcAlgorithm::Reno, MSS);
        assert_eq!(r.on_ack_slow_start(100, 14600), 100);
        let mut c = make_cc(CcAlgorithm::Cubic, MSS);
        assert_eq!(c.on_ack_slow_start(100, 14600), 100);
    }
}
