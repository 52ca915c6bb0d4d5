//! RTT estimation per RFC 6298 (srtt / rttvar / RTO) plus the running
//! minimum the paper's MinRTT metric is built from.

use crate::time::{Nanos, MILLISECOND, SECOND};

/// Smoothed RTT estimator with RTO computation.
#[derive(Debug, Clone)]
pub struct RttEstimator {
    srtt: Option<Nanos>,
    rttvar: Nanos,
    min_rtt: Option<Nanos>,
    min_rto: Nanos,
    /// Exponential backoff multiplier applied after consecutive timeouts.
    backoff: u32,
}

impl RttEstimator {
    /// New estimator with the given minimum RTO (Linux: 200 ms).
    pub fn new(min_rto: Nanos) -> Self {
        RttEstimator { srtt: None, rttvar: 0, min_rtt: None, min_rto, backoff: 0 }
    }

    /// Record an RTT sample (from a non-retransmitted segment, per Karn).
    pub fn on_sample(&mut self, rtt: Nanos) {
        self.min_rtt = Some(self.min_rtt.map_or(rtt, |m| m.min(rtt)));
        match self.srtt {
            None => {
                self.srtt = Some(rtt);
                self.rttvar = rtt / 2;
            }
            Some(srtt) => {
                let diff = srtt.abs_diff(rtt);
                // rttvar = 3/4 rttvar + 1/4 |srtt - rtt|
                self.rttvar = (3 * self.rttvar + diff) / 4;
                // srtt = 7/8 srtt + 1/8 rtt
                self.srtt = Some((7 * srtt + rtt) / 8);
            }
        }
        self.backoff = 0;
    }

    /// A retransmission timeout fired: double the RTO (capped).
    pub(crate) fn on_timeout(&mut self) {
        self.backoff = (self.backoff + 1).min(10);
    }

    /// Current retransmission timeout.
    pub(crate) fn rto(&self) -> Nanos {
        let base = match self.srtt {
            None => SECOND, // RFC 6298 initial RTO (1 s, conservative)
            Some(srtt) => srtt + (4 * self.rttvar).max(MILLISECOND),
        };
        let backed = base.saturating_mul(1 << self.backoff.min(30));
        backed.clamp(self.min_rto, 120 * SECOND)
    }

    /// Smoothed RTT, if any sample was taken.
    pub fn srtt(&self) -> Option<Nanos> {
        self.srtt
    }

    /// Minimum RTT observed over the connection's lifetime.
    pub fn min_rtt(&self) -> Option<Nanos> {
        self.min_rtt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_sample_initializes() {
        let mut e = RttEstimator::new(200 * MILLISECOND);
        e.on_sample(100 * MILLISECOND);
        assert_eq!(e.srtt(), Some(100 * MILLISECOND));
        assert_eq!(e.min_rtt(), Some(100 * MILLISECOND));
        // RTO = srtt + 4*rttvar = 100 + 200 = 300 ms.
        assert_eq!(e.rto(), 300 * MILLISECOND);
    }

    #[test]
    fn min_rtt_tracks_minimum() {
        let mut e = RttEstimator::new(200 * MILLISECOND);
        e.on_sample(100 * MILLISECOND);
        e.on_sample(50 * MILLISECOND);
        e.on_sample(150 * MILLISECOND);
        assert_eq!(e.min_rtt(), Some(50 * MILLISECOND));
    }

    #[test]
    fn srtt_smooths() {
        let mut e = RttEstimator::new(200 * MILLISECOND);
        e.on_sample(100 * MILLISECOND);
        e.on_sample(200 * MILLISECOND);
        // 7/8*100 + 1/8*200 = 112.5 ms
        assert_eq!(e.srtt(), Some(112_500_000));
    }

    #[test]
    fn rto_has_floor() {
        let mut e = RttEstimator::new(200 * MILLISECOND);
        e.on_sample(MILLISECOND);
        assert_eq!(e.rto(), 200 * MILLISECOND);
    }

    #[test]
    fn rto_backs_off_and_resets() {
        let mut e = RttEstimator::new(200 * MILLISECOND);
        e.on_sample(100 * MILLISECOND);
        let rto0 = e.rto();
        e.on_timeout();
        assert_eq!(e.rto(), rto0 * 2);
        e.on_timeout();
        assert_eq!(e.rto(), rto0 * 4);
        // A fresh sample resets the backoff (rttvar also decays, so the
        // new RTO is at or below the pre-backoff value).
        e.on_sample(100 * MILLISECOND);
        assert!(e.rto() <= rto0);
    }

    #[test]
    fn initial_rto_is_one_second() {
        let e = RttEstimator::new(200 * MILLISECOND);
        assert_eq!(e.rto(), SECOND);
    }
}
