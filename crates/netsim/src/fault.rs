//! Fault injection: packet-loss processes.
//!
//! Independent (Bernoulli) loss, as the NS3-style validation sweeps and
//! the ablations inject it.

use rand::Rng;

/// A packet-loss process. Stateful: call `LossModel::is_lost` once per
/// packet in transmission order.
#[derive(Debug, Clone)]
pub enum LossModel {
    /// No loss ever.
    None,
    /// Each packet lost independently with probability `p`.
    Bernoulli {
        /// Loss probability in [0, 1].
        p: f64,
    },
}

impl LossModel {
    /// Independent loss with probability `p`.
    pub fn bernoulli(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "loss probability {p}");
        if p == 0.0 {
            LossModel::None
        } else {
            LossModel::Bernoulli { p }
        }
    }

    /// Decide the fate of the next packet.
    pub(crate) fn is_lost<R: Rng>(&mut self, rng: &mut R) -> bool {
        match self {
            LossModel::None => false,
            LossModel::Bernoulli { p } => rng.gen::<f64>() < *p,
        }
    }
}

/// Token-bucket policer: packets that arrive with an empty bucket are
/// dropped (hard policing, not shaping). Rates in bits/second, burst in
/// bytes. The paper identifies policing as a key reason high-RTT clients
/// fail to sustain goodput.
#[derive(Debug, Clone)]
pub(crate) struct Policer {
    rate_bps: u64,
    burst_bytes: u64,
    tokens: f64,
    last_refill: edgeperf_tcp::Nanos,
}

impl Policer {
    /// New policer with a full bucket.
    pub fn new(rate_bps: u64, burst_bytes: u64) -> Self {
        assert!(rate_bps > 0 && burst_bytes > 0);
        Policer { rate_bps, burst_bytes, tokens: burst_bytes as f64, last_refill: 0 }
    }

    /// Offer a packet of `bytes` at time `now`; true = pass, false = drop.
    pub(crate) fn admit(&mut self, now: edgeperf_tcp::Nanos, bytes: u32) -> bool {
        let elapsed = now.saturating_sub(self.last_refill);
        self.last_refill = now;
        self.tokens = (self.tokens
            + elapsed as f64 * self.rate_bps as f64 / 8.0 / edgeperf_tcp::SECOND as f64)
            .min(self.burst_bytes as f64);
        if self.tokens >= bytes as f64 {
            self.tokens -= bytes as f64;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgeperf_tcp::{MILLISECOND, SECOND};
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng as SmallRng;

    #[test]
    fn none_never_loses() {
        let mut m = LossModel::None;
        let mut rng = SmallRng::seed_from_u64(1);
        assert!((0..1000).all(|_| !m.is_lost(&mut rng)));
    }

    #[test]
    fn bernoulli_rate_is_approximately_p() {
        let mut m = LossModel::bernoulli(0.1);
        let mut rng = SmallRng::seed_from_u64(42);
        let lost = (0..100_000).filter(|_| m.is_lost(&mut rng)).count();
        let rate = lost as f64 / 100_000.0;
        assert!((rate - 0.1).abs() < 0.01, "rate = {rate}");
    }

    #[test]
    fn bernoulli_zero_collapses_to_none() {
        assert!(matches!(LossModel::bernoulli(0.0), LossModel::None));
    }

    #[test]
    fn policer_admits_within_rate() {
        // 1 Mbps, 10 kB burst. Initial burst passes, sustained overload drops.
        let mut p = Policer::new(1_000_000, 10_000);
        assert!(p.admit(0, 5_000));
        assert!(p.admit(0, 5_000));
        assert!(!p.admit(0, 1_500)); // bucket empty
                                     // After 100 ms, 12.5 kB accrued (capped at 10 kB burst).
        assert!(p.admit(100 * MILLISECOND, 10_000));
        assert!(!p.admit(100 * MILLISECOND, 1));
    }

    #[test]
    fn policer_steady_state_rate() {
        let mut p = Policer::new(8_000_000, 2_000); // 1 MB/s
        let mut admitted = 0u64;
        for i in 0..10_000 {
            let t = i * (SECOND / 1000); // one packet per ms for 10 s
            if p.admit(t, 1_500) {
                admitted += 1_500;
            }
        }
        let rate = admitted as f64 / 10.0; // bytes/sec
        assert!((rate - 1_000_000.0).abs() < 50_000.0, "rate = {rate}");
    }
}
