//! Deterministic session sampling (paper §2.2.2).
//!
//! Production servers "randomly select HTTP sessions to sample at a
//! defined rate". We hash the session identifier (SplitMix64 finalizer)
//! and compare against the rate, which gives a stable, coordination-free
//! decision: the same session id always yields the same verdict, and the
//! selected set is unbiased with respect to anything correlated with the
//! id's low bits.

/// SplitMix64 finalizer: a fast, well-mixed 64-bit hash. The one mixer
/// every seeded, stateless draw in the workspace goes through.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Should the session with this id be sampled at `rate` ∈ [0, 1]?
///
/// `salt` lets different deployments/experiments draw independent samples
/// from the same id space.
pub fn sample_session(session_id: u64, salt: u64, rate: f64) -> bool {
    assert!((0.0..=1.0).contains(&rate), "rate {rate}");
    if rate == 0.0 {
        return false;
    }
    if rate >= 1.0 {
        return true;
    }
    let h = splitmix64(session_id ^ splitmix64(salt));
    // Compare the top 53 bits against the rate for full f64 precision.
    let u = (h >> 11) as f64 / (1u64 << 53) as f64;
    u < rate
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(sample_session(12345, 1, 0.5), sample_session(12345, 1, 0.5));
    }

    #[test]
    fn rate_zero_and_one() {
        assert!(!sample_session(7, 0, 0.0));
        assert!(sample_session(7, 0, 1.0));
    }

    #[test]
    fn empirical_rate_matches() {
        for &rate in &[0.01, 0.1, 0.5] {
            let n = 200_000u64;
            let hits = (0..n).filter(|&id| sample_session(id, 9, rate)).count();
            let got = hits as f64 / n as f64;
            assert!((got - rate).abs() < 0.01, "rate {rate}: got {got}");
        }
    }

    #[test]
    fn different_salts_give_different_samples() {
        let n = 10_000u64;
        let a: Vec<bool> = (0..n).map(|id| sample_session(id, 1, 0.5)).collect();
        let b: Vec<bool> = (0..n).map(|id| sample_session(id, 2, 0.5)).collect();
        let agree = a.iter().zip(&b).filter(|(x, y)| x == y).count();
        // Independent draws agree ~50% of the time.
        assert!((agree as f64 / n as f64 - 0.5).abs() < 0.05);
    }

    #[test]
    fn sequential_ids_are_not_correlated() {
        // Runs of consecutive sampled ids should match a fair coin.
        let n = 100_000u64;
        let seq: Vec<bool> = (0..n).map(|id| sample_session(id, 3, 0.5)).collect();
        let transitions = seq.windows(2).filter(|w| w[0] != w[1]).count();
        let frac = transitions as f64 / (n - 1) as f64;
        assert!((frac - 0.5).abs() < 0.02, "transition fraction {frac}");
    }
}
