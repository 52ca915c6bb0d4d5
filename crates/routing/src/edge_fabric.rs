//! Edge-Fabric-style egress control (paper §2.2.3, \[55\]).
//!
//! Of the controller's two jobs only the measurement one is modelled:
//! **sampled sessions** are pinned to routes deterministically so the
//! dataset continuously covers the preferred route *and* the best
//! alternates, immune to the controller's shifts. The paper routes ≈47%
//! of sampled sessions via the best path and splits the rest across two
//! alternates. Detouring ordinary traffic off a hot interconnect has no
//! caller in the study; ROADMAP item 12 (a performance-aware controller)
//! is where it would come back.

/// Fraction of sampled sessions pinned to the preferred route.
const PREFERRED_FRACTION: f64 = 0.47;

/// Alternate routes measured beside the preferred one.
const ALTERNATES: usize = 2;

/// Pin a *sampled* session to a route rank (0 = preferred), as an index
/// into the policy-ranked route list. Deterministic in the session id:
/// ≈`PREFERRED_FRACTION` of sessions go to rank 0, the rest split
/// evenly across ranks 1..=`ALTERNATES` (clamped to the routes actually
/// available).
pub fn pin_sampled(session_id: u64, available_routes: usize) -> usize {
    assert!(available_routes > 0, "no routes");
    let h = splitmix64(session_id);
    let u = (h >> 11) as f64 / (1u64 << 53) as f64;
    if u < PREFERRED_FRACTION || available_routes == 1 {
        return 0;
    }
    let alts = ALTERNATES.min(available_routes - 1).max(1);
    let slot = ((u - PREFERRED_FRACTION) / (1.0 - PREFERRED_FRACTION) * alts as f64) as usize;
    1 + slot.min(alts - 1)
}

/// `edgeperf_core::splitmix64`, copied: this crate depends on nothing.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_splits_as_configured() {
        let n = 100_000u64;
        let mut counts = [0usize; 3];
        for id in 0..n {
            counts[pin_sampled(id, 3)] += 1;
        }
        let f0 = counts[0] as f64 / n as f64;
        assert!((f0 - 0.47).abs() < 0.01, "preferred fraction {f0}");
        // Alternates split the rest roughly evenly.
        let f1 = counts[1] as f64 / n as f64;
        let f2 = counts[2] as f64 / n as f64;
        assert!((f1 - 0.265).abs() < 0.01, "{f1}");
        assert!((f2 - 0.265).abs() < 0.01, "{f2}");
    }

    #[test]
    fn pinning_is_deterministic() {
        assert_eq!(pin_sampled(777, 3), pin_sampled(777, 3));
    }

    #[test]
    fn single_route_always_rank_zero() {
        for id in 0..100 {
            assert_eq!(pin_sampled(id, 1), 0);
        }
    }

    #[test]
    fn two_routes_use_one_alternate() {
        for id in 0..1000 {
            assert!(pin_sampled(id, 2) <= 1);
        }
    }
}
