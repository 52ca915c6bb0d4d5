//! Edge-Fabric-style egress control (paper §2.2.3, [55]).
//!
//! Of the controller's two jobs only the measurement one is modelled:
//! **sampled sessions** are pinned to routes deterministically so the
//! dataset continuously covers the preferred route *and* the best
//! alternates, immune to the controller's shifts. The paper routes ≈47%
//! of sampled sessions via the best path and splits the rest across (by
//! default two) alternates. Detouring ordinary traffic off a hot
//! interconnect has no caller in the study; ROADMAP item 11 (a
//! performance-aware controller) is where it would come back.

/// Where a session was placed and why.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteChoice {
    /// Index into the policy-ranked route list (0 = preferred).
    pub rank: usize,
    /// True when the placement was a measurement pin (sampled session).
    pub pinned: bool,
}

/// Egress controller state for one PoP.
#[derive(Debug, Clone)]
pub struct EdgeFabric {
    /// Fraction of sampled sessions pinned to the preferred route.
    pub preferred_fraction: f64,
    /// Number of alternate routes to measure (the paper uses 2).
    pub alternates: usize,
}

impl Default for EdgeFabric {
    fn default() -> Self {
        EdgeFabric { preferred_fraction: 0.47, alternates: 2 }
    }
}

impl EdgeFabric {
    /// Pin a *sampled* session to a route rank. Deterministic in the
    /// session id: ≈`preferred_fraction` of sessions go to rank 0, the
    /// rest split evenly across ranks 1..=alternates (clamped to the
    /// routes actually available).
    pub fn pin_sampled(&self, session_id: u64, available_routes: usize) -> RouteChoice {
        assert!(available_routes > 0, "no routes");
        let h = splitmix64(session_id);
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        let rank = if u < self.preferred_fraction || available_routes == 1 {
            0
        } else {
            let alts = self.alternates.min(available_routes - 1).max(1);
            let slot = ((u - self.preferred_fraction) / (1.0 - self.preferred_fraction)
                * alts as f64) as usize;
            1 + slot.min(alts - 1)
        };
        RouteChoice { rank, pinned: true }
    }
}

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
        let ef = EdgeFabric::default();
        let n = 100_000u64;
        let mut counts = [0usize; 3];
        for id in 0..n {
            let c = ef.pin_sampled(id, 3);
            counts[c.rank] += 1;
            assert!(c.pinned);
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
        let ef = EdgeFabric::default();
        assert_eq!(ef.pin_sampled(777, 3), ef.pin_sampled(777, 3));
    }

    #[test]
    fn single_route_always_rank_zero() {
        let ef = EdgeFabric::default();
        for id in 0..100 {
            assert_eq!(ef.pin_sampled(id, 1).rank, 0);
        }
    }

    #[test]
    fn two_routes_use_one_alternate() {
        let ef = EdgeFabric::default();
        for id in 0..1000 {
            let r = ef.pin_sampled(id, 2).rank;
            assert!(r <= 1);
        }
    }
}
