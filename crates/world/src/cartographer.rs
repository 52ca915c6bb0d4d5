//! Cartographer: mapping client populations to PoPs (paper §2.1, \[56\]).
//!
//! The production system steers clients to PoPs via DNS and embedded
//! URLs, using performance measurements to pick the best ingress. The
//! model here captures the two properties the paper reports: clients
//! usually land on a nearby PoP (half of traffic within 500 km, 90%
//! within 2,500 km), and a minority spill to the second-best PoP (DNS
//! resolver mislocation, load balancing) — including cross-continent
//! serving where no nearby PoP exists (European PoPs serving Africa and
//! parts of Asia).

use crate::geo::{propagation_rtt_ms, GeoPoint};
use crate::topology::Pop;
use edgeperf_routing::PopId;
use rand::Rng;
use rand_chacha::ChaCha12Rng;

/// How clients are steered to PoPs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MappingPolicy {
    /// Always the latency-nearest PoP.
    Nearest,
    /// Nearest PoP, with a fraction of prefixes landing on the
    /// second-nearest (resolver mislocation / load shedding).
    NearestWithSpill {
        /// Fraction of prefixes mapped to the runner-up PoP.
        spill: f64,
    },
}

impl Default for MappingPolicy {
    fn default() -> Self {
        MappingPolicy::NearestWithSpill { spill: 0.12 }
    }
}

/// PoPs ranked by modelled propagation RTT to a location.
pub(crate) fn ranked_pops(pops: &[Pop], loc: GeoPoint) -> Vec<(&Pop, f64)> {
    let mut v: Vec<(&Pop, f64)> =
        pops.iter().map(|p| (p, propagation_rtt_ms(p.loc, loc))).collect();
    v.sort_by(|a, b| a.1.total_cmp(&b.1));
    v
}

/// Map a client cluster to its serving PoP under the policy.
pub(crate) fn map_cluster(
    pops: &[Pop],
    loc: GeoPoint,
    policy: MappingPolicy,
    rng: &mut ChaCha12Rng,
) -> PopId {
    let ranked = ranked_pops(pops, loc);
    assert!(!ranked.is_empty(), "no PoPs to map to");
    match policy {
        MappingPolicy::Nearest => ranked[0].0.id,
        MappingPolicy::NearestWithSpill { spill } => {
            if ranked.len() > 1 && rng.gen::<f64>() < spill {
                ranked[1].0.id
            } else {
                ranked[0].0.id
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geo::Continent;
    use crate::topology::{World, WorldConfig};
    use rand::SeedableRng;

    fn world_pops() -> Vec<Pop> {
        World::generate(WorldConfig::default()).pops
    }

    #[test]
    fn nearest_policy_picks_the_obvious_pop() {
        let pops = world_pops();
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        // A Berlin-ish client must land on a European PoP.
        let berlin = GeoPoint { lat: 52.5, lon: 13.4 };
        let id = map_cluster(&pops, berlin, MappingPolicy::Nearest, &mut rng);
        let pop = &pops[id.0 as usize];
        assert_eq!(pop.continent, Continent::Europe, "got {}", pop.name);
    }

    #[test]
    fn spill_fraction_is_respected() {
        let pops = world_pops();
        let mut rng = ChaCha12Rng::seed_from_u64(2);
        let sf = GeoPoint { lat: 37.7, lon: -122.4 };
        let n = 20_000;
        let mut spilled = 0;
        let nearest = map_cluster(&pops, sf, MappingPolicy::Nearest, &mut rng);
        for _ in 0..n {
            let id =
                map_cluster(&pops, sf, MappingPolicy::NearestWithSpill { spill: 0.2 }, &mut rng);
            if id != nearest {
                spilled += 1;
            }
        }
        let frac = spilled as f64 / n as f64;
        assert!((frac - 0.2).abs() < 0.02, "spill fraction = {frac}");
    }

    #[test]
    fn north_africa_is_served_from_europe() {
        // The paper: 2.1% of all traffic is European PoPs serving Africa.
        // Cairo's nearest PoP is European, not Johannesburg or Lagos.
        let pops = world_pops();
        let cairo = GeoPoint { lat: 30.0, lon: 31.2 };
        let ranked = ranked_pops(&pops, cairo);
        assert_eq!(ranked[0].0.continent, Continent::Europe, "got {}", ranked[0].0.name);
    }

    #[test]
    fn ranking_is_monotone_in_rtt() {
        let pops = world_pops();
        let tokyo = GeoPoint { lat: 35.7, lon: 139.7 };
        let ranked = ranked_pops(&pops, tokyo);
        assert_eq!(ranked[0].0.name, "Tokyo");
        for w in ranked.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn mapping_is_deterministic_per_seed() {
        let pops = world_pops();
        let loc = GeoPoint { lat: -23.5, lon: -46.6 };
        let a: Vec<PopId> = {
            let mut rng = ChaCha12Rng::seed_from_u64(9);
            (0..100).map(|_| map_cluster(&pops, loc, MappingPolicy::default(), &mut rng)).collect()
        };
        let b: Vec<PopId> = {
            let mut rng = ChaCha12Rng::seed_from_u64(9);
            (0..100).map(|_| map_cluster(&pops, loc, MappingPolicy::default(), &mut rng)).collect()
        };
        assert_eq!(a, b);
    }
}
