//! Synthetic topology: PoPs, countries, ASes, prefixes, and route sets.
//!
//! Calibration targets (paper §4, Figure 6): median MinRTT below ~40 ms
//! globally, medians around 58/51/40 ms for Africa/Asia/South America and
//! ≈25 ms elsewhere; the fraction of sessions that can never sustain HD
//! (HDratio = 0) around 36%/24%/27% for AF/AS/SA via access-bandwidth
//! distributions; most users served by a nearby PoP, with African and
//! Asian clients sometimes served from Europe.

use crate::geo::{Continent, GeoPoint};
use edgeperf_routing::{
    prepended_more, AsPath, Asn, PopId, Prefix, Relationship, Rib, Route, RouteId,
};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

/// A point of presence.
#[derive(Debug, Clone)]
pub struct Pop {
    /// Identifier (index into `World::pops`).
    pub id: PopId,
    /// Metro name.
    pub name: &'static str,
    /// Continent the PoP is on.
    pub continent: Continent,
    /// Location.
    pub loc: GeoPoint,
}

/// One client population cluster behind a prefix.
#[derive(Debug, Clone, Copy)]
pub struct ClientCluster {
    /// Cluster location.
    pub loc: GeoPoint,
    /// UTC offset of the cluster's local time, hours.
    pub utc_offset: i8,
}

/// Ground truth for one candidate egress route.
#[derive(Debug, Clone)]
pub struct RouteGt {
    /// The BGP-visible route (relationship, AS path).
    pub route: Route,
    /// Extra RTT vs the geographic path, milliseconds.
    pub penalty_ms: f64,
    /// Baseline random loss on the route.
    pub base_loss: f64,
    /// Probability per day of an episodic congestion event.
    pub episodic_prone: f64,
    /// AS path longer than the preferred route's (annotation).
    pub longer_path: bool,
    /// Prepended more than the preferred route (annotation).
    pub more_prepended: bool,
}

/// A destination prefix and everything behind it.
#[derive(Debug, Clone)]
pub struct PrefixSite {
    /// The BGP prefix.
    pub prefix: Prefix,
    /// Origin AS.
    pub asn: Asn,
    /// Country index (into `World::country_names`).
    pub country: u16,
    /// Continent.
    pub continent: Continent,
    /// Serving PoP chosen by the Cartographer model.
    pub pop: PopId,
    /// Relative traffic weight (sessions scale with this).
    pub weight: f64,
    /// Client clusters (usually one; two → the Figure-5 effect).
    pub clusters: Vec<ClientCluster>,
    /// Median client access bandwidth, bits/second.
    pub access_bw_median_bps: f64,
    /// Log-sigma of the access bandwidth distribution.
    pub access_bw_sigma: f64,
    /// Last-mile latency added to every path, milliseconds.
    pub last_mile_ms: f64,
    /// Per-round jitter ceiling, milliseconds.
    pub jitter_max_ms: f64,
    /// Severity (0–1) of diurnal destination-side congestion.
    pub diurnal_severity: f64,
    /// A performance-enhancing proxy splits the TCP connection somewhere
    /// on the path (satellite / cellular networks, §2.2.1). The value is
    /// the fraction of the end-to-end RTT the server-side segment covers:
    /// measurements then reflect server→PEP, not end-to-end — MinRTT is
    /// underestimated and goodput overestimated relative to the user.
    pub pep_rtt_fraction: Option<f64>,
    /// Candidate routes, rank 0 = policy-preferred.
    pub routes: Vec<RouteGt>,
}

/// The generated Internet.
#[derive(Debug, Clone)]
pub struct World {
    /// All PoPs.
    pub pops: Vec<Pop>,
    /// All destination prefixes.
    pub prefixes: Vec<PrefixSite>,
    /// Country display names, indexed by `PrefixSite::country`.
    pub country_names: Vec<String>,
    /// What the world was generated from.
    pub config: WorldConfig,
}

/// Generation knobs.
#[derive(Debug, Clone, Copy)]
pub struct WorldConfig {
    /// Master seed.
    pub seed: u64,
    /// Keep only every `1/sample` of countries (1.0 = all) — the test
    /// scale knob.
    pub country_fraction: f64,
    /// Max ASes per country.
    pub max_ases_per_country: u32,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig { seed: 20190521, country_fraction: 1.0, max_ases_per_country: 3 }
    }
}

/// (name, continent, lat, lon) — a real-ish PoP footprint: densest in
/// EU/NA, sparse in AF/SA/OC, as the paper describes.
const POPS: &[(&str, Continent, f64, f64)] = &[
    ("Amsterdam", Continent::Europe, 52.4, 4.9),
    ("Frankfurt", Continent::Europe, 50.1, 8.7),
    ("London", Continent::Europe, 51.5, -0.1),
    ("Paris", Continent::Europe, 48.9, 2.4),
    ("Stockholm", Continent::Europe, 59.3, 18.1),
    ("Madrid", Continent::Europe, 40.4, -3.7),
    ("Milan", Continent::Europe, 45.5, 9.2),
    ("Ashburn", Continent::NorthAmerica, 39.0, -77.5),
    ("NewYork", Continent::NorthAmerica, 40.7, -74.0),
    ("Atlanta", Continent::NorthAmerica, 33.7, -84.4),
    ("Dallas", Continent::NorthAmerica, 32.8, -96.8),
    ("Chicago", Continent::NorthAmerica, 41.9, -87.6),
    ("PaloAlto", Continent::NorthAmerica, 37.4, -122.1),
    ("Seattle", Continent::NorthAmerica, 47.6, -122.3),
    ("LosAngeles", Continent::NorthAmerica, 34.1, -118.2),
    ("Singapore", Continent::Asia, 1.35, 103.8),
    ("Tokyo", Continent::Asia, 35.7, 139.7),
    ("HongKong", Continent::Asia, 22.3, 114.2),
    ("Mumbai", Continent::Asia, 19.1, 72.9),
    ("Seoul", Continent::Asia, 37.6, 127.0),
    ("SaoPaulo", Continent::SouthAmerica, -23.6, -46.6),
    ("BuenosAires", Continent::SouthAmerica, -34.6, -58.4),
    ("Johannesburg", Continent::Africa, -26.2, 28.0),
    ("Lagos", Continent::Africa, 6.5, 3.4),
    ("Sydney", Continent::Oceania, -33.9, 151.2),
];

/// (name, continent, lat, lon, utc_offset, weight) — traffic weights are
/// relative; continental sums approximate plausible shares of a global
/// service's traffic.
const COUNTRIES: &[(&str, Continent, f64, f64, i8, f64)] = &[
    // Europe (≈30%)
    ("Germany", Continent::Europe, 51.2, 10.4, 1, 5.5),
    ("UK", Continent::Europe, 54.0, -2.0, 0, 5.0),
    ("France", Continent::Europe, 46.6, 2.2, 1, 4.5),
    ("Netherlands", Continent::Europe, 52.2, 5.3, 1, 2.0),
    ("Spain", Continent::Europe, 40.3, -3.7, 1, 3.5),
    ("Italy", Continent::Europe, 42.8, 12.8, 1, 3.5),
    ("Poland", Continent::Europe, 52.1, 19.4, 1, 3.0),
    ("Sweden", Continent::Europe, 62.0, 15.0, 1, 1.5),
    ("Turkey", Continent::Europe, 39.0, 35.0, 3, 2.5),
    // North America (≈26%)
    ("US-East", Continent::NorthAmerica, 40.0, -79.0, -5, 8.0),
    ("US-Central", Continent::NorthAmerica, 39.0, -98.0, -6, 5.0),
    ("US-West", Continent::NorthAmerica, 37.0, -120.0, -8, 6.0),
    ("Canada", Continent::NorthAmerica, 48.0, -85.0, -5, 2.5),
    ("Mexico", Continent::NorthAmerica, 23.6, -102.5, -6, 4.0),
    // Asia (≈23%)
    ("India", Continent::Asia, 21.0, 78.0, 5, 6.0),
    ("Indonesia", Continent::Asia, -2.5, 118.0, 8, 4.0),
    ("Japan", Continent::Asia, 36.2, 138.2, 9, 2.5),
    ("Philippines", Continent::Asia, 12.9, 121.8, 8, 3.0),
    ("Thailand", Continent::Asia, 15.1, 101.0, 7, 2.0),
    ("Vietnam", Continent::Asia, 14.1, 108.3, 7, 2.0),
    ("Bangladesh", Continent::Asia, 23.7, 90.4, 6, 1.5),
    ("Pakistan", Continent::Asia, 30.4, 69.3, 5, 1.5),
    ("Taiwan", Continent::Asia, 23.7, 121.0, 8, 1.0),
    // South America (≈12%)
    ("Brazil", Continent::SouthAmerica, -14.2, -51.9, -3, 6.0),
    ("Argentina", Continent::SouthAmerica, -38.4, -63.6, -3, 2.0),
    ("Colombia", Continent::SouthAmerica, 4.6, -74.3, -5, 2.0),
    ("Chile", Continent::SouthAmerica, -35.7, -71.5, -4, 1.0),
    ("Peru", Continent::SouthAmerica, -9.2, -75.0, -5, 1.0),
    // Africa (≈6%)
    ("Nigeria", Continent::Africa, 9.1, 8.7, 1, 2.0),
    ("SouthAfrica", Continent::Africa, -30.6, 22.9, 2, 1.2),
    ("Egypt", Continent::Africa, 26.8, 30.8, 2, 1.5),
    ("Kenya", Continent::Africa, -0.0, 37.9, 3, 0.8),
    ("Ghana", Continent::Africa, 7.9, -1.0, 0, 0.5),
    // Oceania (≈3%)
    ("Australia", Continent::Oceania, -33.8, 150.5, 10, 2.2),
    ("NewZealand", Continent::Oceania, -40.9, 174.9, 12, 0.6),
];

/// Standard normal sample from the world RNG (Box–Muller).
pub(crate) fn normal_from(rng: &mut ChaCha12Rng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Access-network profile per continent:
/// (median bw bps, sigma, last-mile ms, jitter ms, peering probability).
fn access_profile(c: Continent) -> (f64, f64, f64, f64, f64) {
    match c {
        Continent::Africa => (4.4e6, 1.2, 20.0, 10.0, 0.35),
        Continent::Asia => (5.8e6, 1.2, 15.0, 8.0, 0.50),
        Continent::Europe => (11.0e6, 1.0, 6.0, 3.0, 0.80),
        Continent::NorthAmerica => (12.0e6, 1.0, 7.0, 3.5, 0.75),
        Continent::Oceania => (10.0e6, 1.0, 7.0, 3.0, 0.65),
        Continent::SouthAmerica => (5.6e6, 1.2, 9.0, 6.0, 0.50),
    }
}

impl World {
    /// Generate a world from the configuration.
    pub fn generate(cfg: WorldConfig) -> World {
        let mut rng = ChaCha12Rng::seed_from_u64(cfg.seed);
        let pops: Vec<Pop> = POPS
            .iter()
            .enumerate()
            .map(|(i, &(name, continent, lat, lon))| Pop {
                id: PopId(i as u16),
                name,
                continent,
                loc: GeoPoint { lat, lon },
            })
            .collect();

        let mut prefixes = Vec::new();
        let mut country_names = Vec::new();
        let mut next_asn = 64500u32;
        let mut next_block = 1u32; // /16 index

        for (ci, &(name, continent, lat, lon, utc, weight)) in COUNTRIES.iter().enumerate() {
            if cfg.country_fraction < 1.0 {
                // Deterministic thinning: keep the heaviest slice.
                let keep = (COUNTRIES.len() as f64 * cfg.country_fraction).ceil() as usize;
                if ci >= keep {
                    continue;
                }
            }
            let country_idx = country_names.len() as u16;
            country_names.push(name.to_string());
            let loc = GeoPoint { lat, lon };
            let (bw_med, bw_sigma, last_mile, jitter, peering_p) = access_profile(continent);

            let n_ases = rng.gen_range(2..=cfg.max_ases_per_country.max(2));
            for _ in 0..n_ases {
                let asn = Asn(next_asn);
                next_asn += 1;
                let n_prefixes = if rng.gen::<f64>() < 0.3 { 2 } else { 1 };
                for _ in 0..n_prefixes {
                    let prefix = Prefix::new(next_block << 16, 16);
                    next_block += 1;
                    let site = Self::make_site(
                        &mut rng,
                        &pops,
                        prefix,
                        asn,
                        country_idx,
                        continent,
                        loc,
                        utc,
                        weight / n_ases as f64,
                        (bw_med, bw_sigma, last_mile, jitter, peering_p),
                    );
                    prefixes.push(site);
                }
            }
        }
        World { pops, prefixes, country_names, config: cfg }
    }

    #[allow(clippy::too_many_arguments)]
    fn make_site(
        rng: &mut ChaCha12Rng,
        pops: &[Pop],
        prefix: Prefix,
        asn: Asn,
        country: u16,
        continent: Continent,
        loc: GeoPoint,
        utc: i8,
        weight: f64,
        (bw_med, bw_sigma, last_mile, jitter, peering_p): (f64, f64, f64, f64, f64),
    ) -> PrefixSite {
        // Scatter the cluster around the country centroid.
        let scatter = |rng: &mut ChaCha12Rng, s: f64| GeoPoint {
            lat: (loc.lat + rng.gen_range(-s..=s)).clamp(-60.0, 70.0),
            lon: loc.lon + rng.gen_range(-s..=s),
        };
        let mut clusters = vec![ClientCluster { loc: scatter(rng, 3.0), utc_offset: utc }];
        // ~4% of prefixes serve two widely separated clusters (Fig 5).
        if rng.gen::<f64>() < 0.04 {
            let far = GeoPoint {
                lat: (loc.lat + rng.gen_range(-12.0..=12.0)).clamp(-60.0, 70.0),
                lon: loc.lon + rng.gen_range(25.0..=45.0) * if rng.gen() { 1.0 } else { -1.0 },
            };
            let utc2 = utc + if far.lon > loc.lon { 2 } else { -2 };
            clusters.push(ClientCluster { loc: far, utc_offset: utc2 });
        }

        // Cartographer: nearest PoP with a spill minority (see
        // crate::cartographer for the policy).
        let pop_id = crate::cartographer::map_cluster(
            pops,
            clusters[0].loc,
            crate::cartographer::MappingPolicy::default(),
            rng,
        );
        let pop = &pops[pop_id.0 as usize];

        // Destination-side diurnal congestion: more common and more
        // severe where access infrastructure is thin.
        let diurnal_severity = match continent {
            Continent::Africa | Continent::SouthAmerica => {
                if rng.gen::<f64>() < 0.45 {
                    rng.gen_range(0.3..1.0)
                } else {
                    0.0
                }
            }
            Continent::Asia => {
                if rng.gen::<f64>() < 0.35 {
                    rng.gen_range(0.2..0.9)
                } else {
                    0.0
                }
            }
            _ => {
                if rng.gen::<f64>() < 0.15 {
                    rng.gen_range(0.1..0.5)
                } else {
                    0.0
                }
            }
        };

        // PEP deployment probability tracks cellular/satellite prevalence.
        let pep_p = match continent {
            Continent::Africa => 0.12,
            Continent::Asia => 0.10,
            Continent::SouthAmerica => 0.08,
            _ => 0.04,
        };
        let pep_rtt_fraction = (rng.gen::<f64>() < pep_p).then(|| rng.gen_range(0.35..0.7));

        let routes = Self::make_routes(rng, prefix, asn, peering_p);

        PrefixSite {
            prefix,
            asn,
            country,
            continent,
            pop: pop.id,
            weight: weight * rng.gen_range(0.5..1.5),
            clusters,
            // Heterogeneity lives mostly *across* prefixes (an ISP's
            // subscribers share access technology tiers); within a prefix
            // sessions are comparatively homogeneous. This is precisely
            // why the paper aggregates at prefix granularity (§3.3).
            access_bw_median_bps: bw_med
                * (bw_sigma * 0.8 * crate::topology::normal_from(rng)).exp(),
            access_bw_sigma: bw_sigma * 0.45,
            last_mile_ms: last_mile * rng.gen_range(0.7..1.4),
            jitter_max_ms: jitter * rng.gen_range(0.6..1.5),
            diurnal_severity,
            pep_rtt_fraction,
            routes,
        }
    }

    /// Build the candidate route set and rank it with the §6.1 policy.
    fn make_routes(
        rng: &mut ChaCha12Rng,
        prefix: Prefix,
        origin: Asn,
        peering_p: f64,
    ) -> Vec<RouteGt> {
        let mut candidates: Vec<RouteGt> = Vec::new();
        let mut id = 0u32;
        let mut push = |rng: &mut ChaCha12Rng,
                        candidates: &mut Vec<RouteGt>,
                        rel: Relationship,
                        path: Vec<Asn>,
                        penalty: f64,
                        base_loss: f64,
                        episodic: f64| {
            candidates.push(RouteGt {
                route: Route {
                    id: RouteId(id),
                    prefix,
                    as_path: AsPath(path),
                    relationship: rel,
                    capacity_bps: rng.gen_range(10..200) * 1_000_000_000,
                },
                penalty_ms: penalty,
                base_loss,
                episodic_prone: episodic,
                longer_path: false,
                more_prepended: false,
            });
            id += 1;
        };

        // Direct private peering (PNI).
        if rng.gen::<f64>() < peering_p {
            let pen = rng.gen_range(0.0..3.0);
            push(rng, &mut candidates, Relationship::PrivatePeer, vec![origin], pen, 0.0002, 0.02);
            // Sometimes a second PNI exists (another metro / a regional
            // aggregator that also peers privately) — the source of the
            // paper's private→private opportunity rows in Table 2.
            if rng.gen::<f64>() < 0.30 {
                let mut path = vec![Asn(6000 + rng.gen_range(0..40)), origin];
                if rng.gen::<f64>() < 0.2 {
                    path.push(origin);
                }
                let pen2 = rng.gen_range(0.5..6.0);
                push(rng, &mut candidates, Relationship::PrivatePeer, path, pen2, 0.0004, 0.04);
            }
        }
        // Public exchange peering, occasionally prepended.
        if rng.gen::<f64>() < 0.6 {
            let mut path = vec![origin];
            if rng.gen::<f64>() < 0.12 {
                path.push(origin); // origin prepending
            }
            let pen = rng.gen_range(0.5..6.0);
            push(rng, &mut candidates, Relationship::PublicPeer, path, pen, 0.0008, 0.04);
        }
        // Two transit providers; paths longer, penalties larger, and more
        // prone to congestion episodes. A small fraction of transits are
        // actually *shorter* than the peer path (the continuous
        // opportunity the paper finds, §6.2.1).
        for t in 0..2 {
            let transit_asn = Asn(3000 + t);
            let mut path = vec![transit_asn, origin];
            if rng.gen::<f64>() < 0.25 {
                path.insert(1, Asn(5000 + rng.gen_range(0..50)));
            }
            if rng.gen::<f64>() < 0.12 {
                path.push(origin); // prepended announcement via this transit
            }
            let pen = if rng.gen::<f64>() < 0.05 {
                // Transit beats the peer path geographically.
                rng.gen_range(-4.0..0.0)
            } else {
                rng.gen_range(2.0..20.0)
            };
            push(rng, &mut candidates, Relationship::Transit, path, pen, 0.002, 0.10);
        }
        if candidates.is_empty() {
            // Guarantee at least one route.
            push(
                rng,
                &mut candidates,
                Relationship::Transit,
                vec![Asn(3000), origin],
                8.0,
                0.002,
                0.10,
            );
        }

        // Rank with the production policy, then keep preferred + 2.
        let mut rib = Rib::new();
        for c in &candidates {
            rib.insert(c.route.clone());
        }
        let ranked_ids: Vec<RouteId> = rib.ranked(&prefix).iter().map(|r| r.id).collect();
        let mut ranked: Vec<RouteGt> = ranked_ids
            .iter()
            .map(|rid| candidates.iter().find(|c| c.route.id == *rid).unwrap().clone())
            .collect();
        ranked.truncate(3);

        // Annotate alternates relative to the preferred route.
        let (preferred, alternates) = ranked.split_first_mut().expect("every prefix has a route");
        let preferred = &preferred.route.as_path;
        for r in alternates {
            r.longer_path = r.route.as_path.len() > preferred.len();
            r.more_prepended = prepended_more(&r.route.as_path, preferred);
        }
        ranked
    }

    /// The PoP with the given id.
    pub fn pop(&self, id: PopId) -> &Pop {
        &self.pops[id.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> World {
        World::generate(WorldConfig::default())
    }

    #[test]
    fn world_has_global_footprint() {
        let w = world();
        assert_eq!(w.pops.len(), 25);
        assert!(w.prefixes.len() >= 60, "prefixes = {}", w.prefixes.len());
        for c in Continent::all() {
            assert!(w.prefixes.iter().any(|p| p.continent == c), "no prefixes on {}", c.code());
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = World::generate(WorldConfig::default());
        let b = World::generate(WorldConfig::default());
        assert_eq!(a.prefixes.len(), b.prefixes.len());
        for (x, y) in a.prefixes.iter().zip(&b.prefixes) {
            assert_eq!(x.prefix, y.prefix);
            assert_eq!(x.pop, y.pop);
            assert_eq!(x.routes.len(), y.routes.len());
            assert!((x.weight - y.weight).abs() < 1e-12);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = World::generate(WorldConfig::default());
        let b = World::generate(WorldConfig { seed: 999, ..Default::default() });
        let same = a
            .prefixes
            .iter()
            .zip(&b.prefixes)
            .filter(|(x, y)| (x.weight - y.weight).abs() < 1e-12)
            .count();
        assert!(same < a.prefixes.len() / 2);
    }

    #[test]
    fn every_prefix_has_ranked_routes() {
        let w = world();
        for p in &w.prefixes {
            assert!(!p.routes.is_empty() && p.routes.len() <= 3, "{}", p.prefix);
            // Rank 0 must be at least as policy-preferred as the rest.
            for alt in &p.routes[1..] {
                let ord = edgeperf_routing::Rib::policy_cmp(&p.routes[0].route, &alt.route);
                assert_ne!(ord, std::cmp::Ordering::Greater);
            }
            // The preferred route is never marked longer/prepended.
            assert!(!p.routes[0].longer_path && !p.routes[0].more_prepended);
        }
    }

    #[test]
    fn most_clients_are_near_their_pop() {
        // Paper: half of traffic within 500 km, 90% within 2500 km.
        let w = world();
        let mut weighted_near = 0.0;
        let mut weighted_far = 0.0;
        let mut total = 0.0;
        for p in &w.prefixes {
            let d = crate::geo::distance_km(w.pop(p.pop).loc, p.clusters[0].loc);
            total += p.weight;
            if d < 1000.0 {
                weighted_near += p.weight;
            }
            if d > 5000.0 {
                weighted_far += p.weight;
            }
        }
        assert!(weighted_near / total > 0.4, "near share = {}", weighted_near / total);
        assert!(weighted_far / total < 0.25, "far share = {}", weighted_far / total);
    }

    #[test]
    fn africa_has_worse_access_than_europe() {
        let w = world();
        let med = |c: Continent| {
            let v: Vec<f64> = w
                .prefixes
                .iter()
                .filter(|p| p.continent == c)
                .map(|p| p.access_bw_median_bps)
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        assert!(med(Continent::Africa) < med(Continent::Europe) / 2.0);
    }

    #[test]
    fn some_prefixes_have_two_clusters() {
        let w = world();
        let two = w.prefixes.iter().filter(|p| p.clusters.len() == 2).count();
        // ~4% of prefixes; with ~80 prefixes expect a handful. Just
        // require the mechanism exists across seeds.
        let w2 = World::generate(WorldConfig { seed: 7, ..Default::default() });
        let two2 = w2.prefixes.iter().filter(|p| p.clusters.len() == 2).count();
        assert!(two + two2 > 0, "no two-cluster prefixes in two seeds");
    }

    #[test]
    fn country_fraction_thins_world() {
        let small = World::generate(WorldConfig { country_fraction: 0.2, ..Default::default() });
        let full = world();
        assert!(small.prefixes.len() < full.prefixes.len() / 2);
        assert!(!small.prefixes.is_empty());
    }

    #[test]
    fn route_relationships_are_ordered_sanely() {
        let w = world();
        // Whenever a private peer exists it must be rank 0 (policy).
        for p in &w.prefixes {
            let has_private =
                p.routes.iter().any(|r| r.route.relationship == Relationship::PrivatePeer);
            if has_private {
                assert_eq!(p.routes[0].route.relationship, Relationship::PrivatePeer);
            }
        }
    }
}

#[cfg(test)]
mod pep_tests {
    use super::*;

    #[test]
    fn some_prefixes_sit_behind_peps() {
        let w = World::generate(WorldConfig::default());
        let with_pep = w.prefixes.iter().filter(|p| p.pep_rtt_fraction.is_some()).count();
        assert!(with_pep > 0, "PEP mechanism must exist");
        assert!(
            (with_pep as f64) < w.prefixes.len() as f64 * 0.3,
            "PEPs must be a minority: {with_pep}/{}",
            w.prefixes.len()
        );
        for p in &w.prefixes {
            if let Some(f) = p.pep_rtt_fraction {
                assert!((0.35..0.7).contains(&f), "fraction {f}");
            }
        }
    }

    #[test]
    fn peps_concentrate_in_cellular_heavy_continents() {
        // Across several seeds, AF+AS+SA should host most PEP prefixes.
        let mut south = 0usize;
        let mut north = 0usize;
        for seed in 0..6 {
            let w = World::generate(WorldConfig { seed, ..Default::default() });
            for p in &w.prefixes {
                if p.pep_rtt_fraction.is_some() {
                    match p.continent {
                        Continent::Africa | Continent::Asia | Continent::SouthAmerica => south += 1,
                        _ => north += 1,
                    }
                }
            }
        }
        assert!(south > north, "PEPs: {south} south vs {north} north");
    }
}
