//! Time-varying ground truth: diurnal congestion, episodic route events,
//! and client-mix shifts.
//!
//! All dynamics are pure functions of (world seed, prefix, route rank,
//! window index) via hashing, so any window's conditions can be computed
//! independently — no global state to advance, and parallel runners see
//! identical ground truth.

use crate::topology::PrefixSite;
use edgeperf_core::splitmix64;

/// Condition of a route toward a prefix during one 15-minute window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouteCondition {
    /// Standing queueing delay added to the propagation RTT, ms.
    pub standing_queue_ms: f64,
    /// Packet loss probability.
    pub loss: f64,
    /// Multiplier on achievable throughput (shared-bottleneck
    /// saturation at the destination during peak hours).
    pub bw_factor: f64,
}

/// Windows per day at 15-minute granularity.
pub const WINDOWS_PER_DAY: u32 = 96;

fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Local hour (0–24, fractional) for a window given a UTC offset.
pub(crate) fn local_hour(window: u32, utc_offset: i8) -> f64 {
    let utc_hour = (window % WINDOWS_PER_DAY) as f64 * 24.0 / WINDOWS_PER_DAY as f64;
    (utc_hour + utc_offset as f64).rem_euclid(24.0)
}

/// Diurnal activity factor ∈ [0, 1]: minimal ≈5 AM, peak ≈21 PM local.
pub(crate) fn diurnal_factor(local_hour: f64) -> f64 {
    // Shifted sinusoid peaking at 21:00.
    let phase = (local_hour - 21.0) / 24.0 * std::f64::consts::TAU;
    (0.5 + 0.5 * phase.cos()).powi(2)
}

/// Ground-truth condition of `site`'s route `rank` during `window`.
///
/// Destination-side diurnal congestion (shared by all routes — it is at
/// or near the access network, §6.2) plus per-route episodic events
/// (failures / interconnect congestion, not shared).
pub fn route_condition(seed: u64, site: &PrefixSite, rank: usize, window: u32) -> RouteCondition {
    let gt = &site.routes[rank];
    let mut queue = 0.0;
    let mut loss = gt.base_loss;
    let mut bw_factor = 1.0;

    // Diurnal, destination-shared component: a standing queue, elevated
    // loss, and a throughput crush as the shared destination bottleneck
    // saturates at peak (this is what moves HDratio_P50, not just RTT).
    if site.diurnal_severity > 0.0 {
        let lh = local_hour(window, site.clusters[0].utc_offset);
        let f = diurnal_factor(lh) * site.diurnal_severity;
        queue += 18.0 * f;
        loss += 0.012 * f;
        bw_factor = 1.0 - 0.55 * f;
    }

    // Episodic, route-specific component: decided per (route, day).
    let day = window / WINDOWS_PER_DAY;
    let key = splitmix64(
        seed ^ (site.prefix.base as u64) << 16
            ^ (rank as u64) << 8
            ^ splitmix64(day as u64 + 0x9E37),
    );
    if unit(key) < gt.episodic_prone {
        // An event strikes this day: place it in a 1–4 h span.
        let start_w = (splitmix64(key ^ 1) % (WINDOWS_PER_DAY as u64 - 16)) as u32;
        let len_w = 4 + (splitmix64(key ^ 2) % 13) as u32; // 1h–4h15m
        let wod = window % WINDOWS_PER_DAY;
        if wod >= start_w && wod < start_w + len_w {
            queue += 5.0 + unit(splitmix64(key ^ 3)) * 20.0;
            loss += 0.005 + unit(splitmix64(key ^ 4)) * 0.03;
        }
    }

    RouteCondition { standing_queue_ms: queue, loss: loss.min(0.5), bw_factor }
}

/// Which client cluster a session belongs to, given the diurnal mix
/// (two-cluster prefixes only; the Figure-5 effect). Returns the cluster
/// index; single-cluster prefixes always return 0.
pub fn pick_cluster(site: &PrefixSite, window: u32, u: f64) -> usize {
    if site.clusters.len() < 2 {
        return 0;
    }
    let a0 = diurnal_factor(local_hour(window, site.clusters[0].utc_offset)) + 0.05;
    let a1 = diurnal_factor(local_hour(window, site.clusters[1].utc_offset)) + 0.05;
    let share1 = a1 / (a0 + a1);
    usize::from(u < share1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{World, WorldConfig};

    fn site_with_severity(sev: f64) -> PrefixSite {
        let w = World::generate(WorldConfig::default());
        let mut s = w.prefixes[0].clone();
        s.diurnal_severity = sev;
        s
    }

    #[test]
    fn diurnal_factor_peaks_in_evening() {
        assert!(diurnal_factor(21.0) > 0.99);
        assert!(diurnal_factor(9.0) < diurnal_factor(20.0));
        assert!(diurnal_factor(5.0) < 0.1);
    }

    #[test]
    fn local_hour_wraps() {
        assert!((local_hour(0, 0) - 0.0).abs() < 1e-9);
        assert!((local_hour(48, 0) - 12.0).abs() < 1e-9); // window 48 = noon UTC
        assert!((local_hour(0, -5) - 19.0).abs() < 1e-9);
        assert!((local_hour(92, 10) - 9.0).abs() < 1e-9);
    }

    #[test]
    fn congested_prefix_degrades_at_peak() {
        let s = site_with_severity(1.0);
        // Find a window at local 21:00 and one at local 05:00.
        let utc = s.clusters[0].utc_offset;
        let w_peak = (0..96).find(|&w| (local_hour(w, utc) - 21.0).abs() < 0.2).unwrap();
        let w_quiet = (0..96).find(|&w| (local_hour(w, utc) - 5.0).abs() < 0.2).unwrap();
        let peak = route_condition(1, &s, 0, w_peak);
        let quiet = route_condition(1, &s, 0, w_quiet);
        assert!(peak.standing_queue_ms > quiet.standing_queue_ms + 10.0);
        assert!(peak.loss > quiet.loss);
    }

    #[test]
    fn diurnal_affects_all_routes_equally() {
        let s = site_with_severity(1.0);
        let w = 84; // evening UTC for a UTC-ish cluster
        let deltas: Vec<f64> =
            (0..s.routes.len()).map(|r| route_condition(1, &s, r, w).standing_queue_ms).collect();
        // Modulo per-route episodic events, the diurnal queue component
        // is identical; require all routes to be within episodic range.
        for d in &deltas {
            assert!((d - deltas[0]).abs() < 26.0, "{deltas:?}");
        }
    }

    #[test]
    fn uncongested_prefix_is_flat() {
        let s = site_with_severity(0.0);
        // With episodic events possible, most windows must still be at
        // base condition.
        let base = s.routes[0].base_loss;
        let flat = (0..960)
            .filter(|&w| {
                let c = route_condition(1, &s, 0, w);
                c.standing_queue_ms == 0.0 && (c.loss - base).abs() < 1e-12
            })
            .count();
        assert!(flat > 800, "flat windows = {flat}");
    }

    #[test]
    fn episodic_events_hit_some_windows() {
        let s = site_with_severity(0.0);
        // Transit routes are episodic-prone (0.10/day): over 100 days
        // expect ≥1 event on some route.
        let transit_rank = s
            .routes
            .iter()
            .position(|r| r.route.relationship == edgeperf_routing::Relationship::Transit);
        let Some(rank) = transit_rank else { return };
        let eventful =
            (0..9600).filter(|&w| route_condition(1, &s, rank, w).standing_queue_ms > 0.0).count();
        assert!(eventful > 0, "no episodic events in 100 days");
        // But they are episodes, not the norm.
        assert!(eventful < 2000, "eventful = {eventful}");
    }

    #[test]
    fn conditions_are_deterministic() {
        let s = site_with_severity(0.7);
        for w in [0, 17, 333, 959] {
            assert_eq!(route_condition(5, &s, 0, w), route_condition(5, &s, 0, w));
        }
    }

    #[test]
    fn cluster_mix_shifts_with_time() {
        let w = World::generate(WorldConfig::default());
        let Some(site) = w.prefixes.iter().find(|p| p.clusters.len() == 2) else {
            return; // seed produced no two-cluster prefix; covered elsewhere
        };
        // Over a day, the share of cluster 1 must vary.
        let share_at = |window| {
            let n = 1000;
            (0..n).filter(|i| pick_cluster(site, window, *i as f64 / n as f64) == 1).count() as f64
                / n as f64
        };
        let shares: Vec<f64> = (0..96).step_by(8).map(share_at).collect();
        let min = shares.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = shares.iter().cloned().fold(0.0, f64::max);
        assert!(max - min > 0.2, "mix shift too small: {shares:?}");
    }

    #[test]
    fn single_cluster_always_zero() {
        let w = World::generate(WorldConfig::default());
        let site = w.prefixes.iter().find(|p| p.clusters.len() == 1).unwrap();
        for u in [0.0, 0.5, 0.99] {
            assert_eq!(pick_cluster(site, 40, u), 0);
        }
    }
}
