//! Figure 5: client-population mix shifts moving a group's median MinRTT.
//!
//! A /16 serves two clusters — a "California" cluster near the PoP and a
//! "Hawaii" cluster ~4000 km away. Each cluster's own median MinRTT is
//! stable, but the group's overall median swings between them as the
//! diurnal activity mix shifts with each cluster's local time.

use edgeperf_core::MILLISECOND;
use edgeperf_netsim::{FastFlow, PathState};
use edgeperf_tcp::TcpConfig;
use edgeperf_world::dynamics::{pick_cluster, WINDOWS_PER_DAY};
use edgeperf_world::geo::{propagation_rtt_ms, GeoPoint};
use edgeperf_world::topology::ClientCluster;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use serde::Serialize;

/// One window's medians.
#[derive(Debug, Clone, Serialize)]
pub struct Fig5Point {
    /// Window index.
    pub window: u32,
    /// Median MinRTT over all sessions, ms.
    pub all_ms: f64,
    /// Median over near-cluster (California-analog) sessions.
    pub near_ms: Option<f64>,
    /// Median over far-cluster (Hawaii-analog) sessions.
    pub far_ms: Option<f64>,
    /// Share of sessions from the far cluster.
    pub far_share: f64,
}

/// Run the Figure-5 scenario over `days` days.
pub fn run(seed: u64, days: u32, sessions_per_window: usize) -> Vec<Fig5Point> {
    // A synthetic two-cluster prefix: PoP at Palo Alto; clusters in
    // California (UTC-8) and Hawaii (UTC-10), 8 ms of last mile, 3 ms of
    // jitter.
    let pop_loc = GeoPoint { lat: 37.4, lon: -122.1 };
    let clusters = [
        ClientCluster { loc: GeoPoint { lat: 37.0, lon: -120.0 }, utc_offset: -8 },
        ClientCluster { loc: GeoPoint { lat: 21.3, lon: -157.8 }, utc_offset: -10 },
    ];
    let (last_mile_ms, jitter_max_ms) = (8.0, 3.0);

    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    let mut out = Vec::new();
    for window in 0..days * WINDOWS_PER_DAY {
        let mut all = Vec::new();
        let mut near = Vec::new();
        let mut far = Vec::new();
        for _ in 0..sessions_per_window {
            let c = pick_cluster(&clusters, window, rng.gen());
            let base = propagation_rtt_ms(pop_loc, clusters[c].loc) + last_mile_ms;
            let state = PathState {
                base_rtt: (base * MILLISECOND as f64) as u64,
                standing_queue: 0,
                jitter_max: (jitter_max_ms * MILLISECOND as f64) as u64,
                bottleneck_bps: 20_000_000,
                loss: 0.0,
            };
            let mut flow = FastFlow::new(TcpConfig::default());
            flow.transfer(30_000, &state, &mut rng);
            let mr = flow.min_rtt().unwrap() as f64 / MILLISECOND as f64;
            all.push(mr);
            if c == 0 {
                near.push(mr);
            } else {
                far.push(mr);
            }
        }
        let med = |mut v: Vec<f64>| {
            if v.is_empty() {
                None
            } else {
                v.sort_unstable_by(f64::total_cmp);
                Some(edgeperf_stats::quantile::median_sorted(&v))
            }
        };
        let far_share = far.len() as f64 / sessions_per_window as f64;
        out.push(Fig5Point {
            window,
            all_ms: med(all.clone()).unwrap(),
            near_ms: med(near),
            far_ms: med(far),
            far_share,
        });
    }
    out
}

/// Render a compact view (hourly resolution).
pub fn render(points: &[Fig5Point]) -> String {
    let mut s = String::from(
        "== Figure 5: client-mix shift (two-cluster /16, PaloAlto PoP) ==\n\
         window  all_ms  near_ms  far_ms  far_share\n",
    );
    for p in points.iter().step_by(4) {
        s.push_str(&format!(
            "{:>6} {:>7.1} {:>8} {:>7} {:>10.2}\n",
            p.window,
            p.all_ms,
            p.near_ms.map_or("-".into(), |v| format!("{v:.1}")),
            p.far_ms.map_or("-".into(), |v| format!("{v:.1}")),
            p.far_share
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_cluster_medians_are_stable_but_overall_swings() {
        let pts = run(1, 2, 300);
        // Per-cluster medians stay in a narrow band...
        let near: Vec<f64> = pts.iter().filter_map(|p| p.near_ms).collect();
        let far: Vec<f64> = pts.iter().filter_map(|p| p.far_ms).collect();
        let spread = |v: &[f64]| {
            let min = v.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = v.iter().cloned().fold(0.0f64, f64::max);
            max - min
        };
        assert!(spread(&near) < 8.0, "near spread = {}", spread(&near));
        assert!(spread(&far) < 8.0, "far spread = {}", spread(&far));
        // ...and the far cluster is clearly slower.
        let near_med = near.iter().sum::<f64>() / near.len() as f64;
        let far_med = far.iter().sum::<f64>() / far.len() as f64;
        assert!(far_med > near_med + 20.0, "far {far_med} vs near {near_med}");
        // The overall median must swing by a sizeable fraction of the gap.
        let overall: Vec<f64> = pts.iter().map(|p| p.all_ms).collect();
        assert!(
            spread(&overall) > (far_med - near_med) * 0.5,
            "overall spread {} too small for gap {}",
            spread(&overall),
            far_med - near_med
        );
    }

    #[test]
    fn far_share_tracks_diurnal_mix() {
        let pts = run(2, 1, 300);
        let min = pts.iter().map(|p| p.far_share).fold(f64::INFINITY, f64::min);
        let max = pts.iter().map(|p| p.far_share).fold(0.0f64, f64::max);
        assert!(max - min > 0.15, "mix shift too small: {min}..{max}");
    }
}

/// §3.3's grouping rationale, quantified: the variability (standard
/// deviation across windows) of the group's MinRTT_P50 when the two
/// clusters are mixed, versus when geolocation splits them — the paper's
/// justification for including the client country in the user-group key.
#[derive(Debug, Clone, Serialize)]
pub struct GroupingComparison {
    /// Std-dev of per-window medians with clusters mixed (prefix-only
    /// grouping), ms.
    pub mixed_stddev_ms: f64,
    /// Std-dev for the near cluster alone, ms.
    pub near_stddev_ms: f64,
    /// Std-dev for the far cluster alone, ms.
    pub far_stddev_ms: f64,
    /// Variability reduction factor from splitting (mixed / worst split).
    pub reduction_factor: f64,
}

/// Summarize the Figure-5 run into the grouping comparison.
pub fn grouping_comparison(points: &[Fig5Point]) -> GroupingComparison {
    let stddev = |v: &[f64]| {
        let n = v.len().max(1) as f64;
        let mean = v.iter().sum::<f64>() / n;
        (v.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n).sqrt()
    };
    let mixed: Vec<f64> = points.iter().map(|p| p.all_ms).collect();
    let near: Vec<f64> = points.iter().filter_map(|p| p.near_ms).collect();
    let far: Vec<f64> = points.iter().filter_map(|p| p.far_ms).collect();
    let (sm, sn, sf) = (stddev(&mixed), stddev(&near), stddev(&far));
    GroupingComparison {
        mixed_stddev_ms: sm,
        near_stddev_ms: sn,
        far_stddev_ms: sf,
        reduction_factor: sm / sn.max(sf).max(1e-9),
    }
}

/// Render the grouping comparison.
pub fn render_grouping(g: &GroupingComparison) -> String {
    format!(
        "== Grouping granularity (§3.3): why the user-group key includes geolocation ==\n\
         per-window MinRTT_P50 variability (std-dev):\n\
         \x20 prefix-only grouping (clusters mixed): {:.1} ms\n\
         \x20 split by location — near cluster:      {:.2} ms\n\
         \x20 split by location — far cluster:       {:.2} ms\n\
         splitting reduces variability {:.0}x\n",
        g.mixed_stddev_ms, g.near_stddev_ms, g.far_stddev_ms, g.reduction_factor
    )
}

#[cfg(test)]
mod grouping_tests {
    use super::*;

    #[test]
    fn splitting_by_location_reduces_variability() {
        let pts = run(3, 2, 250);
        let g = grouping_comparison(&pts);
        assert!(g.mixed_stddev_ms > 10.0, "mixed must swing: {}", g.mixed_stddev_ms);
        assert!(g.near_stddev_ms < 3.0, "near must be stable: {}", g.near_stddev_ms);
        assert!(g.far_stddev_ms < 3.0, "far must be stable: {}", g.far_stddev_ms);
        assert!(g.reduction_factor > 5.0, "reduction = {}", g.reduction_factor);
    }
}
