//! Detector validation: precision/recall of the §5 degradation detector
//! against the synthetic world's *known* congestion episodes.
//!
//! This is an experiment the paper could not run — production has no
//! ground truth — and the main scientific payoff of the synthetic-world
//! substitution: we can measure how much real degradation the
//! statistically-guarded detector recovers and how often it cries wolf.

use edgeperf_analysis::degradation::{degradation_events, DegradationMetric, WindowStatus};
use edgeperf_analysis::{AnalysisConfig, ColumnarSink, RecordSink};
use edgeperf_world::dynamics::route_condition;
use edgeperf_world::{run_study_into, StudyConfig, World, WorldConfig};
use serde::Serialize;

/// Outcome of the validation.
#[derive(Debug, Clone, Serialize)]
pub struct DetectorScore {
    /// (group, window) cells with ground-truth degradation of the
    /// preferred route ≥ the ground-truth threshold.
    pub truth_windows: usize,
    /// Cells the detector flagged.
    pub flagged_windows: usize,
    /// Flagged ∧ true.
    pub hits: usize,
    /// Recall among *valid* windows (the detector can only speak where
    /// its statistical rules allow).
    pub recall: f64,
    /// Precision of flagged windows.
    pub precision: f64,
}

/// Ground truth: the preferred route's condition imposes ≥ `queue_ms`
/// standing queue this window (relative to the group's own floor).
fn truly_degraded(world: &World, prefix_idx: usize, window: u32, queue_ms: f64) -> bool {
    let site = &world.prefixes[prefix_idx];
    route_condition(world.config.seed, site, 0, window).standing_queue_ms >= queue_ms
}

/// Run the validation: simulate `days`, detect MinRTT degradation at
/// `threshold_ms`, and compare with ground-truth standing queues of at
/// least `threshold_ms` (a standing queue raises MinRTT one-for-one).
pub fn run(seed: u64, days: u32, sessions: u32, threshold_ms: f64) -> DetectorScore {
    let world = World::generate(WorldConfig { seed, country_fraction: 0.5, ..Default::default() });
    let cfg = StudyConfig {
        seed: seed ^ 0xD07,
        days,
        sessions_per_group_window: sessions,
        parallelism: 0,
        ..Default::default()
    };
    // Each prefix is summarised as it is merged; the preferred route's
    // rows, which nothing here reads, go with the sink.
    let ds = {
        let mut sink = ColumnarSink::new(cfg.n_windows() as usize);
        run_study_into(&world, &cfg, &mut sink);
        sink.into_snapshot()
    };
    let acfg = AnalysisConfig::default();

    // Map group keys back to prefix indices for ground-truth lookup.
    let mut truth_windows = 0usize;
    let mut flagged = 0usize;
    let mut hits = 0usize;
    let mut truth_and_valid = 0usize;

    for (key, g) in &ds.groups {
        let Some(pidx) = world.prefixes.iter().position(|p| p.prefix == key.prefix) else {
            continue;
        };
        // Two-cluster prefixes shift their median MinRTT with the client
        // mix (the Figure-5 effect) — real detections, but not queue-based
        // degradation, so they have no ground-truth label here. The paper
        // faces the same confounder and motivates finer grouping with it.
        if world.prefixes[pidx].clusters.len() > 1 {
            continue;
        }
        let assessments = degradation_events(&acfg, g, DegradationMetric::MinRtt, threshold_ms);
        for (w, a) in assessments.iter().enumerate() {
            let truth = truly_degraded(&world, pidx, w as u32, threshold_ms);
            if truth {
                truth_windows += 1;
            }
            let valid = matches!(a.status, WindowStatus::Quiet | WindowStatus::Event);
            if truth && valid {
                truth_and_valid += 1;
            }
            if a.status == WindowStatus::Event {
                flagged += 1;
                if truth {
                    hits += 1;
                }
            }
        }
    }

    DetectorScore {
        truth_windows,
        flagged_windows: flagged,
        hits,
        recall: hits as f64 / truth_and_valid.max(1) as f64,
        precision: hits as f64 / flagged.max(1) as f64,
    }
}

impl std::fmt::Display for DetectorScore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "== Degradation-detector validation vs ground truth ==")?;
        writeln!(
            f,
            "ground-truth degraded windows: {}   flagged: {}   hits: {}",
            self.truth_windows, self.flagged_windows, self.hits
        )?;
        writeln!(
            f,
            "recall (among statistically valid windows) = {:.2}   precision = {:.2}",
            self.recall, self.precision
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detector_finds_injected_episodes_with_high_precision() {
        let s = run(404, 2, 120, 10.0);
        assert!(s.truth_windows > 20, "world must inject episodes: {s:?}");
        assert!(s.flagged_windows > 0, "detector must fire: {s:?}");
        assert!(s.precision > 0.7, "precision = {} ({s:?})", s.precision);
        assert!(s.recall > 0.4, "recall = {} ({s:?})", s.recall);
    }

    #[test]
    fn higher_thresholds_flag_fewer_windows() {
        let low = run(404, 1, 80, 5.0);
        let high = run(404, 1, 80, 20.0);
        assert!(high.flagged_windows <= low.flagged_windows, "high {high:?} vs low {low:?}");
    }
}
