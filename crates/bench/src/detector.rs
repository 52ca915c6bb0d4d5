//! Detector validation: precision/recall of the §5 degradation detector
//! against the synthetic world's *known* congestion episodes.
//!
//! This is an experiment the paper could not run — production has no
//! ground truth — and the main scientific payoff of the synthetic-world
//! substitution: we can measure how much real degradation the
//! statistically-guarded detector recovers and how often it cries wolf.
//! It scores the cells of the study every figure comes from, whichever
//! sink kept them, one row per (metric, threshold, rule).

use crate::study::StudyData;
use edgeperf_analysis::degradation::{degradation_events, DegradationMetric, WindowStatus};
use edgeperf_analysis::{AnalysisConfig, Summaries};
use edgeperf_world::dynamics::route_condition;
use edgeperf_world::World;
use serde::Serialize;
use std::collections::HashMap;

/// The detector scored on one study, and what was scored.
#[derive(Debug, Clone, Serialize)]
pub struct DetectorScore {
    /// The world's seed.
    pub world_seed: u64,
    /// The fraction of its countries the world kept.
    pub country_fraction: f64,
    /// The study's days.
    pub days: u32,
    /// The study's sampled sessions per (group, window).
    pub sessions_per_group_window: u32,
    /// The sink that kept the study's cells: `"exact"` or `"streaming"`.
    pub sink: &'static str,
    /// Two-cluster prefixes, which no row scores: their median MinRTT
    /// moves with the client mix (the Figure-5 effect), a real detection
    /// with no queue behind it. The paper motivates finer grouping with it.
    pub two_cluster_prefixes_excluded: usize,
    /// One row per (metric, threshold, rule).
    pub rows: Vec<ScoreRow>,
}

/// One rule at one threshold over every scored (group, window) cell.
#[derive(Debug, Clone, Default, Serialize)]
pub struct ScoreRow {
    /// The metric compared.
    pub metric: &'static str,
    /// The event threshold, ms for MinRTT; the truth is a standing queue of
    /// at least as much on the preferred route (it adds to MinRTT as is).
    pub threshold: f64,
    /// The validity rule; `"paper"` is `AnalysisConfig::default()` (§3.4).
    pub rule: &'static str,
    /// Cells with the ground-truth queue.
    pub truth_windows: usize,
    /// Those the rule could assess (`Quiet` or `Event`).
    pub assessable_truth_windows: usize,
    /// Cells the detector flagged.
    pub flagged_windows: usize,
    /// Flagged ∧ true.
    pub hits: usize,
    /// Hits over assessable truth windows; `None` when there are none.
    pub recall: Option<f64>,
    /// Hits over flagged windows; `None` when none was flagged.
    pub precision: Option<f64>,
}

/// Score the detector on `data`'s cells against the truth of the world
/// they came from: MinRTT at 10 ms.
pub fn score(data: &StudyData) -> DetectorScore {
    let (world, study) = (&data.world, &data.study);
    let two_cluster = world.prefixes.iter().filter(|p| p.clusters.len() > 1).count();
    DetectorScore {
        world_seed: world.config.seed,
        country_fraction: world.config.country_fraction,
        days: study.days,
        sessions_per_group_window: study.sessions_per_group_window,
        sink: data.sink,
        two_cluster_prefixes_excluded: two_cluster,
        rows: vec![minrtt_row(world, &data.summaries, 10.0)],
    }
}

/// Score MinRTT degradation at `threshold` ms under the paper's rule.
fn minrtt_row(world: &World, summaries: &Summaries, threshold: f64) -> ScoreRow {
    let cfg = AnalysisConfig::default();
    let sites: HashMap<_, _> = world.prefixes.iter().map(|p| (p.prefix, p)).collect();
    let mut row = ScoreRow { metric: "MinRTT_P50", threshold, rule: "paper", ..Default::default() };
    for (key, g) in &summaries.groups {
        let Some(site) = sites.get(&key.prefix).filter(|s| s.clusters.len() == 1) else {
            continue;
        };
        let statuses = degradation_events(&cfg, g, DegradationMetric::MinRtt, threshold);
        for (w, status) in statuses.iter().map(|a| a.status).enumerate() {
            let queue = route_condition(world.config.seed, site, 0, w as u32).standing_queue_ms;
            let (truth, event) = (queue >= threshold, status == WindowStatus::Event);
            row.truth_windows += usize::from(truth);
            row.assessable_truth_windows +=
                usize::from(truth && (event || status == WindowStatus::Quiet));
            row.flagged_windows += usize::from(event);
            row.hits += usize::from(truth && event);
        }
    }
    let share = |of: usize| (of > 0).then(|| row.hits as f64 / of as f64);
    row.recall = share(row.assessable_truth_windows);
    row.precision = share(row.flagged_windows);
    row
}

impl std::fmt::Display for DetectorScore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let Self { world_seed, country_fraction, days, sessions_per_group_window, sink, .. } = self;
        writeln!(
            f,
            "== Degradation-detector validation vs ground truth ==\n\
             scored: world seed {world_seed} (country_fraction {country_fraction:.2}), {days} days, \
             {sessions_per_group_window} sessions/group/window, {sink} sink\n\
             excluded: {} two-cluster prefixes (their MinRTT moves with the client mix)\n\
             metric      threshold  rule   truth  assessable  flagged   hits  recall  precision",
            self.two_cluster_prefixes_excluded
        )?;
        let ratio = |r: Option<f64>| r.map_or("n/a".to_string(), |r| format!("{r:.2}"));
        for r in &self.rows {
            let (truth, assessable) = (r.truth_windows, r.assessable_truth_windows);
            let (recall, precision) = (ratio(r.recall), ratio(r.precision));
            writeln!(
                f,
                "{:<11} {:>9}  {:<5} {truth:>6} {assessable:>11} {:>8} {:>6} {recall:>7} {precision:>10}",
                r.metric, r.threshold, r.rule, r.flagged_windows, r.hits
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study;
    use edgeperf_obs::Metrics;
    use edgeperf_world::{StudyConfig, SupervisorConfig, WorldConfig};
    use std::sync::OnceLock;

    /// A small world, sampled above the paper's 30 sessions a side so that
    /// its windows can be assessed.
    fn small(parallelism: usize) -> (WorldConfig, StudyConfig) {
        let (world, mut cfg) = study::scaled(404, 0.5);
        (cfg.days, cfg.sessions_per_group_window, cfg.parallelism) = (2, 120, parallelism);
        (world, cfg)
    }

    fn exact((world, cfg): (WorldConfig, StudyConfig)) -> StudyData {
        study::run(&world, &cfg, &SupervisorConfig::default(), None, &Metrics::disabled()).unwrap()
    }

    /// The small study through the exact sink on one worker, run once.
    fn shared() -> &'static StudyData {
        static DATA: OnceLock<StudyData> = OnceLock::new();
        DATA.get_or_init(|| exact(small(1)))
    }

    #[test]
    fn detector_finds_injected_episodes_with_high_precision() {
        let s = score(shared());
        let r = &s.rows[0];
        assert!(r.truth_windows > 20, "world must inject episodes: {s:?}");
        assert!(r.flagged_windows > 0, "detector must fire: {s:?}");
        assert!(r.precision.unwrap() > 0.7, "precision: {s:?}");
        assert!(r.recall.unwrap() > 0.4, "recall: {s:?}");
        assert_eq!((s.world_seed, s.days, s.sessions_per_group_window), (404, 2, 120));
    }

    #[test]
    fn higher_thresholds_flag_fewer_windows() {
        let d = shared();
        let flagged =
            [5.0, 10.0, 20.0].map(|t| minrtt_row(&d.world, &d.summaries, t).flagged_windows);
        assert!(flagged[0] > 0 && flagged.is_sorted_by(|a, b| a >= b), "{flagged:?}");
    }

    #[test]
    fn the_score_does_not_depend_on_the_scheduler() {
        let json = |d: &StudyData| serde_json::to_string(&score(d)).unwrap();
        assert_eq!(json(&exact(small(4))), json(shared()));
    }

    #[test]
    fn the_truth_does_not_depend_on_the_sink() {
        let (world, cfg) = small(1);
        let sup = SupervisorConfig::default();
        let streaming = study::run_streaming(&world, &cfg, &sup, &Metrics::disabled()).unwrap();
        let (e, s) = (score(shared()), score(&streaming));
        assert_eq!((e.sink, s.sink), ("exact", "streaming"));
        assert_eq!(e.rows[0].truth_windows, s.rows[0].truth_windows);
        assert!(e.rows[0].truth_windows > 0);
    }

    #[test]
    fn a_zero_denominator_is_no_ratio() {
        // 8 sessions a window: below the paper's 30, nothing is assessable.
        let (world, mut cfg) = study::scaled(404, 0.15);
        (cfg.days, cfg.sessions_per_group_window) = (1, 8);
        let s = score(&exact((world, cfg)));
        let r = &s.rows[0];
        assert_eq!((r.assessable_truth_windows, r.flagged_windows), (0, 0), "{s:?}");
        assert_eq!((r.recall, r.precision), (None, None));
        let text = s.to_string();
        assert!(text.contains("n/a") && !text.contains("0.00"), "{text}");
    }
}
