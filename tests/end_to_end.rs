//! End-to-end pipeline test: synthetic world → simulated traffic →
//! production-style measurement → aggregation → the paper's analyses.
//! Exercises every crate through the public API.

use edgeperf::analysis::figures::{fig6_minrtt, fig9_opportunity, HdratioTally};
use edgeperf::analysis::tables::{table1, AnalysisKind};
use edgeperf::analysis::{AnalysisConfig, Dataset, DegradationMetric, TemporalClass};
use edgeperf::world::{run_study, Continent, StudyConfig, World, WorldConfig};

fn small_study() -> (Vec<edgeperf::analysis::SessionRecord>, usize) {
    let world =
        World::generate(WorldConfig { seed: 1234, country_fraction: 0.35, ..Default::default() });
    let cfg = StudyConfig {
        seed: 77,
        days: 1,
        sessions_per_group_window: 70,
        parallelism: 0,
        ..Default::default()
    };
    let n_windows = cfg.n_windows() as usize;
    (run_study(&world, &cfg), n_windows)
}

#[test]
fn pipeline_produces_paper_shaped_results() {
    let (records, n_windows) = small_study();
    assert!(records.len() > 100_000, "records = {}", records.len());

    // ── Figure 6 shape ────────────────────────────────────────────────
    let (mr, _per) = fig6_minrtt(&records[..]);
    let p50 = mr.p50;
    assert!(p50 > 8.0 && p50 < 60.0, "median MinRTT = {p50}");
    // 80th percentile noticeably above the median (long tail).
    assert!(mr.p80 > p50 * 1.2);

    let (hd, _) = HdratioTally::of(&records).rollup();
    let gt0 = 1.0 - hd.fraction_zero();
    assert!(gt0 > 0.6, "HDratio>0 fraction = {gt0}");

    // ── Dataset + opportunity: preferred route usually at least as good
    let ds = Dataset::from_records(&records, n_windows);
    assert!(ds.preferred_bytes() < ds.total_bytes());
    let ds = ds.summarize();
    let cfg = AnalysisConfig::default();
    if let Some(opp) = fig9_opportunity(&cfg, &ds, DegradationMetric::MinRtt) {
        let median_improvement = opp.diff.quantile(0.5);
        assert!(
            median_improvement < 3.0,
            "median available improvement should be ~0 or negative, got {median_improvement}"
        );
    }

    // ── Table 1: classes cover all traffic, uneventful dominates ─────
    let t1 = table1(&cfg, &ds, AnalysisKind::Degradation, DegradationMetric::MinRtt, 5.0);
    let total_share: f64 = t1.overall.values().map(|s| s.group_share).sum();
    assert!((total_share - 1.0).abs() < 1e-9, "shares must sum to 1, got {total_share}");
    let eventful: f64 = t1
        .overall
        .iter()
        .filter(|(c, _)| !matches!(c, TemporalClass::Uneventful | TemporalClass::Ignored))
        .map(|(_, s)| s.event_share)
        .sum();
    assert!(eventful < 0.3, "most traffic must not be degraded: {eventful}");
}

#[test]
fn continental_ordering_matches_paper() {
    let world = World::generate(WorldConfig::default());
    let cfg = StudyConfig {
        seed: 9,
        days: 1,
        sessions_per_group_window: 12,
        parallelism: 0,
        ..Default::default()
    };
    let records = run_study(&world, &cfg);
    let (_, per) = fig6_minrtt(&records[..]);
    let med = |c: Continent| per[&(c as u8)].p50;
    // Paper Fig 6b: AF > AS > (EU, NA); SA also worse than EU/NA.
    assert!(med(Continent::Africa) > med(Continent::Europe));
    assert!(med(Continent::Asia) > med(Continent::Europe));
    assert!(med(Continent::SouthAmerica) > med(Continent::NorthAmerica));

    let (_, hd_per) = HdratioTally::of(&records).rollup();
    let zero = |c: Continent| hd_per[&(c as u8)].fraction_zero();
    assert!(zero(Continent::Africa) > zero(Continent::Europe));
    assert!(zero(Continent::SouthAmerica) > zero(Continent::NorthAmerica));
}

#[test]
fn study_records_are_internally_consistent() {
    let (records, n_windows) = small_study();
    for r in &records {
        assert!(r.route_rank <= 2);
        assert!((r.window as usize) < n_windows);
        assert!(r.min_rtt_ns > 0);
        if let Some(h) = r.hdratio {
            assert!((0.0..=1.0).contains(&h));
        }
        assert!(r.bytes > 0);
        // Rank 0 is never flagged relative-to-preferred.
        if r.route_rank == 0 {
            assert!(!r.longer_path && !r.more_prepended);
        }
    }
    // All three ranks appear, in roughly the Edge-Fabric 47/26.5/26.5 split.
    let frac = |rank: u8| {
        records.iter().filter(|r| r.route_rank == rank).count() as f64 / records.len() as f64
    };
    assert!((frac(0) - 0.47).abs() < 0.05, "rank0 share = {}", frac(0));
}
