//! The global study: Figures 6–10 and Tables 1–2 over a full synthetic
//! world run.
//!
//! A study is the world crate's description of it: the [`WorldConfig`]
//! its world is generated from and the [`StudyConfig`] sampled over
//! that world. [`scaled`] gives both at a fidelity; a caller overrides a
//! field by setting it, and runs them through the exact sink ([`run`],
//! journalled when given a checkpoint directory) or the streaming one
//! ([`run_streaming`]).
//!
//! ```
//! use edgeperf_bench::study;
//! use edgeperf_obs::Metrics;
//! use edgeperf_world::SupervisorConfig;
//! let (world, mut cfg) = study::scaled(42, 0.1);
//! cfg.parallelism = 2;
//! let sup = SupervisorConfig::default();
//! let data = study::run(&world, &cfg, &sup, None, &Metrics::disabled()).unwrap();
//! assert!(!data.summaries.groups.is_empty());
//! assert!(data.report.quarantined.is_empty());
//! ```

use edgeperf_analysis::figures::{
    fig10_by_relationship, fig6_minrtt, fig8_degradation, fig9_opportunity, DiffCdfs, HdratioTally,
    RelPair,
};
use edgeperf_analysis::tables::{table1, table2, AnalysisKind, Table2Row};
use edgeperf_analysis::{
    AnalysisConfig, ColumnarSink, DegradationMetric, StreamingDataset, Summaries,
};
use edgeperf_obs::Metrics;
use edgeperf_routing::Relationship;
use edgeperf_world::{
    run_study_checkpointed, run_study_supervised, Continent, StudyConfig, StudyReport,
    SupervisorConfig, SupervisorError, World, WorldConfig,
};
use serde::Serialize;
use std::collections::BTreeMap;
use std::path::Path;

/// The study at fidelity `scale`, the one dial that trades fidelity for
/// speed: it sets the simulated days (`ceil(3·scale)`, clamped to
/// 1..=10), the sampled sessions per (group, window) (`240·scale`,
/// clamped to 8..=240) and the fraction of countries kept (`scale`,
/// clamped to 0.15..=1.0). `seed` seeds the world, and `seed ^ 0xABCD`
/// the sessions. Scale 1.0 is the default study. A caller that wants
/// another shape sets the returned `StudyConfig`'s fields.
pub fn scaled(seed: u64, scale: f64) -> (WorldConfig, StudyConfig) {
    let world =
        WorldConfig { seed, country_fraction: scale.clamp(0.15, 1.0), ..Default::default() };
    let study = StudyConfig {
        seed: seed ^ 0xABCD,
        days: ((3.0 * scale).ceil() as u32).clamp(1, 10),
        sessions_per_group_window: ((240.0 * scale) as u32).clamp(8, 240),
        ..Default::default()
    };
    (world, study)
}

/// The per-session view of a study, as its sink kept it.
pub enum Sessions {
    /// Every preferred-route session's cell and MinRTT, and the HDratio
    /// tally behind Figures 6–7 (exact sink, its summaries taken).
    Columns(Box<ColumnarSink>),
    /// The streaming sink once its study is run: Figure 6's MinRTT rollup
    /// digests and the same HDratio tally, no per-session row.
    Digests(Box<StreamingDataset>),
}

impl Sessions {
    /// The HDratio tally of every preferred-route session, which both
    /// sinks keep alike: Figure 6's HDratio half and Figure 7.
    fn hdratio(&self) -> &HdratioTally {
        match self {
            Sessions::Columns(sink) => sink.hdratio(),
            Sessions::Digests(ds) => ds.hdratio(),
        }
    }
}

/// Everything the §§4–6 experiments need, whichever sink ran: the
/// per-cell summaries behind Figures 8–10, both tables and the detector's
/// score, the per-session view behind Figures 6–7, and the world and study
/// they came from, which the detector scores its summaries against.
pub struct StudyData {
    /// The world the study ran over: its routes' ground truth.
    pub world: World,
    /// The study run over it.
    pub study: StudyConfig,
    /// The sink that kept its cells: `"exact"` or `"streaming"`.
    pub sink: &'static str,
    /// One summary per (group, window, route-rank) cell.
    pub summaries: Summaries,
    /// Per-session measurements, read by [`fig6`] and [`fig7`] alone. The
    /// exact sink's MinRTT rows are most of the job's memory: `repro` sets
    /// this to `None` once nothing it still has to run reads them.
    pub sessions: Option<Sessions>,
    /// What the driver did: completion, quarantine, every recovery
    /// decision, and the sessions simulated, emitted and dropped. A
    /// quarantined prefix is in no figure.
    pub report: StudyReport,
}

/// Run `study` over the world `world` describes through the exact sink,
/// under the one study driver (`edgeperf-world`'s `supervisor` module:
/// per-prefix panic isolation with retry/quarantine, watchdog deadlines,
/// an in-order merge) — and, given a `checkpoint` directory, journalled
/// there and resumed from a checkpoint of the same study found there.
///
/// The [`ColumnarSink`] is the only thing the run fills. Each worker
/// closes a prefix's cells a window at a time: every cell's summary,
/// read off its exact order statistics (bit-identical to summarising the
/// assembled `Dataset` — see `sink_agreement`), what Figures 6–7 read of
/// HDratio, tallied, and only the preferred route's MinRTTs, one run a
/// group; sealing the prefix sorts each run once and codes it as whole
/// nanoseconds Rice-coded as gaps: ~1.2 bytes a session. The supervisor's
/// merge places the rows in the sink's grid and appends the prefix's coded
/// runs to one study-wide buffer. The grid is handed over, not copied;
/// Figure 6 reads its ranks off the runs in place, decoding as it goes.
///
/// # Errors
///
/// Checkpoint I/O failures, resuming against a checkpoint of another
/// study or world, and the fault plan's injected crash.
pub fn run(
    world: &WorldConfig,
    study: &StudyConfig,
    sup: &SupervisorConfig,
    checkpoint: Option<&Path>,
    metrics: &Metrics,
) -> Result<StudyData, SupervisorError> {
    let world = World::generate(*world);
    let mut sink = ColumnarSink::new(study.n_windows() as usize);
    let report = match checkpoint {
        Some(dir) => run_study_checkpointed(&world, study, sup, dir, &mut sink, metrics)?,
        None => run_study_supervised(&world, study, sup, &mut sink, metrics)?,
    };
    publish_footprint(metrics, "columnar", &sink.footprint());
    let summaries = sink.take_summaries();
    let sessions = Some(Sessions::Columns(Box::new(sink)));
    Ok(StudyData { world, study: *study, sink: "exact", summaries, sessions, report })
}

/// Run `study` through the streaming sink, under the same driver. Each
/// worker closes a prefix's cells a window at a time, each into its
/// digest cell's row, so a digest exists only for the cell being closed;
/// what accumulates is a 64-byte grid slot a cell, holding its packed
/// row, one Figure 6 rollup digest a group, in prefix order at any
/// parallelism, and the exact sink's HDratio tally. The grid is handed
/// over, not copied: the dataset keeps its rollups, tally and counters.
/// Its rollups have no on-disk form, so it takes no checkpoint directory.
///
/// # Errors
///
/// The fault plan's injected crash.
pub fn run_streaming(
    world: &WorldConfig,
    study: &StudyConfig,
    sup: &SupervisorConfig,
    metrics: &Metrics,
) -> Result<StudyData, SupervisorError> {
    let world = World::generate(*world);
    let mut dataset = StreamingDataset::new(study.n_windows() as usize);
    let report = run_study_supervised(&world, study, sup, &mut dataset, metrics)?;
    publish_footprint(metrics, "streaming", &dataset.footprint());
    let summaries = dataset.take_summaries();
    let sessions = Some(Sessions::Digests(Box::new(dataset)));
    Ok(StudyData { world, study: *study, sink: "streaming", summaries, sessions, report })
}

/// What a sink holds once its study is run, part by part, as the gauges
/// `analysis.<sink>.<part>`.
fn publish_footprint(metrics: &Metrics, sink: &str, parts: &[(&str, usize)]) {
    if metrics.is_enabled() {
        for (part, value) in parts {
            metrics.gauge(&format!("analysis.{sink}.{part}")).set(*value as f64);
        }
    }
}

fn cont_name(c: u8) -> &'static str {
    Continent::from_u8(c).map(|c| c.code()).unwrap_or("??")
}

/// Figure 6 summary: MinRTT and HDratio distributions.
#[derive(Debug, Clone, Serialize)]
pub struct Fig6Summary {
    /// Global MinRTT quantiles (p50, p80) in ms (paper: 39, 78).
    pub minrtt_p50: f64,
    /// 80th percentile MinRTT.
    pub minrtt_p80: f64,
    /// Median MinRTT per continent (paper: AF 58, AS 51, SA 40, rest ≈25).
    pub minrtt_p50_by_continent: BTreeMap<String, f64>,
    /// Fraction of sessions with HDratio > 0 (paper: 0.82).
    pub hdratio_gt0: f64,
    /// Fraction with HDratio = 1 (paper: 0.60).
    pub hdratio_eq1: f64,
    /// Fraction with HDratio = 0 per continent (paper: AF .36 AS .24 SA .27).
    pub hdratio_zero_by_continent: BTreeMap<String, f64>,
}

/// Compute the Figure 6 summary.
///
/// From the exact sink the MinRTT quantiles are exact ranks read in place
/// off its rows; from the streaming sink they come off its rollup digests
/// (the groups' merged in work-item order — mostly within a percent of
/// exact, but 4.6 % over at seed 51, where the 80th percentile sits where
/// the sessions thin out: see EXPERIMENTS.md). Either way the HDratio
/// point masses are the counts the sink tallied, the same in both: no copy
/// of the sessions is made.
///
/// # Panics
/// Panics when the per-session view has been released.
pub fn fig6(data: &StudyData) -> Fig6Summary {
    let name = |c: u8| cont_name(c).to_string();
    let sessions = data.sessions.as_ref().expect("fig6 reads the per-session view");
    let (minrtt_p50, minrtt_p80, minrtt_p50_by_continent) = match sessions {
        Sessions::Columns(sink) => {
            let (all, per) = fig6_minrtt(&**sink);
            (all.p50, all.p80, per.iter().map(|(c, q)| (name(*c), q.p50)).collect())
        }
        Sessions::Digests(ds) => {
            let (all, per) = ds.minrtt_rollup();
            let medians = per.iter().map(|(c, d)| (name(*c), d.quantile(0.5))).collect();
            (all.quantile(0.5), all.quantile(0.8), medians)
        }
    };
    let (hd_all, hd_cont) = sessions.hdratio().rollup();
    Fig6Summary {
        minrtt_p50,
        minrtt_p80,
        minrtt_p50_by_continent,
        hdratio_gt0: 1.0 - hd_all.fraction_zero(),
        hdratio_eq1: 1.0 - hd_all.fraction_below_one(),
        hdratio_zero_by_continent: hd_cont
            .iter()
            .map(|(c, n)| (name(*c), n.fraction_zero()))
            .collect(),
    }
}

/// Figure 7 summary: HDratio by MinRTT bucket.
#[derive(Debug, Clone, Serialize)]
pub struct Fig7Row {
    /// MinRTT bucket label (ms).
    pub bucket: String,
    /// Fraction with HDratio = 0.
    pub frac_zero: f64,
    /// Median HDratio.
    pub median: f64,
    /// Fraction with HDratio = 1.
    pub frac_one: f64,
}

/// Compute Figure 7 rows, off the sink's HDratio tally: the same counts,
/// hence the same rows, from either sink.
///
/// # Panics
/// Panics when the per-session view has been released.
pub fn fig7(data: &StudyData) -> Vec<Fig7Row> {
    let sessions = data.sessions.as_ref().expect("fig7 reads the per-session view");
    sessions
        .hdratio()
        .fig7()
        .into_iter()
        .map(|b| Fig7Row {
            bucket: b.label.to_string(),
            frac_zero: b.hdratio.fraction_zero(),
            median: b.median,
            frac_one: 1.0 - b.hdratio.fraction_below_one(),
        })
        .collect()
}

/// A difference-distribution summary (Figures 8 and 9).
#[derive(Debug, Clone, Serialize)]
pub struct DiffSummary {
    /// Metric label.
    pub metric: String,
    /// Traffic-weighted quantiles of the difference: (q, value).
    pub quantiles: Vec<(f64, f64)>,
    /// Fractions of traffic with difference ≥ each threshold.
    pub traffic_at_least: Vec<(f64, f64)>,
    /// Fraction of dataset traffic included in valid comparisons.
    pub traffic_covered: f64,
}

fn summarize_diff(metric: &str, cdfs: Option<DiffCdfs>, thresholds: &[f64]) -> Option<DiffSummary> {
    let c = cdfs?;
    Some(DiffSummary {
        metric: metric.to_string(),
        quantiles: c.diff.quantiles(&[0.1, 0.5, 0.9, 0.99]),
        traffic_at_least: thresholds.iter().map(|&t| (t, 1.0 - c.diff.fraction_leq(t))).collect(),
        traffic_covered: c.traffic_covered,
    })
}

/// The analysis config with the HDratio CI-tightness rule relaxed. The
/// paper's 0.1 rule validates a null comparison of HDratio mixtures only
/// from about 4,000–16,000 sessions a side (`stats/tests/coverage.rs` pins
/// 74 % of null comparisons valid at 4,000 and all at 16,000); this
/// reproduction's cells hold 168–312, where median CIs over bimodal
/// HDratio samples are 0.36–0.61 wide, so the strict rule (correctly)
/// invalidates most windows. The relaxed view shows the underlying shape
/// and is always labeled as such.
fn relaxed() -> AnalysisConfig {
    AnalysisConfig { max_ci_width_hdratio: 1.01, ..AnalysisConfig::default() }
}

/// The three series of Figure 8 or 9 — MinRTT, HDratio, and HDratio under
/// the [`relaxed`] CI rule — from that figure's builder.
fn diff_figure(
    data: &StudyData,
    figure: fn(&AnalysisConfig, &Summaries, DegradationMetric) -> Option<DiffCdfs>,
    labels: [&str; 3],
    minrtt_thresholds: &[f64],
    hdratio_thresholds: &[f64],
) -> Vec<DiffSummary> {
    [
        (labels[0], AnalysisConfig::default(), DegradationMetric::MinRtt, minrtt_thresholds),
        (labels[1], AnalysisConfig::default(), DegradationMetric::HdRatio, hdratio_thresholds),
        (labels[2], relaxed(), DegradationMetric::HdRatio, hdratio_thresholds),
    ]
    .into_iter()
    .filter_map(|(label, cfg, metric, thresholds)| {
        summarize_diff(label, figure(&cfg, &data.summaries, metric), thresholds)
    })
    .collect()
}

/// Figure 8: degradation distributions for both metrics.
pub fn fig8(data: &StudyData) -> Vec<DiffSummary> {
    let labels = [
        "MinRTT_P50 degradation (ms)",
        "HDratio_P50 degradation",
        "HDratio_P50 degradation [relaxed CI rule]",
    ];
    diff_figure(data, fig8_degradation, labels, &[4.0, 10.0, 20.0], &[0.065, 0.2, 0.4])
}

/// Figure 9: opportunity distributions for both metrics.
pub fn fig9(data: &StudyData) -> Vec<DiffSummary> {
    let labels = [
        "MinRTT_P50 improvement on best alternate (ms)",
        "HDratio_P50 improvement on best alternate",
        "HDratio_P50 improvement [relaxed CI rule]",
    ];
    diff_figure(data, fig9_opportunity, labels, &[3.0, 5.0, 10.0], &[0.025, 0.05, 0.1])
}

/// Figure 10: MinRTT difference by relationship pair.
pub fn fig10(data: &StudyData) -> Vec<DiffSummary> {
    [RelPair::PeeringVsTransit, RelPair::TransitVsTransit, RelPair::PrivateVsPublic]
        .into_iter()
        .filter_map(|pair| {
            summarize_diff(
                pair.label(),
                fig10_by_relationship(&AnalysisConfig::default(), &data.summaries, pair),
                &[5.0, 10.0],
            )
        })
        .collect()
}

/// One Table-1 block: a metric at a threshold.
#[derive(Debug, Clone, Serialize)]
pub struct Table1Block {
    /// "degradation" or "opportunity".
    pub kind: String,
    /// Metric label.
    pub metric: String,
    /// Threshold value.
    pub threshold: f64,
    /// (class, group-traffic share, event-traffic share) overall.
    pub overall: Vec<(String, f64, f64)>,
    /// Per continent: (class, continent, shares).
    pub per_continent: Vec<(String, String, f64, f64)>,
}

/// Compute the paper's Table-1 threshold grid.
pub fn table1_blocks(data: &StudyData) -> Vec<Table1Block> {
    use AnalysisKind::{Degradation, Opportunity};
    use DegradationMetric::{HdRatio, MinRtt};
    let spec: [(AnalysisKind, DegradationMetric, &str, &[f64]); 4] = [
        (Degradation, MinRtt, "MinRTT_P50 (+ms)", &[5.0, 10.0, 20.0, 50.0]),
        (Degradation, HdRatio, "HDratio_P50 (-) [relaxed CI]", &[0.05, 0.1, 0.2, 0.5]),
        (Opportunity, MinRtt, "MinRTT_P50 (-ms)", &[5.0, 10.0]),
        (Opportunity, HdRatio, "HDratio_P50 (+) [relaxed CI]", &[0.05]),
    ];
    let mut blocks = Vec::new();
    for (kind, metric, label, thresholds) in spec {
        let cfg = if metric == HdRatio { relaxed() } else { AnalysisConfig::default() };
        for &t in thresholds {
            let tab = table1(&cfg, &data.summaries, kind, metric, t);
            blocks.push(Table1Block {
                kind: if kind == Degradation { "degradation" } else { "opportunity" }.into(),
                metric: label.to_string(),
                threshold: t,
                overall: tab
                    .overall
                    .iter()
                    .map(|(c, s)| (c.label(), s.group_share, s.event_share))
                    .collect(),
                per_continent: tab
                    .per_continent
                    .iter()
                    .map(|((c, cont), s)| {
                        let cont = cont_name(*cont).to_string();
                        (c.label(), cont, s.group_share, s.event_share)
                    })
                    .collect(),
            });
        }
    }
    blocks
}

/// Table 2 output rows.
#[derive(Debug, Clone, Serialize)]
pub struct Table2Output {
    /// Metric label.
    pub metric: String,
    /// (pref→alt label, absolute, relative, longer, prepended).
    pub rows: Vec<(String, f64, f64, f64, f64)>,
}

/// Compute Table 2 for both metrics at the paper's thresholds.
pub fn table2_outputs(data: &StudyData) -> Vec<Table2Output> {
    let spec = [
        (DegradationMetric::MinRtt, "MinRTT_P50 (5 ms)", 5.0),
        (DegradationMetric::HdRatio, "HDratio_P50 (0.05)", 0.05),
    ];
    spec.iter()
        .map(|&(metric, label, t)| {
            let rows = table2(&AnalysisConfig::default(), &data.summaries, metric, t);
            Table2Output {
                metric: label.to_string(),
                rows: rows
                    .iter()
                    .map(|(&(p, a), r): (&(Relationship, Relationship), &Table2Row)| {
                        (
                            format!("{} → {}", p.label(), a.label()),
                            r.absolute,
                            r.relative,
                            r.longer,
                            r.prepended,
                        )
                    })
                    .collect(),
            }
        })
        .collect()
}

/// Render helpers for the repro binary.
pub fn render_fig6(s: &Fig6Summary) -> String {
    let mut out = String::from("== Figure 6: global MinRTT & HDratio ==\n");
    out.push_str(&format!(
        "MinRTT p50 = {:.1} ms (paper: <39)   p80 = {:.1} ms (paper: 78)\n",
        s.minrtt_p50, s.minrtt_p80
    ));
    out.push_str("median MinRTT by continent (paper: AF 58, AS 51, SA 40, others ~25):\n");
    for (c, v) in &s.minrtt_p50_by_continent {
        out.push_str(&format!("  {c}: {v:.1} ms\n"));
    }
    out.push_str(&format!(
        "HDratio > 0: {:.2} (paper 0.82)   HDratio = 1: {:.2} (paper 0.60)\n",
        s.hdratio_gt0, s.hdratio_eq1
    ));
    out.push_str("HDratio = 0 by continent (paper: AF .36, AS .24, SA .27):\n");
    for (c, v) in &s.hdratio_zero_by_continent {
        out.push_str(&format!("  {c}: {v:.2}\n"));
    }
    out
}

/// Render Figure 7 rows.
pub fn render_fig7(rows: &[Fig7Row]) -> String {
    let mut out = String::from("== Figure 7: HDratio by MinRTT bucket ==\n");
    out.push_str("bucket(ms)  frac(HD=0)  median  frac(HD=1)\n");
    for r in rows {
        out.push_str(&format!(
            "{:>10} {:>11.2} {:>7.2} {:>11.2}\n",
            r.bucket, r.frac_zero, r.median, r.frac_one
        ));
    }
    out
}

/// Render a diff summary list.
pub fn render_diffs(title: &str, diffs: &[DiffSummary]) -> String {
    let mut out = format!("== {title} ==\n");
    for d in diffs {
        out.push_str(&format!("-- {} (traffic covered: {:.2}) --\n", d.metric, d.traffic_covered));
        for (q, v) in &d.quantiles {
            out.push_str(&format!("  p{:<3.0} = {:+.3}\n", q * 100.0, v));
        }
        for (t, f) in &d.traffic_at_least {
            out.push_str(&format!("  traffic with diff >= {t}: {:.3}\n", f));
        }
    }
    out
}

/// Render Table 1 blocks.
pub fn render_table1(blocks: &[Table1Block]) -> String {
    let mut out = String::from("== Table 1: temporal behaviour classes ==\n");
    for b in blocks {
        out.push_str(&format!("-- {} {} @ {} --\n", b.kind, b.metric, b.threshold));
        for (class, g, e) in &b.overall {
            out.push_str(&format!("  {class:<11} group-share {g:.3}  event-share {e:.3}\n"));
        }
        for (class, cont, g, e) in &b.per_continent {
            out.push_str(&format!("    {cont} {class:<11} {g:.3} {e:.3}\n"));
        }
    }
    out
}

/// Render Table 2 outputs.
pub fn render_table2(outputs: &[Table2Output]) -> String {
    let mut out = String::from("== Table 2: opportunity by relationship pair ==\n");
    for t in outputs {
        out.push_str(&format!("-- {} --\n", t.metric));
        out.push_str("  pair                      absolute  relative  longer  prepended\n");
        for (pair, a, r, l, p) in &t.rows {
            out.push_str(&format!("  {pair:<25} {a:>8.4} {r:>9.3} {l:>7.3} {p:>10.3}\n"));
        }
        if t.rows.is_empty() {
            out.push_str("  (no opportunity events)\n");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgeperf_analysis::RecordSink;

    fn small() -> (WorldConfig, StudyConfig) {
        let (world, mut study) = scaled(42, 0.3);
        (study.days, study.sessions_per_group_window) = (1, 40);
        (world, study)
    }

    /// `study` over `world` through the exact sink, fault-free.
    fn exact((world, study): (WorldConfig, StudyConfig)) -> StudyData {
        run(&world, &study, &SupervisorConfig::default(), None, &Metrics::disabled()).unwrap()
    }

    /// The same through the streaming sink.
    fn streaming((world, study): (WorldConfig, StudyConfig)) -> StudyData {
        let sup = SupervisorConfig::default();
        run_streaming(&world, &study, &sup, &Metrics::disabled()).unwrap()
    }

    fn sessions_held(data: &StudyData) -> u64 {
        match data.sessions.as_ref().expect("nothing released them") {
            Sessions::Columns(sink) => sink.stats().records,
            Sessions::Digests(digests) => digests.stats().records,
        }
    }

    #[test]
    fn scale_mapping_matches_the_old_cli_defaults() {
        let (world, study) = scaled(7, 0.1);
        assert_eq!((world.seed, study.seed), (7, 7 ^ 0xABCD));
        assert_eq!((study.days, study.sessions_per_group_window), (1, 24));
        assert!((world.country_fraction - 0.15).abs() < 1e-12);
        let (world, study) = scaled(7, 1.0);
        assert_eq!((study.days, study.sessions_per_group_window), (3, 240));
        assert_eq!(world.country_fraction, 1.0);
        assert_eq!(study.parallelism, 0, "one worker a core");
    }

    #[test]
    fn a_study_records_into_the_supplied_metrics_handle() {
        let metrics = Metrics::enabled();
        let (world, study) = small();
        let data = run(&world, &study, &SupervisorConfig::default(), None, &metrics).unwrap();
        let snap = metrics.snapshot();
        assert_eq!(
            snap.counters.get("runner.records_emitted").copied(),
            Some(sessions_held(&data))
        );
        assert!(snap.spans.iter().any(|s| s.name == "study"));
    }

    #[test]
    fn study_pipeline_produces_all_outputs() {
        let data = exact(small());
        assert!(sessions_held(&data) > 0);
        let f6 = fig6(&data);
        assert!(f6.minrtt_p50 > 5.0 && f6.minrtt_p50 < 100.0, "{}", f6.minrtt_p50);
        assert!(f6.hdratio_gt0 > 0.3, "{}", f6.hdratio_gt0);
        let f7 = fig7(&data);
        assert!(!f7.is_empty());
        // Lower-latency buckets should not be worse than the 81+ bucket.
        if f7.len() == 4 {
            assert!(f7[0].median >= f7[3].median);
        }
        let t1 = table1_blocks(&data);
        assert_eq!(t1.len(), 4 + 4 + 2 + 1);
        let _ = table2_outputs(&data);
        let _ = fig10(&data);
    }

    #[test]
    fn a_quick_study_keeps_every_shard_compact() {
        // A group's MinRTTs lie close together and an HDratio is `achieved
        // / tested`: were either to change, the exact sink would keep wider
        // Rice-coded gaps, or tally an entry an HDratio, without any
        // output changing.
        let data = exact(scaled(20190521, 0.1));
        let Some(Sessions::Columns(sink)) = &data.sessions else { panic!("an exact study") };
        let part = |name: &str| sink.footprint().into_iter().find(|p| p.0 == name).unwrap().1;
        let (kept, rows) = (part("kept_bytes"), sink.rows().count());
        assert_eq!(part("kept_rows"), rows);
        // 1.71 B a row: at this scale a group's run is ~1,000 rows, so its
        // gaps are wider than in scale 1's ~30,000.
        assert!(rows > 10_000 && kept * 5 < 9 * rows, "{kept} B for {rows} MinRTTs");
        let (tested, distinct) =
            (sink.hdratio().rollup().0.tested, sink.hdratio().distinct_hdratios());
        assert!(distinct > 0 && (distinct as u64) < tested / 10, "{distinct} distinct of {tested}");
        // Alternate routes are summaries only: no row of theirs is held.
        let preferred = data.summaries.groups.iter().flat_map(|(_, g)| g.preferred());
        assert_eq!(preferred.map(|c| c.n as usize).sum::<usize>(), rows);
        let alternates = data.summaries.groups.iter().flat_map(|(_, g)| g.ranks.iter().skip(1));
        assert!(alternates.flatten().flatten().count() > 0, "the study measured alternates");
    }

    #[test]
    fn streaming_study_tracks_exact_study() {
        let (exact, stream) = (exact(small()), streaming(small()));
        // Same sessions flowed through both sinks.
        let totals = |r: &StudyReport| {
            (r.completed, r.sessions_simulated, r.records_emitted, r.sessions_dropped_no_minrtt)
        };
        assert_eq!(totals(&exact.report), totals(&stream.report));
        assert_eq!(exact.report.records_emitted, sessions_held(&exact));
        // Both sinks tally the same HDratios: Figure 7 is the same bits.
        let f7 = |d: &StudyData| serde_json::to_string(&fig7(d)).expect("serializable");
        assert_eq!(f7(&stream), f7(&exact));
        assert!(!fig7(&stream).is_empty());
        let f6e = fig6(&exact);
        let f6s = fig6(&stream);
        assert!(
            (f6e.minrtt_p50 - f6s.minrtt_p50).abs() <= 0.5,
            "{} vs {}",
            f6e.minrtt_p50,
            f6s.minrtt_p50
        );
        assert!(
            (f6e.minrtt_p80 - f6s.minrtt_p80).abs() <= 1.0,
            "{} vs {}",
            f6e.minrtt_p80,
            f6s.minrtt_p80
        );
        // Point-mass fractions are counted, not read off centroids: equal.
        assert_eq!(f6e.hdratio_gt0, f6s.hdratio_gt0);
        assert_eq!(f6e.hdratio_eq1, f6s.hdratio_eq1);
        assert_eq!(f6e.hdratio_zero_by_continent, f6s.hdratio_zero_by_continent);
        // Fig 10 reaches the same comparisons from digest order statistics.
        // So do Figs 8 and 9, and the tables come out whole.
        for (e, s) in [
            (fig10(&exact), fig10(&stream)),
            (fig8(&exact), fig8(&stream)),
            (fig9(&exact), fig9(&stream)),
        ] {
            assert_eq!(e.len(), s.len());
            for (e, s) in e.iter().zip(&s) {
                assert_eq!(e.metric, s.metric);
                assert!((e.traffic_covered - s.traffic_covered).abs() < 0.15);
                let p50 = |d: &DiffSummary| d.quantiles.iter().find(|(q, _)| *q == 0.5).unwrap().1;
                assert!((p50(e) - p50(s)).abs() < 2.0, "{} vs {}", p50(e), p50(s));
            }
        }
        assert_eq!(table1_blocks(&stream).len(), table1_blocks(&exact).len());
        assert_eq!(table2_outputs(&stream).len(), table2_outputs(&exact).len());
    }

    #[test]
    fn streaming_output_does_not_depend_on_the_scheduler() {
        // Every study experiment `repro --streaming` writes, as the JSON
        // it writes: one worker and four must agree to the byte, fig6 (a
        // digest merge, order-sensitive) and the float sums of figs 8–10
        // and the tables (group-order-sensitive) included.
        let tree = |parallelism: usize| {
            let (world, study) = small();
            let d = streaming((world, StudyConfig { parallelism, ..study }));
            [
                serde_json::to_string(&fig6(&d)),
                serde_json::to_string(&fig7(&d)),
                serde_json::to_string(&fig8(&d)),
                serde_json::to_string(&fig9(&d)),
                serde_json::to_string(&fig10(&d)),
                serde_json::to_string(&table1_blocks(&d)),
                serde_json::to_string(&table2_outputs(&d)),
            ]
            .map(|json| json.expect("serializable"))
        };
        assert_eq!(tree(1), tree(4));
    }

    #[test]
    fn preferred_route_is_usually_best() {
        // The paper's headline: default routing is close to optimal.
        let data = exact(small());
        let opp = fig9(&data);
        if let Some(minrtt) = opp.iter().find(|d| d.metric.contains("MinRTT")) {
            // Median improvement available should be ≈ 0 or negative.
            let p50 = minrtt.quantiles.iter().find(|(q, _)| *q == 0.5).unwrap().1;
            assert!(p50 < 5.0, "median available improvement too large: {p50}");
        }
    }
}
