//! Tier-1 golden for the §§4–6 analyses: a small seeded study must render
//! fig8, fig9, fig10, Table 1 and Table 2 through either sink, and a wider,
//! thinner one fig6 and fig7 through the exact sink and fig6 through the
//! streaming one, to exactly the bytes recorded in
//! `tests/golden/analysis_small.json`. Each part was recorded at the commit
//! before its rewrite: the exact analyses before they read cell summaries;
//! fig6 and fig7 (then computed from a `Vec<SessionRecord>`) before they
//! read the columnar sink's rows; the streaming fig6 line when the sink
//! began to seal groups in prefix order, before which it was not
//! reproducible (its HDratio half must equal the exact line's); the
//! streaming fig8, fig9 and tables, which read Price–Bonett variances off
//! t-digest order statistics, before closing a digest stopped computing
//! terms that are exactly zero or unused. Floats are written in Rust's
//! shortest round-trip form, so equal text means equal bits.

use edgeperf::analysis::figures::{
    fig10_by_relationship, fig6_minrtt, fig8_degradation, fig9_opportunity, DiffCdfs, Fig7Bucket,
    HdratioCounts, MinRttQuantiles, RelPair,
};
use edgeperf::analysis::tables::{table1, table2, AnalysisKind, Table1};
use edgeperf::analysis::{
    AnalysisConfig, ColumnarSink, DegradationMetric, StreamingDataset, Summaries,
};
use edgeperf::stats::cdf::WeightedCdf;
use edgeperf::stats::TDigest;
use edgeperf::world::{run_study_into, StudyConfig, World, WorldConfig};
use std::collections::BTreeMap;

const MINRTT: DegradationMetric = DegradationMetric::MinRtt;
const HDRATIO: DegradationMetric = DegradationMetric::HdRatio;
const PAIRS: [RelPair; 3] =
    [RelPair::PeeringVsTransit, RelPair::TransitVsTransit, RelPair::PrivateVsPublic];

fn list(items: impl IntoIterator<Item = String>, indent: &str) -> String {
    let items: Vec<String> = items.into_iter().map(|i| format!("{indent}  {i}")).collect();
    if items.is_empty() {
        return "[]".to_string();
    }
    format!("[\n{}\n{indent}]", items.join(",\n"))
}

fn diff_json(name: &str, cdfs: Option<DiffCdfs>) -> String {
    let Some(c) = cdfs else {
        return format!("{{\"series\": \"{name}\", \"empty\": true}}");
    };
    let row = |cdf: &WeightedCdf| {
        let qs = [0.0, 0.1, 0.5, 0.9, 0.99, 1.0].map(|q| format!("{:?}", cdf.quantile(q)));
        qs.join(", ")
    };
    format!(
        "{{\"series\": \"{name}\", \"weight\": {:?}, \"covered\": {:?}, \"diff\": [{}], \"lo\": [{}], \"hi\": [{}]}}",
        c.diff.total_weight(),
        c.traffic_covered,
        row(&c.diff),
        row(&c.lo),
        row(&c.hi)
    )
}

fn table1_json(name: &str, t: &Table1) -> String {
    let overall = t.overall.iter().map(|(class, s)| {
        format!("[\"{}\", {:?}, {:?}]", class.label(), s.group_share, s.event_share)
    });
    let per_continent = t.per_continent.iter().map(|((class, cont), s)| {
        format!("[\"{}\", {cont}, {:?}, {:?}]", class.label(), s.group_share, s.event_share)
    });
    format!(
        "{{\"table1\": \"{name}\", \"overall\": {}, \"per_continent\": {}}}",
        list(overall, "    "),
        list(per_continent, "    ")
    )
}

fn by_continent<D>(per: &BTreeMap<u8, D>, stat: impl Fn(&D) -> f64) -> String {
    let rows: Vec<String> = per.iter().map(|(c, d)| format!("[{c}, {:?}]", stat(d))).collect();
    rows.join(", ")
}

/// The MinRTT half of Figure 6 as `repro` summarises it, every number
/// exact: sessions, p50, p80 and the per-continent medians.
fn fig6_minrtt_json<D>(
    (all, per): &(D, BTreeMap<u8, D>),
    count: impl Fn(&D) -> f64,
    quantile: impl Fn(&D, f64) -> f64,
) -> String {
    format!(
        "\"fig6\": {:?}, \"minrtt_p50\": {:?}, \"minrtt_p80\": {:?}, \"minrtt_p50_by_continent\": [{}]",
        count(all),
        quantile(all, 0.5),
        quantile(all, 0.8),
        by_continent(per, |d| quantile(d, 0.5)),
    )
}

/// The HDratio half: tested sessions, the point masses at 0 and 1, and
/// the per-continent mass at 0 — `(tested, at 0, below 1)` fractions read
/// off whatever holds the distribution.
fn fig6_hdratio_json<D>(
    (all, per): &(D, BTreeMap<u8, D>),
    masses: impl Fn(&D) -> (f64, f64, f64),
) -> String {
    let (tested, zero, below_one) = masses(all);
    format!(
        "\"tested\": {tested:?}, \"hdratio_eq0\": {zero:?}, \"hdratio_eq1\": {:?}, \"hdratio_eq0_by_continent\": [{}]",
        1.0 - below_one,
        by_continent(per, |d| masses(d).1),
    )
}

fn fig7_json(b: &Fig7Bucket) -> String {
    format!(
        "{{\"fig7\": \"{}\", \"tested\": {:?}, \"frac_zero\": {:?}, \"median\": {:?}, \"frac_one\": {:?}}}",
        b.label,
        b.hdratio.tested as f64,
        b.hdratio.fraction_zero(),
        b.median,
        1.0 - b.hdratio.fraction_below_one()
    )
}

/// Figures 8 and 9 over one sink's cell summaries.
fn fig8_fig9(cfg: &AnalysisConfig, relaxed: &AnalysisConfig, ds: &Summaries) -> Vec<String> {
    vec![
        diff_json("fig8 minrtt", fig8_degradation(cfg, ds, MINRTT)),
        diff_json("fig8 hdratio", fig8_degradation(cfg, ds, HDRATIO)),
        diff_json("fig8 hdratio relaxed", fig8_degradation(relaxed, ds, HDRATIO)),
        diff_json("fig9 minrtt", fig9_opportunity(cfg, ds, MINRTT)),
        diff_json("fig9 hdratio", fig9_opportunity(cfg, ds, HDRATIO)),
        diff_json("fig9 hdratio relaxed", fig9_opportunity(relaxed, ds, HDRATIO)),
    ]
}

/// Figure 10, one line a relationship pair.
fn fig10(cfg: &AnalysisConfig, ds: &Summaries) -> [String; 3] {
    PAIRS.map(|p| diff_json(p.label(), fig10_by_relationship(cfg, ds, p)))
}

/// Tables 1 and 2 over one sink's cell summaries.
fn tables(cfg: &AnalysisConfig, relaxed: &AnalysisConfig, ds: &Summaries) -> Vec<String> {
    let mut lines = Vec::new();
    for (name, cfg, kind, metric, threshold) in [
        ("degradation minrtt 5", cfg, AnalysisKind::Degradation, MINRTT, 5.0),
        ("degradation hdratio 0.05 relaxed", relaxed, AnalysisKind::Degradation, HDRATIO, 0.05),
        ("opportunity minrtt 5", cfg, AnalysisKind::Opportunity, MINRTT, 5.0),
    ] {
        lines.push(table1_json(name, &table1(cfg, ds, kind, metric, threshold)));
    }
    for (metric, label, threshold) in [(MINRTT, "minrtt 5", 5.0), (HDRATIO, "hdratio 0.05", 0.05)] {
        let rows = table2(cfg, ds, metric, threshold).into_iter().map(|((pref, alt), r)| {
            let shares = [r.absolute, r.relative, r.longer, r.prepended].map(|v| format!("{v:?}"));
            format!("[\"{} -> {}\", {}]", pref.label(), alt.label(), shares.join(", "))
        });
        lines.push(format!("{{\"table2\": \"{label}\", \"rows\": {}}}", list(rows, "    ")));
    }
    lines
}

fn render() -> String {
    // One worker: the shard merge order, hence the order CDF inputs are
    // pushed in, is then the same on every run.
    let world =
        World::generate(WorldConfig { seed: 11, country_fraction: 0.2, ..Default::default() });
    let study = StudyConfig {
        seed: 521,
        days: 1,
        sessions_per_group_window: 100,
        parallelism: 1,
        ..Default::default()
    };
    let windows = study.n_windows() as usize;
    let cfg = AnalysisConfig::default();
    let relaxed = AnalysisConfig { max_ci_width_hdratio: 1.01, ..cfg };

    // Figures 6–7 want every continent and every MinRTT bucket: a wider,
    // thinner study of their own, read off the sink's rows and tally.
    let wide =
        World::generate(WorldConfig { seed: 11, country_fraction: 1.0, ..Default::default() });
    let mut sessions = ColumnarSink::new(windows);
    run_study_into(&wide, &StudyConfig { sessions_per_group_window: 4, ..study }, &mut sessions);
    let masses = |n: &HdratioCounts| (n.tested as f64, n.fraction_zero(), n.fraction_below_one());
    let exact_hdratio = fig6_hdratio_json(&sessions.hdratio().rollup(), masses);
    let exact_minrtt = fig6_minrtt_json(
        &fig6_minrtt(&sessions),
        |d: &MinRttQuantiles| d.sessions as f64,
        |d, q| if q == 0.5 { d.p50 } else { d.p80 },
    );
    let mut exact = vec![format!("{{{exact_minrtt}, {exact_hdratio}}}")];
    exact.extend(sessions.hdratio().fig7().iter().map(fig7_json));

    let mut columnar = ColumnarSink::new(windows);
    run_study_into(&world, &study, &mut columnar);
    let ds = columnar.summarize();
    let mut stream = StreamingDataset::new(windows);
    run_study_into(&world, &study, &mut stream);
    let stream = stream.summarize();
    exact.extend(fig8_fig9(&cfg, &relaxed, &ds));
    exact.extend(fig10(&cfg, &ds));
    exact.extend(tables(&cfg, &relaxed, &ds));

    // Streaming Figure 6 over the same wide study: MinRTT off the rollup
    // digests, HDratio off the counters — which are not an approximation.
    let mut digests = StreamingDataset::new(windows);
    run_study_into(&wide, &StudyConfig { sessions_per_group_window: 4, ..study }, &mut digests);
    let stream_hdratio = fig6_hdratio_json(&digests.hdratio().rollup(), masses);
    assert_eq!(stream_hdratio, exact_hdratio, "HDratio point masses are counted, hence exact");
    let stream_minrtt =
        fig6_minrtt_json(&digests.minrtt_rollup(), TDigest::count, TDigest::quantile);
    let mut streaming = vec![format!("{{{stream_minrtt}, {stream_hdratio}}}")];
    streaming.extend(fig8_fig9(&cfg, &relaxed, &stream));
    streaming.extend(tables(&cfg, &relaxed, &stream));
    streaming.extend(fig10(&cfg, &stream));

    format!(
        "{{\n  \"exact\": {},\n  \"streaming\": {}\n}}\n",
        list(exact, "  "),
        list(streaming, "  ")
    )
}

#[test]
fn analyses_match_the_recorded_golden() {
    let got = render();
    assert!(got.contains("\"weight\""), "the study must be large enough to yield comparisons");
    let want = include_str!("golden/analysis_small.json");
    if got != want {
        let actual = concat!(env!("CARGO_TARGET_TMPDIR"), "/analysis_small.json");
        std::fs::write(actual, &got).expect("write the actual rendering");
        panic!("analysis output drifted from tests/golden/analysis_small.json; actual: {actual}");
    }
}
