//! End-to-end agreement between the exact (`Vec`) and streaming record
//! sinks, across parallelism levels, on a skewed world.
//!
//! The work-stealing scheduler hands each prefix to exactly one worker,
//! so the record *multiset* (Vec sink) and everything the streaming sink
//! answers once finalized (it seals each prefix under its index) must be
//! independent of the worker count; and the streaming cells must agree
//! with the exact aggregations to within the t-digest approximation
//! bounds, with sample extremes preserved exactly.

use edgeperf_analysis::figures::{HdratioTally, PreferredSessions};
use edgeperf_analysis::sink::{RecordShard, RecordSink};
use edgeperf_analysis::{
    compare, Aggregation, AnalysisConfig, ColumnarSink, CompareOutcome, Dataset, DegradationMetric,
    GroupKey, SessionRecord, StreamingDataset, Summaries, WindowCell,
};
use edgeperf_routing::{PopId, Prefix};
use edgeperf_stats::median_ci::diff_of_medians_ci_sorted;
use edgeperf_world::{run_study_into, StudyConfig, World, WorldConfig};
use std::collections::HashMap;

/// A reduced-country world keeps the runtime testable while preserving
/// the per-prefix skew (route counts, diurnal activity, cluster mixes)
/// that the work-stealing scheduler exists for.
fn skewed() -> (World, StudyConfig) {
    let world =
        World::generate(WorldConfig { seed: 99, country_fraction: 0.25, ..Default::default() });
    let cfg = StudyConfig {
        seed: 17,
        days: 1,
        sessions_per_group_window: 3,
        parallelism: 1,
        ..Default::default()
    };
    (world, cfg)
}

fn record_key(r: &SessionRecord) -> (u32, u32, u8, u64, u64) {
    (r.group.prefix.base, r.window, r.route_rank, u64::from(r.min_rtt_ns), r.bytes)
}

#[test]
fn vec_sink_multiset_identical_across_parallelism() {
    let (world, cfg) = skewed();
    let mut runs: Vec<Vec<SessionRecord>> = [1usize, 4]
        .iter()
        .map(|&p| {
            let mut records: Vec<SessionRecord> = Vec::new();
            let report =
                run_study_into(&world, &StudyConfig { parallelism: p, ..cfg }, &mut records);
            assert_eq!(report.records_emitted, records.len() as u64);
            records.sort_by_key(record_key);
            records
        })
        .collect();
    let b = runs.pop().unwrap();
    let a = runs.pop().unwrap();
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(record_key(x), record_key(y));
        assert_eq!(x.hdratio.map(f64::to_bits), y.hdratio.map(f64::to_bits));
    }
}

#[test]
fn streaming_cells_identical_across_parallelism() {
    // The twin of `vec_sink_multiset_identical_across_parallelism`: one
    // prefix is claimed by exactly one worker and sealed under its index,
    // so everything a finalized streaming sink answers — summaries in
    // group order, the Figure 6 MinRTT rollup, the HDratio counters, its
    // stats — is the same bits whichever worker ran which prefix.
    let (world, cfg) = skewed();
    let cfg = StudyConfig { sessions_per_group_window: 20, ..cfg };
    let windows = cfg.n_windows() as usize;
    let mut runs: Vec<StreamingDataset> = [1usize, 4]
        .iter()
        .map(|&p| {
            let mut ds = StreamingDataset::new(windows);
            run_study_into(&world, &StudyConfig { parallelism: p, ..cfg }, &mut ds);
            assert!(ds.iter().next().is_none(), "the runner sealed every prefix");
            ds
        })
        .collect();
    let b = runs.pop().unwrap();
    let a = runs.pop().unwrap();
    assert_eq!(a.stats(), b.stats());
    assert!(a.stats().cells > 50 && a.stats().digest_compressions > 0, "{:?}", a.stats());
    assert_summaries_identical(&a.summarize(), &b.summarize());
    let prefixes: Vec<_> = a.summarize().groups.iter().map(|(k, _)| k.prefix).collect();
    let world_order: Vec<_> = world.prefixes.iter().map(|p| p.prefix).collect();
    assert_eq!(prefixes, world_order, "groups come out in prefix order");
    let ((all_a, per_a), (all_b, per_b)) = (a.minrtt_rollup(), b.minrtt_rollup());
    assert_eq!(all_a.to_parts(), all_b.to_parts());
    assert_eq!(per_a.keys().collect::<Vec<_>>(), per_b.keys().collect::<Vec<_>>());
    for (continent, digest) in &per_a {
        assert_eq!(digest.to_parts(), per_b[continent].to_parts(), "continent {continent}");
    }
    let (hd, hd_per) = a.hdratio_rollup();
    assert!(hd.tested > 0 && hd.zero > 0 && hd.below_one > hd.zero, "{hd:?}");
    assert_eq!((hd, hd_per), b.hdratio_rollup());
}

#[test]
fn streaming_cells_agree_with_exact_aggregations() {
    let (world, cfg) = skewed();
    let cfg = StudyConfig { parallelism: 4, ..cfg };
    let windows = cfg.n_windows() as usize;

    let mut records: Vec<SessionRecord> = Vec::new();
    run_study_into(&world, &cfg, &mut records);
    let exact = Dataset::from_records(&records, windows);

    // The runner seals a prefix's cells as soon as it is done; pushing its
    // records into a sink nobody seals keeps the digests inspectable.
    let mut stream = StreamingDataset::new(windows);
    records.iter().for_each(|r| stream.push(*r));

    assert_eq!(stream.len(), exact.groups.len());
    let mut cells = 0usize;
    for (key, g) in &exact.groups {
        let sg = stream.get(key).expect("group present in stream");
        assert_eq!(sg.total_bytes, g.total_bytes);
        for (rank, ws) in g.ranks.iter().enumerate() {
            for (w, cell) in ws.iter().enumerate() {
                let Some(cell) = cell else {
                    assert!(sg.cell(rank, w).is_none());
                    continue;
                };
                cells += 1;
                let agg = &sg.cell(rank, w).unwrap().agg;
                assert_eq!(agg.n(), cell.n());
                assert_eq!(agg.bytes(), cell.bytes);
                // Medians agree within the acceptance bounds.
                assert!(
                    (agg.min_rtt_p50() - cell.min_rtt_p50()).abs() <= 0.5,
                    "MinRTT_P50 {} vs {}",
                    agg.min_rtt_p50(),
                    cell.min_rtt_p50()
                );
                match (agg.hdratio_p50(), cell.hdratio_p50()) {
                    (Some(s), Some(e)) => {
                        assert!((s - e).abs() <= 0.02, "HDratio_P50 {s} vs {e}")
                    }
                    (s, e) => assert_eq!(s.is_none(), e.is_none()),
                }
                // Extremes are exact (the t-digest merge fix, end to end).
                assert_eq!(agg.min_rtt_quantile(0.0), cell.min_rtt_ms[0]);
                assert_eq!(agg.min_rtt_quantile(1.0), *cell.min_rtt_ms.last().unwrap());
                if !cell.hdratio.is_empty() {
                    assert_eq!(agg.hdratio_quantile(0.0), Some(cell.hdratio[0]));
                    assert_eq!(agg.hdratio_quantile(1.0), Some(*cell.hdratio.last().unwrap()));
                }
            }
        }
    }
    assert!(cells > 50, "too few cells to be meaningful: {cells}");

    // The study run, which does seal, summarises those cells to the same
    // bits and counts the same sessions.
    let mut sealed = StreamingDataset::new(windows);
    let report = run_study_into(&world, &cfg, &mut sealed);
    assert_eq!(report.records_emitted, records.len() as u64);
    assert_eq!(sealed.stats().records, records.len() as u64);
    assert_eq!(sealed.cell_count(), cells);
    let sealed = sealed.summarize();
    assert_eq!(sealed.preferred_bytes(), exact.preferred_bytes());
    stream.finalize();
    let by_key: HashMap<_, _> = stream.summarize().groups.into_iter().collect();
    for (key, g) in sealed.groups {
        let unsealed = by_key[&key].clone();
        assert_summaries_identical(
            &Summaries { groups: vec![(key, g)] },
            &Summaries { groups: vec![(key, unsealed)] },
        );
    }
}

/// Every field of a row, floats as bits.
fn summary_bits(c: &WindowCell) -> impl PartialEq + std::fmt::Debug {
    (
        (c.window, c.group(), c.rank),
        (c.n, c.n_tested, c.bytes, c.relationship(), c.longer_path(), c.more_prepended()),
        (c.min_rtt_p50.to_bits(), c.min_rtt_var().map(f64::to_bits)),
        (c.hdratio_p50().map(f64::to_bits), c.hdratio_var().map(f64::to_bits)),
    )
}

/// Group for group in order, cell for cell, bit for bit.
fn assert_summaries_identical(a: &Summaries, b: &Summaries) {
    assert_eq!(a.groups.len(), b.groups.len());
    for ((ka, ga), (kb, gb)) in a.groups.iter().zip(&b.groups) {
        assert_eq!(ka, kb, "groups come in a different order");
        assert_eq!(ga.total_bytes, gb.total_bytes);
        assert_eq!(ga.ranks.len(), gb.ranks.len());
        for (ra, rb) in ga.ranks.iter().zip(&gb.ranks) {
            assert_eq!(ra.len(), rb.len());
            for (ca, cb) in ra.iter().zip(rb) {
                assert_eq!(ca.as_ref().map(summary_bits), cb.as_ref().map(summary_bits));
            }
        }
    }
}

#[test]
fn columnar_sink_matches_from_records_end_to_end() {
    // The exact sink summarises each prefix as it merges it and keeps the
    // preferred route's MinRTTs alone. Its summaries must be those of the
    // record vector re-aggregated by `from_records` — bit for bit, in the
    // same group order, because `results/` were recorded in it — its rows
    // that vector's preferred-route MinRTTs and its HDratio tally theirs,
    // at any parallelism.
    let (world, cfg) = skewed();
    let cfg = StudyConfig { sessions_per_group_window: 20, ..cfg };
    let windows = cfg.n_windows() as usize;
    for p in [1usize, 4] {
        let cfg = StudyConfig { parallelism: p, ..cfg };
        let mut records: Vec<SessionRecord> = Vec::new();
        run_study_into(&world, &cfg, &mut records);
        let mut sink = ColumnarSink::new(windows);
        let report = run_study_into(&world, &cfg, &mut sink);
        assert_eq!(report.records_emitted, records.len() as u64);
        assert_eq!(sink.stats().records, records.len() as u64);

        let whole = Dataset::from_records(&records, windows);
        assert_eq!(sink.cell_count(), whole.cell_count());
        let direct = sink.summarize();
        let cells = direct.groups.iter().flat_map(|(_, g)| g.cells());
        assert!(
            cells.filter(|c| c.min_rtt_var().is_some() && c.hdratio_var().is_some()).count() > 50
        );
        assert_summaries_identical(&direct, &whole.summarize());

        // Group by group, each group's preferred MinRTTs — every window's
        // — in `total_cmp` order, one run a group.
        let mut want: HashMap<GroupKey, Vec<u64>> = HashMap::new();
        for r in records.iter().filter(|r| r.route_rank == 0) {
            let min_rtt_ms = f64::from(r.min_rtt_ns) / 1e6;
            want.entry(r.group).or_default().push(min_rtt_ms.to_bits());
        }
        for rtts in want.values_mut() {
            rtts.sort_by(|a, b| f64::from_bits(*a).total_cmp(&f64::from_bits(*b)));
        }
        let mut rows: HashMap<GroupKey, Vec<u64>> = HashMap::new();
        let mut runs: Vec<GroupKey> = Vec::new();
        for ((group, rtt), (continent, p_rtt)) in sink.rows().zip(sink.preferred_sessions()) {
            assert_eq!((group.continent, rtt.to_bits()), (continent, p_rtt.to_bits()));
            if runs.last() != Some(&group) {
                assert!(!runs.contains(&group), "{group:?}'s rows come in two runs");
                runs.push(group);
            }
            rows.entry(group).or_default().push(rtt.to_bits());
        }
        assert_eq!(sink.rows().count(), sink.preferred_sessions().count());
        assert_eq!(rows, want);

        // And the HDratio tally is the preferred sessions', whoever ran them.
        let tally = HdratioTally::of(&records);
        assert_eq!(sink.hdratio(), &tally);
        assert_eq!(format!("{:?}", sink.hdratio().fig7()), format!("{:?}", tally.fig7()));
        assert!(sink.hdratio().fig7().len() >= 3, "{:?}", sink.hdratio().fig7());
    }
}

#[test]
#[should_panic(expected = "reached the sink in two shards")]
fn a_hand_split_that_shares_groups_is_refused() {
    // Even and odd records of one study: every group in both shards. The
    // first shard's cells are summaries by the time the second arrives,
    // so the sink refuses it rather than summarise a cell twice.
    let (world, cfg) = skewed();
    let mut records: Vec<SessionRecord> = Vec::new();
    run_study_into(&world, &cfg, &mut records);
    let mut sink = ColumnarSink::new(cfg.n_windows() as usize);
    let (mut even, mut odd) = (sink.new_shard(), sink.new_shard());
    for (i, r) in records.iter().enumerate() {
        if i % 2 == 0 { &mut even } else { &mut odd }.push(*r);
    }
    sink.merge_shard(odd);
    sink.merge_shard(even);
}

/// The comparison as it was written over sorted samples: both sides hold
/// `min_samples`, and the exact Price–Bonett CI is narrower than
/// `max_ci_width`.
fn compare_sorted(cfg: &AnalysisConfig, a: &[f64], b: &[f64], max_ci_width: f64) -> CompareOutcome {
    if a.len() < cfg.min_samples || b.len() < cfg.min_samples {
        return CompareOutcome::Invalid;
    }
    let ci = diff_of_medians_ci_sorted(a, b, cfg.confidence);
    if ci.width() >= max_ci_width {
        return CompareOutcome::Invalid;
    }
    CompareOutcome::Valid { diff: ci.diff, lo: ci.lo, hi: ci.hi }
}

#[test]
fn comparing_summaries_loses_nothing_against_sorted_samples() {
    // Every comparison the analyses can make — preferred vs each alternate
    // in a window, one preferred-route window vs another — read from the
    // cells' summaries must be the sorted-sample comparison bit for bit,
    // verdict included, under all three width rules in use.
    let world =
        World::generate(WorldConfig { seed: 99, country_fraction: 0.15, ..Default::default() });
    let study = StudyConfig {
        seed: 17,
        days: 1,
        sessions_per_group_window: 90,
        parallelism: 1,
        ..Default::default()
    };
    let mut records: Vec<SessionRecord> = Vec::new();
    run_study_into(&world, &study, &mut records);
    let ds = Dataset::from_records(&records, study.n_windows() as usize);

    let cfg = AnalysisConfig::default();
    let relaxed = AnalysisConfig { max_ci_width_hdratio: 1.01, ..cfg };
    let (mut valid, mut invalid) = ([0usize; 3], 0usize);
    let group = GroupKey { pop: PopId(0), prefix: Prefix::new(0, 16), country: 0, continent: 0 };
    let mut check = |a: &Aggregation, b: &Aggregation| {
        let row = |c: &Aggregation| WindowCell::new(0, group, 0, &c.summary()).unwrap();
        let (sa, sb) = (row(a), row(b));
        let cases = [
            (&cfg, DegradationMetric::MinRtt, &a.min_rtt_ms, &b.min_rtt_ms, 10.0),
            (&cfg, DegradationMetric::HdRatio, &a.hdratio, &b.hdratio, 0.1),
            (&relaxed, DegradationMetric::HdRatio, &a.hdratio, &b.hdratio, 1.01),
        ];
        for (i, (cfg, metric, xs, ys, width)) in cases.into_iter().enumerate() {
            let want = compare_sorted(cfg, xs, ys, width);
            // `{:?}` prints floats in shortest round-trip form: equal text, equal bits.
            assert_eq!(format!("{:?}", compare(cfg, metric, &sa, &sb)), format!("{want:?}"));
            match want {
                CompareOutcome::Valid { .. } => valid[i] += 1,
                CompareOutcome::Invalid => invalid += 1,
            }
        }
    };
    for g in ds.groups.values() {
        let windows: Vec<&Aggregation> = g.ranks[0].iter().flatten().collect();
        for (i, a) in windows.iter().enumerate() {
            for b in &windows[i + 1..] {
                check(a, b);
            }
        }
        for w in 0..ds.n_windows {
            let Some(pref) = g.cell(0, w) else { continue };
            for alt in (1..g.ranks.len()).filter_map(|r| g.cell(r, w)) {
                check(pref, alt);
                check(alt, pref);
            }
        }
    }
    assert!(valid.iter().all(|&v| v > 100) && invalid > 100, "{valid:?} valid, {invalid} invalid");
}
