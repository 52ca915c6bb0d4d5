//! End-to-end pipeline cost: dataset assembly and the Table-1 analysis
//! over a synthetic record set, plus a whole miniature study run under
//! both schedulers (work-stealing vs static chunking) and both sinks
//! (exact Vec vs bounded-memory streaming).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use edgeperf_analysis::tables::{table1, AnalysisKind};
use edgeperf_analysis::{
    AnalysisConfig, ColumnarSink, Dataset, DegradationMetric, GroupKey, SessionRecord,
    StreamingDataset,
};
use edgeperf_bench::pipeline_bench::{columnar_ingest, seed_style_from_records, streaming_ingest};
use edgeperf_routing::{PopId, Prefix, Relationship};
use edgeperf_world::{
    run_study, run_study_into, run_study_static, StudyConfig, World, WorldConfig,
};

fn synthetic_records(groups: usize, windows: u32, per_cell: usize) -> Vec<SessionRecord> {
    let mut out = Vec::new();
    for g in 0..groups {
        let key = GroupKey {
            pop: PopId((g % 8) as u16),
            prefix: Prefix::new((g as u32) << 16, 16),
            country: g as u16,
            continent: (g % 6) as u8,
        };
        for w in 0..windows {
            for rank in 0..2u8 {
                for i in 0..per_cell {
                    out.push(SessionRecord {
                        group: key,
                        window: w,
                        route_rank: rank,
                        relationship: if rank == 0 {
                            Relationship::PrivatePeer
                        } else {
                            Relationship::Transit
                        },
                        longer_path: rank > 0,
                        more_prepended: false,
                        min_rtt_ms: 40.0 + rank as f64 * 3.0 + (i % 13) as f64 * 0.3,
                        hdratio: Some(((i % 11) as f64 / 10.0).min(1.0)),
                        bytes: 5_000,
                    });
                }
            }
        }
    }
    out
}

fn bench_dataset(c: &mut Criterion) {
    let records = synthetic_records(20, 96, 40);
    c.bench_function("Dataset::from_records 150k", |b| {
        b.iter(|| Dataset::from_records(black_box(&records), 96))
    });
    let ds = Dataset::from_records(&records, 96).summarize();
    let cfg = AnalysisConfig::default();
    c.bench_function("table1 degradation MinRTT", |b| {
        b.iter(|| {
            table1(&cfg, black_box(&ds), AnalysisKind::Degradation, DegradationMetric::MinRtt, 5.0)
        })
    });
    c.bench_function("table1 opportunity MinRTT", |b| {
        b.iter(|| {
            table1(&cfg, black_box(&ds), AnalysisKind::Opportunity, DegradationMetric::MinRtt, 5.0)
        })
    });
}

fn bench_study(c: &mut Criterion) {
    let world = World::generate(WorldConfig { country_fraction: 0.15, ..Default::default() });
    let cfg = StudyConfig { days: 1, sessions_per_group_window: 5, ..Default::default() };
    c.bench_function("run_study mini world (1 day, 5/grp/win)", |b| {
        b.iter(|| run_study(black_box(&world), black_box(&cfg)))
    });
}

/// The tentpole before/after: the same 150k-record stream through the
/// seed-style std-HashMap rebuild, today's `Dataset::from_records`
/// (FxHash + last-cell memo + unstable sorts), the columnar SoA shard
/// path, and the bounded-memory digest sink. `repro bench` reports the
/// same comparison on real study output and writes BENCH_pipeline.json.
fn bench_pipeline_throughput(c: &mut Criterion) {
    let records = synthetic_records(20, 96, 40);
    let n_windows = 96;
    c.bench_function("pipeline_throughput: baseline seed-style 150k", |b| {
        b.iter(|| seed_style_from_records(black_box(&records), n_windows))
    });
    c.bench_function("pipeline_throughput: from_records fx+memo 150k", |b| {
        b.iter(|| Dataset::from_records(black_box(&records), n_windows))
    });
    c.bench_function("pipeline_throughput: columnar shards 150k", |b| {
        b.iter(|| columnar_ingest(black_box(&records), n_windows))
    });
    c.bench_function("pipeline_throughput: streaming digests 150k", |b| {
        b.iter(|| streaming_ingest(black_box(&records), n_windows))
    });
}

/// End-to-end study to cell summaries: the shipping exact sink (columnar
/// rows, summarised in place) vs the old two-pass shape (records, then a
/// serial from_records sweep).
fn bench_study_tee(c: &mut Criterion) {
    let world = World::generate(WorldConfig { country_fraction: 0.15, ..Default::default() });
    let cfg = StudyConfig { days: 1, sessions_per_group_window: 5, ..Default::default() };
    let n_windows = cfg.n_windows() as usize;
    c.bench_function("study: records then from_records (two-pass)", |b| {
        b.iter(|| {
            let mut records: Vec<SessionRecord> = Vec::new();
            run_study_into(black_box(&world), black_box(&cfg), &mut records);
            Dataset::from_records(&records, n_windows).summarize()
        })
    });
    c.bench_function("study: columnar sink, summarised in place (one-pass)", |b| {
        b.iter(|| {
            let mut sink = ColumnarSink::new(n_windows);
            run_study_into(black_box(&world), black_box(&cfg), &mut sink);
            sink.summarize()
        })
    });
}

/// Scheduler comparison on a skewed world: per-prefix work varies with
/// route count, cluster mix, and diurnal activity, which is exactly the
/// shape where static chunking strands workers behind a heavy range.
/// Work stealing must come out no slower.
fn bench_schedulers(c: &mut Criterion) {
    let world = World::generate(WorldConfig { country_fraction: 0.25, ..Default::default() });
    // Multiple workers over few prefixes maximizes the imbalance a static
    // split can suffer.
    let cfg =
        StudyConfig { days: 1, sessions_per_group_window: 4, parallelism: 4, ..Default::default() };
    c.bench_function("scheduler: static chunking (skewed world)", |b| {
        b.iter(|| run_study_static(black_box(&world), black_box(&cfg)))
    });
    c.bench_function("scheduler: work stealing (skewed world)", |b| {
        b.iter(|| run_study(black_box(&world), black_box(&cfg)))
    });
    c.bench_function("scheduler: work stealing + streaming sink", |b| {
        b.iter(|| {
            let mut ds = StreamingDataset::new(cfg.n_windows() as usize);
            run_study_into(black_box(&world), black_box(&cfg), &mut ds);
            ds
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_dataset, bench_pipeline_throughput, bench_study, bench_study_tee, bench_schedulers
}
criterion_main!(benches);
