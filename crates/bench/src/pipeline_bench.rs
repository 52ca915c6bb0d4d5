//! Tracked performance baseline for the per-session hot path.
//!
//! The paper's pipeline ingests billions of session measurements per day;
//! in this reproduction the equivalent hot path is records → dataset. This
//! module measures that path against a faithful replica of the seed
//! implementation (std `HashMap` with SipHash, an entry lookup per record,
//! stable `partial_cmp` sorts, and a post-join serial rebuild) so the
//! speedup from the columnar/memo/FxHash work is a tracked number, not a
//! claim. `repro bench --bench-json BENCH_pipeline.json` regenerates the
//! committed baseline; CI runs the quick variant as a smoke test.
//!
//! Three ingestion paths over the same record stream, each measured
//! worker-emission → `Dataset`:
//!
//! - **baseline**: worker `Vec` shard pushes + join-time extend +
//!   seed-style `from_records` (std hasher, no memo, stable sorts).
//! - **from_records**: the same AoS shape but through today's
//!   [`Dataset::from_records`] (FxHash, group memo, unstable sorts).
//! - **columnar**: the shipping sink — row-aligned SoA shard pushes during
//!   the pass, zero-copy merge — assembled into the same `Dataset` (one
//!   flat scatter and one sort per cell; the study itself stops at
//!   `ColumnarSink::summarize` and never builds it).
//!
//! The headline `sessions_per_sec` compares baseline vs columnar (one
//! record = one measured session).

use edgeperf_analysis::figures::fig6_minrtt;
use edgeperf_analysis::sink::{RecordShard, RecordSink};
use edgeperf_analysis::{
    ColumnarShard, ColumnarSink, Dataset, GroupKey, SessionRecord, StreamingDataset,
};
use edgeperf_obs::Metrics;
use edgeperf_routing::Relationship;
use edgeperf_world::{
    run_study, run_study_observed, run_study_supervised, StudyConfig, SupervisorConfig, World,
    WorldConfig,
};
use serde::Serialize;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Knobs for the pipeline benchmark.
#[derive(Debug, Clone, Copy)]
pub struct BenchOptions {
    /// World + session seed.
    pub seed: u64,
    /// Quick mode: smaller world, fewer timing iterations (CI smoke).
    pub quick: bool,
}

impl Default for BenchOptions {
    fn default() -> Self {
        BenchOptions { seed: 20190521, quick: false }
    }
}

/// Study/workload shape the benchmark ran with.
#[derive(Debug, Clone, Serialize)]
pub struct BenchConfig {
    /// Seed used for the world and sessions.
    pub seed: u64,
    /// Days simulated.
    pub days: u32,
    /// Sampled sessions per (group, window).
    pub sessions_per_group_window: u32,
    /// Fraction of countries kept.
    pub country_fraction: f64,
    /// Worker count (always 1: single-threaded numbers).
    pub parallelism: usize,
    /// Quick (CI smoke) mode.
    pub quick: bool,
    /// Timing iterations per measured path (best-of).
    pub iters: usize,
}

/// End-to-end study throughput (generation + simulation + ingestion).
#[derive(Debug, Clone, Serialize)]
pub struct StudyThroughput {
    /// Sessions simulated (including dropped-no-MinRTT ones).
    pub sessions_simulated: u64,
    /// Records emitted into the sink.
    pub records_emitted: u64,
    /// Wall time for the whole run at parallelism 1.
    pub elapsed_sec: f64,
    /// Simulated sessions per second, end to end.
    pub sessions_per_sec: f64,
    /// Distinct (group, window, rank) cells at the end of the run.
    pub peak_cells: usize,
}

/// Record-ingestion throughput: the tentpole before/after numbers.
#[derive(Debug, Clone, Serialize)]
pub struct IngestThroughput {
    /// Records in the measured stream.
    pub records: usize,
    /// Seed-style path: shard extend + std-HashMap rebuild (seconds).
    pub baseline_sec: f64,
    /// Seed-style records ingested per second.
    pub baseline_records_per_sec: f64,
    /// Today's `Dataset::from_records` over the same AoS stream (seconds).
    pub from_records_sec: f64,
    /// `from_records` records per second.
    pub from_records_records_per_sec: f64,
    /// Columnar path: SoA shard pushes + zero-copy assembly (seconds).
    pub columnar_sec: f64,
    /// Columnar records per second.
    pub columnar_records_per_sec: f64,
    /// baseline_sec / from_records_sec.
    pub speedup_from_records: f64,
    /// baseline_sec / columnar_sec — the headline.
    pub speedup_columnar: f64,
}

/// Bounded-memory sink cost and its agreement with the exact path.
#[derive(Debug, Clone, Serialize)]
pub struct StreamingAgreement {
    /// Time to ingest the stream into per-cell t-digests (seconds).
    pub ingest_sec: f64,
    /// Streaming-ingest records per second.
    pub records_per_sec: f64,
    /// Exact global MinRTT p50 (ms) from sorted samples.
    pub exact_minrtt_p50: f64,
    /// Streaming global MinRTT p50 (ms) from merged digests.
    pub streaming_minrtt_p50: f64,
    /// |exact − streaming| at p50.
    pub delta_p50: f64,
    /// Exact global MinRTT p80 (ms).
    pub exact_minrtt_p80: f64,
    /// Streaming global MinRTT p80 (ms).
    pub streaming_minrtt_p80: f64,
    /// |exact − streaming| at p80.
    pub delta_p80: f64,
}

/// Cost of the observability layer on the end-to-end study: the same
/// run with metrics disabled (a dead `Option` branch, no clock reads)
/// and with the full registry recording. Instrumentation is per-prefix
/// and per-worker — never per-record — so the enabled run must stay
/// within a few percent of the disabled one.
#[derive(Debug, Clone, Serialize)]
pub struct MetricsOverhead {
    /// Best end-to-end study wall time with metrics disabled (seconds).
    pub study_sec_disabled: f64,
    /// Best same study with counters, histograms, and spans recording.
    pub study_sec_enabled: f64,
    /// Median of the paired per-iteration `enabled / disabled` ratios,
    /// as `(ratio − 1) · 100` (gate: |overhead| < 3%). Paired and
    /// warmed up so machine noise cancels instead of landing on one
    /// side and masquerading as a speedup.
    pub overhead_pct: f64,
}

/// Cost of the fault-tolerant supervisor on a fault-free study: the same
/// run driven by the raw work-stealing scheduler and by
/// `run_study_supervised` (per-prefix fragments, `catch_unwind`, in-order
/// merge, watchdog ticks — no faults injected, no checkpointing). The
/// supervision machinery is per-prefix, never per-record, so the
/// supervised run must stay within a few percent of the raw one.
#[derive(Debug, Clone, Serialize)]
pub struct SupervisorOverhead {
    /// Best end-to-end study wall time on the raw scheduler (seconds).
    pub study_sec_raw: f64,
    /// Best same-study wall time under the supervisor, fault-free.
    pub study_sec_supervised: f64,
    /// Median of the paired per-iteration `supervised / raw` ratios,
    /// as `(ratio − 1) · 100` (target: < 3%). Paired so slow clock
    /// drift on a shared machine cancels instead of landing on one side.
    pub overhead_pct: f64,
}

/// Headline before/after pair the acceptance gate reads.
#[derive(Debug, Clone, Serialize)]
pub struct Headline {
    /// Sessions ingested per second on the seed-style path.
    pub sessions_per_sec_before: f64,
    /// Sessions ingested per second on the columnar path.
    pub sessions_per_sec_after: f64,
    /// after / before (target: ≥ 2 at parallelism 1).
    pub speedup: f64,
}

/// The full report written to `BENCH_pipeline.json`.
#[derive(Debug, Clone, Serialize)]
pub struct PipelineBenchReport {
    /// Workload shape.
    pub config: BenchConfig,
    /// End-to-end study throughput at parallelism 1.
    pub study: StudyThroughput,
    /// Record-ingestion before/after.
    pub ingest: IngestThroughput,
    /// Streaming-sink cost and exact-vs-streaming deltas.
    pub streaming: StreamingAgreement,
    /// Observability-layer cost on the end-to-end study.
    pub metrics_overhead: MetricsOverhead,
    /// Fault-tolerance-layer cost on a fault-free end-to-end study.
    pub supervisor_overhead: SupervisorOverhead,
    /// The acceptance-gate numbers.
    pub headline: Headline,
}

// ---------------------------------------------------------------------
// Seed-replica baseline. This mirrors the pre-optimization pipeline
// byte-for-byte in shape: AoS shard extend, std `HashMap` (SipHash) with
// an `entry` lookup per record, nested rank/window cells, and stable
// `partial_cmp` sorts after the fact. It is kept here, out of the library
// crates, so the shipping code has exactly one implementation.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct BaselineAgg {
    min_rtt_ms: Vec<f64>,
    hdratio: Vec<f64>,
    bytes: u64,
    #[allow(dead_code)]
    relationship: Relationship,
    longer_path: bool,
    more_prepended: bool,
}

#[derive(Debug, Default)]
struct BaselineGroup {
    ranks: Vec<Vec<Option<BaselineAgg>>>,
    total_bytes: u64,
}

/// The seed's `Dataset::from_records`, reproduced for the baseline
/// measurement. Returns the cell count so the optimizer cannot discard
/// the work.
pub fn seed_style_from_records(records: &[SessionRecord], n_windows: usize) -> usize {
    let mut groups: HashMap<GroupKey, BaselineGroup> = HashMap::new();
    for r in records {
        assert!((r.window as usize) < n_windows, "window {} out of range", r.window);
        let g = groups.entry(r.group).or_default();
        let rank = r.route_rank as usize;
        while g.ranks.len() <= rank {
            g.ranks.push(vec![None; n_windows]);
        }
        let cell = g.ranks[rank][r.window as usize].get_or_insert_with(|| BaselineAgg {
            min_rtt_ms: Vec::new(),
            hdratio: Vec::new(),
            bytes: 0,
            relationship: r.relationship,
            longer_path: false,
            more_prepended: false,
        });
        cell.min_rtt_ms.push(r.min_rtt_ms);
        if let Some(h) = r.hdratio {
            cell.hdratio.push(h);
        }
        cell.bytes += r.bytes;
        cell.longer_path |= r.longer_path;
        cell.more_prepended |= r.more_prepended;
        g.total_bytes += r.bytes;
    }
    let mut cells = 0usize;
    for g in groups.values_mut() {
        for ws in &mut g.ranks {
            for cell in ws.iter_mut().flatten() {
                cell.min_rtt_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
                cell.hdratio.sort_by(|a, b| a.partial_cmp(b).unwrap());
                cells += 1;
            }
        }
    }
    cells
}

/// Replay a record stream through a worker's `Vec` shard, as the seed
/// pipeline's parallel section did.
pub fn vec_shard(records: &[SessionRecord]) -> Vec<SessionRecord> {
    let mut shard: Vec<SessionRecord> = Vec::new();
    for &r in records {
        RecordShard::push(&mut shard, r);
    }
    shard
}

/// The columnar ingestion path as a standalone function: one worker shard
/// (parallelism 1), zero-copy merge, columnar assembly.
pub fn columnar_ingest(records: &[SessionRecord], n_windows: usize) -> Dataset {
    let mut shard = ColumnarShard::default();
    for &r in records {
        shard.push(r);
    }
    let mut sink = ColumnarSink::new(n_windows);
    sink.merge_shard(shard);
    sink.into_dataset()
}

/// Streaming (t-digest) ingestion as a standalone function.
pub fn streaming_ingest(records: &[SessionRecord], n_windows: usize) -> StreamingDataset {
    let mut ds = StreamingDataset::new(n_windows);
    for &r in records {
        RecordShard::push(&mut ds, r);
    }
    ds.flush();
    ds
}

fn best_of<R>(iters: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    assert!(iters > 0);
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..iters {
        let t0 = Instant::now();
        let r = black_box(f());
        best = best.min(t0.elapsed().as_secs_f64());
        out = Some(r);
    }
    (best, out.expect("iters > 0"))
}

/// Run the full pipeline benchmark and assemble the report.
pub fn run(opts: &BenchOptions) -> PipelineBenchReport {
    run_observed(opts, &Metrics::disabled())
}

/// Run the benchmark and record phase spans, runner counters, scheduler
/// gauges, and sink gauges into `metrics` (when enabled) along the way.
/// The registry ends up holding exactly one end-to-end study run.
pub fn run_observed(opts: &BenchOptions, metrics: &Metrics) -> PipelineBenchReport {
    let (country_fraction, days, sessions, iters) =
        if opts.quick { (0.15, 1, 16, 2) } else { (0.3, 1, 48, 5) };
    let world =
        World::generate(WorldConfig { seed: opts.seed, country_fraction, ..Default::default() });
    let study = StudyConfig {
        seed: opts.seed ^ 0xABCD,
        days,
        sessions_per_group_window: sessions,
        parallelism: 1,
        ..Default::default()
    };
    let n_windows = study.n_windows() as usize;

    // End-to-end study at parallelism 1 through the shipping exact sink,
    // metrics disabled: the baseline side of the overhead comparison.
    let t0 = Instant::now();
    let mut columnar = ColumnarSink::new(n_windows);
    let stats = run_study_observed(&world, &study, &mut columnar, &Metrics::disabled());
    let elapsed = t0.elapsed().as_secs_f64();
    let peak_cells = columnar.cell_count();
    drop(columnar);
    // The record stream every ingestion path below replays.
    let records = run_study(&world, &study);
    let totals = stats.total();
    let study_tp = StudyThroughput {
        sessions_simulated: totals.sessions_simulated,
        records_emitted: totals.records_emitted,
        elapsed_sec: elapsed,
        sessions_per_sec: totals.sessions_simulated as f64 / elapsed.max(1e-9),
        peak_cells,
    };

    // Record-ingestion before/after over the captured stream. Every path
    // is measured worker-emission → `Dataset`: the AoS paths pay the
    // worker `Vec` shard pushes, the join-time extend, and the serial
    // rebuild (exactly the seed pipeline); the columnar path pays its
    // shard pushes, the zero-copy merge, and assembly.
    let n = records.len();
    let (baseline_sec, base_cells) = best_of(iters, || {
        let shard = vec_shard(&records);
        let mut collected: Vec<SessionRecord> = Vec::new();
        RecordSink::merge_shard(&mut collected, shard);
        seed_style_from_records(&collected, n_windows)
    });
    let (from_records_sec, ds_a) = best_of(iters, || {
        let shard = vec_shard(&records);
        let mut collected: Vec<SessionRecord> = Vec::new();
        RecordSink::merge_shard(&mut collected, shard);
        Dataset::from_records(&collected, n_windows)
    });
    let (columnar_sec, ds_b) = best_of(iters, || columnar_ingest(&records, n_windows));
    assert_eq!(base_cells, ds_a.cell_count(), "baseline and from_records disagree on cells");
    assert_eq!(ds_a.cell_count(), ds_b.cell_count(), "columnar path disagrees on cells");
    let ingest = IngestThroughput {
        records: n,
        baseline_sec,
        baseline_records_per_sec: n as f64 / baseline_sec.max(1e-9),
        from_records_sec,
        from_records_records_per_sec: n as f64 / from_records_sec.max(1e-9),
        columnar_sec,
        columnar_records_per_sec: n as f64 / columnar_sec.max(1e-9),
        speedup_from_records: baseline_sec / from_records_sec.max(1e-9),
        speedup_columnar: baseline_sec / columnar_sec.max(1e-9),
    };

    // Streaming sink cost + agreement with the exact quantiles.
    let (stream_sec, stream_ds) = best_of(iters, || streaming_ingest(&records, n_windows));
    let (exact_cdf, _) = {
        let _sp = metrics.span("figures.fig6_minrtt");
        fig6_minrtt(&records[..])
    };
    let (stream_all, _) = stream_ds.minrtt_rollup();
    let e50 = exact_cdf.quantile(0.5);
    let e80 = exact_cdf.quantile(0.8);
    let s50 = stream_all.quantile(0.5);
    let s80 = stream_all.quantile(0.8);
    let streaming = StreamingAgreement {
        ingest_sec: stream_sec,
        records_per_sec: n as f64 / stream_sec.max(1e-9),
        exact_minrtt_p50: e50,
        streaming_minrtt_p50: s50,
        delta_p50: (e50 - s50).abs(),
        exact_minrtt_p80: e80,
        streaming_minrtt_p80: s80,
        delta_p80: (e80 - s80).abs(),
    };

    // Observability overhead: the same end-to-end study with the full
    // metrics layer recording. The caller's registry (or a throwaway one
    // when the caller's handle is disabled) takes the final repeat, so
    // it ends up holding exactly one run's worth of counters.
    let study_once = |m: &Metrics| {
        let mut sink = ColumnarSink::new(n_windows);
        let t = Instant::now();
        run_study_observed(&world, &study, &mut sink, m);
        t.elapsed().as_secs_f64()
    };
    // Run-to-run noise on a loaded machine is larger than the effect
    // being measured, and best-of-N puts all the bad luck on whichever
    // side never catches a quiet window (an earlier version reported a
    // −8% "overhead" that way). One untimed warm-up settles caches and
    // the allocator, then each iteration times disabled and enabled
    // back to back — alternating which runs first, so a monotone
    // machine trend (frequency scaling, cache warming) cancels instead
    // of always favouring the second side — and the overhead is the
    // median of the paired ratios; the reported seconds are still the
    // best of each.
    let study_iters = if opts.quick { 1 } else { 9 };
    let recorder = if metrics.is_enabled() { metrics.clone() } else { Metrics::enabled() };
    study_once(&Metrics::disabled());
    let mut disabled_sec = f64::INFINITY;
    let mut enabled_sec = f64::INFINITY;
    let mut metric_ratios = Vec::with_capacity(study_iters);
    for i in 0..study_iters {
        let m = if i + 1 == study_iters { recorder.clone() } else { Metrics::enabled() };
        let (d, e) = if i % 2 == 0 {
            let d = study_once(&Metrics::disabled());
            (d, study_once(&m))
        } else {
            let e = study_once(&m);
            (study_once(&Metrics::disabled()), e)
        };
        disabled_sec = disabled_sec.min(d);
        enabled_sec = enabled_sec.min(e);
        metric_ratios.push(e / d.max(1e-9));
    }
    metric_ratios.sort_unstable_by(f64::total_cmp);
    let metrics_overhead = MetricsOverhead {
        study_sec_disabled: disabled_sec,
        study_sec_enabled: enabled_sec,
        overhead_pct: (metric_ratios[metric_ratios.len() / 2] - 1.0) * 100.0,
    };

    // Supervisor overhead: the same fault-free study through the raw
    // scheduler and through the supervisor (per-prefix fragments,
    // catch_unwind, in-order merge, watchdog ticks; no faults, no
    // checkpoints). Both sides use the plain `Vec` sink so the comparison
    // isolates the supervision machinery. Interleaved best-of, as above.
    let raw_once = || {
        let mut records: Vec<SessionRecord> = Vec::new();
        let t = Instant::now();
        run_study_observed(&world, &study, &mut records, &Metrics::disabled());
        (t.elapsed().as_secs_f64(), records.len())
    };
    let sup_cfg = SupervisorConfig::default();
    let supervised_once = || {
        let mut records: Vec<SessionRecord> = Vec::new();
        let t = Instant::now();
        run_study_supervised(&world, &study, &sup_cfg, &mut records, &Metrics::disabled())
            .expect("fault-free supervised run");
        (t.elapsed().as_secs_f64(), records.len())
    };
    // Run-to-run noise on a loaded machine is larger than the effect
    // being measured, and best-of-N puts all the bad luck on whichever
    // side never catches a quiet window. Each iteration therefore times
    // the two drivers back to back and the overhead is the median of the
    // paired ratios; the reported seconds are still the best of each.
    let sup_iters = if opts.quick { 1 } else { 9 };
    let mut raw_sec = f64::INFINITY;
    let mut supervised_sec = f64::INFINITY;
    let mut ratios = Vec::with_capacity(sup_iters);
    for _ in 0..sup_iters {
        let (r, n_raw) = raw_once();
        let (s, n_sup) = supervised_once();
        assert_eq!(n_raw, n_sup, "supervised run emitted a different record count");
        raw_sec = raw_sec.min(r);
        supervised_sec = supervised_sec.min(s);
        ratios.push(s / r.max(1e-9));
    }
    ratios.sort_unstable_by(f64::total_cmp);
    let supervisor_overhead = SupervisorOverhead {
        study_sec_raw: raw_sec,
        study_sec_supervised: supervised_sec,
        overhead_pct: (ratios[ratios.len() / 2] - 1.0) * 100.0,
    };

    let headline = Headline {
        sessions_per_sec_before: ingest.baseline_records_per_sec,
        sessions_per_sec_after: ingest.columnar_records_per_sec,
        speedup: ingest.speedup_columnar,
    };

    PipelineBenchReport {
        config: BenchConfig {
            seed: opts.seed,
            days,
            sessions_per_group_window: sessions,
            country_fraction,
            parallelism: 1,
            quick: opts.quick,
            iters,
        },
        study: study_tp,
        ingest,
        streaming,
        metrics_overhead,
        supervisor_overhead,
        headline,
    }
}

/// Render the report for the CLI.
pub fn render(r: &PipelineBenchReport) -> String {
    let mut out = String::from("== Pipeline throughput (parallelism 1) ==\n");
    out.push_str(&format!(
        "study: {} sessions → {} records in {:.2}s  ({:.0} sessions/s, {} cells)\n",
        r.study.sessions_simulated,
        r.study.records_emitted,
        r.study.elapsed_sec,
        r.study.sessions_per_sec,
        r.study.peak_cells
    ));
    out.push_str(&format!("ingest ({} records, best of {}):\n", r.ingest.records, r.config.iters));
    out.push_str(&format!(
        "  baseline (seed-style std HashMap): {:>10.0} rec/s  ({:.3}s)\n",
        r.ingest.baseline_records_per_sec, r.ingest.baseline_sec
    ));
    out.push_str(&format!(
        "  from_records (Fx + memo):          {:>10.0} rec/s  ({:.3}s, {:.2}x)\n",
        r.ingest.from_records_records_per_sec,
        r.ingest.from_records_sec,
        r.ingest.speedup_from_records
    ));
    out.push_str(&format!(
        "  columnar shards (SoA):             {:>10.0} rec/s  ({:.3}s, {:.2}x)\n",
        r.ingest.columnar_records_per_sec, r.ingest.columnar_sec, r.ingest.speedup_columnar
    ));
    out.push_str(&format!(
        "streaming sink: {:>10.0} rec/s  ΔMinRTT p50 {:.3} ms  p80 {:.3} ms\n",
        r.streaming.records_per_sec, r.streaming.delta_p50, r.streaming.delta_p80
    ));
    out.push_str(&format!(
        "observability: study {:.2}s → {:.2}s with metrics recording  (median {:+.2}%, target |x| < 3%)\n",
        r.metrics_overhead.study_sec_disabled,
        r.metrics_overhead.study_sec_enabled,
        r.metrics_overhead.overhead_pct
    ));
    out.push_str(&format!(
        "supervisor:    study {:.2}s → {:.2}s under the fault-tolerant driver  ({:+.2}%, target < 3%)\n",
        r.supervisor_overhead.study_sec_raw,
        r.supervisor_overhead.study_sec_supervised,
        r.supervisor_overhead.overhead_pct
    ));
    out.push_str(&format!(
        "headline: {:.0} → {:.0} sessions/s  ({:.2}x, target ≥ 2.00x)\n",
        r.headline.sessions_per_sec_before, r.headline.sessions_per_sec_after, r.headline.speedup
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgeperf_routing::{PopId, Prefix};

    fn synthetic(groups: usize, windows: u32, per_cell: usize) -> Vec<SessionRecord> {
        let mut out = Vec::new();
        for g in 0..groups {
            let key = GroupKey {
                pop: PopId((g % 4) as u16),
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

    #[test]
    fn all_ingest_paths_agree_on_shape() {
        let records = synthetic(6, 8, 10);
        let cells = seed_style_from_records(&records, 8);
        let ds = Dataset::from_records(&records, 8);
        let dc = columnar_ingest(&records, 8);
        assert_eq!(cells, ds.cell_count());
        assert_eq!(ds.cell_count(), dc.cell_count());
        assert_eq!(cells, 6 * 8 * 2);
    }

    #[test]
    fn quick_bench_produces_sane_report() {
        let r = run(&BenchOptions { seed: 7, quick: true });
        assert!(r.study.records_emitted > 0);
        assert_eq!(r.ingest.records as u64, r.study.records_emitted);
        assert!(r.study.peak_cells > 0);
        assert!(r.ingest.baseline_records_per_sec > 0.0);
        assert!(r.ingest.columnar_records_per_sec > 0.0);
        assert!(r.headline.speedup > 0.0);
        // Digest quantiles track the exact ones on real study data.
        assert!(r.streaming.delta_p50 <= 1.0, "p50 delta {}", r.streaming.delta_p50);
        assert!(r.metrics_overhead.study_sec_disabled > 0.0);
        assert!(r.metrics_overhead.study_sec_enabled > 0.0);
        assert!(r.supervisor_overhead.study_sec_raw > 0.0);
        assert!(r.supervisor_overhead.study_sec_supervised > 0.0);
        let js = serde_json::to_string(&r).expect("serializable");
        assert!(js.contains("sessions_per_sec_after"));
        assert!(js.contains("overhead_pct"));
        assert!(js.contains("study_sec_supervised"));
    }

    #[test]
    fn observed_bench_populates_every_metric_family() {
        let metrics = Metrics::enabled();
        let r = run_observed(&BenchOptions { seed: 7, quick: true }, &metrics);
        let snap = metrics.snapshot();
        // Runner counters from the recorded study run.
        assert_eq!(
            snap.counters.get("runner.records_emitted").copied(),
            Some(r.study.records_emitted)
        );
        // Scheduler gauges and sink gauges.
        assert!(snap.gauges.keys().any(|k| k.starts_with("scheduler.worker.")));
        assert!(snap.gauges.contains_key("sink.columnar.records"));
        // Merge-latency histogram and phase spans, including figures.
        assert!(snap.histograms.contains_key("sink.merge_ns"));
        let names: Vec<&str> = snap.spans.iter().map(|s| s.name.as_str()).collect();
        for expected in ["study", "study.run", "study.finalize", "figures.fig6_minrtt"] {
            assert!(names.contains(&expected), "missing span {expected}: {names:?}");
        }
    }
}
