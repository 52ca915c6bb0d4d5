//! What a run reports: the metric catalogue (`BENCHMARK.json` mirrors it;
//! a unit test holds the two together), the per-workload [`Outcome`], the
//! one-line result the acceptance driver reads, and the result file.

use crate::stats::Timing;
use serde_json::Value;
use std::collections::BTreeMap;

/// One named metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a lower value is better.
    pub lower_is_better: bool,
    /// End-to-end metrics carry the share of the parent's median by which
    /// they may worsen; per-layer metrics have none.
    pub bound: Option<f64>,
    /// The workloads that measure it (a mask of [`DENSE`] .. [`OFFLINE`]).
    /// On those a run must produce it; on the others the layer does not
    /// run and the traced result line carries a zero.
    pub on: u8,
}

pub const DENSE: u8 = 1;
pub const WIDE: u8 = 2;
pub const HISTORY: u8 = 4;
pub const OFFLINE: u8 = 8;
const INGEST: u8 = DENSE | WIDE;
const LIVE: u8 = INGEST | HISTORY;
const ALL: u8 = LIVE | OFFLINE;

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef { name, unit, lower_is_better: true, bound: Some(bound), on: ALL }
}

const fn layer(name: &'static str, unit: &'static str, lower_is_better: bool, on: u8) -> MetricDef {
    MetricDef { name, unit, lower_is_better, bound: None, on }
}

/// Workload names, fixed by the issue.
pub const WORKLOADS: [(&str, &str); 4] = [
    ("ingest_dense", "64 groups x 2M records/window: cells stay hot, so socket read, frame decode, queue route and window apply do nearly all the work"),
    ("ingest_wide", "4,096 groups x 125k records/window (~30 per cell, the paper's minimum): cell creation, t-digest buffers, window close and detect dominate"),
    ("history", "the wide lap through --spill-dir: a fixed-count build, then historical point/range queries, then queries while ingest resumes; store and segment do the work"),
    ("offline_repro", "repro all through the exact then the streaming sink as child processes: no live-tier layer runs, world/netsim/analysis/stats do everything"),
];

/// The mask bit of a workload: its position in [`WORKLOADS`].
pub fn workload_bit(workload: &str) -> u8 {
    WORKLOADS.iter().position(|(w, _)| *w == workload).map_or(0, |i| 1 << i)
}

/// The gated list. The acceptance contract wants each of these on every
/// workload, never zero and steady to well inside its bound; on this
/// machine only memory is (see the README's *Bounds*). `peak_rss_mb` is
/// `server_peak_rss_mb` on the live workloads and the larger of the two
/// `repro all` jobs, per 7 M sessions, on `offline_repro`.
pub const END_TO_END: &[MetricDef] = &[e2e("setup_s", "s", 0.25), e2e("peak_rss_mb", "MB", 0.10)];

/// Everything else, reported by the traced run; the README's glossary says
/// what each is. Counts that only pin the shape of a workload are marked
/// "higher" for want of a neutral direction.
pub const PER_LAYER: &[MetricDef] = &[
    // The issue's end-to-end names (no dot in the name), on the workloads
    // that have them. Timings, so ungated here.
    layer("ingest_max_rps", "1/s", false, LIVE),
    layer("ingest_cpu_ns_per_rec", "ns", true, LIVE),
    layer("paced_cpu_ns_per_rec", "ns", true, INGEST),
    layer("mixed_cpu_ns_per_rec", "ns", true, HISTORY),
    layer("visible_lag_ms_p50", "ms", true, LIVE),
    layer("server_peak_rss_mb", "MB", true, LIVE),
    layer("query_point_ms_p50", "ms", true, HISTORY),
    layer("query_range_ms_p50", "ms", true, HISTORY),
    layer("query_recent_ms_p50", "ms", true, LIVE),
    layer("query_point_mixed_ms_p50", "ms", true, HISTORY),
    layer("store_bytes_per_cell", "B", true, HISTORY),
    layer("repro_wall_s", "s", true, OFFLINE),
    layer("repro_peak_rss_mb", "MB", true, OFFLINE),
    layer("repro_streaming_wall_s", "s", true, OFFLINE),
    layer("repro_streaming_peak_rss_mb", "MB", true, OFFLINE),
    // From outside the real server, untraced.
    layer("live.server.reader_cpu_ns_per_rec", "ns", true, LIVE),
    layer("live.server.worker_cpu_ns_per_rec", "ns", true, LIVE),
    layer("live.server.compactor_cpu_ns_per_rec", "ns", true, LIVE),
    layer("live.server.other_cpu_ns_per_rec", "ns", true, LIVE),
    layer("live.server.ctx_switches_per_krec", "count", true, LIVE),
    layer("live.server.visible_lag_ms_p90", "ms", true, LIVE),
    layer("live.server.visible_lag_ms_p99", "ms", true, LIVE),
    layer("live.server.backlog_rec_max", "count", true, LIVE),
    layer("live.server.snapshot_rtt_ms_p50", "ms", true, LIVE),
    layer("live.server.snapshot_rtt_ms_p99", "ms", true, LIVE),
    layer("live.queue.worker_skew", "ratio", true, LIVE),
    layer("live.window.windows_closed", "count", false, LIVE),
    layer("live.store.segments", "count", true, HISTORY),
    layer("live.store.compactions", "count", true, HISTORY),
    layer("live.store.spilled_cells", "count", false, HISTORY),
    layer("live.store.write_amp", "ratio", true, HISTORY),
    layer("live.store.query_segments_opened", "count", true, HISTORY),
    layer("live.store.query_bytes_read", "B", true, HISTORY),
    layer("live.store.cells_examined_per_row", "ratio", true, HISTORY),
    layer("bench.loadgen.late_ms_p99", "ms", true, LIVE),
    layer("bench.loadgen.encode_ns_per_rec", "ns", true, LIVE),
    // Traced in-process probes over the same laps.
    layer("live.frame.decode_ns_per_rec", "ns", true, LIVE),
    layer("live.queue.shard_push_ns_per_rec", "ns", true, LIVE),
    layer("live.window.apply_ns_per_rec", "ns", true, LIVE),
    layer("live.window.close_ns_per_cell", "ns", true, LIVE),
    layer("live.window.close_ms_per_window", "ms", true, LIVE),
    layer("live.detect.observe_ns_per_cell", "ns", true, LIVE),
    layer("live.window.records_per_cell", "count", false, LIVE),
    layer("live.window.cells_per_window", "count", false, LIVE),
    layer("stats.tdigest.insert_ns_per_sample", "ns", true, LIVE),
    layer("stats.tdigest.bytes_per_cell", "B", true, LIVE),
    layer("live.store.spill_ms_per_window", "ms", true, HISTORY),
    layer("live.store.compact_ms_per_merge", "ms", true, HISTORY),
    layer("analysis.segment.encode_ns_per_cell", "ns", true, HISTORY),
    layer("analysis.segment.decode_ns_per_cell", "ns", true, HISTORY),
    layer("live.protocol.render_ns_per_row", "ns", true, LIVE),
    layer("serve.wireparser.parse_ns_per_line", "ns", true, DENSE),
    layer("live.server.reader_unattributed_ns_per_rec", "ns", true, LIVE),
    layer("live.server.worker_unattributed_ns_per_rec", "ns", true, LIVE),
    // Offline.
    layer("world.runner.study_run_s", "s", true, OFFLINE),
    layer("world.runner.merge_s", "s", true, OFFLINE),
    layer("world.runner.sessions_per_s", "1/s", false, OFFLINE),
    layer("world.runner.worker_busy_share", "share", false, OFFLINE),
    layer("analysis.figures.total_s", "s", true, OFFLINE),
    layer("bench.repro.cpu_s", "s", true, OFFLINE),
    layer("bench.repro.streaming_cpu_s", "s", true, OFFLINE),
    layer("bench.repro.sessions", "count", false, OFFLINE),
    layer("world.runner.simulate_ns_per_session", "ns", true, OFFLINE),
    layer("analysis.columnar.ingest_ns_per_rec", "ns", true, OFFLINE),
    layer("analysis.sink.streaming_ingest_ns_per_rec", "ns", true, OFFLINE),
    layer("analysis.sink.streaming_bytes_per_cell", "B", true, OFFLINE),
    // The traced pass itself.
    layer("obs.registry.ingest_overhead_share", "share", true, DENSE),
    layer("obs.registry.repro_overhead_share", "share", true, OFFLINE),
    layer("bench.trace.overhead_share", "share", true, LIVE),
    layer("bench.trace.spans", "count", false, ALL),
];

/// Everything one workload run measured.
#[derive(Debug, Default, Clone)]
pub struct Outcome {
    pub values: BTreeMap<String, f64>,
    /// Raw samples of every timed phase, summarised when written out.
    pub samples: BTreeMap<String, Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
    /// Why operations failed (first few).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Keep the samples of a timed phase for the result file; returns their
    /// summary.
    pub fn timed(&mut self, name: &str, samples: Vec<f64>) -> Timing {
        let timing = Timing::of(&samples);
        self.samples.entry(name.to_string()).or_default().extend(samples);
        timing
    }

    /// [`Outcome::timed`], with the median set as the value `<name>_p50`.
    pub fn timed_p50(&mut self, name: &str, samples: Vec<f64>) {
        let p50 = self.timed(name, samples).p50;
        self.set(format!("{name}_p50"), p50);
    }

    /// Several rounds of one workload as one outcome: each value is the
    /// median over the rounds that measured it, samples are pooled and
    /// operations summed.
    pub fn median_of(rounds: Vec<Outcome>) -> Outcome {
        let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        let mut out = Outcome::default();
        for round in rounds {
            for (name, value) in round.values {
                values.entry(name).or_default().push(value);
            }
            for (name, samples) in round.samples {
                out.samples.entry(name).or_default().extend(samples);
            }
            out = out.finish(round.attempted, round.failed, round.notes);
        }
        out.values = values.into_iter().map(|(k, v)| (k, crate::stats::median(&v))).collect();
        out
    }

    pub fn finish(mut self, attempted: u64, failed: u64, notes: Vec<String>) -> Outcome {
        self.attempted += attempted;
        self.failed += failed;
        self.notes.extend(notes);
        self
    }
}

pub fn num(v: f64) -> Value {
    Value::Num(v)
}

pub fn text(s: &str) -> Value {
    Value::Str(s.to_string())
}

pub fn object(members: Vec<(&str, Value)>) -> Value {
    Value::Object(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// The last line of stdout: `correct`, `attempted`, `failed` and exactly
/// the metrics of `defs`. The catalogue says which workloads measure each
/// one: a metric missing where it is measured, or present where it is not,
/// is an error — the catalogue and the code have drifted. A layer that does
/// not run on this workload did no work there: zero.
pub fn contract_line(
    workload: &str,
    outcome: &Outcome,
    defs: &[MetricDef],
) -> Result<String, String> {
    let bit = workload_bit(workload);
    let mut metrics = Vec::with_capacity(defs.len());
    for def in defs {
        let value = match (outcome.get(def.name), def.on & bit != 0) {
            (Some(value), true) if value.is_finite() => value,
            (Some(value), true) => return Err(format!("{} is {value}", def.name)),
            (None, false) => 0.0,
            (None, true) => return Err(format!("{workload} did not measure {}", def.name)),
            (Some(_), false) => {
                return Err(format!("{workload} is not listed as measuring {}", def.name))
            }
        };
        metrics.push((def.name, object(vec![("value", num(value)), ("unit", text(def.unit))])));
    }
    let line = object(vec![
        ("correct", Value::Bool(outcome.failed == 0)),
        ("attempted", num(outcome.attempted.max(1) as f64)),
        ("failed", num(outcome.failed as f64)),
        ("metrics", object(metrics)),
    ]);
    serde_json::to_string(&line).map_err(|e| e.to_string())
}

/// Human-readable table of every value the run produced, catalogue order
/// first, then anything uncatalogued.
pub fn render(workload: &str, outcome: &Outcome) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== {workload}: ops_attempted {} ops_failed {}",
        outcome.attempted, outcome.failed
    );
    for note in &outcome.notes {
        let _ = writeln!(out, "   FAILED: {note}");
    }
    let mut shown = std::collections::BTreeSet::new();
    for def in END_TO_END.iter().chain(PER_LAYER) {
        if let Some(v) = outcome.get(def.name) {
            shown.insert(def.name);
            let better = if def.lower_is_better { "lower" } else { "higher" };
            let _ =
                writeln!(out, "   {:<46} {:>16.4} {:<6} {better} is better", def.name, v, def.unit);
        }
    }
    for (name, v) in outcome.values.iter().filter(|(n, _)| !shown.contains(n.as_str())) {
        let _ = writeln!(out, "   {name:<46} {v:>16.4}");
    }
    for (name, samples) in &outcome.samples {
        let t = Timing::of(samples);
        let tail = t.tail.map_or(String::new(), |(p, v)| format!(" p{} {v:.3}", p * 100.0));
        let _ = writeln!(out, "   {name:<46} n={} p50 {:.3}{tail}", t.samples, t.p50);
    }
    out
}

/// The result-file form of one outcome.
pub fn outcome_value(outcome: &Outcome) -> Value {
    let timings = outcome
        .samples
        .iter()
        .map(|(name, samples)| {
            let t = Timing::of(samples);
            let mut members = vec![
                ("samples", num(t.samples as f64)),
                ("p50", num(t.p50)),
                ("p90", num(t.p90)),
                ("p99", num(t.p99)),
            ];
            if let Some((p, v)) = t.tail {
                members.push(("tail_percentile", num(p * 100.0)));
                members.push(("tail_value", num(v)));
            }
            (name.clone(), object(members))
        })
        .collect();
    object(vec![
        ("ops_attempted", num(outcome.attempted as f64)),
        ("ops_failed", num(outcome.failed as f64)),
        ("failures", Value::Array(outcome.notes.iter().map(|n| text(n)).collect())),
        (
            "metrics",
            Value::Object(outcome.values.iter().map(|(k, v)| (k.clone(), num(*v))).collect()),
        ),
        ("timings", Value::Object(timings)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_fold_into_medians_pooled_samples_and_summed_operations() {
        let round = |cpu: f64, only: Option<f64>, failed: u64| {
            let mut out = Outcome::default();
            out.set("cpu", cpu);
            if let Some(v) = only {
                out.set("only", v);
            }
            out.timed_p50("query_ms", vec![cpu, cpu + 1.0]);
            out.finish(10, failed, if failed > 0 { vec!["bad".to_string()] } else { Vec::new() })
        };
        let out = Outcome::median_of(vec![
            round(3.0, None, 0),
            round(9.0, Some(7.0), 1),
            round(4.0, None, 0),
        ]);
        assert_eq!(out.get("cpu"), Some(4.0));
        assert_eq!(out.get("only"), Some(7.0), "a value one round measured is kept");
        assert_eq!(out.get("query_ms_p50"), Some(4.5));
        assert_eq!(out.samples["query_ms"].len(), 6);
        assert_eq!((out.attempted, out.failed, out.notes.len()), (30, 1, 1));
    }

    #[test]
    fn the_result_line_carries_exactly_the_listed_metrics() {
        let mut out = Outcome::default();
        for def in END_TO_END {
            out.set(def.name, 1.5);
        }
        out.set("extra", 2.0);
        let line =
            contract_line("history", &out.clone().finish(3, 0, Vec::new()), END_TO_END).unwrap();
        let doc = serde_json::parse(&line).unwrap();
        assert_eq!(doc.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(doc.get("attempted"), Some(&Value::Num(3.0)));
        match doc.get("metrics") {
            Some(Value::Object(metrics)) => assert_eq!(metrics.len(), END_TO_END.len()),
            other => panic!("{other:?}"),
        }
        out.values.remove("setup_s");
        assert!(contract_line("history", &out, END_TO_END).is_err(), "a missing metric");
    }

    #[test]
    fn only_a_layer_that_does_not_run_on_the_workload_reads_zero() {
        let defs = [layer("a.here", "ns", true, HISTORY), layer("a.elsewhere", "ns", true, DENSE)];
        let mut out = Outcome::default();
        out.set("a.here", 4.0);
        let doc = serde_json::parse(&contract_line("history", &out, &defs).unwrap()).unwrap();
        let value = |name| doc.get("metrics")?.get(name)?.get("value").cloned();
        assert_eq!(value("a.here"), Some(Value::Num(4.0)));
        assert_eq!(value("a.elsewhere"), Some(Value::Num(0.0)));
        assert!(contract_line("ingest_dense", &out, &defs).is_err(), "measured where not listed");
        assert!(contract_line("history", &Outcome::default(), &defs).is_err(), "not measured");
    }
}
