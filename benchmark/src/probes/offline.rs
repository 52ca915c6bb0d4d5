//! The offline pipeline's layers: the study runner's spans and gauges as
//! `repro --metrics-json` emits them, and in-process probes of session
//! simulation and of the two sinks at a small fixed scale.

use crate::alloc::live_bytes;
use crate::report::Outcome;
use crate::trace::{Open, Tracer};
use edgeperf::analysis::{
    ColumnarSink, RecordShard, RecordSink, SessionRecord, SinkStats, StreamingDataset,
};
use edgeperf::world::{run_study, run_study_into, StudyConfig, World, WorldConfig};
use serde_json::Value;
use std::path::Path;

fn number(v: Option<&Value>) -> Option<f64> {
    match v? {
        Value::Num(n) => Some(*n),
        _ => None,
    }
}

/// Per-layer numbers of the metered `repro all` run. A span, counter or
/// gauge the snapshot lacks recorded no work: zero.
pub fn report_registry(out: &mut Outcome, metrics_json: &Path) {
    let snapshot = std::fs::read_to_string(metrics_json)
        .ok()
        .and_then(|t| serde_json::parse(&t).ok())
        .unwrap_or(Value::Null);
    let span_s = |wanted: &dyn Fn(&str) -> bool| -> f64 {
        let Some(Value::Array(spans)) = snapshot.get("spans") else { return 0.0 };
        spans
            .iter()
            .filter(|s| matches!(s.get("name"), Some(Value::Str(name)) if wanted(name)))
            .filter_map(|s| number(s.get("total_sec")))
            .sum()
    };
    let run_s = span_s(&|name| name == "study.run");
    let sessions =
        number(snapshot.get("counters").and_then(|c| c.get("runner.sessions_simulated")));
    out.set("world.runner.study_run_s", run_s);
    out.set(
        "world.runner.sessions_per_s",
        if run_s > 0.0 { sessions.unwrap_or(0.0) / run_s } else { 0.0 },
    );
    out.set("world.runner.merge_s", span_s(&|name| name == "study.run.merge"));
    out.set("analysis.figures.total_s", span_s(&|name| name.starts_with("figures.")));
    let gauge_sum = |suffix: &str| -> f64 {
        let Some(Value::Object(gauges)) = snapshot.get("gauges") else { return 0.0 };
        gauges
            .iter()
            .filter(|(k, _)| k.starts_with("scheduler.worker.") && k.ends_with(suffix))
            .filter_map(|(_, v)| number(Some(v)))
            .sum()
    };
    let (busy, idle) = (gauge_sum(".busy_sec"), gauge_sum(".idle_sec"));
    out.set(
        "world.runner.worker_busy_share",
        if busy + idle > 0.0 { busy / (busy + idle) } else { 0.0 },
    );
}

/// A sink that only counts, so that a study run through it costs the
/// simulation alone.
#[derive(Default)]
struct Counting(u64);

impl RecordShard for Counting {
    fn push(&mut self, _record: SessionRecord) {
        self.0 += 1;
    }
}

impl RecordSink for Counting {
    type Shard = Counting;
    type Snapshot = u64;
    type Stats = SinkStats;

    fn new_shard(&self) -> Counting {
        Counting(0)
    }

    fn merge_shard(&mut self, shard: Counting) {
        self.0 += shard.0;
    }

    fn stats(&self) -> SinkStats {
        SinkStats { records: self.0, ..SinkStats::default() }
    }

    fn into_snapshot(self) -> u64 {
        self.0
    }
}

/// Time `body` under one span and return its wall nanoseconds.
fn spanned(tracer: &mut Tracer, name: &'static str, root: Open, body: impl FnOnce()) -> f64 {
    let name = tracer.name(name);
    let started = std::time::Instant::now();
    let span = tracer.begin(name, root, 0);
    body();
    tracer.end(span);
    started.elapsed().as_nanos() as f64
}

/// A tenth of the countries, one day, 40 sessions per group-window, one
/// worker: ~100 k sessions, a second or so.
pub fn probe(out: &mut Outcome, seed: u64, tracer: &mut Tracer, root: Open) {
    let world = World::generate(WorldConfig { seed, country_fraction: 0.1, ..Default::default() });
    let cfg = StudyConfig {
        seed,
        days: 1,
        sessions_per_group_window: 40,
        parallelism: 1,
        ..Default::default()
    };
    let n_windows = cfg.n_windows() as usize;

    let mut counting = Counting::default();
    let simulate_ns = spanned(tracer, "world.runner.simulate", root, || {
        run_study_into(&world, &cfg, &mut counting);
    });
    let sessions = counting.0.max(1) as f64;
    out.set("world.runner.simulate_ns_per_session", simulate_ns / sessions);

    let records = run_study(&world, &cfg);
    let n = records.len().max(1) as f64;
    let mut columnar = ColumnarSink::new(n_windows);
    let columnar_ns = spanned(tracer, "analysis.columnar.ingest", root, || {
        let mut shard = columnar.new_shard();
        records.iter().for_each(|r| shard.push(*r));
        columnar.merge_shard(shard);
    });
    out.set("analysis.columnar.ingest_ns_per_rec", columnar_ns / n);
    drop(columnar);

    let before = live_bytes();
    let mut streaming = StreamingDataset::new(n_windows);
    let streaming_ns = spanned(tracer, "analysis.sink.streaming_ingest", root, || {
        let mut shard = streaming.new_shard();
        records.iter().for_each(|r| shard.push(*r));
        streaming.merge_shard(shard);
        streaming.finalize();
    });
    out.set("analysis.sink.streaming_ingest_ns_per_rec", streaming_ns / n);
    let held = live_bytes().saturating_sub(before) as f64;
    out.set("analysis.sink.streaming_bytes_per_cell", held / streaming.cell_count().max(1) as f64);
}
