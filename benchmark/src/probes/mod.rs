//! The traced pass: in-process probes of each layer through its public
//! functions, over the same laps the real server was sent, one source file
//! per layer. Every probe records spans into one [`Tracer`], written to
//! `benchmark/out/trace.json`; per-layer costs are span self times divided
//! by the work the probe counted.
//!
//! Probe sizes are record counts, not durations, so that every count a
//! probe reports repeats exactly from run to run.

pub mod detect;
pub mod frame;
pub mod offline;
pub mod protocol;
pub mod queue;
pub mod segment;
pub mod store;
pub mod tdigest;
pub mod window;
pub mod wireparser;

use crate::child::{Error, Layout, ScratchDir, SERVE_WORKERS};
use crate::live::{self, Plan};
use crate::report::Outcome;
use crate::trace::{LayerTime, Open, Tracer};
use crate::{Inputs, DECLARED_FACTOR};
use edgeperf::live::store::window_cell;
use edgeperf::live::CellLine;
use std::collections::BTreeMap;

/// Room for every span of a full-length traced pass (32 MB).
const SPAN_CAPACITY: usize = 1 << 20;

/// Records through the flat (frame, queue) probes and through the window
/// probe at the declared run length; shorter runs scale both down.
const FLAT_RECORDS: f64 = 500_000.0;
const WINDOW_RECORDS: f64 = 12_000_000.0;

struct Layers(BTreeMap<&'static str, LayerTime>);

impl Layers {
    fn self_ns(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |l| l.self_ns as f64)
    }

    fn spans(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |l| l.spans as f64)
    }
}

fn per(total: f64, units: f64) -> f64 {
    if units > 0.0 {
        total / units
    } else {
        0.0
    }
}

fn live_probes(
    layout: &Layout,
    workload: &str,
    inputs: &live::Inputs,
    plan: &Plan,
    out: &mut Outcome,
    tracer: &mut Tracer,
    root: Open,
) -> Result<(), Error> {
    let lap = &inputs.lap;
    let scale = (plan.factor / DECLARED_FACTOR).min(1.0);
    let flat = ((FLAT_RECORDS * scale) as usize).clamp(10_000, lap.records.len());
    let laps =
        ((WINDOW_RECORDS * scale / lap.len() as f64) as u64).clamp(1, 48).next_multiple_of(4);
    let history = workload == "history";

    let decoded = frame::probe(lap, flat, tracer, root);
    let pushed = queue::probe(lap, flat, tracer, root);

    // One window pass whose laps alternate between recording spans and
    // not: the difference is what recording them cost.
    let window::Pass { counts, sample } = window::probe(lap, laps, tracer, root)?;
    out.set("bench.trace.overhead_share", counts.traced_ns as f64 / counts.plain_ns as f64 - 1.0);
    let (spills, merges) = if history {
        let dir = ScratchDir(layout.scratch("probe-spill")?);
        store::probe(&dir.0, &sample, 24, tracer, root)?
    } else {
        (0, 0)
    };

    let per_cell = per(counts.rank0_records as f64, counts.rank0_cells as f64);
    let samples = tdigest::probe_insert(lap, per_cell.round() as usize, tracer, root);
    out.set(
        "stats.tdigest.bytes_per_cell",
        tdigest::bytes_per_cell(lap, per_cell.round() as usize, 512),
    );
    let lines: Vec<CellLine> = sample.iter().map(|(k, s)| CellLine::new(0, k, s)).collect();
    let rounds = (200_000 / lines.len().max(1)).clamp(2, 400) as u64;
    protocol::probe(&lines, rounds, tracer, root);
    if history {
        let rows = sample.iter().map(|(k, s)| window_cell(0, k, s)).collect();
        segment::probe(rows, rounds, tracer, root)?;
    }
    let parsed = if workload == "ingest_dense" {
        wireparser::probe(lap, flat.min(20_000), tracer, root)
    } else {
        0
    };

    let layers = Layers(tracer.layer_times());
    let cells = counts.cells_closed as f64;
    let records = counts.records as f64;
    let replies = rounds as f64 * lines.len() as f64;
    out.set("live.frame.decode_ns_per_rec", per(layers.self_ns(frame::SPAN), decoded as f64));
    out.set("live.queue.shard_push_ns_per_rec", per(layers.self_ns(queue::SPAN), pushed as f64));
    out.set(
        "live.window.apply_ns_per_rec",
        per(layers.self_ns(window::APPLY_SPAN), layers.spans(window::APPLY_SPAN) * 64.0),
    );
    out.set("live.window.close_ns_per_cell", per(layers.self_ns(window::CLOSE_SPAN), cells));
    out.set(
        "live.window.close_ms_per_window",
        per(layers.self_ns(window::CLOSE_SPAN) / 1e6, counts.windows_closed as f64),
    );
    out.set("live.detect.observe_ns_per_cell", per(layers.self_ns(detect::SPAN), cells));
    out.set("live.window.records_per_cell", per_cell);
    out.set("live.window.cells_per_window", per(cells, counts.windows_closed as f64));
    out.set(
        "stats.tdigest.insert_ns_per_sample",
        per(layers.self_ns(tdigest::SPAN), samples as f64),
    );
    if history {
        out.set(
            "live.store.spill_ms_per_window",
            per(layers.self_ns(store::SPILL_SPAN) / 1e6, spills as f64 / SERVE_WORKERS as f64),
        );
        out.set(
            "live.store.compact_ms_per_merge",
            per(layers.self_ns(store::COMPACT_SPAN) / 1e6, merges as f64),
        );
        out.set(
            "analysis.segment.encode_ns_per_cell",
            per(layers.self_ns(segment::ENCODE_SPAN), replies),
        );
        out.set(
            "analysis.segment.decode_ns_per_cell",
            per(layers.self_ns(segment::DECODE_SPAN), replies),
        );
    }
    out.set("live.protocol.render_ns_per_row", per(layers.self_ns(protocol::SPAN), replies));
    if parsed > 0 {
        out.set(
            "serve.wireparser.parse_ns_per_line",
            per(layers.self_ns(wireparser::SPAN), parsed as f64),
        );
    }

    // Reconciliation: what the real server's threads spent per record
    // beyond what these probes account for (socket reads, batching, parks
    // and wake-ups, the sync barrier, acks — ROADMAP item 1's "layers must
    // sum").
    let reader = out.get("live.server.reader_cpu_ns_per_rec").unwrap_or(0.0);
    let worker = out.get("live.server.worker_cpu_ns_per_rec").unwrap_or(0.0);
    out.set(
        "live.server.reader_unattributed_ns_per_rec",
        reader
            - per(layers.self_ns(frame::SPAN), decoded as f64)
            - per(layers.self_ns(queue::SPAN), pushed as f64),
    );
    let worker_layers = [window::APPLY_SPAN, window::CLOSE_SPAN, detect::SPAN];
    let accounted: f64 = worker_layers.iter().map(|name| layers.self_ns(name)).sum();
    // One window's spills per window's worth of records.
    let spill = per(layers.self_ns(store::SPILL_SPAN), spills as f64 / SERVE_WORKERS as f64)
        / lap.len() as f64;
    out.set("live.server.worker_unattributed_ns_per_rec", worker - per(accounted, records) - spill);
    Ok(())
}

/// Run the traced pass of `workload` and fold its numbers into `out`.
pub fn run(
    layout: &Layout,
    workload: &str,
    inputs: &Inputs,
    plan: &Plan,
    out: &mut Outcome,
) -> Result<(), Error> {
    let mut tracer = Tracer::new(SPAN_CAPACITY);
    let name = tracer.name("bench.probes");
    let root = tracer.begin(name, Open::NONE, plan.seed);
    match inputs {
        Inputs::Live(inputs) => {
            live_probes(layout, workload, inputs, plan, out, &mut tracer, root)?;
            if workload == "ingest_dense" {
                // The registry's cost: `sat` again on a server started with
                // `--metrics`.
                let metered = live::run_ingest(layout, inputs, plan, live::DENSE_PACED_RPS, true)?;
                let (with, without) =
                    (metered.get("ingest_cpu_ns_per_rec"), out.get("ingest_cpu_ns_per_rec"));
                if let (Some(with), Some(without)) = (with, without) {
                    out.set("obs.registry.ingest_overhead_share", with / without - 1.0);
                }
                out.attempted += metered.attempted;
                out.failed += metered.failed;
                out.notes.extend(metered.notes);
            }
        }
        Inputs::Offline => offline::probe(out, plan.seed, &mut tracer, root),
    }
    tracer.end(root);
    out.set("bench.trace.spans", tracer.recorded() as f64);
    if tracer.dropped > 0 {
        out.failed += 1;
        out.notes.push(format!("the span buffer dropped {} spans", tracer.dropped));
    }
    tracer.write_json(&layout.out_dir.join("trace.json"))?;
    Ok(())
}
