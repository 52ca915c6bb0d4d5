//! `stats::tdigest`: the sketch under every cell. Insert cost per sample,
//! and heap bytes per cell at the workload's samples-per-cell.

use crate::alloc::live_bytes;
use crate::gen::Lap;
use crate::trace::{Open, Tracer};
use edgeperf::analysis::StreamingAggregation;
use edgeperf::stats::TDigest;

pub const SPAN: &str = "stats.tdigest.insert";

/// Compression every cell's digests use (`StreamingAggregation::new`).
const COMPRESSION: f64 = 100.0;

/// Insert the lap's MinRTTs into fresh digests of `per_cell` samples each
/// (the workload's records per cell), flushing each as a close would; one
/// span per digest. Returns the samples inserted.
pub fn probe_insert(lap: &Lap, per_cell: usize, tracer: &mut Tracer, root: Open) -> u64 {
    let name = tracer.name(SPAN);
    let mut samples = 0;
    for (cell_no, cell) in lap.records.chunks(per_cell.max(1)).enumerate() {
        let span = tracer.begin(name, root, cell_no as u64);
        let mut digest = TDigest::new(COMPRESSION);
        for rec in cell {
            digest.insert(rec.min_rtt_ms);
        }
        digest.flush();
        std::hint::black_box(digest.quantile(0.5));
        tracer.end(span);
        samples += cell.len() as u64;
    }
    samples
}

/// Heap bytes one open cell holds after `per_cell` records, measured on
/// `cells` cells with the counting allocator.
pub fn bytes_per_cell(lap: &Lap, per_cell: usize, cells: usize) -> f64 {
    let before = live_bytes();
    let built: Vec<StreamingAggregation> = lap
        .records
        .chunks(per_cell.max(1))
        .take(cells)
        .map(|chunk| {
            let mut cell = StreamingAggregation::new();
            for rec in chunk {
                cell.push(rec.min_rtt_ms, rec.hdratio, rec.bytes);
            }
            cell
        })
        .collect();
    let held = live_bytes().saturating_sub(before);
    held as f64 / built.len().max(1) as f64
}
