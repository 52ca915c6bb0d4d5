//! `live::store`: spilling an evicted window ([`SegmentStore::spill_window`])
//! and merging segments ([`SegmentStore::compact_once`]).

use crate::child::Error;
use crate::child::SERVE_WORKERS;
use crate::trace::{Open, Tracer};
use edgeperf::live::{shard_of, CellKey, CellSummary, LiveConfig, SegmentStore};
use std::path::Path;

pub const SPILL_SPAN: &str = "live.store.spill";
pub const COMPACT_SPAN: &str = "live.store.compact";

/// A store with the server's default compaction thresholds.
fn open(dir: &Path) -> Result<SegmentStore, Error> {
    let defaults = LiveConfig::default();
    Ok(SegmentStore::open(
        dir,
        defaults.compact_min_segments,
        defaults.compact_batch,
        defaults.spill_fail_threshold,
    )?)
}

/// Spill `windows` copies of `sample` the way the server's workers do —
/// each worker its own share of every window, one segment each — then run
/// the compactor's loop until the store is under its segment threshold.
/// One span per spill and per merge. Returns `(spills, merges)`.
pub fn probe(
    dir: &Path,
    sample: &[(CellKey, CellSummary)],
    windows: u32,
    tracer: &mut Tracer,
    root: Open,
) -> Result<(u64, u64), Error> {
    let (spill, compact) = (tracer.name(SPILL_SPAN), tracer.name(COMPACT_SPAN));
    let store = open(dir)?;
    let mut shares: Vec<Vec<(CellKey, CellSummary)>> = vec![Vec::new(); SERVE_WORKERS];
    for cell in sample {
        shares[shard_of(&cell.0 .0, SERVE_WORKERS)].push(*cell);
    }
    let mut spills = 0;
    for window in 0..windows {
        for share in &shares {
            let span = tracer.begin(spill, root, u64::from(window));
            store.spill_window(window, share)?;
            tracer.end(span);
            spills += 1;
        }
    }
    let mut merges = 0;
    while store.needs_compaction() {
        let span = tracer.begin(compact, root, merges);
        let merged = store.compact_once()?;
        tracer.end(span);
        if !merged {
            break;
        }
        merges += 1;
    }
    Ok((spills, merges))
}
