//! `live::window`: a worker's apply loop, serial and in-process — 64-record
//! batches through [`WindowRing::push`], and for every window that closes
//! the detector, as the server's `handle_close` runs it.
//!
//! A batch that closed nothing is a `live.window.apply` span. A batch that
//! returned a [`ClosedWindow`] is a `live.window.close` span whose child is
//! the detector, so its self time is the close itself (cell flush, medians,
//! Price–Bonett variances) plus 64 applies.

use super::detect;
use crate::child::{Error, SERVE_RETENTION};
use crate::gen::{Lap, WINDOW_MS};
use crate::oracle::LATENESS_MS;
use crate::trace::{Open, Tracer};
use edgeperf::live::{CellKey, CellSummary, ClosedWindow, LiveRecord, WindowRing};
use std::collections::BTreeMap;

pub const APPLY_SPAN: &str = "live.window.apply";
pub const CLOSE_SPAN: &str = "live.window.close";

const BATCH: u64 = 64;

/// What the pass did, for turning span times into per-unit costs.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    /// In the laps that recorded spans: records applied, windows and cells
    /// closed, wall time.
    pub records: u64,
    pub windows_closed: u64,
    pub cells_closed: u64,
    pub traced_ns: u64,
    /// Wall time of the laps applied with recording paused: as many laps,
    /// as many closes.
    pub plain_ns: u64,
    /// Over all laps: sessions in preferred-route (rank 0) cells, and those
    /// cells.
    pub rank0_records: u64,
    pub rank0_cells: u64,
}

/// Counts plus the last window closed, as input for the codec probes.
pub struct Pass {
    pub counts: Counts,
    pub sample: Vec<(CellKey, CellSummary)>,
}

struct Worker {
    detector: edgeperf::live::OnlineDetector,
    closed: BTreeMap<u32, Vec<(CellKey, CellSummary)>>,
    counts: Counts,
}

impl Worker {
    fn handle_close(&mut self, window: ClosedWindow, tracer: &mut Tracer, name: u16, parent: Open) {
        detect::observe(&mut self.detector, &window, tracer, name, parent);
        if tracer.recording() {
            self.counts.windows_closed += 1;
            self.counts.cells_closed += window.cells.len() as u64;
        }
        for ((_, rank), summary) in &window.cells {
            if *rank == 0 {
                self.counts.rank0_cells += 1;
                self.counts.rank0_records += summary.n as u64;
            }
        }
        self.closed.insert(window.index, window.cells);
        while self.closed.len() > SERVE_RETENTION {
            self.closed.pop_first();
        }
    }
}

/// Whether lap `i` records spans: plain, traced, traced, plain, and again.
/// Every lap applies the same records and every lap but the first closes
/// one window (the drain after the last lap closes the last), so the two
/// halves do the same work a lap apart, the mirrored order cancels the
/// drift of a heap that is still growing, and a slow second of the machine
/// falls on both.
fn traced_lap(i: u64) -> bool {
    matches!(i % 4, 1 | 2)
}

/// Apply `laps` laps of `lap` (a multiple of four) and drain.
pub fn probe(lap: &Lap, laps: u64, tracer: &mut Tracer, root: Open) -> Result<Pass, Error> {
    assert!(laps > 0 && laps.is_multiple_of(4), "traced and plain laps come in mirrored fours");
    let (apply, close) = (tracer.name(APPLY_SPAN), tracer.name(CLOSE_SPAN));
    let observe = tracer.name(detect::SPAN);
    let mut ring = WindowRing::new(WINDOW_MS, LATENESS_MS);
    let mut worker =
        Worker { detector: detect::detector(), closed: BTreeMap::new(), counts: Counts::default() };
    let mut batch: Vec<LiveRecord> = Vec::with_capacity(BATCH as usize);
    for lap_no in 0..laps {
        tracer.set_paused(!traced_lap(lap_no));
        let started = std::time::Instant::now();
        let (first, end) = (lap_no * lap.len(), (lap_no + 1) * lap.len());
        for first in (first..end).step_by(BATCH as usize) {
            batch.clear();
            batch.extend((first..(first + BATCH).min(end)).map(|i| lap.record_at(i)));
            let span = tracer.begin(apply, root, first / BATCH);
            let mut windows = Vec::new();
            for rec in &batch {
                windows.extend(ring.push(rec)?);
            }
            if !windows.is_empty() {
                tracer.rename(span, close);
                for window in windows {
                    worker.handle_close(window, tracer, observe, span);
                }
            }
            tracer.end(span);
        }
        if lap_no + 1 == laps {
            let span = tracer.begin(close, root, end / BATCH);
            for window in ring.force_close() {
                worker.handle_close(window, tracer, observe, span);
            }
            tracer.end(span);
        }
        let wall_ns = started.elapsed().as_nanos() as u64;
        if tracer.recording() {
            worker.counts.records += lap.len();
            worker.counts.traced_ns += wall_ns;
        } else {
            worker.counts.plain_ns += wall_ns;
        }
    }
    tracer.set_paused(false);
    let sample = worker.closed.pop_last().map_or_else(Vec::new, |(_, cells)| cells);
    Ok(Pass { counts: worker.counts, sample })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{Shape, WIDE};

    #[test]
    fn traced_and_plain_laps_do_the_same_work() {
        let lap = Lap::generate(Shape { groups: 8, records_per_window: 3_000, ..WIDE }, 2);
        let mut tracer = Tracer::new(1 << 12);
        let pass = probe(&lap, 8, &mut tracer, Open::NONE).unwrap();
        let c = pass.counts;
        assert_eq!(c.records, 4 * lap.len(), "half the laps record spans");
        assert_eq!(c.windows_closed, 4, "and hold half the eight closes");
        assert_eq!(c.cells_closed, 4 * pass.sample.len() as u64);
        assert_eq!(
            c.rank0_records,
            8 * lap.records.iter().filter(|r| r.route_rank == 0).count() as u64
        );
        assert!(c.traced_ns > 0 && c.plain_ns > 0 && tracer.recording());
        let times = tracer.layer_times();
        assert_eq!(times[CLOSE_SPAN].spans, 4);
        assert_eq!(times[APPLY_SPAN].spans + 4, 4 * lap.len().div_ceil(BATCH));
    }
}
