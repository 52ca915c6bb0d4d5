//! `live::queue`: the part of the reader's route step that is public —
//! [`shard_of`] per record, and one [`spsc`] push and one pop per record
//! through a lane of the server's default capacity, uncontended (lanes are
//! drained on this thread when they fill).
//!
//! The server moves records through its lanes in batches, parks on a full
//! lane and recycles batch buffers; that logic is private to `server.rs`,
//! and what it costs is for timers inside the server (ROADMAP item 5), not
//! for a copy of it kept here that would drift.

use crate::child::SERVE_WORKERS;
use crate::gen::Lap;
use crate::trace::{Open, Tracer};
use edgeperf::live::{shard_of, spsc, Consumer, LiveConfig, LiveRecord};

pub const SPAN: &str = "live.queue.shard_push";

/// Records per span: the batch every probe's spans cover.
const SPAN_RECORDS: usize = 64;

fn drain(lane: &mut Consumer<LiveRecord>) -> u64 {
    let mut popped = 0;
    while let Some(rec) = lane.try_pop() {
        std::hint::black_box(&rec);
        popped += 1;
    }
    popped
}

/// Shard and push the first `records` records of `lap`; one span per 64
/// records. Returns the records that came out of the lanes.
pub fn probe(lap: &Lap, records: usize, tracer: &mut Tracer, root: Open) -> u64 {
    let name = tracer.name(SPAN);
    let slots = LiveConfig::default().queue_capacity;
    let mut lanes: Vec<_> = (0..SERVE_WORKERS).map(|_| spsc::<LiveRecord>(slots)).collect();
    let mut popped = 0;
    for (batch_no, batch) in lap.records[..records].chunks(SPAN_RECORDS).enumerate() {
        let span = tracer.begin(name, root, batch_no as u64);
        for rec in batch {
            let (tx, rx) = &mut lanes[shard_of(&rec.group, SERVE_WORKERS)];
            if let Err(back) = tx.try_push(*rec) {
                popped += drain(rx);
                assert!(tx.try_push(back).is_ok(), "a drained lane has room");
            }
        }
        tracer.end(span);
    }
    // What is still in the lanes is popped under a span of its own, so the
    // self time holds one pop for every push.
    let span = tracer.begin(name, root, records.div_ceil(SPAN_RECORDS) as u64);
    popped += lanes.iter_mut().map(|(_, rx)| drain(rx)).sum::<u64>();
    tracer.end(span);
    assert_eq!(popped, records as u64, "the lanes lose no record");
    popped
}
