//! The control plane, and the `cells` replies written through
//! it. Runs on the asking connection's reader thread; owns
//! `Shared::router`.
//!
//! Commands (`ping`, `snapshot`, …) bypass the record lanes entirely:
//! each worker owns an unbounded mpsc control channel drained once per
//! scheduling round, so a full data ring never blocks a `ping`. Commands
//! that report state still observe everything their own connection sent
//! first — the reader flushes its partial batches and waits until each
//! lane's applied counter catches up to its pushed counter.
//!
//! ## Closed windows and the replies written from them
//!
//! A worker keeps each closed window as an immutable shared slice of rows
//! in canonical order ([`crate::SharedWindow`]): insert on close, spill
//! and pop on eviction, and nothing ever changes a slice. A `cells` query
//! costs a worker one `Arc` clone per window in range; the store hands
//! over one run cursor an overlapping segment ([`crate::Cursors`]), its
//! files opened under the store's lock and nothing read yet. The
//! connection's reader thread does the rest ([`crate::reply::CellsReply`]):
//! it merges those sorted runs, RAM winning duplicates, and counts the
//! rows — reading each segment a row group at a time, and keeping a run's
//! matches while they fit one group — and only then, the row count, a
//! draining server and any store error in that first pass all known,
//! merges again to write them through one 64 KiB buffer, each by
//! [`crate::protocol::write_row`] straight from where it lies; a run that
//! did not fit is read again. Nothing is sorted, collected or built; a
//! window evicted mid-reply lives until the last reply reading it is
//! written, and a segment compacted away mid-reply is read to the end
//! through the handle the cursor holds. A store error in the second pass
//! comes after the header: the connection is closed mid-reply, and the
//! client sees the reply end short of its count. Whenever any worker
//! cannot be asked or does not answer
//! (the server is draining, a worker died holding the message) the reply
//! is `{"error":"draining"}` — never the remaining workers' rows passed
//! off as all of them.
//!
//! ## Query metrics
//!
//! Recorded once per `cells` query, never per row: `live.query.cells_ns`
//! (histogram: workers asked to last byte flushed) and the
//! `live.query.rows` / `live.query.reply_bytes` counters, all served by
//! `metrics`.

use super::stats::WorkerSnap;
use super::{send, Shared};
use crate::protocol::{CellQuery, Response};
use crate::reply::CellsReply;
use crate::store::Cursors;
use crate::window::SharedWindow;
use std::io::{self, Write};
use std::sync::mpsc::{channel, Sender};
use std::sync::Mutex;
use std::time::Instant;

/// Control-plane messages, delivered over each worker's unbounded mpsc
/// channel so they never queue behind (or block on) full record lanes.
pub(super) enum ControlMsg {
    Ping(Sender<()>),
    Snapshot(Sender<WorkerSnap>),
    /// This worker's closed windows inside the query's window range, as
    /// the shared slices it keeps them in — nothing is copied or
    /// filtered here, so the worker is back on its lanes at once.
    Cells(CellQuery, Sender<Vec<SharedWindow>>),
}

/// Control senders, one per worker; closed (`None`) before the workers
/// start and once draining. Doubles as the "is the server accepting
/// lanes" gate for readers.
#[derive(Default)]
pub(super) struct Router(Mutex<Option<Vec<Sender<ControlMsg>>>>);

impl Router {
    /// Start routing to the workers behind `senders`.
    pub(super) fn open(&self, senders: Vec<Sender<ControlMsg>>) {
        *self.0.lock().expect("router") = Some(senders);
    }

    /// Drop the control senders: workers treat a disconnected control
    /// channel + no lanes as the exit condition.
    pub(super) fn close(&self) {
        *self.0.lock().expect("router") = None;
    }

    /// Run `f` with the router held open, or not at all once closed.
    pub(super) fn while_open<T>(&self, f: impl FnOnce() -> T) -> Option<T> {
        let router = self.0.lock().expect("router");
        router.as_ref()?;
        Some(f())
    }
}

/// Ask worker `w` alone whether it is scheduling: `Pong`, or `Gone` when
/// the server is draining or the worker died holding the message.
pub(super) fn ping(shared: &Shared, w: usize) -> Response {
    let sender = shared.router.0.lock().expect("router").as_ref().map(|s| s[w].clone());
    let (reply_tx, reply_rx) = channel();
    match sender {
        Some(tx) if tx.send(ControlMsg::Ping(reply_tx)).is_ok() => {
            shared.hubs.of(w).ring();
            reply_rx.recv().map_or(Response::Gone, |()| Response::Pong)
        }
        _ => Response::Gone,
    }
}

/// Send `make(reply)` to every worker over the control channels and
/// collect the responses, in worker order. `None` when any worker cannot
/// be asked or does not answer — the server is draining, or the worker
/// died holding the message: a partial answer is never passed off as a
/// whole one.
pub(super) fn query_workers<T>(
    shared: &Shared,
    make: impl Fn(Sender<T>) -> ControlMsg,
) -> Option<Vec<T>> {
    let senders = shared.router.0.lock().expect("router").clone()?;
    let mut out = Vec::with_capacity(senders.len());
    for (w, tx) in senders.iter().enumerate() {
        let (reply_tx, reply_rx) = channel();
        tx.send(make(reply_tx)).ok()?;
        shared.hubs.of(w).ring();
        out.push(reply_rx.recv().ok()?);
    }
    Some(out)
}

/// Serve a `cells` query by writing it: every worker hands
/// over the closed windows in range as shared sorted slices, the tiered
/// store a cursor a segment over its matching rows, and this (the
/// connection's reader) thread filters and merges them through a
/// [`CellsReply`] — windows present in both tiers (spilled but not yet
/// evicted, or replayed after a restart) keep their RAM copy — counting
/// first and only then writing header and rows through one fixed-size
/// buffer. The row count, a draining server and a store error in the
/// counting pass are all known before the first byte goes out; an `Err`
/// is the socket's, or a store read failing after the header, and either
/// way the caller closes the connection. Every reply is in canonical
/// (window, group, rank) order, whatever the query, the worker count or
/// the spill timing.
pub(super) fn serve_cells(
    shared: &Shared,
    query: &CellQuery,
    mut out: impl Write,
) -> io::Result<()> {
    let started = shared.metrics.is_enabled().then(Instant::now);
    let Some(per_worker) = query_workers(shared, |reply| ControlMsg::Cells(*query, reply)) else {
        return send(out, &Response::Draining);
    };
    let windows: Vec<SharedWindow> = per_worker.into_iter().flatten().collect();
    let stored = shared.store.as_deref().map_or(Ok(Cursors::default()), |s| s.query(query));
    let reply = match stored.and_then(|stored| CellsReply::canonical(&windows, stored, query)) {
        Ok(reply) => reply,
        Err(err) => return send(out, &Response::StoreError(err.to_string())),
    };
    let rows = reply.rows() as u64;
    let bytes = reply.write(&mut out)?;
    if let Some(started) = started {
        shared.metrics.histogram("live.query.cells_ns").record(started.elapsed().as_nanos() as u64);
        shared.metrics.counter("live.query.rows").add(rows);
        shared.metrics.counter("live.query.reply_bytes").add(bytes);
    }
    Ok(())
}
