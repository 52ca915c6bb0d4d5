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
//! costs a worker one `Arc` clone per window in range; the connection's
//! reader thread does the rest ([`crate::reply::CellsReply`]): it merges
//! those sorted runs with the store's, RAM winning duplicates, counts the
//! rows, and only then — the row count, a draining server and a store
//! error all known — merges again to write them through one 64 KiB
//! buffer, each by [`crate::protocol::write_row`] straight from where it
//! lies. Nothing is sorted, copied or built; a window evicted mid-reply
//! lives until the last reply reading it is written. Whenever any worker
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
use crate::store::Runs;
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
/// store its matching rows as sorted runs, and this (the connection's
/// reader) thread filters and merges them through a [`CellsReply`] —
/// windows present in both tiers (spilled but not yet evicted, or
/// replayed after a restart) keep their RAM copy — and only then writes
/// header and rows through one fixed-size buffer. The row count, a
/// draining server and a store error are all known before the first
/// byte goes out; an `Err` is the socket's. Every reply is in canonical
/// (window, group, rank) order, whatever the query, the worker count or
/// the spill timing.
pub(super) fn serve_cells(
    shared: &Shared,
    query: &CellQuery,
    out: &mut impl Write,
) -> io::Result<()> {
    let started = shared.metrics.is_enabled().then(Instant::now);
    let Some(per_worker) = query_workers(shared, |reply| ControlMsg::Cells(*query, reply)) else {
        return send(out, &Response::Draining);
    };
    let windows: Vec<SharedWindow> = per_worker.into_iter().flatten().collect();
    let stored = match shared.store.as_ref().map(|store| store.query(query)) {
        None => Runs::default(),
        Some(Ok(runs)) => runs,
        Some(Err(err)) => return send(out, &Response::StoreError(err.to_string())),
    };
    let reply = CellsReply::canonical(&windows, &stored, query);
    let rows = reply.rows() as u64;
    let bytes = reply.write(out)?;
    if let Some(started) = started {
        shared.metrics.histogram("live.query.cells_ns").record(started.elapsed().as_nanos() as u64);
        shared.metrics.counter("live.query.rows").add(rows);
        shared.metrics.counter("live.query.reply_bytes").add(bytes);
    }
    Ok(())
}
