//! Connections: the acceptor thread and the reader thread it spawns per
//! connection. Owns `Shared::conns`.
//!
//! ## Wire negotiation
//!
//! A connection's very first bytes pick its wire format. The 8-byte
//! binary preamble (magic `EPB1`, see [`crate::frame`]) switches the
//! connection to length-prefixed binary frames decoded zero-copy from a
//! reusable per-connection buffer; anything else — in particular the
//! `{` opening every JSONL record — leaves it in line mode. Binary
//! connections are data-only (no commands; clients issue `snapshot` /
//! `shutdown` over a separate JSONL connection), and a malformed frame
//! closes the connection after a typed reject, because a corrupt binary
//! stream has no newline to resynchronize on.
//!
//! ## Line protocol
//!
//! Lines starting with `{` are session records (no per-line response —
//! rejects are counted by reason, never silently dropped). Anything
//! else is a command line, parsed and rendered exclusively by the typed
//! [`crate::protocol`] module (see its docs for the command table and
//! the compatibility contract). The reader loop here owns *serving* a
//! [`crate::protocol::Request`], never its wire syntax.

use super::lanes::{register_reader, ReaderLanes};
use super::query::{ping, query_workers, serve_cells, ControlMsg};
use super::stats::{publish, reject};
use super::{drain, send, Shared};
use crate::frame::{
    parse_hello, parse_preamble, FrameDecoder, FRAME_MAGIC, HELLO_LEN, PREAMBLE_LEN,
};
use crate::protocol::{Request, Response};
use crate::record::LineParser;
use std::io::{self, BufRead, BufReader, Cursor, ErrorKind, Read};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Every open connection (a clone of its socket, by connection id) and
/// every reader thread ever spawned.
#[derive(Default)]
pub(super) struct Conns {
    open: Mutex<Vec<(u64, TcpStream)>>,
    readers: Mutex<Vec<JoinHandle<()>>>,
}

impl Conns {
    /// Cut every connection but `keep`'s; their readers drain what they
    /// have already batched, then retire (fold stats, close lanes).
    pub(super) fn cut_all_but(&self, keep: u64) {
        for (id, conn) in self.open.lock().expect("conns").iter() {
            if *id != keep {
                let _ = conn.shutdown(Shutdown::Both);
            }
        }
    }

    /// Join every reader thread spawned so far.
    pub(super) fn join_readers(&self) {
        for handle in self.readers.lock().expect("reader handles").drain(..) {
            let _ = handle.join();
        }
    }

    fn forget(&self, id: u64) {
        self.open.lock().expect("conns").retain(|(cid, _)| *cid != id);
    }
}

pub(super) fn acceptor_loop(
    listener: TcpListener,
    shared: &Arc<Shared>,
    parser: Arc<dyn LineParser>,
) {
    let refused = shared.metrics.counter("live.conns.refused");
    let spawn_errors = shared.metrics.counter("live.spawn_errors");
    let conns = &shared.conns;
    let mut next_id = 0u64;
    for stream in listener.incoming() {
        if shared.draining.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // Connection cap: refuse (close immediately) past the limit so
        // a connection flood degrades politely instead of exhausting
        // reader threads.
        let cap = shared.config.max_connections;
        if cap > 0 && conns.open.lock().expect("conns").len() >= cap {
            refused.inc();
            drop(stream);
            continue;
        }
        // Protocol replies are tiny; without this every command
        // round-trip stalls on Nagle + delayed ACKs (~40 ms).
        let _ = stream.set_nodelay(true);
        // Slow-client protection: a reader blocked on a dead or stalled
        // peer times out and evicts instead of pinning a thread (and,
        // for sessions, its ack hand-off) forever.
        let timeout = |ms: u64| (ms > 0).then(|| Duration::from_millis(ms));
        let _ = stream.set_read_timeout(timeout(shared.config.idle_timeout_ms));
        let _ = stream.set_write_timeout(timeout(shared.config.write_timeout_ms));
        let id = next_id;
        next_id += 1;
        if let Ok(clone) = stream.try_clone() {
            conns.open.lock().expect("conns").push((id, clone));
        }
        let shared_cloned = Arc::clone(shared);
        let parser = Arc::clone(&parser);
        let spawned =
            std::thread::Builder::new().name(format!("live-reader-{id}")).spawn(move || {
                reader_loop(id, stream, &shared_cloned, parser);
                shared_cloned.conns.forget(id);
            });
        match spawned {
            Ok(handle) => conns.readers.lock().expect("reader handles").push(handle),
            Err(_) => {
                // Reader spawn failed (EMFILE/EAGAIN): refuse this one
                // connection — the dropped closure closes the stream —
                // and keep accepting; a transient limit must not kill
                // the acceptor.
                spawn_errors.inc();
                refused.inc();
                conns.forget(id);
            }
        }
    }
}

/// Per-connection resume bookkeeping while a session is attached.
struct SessionCtx {
    id: u64,
    /// Records consumed on this connection so far.
    consumed: u64,
}

/// Hand an attached session back: the ack is published only after every
/// routed record is applied — the exactly-once guarantee.
fn end_session(shared: &Shared, lanes: &mut ReaderLanes, session: SessionCtx) {
    lanes.sync();
    shared.resume.end(session.id, session.consumed);
}

fn reader_loop(id: u64, stream: TcpStream, shared: &Shared, parser: Arc<dyn LineParser>) {
    let Ok(mut out) = stream.try_clone() else { return };
    let Some(mut lanes) = register_reader(shared) else { return };
    // Wire negotiation: sniff the first bytes against the binary magic.
    // The comparison is incremental, so a JSONL client's `{` (or any
    // other first byte) commits to line mode after one read — we never
    // wait for 8 bytes that will not come.
    let mut pre = [0u8; PREAMBLE_LEN];
    let mut got = 0usize;
    let mut magic_possible = true;
    while magic_possible && got < PREAMBLE_LEN {
        match (&stream).read(&mut pre[got..]) {
            Ok(0) => break,
            Ok(n) => {
                got += n;
                let cmp = got.min(FRAME_MAGIC.len());
                magic_possible = pre[..cmp] == FRAME_MAGIC[..cmp];
            }
            Err(_) => {
                lanes.retire(shared);
                return;
            }
        }
    }
    let session = if magic_possible && got == PREAMBLE_LEN {
        binary_connection(stream, &pre, &mut out, shared, &mut lanes)
    } else {
        // Line mode: hand the already-consumed sniff bytes back to the
        // parser by chaining them in front of the socket.
        let reader = BufReader::with_capacity(
            shared.config.read_buffer_bytes,
            Cursor::new(pre[..got].to_vec()).chain(stream),
        );
        line_reader_loop(id, reader, &mut out, shared, parser, &mut lanes)
    };
    if let Some(session) = session {
        end_session(shared, &mut lanes, session);
    }
    lanes.retire(shared);
}

/// A connection that opened with the binary magic: check the preamble,
/// attach the resume session a hello block announces (acking the resume
/// point before any frames flow), then run the frame loop. Returns the
/// attached session for the caller to hand back.
fn binary_connection(
    stream: TcpStream,
    pre: &[u8; PREAMBLE_LEN],
    out: &mut TcpStream,
    shared: &Shared,
    lanes: &mut ReaderLanes,
) -> Option<SessionCtx> {
    let (body_len, hello) = match parse_preamble(pre) {
        Ok(parsed) => parsed,
        Err(err) => {
            reject(&lanes.cell, &err);
            return None;
        }
    };
    let mut session = None;
    if hello {
        let mut block = [0u8; HELLO_LEN];
        (&stream).read_exact(&mut block).ok()?;
        let (sid, _epoch) = match parse_hello(&block) {
            Ok(parsed) => parsed,
            Err(err) => {
                reject(&lanes.cell, &err);
                return None;
            }
        };
        let Some(acked) = shared.resume.begin(sid) else {
            let _ = send(out, &Response::SessionBusy);
            return None;
        };
        session = Some(SessionCtx { id: sid, consumed: 0 });
        if send(out, &Response::Acked(acked)).is_err() {
            return session;
        }
    }
    binary_reader_loop(stream, body_len, shared, lanes, session.as_mut());
    session
}

/// Binary-mode connection: decode length-prefixed frames from a
/// reusable buffer and shard them exactly like parsed JSONL records.
/// Data-only — the first malformed frame (or EOF) ends the connection.
///
/// With a resume `session`, every cleanly decoded frame counts toward
/// the session's consumed total; a torn frame left pending at EOF is
/// *not* consumed (counted under `ingest.truncated`), so the client
/// resends it after reconnecting and nothing is lost or double-counted.
fn binary_reader_loop(
    mut stream: TcpStream,
    body_len: usize,
    shared: &Shared,
    lanes: &mut ReaderLanes,
    mut session: Option<&mut SessionCtx>,
) {
    let frames_counter = shared.metrics.counter("ingest.frames");
    let mut decoder = FrameDecoder::new(body_len, shared.config.read_buffer_bytes);
    loop {
        let writable = decoder.writable();
        let writable_len = writable.len();
        let n = match stream.read(writable) {
            Ok(0) => {
                // Give back the unused spare region so `pending()`
                // below reflects only real (torn-frame) bytes.
                decoder.advance(0, writable_len);
                break;
            }
            Err(e) => {
                decoder.advance(0, writable_len);
                count_eviction(shared, &e);
                break;
            }
            Ok(n) => n,
        };
        decoder.advance(n, writable_len);
        let mut frames = 0;
        loop {
            match decoder.next_record() {
                Ok(Some(rec)) => {
                    frames += 1;
                    if let Some(sc) = session.as_deref_mut() {
                        sc.consumed += 1;
                    }
                    lanes.route(rec);
                }
                Ok(None) => break,
                Err(err) => {
                    frames_counter.add(frames);
                    reject(&lanes.cell, &err);
                    return;
                }
            }
        }
        frames_counter.add(frames);
        // About to block on the socket: hand workers everything decoded
        // so far (same invariant as the line path — a quiet connection
        // never strands records in a partial batch).
        lanes.flush_all();
    }
    if decoder.pending() > 0 {
        // Torn tail: a frame was cut mid-wire. Not consumed, not
        // rejected — a resuming client replays it whole.
        shared.metrics.counter("ingest.truncated").inc();
    }
}

/// A read that failed on the idle timeout is an eviction, and counted.
fn count_eviction(shared: &Shared, err: &io::Error) {
    if matches!(err.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
        shared.metrics.counter("live.conns.evicted").inc();
    }
}

/// JSONL-mode connection: the line protocol (records + commands).
/// Returns the attached resume session (if a `hello` arrived) so the
/// caller can sync lanes and publish the final ack.
fn line_reader_loop<R: Read>(
    id: u64,
    mut reader: BufReader<R>,
    out: &mut TcpStream,
    shared: &Shared,
    parser: Arc<dyn LineParser>,
    lanes: &mut ReaderLanes,
) -> Option<SessionCtx> {
    let workers = shared.config.workers;
    let lines_counter = shared.metrics.counter("ingest.lines");
    // Record lines `ingest.lines` has yet to count.
    let mut lines = 0;
    let mut line = String::new();
    let mut rr = id as usize;
    let mut session: Option<SessionCtx> = None;
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Err(e) => {
                count_eviction(shared, &e);
                break;
            }
            Ok(_) => {}
        }
        if session.is_some() && !line.ends_with('\n') {
            // Truncated tail: the connection died mid-line. Under a
            // resume session the partial record is neither consumed nor
            // rejected — the client replays it whole after reconnect.
            shared.metrics.counter("ingest.truncated").inc();
            break;
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if trimmed.starts_with('{') {
            lines += 1;
            if let Some(sc) = session.as_mut() {
                sc.consumed += 1;
            }
            match parser.parse(trimmed) {
                Ok(rec) => lanes.route(rec),
                Err(err) => reject(&lanes.cell, &err),
            }
            // About to block on the socket: hand workers everything
            // parsed so far, so a quiet connection never strands
            // records in a partial batch (snapshots taken while the
            // sender idles must observe them).
            if reader.buffer().is_empty() {
                lines_counter.add(std::mem::take(&mut lines));
                lanes.flush_all();
            }
            continue;
        }
        lines_counter.add(std::mem::take(&mut lines));
        // One parse path for every command line; syntax errors render
        // their reply without touching any server state.
        let reply = match Request::parse(trimmed) {
            Err(err) => Response::Error(err),
            Ok(request) => {
                // State-reporting commands observe everything this
                // connection sent before them; `ping` and `metrics`
                // skip the barrier so they stay responsive even while
                // this connection's own lanes are backed up.
                if request.needs_sync() {
                    lanes.sync();
                }
                match request {
                    Request::Hello { session: sid, .. } => {
                        // Re-hello on a live connection hands the old
                        // session back first so acks stay cumulative.
                        if let Some(prev) = session.take() {
                            end_session(shared, lanes, prev);
                        }
                        match shared.resume.begin(sid) {
                            Some(acked) => {
                                session = Some(SessionCtx { id: sid, consumed: 0 });
                                Response::Acked(acked)
                            }
                            None => Response::SessionBusy,
                        }
                    }
                    Request::Resume { session: sid } => {
                        shared.resume.ack(sid).map_or(Response::SessionBusy, Response::Acked)
                    }
                    Request::Ping => {
                        rr = (rr + 1) % workers;
                        ping(shared, rr)
                    }
                    Request::Snapshot | Request::Stats => {
                        match query_workers(shared, ControlMsg::Snapshot) {
                            None => Response::Draining,
                            Some(per_worker) if request == Request::Snapshot => {
                                Response::Snapshot(shared.stats.snapshot_from(&per_worker, false))
                            }
                            Some(per_worker) => {
                                Response::Stats(per_worker.iter().map(|s| s.line).collect())
                            }
                        }
                    }
                    // The one reply that is written, not built: rows go
                    // from where they lie to the socket.
                    Request::Cells(query) => match serve_cells(shared, &query, out) {
                        Ok(()) => continue,
                        Err(_) => break,
                    },
                    Request::Metrics => {
                        if shared.metrics.is_enabled() {
                            let per_worker = query_workers(shared, ControlMsg::Snapshot);
                            publish(shared, &per_worker.unwrap_or_default());
                        }
                        Response::Metrics(
                            serde_json::to_string(&shared.metrics.snapshot())
                                .expect("metrics serialize"),
                        )
                    }
                    Request::Store => Response::Store(shared.store.as_ref().map(|s| s.stats())),
                    Request::Version => Response::Version,
                    Request::Shutdown => {
                        let snap = drain(shared, id, std::mem::take(lanes));
                        let _ = send(out, &Response::Snapshot(snap));
                        break;
                    }
                    Request::Quit => break,
                }
            }
        };
        if send(out, &reply).is_err() {
            break;
        }
    }
    lines_counter.add(lines);
    // EOF / cut connection: the caller retires the lanes, which flushes
    // whatever is still batched. (After `shutdown`, `lanes` was taken
    // and retirement is a no-op.)
    session
}
