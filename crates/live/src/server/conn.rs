//! Connections: the acceptor thread and the reader thread it spawns per
//! connection. Owns `Shared::conns`.
//!
//! ## Who owns a connection
//!
//! One `Connection` holds what a connection ties up: its slot in
//! `Shared::conns` (the socket, shared with the drain that may cut it),
//! its lanes and stat cell, and its attached resume session. Its `Drop`
//! runs on every exit of the reader thread, a panic included: it hands
//! the session back (lanes synced first), retires the lanes and frees
//! the slot, which closes the socket. A record a panic hit mid-parse
//! counts as consumed, as one `reader_panic` reject.
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
use crate::record::{LineParser, LiveRecord};
use edgeperf_core::EdgeperfError;
use edgeperf_obs::Counter;
use std::io::{self, BufRead, BufReader, Cursor, ErrorKind, Read};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Every open connection's socket, by connection id, and the handles of
/// reader threads not yet seen finished.
#[derive(Default)]
pub(super) struct Conns {
    open: Mutex<Vec<(u64, Arc<TcpStream>)>>,
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

    /// Join every reader thread still running.
    pub(super) fn join_readers(&self) {
        for handle in self.readers.lock().expect("reader handles").drain(..) {
            let _ = handle.join();
        }
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
    for (id, stream) in (0u64..).zip(listener.incoming()) {
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
        let Some(conn) = Connection::open(id, stream, shared) else { continue };
        let parser = Arc::clone(&parser);
        let spawned = std::thread::Builder::new()
            .name(format!("live-reader-{id}"))
            .spawn(move || conn.reader_loop(&*parser));
        match spawned {
            Ok(handle) => {
                let mut readers = conns.readers.lock().expect("reader handles");
                readers.retain(|reader| !reader.is_finished());
                readers.push(handle);
            }
            // Reader spawn failed (EMFILE/EAGAIN): refuse this one
            // connection — the dropped closure drops the connection,
            // which frees its slot — and keep accepting; a transient
            // limit must not kill the acceptor.
            Err(_) => {
                spawn_errors.inc();
                refused.inc();
            }
        }
    }
}

/// Everything one connection holds, released by its `Drop` (see the
/// module docs).
struct Connection {
    id: u64,
    shared: Arc<Shared>,
    /// The socket; `Shared::conns` holds the other reference.
    stream: Arc<TcpStream>,
    lanes: ReaderLanes,
    /// The attached resume session's id, and the records consumed since
    /// it attached.
    session: Option<u64>,
    consumed: u64,
    /// A record is being parsed or decoded: a panic now consumed it.
    in_hand: bool,
    /// `ingest.lines` or `ingest.frames`, and what it has yet to count.
    tally: Counter,
    untallied: u64,
}

impl Connection {
    /// Take a slot in `Shared::conns`, then open lanes to every worker.
    /// `None` once the server is draining (the slot is freed again).
    fn open(id: u64, stream: TcpStream, shared: &Arc<Shared>) -> Option<Connection> {
        let stream = Arc::new(stream);
        shared.conns.open.lock().expect("conns").push((id, Arc::clone(&stream)));
        let mut conn = Connection {
            id,
            shared: Arc::clone(shared),
            stream,
            lanes: ReaderLanes::default(),
            session: None,
            consumed: 0,
            in_hand: false,
            tally: Counter::default(),
            untallied: 0,
        };
        conn.lanes = register_reader(shared)?;
        Some(conn)
    }

    /// The reader thread's body.
    fn reader_loop(mut self, parser: &dyn LineParser) {
        let stream = Arc::clone(&self.stream);
        // Wire negotiation: sniff the first bytes against the binary magic.
        // The comparison is incremental, so a JSONL client's `{` (or any
        // other first byte) commits to line mode after one read — we never
        // wait for 8 bytes that will not come.
        let mut pre = [0u8; PREAMBLE_LEN];
        let mut got = 0usize;
        let mut magic_possible = true;
        while magic_possible && got < PREAMBLE_LEN {
            match (&*stream).read(&mut pre[got..]) {
                Ok(0) => break,
                Ok(n) => {
                    got += n;
                    let cmp = got.min(FRAME_MAGIC.len());
                    magic_possible = pre[..cmp] == FRAME_MAGIC[..cmp];
                }
                Err(_) => return,
            }
        }
        if magic_possible && got == PREAMBLE_LEN {
            self.tally = self.shared.metrics.counter("ingest.frames");
            self.binary_connection(&pre);
        } else {
            // Line mode: hand the already-consumed sniff bytes back to the
            // parser by chaining them in front of the socket.
            self.tally = self.shared.metrics.counter("ingest.lines");
            let reader = BufReader::with_capacity(
                self.shared.config.read_buffer_bytes,
                Cursor::new(pre[..got].to_vec()).chain(&*stream),
            );
            self.line_reader_loop(reader, parser);
        }
    }

    /// Attach session `sid`, waiting (bounded) for its previous owner to
    /// hand it back: the reply to send, `acked` or `session busy`.
    fn attach(&mut self, sid: u64) -> Response {
        let Some(acked) = self.shared.resume.begin(sid) else { return Response::SessionBusy };
        self.session = Some(sid);
        self.consumed = 0;
        Response::Acked(acked)
    }

    /// Hand an attached session back: the ack is published only after
    /// every routed record is applied — the exactly-once guarantee.
    fn hand_back(&mut self) {
        if let Some(sid) = self.session.take() {
            self.lanes.sync();
            self.shared.resume.end(sid, self.consumed);
        }
    }

    /// Count the record in hand as consumed, then route it or count its
    /// reject.
    fn consume(&mut self, parsed: Result<LiveRecord, EdgeperfError>) {
        self.in_hand = false;
        self.consumed += 1;
        match parsed {
            Ok(rec) => self.lanes.route(rec),
            Err(err) => reject(&self.lanes.cell, &err),
        }
    }

    /// A connection that opened with the binary magic: check the
    /// preamble, attach the resume session a hello block announces
    /// (acking the resume point before any frames flow), then decode
    /// length-prefixed frames from a reusable buffer and shard them
    /// exactly like parsed JSONL records. Data-only — the first malformed
    /// frame (or EOF) ends the connection.
    ///
    /// With a resume session, every cleanly decoded frame counts toward
    /// the session's consumed total; a torn frame left pending at EOF is
    /// *not* consumed (counted under `ingest.truncated`), so the client
    /// resends it after reconnecting and nothing is lost or double-counted.
    fn binary_connection(&mut self, pre: &[u8; PREAMBLE_LEN]) {
        let (body_len, hello) = match parse_preamble(pre) {
            Ok(parsed) => parsed,
            Err(err) => return reject(&self.lanes.cell, &err),
        };
        if hello {
            let mut block = [0u8; HELLO_LEN];
            let Ok(()) = (&*self.stream).read_exact(&mut block) else { return };
            let reply = match parse_hello(&block) {
                Ok((sid, _epoch)) => self.attach(sid),
                Err(err) => return reject(&self.lanes.cell, &err),
            };
            if send(&*self.stream, &reply).is_err() || self.session.is_none() {
                return;
            }
        }
        let mut decoder = FrameDecoder::new(body_len, self.shared.config.read_buffer_bytes);
        loop {
            let writable = decoder.writable();
            let writable_len = writable.len();
            let read = (&*self.stream).read(writable);
            // At EOF or on an error this gives the unused spare region back
            // too, so `pending()` below reflects only real (torn-frame) bytes.
            decoder.advance(*read.as_ref().unwrap_or(&0), writable_len);
            match read {
                Ok(0) => break,
                Ok(_) => {}
                Err(e) => {
                    count_eviction(&self.shared, &e);
                    break;
                }
            }
            loop {
                self.in_hand = true;
                match decoder.next_record() {
                    Ok(Some(rec)) => {
                        self.untallied += 1;
                        self.consume(Ok(rec));
                    }
                    Ok(None) => break,
                    Err(err) => return reject(&self.lanes.cell, &err),
                }
            }
            self.in_hand = false;
            self.tally.add(std::mem::take(&mut self.untallied));
            // About to block on the socket: hand workers everything decoded
            // so far (same invariant as the line path — a quiet connection
            // never strands records in a partial batch).
            self.lanes.flush_all();
        }
        if decoder.pending() > 0 {
            // Torn tail: a frame was cut mid-wire. Not consumed, not
            // rejected — a resuming client replays it whole.
            self.shared.metrics.counter("ingest.truncated").inc();
        }
    }

    /// JSONL-mode connection: the line protocol (records + commands).
    fn line_reader_loop<R: Read>(&mut self, mut reader: BufReader<R>, parser: &dyn LineParser) {
        let shared = Arc::clone(&self.shared);
        let mut line = String::new();
        let mut rr = self.id as usize;
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) => break,
                Err(e) => {
                    count_eviction(&shared, &e);
                    break;
                }
                Ok(_) => {}
            }
            if self.session.is_some() && !line.ends_with('\n') {
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
                self.untallied += 1;
                self.in_hand = true;
                let parsed = parser.parse(trimmed);
                self.consume(parsed);
                // About to block on the socket: hand workers everything
                // parsed so far, so a quiet connection never strands
                // records in a partial batch (snapshots taken while the
                // sender idles must observe them).
                if reader.buffer().is_empty() {
                    self.tally.add(std::mem::take(&mut self.untallied));
                    self.lanes.flush_all();
                }
                continue;
            }
            self.tally.add(std::mem::take(&mut self.untallied));
            // One parse path for every command line; syntax errors render
            // their reply without touching any server state.
            let request = Request::parse(trimmed);
            // State-reporting commands observe everything this connection
            // sent before them; `ping` and `metrics` skip the barrier so
            // they stay responsive even while this connection's own lanes
            // are backed up.
            if request.as_ref().is_ok_and(Request::needs_sync) {
                self.lanes.sync();
            }
            let reply = match request {
                Err(err) => Response::Error(err),
                // Re-hello on a live connection hands the old session back
                // first so acks stay cumulative.
                Ok(Request::Hello { session: sid, .. }) => {
                    self.hand_back();
                    self.attach(sid)
                }
                Ok(Request::Resume { session: sid }) => {
                    shared.resume.ack(sid).map_or(Response::SessionBusy, Response::Acked)
                }
                Ok(Request::Ping) => {
                    rr = (rr + 1) % shared.config.workers;
                    ping(&shared, rr)
                }
                Ok(request @ (Request::Snapshot | Request::Stats)) => {
                    match query_workers(&shared, ControlMsg::Snapshot) {
                        None => Response::Draining,
                        Some(per_worker) if request == Request::Snapshot => {
                            Response::Snapshot(shared.stats.snapshot_from(&per_worker, false))
                        }
                        Some(per_worker) => {
                            Response::Stats(per_worker.iter().map(|s| s.line).collect())
                        }
                    }
                }
                // The one reply that is written, not built: rows go from
                // where they lie to the socket.
                Ok(Request::Cells(query)) => match serve_cells(&shared, &query, &*self.stream) {
                    Ok(()) => continue,
                    Err(_) => break,
                },
                Ok(Request::Metrics) => {
                    if shared.metrics.is_enabled() {
                        let per_worker = query_workers(&shared, ControlMsg::Snapshot);
                        publish(&shared, &per_worker.unwrap_or_default());
                    }
                    Response::Metrics(
                        serde_json::to_string(&shared.metrics.snapshot())
                            .expect("metrics serialize"),
                    )
                }
                Ok(Request::Store) => Response::Store(shared.store.as_ref().map(|s| s.stats())),
                Ok(Request::Version) => Response::Version,
                Ok(Request::Shutdown) => {
                    let snap = drain(&shared, self.id, std::mem::take(&mut self.lanes));
                    let _ = send(&*self.stream, &Response::Snapshot(snap));
                    break;
                }
                Ok(Request::Quit) => break,
            };
            if send(&*self.stream, &reply).is_err() {
                break;
            }
        }
    }
}

impl Drop for Connection {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.shared.metrics.counter("live.readers.panicked").inc();
            if self.in_hand {
                self.consume(Err(EdgeperfError::ReaderPanic));
            }
        }
        self.tally.add(self.untallied);
        self.hand_back();
        // After `shutdown` the drain has retired the lanes already and
        // these are empty.
        std::mem::take(&mut self.lanes).retire(&self.shared);
        self.shared.conns.open.lock().expect("conns").retain(|(id, _)| *id != self.id);
    }
}

/// A read that failed on the idle timeout is an eviction, and counted.
fn count_eviction(shared: &Shared, err: &io::Error) {
    if matches!(err.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
        shared.metrics.counter("live.conns.evicted").inc();
    }
}

#[cfg(test)]
mod tests {
    use crate::{LiveClient, LiveConfig, LiveServer};
    use edgeperf_core::EdgeperfError;
    use edgeperf_obs::Metrics;
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// Panics on a `{boom}` record line; every other line is a reject.
    fn parser(line: &str) -> Result<crate::LiveRecord, EdgeperfError> {
        assert_ne!(line, "{boom}", "the reader panics on the marker line");
        Err(EdgeperfError::UnknownDuration)
    }

    /// Poll `done` for up to 5 s.
    fn eventually(what: &str, mut done: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !done() {
            assert!(Instant::now() < deadline, "{what}");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// The acceptor drops the handles of finished readers as it accepts:
    /// fifty connections one after another leave only the last one's.
    #[test]
    fn closed_connections_leave_at_most_one_reader_handle() {
        let config = LiveConfig { workers: 1, ..LiveConfig::default() };
        let server = LiveServer::start(config, Arc::new(parser), Metrics::disabled())
            .expect("server starts");
        let readers = || server.shared.conns.readers.lock().expect("reader handles");
        for _ in 0..50 {
            let mut conn = TcpStream::connect(server.addr()).expect("connects");
            conn.write_all(b"quit\n").expect("quit");
            assert_eq!(conn.read(&mut [0; 8]).expect("EOF"), 0);
            eventually("the reader thread ends", || readers().iter().all(|h| h.is_finished()));
        }
        assert!(readers().len() <= 1, "{} reader handles kept", readers().len());
        server.shutdown_and_join().expect("shutdown");
    }

    /// `max_connections: 1` refuses a second concurrent connection, and
    /// the slot frees however the first one ends: by EOF, and by a reader
    /// panic.
    #[test]
    fn past_the_cap_a_connection_is_refused_until_the_slot_frees() {
        let metrics = Metrics::enabled();
        let config = LiveConfig { workers: 1, max_connections: 1, ..LiveConfig::default() };
        let server =
            LiveServer::start(config, Arc::new(parser), metrics.clone()).expect("server starts");
        let connect = || {
            let mut client = LiveClient::connect(server.addr()).expect("connects");
            client.set_io_timeout(Some(Duration::from_secs(2))).expect("timeout");
            client
        };
        // Connect until a ping is answered: the slot has freed.
        let served = || {
            let deadline = Instant::now() + Duration::from_secs(5);
            loop {
                let mut client = connect();
                if client.ping().is_ok() {
                    return client;
                }
                assert!(Instant::now() < deadline, "the slot never freed");
                std::thread::sleep(Duration::from_millis(2));
            }
        };

        let mut first = connect();
        first.ping().expect("the first connection is served");
        let err = connect().ping().expect_err("a second connection is refused");
        assert_ne!(err.kind(), std::io::ErrorKind::WouldBlock, "closed, not left open: {err}");
        assert_eq!(metrics.snapshot().counters["live.conns.refused"], 1);

        drop(first);
        let mut ended_by_panic = served();
        ended_by_panic.send_line("{boom}").expect("send");
        ended_by_panic.flush().expect("flush");
        let mut last = served();
        assert!(last.shutdown().expect("shutdown").drained);
        let _ = server.join();
        assert_eq!(metrics.snapshot().counters["live.readers.panicked"], 1);
    }
}
