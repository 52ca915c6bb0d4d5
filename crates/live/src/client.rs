//! Blocking client for the live server's line protocol.
//!
//! Used by the load generator, the fleet tier (a coordinator answers the
//! same verbs, so its client is this one), the CI smoke job and the
//! agreement tests; also a reference implementation of the protocol for
//! external tooling. Command lines are produced by [`Request::wire_line`] and
//! replies parsed by the [`crate::protocol`] helpers — the client never
//! hand-rolls wire syntax, so it cannot drift from the server. The rows
//! of a `cells` reply are read through one reused line buffer and
//! `protocol::read_row`, which parses the `WindowCell` a row is; what a
//! row still costs the client is the [`CellLine`] view of it that it
//! returns, relationship `String` included. Data
//! lines are buffered (flushed before any command round-trip) so replay
//! throughput is not bounded by per-line syscalls. An `{"error":…}`
//! reply to a typed verb is an [`io::Error`] carrying the server's line.
//!
//! [`replay_with_resume`] is the exactly-once data path: one resumable
//! connection of either wire over payloads the caller has rendered.

use crate::chaos::{WireChaos, WireFault};
use crate::frame::{encode_frame, hello_block, preamble, preamble_with_hello};
use crate::protocol::{
    parse_acked, parse_cells_header, read_rows, CellLine, CellQuery, LiveSnapshot, Request,
};
use crate::record::LiveRecord;
use crate::store::StoreStats;
use edgeperf_core::splitmix64;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// The one error-reply rule: a reply that is the server's
/// `{"error":…}` line is the caller's error, its text intact — never
/// handed to a parser that would report what the line is missing.
fn checked(reply: String) -> io::Result<String> {
    if reply.starts_with("{\"error\"") {
        return Err(io::Error::other(reply));
    }
    Ok(reply)
}

fn from_json<T: serde::Deserialize>(reply: &str) -> io::Result<T> {
    serde_json::from_str(reply).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// A blocking connection to a [`crate::LiveServer`].
pub struct LiveClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    line: String,
}

impl LiveClient {
    /// Connect to a running server.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<LiveClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = BufWriter::with_capacity(1 << 18, stream.try_clone()?);
        Ok(LiveClient { reader: BufReader::new(stream), writer, line: String::new() })
    }

    /// Enqueue one session record line (buffered; no response).
    pub fn send_line(&mut self, line: &str) -> io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")
    }

    /// Flush buffered record lines to the socket.
    pub fn flush(&mut self) -> io::Result<()> {
        self.writer.flush()
    }

    /// Flush what is buffered, send `line`, and return the reply's first
    /// line exactly as the server wrote it, error replies included.
    fn round_trip(&mut self, line: &str) -> io::Result<String> {
        self.send_line(line)?;
        self.writer.flush()?;
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"));
        }
        Ok(self.line.trim_end().to_string())
    }

    /// Send one command line and return the first line of the reply; an
    /// `{"error":…}` reply is an [`io::Error`] carrying that line. For
    /// verbs this client has no typed method for — the fleet
    /// coordinator's `pops` / `home` / `kill`.
    pub fn request(&mut self, line: &str) -> io::Result<String> {
        checked(self.round_trip(line)?)
    }

    fn typed(&mut self, request: &Request) -> io::Result<String> {
        self.request(&request.wire_line())
    }

    /// Round-trip a `ping` through a worker queue. The elapsed time is
    /// the end-to-end ingest latency: socket + parse + queue wait.
    pub fn ping(&mut self) -> io::Result<Duration> {
        let start = Instant::now();
        let reply = self.typed(&Request::Ping)?;
        if reply != "pong" {
            return Err(io::Error::new(io::ErrorKind::InvalidData, format!("ping: {reply}")));
        }
        Ok(start.elapsed())
    }

    /// Fetch the aggregate server snapshot.
    pub fn snapshot(&mut self) -> io::Result<LiveSnapshot> {
        from_json(&self.typed(&Request::Snapshot)?)
    }

    /// The settle-wait: poll `snapshot` until the server has accounted
    /// for `expected` records — accepted or rejected — and return that
    /// snapshot. Data connections carry no replies, so this is how a
    /// sender learns that everything it flushed has been folded in; a
    /// server still short of `expected` after 30 s is a `TimedOut` error.
    pub fn wait_processed(&mut self, expected: u64) -> io::Result<LiveSnapshot> {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let snap = self.snapshot()?;
            if snap.accepted + snap.rejected >= expected {
                return Ok(snap);
            }
            if Instant::now() > deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!(
                        "server stuck at {}/{expected} processed",
                        snap.accepted + snap.rejected
                    ),
                ));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Fetch every retained closed cell (RAM and, when the server
    /// spills, the on-disk tier too).
    pub fn cells(&mut self) -> io::Result<Vec<CellLine>> {
        self.cells_query(&CellQuery::default())
    }

    /// Fetch the closed cells matching a window-range/group query.
    pub fn cells_query(&mut self, query: &CellQuery) -> io::Result<Vec<CellLine>> {
        let header = self.typed(&Request::Cells(*query))?;
        let count = parse_cells_header(&header)?;
        read_rows(&mut self.reader, count, &mut self.line)
    }

    /// Fetch the tiered window-store statistics. Errors with the
    /// server's reply when no spill directory is configured.
    pub fn store_stats(&mut self) -> io::Result<StoreStats> {
        from_json(&self.typed(&Request::Store)?)
    }

    /// Set read/write deadlines on the underlying socket (`None`
    /// clears them). With deadlines a dead or stalled server surfaces
    /// as a timed-out [`io::Error`] instead of a hung client.
    pub fn set_io_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        let stream = self.reader.get_ref();
        stream.set_read_timeout(timeout)?;
        stream.set_write_timeout(timeout)
    }

    /// Fetch the final ack for a session (`resume <session>`). The
    /// server holds the reply until the session's previous connection
    /// retires, so the returned count is exact, not racing.
    pub(crate) fn resume_ack(&mut self, session: u64) -> io::Result<u64> {
        Ok(parse_acked(&self.typed(&Request::Resume { session })?)?)
    }

    /// Fetch the observability metrics snapshot as raw JSON — the reply
    /// line whatever it says, an error reply included.
    pub fn metrics_json(&mut self) -> io::Result<String> {
        self.round_trip(&Request::Metrics.wire_line())
    }

    /// Fetch the per-worker stats line as raw JSON, passed through like
    /// [`metrics_json`](Self::metrics_json).
    pub fn stats_json(&mut self) -> io::Result<String> {
        self.round_trip(&Request::Stats.wire_line())
    }

    /// Drain the server and return its final snapshot. Close every data
    /// connection first: the drain force-closes other connections, and
    /// any bytes still queued on their sockets are discarded by the OS.
    pub fn shutdown(&mut self) -> io::Result<LiveSnapshot> {
        from_json(&self.typed(&Request::Shutdown)?)
    }
}

/// A data-only binary-mode connection to a [`crate::LiveServer`].
///
/// Sends the [`crate::frame`] preamble on connect and then encodes each
/// record as one length-prefixed frame into a buffered writer. Binary
/// connections carry no commands — pair with a [`LiveClient`] control
/// connection for `snapshot` / `shutdown` round-trips.
pub struct BinarySender {
    out: BufWriter<TcpStream>,
}

impl BinarySender {
    /// Connect and negotiate binary mode.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<BinarySender> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut out = BufWriter::with_capacity(1 << 18, stream);
        out.write_all(&preamble())?;
        Ok(BinarySender { out })
    }

    /// Enqueue one record (buffered; no response).
    pub fn send(&mut self, record: &LiveRecord) -> io::Result<()> {
        self.out.write_all(&encode_frame(record))
    }

    /// Flush buffered frames to the socket.
    pub fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }

    /// Flush and close the connection.
    pub fn finish(mut self) -> io::Result<()> {
        self.out.flush()
    }
}

/// Consecutive no-progress failures [`replay_with_resume`] tolerates
/// before giving up.
const MAX_ATTEMPTS: u32 = 5;
/// The first backoff; it doubles per consecutive failure.
const BASE_BACKOFF: Duration = Duration::from_millis(50);
/// The backoff ceiling.
const MAX_BACKOFF: Duration = Duration::from_secs(2);
/// The read/write deadline on every data connection, so a dead server
/// fails the replay fast instead of hanging it.
const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// The sleep before retry number `attempt` (1-based) of session
/// `session`: exponential from [`BASE_BACKOFF`], capped at
/// [`MAX_BACKOFF`], jittered into [50%, 100%] so synchronized clients fan
/// out. Deterministic in (`session`, `attempt`), so a chaos run replays
/// identically.
fn backoff(attempt: u32, session: u64) -> Duration {
    let exp = BASE_BACKOFF.saturating_mul(1u32 << attempt.saturating_sub(1).min(16));
    let capped = exp.min(MAX_BACKOFF);
    let state = session.wrapping_mul(0xA24B_AED4_963E_E407) ^ u64::from(attempt);
    let jitter = splitmix64(state) % 50; // percent to shave off
    capped.mul_f64(1.0 - jitter as f64 / 100.0)
}

/// Wire format of a data connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireMode {
    /// JSONL record lines (the default wire format).
    Jsonl,
    /// Length-prefixed binary frames ([`crate::frame`]).
    Binary,
}

impl WireMode {
    /// Stable label, as load reports carry it.
    pub fn label(self) -> &'static str {
        match self {
            WireMode::Jsonl => "jsonl",
            WireMode::Binary => "binary",
        }
    }

    /// Parse a `--wire` argument.
    pub fn parse(s: &str) -> Option<WireMode> {
        match s {
            "jsonl" => Some(WireMode::Jsonl),
            "binary" => Some(WireMode::Binary),
            _ => None,
        }
    }
}

/// What a [`replay_with_resume`] run did: how many connections it took,
/// which chaos faults fired, and the final cumulative ack (equal to
/// `total` on success).
#[derive(Debug, Clone, Default, serde::Serialize)]
pub struct ResumeReport {
    /// Records in the input.
    pub total: u64,
    /// Final cumulative server ack.
    pub acked: u64,
    /// Connections opened (first + reconnects).
    pub connections: u32,
    /// Reconnects after the first connection.
    pub reconnects: u32,
    /// Chaos-injected clean disconnects.
    pub injected_disconnects: u32,
    /// Chaos-injected torn (mid-record) cuts.
    pub injected_torn: u32,
    /// Chaos-injected stalls.
    pub injected_stalls: u32,
}

/// One data connection of either wire, its resume session negotiated.
/// What it sends is the wire's own bytes, rendered by the caller.
struct DataConn {
    out: BufWriter<TcpStream>,
}

impl DataConn {
    /// Connect, announce (`session`, `epoch`) the way `wire` does — the
    /// `hello` line, or the preamble's hello flag and the fixed-size
    /// hello block — and read the one `{"acked":N}` line that answers
    /// either before any record flows. Returns the connection and the
    /// record index to resume from.
    fn open<A: ToSocketAddrs>(
        addr: &A,
        wire: WireMode,
        session: u64,
        epoch: u64,
    ) -> io::Result<(DataConn, u64)> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        let mut ack_reader = BufReader::new(stream.try_clone()?);
        let mut out = BufWriter::with_capacity(1 << 18, stream);
        match wire {
            WireMode::Jsonl => writeln!(out, "{}", Request::Hello { session, epoch }.wire_line())?,
            WireMode::Binary => {
                out.write_all(&preamble_with_hello())?;
                out.write_all(&hello_block(session, epoch))?;
            }
        }
        out.flush()?;
        let mut line = String::new();
        if ack_reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed during hello"));
        }
        let acked = parse_acked(&checked(line.trim_end().to_string())?)?;
        Ok((DataConn { out }, acked))
    }

    /// Write the first half of a record's wire bytes and flush — a
    /// deterministic torn tail for chaos runs. The server must leave
    /// the fragment unconsumed so the reconnect replays it whole.
    fn send_torn(&mut self, payload: &[u8]) -> io::Result<()> {
        self.out.write_all(&payload[..payload.len() / 2])?;
        self.out.flush()
    }
}

/// The final ack, fetched on a fresh control connection after the data
/// connection dropped. The server publishes a session's ack only once
/// the owning reader retires (post-sync), and `resume` waits for that —
/// so the generous read deadline here must outlast the server's 10 s
/// hand-off window.
fn ack_after_retire<A: ToSocketAddrs>(addr: &A, session: u64) -> io::Result<u64> {
    let mut control = LiveClient::connect(addr)?;
    control.set_io_timeout(Some(Duration::from_secs(15)))?;
    control.resume_ack(session)
}

/// Replay `payloads` — one record each, already in `wire`'s bytes: a
/// JSONL line with its newline, or an [`encode_frame`] — into a live
/// server with exactly-once resume: every
/// record is applied exactly once even across disconnects, torn
/// frames, stalls and server-side evictions. The ack protocol carries
/// the proof — the server only acks *consumed* records after they are
/// fully applied, and the client always resends from the ack.
///
/// `chaos` injects deterministic client-side wire faults (pass
/// `WireChaos::new(&ChaosPlan::default())` for a fault-free replay).
/// Fault cuts reconnect immediately; genuine errors back off
/// exponentially (50 ms doubling to 2 s, jittered per session and
/// attempt) and give up after 5 consecutive attempts without ack
/// progress. Every data connection has a 5 s read/write deadline.
pub fn replay_with_resume<A: ToSocketAddrs>(
    addr: A,
    session: u64,
    wire: WireMode,
    payloads: &[Vec<u8>],
    chaos: &mut WireChaos,
) -> io::Result<ResumeReport> {
    let total = payloads.len() as u64;
    let mut report = ResumeReport { total, ..ResumeReport::default() };
    let mut epoch: u64 = 0;
    let mut failures: u32 = 0;
    loop {
        if report.connections > 0 {
            report.reconnects += 1;
        }
        report.connections += 1;
        let opened = DataConn::open(&addr, wire, session, epoch);
        epoch = epoch.wrapping_add(1);
        let (mut conn, acked) = match opened {
            Ok(pair) => pair,
            Err(e) => {
                failures += 1;
                if failures > MAX_ATTEMPTS {
                    return Err(e);
                }
                std::thread::sleep(backoff(failures, session));
                continue;
            }
        };
        report.acked = report.acked.max(acked);
        let mut idx = acked;
        let mut chaos_cut = false;
        let sent: io::Result<()> = loop {
            if idx >= total {
                break conn.out.flush();
            }
            match chaos.before_record(idx) {
                Some(WireFault::Disconnect) => {
                    // Clean close at a record boundary: flush complete
                    // records, then drop the connection.
                    report.injected_disconnects += 1;
                    chaos_cut = true;
                    break conn.out.flush();
                }
                Some(WireFault::Torn) => {
                    report.injected_torn += 1;
                    chaos_cut = true;
                    break conn.send_torn(&payloads[idx as usize]);
                }
                Some(WireFault::Stall(pause)) => {
                    report.injected_stalls += 1;
                    let _ = conn.out.flush();
                    std::thread::sleep(pause);
                }
                None => {}
            }
            if let Err(e) = conn.out.write_all(&payloads[idx as usize]) {
                break Err(e);
            }
            idx += 1;
        };
        // Drop the data connection so the server-side reader retires
        // (sync + ack publish), then read the authoritative ack.
        drop(conn);
        let acked_now = match ack_after_retire(&addr, session) {
            Ok(a) => a,
            Err(e) => {
                failures += 1;
                if failures > MAX_ATTEMPTS {
                    return Err(e);
                }
                std::thread::sleep(backoff(failures, session));
                continue;
            }
        };
        let progressed = acked_now > report.acked;
        report.acked = report.acked.max(acked_now);
        if report.acked >= total {
            return Ok(report);
        }
        if chaos_cut || progressed {
            // Intentional cut or real progress: reconnect immediately.
            failures = 0;
        } else {
            failures += 1;
            if failures > MAX_ATTEMPTS {
                return Err(sent.err().unwrap_or_else(|| {
                    io::Error::other(format!("resume stuck at {}/{} records", report.acked, total))
                }));
            }
            std::thread::sleep(backoff(failures, session));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_bounded_and_grows() {
        assert_eq!(backoff(1, 7), backoff(1, 7), "same (session, attempt) must sleep identically");
        for attempt in 1..10u32 {
            let d = backoff(attempt, 7);
            assert!(d <= MAX_BACKOFF, "attempt {attempt}: {d:?} over cap");
            // Jitter shaves at most 50%.
            let floor = BASE_BACKOFF.mul_f64(0.5);
            assert!(d >= floor.min(MAX_BACKOFF.mul_f64(0.5)), "attempt {attempt}: {d:?}");
        }
        // Different sessions de-synchronize the schedule.
        assert_ne!(backoff(3, 1), backoff(3, 2));
    }
}
