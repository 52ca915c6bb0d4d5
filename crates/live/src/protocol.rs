//! The typed, versioned line protocol: one parse/render path shared by
//! the server and the client.
//!
//! PR-5's dispatch matched raw command strings inline in the reader loop
//! and the client re-parsed replies by hand — two copies of the wire
//! format that could (and nearly did) drift. This module owns both
//! directions instead: [`Request::parse`] is the only place command
//! lines are interpreted, [`Request::wire_line`] is the only place they
//! are produced, and [`Response::render`] is the only place replies are
//! formatted. The server and [`crate::client::LiveClient`] both call
//! into here, so a format change is one edit and the golden tests below
//! pin the bytes.
//!
//! ## The row codec
//!
//! A `cells` reply is a header line (`write_cells_header`) and one
//! JSON object per row, and at the wide shape one reply is 32,768 rows.
//! A row is a [`WindowCell`], the form the live tier holds, spills and
//! streams a closed cell in, and it has one hand-written writer and one
//! hand-written reader for its fixed 17 fields — `write_row` /
//! `read_row` — used by the server's streamed replies, by
//! [`Response::render`], by [`crate::client::LiveClient`] and by the
//! fleet tier alike. [`CellLine`] is the client's view of a row: the
//! client converts each row it reads through `From<&WindowCell>`, and
//! [`Response::Cells`] renders each line back through
//! `TryFrom<&CellLine> for WindowCell` and the writer.
//!
//! The writer emits exactly the bytes `serde_json::to_string(&CellLine)`
//! emits (field order, integers below 1e15 as integers, `-0`, shortest
//! round-trip floats, `null` for an absent or non-finite statistic, `u64`
//! counts through the same `f64` rule). The relationship is one of the
//! three labels `Relationship::label` gives, so it needs no escape. The
//! reader accepts exactly the bytes the writer writes — it parses the
//! fields and then checks that writing them back spells the line — so a
//! reordered, truncated or padded row, a number in any other spelling, a
//! prefix length above 32 or another label is a
//! [`ProtocolError::MalformedReply`], never a panic. What it returns
//! equals, to the bit, what `serde_json::from_str::<CellLine>` returns.
//! The golden tests pin the bytes;
//! `prop_row_codec_is_the_serde_derive_byte_for_byte` pins both
//! directions against the derive over every class of `f64` and `u64` the
//! number rule tells apart, and `prop_read_row_accepts_only_what_write_row_writes`
//! feeds the reader damaged and arbitrary bytes.
//!
//! ## Compatibility
//!
//! Protocol version `PROTOCOL_VERSION` = 1 is the PR-5 line protocol,
//! extended compatibly:
//!
//! - Every legacy bare command (`ping`, `snapshot`, `stats`, `cells`,
//!   `metrics`, `shutdown`, `quit`) parses and renders **byte-identical**
//!   replies — proven by `golden_*` tests against literal strings — but
//!   for the row order of a bare `cells` (below).
//! - `cells` now accepts optional `key=value` arguments selecting a
//!   window range and/or group: `cells from=120 until=240 pop=3
//!   prefix=167772160/24 country=7 continent=2`. A bare `cells` is the
//!   full unbounded query. Every `cells` reply, the bare one included,
//!   lists its rows in canonical (window, group, rank) order; the bare
//!   reply of a server without a spill directory used to list them per
//!   worker, window and insertion instead.
//! - New commands: `version` reports the protocol version; `store`
//!   reports tiered-store statistics ([`crate::store::StoreStats`],
//!   which now includes `spill_errors` and `degraded` spill health).
//! - Resume protocol (DESIGN.md §15): `hello SESSION EPOCH` declares a
//!   resumable ingest session before records flow; the server replies
//!   `{"acked":N}` with the cumulative count of records it has durably
//!   consumed for that session, and the client replays from record N.
//!   `resume SESSION` reads the same counter without opening an ingest
//!   epoch (used for the final ack check). Unknown sessions ack 0.
//! - Anything else — including a legacy command trailed by arguments it
//!   does not take — is [`ProtocolError::UnknownCommand`], rendered as
//!   the same `{"error":"unknown command …"}` reply the stringly
//!   dispatch produced.

use crate::record::relationship_from_label;
use crate::store::StoreStats;
use crate::window::{CellKey, CellSummary};
use edgeperf_analysis::{GroupKey, WindowCell};
use edgeperf_routing::{PopId, Prefix};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::io;

/// Version of the line protocol this build speaks (`version` command).
pub(crate) const PROTOCOL_VERSION: u32 = 1;

/// Group predicate of a [`CellQuery`]: every present field must match.
/// The default (all `None`) matches every group.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupFilter {
    /// Serving PoP.
    pub pop: Option<u16>,
    /// Client prefix as (base address, length).
    pub prefix: Option<(u32, u8)>,
    /// Client country id.
    pub country: Option<u16>,
    /// Client continent id.
    pub continent: Option<u8>,
}

impl GroupFilter {
    /// Does `group` satisfy every present field?
    pub fn matches(&self, group: &GroupKey) -> bool {
        self.pop.is_none_or(|p| group.pop.0 == p)
            && self
                .prefix
                .is_none_or(|(base, len)| group.prefix.base == base && group.prefix.len == len)
            && self.country.is_none_or(|c| group.country == c)
            && self.continent.is_none_or(|c| group.continent == c)
    }
}

/// A time-range/group cell query. Window bounds are inclusive; `None`
/// means unbounded on that side. The default selects everything — the
/// bare `cells`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CellQuery {
    /// First window index included.
    pub from_window: Option<u32>,
    /// Last window index included.
    pub until_window: Option<u32>,
    /// Group predicate.
    pub group: GroupFilter,
}

impl CellQuery {
    /// Does window index `window` fall inside the range?
    pub(crate) fn contains_window(&self, window: u32) -> bool {
        self.from_window.is_none_or(|lo| window >= lo)
            && self.until_window.is_none_or(|hi| window <= hi)
    }

    /// Does a cell at (`window`, `group`) satisfy the whole query?
    pub fn matches(&self, window: u32, group: &GroupKey) -> bool {
        self.contains_window(window) && self.group.matches(group)
    }

    fn parse_args(args: &[&str]) -> Result<CellQuery, ProtocolError> {
        let mut q = CellQuery::default();
        for arg in args {
            let (key, value) = arg.split_once('=').ok_or_else(|| ProtocolError::BadArgument {
                command: "cells",
                argument: (*arg).to_string(),
                message: "expected key=value".to_string(),
            })?;
            let bad = |message: String| ProtocolError::BadArgument {
                command: "cells",
                argument: (*arg).to_string(),
                message,
            };
            match key {
                "from" => {
                    q.from_window =
                        Some(value.parse().map_err(|_| bad(format!("bad window index {value}")))?)
                }
                "until" => {
                    q.until_window =
                        Some(value.parse().map_err(|_| bad(format!("bad window index {value}")))?)
                }
                "pop" => {
                    q.group.pop =
                        Some(value.parse().map_err(|_| bad(format!("bad pop id {value}")))?)
                }
                "prefix" => {
                    let (base, len) = value
                        .split_once('/')
                        .ok_or_else(|| bad("expected prefix=BASE/LEN".to_string()))?;
                    let base = base.parse().map_err(|_| bad(format!("bad prefix base {base}")))?;
                    let len = len.parse().map_err(|_| bad(format!("bad prefix length {len}")))?;
                    q.group.prefix = Some((base, len));
                }
                "country" => {
                    q.group.country =
                        Some(value.parse().map_err(|_| bad(format!("bad country id {value}")))?)
                }
                "continent" => {
                    q.group.continent =
                        Some(value.parse().map_err(|_| bad(format!("bad continent id {value}")))?)
                }
                other => return Err(bad(format!("unknown key {other}"))),
            }
        }
        Ok(q)
    }

    fn render_args(&self, out: &mut String) {
        use fmt::Write;
        if let Some(w) = self.from_window {
            write!(out, " from={w}").expect("write to string");
        }
        if let Some(w) = self.until_window {
            write!(out, " until={w}").expect("write to string");
        }
        if let Some(p) = self.group.pop {
            write!(out, " pop={p}").expect("write to string");
        }
        if let Some((base, len)) = self.group.prefix {
            write!(out, " prefix={base}/{len}").expect("write to string");
        }
        if let Some(c) = self.group.country {
            write!(out, " country={c}").expect("write to string");
        }
        if let Some(c) = self.group.continent {
            write!(out, " continent={c}").expect("write to string");
        }
    }
}

/// Every command a client can issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// Control-plane liveness round-trip.
    Ping,
    /// Aggregate [`LiveSnapshot`].
    Snapshot,
    /// Per-worker statistics.
    Stats,
    /// Closed cells matching the query (RAM + spilled segments).
    Cells(CellQuery),
    /// Observability metrics snapshot.
    Metrics,
    /// Tiered window-store statistics.
    Store,
    /// Protocol version handshake.
    Version,
    /// Declare a resumable ingest session: subsequent records on this
    /// connection belong to `session`, replayed at attempt `epoch`. The
    /// reply acks how many records the server already consumed.
    Hello {
        /// Client-chosen session id (stable across reconnects).
        session: u64,
        /// Monotone attempt number (bumped on every reconnect).
        epoch: u64,
    },
    /// Read a session's consumed-record ack without ingesting.
    Resume {
        /// The session id to look up.
        session: u64,
    },
    /// Drain the server and reply with the final snapshot.
    Shutdown,
    /// Close this connection.
    Quit,
}

impl Request {
    /// Parse one non-record protocol line (already trimmed, `{`-free).
    pub fn parse(line: &str) -> Result<Request, ProtocolError> {
        let mut parts = line.split_whitespace();
        let command = parts.next().unwrap_or("");
        let args: Vec<&str> = parts.collect();
        match (command, args.is_empty()) {
            ("ping", true) => Ok(Request::Ping),
            ("snapshot", true) => Ok(Request::Snapshot),
            ("stats", true) => Ok(Request::Stats),
            ("cells", _) => Ok(Request::Cells(CellQuery::parse_args(&args)?)),
            ("metrics", true) => Ok(Request::Metrics),
            ("store", true) => Ok(Request::Store),
            ("version", true) => Ok(Request::Version),
            ("hello", false) if args.len() == 2 => {
                let bad = |argument: &str, what: &str| ProtocolError::BadArgument {
                    command: "hello",
                    argument: argument.to_string(),
                    message: format!("bad {what}"),
                };
                Ok(Request::Hello {
                    session: args[0].parse().map_err(|_| bad(args[0], "session id"))?,
                    epoch: args[1].parse().map_err(|_| bad(args[1], "epoch"))?,
                })
            }
            ("resume", false) if args.len() == 1 => Ok(Request::Resume {
                session: args[0].parse().map_err(|_| ProtocolError::BadArgument {
                    command: "resume",
                    argument: args[0].to_string(),
                    message: "bad session id".to_string(),
                })?,
            }),
            ("shutdown", true) => Ok(Request::Shutdown),
            ("quit", true) => Ok(Request::Quit),
            // Legacy commands trailed by junk fall through here too, and
            // render the exact reply the stringly dispatch gave them.
            _ => Err(ProtocolError::UnknownCommand(line.to_string())),
        }
    }

    /// Render the wire line for this request (no trailing newline).
    /// `Request::parse(&req.wire_line())` round-trips for every request.
    pub fn wire_line(&self) -> String {
        match self {
            Request::Ping => "ping".to_string(),
            Request::Snapshot => "snapshot".to_string(),
            Request::Stats => "stats".to_string(),
            Request::Cells(q) => {
                let mut out = "cells".to_string();
                q.render_args(&mut out);
                out
            }
            Request::Metrics => "metrics".to_string(),
            Request::Store => "store".to_string(),
            Request::Version => "version".to_string(),
            Request::Hello { session, epoch } => format!("hello {session} {epoch}"),
            Request::Resume { session } => format!("resume {session}"),
            Request::Shutdown => "shutdown".to_string(),
            Request::Quit => "quit".to_string(),
        }
    }

    /// Does this request require the read-your-own-writes barrier (sync
    /// lanes before serving) like the legacy `snapshot`/`stats`/`cells`?
    pub(crate) fn needs_sync(&self) -> bool {
        matches!(self, Request::Snapshot | Request::Stats | Request::Cells(_) | Request::Store)
    }
}

/// One row of the `stats` reply.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStatsLine {
    /// Worker index.
    pub worker: u64,
    /// Records this worker folded into windows.
    pub processed: u64,
    /// Records currently queued on the worker's lanes.
    pub queue_depth: u64,
    /// Distinct groups this worker has seen.
    pub groups: u64,
    /// Windows currently open on this worker's ring.
    pub open_windows: u64,
    /// Windows this worker has closed.
    pub windows_closed: u64,
}

/// Aggregate server state, as served by `snapshot` and returned on drain.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LiveSnapshot {
    /// True only for the final snapshot after a clean drain.
    pub drained: bool,
    /// Worker threads.
    pub workers: u64,
    /// Records ingested into windows.
    pub accepted: u64,
    /// Lines rejected (parse errors + late records).
    pub rejected: u64,
    /// Of the rejected, records behind the watermark (`ingest.reject.late`).
    pub late: u64,
    /// Distinct preferred-route user groups observed.
    pub groups: u64,
    /// Windows closed (summarized) so far.
    pub windows_closed: u64,
    /// Windows currently open across workers.
    pub open_windows: u64,
    /// Confident MinRTT degradation events.
    pub events_minrtt: u64,
    /// Confident HDratio degradation events.
    pub events_hdratio: u64,
    /// Degradation episodes opened.
    pub episodes_opened: u64,
    /// Degradation episodes currently open.
    pub episodes_open: u64,
    /// Reject counts by typed reason.
    pub reject_reasons: Vec<ReasonCount>,
    /// MinRTT temporal-class histogram over groups.
    pub classes_minrtt: Vec<ClassCount>,
}

/// One `ingest.reject.<reason>` tally.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReasonCount {
    /// Stable reason label ([`edgeperf_core::EdgeperfError::reason`]).
    pub reason: String,
    /// Rejected lines with this reason.
    pub count: u64,
}

/// One temporal-class tally.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClassCount {
    /// Class label ([`edgeperf_analysis::TemporalClass::label`]).
    pub class: String,
    /// Groups currently in this class.
    pub groups: u64,
}

/// The client's view of one `cells` reply row: a [`WindowCell`]'s
/// fields flattened, with full `f64` round-trip precision (Rust's
/// shortest-round-trip float formatting), so bit-identity can be asserted
/// across the wire. Rows read off the wire and rows built by
/// [`CellLine::new`] both come through `From<&WindowCell>`, so their
/// `relationship` is one of the three labels and their `prefix_len` at
/// most 32.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct CellLine {
    /// Window index.
    pub window: u32,
    /// Serving PoP.
    pub pop: u16,
    /// Client prefix base address.
    pub prefix_base: u32,
    /// Client prefix length.
    pub prefix_len: u8,
    /// Client country id.
    pub country: u16,
    /// Client continent id.
    pub continent: u8,
    /// Route rank (0 = preferred).
    pub rank: u8,
    /// Relationship label (`private` / `public` / `transit`).
    pub relationship: String,
    /// AS path longer than the preferred route's.
    pub longer_path: bool,
    /// More prepended than the preferred route.
    pub more_prepended: bool,
    /// Sessions recorded.
    pub n: u64,
    /// Sessions with an HDratio.
    pub n_tested: u64,
    /// Traffic bytes.
    pub bytes: u64,
    /// Median MinRTT (ms).
    pub min_rtt_p50: f64,
    /// Price–Bonett variance of the MinRTT median.
    pub min_rtt_var: Option<f64>,
    /// Median HDratio.
    pub hdratio_p50: Option<f64>,
    /// Price–Bonett variance of the HDratio median.
    pub hdratio_var: Option<f64>,
}

impl CellLine {
    /// Flatten a closed cell for the wire.
    pub fn new(window: u32, key: &CellKey, s: &CellSummary) -> CellLine {
        CellLine::from(&crate::store::window_cell(window, key, s))
    }

    /// The cell's group key.
    pub fn group(&self) -> GroupKey {
        GroupKey {
            pop: PopId(self.pop),
            prefix: Prefix::new(self.prefix_base, self.prefix_len),
            country: self.country,
            continent: self.continent,
        }
    }
}

impl From<&WindowCell> for CellLine {
    fn from(c: &WindowCell) -> CellLine {
        let group = c.group();
        CellLine {
            window: c.window,
            pop: group.pop.0,
            prefix_base: group.prefix.base,
            prefix_len: group.prefix.len,
            country: group.country,
            continent: group.continent,
            rank: c.rank,
            relationship: c.relationship().label().to_string(),
            longer_path: c.longer_path(),
            more_prepended: c.more_prepended(),
            n: c.n.into(),
            n_tested: c.n_tested.into(),
            bytes: c.bytes,
            min_rtt_p50: c.min_rtt_p50,
            min_rtt_var: c.min_rtt_var(),
            hdratio_p50: c.hdratio_p50(),
            hdratio_var: c.hdratio_var(),
        }
    }
}

/// What a row's relationship must be.
const LABELS: &str = "a relationship label: private, public or transit";

/// What a row's session counts must be.
const COUNTS: &str = "session counts below 2^32";

impl TryFrom<&CellLine> for WindowCell {
    type Error = ProtocolError;

    /// The row a line views, bit for bit. A `relationship` other than
    /// the three labels, or a count past `u32::MAX`, has no row and is
    /// [`ProtocolError::MalformedReply`].
    fn try_from(c: &CellLine) -> Result<WindowCell, ProtocolError> {
        let relationship = relationship_from_label(&c.relationship).map_err(|_| {
            ProtocolError::MalformedReply { expected: LABELS, got: c.relationship.clone() }
        })?;
        let group = GroupKey {
            pop: PopId(c.pop),
            prefix: Prefix { base: c.prefix_base, len: c.prefix_len },
            country: c.country,
            continent: c.continent,
        };
        let summary = CellSummary {
            relationship,
            longer_path: c.longer_path,
            more_prepended: c.more_prepended,
            n: usize::try_from(c.n).expect("64-bit usize"),
            n_tested: usize::try_from(c.n_tested).expect("64-bit usize"),
            bytes: c.bytes,
            min_rtt_p50: c.min_rtt_p50,
            min_rtt_var: c.min_rtt_var,
            hdratio_p50: c.hdratio_p50,
            hdratio_var: c.hdratio_var,
        };
        WindowCell::new(c.window, group, c.rank, &summary).map_err(|_| {
            ProtocolError::MalformedReply {
                expected: COUNTS,
                got: format!("{} of {}", c.n_tested, c.n),
            }
        })
    }
}

/// Canonical cell ordering for merged/filtered replies — the same
/// (window, group, rank) key [`edgeperf_analysis::cell_sort_key`] gives
/// segment rows, so disk- and RAM-sourced cells interleave one way.
/// Public because the fleet tier's global merge sorts (and checks
/// cross-node disjointness) on the very same key.
pub fn cell_line_sort_key(c: &CellLine) -> (u32, u16, u32, u8, u16, u8, u8) {
    (c.window, c.pop, c.prefix_base, c.prefix_len, c.country, c.continent, c.rank)
}

/// Every reply the server can send. [`Response::render`] produces the
/// exact bytes (sans trailing newline); multi-line replies (`cells`)
/// embed interior newlines.
#[derive(Debug, Clone)]
pub enum Response {
    /// `ping` succeeded.
    Pong,
    /// `ping` found no worker (server draining).
    Gone,
    /// Aggregate snapshot.
    Snapshot(LiveSnapshot),
    /// Per-worker statistics.
    Stats(Vec<WorkerStatsLine>),
    /// Cell header + rows, each written as the [`WindowCell`] it views.
    /// Every line a server or a client makes holds one of the three
    /// relationship labels; rendering a hand-built line with another is a
    /// caller bug, and panics naming the label.
    Cells(Vec<CellLine>),
    /// Pre-serialized metrics snapshot JSON.
    Metrics(String),
    /// Tiered store statistics; `None` when spilling is not configured.
    Store(Option<StoreStats>),
    /// Protocol version handshake.
    Version,
    /// Cumulative consumed-record count for a resume session
    /// (`hello`/`resume` reply). Unknown sessions ack 0.
    Acked(u64),
    /// A `hello`/`resume` arrived while another connection still owns
    /// the session and did not retire within the hand-off deadline.
    SessionBusy,
    /// The server is draining and cannot serve state queries.
    Draining,
    /// The tiered store failed to serve the query (I/O or corruption).
    StoreError(String),
    /// The request line did not parse.
    Error(ProtocolError),
}

impl Response {
    /// Render the reply bytes (no trailing newline).
    pub fn render(&self) -> String {
        match self {
            Response::Pong => "pong".to_string(),
            Response::Gone => "gone".to_string(),
            Response::Snapshot(snap) => serde_json::to_string(snap).expect("snapshot serializes"),
            Response::Stats(rows) => {
                let rows: Vec<String> = rows
                    .iter()
                    .map(|s| {
                        format!(
                            "{{\"worker\":{},\"processed\":{},\"queue_depth\":{},\"groups\":{},\
                             \"open_windows\":{},\"windows_closed\":{}}}",
                            s.worker,
                            s.processed,
                            s.queue_depth,
                            s.groups,
                            s.open_windows,
                            s.windows_closed,
                        )
                    })
                    .collect();
                format!("{{\"workers\":[{}]}}", rows.join(","))
            }
            Response::Cells(cells) => render_rows(cells),
            Response::Metrics(json) => json.clone(),
            Response::Store(Some(stats)) => {
                serde_json::to_string(stats).expect("store stats serialize")
            }
            Response::Store(None) => "{\"error\":\"no spill directory configured\"}".to_string(),
            Response::Version => format!("{{\"protocol\":{PROTOCOL_VERSION}}}"),
            Response::Acked(n) => format!("{{\"acked\":{n}}}"),
            Response::SessionBusy => "{\"error\":\"session busy\"}".to_string(),
            Response::Draining => "{\"error\":\"draining\"}".to_string(),
            Response::StoreError(message) => {
                format!("{{\"error\":\"store: {}\"}}", message.replace('"', "'"))
            }
            Response::Error(err) => err.render(),
        }
    }
}

/// Write the `{"cells":N}` header of a `cells` reply (no trailing
/// newline), once the row count is known. [`Response::render`] and the
/// server's streamed replies both write it here, so the two cannot
/// drift; [`parse_cells_header`] is the inverse.
pub(crate) fn write_cells_header(out: &mut impl io::Write, rows: usize) -> io::Result<()> {
    write!(out, "{{\"cells\":{rows}}}")
}

fn render_rows(cells: &[CellLine]) -> String {
    let mut out = Vec::new();
    write_cells_header(&mut out, cells.len()).expect("write to a Vec");
    for cell in cells {
        let row = WindowCell::try_from(cell).unwrap_or_else(|e| panic!("Response::Cells: {e}"));
        out.push(b'\n');
        write_row(&mut out, &row).expect("write to a Vec");
    }
    String::from_utf8(out).expect("a row is UTF-8")
}

/// A JSON number as `serde_json::to_string` prints an `f64` (the rule
/// every numeric field goes through there, integers included): `null`
/// when not finite, an integer below 1e15 as an integer, `-0` and
/// everything else in Rust's shortest round-trip form.
struct Num(f64);

impl fmt::Display for Num {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = self.0;
        if !n.is_finite() {
            f.write_str("null")
        } else if n == n.trunc() && n.abs() < 1e15 && !(n == 0.0 && n.is_sign_negative()) {
            (n as i64).fmt(f)
        } else {
            n.fmt(f)
        }
    }
}

/// An absent statistic is written as a non-finite one is: `null`.
fn opt(n: Option<f64>) -> Num {
    Num(n.unwrap_or(f64::NAN))
}

/// Write one row of a `cells` reply (no newline): exactly the bytes
/// `serde_json::to_string(&CellLine::from(row))` gives, without building
/// the [`CellLine`], its `String` or a `Value` tree. Integer fields
/// narrower than 54 bits print as themselves — what [`Num`] would print
/// for them. The property test below pins the equality; [`read_row`] is
/// the inverse.
pub(crate) fn write_row(out: &mut impl io::Write, row: &WindowCell) -> io::Result<()> {
    let group = row.group();
    write!(
        out,
        "{{\"window\":{},\"pop\":{},\"prefix_base\":{},\"prefix_len\":{},\"country\":{},\
         \"continent\":{},\"rank\":{},\"relationship\":\"{}\",\"longer_path\":{},\
         \"more_prepended\":{},\"n\":{},\"n_tested\":{},\"bytes\":{},\"min_rtt_p50\":{},\
         \"min_rtt_var\":{},\"hdratio_p50\":{},\"hdratio_var\":{}}}",
        row.window,
        group.pop.0,
        group.prefix.base,
        group.prefix.len,
        group.country,
        group.continent,
        row.rank,
        row.relationship().label(),
        row.longer_path(),
        row.more_prepended(),
        Num(row.n.into()),
        Num(row.n_tested.into()),
        Num(row.bytes as f64),
        Num(row.min_rtt_p50),
        opt(row.min_rtt_var()),
        opt(row.hdratio_p50()),
        opt(row.hdratio_var()),
    )
}

const ROW_SHAPE: &str = "a cell row: {\"window\":N,…,\"hdratio_var\":X}";

/// Parse one reply row: the strict inverse of [`write_row`]. It accepts
/// exactly the lines `write_row` writes — the 17 fields in wire order,
/// each spelled as the writer spells it, a prefix length of at most 32
/// and one of the three relationship labels — and returns the row they
/// came from, every `f64` to the bit. Anything else — a count past
/// `u32::MAX` included — is
/// [`ProtocolError::MalformedReply`], never a panic.
pub(crate) fn read_row(line: &str) -> Result<WindowCell, ProtocolError> {
    parse_row(line)
        .ok_or_else(|| ProtocolError::MalformedReply { expected: ROW_SHAPE, got: line.to_string() })
}

fn parse_row(line: &str) -> Option<WindowCell> {
    let rest = &mut &*line;
    let window = field(rest, "{\"window\":")?;
    let group = GroupKey {
        pop: PopId(field(rest, ",\"pop\":")?),
        prefix: Prefix {
            base: field(rest, ",\"prefix_base\":")?,
            len: field(rest, ",\"prefix_len\":").filter(|len| *len <= 32)?,
        },
        country: field(rest, ",\"country\":")?,
        continent: field(rest, ",\"continent\":")?,
    };
    let rank = field(rest, ",\"rank\":")?;
    let label = scalar(rest, ",\"relationship\":")?;
    let summary = CellSummary {
        relationship: relationship_from_label(label.strip_prefix('"')?.strip_suffix('"')?).ok()?,
        longer_path: field(rest, ",\"longer_path\":")?,
        more_prepended: field(rest, ",\"more_prepended\":")?,
        n: usize::try_from(count(rest, ",\"n\":")?).ok()?,
        n_tested: usize::try_from(count(rest, ",\"n_tested\":")?).ok()?,
        bytes: count(rest, ",\"bytes\":")?,
        min_rtt_p50: field(rest, ",\"min_rtt_p50\":")?,
        min_rtt_var: optional(rest, ",\"min_rtt_var\":")?,
        hdratio_p50: optional(rest, ",\"hdratio_p50\":")?,
        hdratio_var: optional(rest, ",\"hdratio_var\":")?,
    };
    let row = WindowCell::new(window, group, rank, &summary).ok()?;
    let mut unwritten = Unwritten(line.as_bytes());
    (write_row(&mut unwritten, &row).is_ok() && unwritten.0.is_empty()).then_some(row)
}

/// Strip `key` off `rest` and take the value after it: the text up to
/// the next `,` or `}`, which stays in `rest`.
fn scalar<'a>(rest: &mut &'a str, key: &str) -> Option<&'a str> {
    let after = rest.strip_prefix(key)?;
    let end = after.bytes().position(|b| b == b',' || b == b'}')?;
    *rest = &after[end..];
    Some(&after[..end])
}

/// The value after `key`, parsed as its type parses. Another spelling of
/// the same value (`+1`, `01`, `1.0`) gets past the parse, not past the
/// check [`parse_row`] ends with.
fn field<T: std::str::FromStr>(rest: &mut &str, key: &str) -> Option<T> {
    scalar(rest, key)?.parse().ok()
}

/// A `u64` count, written through the `f64` rule (so `u64::MAX` reads
/// back from `18446744073709552000`).
fn count(rest: &mut &str, key: &str) -> Option<u64> {
    field::<f64>(rest, key).map(|n| n as u64)
}

fn optional(rest: &mut &str, key: &str) -> Option<Option<f64>> {
    match scalar(rest, key)? {
        "null" => Some(None),
        token => token.parse().ok().map(Some),
    }
}

/// An `io::Write` that takes only the bytes it still holds, in order:
/// what a parsed row must write back to be the line it was parsed from.
struct Unwritten<'a>(&'a [u8]);

impl io::Write for Unwritten<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0 = self.0.strip_prefix(buf).ok_or(io::ErrorKind::InvalidData)?;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Rows preallocated from a reply header before rows actually arrive.
/// The header is untrusted input: a malformed or hostile count must not
/// translate into an unbounded upfront allocation.
const MAX_PREALLOC_ROWS: usize = 1 << 16;

/// Read the `count` rows that follow a `cells` header, each
/// through `line` (one buffer for the whole reply) and [`read_row`].
/// Every row ends in a newline: a reply cut off before its count — a
/// server closes the connection when a store read fails after the header
/// — is `UnexpectedEof`, a torn last row included.
pub(crate) fn read_rows(
    reader: &mut impl io::BufRead,
    count: usize,
    line: &mut String,
) -> io::Result<Vec<CellLine>> {
    let mut rows = Vec::with_capacity(count.min(MAX_PREALLOC_ROWS));
    for _ in 0..count {
        line.clear();
        if reader.read_line(line)? == 0 || !line.ends_with('\n') {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "reply ended mid-rows"));
        }
        rows.push(CellLine::from(&read_row(line.trim_end())?));
    }
    Ok(rows)
}

/// Parse the `{"cells":N}` header of a `cells` reply. The client used to
/// hand-roll this (and fell into a panicky allocation path on garbage);
/// now both sides share one strict parser with a typed error.
pub fn parse_cells_header(header: &str) -> Result<usize, ProtocolError> {
    header
        .strip_prefix("{\"cells\":")
        .and_then(|s| s.strip_suffix('}'))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| ProtocolError::MalformedReply {
            expected: "{\"cells\":N}",
            got: header.to_string(),
        })
}

/// Parse the `{"acked":N}` reply to `hello`/`resume` (client side).
pub(crate) fn parse_acked(line: &str) -> Result<u64, ProtocolError> {
    line.strip_prefix("{\"acked\":")
        .and_then(|s| s.strip_suffix('}'))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| ProtocolError::MalformedReply {
            expected: "{\"acked\":N}",
            got: line.to_string(),
        })
}

/// What went wrong with a protocol line (either direction).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The command word (or its argument shape) is not in the protocol.
    UnknownCommand(String),
    /// A recognized command carried an argument it cannot accept.
    BadArgument {
        /// The command being parsed.
        command: &'static str,
        /// The offending `key=value` token.
        argument: String,
        /// Why it was rejected.
        message: String,
    },
    /// A reply did not have the shape the protocol promises (client side).
    MalformedReply {
        /// The shape that was expected.
        expected: &'static str,
        /// The line actually received.
        got: String,
    },
}

impl ProtocolError {
    /// Render the server's error reply for this parse failure.
    /// Unknown commands keep the legacy `{"error":"unknown command …"}`
    /// bytes (with `"` flattened to `'`, as before).
    pub fn render(&self) -> String {
        match self {
            ProtocolError::UnknownCommand(line) => {
                format!("{{\"error\":\"unknown command {}\"}}", line.replace('"', "'"))
            }
            ProtocolError::BadArgument { command, argument, message } => format!(
                "{{\"error\":\"{command}: {}: {}\"}}",
                argument.replace('"', "'"),
                message.replace('"', "'")
            ),
            ProtocolError::MalformedReply { expected, got } => {
                format!(
                    "{{\"error\":\"malformed reply (expected {expected}): {}\"}}",
                    got.replace('"', "'")
                )
            }
        }
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::UnknownCommand(line) => write!(f, "unknown command {line}"),
            ProtocolError::BadArgument { command, argument, message } => {
                write!(f, "{command}: bad argument {argument}: {message}")
            }
            ProtocolError::MalformedReply { expected, got } => {
                write!(f, "malformed reply (expected {expected}): {got}")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<ProtocolError> for std::io::Error {
    fn from(err: ProtocolError) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, err.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legacy_bare_commands_parse() {
        assert_eq!(Request::parse("ping"), Ok(Request::Ping));
        assert_eq!(Request::parse("snapshot"), Ok(Request::Snapshot));
        assert_eq!(Request::parse("stats"), Ok(Request::Stats));
        assert_eq!(Request::parse("cells"), Ok(Request::Cells(CellQuery::default())));
        assert_eq!(Request::parse("metrics"), Ok(Request::Metrics));
        assert_eq!(Request::parse("shutdown"), Ok(Request::Shutdown));
        assert_eq!(Request::parse("quit"), Ok(Request::Quit));
        assert_eq!(Request::parse("store"), Ok(Request::Store));
        assert_eq!(Request::parse("version"), Ok(Request::Version));
    }

    #[test]
    fn resume_commands_parse_and_reject_bad_arguments() {
        assert_eq!(
            Request::parse("hello 12345 3"),
            Ok(Request::Hello { session: 12_345, epoch: 3 })
        );
        assert_eq!(Request::parse("resume 12345"), Ok(Request::Resume { session: 12_345 }));
        for line in ["hello 1 x", "hello x 1", "resume x", "resume -1"] {
            match Request::parse(line) {
                Err(ProtocolError::BadArgument { .. }) => {}
                other => panic!("{line}: expected BadArgument, got {other:?}"),
            }
        }
        // Wrong arity is an unknown command, like every other legacy
        // command trailed by the wrong argument shape.
        for line in ["hello", "hello 1", "hello 1 2 3", "resume", "resume 1 2"] {
            assert_eq!(
                Request::parse(line),
                Err(ProtocolError::UnknownCommand(line.to_string())),
                "{line}"
            );
        }
    }

    #[test]
    fn cells_arguments_parse_and_roundtrip() {
        let q = match Request::parse(
            "cells from=120 until=240 pop=3 prefix=167772160/24 country=7 continent=2",
        )
        .expect("parses")
        {
            Request::Cells(q) => q,
            other => panic!("expected cells, got {other:?}"),
        };
        assert_eq!(q.from_window, Some(120));
        assert_eq!(q.until_window, Some(240));
        assert_eq!(q.group.pop, Some(3));
        assert_eq!(q.group.prefix, Some((167_772_160, 24)));
        assert_eq!(q.group.country, Some(7));
        assert_eq!(q.group.continent, Some(2));
        // render → parse is the identity.
        let line = Request::Cells(q).wire_line();
        assert_eq!(Request::parse(&line), Ok(Request::Cells(q)));
        // Every request round-trips through its own wire line.
        for req in [
            Request::Ping,
            Request::Snapshot,
            Request::Stats,
            Request::Cells(CellQuery::default()),
            Request::Metrics,
            Request::Store,
            Request::Version,
            Request::Hello { session: 7, epoch: 0 },
            Request::Resume { session: u64::MAX },
            Request::Shutdown,
            Request::Quit,
        ] {
            assert_eq!(Request::parse(&req.wire_line()), Ok(req));
        }
    }

    #[test]
    fn bad_cells_arguments_are_typed() {
        for line in [
            "cells from=abc",
            "cells nonsense",
            "cells prefix=10.0.0.0",
            "cells color=red",
            "cells until=-3",
        ] {
            match Request::parse(line) {
                Err(ProtocolError::BadArgument { command: "cells", .. }) => {}
                other => panic!("{line}: expected BadArgument, got {other:?}"),
            }
        }
        // Legacy commands trailed by junk are unknown, like the stringly
        // dispatch treated them.
        assert_eq!(
            Request::parse("snapshot now"),
            Err(ProtocolError::UnknownCommand("snapshot now".to_string()))
        );
    }

    #[test]
    fn query_matching_honours_range_and_group() {
        let q = match Request::parse("cells from=2 until=4 pop=1").expect("parses") {
            Request::Cells(q) => q,
            other => panic!("{other:?}"),
        };
        let g1 = GroupKey {
            pop: edgeperf_routing::PopId(1),
            prefix: edgeperf_routing::Prefix::new(0x0A00_0000, 24),
            country: 7,
            continent: 2,
        };
        let g2 = GroupKey { pop: edgeperf_routing::PopId(2), ..g1 };
        assert!(q.matches(2, &g1) && q.matches(4, &g1));
        assert!(!q.matches(1, &g1) && !q.matches(5, &g1));
        assert!(!q.matches(3, &g2));
        assert!(CellQuery::default().matches(0, &g2));
        assert!(CellQuery::default().matches(u32::MAX, &g1));
    }

    /// The legacy replies, pinned byte for byte. These strings are the
    /// wire contract of protocol version 1 — if one of these assertions
    /// fails, existing clients break.
    #[test]
    fn golden_simple_replies() {
        assert_eq!(Response::Pong.render(), "pong");
        assert_eq!(Response::Gone.render(), "gone");
        assert_eq!(Response::Draining.render(), "{\"error\":\"draining\"}");
        assert_eq!(
            Response::Error(ProtocolError::UnknownCommand("bogus \"x\"".to_string())).render(),
            "{\"error\":\"unknown command bogus 'x'\"}"
        );
        assert_eq!(Response::Version.render(), "{\"protocol\":1}");
        assert_eq!(
            Response::Metrics("{\"counters\":{}}".to_string()).render(),
            "{\"counters\":{}}"
        );
        assert_eq!(Response::Acked(0).render(), "{\"acked\":0}");
        assert_eq!(Response::Acked(99_000).render(), "{\"acked\":99000}");
    }

    /// The `store` reply including the degraded-mode health fields,
    /// pinned byte for byte alongside the legacy goldens.
    #[test]
    fn golden_store_reply_carries_spill_health() {
        let stats = StoreStats {
            segments: 2,
            cells: 26,
            bytes: 2_048,
            from_window: Some(3),
            until_window: Some(4),
            spilled_windows: 2,
            spilled_cells: 26,
            compactions: 0,
            spill_errors: 5,
            degraded: true,
            query_groups_read: 7,
            query_bytes_read: 1_900,
            query_rows_examined: 24,
            query_rows_returned: 3,
        };
        assert_eq!(
            Response::Store(Some(stats)).render(),
            "{\"segments\":2,\"cells\":26,\"bytes\":2048,\"from_window\":3,\"until_window\":4,\
             \"spilled_windows\":2,\"spilled_cells\":26,\"compactions\":0,\"spill_errors\":5,\
             \"degraded\":true,\"query_groups_read\":7,\"query_bytes_read\":1900,\
             \"query_rows_examined\":24,\"query_rows_returned\":3}"
        );
        assert_eq!(Response::Store(None).render(), "{\"error\":\"no spill directory configured\"}");
    }

    #[test]
    fn acked_header_parses_strictly() {
        assert_eq!(parse_acked("{\"acked\":17}"), Ok(17));
        assert_eq!(parse_acked("{\"acked\":0}"), Ok(0));
        for bad in ["{\"acked\":}", "{\"acked\":-1}", "acked 17", "{\"ack\":17}", "", "pong"] {
            assert!(parse_acked(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn golden_stats_reply() {
        let rows = vec![
            WorkerStatsLine {
                worker: 0,
                processed: 100,
                queue_depth: 3,
                groups: 7,
                open_windows: 2,
                windows_closed: 9,
            },
            WorkerStatsLine {
                worker: 1,
                processed: 50,
                queue_depth: 0,
                groups: 4,
                open_windows: 1,
                windows_closed: 5,
            },
        ];
        assert_eq!(
            Response::Stats(rows).render(),
            "{\"workers\":[\
             {\"worker\":0,\"processed\":100,\"queue_depth\":3,\"groups\":7,\"open_windows\":2,\"windows_closed\":9},\
             {\"worker\":1,\"processed\":50,\"queue_depth\":0,\"groups\":4,\"open_windows\":1,\"windows_closed\":5}\
             ]}"
        );
    }

    #[test]
    fn golden_cells_reply_and_header() {
        assert_eq!(Response::Cells(Vec::new()).render(), "{\"cells\":0}");
        let cell = CellLine {
            window: 3,
            pop: 1,
            prefix_base: 167_772_160,
            prefix_len: 24,
            country: 7,
            continent: 2,
            rank: 0,
            relationship: "private".to_string(),
            longer_path: false,
            more_prepended: false,
            n: 10,
            n_tested: 8,
            bytes: 1_000,
            min_rtt_p50: 42.5,
            min_rtt_var: Some(0.25),
            hdratio_p50: None,
            hdratio_var: None,
        };
        let rendered = Response::Cells(vec![cell.clone()]).render();
        let mut lines = rendered.lines();
        assert_eq!(lines.next(), Some("{\"cells\":1}"));
        let row = lines.next().expect("one row");
        assert_eq!(lines.next(), None);
        let back: CellLine = serde_json::from_str(row).expect("row parses");
        assert_eq!(back, cell);
        // Header parser: the strict shared path both sides use.
        assert_eq!(parse_cells_header("{\"cells\":17}"), Ok(17));
        for bad in ["{\"cells\":}", "{\"cells\":-1}", "cells 17", "{\"cell\":17}", ""] {
            assert!(parse_cells_header(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn golden_snapshot_reply_matches_serde() {
        let snap = LiveSnapshot { workers: 4, accepted: 10, ..LiveSnapshot::default() };
        assert_eq!(
            Response::Snapshot(snap.clone()).render(),
            serde_json::to_string(&snap).unwrap()
        );
    }

    /// One `f64` of each class the number rule tells apart, or any bit
    /// pattern at all.
    fn float(class: u8, bits: u64) -> f64 {
        let two_53 = 9_007_199_254_740_992.0;
        match class % 16 {
            0 => 0.0,
            1 => -0.0,
            2 => f64::from_bits(bits >> 12),            // subnormal
            3 => (bits % 1_000_000_000_000_000) as f64, // integral below 1e15
            4 => -((bits % 1_000_000_000_000_000) as f64),
            5 => 1e15,
            6 => 1e15 + (bits >> 24) as f64, // integral at or above 1e15
            7 => two_53 - 1.0,
            8 => two_53,
            9 => two_53 + 2.0,
            10 => f64::NAN,
            11 => f64::INFINITY,
            12 => f64::NEG_INFINITY,
            13 => (bits >> 11) as f64 / two_53, // [0, 1)
            _ => f64::from_bits(bits),
        }
    }

    /// A `u64` at each edge of the `f64` rule it is written through.
    /// A session count a row holds: its edges, and anything between.
    fn sessions(class: u8, bits: u64) -> usize {
        let n = match class % 4 {
            0 => 0,
            1 => u32::MAX,
            2 => u32::MAX - 1,
            _ => u32::try_from(bits >> 32).expect("32 bits"),
        };
        usize::try_from(n).expect("64-bit usize")
    }

    /// A session count past a row's `u32` is no row, through either
    /// reader: `read_row` on the bytes, `TryFrom` on the client's view.
    #[test]
    fn a_count_past_u32_is_a_malformed_row() {
        use edgeperf_routing::{PopId, Prefix, Relationship};
        let group =
            GroupKey { pop: PopId(7), prefix: Prefix::new(10 << 24, 8), country: 3, continent: 1 };
        let summary = CellSummary {
            relationship: Relationship::Transit,
            longer_path: false,
            more_prepended: false,
            n: u32::MAX as usize,
            n_tested: 5,
            bytes: 1,
            min_rtt_p50: 20.0,
            min_rtt_var: None,
            hdratio_p50: None,
            hdratio_var: None,
        };
        let row = WindowCell::new(3, group, 0, &summary).expect("u32::MAX is a count");
        let written = written(&row);
        assert_eq!(read_row(&written).map(|r| r.n), Ok(u32::MAX));
        let past = written.replace("\"n\":4294967295,", "\"n\":4294967296,");
        assert_ne!(past, written);
        assert!(matches!(read_row(&past), Err(ProtocolError::MalformedReply { .. })), "{past}");
        for line in [
            CellLine { n: 1 << 32, ..CellLine::from(&row) },
            CellLine { n_tested: 1 << 32, ..CellLine::from(&row) },
        ] {
            let err = WindowCell::try_from(&line).expect_err("past u32");
            assert!(matches!(err, ProtocolError::MalformedReply { .. }), "{err:?}");
        }
    }

    fn count(class: u8, bits: u64) -> u64 {
        match class % 8 {
            0 => 0,
            1 => 999_999_999_999_999,
            2 => 1_000_000_000_000_000,
            3 => (1 << 53) - 1,
            4 => 1 << 53,
            5 => (1 << 53) + 1,
            6 => u64::MAX,
            _ => bits,
        }
    }

    fn bits(c: &CellLine) -> impl PartialEq + fmt::Debug {
        let opt = |v: Option<f64>| v.map(f64::to_bits);
        (
            (c.window, c.pop, c.prefix_base, c.prefix_len, c.country, c.continent, c.rank),
            (c.relationship.clone(), c.longer_path, c.more_prepended, c.n, c.n_tested, c.bytes),
            (c.min_rtt_p50.to_bits(), opt(c.min_rtt_var), opt(c.hdratio_p50), opt(c.hdratio_var)),
        )
    }

    fn written(row: &WindowCell) -> String {
        let mut out = Vec::new();
        write_row(&mut out, row).expect("writes to a Vec");
        String::from_utf8(out).expect("utf-8")
    }

    fn malformed(line: &str) -> bool {
        matches!(read_row(line), Err(ProtocolError::MalformedReply { .. }))
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// The hand-written row codec against the derive it replaces:
        /// the writer's bytes are `serde_json::to_string`'s, the reader's
        /// fields are `serde_json::from_str`'s to the bit (both refuse a
        /// row whose `min_rtt_p50` was not finite), and no damaged row
        /// gets through or panics.
        #[test]
        fn prop_row_codec_is_the_serde_derive_byte_for_byte(
            key in (
                proptest::any::<u32>(),
                proptest::any::<u16>(),
                proptest::any::<u32>(),
                proptest::any::<u8>(),
                proptest::any::<u16>(),
                proptest::any::<u8>(),
                proptest::any::<u8>(),
            ),
            flags in (0u8..3, proptest::any::<bool>(), proptest::any::<bool>(), 0u8..8),
            classes in (
                proptest::any::<u8>(),
                proptest::any::<u8>(),
                proptest::any::<u8>(),
                proptest::any::<u8>(),
                proptest::any::<u8>(),
                proptest::any::<u8>(),
                proptest::any::<u8>(),
            ),
            raw in (
                proptest::any::<u64>(),
                proptest::any::<u64>(),
                proptest::any::<u64>(),
                proptest::any::<u64>(),
                proptest::any::<u64>(),
                proptest::any::<u64>(),
                proptest::any::<u64>(),
            ),
        ) {
            use edgeperf_routing::{PopId, Prefix, Relationship};
            use proptest::prelude::*;
            let (window, pop, base, len, country, continent, rank) = key;
            let (relationship, longer_path, more_prepended, present) = flags;
            let group = GroupKey { pop: PopId(pop), prefix: Prefix { base, len }, country, continent };
            let summary = CellSummary {
                relationship: [
                    Relationship::PrivatePeer,
                    Relationship::PublicPeer,
                    Relationship::Transit,
                ][usize::from(relationship)],
                longer_path,
                more_prepended,
                n: sessions(classes.0, raw.0),
                n_tested: sessions(classes.1, raw.1),
                bytes: count(classes.2, raw.2),
                min_rtt_p50: float(classes.3, raw.3),
                min_rtt_var: (present & 1 != 0).then(|| float(classes.4, raw.4)),
                hdratio_p50: (present & 2 != 0).then(|| float(classes.5, raw.5)),
                hdratio_var: (present & 4 != 0).then(|| float(classes.6, raw.6)),
            };
            let row = WindowCell::new(window, group, rank, &summary).expect("u32 counts");
            let line = CellLine::from(&row);
            let written = written(&row);
            prop_assert_eq!(&written, &serde_json::to_string(&line).expect("serializes"));
            prop_assert_eq!(
                Response::Cells(vec![line]).render(),
                format!("{{\"cells\":1}}\n{written}")
            );
            // The derive reads a prefix length above 32 too; no server
            // writes one, and the reader refuses it.
            match (read_row(&written), serde_json::from_str::<CellLine>(&written)) {
                (Ok(ours), Ok(serde)) => {
                    prop_assert!(len <= 32, "{written}");
                    prop_assert_eq!(bits(&CellLine::from(&ours)), bits(&serde))
                }
                (Err(ProtocolError::MalformedReply { .. }), Err(_)) => {
                    prop_assert!(!row.min_rtt_p50.is_finite(), "{written}")
                }
                (Err(ProtocolError::MalformedReply { .. }), Ok(_)) => {
                    prop_assert!(len > 32, "{written}")
                }
                (ours, serde) => panic!("{written}: read_row {ours:?}, serde {serde:?}"),
            }
            // Damage: every proper prefix, trailing bytes, two fields in
            // the other order (still the same JSON object to serde).
            for cut in 0..written.len() {
                prop_assert!(malformed(&written[..cut]), "cut at {cut}: {written}");
            }
            for tail in [" ", "}", ",", "\n", ",\"x\":1}"] {
                prop_assert!(malformed(&format!("{written}{tail}")), "{written}{tail}");
            }
            let head = format!("{{\"window\":{window},\"pop\":{pop},");
            let swapped = format!("{{\"pop\":{pop},\"window\":{window},");
            prop_assert!(written.starts_with(&head));
            prop_assert!(malformed(&written.replacen(&head, &swapped, 1)));
        }
    }

    /// What a fuzzed row must be if `read_row` takes it: one whose
    /// `group()` holds, with one of the three labels, and which writes
    /// back to exactly the bytes it was read from.
    fn only_its_own_writing(line: &str) {
        if let Ok(row) = read_row(line) {
            let view = CellLine::from(&row);
            assert!(view.prefix_len <= 32, "{line}");
            assert_eq!(view.group().prefix.len, view.prefix_len);
            assert!(["private", "public", "transit"].contains(&&*view.relationship), "{line}");
            assert_eq!(written(&row), line);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// `read_row` against arbitrary bytes (bare and behind a row's
        /// first key), and against every truncation and every one-byte
        /// edit of a valid row: it never panics, and takes only what
        /// [`only_its_own_writing`] allows.
        #[test]
        fn prop_read_row_accepts_only_what_write_row_writes(
            noise in proptest::prop::collection::vec(proptest::any::<u8>(), 0..300),
            key in (proptest::any::<u32>(), proptest::any::<u32>(), 0u8..=32, proptest::any::<u8>()),
            classes in (proptest::any::<u8>(), proptest::any::<u8>(), proptest::any::<u8>()),
            raw in (proptest::any::<u64>(), proptest::any::<u64>(), proptest::any::<u64>()),
            edit in proptest::prop::sample::select(b"0123456789-+.eE\"nul,:{}x \\".to_vec()),
        ) {
            use edgeperf_routing::{PopId, Prefix, Relationship};
            let noise = String::from_utf8_lossy(&noise);
            only_its_own_writing(&noise);
            only_its_own_writing(&format!("{{\"window\":{noise}"));
            let (window, base, len, flags) = key;
            let group = GroupKey { pop: PopId(7), prefix: Prefix { base, len }, country: 3, continent: 1 };
            let summary = CellSummary {
                relationship: [
                    Relationship::PrivatePeer,
                    Relationship::PublicPeer,
                    Relationship::Transit,
                ][usize::from(flags % 3)],
                longer_path: flags & 4 != 0,
                more_prepended: flags & 8 != 0,
                n: sessions(classes.0, raw.0),
                n_tested: sessions(flags, raw.0 >> (flags & 31)),
                bytes: count(classes.1, raw.1),
                min_rtt_p50: float(classes.2, raw.2),
                min_rtt_var: (flags & 16 != 0).then(|| float(classes.1, raw.1)),
                hdratio_p50: (flags & 32 != 0).then(|| float(classes.0, raw.2)),
                hdratio_var: (flags & 64 != 0).then(|| float(classes.2, raw.0)),
            };
            let row = WindowCell::new(window, group, flags >> 4, &summary).expect("u32 counts");
            let valid = written(&row);
            for cut in 0..=valid.len() {
                only_its_own_writing(&valid[..cut]);
            }
            for at in 0..valid.len() {
                let mut edited = valid.clone().into_bytes();
                edited[at] = edit;
                only_its_own_writing(std::str::from_utf8(&edited).expect("ASCII"));
            }
        }
    }

    /// A row no server writes is refused, whatever serde would make of
    /// it: a prefix length above 32 (whose `group()` would panic),
    /// another relationship label, and a value in another spelling than
    /// the writer's.
    #[test]
    fn read_row_refuses_rows_no_server_writes() {
        let row = CellLine {
            window: 3,
            pop: 1,
            prefix_base: 167_772_160,
            prefix_len: 24,
            country: 7,
            continent: 2,
            rank: 0,
            relationship: "transit".to_string(),
            longer_path: false,
            more_prepended: true,
            n: 10,
            n_tested: 8,
            bytes: 1_000,
            min_rtt_p50: 42.5,
            min_rtt_var: Some(0.25),
            hdratio_p50: None,
            hdratio_var: Some(-0.0),
        };
        let line = Response::Cells(vec![row.clone()]).render().lines().nth(1).unwrap().to_string();
        assert_eq!(read_row(&line).map(|r| CellLine::from(&r)), Ok(row));
        for (from, to) in [
            ("\"prefix_len\":24", "\"prefix_len\":33"),
            ("\"prefix_len\":24", "\"prefix_len\":255"),
            ("\"transit\"", "\"Transit\""),
            ("\"transit\"", "\"peer\""),
            ("\"transit\"", "\"transit \""),
            ("\"transit\"", "\"tr\\u0061nsit\""),
            ("\"window\":3", "\"window\":03"),
            ("\"window\":3", "\"window\":+3"),
            ("\"n\":10", "\"n\":10.0"),
            ("\"n\":10", "\"n\":1e1"),
            ("\"min_rtt_p50\":42.5", "\"min_rtt_p50\":42.50"),
            ("\"min_rtt_p50\":42.5", "\"min_rtt_p50\":4.25e1"),
            ("\"min_rtt_p50\":42.5", "\"min_rtt_p50\":inf"),
            ("\"hdratio_var\":-0", "\"hdratio_var\":-0.0"),
            ("\"hdratio_var\":-0", "\"hdratio_var\":NaN"),
            ("\"longer_path\":false", "\"longer_path\":0"),
        ] {
            let bad = line.replacen(from, to, 1);
            assert_ne!(bad, line, "{from}");
            assert!(malformed(&bad), "{bad}");
        }
        // The derive would take the first three; the client never does.
        let len_33 = line.replacen("\"prefix_len\":24", "\"prefix_len\":33", 1);
        assert!(serde_json::from_str::<CellLine>(&len_33).is_ok());
    }

    /// A hand-built line whose relationship is no label has no row.
    #[test]
    #[should_panic(expected = "Response::Cells: malformed reply (expected a relationship label")]
    fn rendering_a_line_with_another_label_panics_and_names_it() {
        let group = GroupKey {
            pop: edgeperf_routing::PopId(1),
            prefix: edgeperf_routing::Prefix::new(0x0A00_0000, 24),
            country: 7,
            continent: 2,
        };
        let summary = CellSummary {
            n: 1,
            n_tested: 0,
            bytes: 1,
            min_rtt_p50: 1.0,
            min_rtt_var: None,
            hdratio_p50: None,
            hdratio_var: None,
            relationship: edgeperf_routing::Relationship::PrivatePeer,
            longer_path: false,
            more_prepended: false,
        };
        let line = CellLine::new(0, &(group, 0), &summary);
        Response::Cells(vec![CellLine { relationship: "q\"uoted".to_string(), ..line }]).render();
    }

    #[test]
    fn rows_are_read_through_one_buffer_until_the_count_or_the_stream_ends() {
        let group = GroupKey {
            pop: edgeperf_routing::PopId(2),
            prefix: edgeperf_routing::Prefix::new(0x0A00_0000, 24),
            country: 3,
            continent: 4,
        };
        let cell = CellLine::new(
            1,
            &(group, 0),
            &CellSummary {
                n: 31,
                n_tested: 30,
                bytes: 77,
                min_rtt_p50: 12.5,
                min_rtt_var: None,
                hdratio_p50: Some(0.5),
                hdratio_var: Some(1e-7),
                relationship: edgeperf_routing::Relationship::PublicPeer,
                longer_path: true,
                more_prepended: false,
            },
        );
        let reply = Response::Cells(vec![cell.clone(), cell.clone()]).render() + "\r\n";
        let body = reply.split_once('\n').expect("header line").1;
        let mut line = String::new();
        let rows = read_rows(&mut body.as_bytes(), 2, &mut line).expect("two rows");
        assert_eq!(rows, [cell.clone(), cell]);
        let short = read_rows(&mut body.as_bytes(), 3, &mut line).unwrap_err();
        assert_eq!(short.kind(), io::ErrorKind::UnexpectedEof);
        let bad = read_rows(&mut "{\"window\":1}\n".as_bytes(), 1, &mut line).unwrap_err();
        assert_eq!(bad.kind(), io::ErrorKind::InvalidData);
        // A reply cut off inside a row, even right after its last brace,
        // ended early.
        let whole = body.split('\n').next().expect("a row");
        for torn in [&whole[..whole.len() / 2], whole] {
            let cut = read_rows(&mut torn.as_bytes(), 1, &mut line).unwrap_err();
            assert_eq!(cut.kind(), io::ErrorKind::UnexpectedEof, "{torn}");
        }
        // A hostile count reserves a bounded number of rows up front.
        let huge = read_rows(&mut "".as_bytes(), usize::MAX, &mut line).unwrap_err();
        assert_eq!(huge.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn malformed_header_error_is_typed_not_panicky() {
        let err = parse_cells_header("{\"cells\":18446744073709551616}").unwrap_err();
        match &err {
            ProtocolError::MalformedReply { expected, .. } => {
                assert_eq!(*expected, "{\"cells\":N}");
            }
            other => panic!("expected MalformedReply, got {other:?}"),
        }
        let io: std::io::Error = err.into();
        assert_eq!(io.kind(), std::io::ErrorKind::InvalidData);
    }
}
