//! `edgeperf-live`: streaming session-ingest server with sliding
//! 15-minute windows and online degradation detection.
//!
//! The offline pipeline replays a finished study; this crate serves the
//! same estimator and statistics *while the data arrives*. A
//! multi-threaded TCP server (no async runtime — `std::net` acceptor,
//! one reader thread per connection, sharded bounded-queue workers)
//! parses JSONL session records, folds them into a watermark-driven
//! ring of event-time windows of per-group
//! [`edgeperf_analysis::StreamingCell`]s, and on window close summarises
//! each cell (MinRTT_P50 / HDratio_P50 with Price–Bonett variances) and
//! feeds the offline degradation/classification code online.
//!
//! Module map:
//!
//! - [`config`]: [`LiveConfig`] — address, workers, window geometry,
//!   lateness bound, queue capacity, retention, detection thresholds;
//!   public fields over a `Default`, checked by [`LiveServer::start`].
//! - [`record`]: [`LiveRecord`] and the pluggable [`LineParser`] wire
//!   trait (the umbrella `edgeperf` crate supplies the JSONL format).
//! - [`frame`]: the length-prefixed binary wire format — preamble
//!   negotiation, bit-exact little-endian frame codec, and the
//!   zero-allocation incremental [`FrameDecoder`].
//! - [`window`]: [`WindowRing`] — the watermark, late-record rejection
//!   ([`edgeperf_core::EdgeperfError::LateRecord`], counted, never
//!   silent), closing into [`CellSummary`]s that
//!   [`ClosedWindow::share`] packs into the
//!   [`WindowCell`](edgeperf_analysis::WindowCell) rows the offline
//!   analyses read too.
//! - [`detect`]: [`OnlineDetector`] — per-group baseline, degradation
//!   events, episode tracking and temporal classes, computed as windows
//!   close.
//! - [`queue`]: the lock-free bounded SPSC ring ([`spsc`]) and
//!   spin-then-park [`Waiter`] backing the reader → worker fan-out.
//! - [`chaos`]: [`ChaosPlan`] — deterministic, seeded wire/disk fault
//!   injection (disconnects, torn frames, stalls, worker panics,
//!   ENOSPC/EIO on spill and compaction), the live tier's clauses over
//!   the plan grammar ([`edgeperf_core::plan`]) the offline supervisor's
//!   FaultPlan is written in too.
//! - [`protocol`]: the typed, versioned line protocol —
//!   [`Request`]/[`Response`], the wire structs a reply carries
//!   ([`LiveSnapshot`]; [`CellLine`], the client's view of a `cells`
//!   row) and the one parse/render path
//!   shared by server and client, byte-compatible with the legacy bare
//!   commands; every `cells` reply is in canonical (window, group, rank)
//!   order.
//! - [`store`]: the tiered window store — [`SegmentStore`] spills
//!   windows evicted past the RAM retention horizon into columnar
//!   on-disk segments (manifest-tracked, crash-safe, background
//!   compaction) that `cells` range queries merge back bit-identically.
//! - [`reply`]: [`CellsReply`] — a `cells` reply merged from the
//!   sorted runs the workers and the store hand over and written row by
//!   row from where each row lies, never sorted or built in memory.
//! - [`server`]: [`LiveServer`] / [`ServerHandle`], the state the
//!   threads share and the graceful drain; one private module per job
//!   under `server/` — `conn` (acceptor and readers), `lanes` (the SPSC
//!   fan-out and its backpressure), `session` (resume acks), `query`
//!   (control fan-out, `cells`), `worker` (windows, detection,
//!   panic recovery), `stats` (accept/reject accounting), `background`
//!   (compactor, heartbeat supervisor).
//! - [`client`]: [`LiveClient`], the blocking protocol client used by
//!   the load generator, the fleet tier and the agreement tests, and
//!   [`replay_with_resume`], the exactly-once data connection.
//! - [`proof`]: the proof kit behind every bit-identity claim —
//!   [`serial_cells`], the one-serial-ring oracle, and
//!   [`first_difference`], the bitwise row comparator (the settle-wait
//!   is [`LiveClient::wait_processed`]).
//!
//! The cross-cutting invariant: a finite replay through the server is
//! **bit-identical** to [`serial_cells`] — the same records, in order,
//! through one serial [`WindowRing`] — at any worker count, because
//! groups are sharded by a deterministic FxHash and each cell's digest
//! therefore sees the same insertion sequence as the serial pass.
//! `live_agreement`, `live_cells_smoke` and the chaos and fleet verdicts
//! test that. The cell is the offline
//! [`edgeperf_analysis::StreamingDataset`]'s `StreamingCell` too, but
//! no test compares a replay's cells with that offline job's; ROADMAP's
//! "One digest path" item is where that proof belongs.

pub mod chaos;
pub mod client;
pub mod config;
pub mod detect;
pub mod frame;
pub mod proof;
pub mod protocol;
pub mod queue;
pub mod record;
pub mod reply;
pub mod server;
pub mod store;
pub mod window;

pub use chaos::{ChaosPlan, WireChaos, WireFault};
pub use client::{replay_with_resume, BinarySender, LiveClient, ResumeReport, WireMode};
pub use config::LiveConfig;
pub use detect::{EpisodeChange, OnlineDetector};
pub use edgeperf_core::plan::PlanError;
pub use frame::{encode_frame, preamble, FrameDecoder, FRAME_BODY_LEN, FRAME_WIRE_LEN};
pub use proof::{first_difference, serial_cells};
pub use protocol::{
    cell_line_sort_key, parse_cells_header, CellLine, CellQuery, ClassCount, GroupFilter,
    LiveSnapshot, ProtocolError, ReasonCount, Request, Response, WorkerStatsLine,
};
pub use queue::{spsc, Consumer, Producer, Waiter};
pub use record::{prefix_from_wire, relationship_from_label, LineParser, LiveRecord};
pub use reply::CellsReply;
pub use server::{shard_of, LiveServer, ServerHandle};
pub use store::{CrashPoint, Cursors, SegmentMeta, SegmentStore, SpillOutcome, StoreStats};
pub use window::{CellKey, CellSummary, ClosedWindow, SharedWindow, WindowRing};
