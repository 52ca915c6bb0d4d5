//! The live ingest server: TCP acceptor, per-connection readers, and
//! sharded workers fed through lock-free SPSC lanes.
//!
//! ## Architecture
//!
//! ```text
//! acceptor ──spawns──▶ reader (per connection)
//!                        │ parse JSONL line / decode binary frame
//!                        │ shard = FxHash(group) % workers
//!                        ▼
//!        SPSC lane (reader, worker): bounded batch ring ──▶ worker w
//!                        ▲                                   │
//!                        └───── recycle ring (spent Vecs) ───┘
//! ```
//!
//! Each connection owns one [`crate::queue::spsc`] lane per worker: a
//! bounded single-producer/single-consumer batch ring paired with a
//! reverse ring that carries spent batch `Vec`s back to the reader, so
//! steady-state ingest takes no locks and performs zero allocations per
//! batch. When a lane fills, the reader spins briefly then parks until
//! the worker frees a slot — the PR-5 "block, never drop" backpressure
//! semantics, without the `sync_channel` lock hand-off that made worker
//! counts *anti*-scale (see the `queue.rs` docs).
//!
//! Every record of a user group flows through exactly one worker (groups
//! are sharded by the deterministic FxHash), and one connection's records
//! arrive in stream order — the per-lane FIFO preserves it — so per-cell
//! digest insertion order is independent of the worker count, which is
//! what makes live windows bit-identical to the offline
//! [`edgeperf_analysis::StreamingDataset`].
//!
//! ## Control plane
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
//! A worker keeps each closed window as an immutable shared slice
//! (`Arc<[(CellKey, CellSummary)]>`): it owns the map of them — insert
//! on close, spill and pop on eviction — and nothing ever changes a
//! slice's contents. A `cells`/`digest` query therefore costs a worker
//! one `Arc` clone per window in range; the connection's own reader
//! thread does the rest ([`crate::reply::CellsReply`]): it filters on
//! the group, orders the rows through a 24-byte-a-row sort index, merges
//! the tiered store's rows under the same key with RAM winning
//! duplicates, and only then — the row count, a draining server and a
//! store error all known — writes header and rows through one 64 KiB
//! buffer, each row formatted by [`crate::protocol::write_row`] straight
//! from where it lies. No row is copied, no `CellLine` or whole-reply
//! `String` exists, so a reply's transient memory is the index, not the
//! reply; a window evicted mid-reply lives until the last reply reading
//! it is written. Whenever any worker cannot be asked or does not answer
//! (the server is draining, a worker died holding the message) the reply
//! is `{"error":"draining"}` — never the remaining workers' rows passed
//! off as all of them.
//!
//! ## Statistics
//!
//! Accept/reject tallies are sharded into per-reader and per-worker
//! cells (relaxed atomic counters plus a rarely-touched reason map) and
//! rolled up only when a snapshot is taken. A reader folds its cell into
//! a retired-total *before* closing its lanes, and workers exit only
//! after every lane is closed and drained — so the final drained
//! snapshot is exact, not approximate.
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
//! rejects are counted and sampled, never silently dropped). Anything
//! else is a command line, parsed and rendered exclusively by the typed
//! [`crate::protocol`] module (see its docs for the command table and
//! the compatibility contract). The reader loop here owns *serving* a
//! [`crate::protocol::Request`], never its wire syntax.
//!
//! ## Tiered window store
//!
//! With [`LiveConfig::spill_dir`] set, a closed window evicted past the
//! RAM retention horizon is spilled into the
//! [`crate::store::SegmentStore`] before eviction — every closed window
//! is always queryable, from RAM or from disk. `cells` range queries
//! merge both tiers, deduplicating windows present in each (the copies
//! are bit-identical by construction), and a background compactor
//! thread folds small spilled segments into larger time-sorted ones.
//!
//! ## Query metrics
//!
//! Recorded once per `cells`/`digest` query, never per row:
//! `live.query.cells_ns` / `live.query.digest_ns` (histograms: workers
//! asked to last byte flushed) and the `live.query.rows` /
//! `live.query.reply_bytes` counters, all served by `metrics`.

use crate::config::LiveConfig;
use crate::detect::OnlineDetector;
use crate::frame::{
    parse_hello, parse_preamble, FrameDecoder, FRAME_MAGIC, HELLO_LEN, PREAMBLE_LEN,
};
use crate::protocol::{
    CellQuery, ProtocolError, Request, Response, RowsHeader, WorkerStatsLine, PROTOCOL_VERSION,
};
use crate::queue::{spsc, Consumer, Producer, Waiter};
use crate::record::{LineParser, LiveRecord};
use crate::reply::{CellsReply, SharedWindow};
use crate::store::{SegmentStore, SpillOutcome, QUERY_TOTALS};
use crate::window::{CellKey, CellSummary, ClosedWindow, WindowRing};
use edgeperf_analysis::{DegradationMetric, FxHasher, GroupKey, TemporalClass};
use edgeperf_core::EdgeperfError;
use edgeperf_obs::{HeartbeatBoard, Metrics};
use edgeperf_routing::{PopId, Prefix};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::io::{self, BufRead, BufReader, Cursor, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Aggregate server state, as served by `snapshot` and returned on drain.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LiveSnapshot {
    /// True only for the final snapshot after a clean drain.
    #[serde(default)]
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
    #[serde(default)]
    pub reject_reasons: Vec<ReasonCount>,
    /// MinRTT temporal-class histogram over groups.
    #[serde(default)]
    pub classes_minrtt: Vec<ClassCount>,
}

/// One `ingest.reject.<reason>` tally.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReasonCount {
    /// Stable reason label ([`EdgeperfError::reason`]).
    pub reason: String,
    /// Rejected lines with this reason.
    pub count: u64,
}

/// One temporal-class tally.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClassCount {
    /// Class label ([`TemporalClass::label`]).
    pub class: String,
    /// Groups currently in this class.
    pub groups: u64,
}

/// One closed cell as served by the `cells` command — flat wire form of
/// ([`CellKey`], [`CellSummary`]) with full `f64` round-trip precision
/// (Rust's shortest-round-trip float formatting), so bit-identity can be
/// asserted across the wire.
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
        crate::store::cell_line(&crate::store::window_cell(window, key, s))
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

/// A coalesced run of parsed records — the unit carried by data lanes
/// and recycled back through the reverse ring.
type Batch = Vec<LiveRecord>;

/// Control-plane messages, delivered over each worker's unbounded mpsc
/// channel so they never queue behind (or block on) full record lanes.
enum ControlMsg {
    Ping(Sender<()>),
    Snapshot(Sender<WorkerSnap>),
    /// This worker's closed windows inside the query's window range, as
    /// the shared slices it keeps them in — nothing is copied or
    /// filtered here, so the worker is back on its lanes at once.
    Cells(CellQuery, Sender<Vec<SharedWindow>>),
}

/// Records a reader coalesces per worker before pushing a batch onto the
/// lane. [`LiveConfig::queue_capacity`] is counted in records and
/// converted to `queue_capacity / RECORD_BATCH` ring slots, so worst-case
/// queued records per lane stays ≈ `queue_capacity`.
const RECORD_BATCH: usize = 64;

/// Batches a worker takes from one lane before moving to the next —
/// bounds per-lane burst so one hot connection cannot starve the rest.
const BATCHES_PER_LANE_ROUND: usize = 4;

/// Point-in-time view of one worker, produced on request or at drain.
#[derive(Debug, Clone, Default)]
struct WorkerSnap {
    processed: u64,
    queue_depth: usize,
    groups: usize,
    open_windows: usize,
    windows_closed: u64,
    events: [u64; 2],
    episodes_opened: u64,
    episodes_open: usize,
    class_counts_minrtt: [u64; 5],
}

fn class_slot(class: TemporalClass) -> usize {
    match class {
        TemporalClass::Ignored => 0,
        TemporalClass::Uneventful => 1,
        TemporalClass::Continuous => 2,
        TemporalClass::Diurnal => 3,
        TemporalClass::Episodic => 4,
    }
}

const CLASS_LABELS: [&str; 5] = ["ignored", "uneventful", "continuous", "diurnal", "episodic"];

/// One shard of the accept/reject accounting. Each reader and each
/// worker owns a cell; totals exist only at snapshot time
/// ([`Shared::stat_totals`]), so the hot path touches thread-local
/// cache lines instead of a global `Mutex<BTreeMap>`.
#[derive(Default)]
struct StatCell {
    accepted: AtomicU64,
    rejected: AtomicU64,
    late: AtomicU64,
    /// Reason → count. A mutex, but per-cell and only on the reject
    /// path, which is rare by construction.
    reasons: Mutex<BTreeMap<&'static str, u64>>,
}

/// Rolled-up accept/reject totals (also the retirement accumulator for
/// readers that have come and gone).
#[derive(Default)]
struct StatTotals {
    accepted: u64,
    rejected: u64,
    late: u64,
    reasons: BTreeMap<&'static str, u64>,
}

impl StatTotals {
    fn add_cell(&mut self, cell: &StatCell) {
        self.accepted += cell.accepted.load(Ordering::Relaxed);
        self.rejected += cell.rejected.load(Ordering::Relaxed);
        self.late += cell.late.load(Ordering::Relaxed);
        for (reason, n) in cell.reasons.lock().expect("reason map").iter() {
            *self.reasons.entry(reason).or_insert(0) += n;
        }
    }
}

/// Live reader cells plus the folded totals of retired ones. A reader
/// folds its cell into `retired` *before* closing its lanes (see
/// [`ReaderLanes::retire`]), so a drained snapshot — taken only after
/// every lane closed — always sees complete reject counts.
#[derive(Default)]
struct ReaderStats {
    active: Vec<Arc<StatCell>>,
    retired: StatTotals,
}

/// Worker-side rendezvous: new lanes arrive through `incoming`
/// (versioned so the worker only takes the lock when something
/// changed), and `bell`/`seq` are the doorbell producers ring after
/// pushing work.
#[derive(Default)]
struct WorkerHub {
    bell: Waiter,
    /// Bumped on every doorbell ring; the worker parks until it moves.
    seq: AtomicU64,
    /// Bumped when `incoming` gains lanes.
    version: AtomicU64,
    incoming: Mutex<Vec<LaneRx>>,
}

impl WorkerHub {
    /// Publish progress (a pushed batch, a closed lane, a control
    /// message) and wake the worker if it is parked.
    fn ring(&self) {
        self.seq.fetch_add(1, Ordering::Release);
        self.bell.notify();
    }
}

/// Reader-side end of one (reader, worker) lane.
struct LaneTx {
    data: Producer<Batch>,
    /// Spent batch `Vec`s coming back from the worker.
    recycle: Consumer<Batch>,
    /// Parked-producer doorbell; the worker rings it after freeing a
    /// slot or applying a batch.
    bell: Arc<Waiter>,
    /// Records the worker has fully applied from this lane.
    applied: Arc<AtomicU64>,
    hub: Arc<WorkerHub>,
    /// Records pushed onto the lane so far (`applied` chases this).
    pushed: u64,
    /// The partial batch being coalesced.
    batch: Batch,
}

impl LaneTx {
    /// Push the coalesced batch, blocking (spin-then-park) while the
    /// ring is full — backpressure, never drops. Steady state this is a
    /// recycle pop, a slot write, and one release store. Returns the
    /// number of records that could NOT be delivered because the worker
    /// abandoned the lane for good — callers must account them as
    /// rejects, never lose them silently.
    fn flush(&mut self) -> u64 {
        if self.batch.is_empty() {
            return 0;
        }
        let next = match self.recycle.try_pop() {
            Some(mut spent) => {
                spent.clear();
                spent
            }
            None => Vec::with_capacity(RECORD_BATCH),
        };
        let mut batch = std::mem::replace(&mut self.batch, next);
        self.pushed += batch.len() as u64;
        loop {
            if self.data.is_abandoned() {
                // Worker gone for good; nothing will ever drain the
                // lane. Report the loss so totals still add up.
                return batch.len() as u64;
            }
            match self.data.try_push(batch) {
                Ok(()) => break,
                Err(back) => {
                    batch = back;
                    self.bell.wait_until(|| self.data.has_space() || self.data.is_abandoned());
                }
            }
        }
        self.hub.ring();
        0
    }
}

/// Fold records dropped by an abandoned lane into the reader's stat
/// cell as `worker_lost` rejects (they were neither applied nor late).
fn count_worker_lost(cell: &StatCell, dropped: u64) {
    if dropped == 0 {
        return;
    }
    cell.rejected.fetch_add(dropped, Ordering::Relaxed);
    *cell.reasons.lock().expect("reason map").entry("worker_lost").or_insert(0) += dropped;
}

/// Worker-side end of one (reader, worker) lane.
struct LaneRx {
    data: Consumer<Batch>,
    recycle: Producer<Batch>,
    bell: Arc<Waiter>,
    applied: Arc<AtomicU64>,
}

/// Everything a reader owns: one lane per worker plus its stat cell.
#[derive(Default)]
struct ReaderLanes {
    lanes: Vec<LaneTx>,
    cell: Arc<StatCell>,
}

impl ReaderLanes {
    /// Shard a record to its worker's lane, flushing at the batch size.
    fn route(&mut self, rec: LiveRecord) {
        let w = shard_of(&rec.group, self.lanes.len());
        let lane = &mut self.lanes[w];
        lane.batch.push(rec);
        if lane.batch.len() >= RECORD_BATCH {
            let dropped = lane.flush();
            count_worker_lost(&self.cell, dropped);
        }
    }

    /// Hand workers every partial batch (called before blocking on the
    /// socket, so a quiet connection never strands records).
    fn flush_all(&mut self) {
        for lane in &mut self.lanes {
            let dropped = lane.flush();
            count_worker_lost(&self.cell, dropped);
        }
    }

    /// Flush, then wait until the workers have applied everything this
    /// connection pushed — the "commands observe everything this
    /// connection sent before them" barrier.
    fn sync(&mut self) {
        self.flush_all();
        for lane in &self.lanes {
            if lane.applied.load(Ordering::Acquire) >= lane.pushed {
                continue;
            }
            lane.bell.wait_until(|| {
                lane.applied.load(Ordering::Acquire) >= lane.pushed || lane.data.is_abandoned()
            });
        }
    }

    /// Reader is done: flush stragglers, fold the stat cell into the
    /// retired totals, and only then close the lanes. Workers treat a
    /// closed, drained lane as gone, and may exit once all lanes are —
    /// the fold-before-close order is what makes the final snapshot
    /// exact.
    fn retire(mut self, shared: &Shared) {
        self.flush_all();
        {
            let mut stats = shared.reader_stats.lock().expect("reader stats");
            stats.active.retain(|c| !Arc::ptr_eq(c, &self.cell));
            stats.retired.add_cell(&self.cell);
        }
        self.lanes.clear();
        for hub in &shared.hubs {
            hub.ring();
        }
    }
}

/// State shared by the acceptor, readers, workers and the supervisor.
struct Shared {
    config: LiveConfig,
    /// The actually-bound listen address (resolves `:0` binds) — the
    /// drain wake-up connection must target this, not `config.addr`.
    bound_addr: SocketAddr,
    metrics: Metrics,
    board: HeartbeatBoard,
    draining: AtomicBool,
    supervisor_stop: AtomicBool,
    /// The tiered window store; `None` without a spill directory.
    store: Option<Arc<SegmentStore>>,
    /// One rendezvous per worker; readers register lanes here.
    hubs: Vec<Arc<WorkerHub>>,
    /// One stat cell per worker (accepts, late/overflow rejects).
    worker_stats: Vec<Arc<StatCell>>,
    /// Reader stat cells, live and retired.
    reader_stats: Mutex<ReaderStats>,
    /// Bounded sample of recent reject messages (triage without logs).
    reject_log: Mutex<VecDeque<String>>,
    /// Control senders, one per worker; `None` once draining. Doubles
    /// as the "is the server accepting lanes" gate for readers.
    router: Mutex<Option<Vec<Sender<ControlMsg>>>>,
    /// Final per-worker reports, filled as workers drain.
    reports: Mutex<Vec<WorkerSnap>>,
    reports_ready: Condvar,
    final_snapshot: Mutex<Option<LiveSnapshot>>,
    conns: Mutex<Vec<(u64, TcpStream)>>,
    conn_seq: AtomicU64,
    reader_handles: Mutex<Vec<JoinHandle<()>>>,
    /// Resume sessions: cumulative consumed-record acks per session id.
    sessions: Mutex<HashMap<u64, SessionEntry>>,
    /// Signalled when a session's owning connection retires, releasing
    /// `hello`/`resume` waiters.
    sessions_cv: Condvar,
}

/// One resume session: the ack is the cumulative number of records the
/// server has *consumed* (applied or rejected) across all epochs, and is
/// only advanced after the owning reader's final [`ReaderLanes::sync`] —
/// so a client resending from the ack can never double-count.
#[derive(Default)]
struct SessionEntry {
    /// Highest epoch a `hello` announced.
    epoch: u64,
    /// Cumulative consumed records, published at reader retirement.
    acked: u64,
    /// A connection currently owns this session.
    active: bool,
}

/// How long `hello`/`resume` wait for the previous epoch's connection
/// to retire before giving up with `SessionBusy`.
const SESSION_HANDOFF_DEADLINE: Duration = Duration::from_secs(10);

/// Per-connection resume bookkeeping while a session is attached.
struct SessionCtx {
    id: u64,
    /// Records consumed on this connection (this epoch) so far.
    consumed: u64,
}

impl Shared {
    /// Count a reject into `cell` (the caller's shard) plus the global
    /// metrics counter and the sampled log.
    fn reject(&self, cell: &StatCell, context: &str, err: &EdgeperfError) {
        let reason = err.reason();
        cell.rejected.fetch_add(1, Ordering::Relaxed);
        if reason == "late" {
            cell.late.fetch_add(1, Ordering::Relaxed);
        }
        self.metrics.counter(&format!("ingest.reject.{reason}")).inc();
        *cell.reasons.lock().expect("reason map").entry(reason).or_insert(0) += 1;
        let mut log = self.reject_log.lock().expect("reject log");
        if log.len() >= 256 {
            log.pop_front();
        }
        log.push_back(format!("{context}: {err}"));
    }

    /// Claim session `id` for the calling connection, waiting (bounded)
    /// for a previous owner to retire so its ack is final. Returns the
    /// cumulative ack to resume from; `None` if the hand-off timed out.
    fn session_begin(&self, id: u64, epoch: u64) -> Option<u64> {
        let deadline = Instant::now() + SESSION_HANDOFF_DEADLINE;
        let mut map = self.sessions.lock().expect("sessions");
        loop {
            let entry = map.entry(id).or_default();
            if !entry.active {
                entry.active = true;
                entry.epoch = entry.epoch.max(epoch);
                return Some(entry.acked);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            map = self.sessions_cv.wait_timeout(map, deadline - now).expect("sessions wait").0;
        }
    }

    /// Release session `id`, folding this connection's consumed count
    /// into the cumulative ack. Callers must `sync()` their lanes first
    /// so every acked record is actually applied.
    fn session_end(&self, id: u64, consumed: u64) {
        let mut map = self.sessions.lock().expect("sessions");
        if let Some(entry) = map.get_mut(&id) {
            entry.acked += consumed;
            entry.active = false;
        }
        drop(map);
        self.sessions_cv.notify_all();
    }

    /// The final ack for `id`, waiting (bounded) for an active owner to
    /// retire first. Unknown sessions ack 0. `None` on timeout.
    fn session_ack(&self, id: u64) -> Option<u64> {
        let deadline = Instant::now() + SESSION_HANDOFF_DEADLINE;
        let mut map = self.sessions.lock().expect("sessions");
        loop {
            match map.get(&id) {
                Some(entry) if entry.active => {}
                Some(entry) => return Some(entry.acked),
                None => return Some(0),
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            map = self.sessions_cv.wait_timeout(map, deadline - now).expect("sessions wait").0;
        }
    }

    /// Roll the sharded stat cells up into totals. Exact for any
    /// quiescent cell (its owner stopped pushing); approximate only in
    /// the benign snapshot-during-traffic sense the old global counters
    /// had too.
    fn stat_totals(&self) -> StatTotals {
        let mut totals = StatTotals::default();
        for cell in &self.worker_stats {
            totals.add_cell(cell);
        }
        let readers = self.reader_stats.lock().expect("reader stats");
        for cell in &readers.active {
            totals.add_cell(cell);
        }
        totals.accepted += readers.retired.accepted;
        totals.rejected += readers.retired.rejected;
        totals.late += readers.retired.late;
        for (reason, n) in &readers.retired.reasons {
            *totals.reasons.entry(reason).or_insert(0) += n;
        }
        totals
    }

    fn snapshot_from(&self, per_worker: &[WorkerSnap], drained: bool) -> LiveSnapshot {
        let totals = self.stat_totals();
        let mut snap = LiveSnapshot {
            drained,
            workers: self.config.workers as u64,
            accepted: totals.accepted,
            rejected: totals.rejected,
            late: totals.late,
            ..LiveSnapshot::default()
        };
        let mut classes = [0u64; 5];
        for w in per_worker {
            snap.groups += w.groups as u64;
            snap.windows_closed += w.windows_closed;
            snap.open_windows += w.open_windows as u64;
            snap.events_minrtt += w.events[0];
            snap.events_hdratio += w.events[1];
            snap.episodes_opened += w.episodes_opened;
            snap.episodes_open += w.episodes_open as u64;
            for (i, c) in w.class_counts_minrtt.iter().enumerate() {
                classes[i] += c;
            }
        }
        snap.reject_reasons = totals
            .reasons
            .iter()
            .map(|(reason, count)| ReasonCount { reason: reason.to_string(), count: *count })
            .collect();
        snap.classes_minrtt = CLASS_LABELS
            .iter()
            .zip(classes)
            .filter(|&(_, n)| n > 0)
            .map(|(label, n)| ClassCount { class: label.to_string(), groups: n })
            .collect();
        snap
    }
}

/// Deterministic group → worker shard (same FxHash as the offline
/// sinks). Public so the bench crate's per-stage profile can time the
/// real routing function.
pub fn shard_of(group: &GroupKey, workers: usize) -> usize {
    let mut h = FxHasher::default();
    group.hash(&mut h);
    (h.finish() as usize) % workers
}

/// Open one lane per worker for a new connection, plus its stat cell.
/// `None` once the server is draining (the router is gone).
fn register_reader(shared: &Arc<Shared>) -> Option<ReaderLanes> {
    let router = shared.router.lock().expect("router");
    router.as_ref()?;
    let batch_slots = shared.config.queue_capacity.div_ceil(RECORD_BATCH).max(1);
    let mut lanes = Vec::with_capacity(shared.hubs.len());
    for hub in &shared.hubs {
        let (data_tx, data_rx) = spsc::<Batch>(batch_slots);
        // +2 so a worker returning a spent Vec while the reader holds
        // one in flight still finds a slot in the common case; overflow
        // just drops the Vec (allocation, not correctness).
        let (recycle_tx, recycle_rx) = spsc::<Batch>(batch_slots + 2);
        let bell = Arc::new(Waiter::default());
        let applied = Arc::new(AtomicU64::new(0));
        hub.incoming.lock().expect("incoming lanes").push(LaneRx {
            data: data_rx,
            recycle: recycle_tx,
            bell: Arc::clone(&bell),
            applied: Arc::clone(&applied),
        });
        hub.version.fetch_add(1, Ordering::Release);
        lanes.push(LaneTx {
            data: data_tx,
            recycle: recycle_rx,
            bell,
            applied,
            hub: Arc::clone(hub),
            pushed: 0,
            batch: Vec::with_capacity(RECORD_BATCH),
        });
    }
    let cell = Arc::new(StatCell::default());
    shared.reader_stats.lock().expect("reader stats").active.push(Arc::clone(&cell));
    drop(router);
    for hub in &shared.hubs {
        hub.ring();
    }
    Some(ReaderLanes { lanes, cell })
}

/// Clone worker `w`'s control sender, if the server is still routing.
fn control_sender(shared: &Shared, w: usize) -> Option<Sender<ControlMsg>> {
    shared.router.lock().expect("router").as_ref().map(|senders| senders[w].clone())
}

/// A running [`LiveServer`]: the bound address plus every thread handle.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    supervisor: Option<JoinHandle<()>>,
    compactor: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The actually-bound listen address (resolves `:0` binds).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Block until a client drains the server (the `shutdown` command),
    /// join every thread, and return the final snapshot.
    pub fn join(mut self) -> LiveSnapshot {
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        for h in self.shared.reader_handles.lock().expect("reader handles").drain(..) {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        self.shared.supervisor_stop.store(true, Ordering::Release);
        if let Some(s) = self.supervisor.take() {
            let _ = s.join();
        }
        if let Some(c) = self.compactor.take() {
            let _ = c.join();
        }
        self.shared.final_snapshot.lock().expect("final snapshot").clone().unwrap_or_default()
    }

    /// Convenience for tests and embedders: issue `shutdown` from here
    /// and join. Returns the final (drained) snapshot.
    pub fn shutdown_and_join(self) -> std::io::Result<LiveSnapshot> {
        let mut client = crate::client::LiveClient::connect(self.addr)?;
        let snap = client.shutdown()?;
        let joined = self.join();
        // Prefer the snapshot the server handed the draining client; the
        // joined one is identical but may be missing if another client
        // raced the drain.
        Ok(if snap.drained { snap } else { joined })
    }
}

/// The live session-ingest server. See the module docs.
pub struct LiveServer;

impl LiveServer {
    /// Validate `config`, bind, and start every thread. The wire format
    /// is supplied by `parser`; pipeline metrics land in `metrics`.
    pub fn start(
        config: LiveConfig,
        parser: Arc<dyn LineParser>,
        metrics: Metrics,
    ) -> Result<ServerHandle, EdgeperfError> {
        config.validate()?;
        // Open (and, on restart, recover) the tiered store before
        // binding: a manifest problem should fail startup, not the
        // first eviction.
        let store = match &config.spill_dir {
            Some(dir) => {
                let store = SegmentStore::open(
                    dir,
                    config.compact_min_segments,
                    config.compact_batch,
                    config.spill_fail_threshold,
                )?;
                store.set_chaos(config.chaos.clone());
                Some(Arc::new(store))
            }
            None => None,
        };
        let listener = TcpListener::bind(&config.addr).map_err(|e| {
            EdgeperfError::InvalidConfig { field: "addr", message: format!("{}: {e}", config.addr) }
        })?;
        let addr = listener
            .local_addr()
            .map_err(|e| EdgeperfError::InvalidConfig { field: "addr", message: e.to_string() })?;
        let workers = config.workers;
        let shared = Arc::new(Shared {
            store,
            bound_addr: addr,
            board: HeartbeatBoard::new(workers),
            metrics,
            draining: AtomicBool::new(false),
            supervisor_stop: AtomicBool::new(false),
            hubs: (0..workers).map(|_| Arc::new(WorkerHub::default())).collect(),
            worker_stats: (0..workers).map(|_| Arc::new(StatCell::default())).collect(),
            reader_stats: Mutex::new(ReaderStats::default()),
            reject_log: Mutex::new(VecDeque::new()),
            router: Mutex::new(None),
            reports: Mutex::new(Vec::new()),
            reports_ready: Condvar::new(),
            final_snapshot: Mutex::new(None),
            conns: Mutex::new(Vec::new()),
            conn_seq: AtomicU64::new(0),
            reader_handles: Mutex::new(Vec::new()),
            sessions: Mutex::new(HashMap::new()),
            sessions_cv: Condvar::new(),
            config,
        });

        // Thread spawns can fail (EAGAIN under thread/pid limits); a
        // failure here aborts startup with a typed error and unwinds
        // the workers already running instead of panicking.
        let spawn_or_unwind = |what: &'static str,
                               name: String,
                               f: Box<dyn FnOnce() + Send>|
         -> Result<JoinHandle<()>, EdgeperfError> {
            std::thread::Builder::new().name(name).spawn(f).map_err(|e| {
                shared.draining.store(true, Ordering::Release);
                *shared.router.lock().expect("router") = None;
                for hub in &shared.hubs {
                    hub.ring();
                }
                EdgeperfError::Spawn { what, message: e.to_string() }
            })
        };

        let mut worker_handles = Vec::with_capacity(workers);
        let mut control_senders = Vec::with_capacity(workers);
        for w in 0..workers {
            let (control_tx, control_rx) = channel();
            control_senders.push(control_tx);
            let hub = Arc::clone(&shared.hubs[w]);
            let shared_w = Arc::clone(&shared);
            worker_handles.push(spawn_or_unwind(
                "worker",
                format!("live-worker-{w}"),
                Box::new(move || worker_thread(w, &shared_w, &hub, &control_rx)),
            )?);
        }
        *shared.router.lock().expect("router") = Some(control_senders);

        let supervisor = {
            let shared_s = Arc::clone(&shared);
            spawn_or_unwind(
                "supervisor",
                "live-supervisor".to_string(),
                Box::new(move || supervisor_loop(&shared_s)),
            )?
        };

        let compactor = match shared.store.as_ref() {
            Some(store) => {
                let store = Arc::clone(store);
                let shared_c = Arc::clone(&shared);
                Some(spawn_or_unwind(
                    "compactor",
                    "live-compactor".to_string(),
                    Box::new(move || compactor_loop(&shared_c, &store)),
                )?)
            }
            None => None,
        };

        let acceptor = {
            let shared_a = Arc::clone(&shared);
            let parser = Arc::clone(&parser);
            spawn_or_unwind(
                "acceptor",
                "live-acceptor".to_string(),
                Box::new(move || acceptor_loop(listener, &shared_a, parser)),
            )?
        };

        Ok(ServerHandle {
            addr,
            shared,
            acceptor: Some(acceptor),
            workers: worker_handles,
            supervisor: Some(supervisor),
            compactor,
        })
    }
}

fn acceptor_loop(listener: TcpListener, shared: &Arc<Shared>, parser: Arc<dyn LineParser>) {
    let refused = shared.metrics.counter("live.conns.refused");
    let spawn_errors = shared.metrics.counter("live.spawn_errors");
    for stream in listener.incoming() {
        if shared.draining.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // Connection cap: refuse (close immediately) past the limit so
        // a connection flood degrades politely instead of exhausting
        // reader threads.
        let cap = shared.config.max_connections;
        if cap > 0 && shared.conns.lock().expect("conns").len() >= cap {
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
        if shared.config.idle_timeout_ms > 0 {
            let _ =
                stream.set_read_timeout(Some(Duration::from_millis(shared.config.idle_timeout_ms)));
        }
        if shared.config.write_timeout_ms > 0 {
            let _ = stream
                .set_write_timeout(Some(Duration::from_millis(shared.config.write_timeout_ms)));
        }
        let id = shared.conn_seq.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            shared.conns.lock().expect("conns").push((id, clone));
        }
        let shared_cloned = Arc::clone(shared);
        let parser = Arc::clone(&parser);
        let spawned =
            std::thread::Builder::new().name(format!("live-reader-{id}")).spawn(move || {
                reader_loop(id, stream, &shared_cloned, parser);
                shared_cloned.conns.lock().expect("conns").retain(|(cid, _)| *cid != id);
            });
        match spawned {
            Ok(handle) => shared.reader_handles.lock().expect("reader handles").push(handle),
            Err(e) => {
                // Reader spawn failed (EMFILE/EAGAIN): refuse this one
                // connection — the dropped closure closes the stream —
                // and keep accepting; a transient limit must not kill
                // the acceptor.
                let err = EdgeperfError::Spawn { what: "reader", message: e.to_string() };
                spawn_errors.inc();
                refused.inc();
                shared.conns.lock().expect("conns").retain(|(cid, _)| *cid != id);
                let mut log = shared.reject_log.lock().expect("reject log");
                if log.len() >= 256 {
                    log.pop_front();
                }
                log.push_back(format!("conn {id}: {err}"));
            }
        }
    }
}

fn reader_loop(id: u64, stream: TcpStream, shared: &Arc<Shared>, parser: Arc<dyn LineParser>) {
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
    if magic_possible && got == PREAMBLE_LEN {
        match parse_preamble(&pre) {
            Ok((body_len, hello)) => {
                let mut session: Option<SessionCtx> = None;
                let mut admitted = true;
                if hello {
                    // The preamble announced a resume hello: read the
                    // fixed-size block, claim the session, and ack the
                    // resume point before any frames flow.
                    let mut block = [0u8; HELLO_LEN];
                    match (&stream).read_exact(&mut block) {
                        Ok(()) => match parse_hello(&block) {
                            Ok((sid, epoch)) => match shared.session_begin(sid, epoch) {
                                Some(acked) => {
                                    session = Some(SessionCtx { id: sid, consumed: 0 });
                                    let reply = Response::Acked(acked).render();
                                    if out.write_all(reply.as_bytes()).is_err()
                                        || out.write_all(b"\n").is_err()
                                    {
                                        admitted = false;
                                    }
                                }
                                None => {
                                    let reply = Response::SessionBusy.render();
                                    let _ = out.write_all(reply.as_bytes());
                                    let _ = out.write_all(b"\n");
                                    admitted = false;
                                }
                            },
                            Err(err) => {
                                shared.reject(&lanes.cell, &format!("conn {id} hello"), &err);
                                admitted = false;
                            }
                        },
                        Err(_) => admitted = false,
                    }
                }
                if admitted {
                    binary_reader_loop(id, stream, body_len, shared, &mut lanes, session.as_mut());
                }
                if let Some(sc) = session {
                    // Publish the ack only after every routed record is
                    // applied — the exactly-once guarantee.
                    lanes.sync();
                    shared.session_end(sc.id, sc.consumed);
                }
            }
            Err(err) => shared.reject(&lanes.cell, &format!("conn {id} preamble"), &err),
        }
        lanes.retire(shared);
        return;
    }
    // Line mode: hand the already-consumed sniff bytes back to the
    // parser by chaining them in front of the socket.
    let reader = BufReader::with_capacity(
        shared.config.read_buffer_bytes,
        Cursor::new(pre[..got].to_vec()).chain(stream),
    );
    let session = line_reader_loop(id, reader, &mut out, shared, parser, &mut lanes);
    if let Some(sc) = session {
        lanes.sync();
        shared.session_end(sc.id, sc.consumed);
    }
    lanes.retire(shared);
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
    id: u64,
    mut stream: TcpStream,
    body_len: usize,
    shared: &Arc<Shared>,
    lanes: &mut ReaderLanes,
    mut session: Option<&mut SessionCtx>,
) {
    let frames_counter = shared.metrics.counter("ingest.frames");
    let accepted_counter = shared.metrics.counter("live.accepted");
    let mut decoder = FrameDecoder::new(body_len, shared.config.read_buffer_bytes);
    let mut frame_no = 0u64;
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
                if matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
                {
                    shared.metrics.counter("live.conns.evicted").inc();
                }
                break;
            }
            Ok(n) => n,
        };
        decoder.advance(n, writable_len);
        loop {
            match decoder.next_record() {
                Ok(Some(rec)) => {
                    frame_no += 1;
                    frames_counter.inc();
                    accepted_counter.inc();
                    if let Some(sc) = session.as_deref_mut() {
                        sc.consumed += 1;
                    }
                    lanes.route(rec);
                }
                Ok(None) => break,
                Err(err) => {
                    shared.reject(&lanes.cell, &format!("conn {id} frame {}", frame_no + 1), &err);
                    return;
                }
            }
        }
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

/// JSONL-mode connection: the line protocol (records + commands).
/// Returns the attached resume session (if a `hello` arrived) so the
/// caller can sync lanes and publish the final ack.
fn line_reader_loop<R: Read>(
    id: u64,
    mut reader: BufReader<R>,
    out: &mut TcpStream,
    shared: &Arc<Shared>,
    parser: Arc<dyn LineParser>,
    lanes: &mut ReaderLanes,
) -> Option<SessionCtx> {
    let workers = shared.config.workers;
    let lines_counter = shared.metrics.counter("ingest.lines");
    let accepted_counter = shared.metrics.counter("live.accepted");
    let mut line = String::new();
    let mut line_no = 0u64;
    let mut rr = id as usize;
    let mut session: Option<SessionCtx> = None;
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Err(e) => {
                if matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
                {
                    shared.metrics.counter("live.conns.evicted").inc();
                }
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
            line_no += 1;
            lines_counter.inc();
            if let Some(sc) = session.as_mut() {
                sc.consumed += 1;
            }
            match parser.parse(trimmed) {
                Ok(rec) => {
                    accepted_counter.inc();
                    lanes.route(rec);
                }
                Err(err) => shared.reject(&lanes.cell, &format!("conn {id} line {line_no}"), &err),
            }
            // About to block on the socket: hand workers everything
            // parsed so far, so a quiet connection never strands
            // records in a partial batch (snapshots taken while the
            // sender idles must observe them).
            if reader.buffer().is_empty() {
                lanes.flush_all();
            }
            continue;
        }
        // One parse path for every command line; syntax errors render
        // their reply without touching any server state.
        let reply = match Request::parse(trimmed) {
            Err(err) => Response::Error(err).render(),
            Ok(request) => {
                // State-reporting commands observe everything this
                // connection sent before them; `ping` and `metrics`
                // skip the barrier so they stay responsive even while
                // this connection's own lanes are backed up.
                if request.needs_sync() {
                    lanes.sync();
                }
                match request {
                    Request::Hello { session: sid, epoch } => {
                        // Re-hello on a live connection hands the old
                        // session back first so acks stay cumulative.
                        if let Some(prev) = session.take() {
                            lanes.sync();
                            shared.session_end(prev.id, prev.consumed);
                        }
                        match shared.session_begin(sid, epoch) {
                            Some(acked) => {
                                session = Some(SessionCtx { id: sid, consumed: 0 });
                                Response::Acked(acked).render()
                            }
                            None => Response::SessionBusy.render(),
                        }
                    }
                    Request::Resume { session: sid } => match shared.session_ack(sid) {
                        Some(acked) => Response::Acked(acked).render(),
                        None => Response::SessionBusy.render(),
                    },
                    Request::Ping => {
                        rr = (rr + 1) % workers;
                        let mut reply = Response::Gone;
                        if let Some(tx) = control_sender(shared, rr) {
                            let (reply_tx, reply_rx) = channel();
                            if tx.send(ControlMsg::Ping(reply_tx)).is_ok() {
                                shared.hubs[rr].ring();
                                if reply_rx.recv().is_ok() {
                                    reply = Response::Pong;
                                }
                            }
                        }
                        reply.render()
                    }
                    Request::Snapshot => match query_workers(shared, ControlMsg::Snapshot) {
                        Some(per_worker) => {
                            Response::Snapshot(shared.snapshot_from(&per_worker, false)).render()
                        }
                        None => Response::Draining.render(),
                    },
                    Request::Stats => match query_workers(shared, ControlMsg::Snapshot) {
                        Some(per_worker) => Response::Stats(
                            per_worker
                                .iter()
                                .enumerate()
                                .map(|(w, s)| WorkerStatsLine {
                                    worker: u64::try_from(w).expect("worker index fits u64"),
                                    processed: s.processed,
                                    queue_depth: u64::try_from(s.queue_depth)
                                        .expect("usize fits u64"),
                                    groups: u64::try_from(s.groups).expect("usize fits u64"),
                                    open_windows: u64::try_from(s.open_windows)
                                        .expect("usize fits u64"),
                                    windows_closed: s.windows_closed,
                                })
                                .collect(),
                        )
                        .render(),
                        None => Response::Draining.render(),
                    },
                    Request::Digest { proto, .. } if proto != PROTOCOL_VERSION => {
                        Response::Error(ProtocolError::BadArgument {
                            command: "digest",
                            argument: format!("proto={proto}"),
                            message: format!("server speaks protocol {PROTOCOL_VERSION}"),
                        })
                        .render()
                    }
                    // The two replies that are written, not built: rows
                    // go from where they lie to the socket.
                    Request::Cells(query) | Request::Digest { query, .. } => {
                        let digest = matches!(request, Request::Digest { .. });
                        match serve_cells(shared, &query, digest, out) {
                            Ok(()) => continue,
                            Err(_) => break,
                        }
                    }
                    Request::Metrics => Response::Metrics(
                        serde_json::to_string(&shared.metrics.snapshot())
                            .expect("metrics serialize"),
                    )
                    .render(),
                    Request::Store => {
                        Response::Store(shared.store.as_ref().map(|s| s.stats())).render()
                    }
                    Request::Version => Response::Version.render(),
                    Request::Shutdown => {
                        let snap = drain(shared, id, std::mem::take(lanes));
                        let reply = Response::Snapshot(snap).render();
                        let _ = out.write_all(reply.as_bytes());
                        let _ = out.write_all(b"\n");
                        break;
                    }
                    Request::Quit => break,
                }
            }
        };
        if out.write_all(reply.as_bytes()).is_err() || out.write_all(b"\n").is_err() {
            break;
        }
    }
    // EOF / cut connection: the caller retires the lanes, which flushes
    // whatever is still batched. (After `shutdown`, `lanes` was taken
    // and retirement is a no-op.)
    session
}

/// Send `make(reply)` to every worker over the control channels and
/// collect the responses, in worker order. `None` when any worker cannot
/// be asked or does not answer — the server is draining, or the worker
/// died holding the message: a partial answer is never passed off as a
/// whole one.
fn query_workers<T>(shared: &Shared, make: impl Fn(Sender<T>) -> ControlMsg) -> Option<Vec<T>> {
    let senders = shared.router.lock().expect("router").clone()?;
    let mut out = Vec::with_capacity(senders.len());
    for (w, tx) in senders.iter().enumerate() {
        let (reply_tx, reply_rx) = channel();
        tx.send(make(reply_tx)).ok()?;
        shared.hubs[w].ring();
        out.push(reply_rx.recv().ok()?);
    }
    Some(out)
}

/// Canonical cell ordering for merged/filtered replies — the same
/// (window, group, rank) key [`edgeperf_analysis::cell_sort_key`] gives
/// segment rows, so disk- and RAM-sourced cells interleave one way.
/// Public because the fleet tier's global merge sorts (and checks
/// cross-node disjointness) on the very same key.
pub fn cell_line_sort_key(c: &CellLine) -> (u32, u16, u32, u8, u16, u8, u8) {
    (c.window, c.pop, c.prefix_base, c.prefix_len, c.country, c.continent, c.rank)
}

/// Serve a `cells` or `digest` query by writing it: every worker hands
/// over the closed windows in range as shared slices, the tiered store
/// its matching rows, and this (the connection's reader) thread filters,
/// orders and merges them through a [`CellsReply`] — windows present in
/// both tiers (spilled but not yet evicted, or replayed after a restart)
/// keep their RAM copy — and only then writes header and rows through
/// one fixed-size buffer. The row count, a draining server and a store
/// error are all known before the first byte goes out; an `Err` is the
/// socket's.
///
/// Compatibility: a bare `cells` on a store-less server keeps the
/// legacy reply bytes exactly — worker order, insertion order, no sort.
/// Any filtered query, any server with a store and every `digest` (it
/// exists for cross-node merging) is in canonical order, deterministic
/// across worker counts and spill timing. A digest's accepted-record
/// counter is read after the workers answered, under the caller's sync
/// barrier like the rows, so the pair is consistent in a quiesced stream.
fn serve_cells(
    shared: &Shared,
    query: &CellQuery,
    digest: bool,
    out: &mut impl Write,
) -> io::Result<()> {
    let started = shared.metrics.is_enabled().then(Instant::now);
    let Some(per_worker) = query_workers(shared, |reply| ControlMsg::Cells(*query, reply)) else {
        return writeln!(out, "{}", Response::Draining.render());
    };
    let windows: Vec<SharedWindow> = per_worker.into_iter().flatten().collect();
    let spilled = match &shared.store {
        None => None,
        Some(store) => {
            let rows = store.query(query);
            // The store's running totals, mirrored so `metrics` shows
            // what historical queries cost without a `store` round trip.
            for (name, total) in QUERY_TOTALS.iter().zip(store.query_totals()) {
                shared.metrics.gauge(&format!("store.{name}")).set(total as f64);
            }
            match rows {
                Ok(rows) => Some(rows),
                Err(err) => {
                    return writeln!(out, "{}", Response::StoreError(err.to_string()).render())
                }
            }
        }
    };
    let reply = match &spilled {
        None if !digest && query.is_all() => CellsReply::as_they_lie(&windows),
        _ => CellsReply::canonical(&windows, spilled.as_deref().unwrap_or(&[]), query),
    };
    let header = if digest {
        RowsHeader::Digest { accepted: shared.stat_totals().accepted }
    } else {
        RowsHeader::Cells
    };
    let bytes = reply.write(header, out)?;
    if let Some(started) = started {
        let verb = if digest { "live.query.digest_ns" } else { "live.query.cells_ns" };
        shared.metrics.histogram(verb).record(started.elapsed().as_nanos() as u64);
        shared.metrics.counter("live.query.rows").add(reply.rows() as u64);
        shared.metrics.counter("live.query.reply_bytes").add(bytes);
    }
    Ok(())
}

/// The first half of a drain, run once: stop the acceptor, cut every
/// connection but `self_id`'s, and drop the control router — from here
/// on state queries answer `draining` and readers can no longer
/// register lanes.
fn begin_drain(shared: &Shared, self_id: u64) {
    if shared.draining.swap(true, Ordering::AcqRel) {
        return;
    }
    // Wake the acceptor so it observes the flag.
    let _ = TcpStream::connect(shared.bound_addr);
    // Cut every other connection; their readers drain what they have
    // already batched, then retire (fold stats, close lanes).
    for (cid, conn) in shared.conns.lock().expect("conns").iter() {
        if *cid != self_id {
            let _ = conn.shutdown(Shutdown::Both);
        }
    }
    // Drop the control senders: workers treat a disconnected control
    // channel + no lanes as the exit condition.
    *shared.router.lock().expect("router") = None;
    for hub in &shared.hubs {
        hub.ring();
    }
}

/// Drain: [`begin_drain`], retire the caller's lanes, wait for the
/// workers to flush, and build the final snapshot.
fn drain(shared: &Arc<Shared>, self_id: u64, lanes: ReaderLanes) -> LiveSnapshot {
    begin_drain(shared, self_id);
    lanes.retire(shared);
    let workers = shared.config.workers;
    let mut reports = shared.reports.lock().expect("reports");
    while reports.len() < workers {
        reports = shared.reports_ready.wait(reports).expect("reports wait");
    }
    let snap = shared.snapshot_from(&reports, true);
    drop(reports);
    shared.supervisor_stop.store(true, Ordering::Release);
    let mut slot = shared.final_snapshot.lock().expect("final snapshot");
    if slot.is_none() {
        *slot = Some(snap.clone());
    }
    snap
}

struct WorkerState {
    ring: WindowRing,
    detector: OnlineDetector,
    /// Closed windows retained in RAM, each an immutable slice shared
    /// with whichever queries are writing it out.
    closed: BTreeMap<u32, Arc<[(CellKey, CellSummary)]>>,
    processed: u64,
    windows_closed: u64,
}

impl WorkerState {
    fn snap(&self, queue_depth: usize) -> WorkerSnap {
        let mut class_counts_minrtt = [0u64; 5];
        for (_, class) in self.detector.classes(DegradationMetric::MinRtt) {
            class_counts_minrtt[class_slot(class)] += 1;
        }
        WorkerSnap {
            processed: self.processed,
            queue_depth,
            groups: self.detector.group_count(),
            open_windows: self.ring.open_windows(),
            windows_closed: self.windows_closed,
            events: [
                self.detector.event_count(DegradationMetric::MinRtt),
                self.detector.event_count(DegradationMetric::HdRatio),
            ],
            episodes_opened: self.detector.episodes_opened(),
            episodes_open: self.detector.episodes_open(),
            class_counts_minrtt,
        }
    }
}

/// Everything a worker owns across panics. Held *outside* the
/// [`catch_unwind`] in [`worker_thread`], so a respawn resumes with the
/// same lanes and — when the panic hit a clean batch boundary — the
/// same window state. Only a panic caught mid-apply (`inflight` set)
/// forces a window-state rebuild.
struct WorkerCtx {
    state: WorkerState,
    lanes: Vec<LaneRx>,
    seen_version: u64,
    control_dead: bool,
    /// `processed` thresholds at which the chaos plan panics this
    /// worker, ascending; each fires exactly once.
    pending_panics: Vec<u64>,
    /// Set while a batch is mid-apply: `(lane index, records)`. A panic
    /// with this set means the window ring may be inconsistent.
    inflight: Option<(usize, u64)>,
    /// Respawn budget exhausted: drain lanes, count records as
    /// `worker_lost` rejects, keep answering control and the drain
    /// protocol — never strand a reader or the final snapshot.
    zombie: bool,
}

/// Extract a printable message from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Worker thread entry: run [`worker_run`] under [`catch_unwind`] and
/// respawn it in place (same thread, same [`WorkerCtx`]) after a panic,
/// up to the configured budget; past the budget the worker degrades to
/// zombie mode instead of stranding its readers.
fn worker_thread(
    w: usize,
    shared: &Arc<Shared>,
    hub: &Arc<WorkerHub>,
    control: &Receiver<ControlMsg>,
) {
    let cfg = &shared.config;
    let mut ctx = WorkerCtx {
        state: WorkerState {
            ring: WindowRing::new(cfg.window_ms, cfg.lateness_ms),
            detector: OnlineDetector::new(
                cfg.analysis,
                cfg.minrtt_threshold_ms,
                cfg.hdratio_threshold,
                cfg.retention_windows,
            ),
            closed: BTreeMap::new(),
            processed: 0,
            windows_closed: 0,
        },
        lanes: Vec::new(),
        // u64::MAX forces the first iteration to absorb pre-registered
        // lanes.
        seen_version: u64::MAX,
        control_dead: false,
        pending_panics: cfg.chaos.panics_for(w),
        inflight: None,
        zombie: false,
    };
    let mut respawns = 0u32;
    loop {
        let run = catch_unwind(AssertUnwindSafe(|| worker_run(w, shared, hub, control, &mut ctx)));
        match run {
            Ok(()) => return,
            Err(payload) => {
                recover(w, shared, &mut ctx, &panic_message(payload.as_ref()));
                if respawns >= shared.config.max_worker_respawns {
                    ctx.zombie = true;
                    shared.metrics.counter("worker.zombie").inc();
                } else {
                    respawns += 1;
                }
            }
        }
    }
}

/// Post-panic repair, run between [`worker_run`] incarnations. A clean
/// panic (batch boundary, `inflight` empty) needs nothing beyond
/// accounting — all state survived in [`WorkerCtx`]. A dirty panic lost
/// the mid-apply batch and may have left the ring inconsistent: account
/// the records, unblock the syncing reader, and rebuild window state
/// fresh (already-spilled segments are untouched and still serve
/// queries).
fn recover(w: usize, shared: &Arc<Shared>, ctx: &mut WorkerCtx, msg: &str) {
    // Clear any heartbeat left open mid-batch so the supervisor does
    // not flag the recovered worker as slow forever.
    shared.board.finish(w);
    shared.metrics.counter("worker.recovered").inc();
    {
        let mut log = shared.reject_log.lock().expect("reject log");
        if log.len() >= 256 {
            log.pop_front();
        }
        log.push_back(format!("worker {w} panicked: {msg}; recovered"));
    }
    if let Some((lane_idx, n)) = ctx.inflight.take() {
        let cell = &shared.worker_stats[w];
        shared.metrics.counter("worker.lost_records").add(n);
        shared.metrics.counter("ingest.reject.worker_lost").add(n);
        count_worker_lost(cell, n);
        if let Some(lane) = ctx.lanes.get(lane_idx) {
            lane.applied.fetch_add(n, Ordering::Release);
            lane.bell.notify();
        }
        let lost = ctx.state.ring.open_windows() as u64;
        shared.metrics.counter("worker.lost_windows").add(lost);
        let cfg = &shared.config;
        ctx.state.ring = WindowRing::new(cfg.window_ms, cfg.lateness_ms);
        ctx.state.detector = OnlineDetector::new(
            cfg.analysis,
            cfg.minrtt_threshold_ms,
            cfg.hdratio_threshold,
            cfg.retention_windows,
        );
    }
}

/// Zombie mode: the respawn budget is gone. Batches are drained and
/// counted as `worker_lost` rejects so readers (and resume acks) never
/// block, but no window state is touched.
fn discard_batch(shared: &Shared, lane: &mut LaneRx, mut batch: Batch, cell: &StatCell) {
    let n = batch.len() as u64;
    batch.clear();
    count_worker_lost(cell, n);
    shared.metrics.counter("ingest.reject.worker_lost").add(n);
    shared.metrics.counter("worker.lost_records").add(n);
    let _ = lane.recycle.try_push(batch);
    lane.applied.fetch_add(n, Ordering::Release);
    lane.bell.notify();
}

fn worker_run(
    w: usize,
    shared: &Arc<Shared>,
    hub: &Arc<WorkerHub>,
    control: &Receiver<ControlMsg>,
    ctx: &mut WorkerCtx,
) {
    let cell = Arc::clone(&shared.worker_stats[w]);
    let close_hist = shared.metrics.histogram("live.window_close_ns");
    let depth_hist = shared.metrics.histogram("live.queue_depth");
    let depth_gauge = shared.metrics.gauge(&format!("live.worker.{w}.queue_depth"));
    let processed_gauge = shared.metrics.gauge(&format!("live.worker.{w}.processed"));
    let windows_counter = shared.metrics.counter("live.windows.closed");
    let events_minrtt = shared.metrics.counter("live.events.minrtt");
    let events_hdratio = shared.metrics.counter("live.events.hdratio");
    let episodes_opened = shared.metrics.counter("live.episodes.opened");
    let episodes_closed = shared.metrics.counter("live.episodes.closed");
    let counters =
        (&windows_counter, &events_minrtt, &events_hdratio, &episodes_opened, &episodes_closed);

    loop {
        // The doorbell sequence is read *before* scanning: anything rung
        // after this load is caught by the park condition below.
        let seq = hub.seq.load(Ordering::Acquire);
        let version = hub.version.load(Ordering::Acquire);
        if version != ctx.seen_version {
            ctx.lanes.append(&mut hub.incoming.lock().expect("incoming lanes"));
            ctx.seen_version = version;
        }
        // Chaos: a scripted panic fires at a clean batch boundary, so
        // recovery is lossless — it exercises the respawn and resume
        // machinery without corrupting window state.
        if !ctx.zombie {
            if let Some(&at) = ctx.pending_panics.first() {
                if ctx.state.processed >= at {
                    ctx.pending_panics.remove(0);
                    panic!("chaos: injected worker {w} panic at {at} records");
                }
            }
        }
        let mut progress = false;
        // Control bypass: drained every round, never behind record lanes.
        loop {
            match control.try_recv() {
                Ok(msg) => {
                    progress = true;
                    handle_control(&ctx.state, &ctx.lanes, msg);
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    ctx.control_dead = true;
                    break;
                }
            }
        }
        // Round-robin over lanes, a bounded burst from each.
        let mut i = 0;
        while i < ctx.lanes.len() {
            let mut taken = 0usize;
            let mut remove = false;
            loop {
                if taken == BATCHES_PER_LANE_ROUND {
                    break;
                }
                // closed must be read before the pop: closed + empty
                // means drained for good.
                let closed = ctx.lanes[i].data.is_closed();
                match ctx.lanes[i].data.try_pop() {
                    Some(batch) => {
                        if ctx.zombie {
                            discard_batch(shared, &mut ctx.lanes[i], batch, &cell);
                        } else {
                            ctx.inflight = Some((i, batch.len() as u64));
                            apply_batch(
                                w,
                                shared,
                                &mut ctx.state,
                                &mut ctx.lanes[i],
                                batch,
                                &cell,
                                &close_hist,
                                counters,
                            );
                            ctx.inflight = None;
                        }
                        progress = true;
                        taken += 1;
                    }
                    None => {
                        remove = closed;
                        break;
                    }
                }
            }
            if remove {
                ctx.lanes.swap_remove(i);
            } else {
                i += 1;
            }
        }
        if progress {
            let depth: usize = ctx.lanes.iter().map(|l| l.data.len()).sum();
            depth_hist.record(depth as u64);
            depth_gauge.set(depth as f64);
            processed_gauge.set(ctx.state.processed as f64);
            continue;
        }
        if ctx.control_dead
            && shared.draining.load(Ordering::Acquire)
            && ctx.lanes.is_empty()
            && hub.version.load(Ordering::Acquire) == ctx.seen_version
        {
            break;
        }
        hub.bell.wait_until(|| {
            hub.seq.load(Ordering::Acquire) != seq
                || hub.version.load(Ordering::Acquire) != ctx.seen_version
        });
    }

    // Drain: every lane closed and drained, control router gone. Flush
    // the remaining windows, then publish the final report.
    if !ctx.zombie {
        for cw in ctx.state.ring.force_close() {
            handle_close(shared, &mut ctx.state, cw, &close_hist, counters);
        }
    }
    processed_gauge.set(ctx.state.processed as f64);
    depth_gauge.set(0.0);
    let mut reports = shared.reports.lock().expect("reports");
    reports.push(ctx.state.snap(0));
    shared.reports_ready.notify_all();
}

fn handle_control(state: &WorkerState, lanes: &[LaneRx], msg: ControlMsg) {
    match msg {
        ControlMsg::Ping(reply) => {
            let _ = reply.send(());
        }
        ControlMsg::Snapshot(reply) => {
            let depth = lanes.iter().map(|l| l.data.len()).sum();
            let _ = reply.send(state.snap(depth));
        }
        ControlMsg::Cells(query, reply) => {
            let windows = state
                .closed
                .iter()
                .filter(|(window, _)| query.contains_window(**window))
                .map(|(window, cells)| (*window, Arc::clone(cells)))
                .collect();
            let _ = reply.send(windows);
        }
    }
}

/// Apply one batch from `lane` into the window ring, then hand the
/// spent `Vec` back through the recycle ring and publish progress
/// (applied counter + lane doorbell) so a parked or syncing reader
/// resumes.
#[allow(clippy::too_many_arguments)]
fn apply_batch(
    w: usize,
    shared: &Shared,
    state: &mut WorkerState,
    lane: &mut LaneRx,
    mut batch: Batch,
    cell: &StatCell,
    close_hist: &edgeperf_obs::Histogram,
    counters: CloseCounters<'_>,
) {
    let token = shared.board.begin(w, state.processed as usize & 0xFFFF);
    let n = batch.len() as u64;
    let mut accepted = 0u64;
    for rec in batch.drain(..) {
        state.processed += 1;
        match state.ring.push(&rec) {
            Ok(closed) => {
                accepted += 1;
                for cw in closed {
                    handle_close(shared, state, cw, close_hist, counters);
                }
            }
            Err(err) => shared.reject(cell, &format!("worker {w}"), &err),
        }
    }
    cell.accepted.fetch_add(accepted, Ordering::Relaxed);
    // Return the drained Vec for reuse; a full recycle ring just drops
    // it (the reader will allocate a fresh one).
    let _ = lane.recycle.try_push(batch);
    lane.applied.fetch_add(n, Ordering::Release);
    lane.bell.notify();
    shared.board.finish(w);
    let _ = token;
}

type CloseCounters<'a> = (
    &'a edgeperf_obs::Counter,
    &'a edgeperf_obs::Counter,
    &'a edgeperf_obs::Counter,
    &'a edgeperf_obs::Counter,
    &'a edgeperf_obs::Counter,
);

fn handle_close(
    shared: &Shared,
    state: &mut WorkerState,
    cw: ClosedWindow,
    close_hist: &edgeperf_obs::Histogram,
    (windows, ev_minrtt, ev_hd, ep_opened, ep_closed): CloseCounters<'_>,
) {
    close_hist.time(|| {
        let before = [
            state.detector.event_count(DegradationMetric::MinRtt),
            state.detector.event_count(DegradationMetric::HdRatio),
        ];
        let changes = state.detector.observe(&cw);
        ev_minrtt.add(state.detector.event_count(DegradationMetric::MinRtt) - before[0]);
        ev_hd.add(state.detector.event_count(DegradationMetric::HdRatio) - before[1]);
        for c in &changes {
            if c.opened {
                ep_opened.inc();
            } else {
                ep_closed.inc();
            }
        }
        state.windows_closed += 1;
        windows.inc();
        state.closed.insert(cw.index, cw.cells.into());
    });
    // Eviction (and spilling) runs outside the close timing: disk I/O
    // must never pollute the close-latency histogram. Spill-then-pop
    // order keeps the invariant that every closed window is in RAM or
    // on disk at all times — a query can at worst see both copies,
    // which the merge path deduplicates (they are bit-identical).
    //
    // Degraded mode: when the store is failing (or skipping while
    // degraded), windows stay in RAM past the retention horizon so no
    // data is dropped while the disk is sick. Retention is only allowed
    // to balloon to 8× before the oldest windows are shed (counted,
    // never silent) to bound memory.
    let retention = shared.config.retention_windows;
    while state.closed.len() > retention {
        let Some(store) = &shared.store else {
            state.closed.pop_first();
            continue;
        };
        let (&index, cells) = state.closed.first_key_value().expect("non-empty map");
        let outcome = store.spill_window(index, cells);
        shared.metrics.gauge("store.degraded").set(u64::from(store.is_degraded()) as f64);
        match outcome {
            Ok(SpillOutcome::Spilled) => {
                state.closed.pop_first();
            }
            other => {
                if let Err(err) = other {
                    shared.metrics.counter("store.spill_errors").inc();
                    let mut log = shared.reject_log.lock().expect("reject log");
                    if log.len() >= 256 {
                        log.pop_front();
                    }
                    log.push_back(format!("spill window {index}: {err}"));
                }
                if state.closed.len() > retention.saturating_mul(8) {
                    state.closed.pop_first();
                    shared.metrics.counter("store.windows_shed").inc();
                } else {
                    // Keep the window in RAM; the next close retries
                    // (or probes, if degraded).
                    break;
                }
            }
        }
    }
}

/// Background compactor: folds small spilled segments into larger
/// time-sorted ones whenever the store crosses its segment threshold.
/// Each merge is one atomic manifest swap, so queries racing a
/// compaction see either the small segments or the merged one — never
/// both, never neither.
fn compactor_loop(shared: &Arc<Shared>, store: &SegmentStore) {
    let merges = shared.metrics.counter("store.compactions");
    let errors = shared.metrics.counter("store.compact_errors");
    let tick = Duration::from_millis(50);
    while !shared.supervisor_stop.load(Ordering::Acquire) {
        if !store.needs_compaction() {
            std::thread::sleep(tick);
            continue;
        }
        match store.compact_once() {
            Ok(true) => merges.inc(),
            Ok(false) => std::thread::sleep(tick),
            Err(_) => {
                errors.inc();
                std::thread::sleep(tick);
            }
        }
    }
}

fn supervisor_loop(shared: &Arc<Shared>) {
    let deadline = Duration::from_millis(shared.config.slow_worker_ms);
    let tick = Duration::from_millis((shared.config.slow_worker_ms / 4).clamp(10, 500));
    let slow_gauge = shared.metrics.gauge("live.workers.slow");
    let slow_marks = shared.metrics.counter("live.workers.slow_marks");
    let mut last_slow = 0usize;
    while !shared.supervisor_stop.load(Ordering::Acquire) {
        let slow = shared.board.overdue(deadline).len();
        slow_gauge.set(slow as f64);
        if slow > last_slow {
            slow_marks.add((slow - last_slow) as u64);
        }
        last_slow = slow;
        std::thread::sleep(tick);
    }
    slow_gauge.set(0.0);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharding_is_deterministic_and_group_stable() {
        let g1 = GroupKey {
            pop: PopId(1),
            prefix: Prefix::new(0x0A000000, 16),
            country: 2,
            continent: 1,
        };
        let g2 = GroupKey { pop: PopId(2), ..g1 };
        assert_eq!(shard_of(&g1, 4), shard_of(&g1, 4));
        // Different worker counts re-shard, but stay in range.
        for workers in 1..8 {
            assert!(shard_of(&g1, workers) < workers);
            assert!(shard_of(&g2, workers) < workers);
        }
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let snap = LiveSnapshot {
            drained: true,
            workers: 4,
            accepted: 100,
            rejected: 3,
            late: 1,
            groups: 7,
            windows_closed: 12,
            open_windows: 2,
            events_minrtt: 5,
            events_hdratio: 1,
            episodes_opened: 2,
            episodes_open: 1,
            reject_reasons: vec![ReasonCount { reason: "late".to_string(), count: 1 }],
            classes_minrtt: vec![ClassCount { class: "episodic".to_string(), groups: 2 }],
        };
        let json = serde_json::to_string(&snap).unwrap();
        let back: LiveSnapshot = serde_json::from_str(&json).unwrap();
        assert!(back.drained);
        assert_eq!(back.accepted, 100);
        assert_eq!(back.late, 1);
        assert_eq!(back.reject_reasons.len(), 1);
        assert_eq!(back.reject_reasons[0].reason, "late");
        assert_eq!(back.classes_minrtt[0].groups, 2);
    }

    #[test]
    fn cell_line_preserves_f64_bits_through_json() {
        let group = GroupKey {
            pop: PopId(3),
            prefix: Prefix::new(0x0A0B0000, 16),
            country: 9,
            continent: 4,
        };
        let line = CellLine {
            window: 42,
            pop: group.pop.0,
            prefix_base: group.prefix.base,
            prefix_len: group.prefix.len,
            country: group.country,
            continent: group.continent,
            rank: 1,
            relationship: "transit".to_string(),
            longer_path: true,
            more_prepended: false,
            n: 1234,
            n_tested: 900,
            bytes: 5_000_000,
            min_rtt_p50: 42.123456789012345,
            min_rtt_var: Some(0.012_345_678_901_234_568),
            hdratio_p50: Some(0.987654321098765),
            hdratio_var: None,
        };
        let json = serde_json::to_string(&line).unwrap();
        let back: CellLine = serde_json::from_str(&json).unwrap();
        assert_eq!(back, line);
        assert_eq!(back.min_rtt_p50.to_bits(), line.min_rtt_p50.to_bits());
        assert_eq!(back.min_rtt_var.unwrap().to_bits(), line.min_rtt_var.unwrap().to_bits());
        assert_eq!(back.group(), group);
    }

    /// Never silent: once a drain has dropped the control router a
    /// worker can no longer be asked, and `cells`/`digest` must say so
    /// like `snapshot` and `stats` do — not answer with whatever rows
    /// the reachable workers had (here none: `{"cells":0}`), which a
    /// fleet `digest` would merge as a whole PoP.
    #[test]
    fn cells_and_digest_answer_draining_once_a_shutdown_began() {
        let parser = |_: &str| Err(EdgeperfError::UnknownDuration);
        let server =
            crate::ServeBuilder::new().workers(2).start(Arc::new(parser)).expect("server starts");
        let mut client = crate::LiveClient::connect(server.addr()).expect("connects");
        // The first connection is id 0; a reply shows its reader is up.
        assert_eq!(client.cells().expect("cells"), []);
        begin_drain(&server.shared, 0);
        let draining = Response::Draining.render();
        assert_eq!(client.stats_json().expect("stats"), draining);
        let refused =
            [client.cells().map(|_| ()), client.digest_query(&CellQuery::default()).map(|_| ())];
        for reply in refused {
            let err = reply.expect_err("a draining server serves no state");
            assert_eq!(err.to_string(), draining);
        }
        assert!(client.shutdown().expect("shutdown").drained);
        assert!(server.join().drained);
    }

    #[test]
    fn stat_cells_roll_up_exactly() {
        let a = StatCell::default();
        let b = StatCell::default();
        a.accepted.fetch_add(10, Ordering::Relaxed);
        a.rejected.fetch_add(2, Ordering::Relaxed);
        a.late.fetch_add(1, Ordering::Relaxed);
        *a.reasons.lock().unwrap().entry("late").or_insert(0) += 1;
        *a.reasons.lock().unwrap().entry("parse").or_insert(0) += 1;
        b.accepted.fetch_add(5, Ordering::Relaxed);
        b.rejected.fetch_add(1, Ordering::Relaxed);
        *b.reasons.lock().unwrap().entry("late").or_insert(0) += 1;
        let mut totals = StatTotals::default();
        totals.add_cell(&a);
        totals.add_cell(&b);
        assert_eq!(totals.accepted, 15);
        assert_eq!(totals.rejected, 3);
        assert_eq!(totals.late, 1);
        assert_eq!(totals.reasons["late"], 2);
        assert_eq!(totals.reasons["parse"], 1);
    }
}
