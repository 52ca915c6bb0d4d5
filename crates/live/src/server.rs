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
//! Every record of a user group flows through exactly one worker (groups
//! are sharded by the deterministic FxHash), and one connection's records
//! arrive in stream order — the per-lane FIFO preserves it — so per-cell
//! digest insertion order is independent of the worker count, which is
//! what makes live windows bit-identical to one serial ring's
//! ([`crate::serial_cells`]) — what the agreement suites test. The
//! offline [`edgeperf_analysis::StreamingDataset`] closes a study's cells
//! into the same rows as one ring a prefix, bit for bit: the
//! `live_agreement` suite of `edgeperf-bench` tests that too.
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
//! ## Module map
//!
//! This file is the root: `Shared`, [`LiveServer::start`],
//! [`ServerHandle`] and the drain. Each job the server does is a module
//! under `server/`, and the fields of `Shared` a job owns are private to
//! its module — a reader cannot touch the session table, a worker cannot
//! touch the connection list:
//!
//! | module | thread | what it owns |
//! |---|---|---|
//! | `conn` | acceptor, one reader per connection | `Shared::conns`; the one owner of a connection, wire negotiation, the frame and line loops |
//! | `lanes` | reader (tx end), worker (rx end) | `Shared::hubs`; the SPSC lanes and their sync barrier |
//! | `session` | reader | `Shared::resume`; resume acks |
//! | `query` | reader | `Shared::router`; control fan-out, `cells` |
//! | `worker` | one per worker | rings, detectors and closed windows (thread-local, not in `Shared`) |
//! | `stats` | whoever counts | `Shared::stats`; accept/reject cells, their roll-up, and the registry's mirror of the account |
//! | `background` | compactor, supervisor | nothing; they watch the store and the heartbeat board |
//!
//! The wire types a reply carries ([`LiveSnapshot`], `CellLine`, …) live
//! in [`crate::protocol`] beside the `Response` that renders them.

mod background;
mod conn;
mod lanes;
mod query;
mod session;
mod stats;
mod worker;

pub use lanes::shard_of;

use crate::config::LiveConfig;
use crate::protocol::{LiveSnapshot, Response};
use crate::record::LineParser;
use crate::store::SegmentStore;
use conn::Conns;
use edgeperf_core::EdgeperfError;
use edgeperf_obs::{HeartbeatBoard, Metrics};
use lanes::{Hubs, ReaderLanes};
use query::Router;
use session::Sessions;
use stats::{Stats, WorkerSnap};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::channel;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// State shared by the acceptor, readers, workers and the background
/// threads. The first block is context every thread reads; each field
/// after it belongs to the module its type comes from.
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
    hubs: Hubs,
    /// Control senders, one per worker; closed once draining.
    router: Router,
    /// Accept/reject cells, one per worker and per reader.
    stats: Stats,
    /// Open connections and their reader threads.
    conns: Conns,
    /// Resume sessions: cumulative consumed-record acks per session id.
    resume: Sessions,

    /// Final per-worker reports, filled as workers drain ([`drain`]
    /// waits for all of them).
    reports: Mutex<Vec<WorkerSnap>>,
    reports_ready: Condvar,
    final_snapshot: Mutex<Option<LiveSnapshot>>,
}

impl Shared {
    /// A worker's last word: its state after the final windows closed.
    fn report(&self, snap: WorkerSnap) {
        self.reports.lock().expect("reports").push(snap);
        self.reports_ready.notify_all();
    }
}

/// Write one reply line.
fn send(mut out: impl Write, reply: &Response) -> io::Result<()> {
    out.write_all(reply.render().as_bytes())?;
    out.write_all(b"\n")
}

/// A running [`LiveServer`]: the bound address plus every thread handle.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
    supervisor: JoinHandle<()>,
    compactor: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The actually-bound listen address (resolves `:0` binds).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Block until a client drains the server (the `shutdown` command),
    /// join every thread, and return the final snapshot.
    pub fn join(self) -> LiveSnapshot {
        let _ = self.acceptor.join();
        self.shared.conns.join_readers();
        for h in self.workers {
            let _ = h.join();
        }
        self.shared.supervisor_stop.store(true, Ordering::Release);
        for h in [Some(self.supervisor), self.compactor].into_iter().flatten() {
            let _ = h.join();
        }
        // The compactor may have merged once more since the drain
        // published the account.
        stats::publish(&self.shared, &self.shared.reports.lock().expect("reports"));
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
            hubs: Hubs::new(workers),
            router: Router::default(),
            stats: Stats::new(workers),
            conns: Conns::default(),
            resume: Sessions::new(),
            reports: Mutex::new(Vec::new()),
            reports_ready: Condvar::new(),
            final_snapshot: Mutex::new(None),
            config,
        });

        // Thread spawns can fail (EAGAIN under thread/pid limits); a
        // failure here aborts startup with a typed error and unwinds
        // the workers already running instead of panicking.
        type Body = Box<dyn FnOnce(&Arc<Shared>) + Send>;
        let spawn = |what: &'static str, name: String, body: Body| {
            let shared_t = Arc::clone(&shared);
            std::thread::Builder::new().name(name).spawn(move || body(&shared_t)).map_err(|e| {
                shared.draining.store(true, Ordering::Release);
                shared.router.close();
                shared.hubs.ring_all();
                EdgeperfError::Spawn { what, message: e.to_string() }
            })
        };

        let mut worker_handles = Vec::with_capacity(workers);
        let mut control_senders = Vec::with_capacity(workers);
        for w in 0..workers {
            let (control_tx, control_rx) = channel();
            control_senders.push(control_tx);
            let body: Body = Box::new(move |shared| worker::worker_thread(w, shared, &control_rx));
            worker_handles.push(spawn("worker", format!("live-worker-{w}"), body)?);
        }
        shared.router.open(control_senders);

        let supervisor = spawn(
            "supervisor",
            "live-supervisor".to_string(),
            Box::new(|shared| background::supervisor_loop(shared)),
        )?;
        let compactor = match shared.store.clone() {
            Some(store) => Some(spawn(
                "compactor",
                "live-compactor".to_string(),
                Box::new(move |shared| background::compactor_loop(shared, &store)),
            )?),
            None => None,
        };
        let acceptor = spawn(
            "acceptor",
            "live-acceptor".to_string(),
            Box::new(move |shared| conn::acceptor_loop(listener, shared, parser)),
        )?;

        Ok(ServerHandle { addr, shared, acceptor, workers: worker_handles, supervisor, compactor })
    }
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
    shared.conns.cut_all_but(self_id);
    shared.router.close();
    shared.hubs.ring_all();
}

/// Drain: [`begin_drain`], retire the caller's lanes, wait for the
/// workers to flush, and build the final snapshot.
fn drain(shared: &Shared, self_id: u64, lanes: ReaderLanes) -> LiveSnapshot {
    begin_drain(shared, self_id);
    lanes.retire(shared);
    let workers = shared.config.workers;
    let mut reports = shared.reports.lock().expect("reports");
    while reports.len() < workers {
        reports = shared.reports_ready.wait(reports).expect("reports wait");
    }
    let snap = shared.stats.snapshot_from(&reports, true);
    stats::publish(shared, &reports);
    drop(reports);
    shared.supervisor_stop.store(true, Ordering::Release);
    let mut slot = shared.final_snapshot.lock().expect("final snapshot");
    if slot.is_none() {
        *slot = Some(snap.clone());
    }
    snap
}

// The tests below predate the split into `server/` and stay as they were
// written; these are the names they reach through `super::*`.
#[cfg(test)]
use {
    crate::protocol::{CellLine, ClassCount, ReasonCount},
    edgeperf_analysis::GroupKey,
    edgeperf_routing::{PopId, Prefix},
    stats::{StatCell, StatTotals},
};

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
    /// worker can no longer be asked, and `cells` must say so like
    /// `snapshot` and `stats` do — not answer with whatever rows the
    /// reachable workers had (here none: `{"cells":0}`), which a fleet
    /// `cells` would merge as a whole PoP.
    #[test]
    fn cells_answer_draining_once_a_shutdown_began() {
        let parser = |_: &str| Err(EdgeperfError::UnknownDuration);
        let config = LiveConfig { workers: 2, ..LiveConfig::default() };
        let server = LiveServer::start(config, Arc::new(parser), Metrics::disabled())
            .expect("server starts");
        let mut client = crate::LiveClient::connect(server.addr()).expect("connects");
        // The first connection is id 0; a reply shows its reader is up.
        assert_eq!(client.cells().expect("cells"), []);
        begin_drain(&server.shared, 0);
        let draining = Response::Draining.render();
        assert_eq!(client.stats_json().expect("stats"), draining);
        // ... and so must `snapshot()`: the server's word, not serde's
        // complaint about the fields an error reply lacks.
        let refused = [client.cells().map(|_| ()), client.snapshot().map(|_| ())];
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
        *a.reasons.lock().unwrap().entry("late").or_insert(0) += 1;
        *a.reasons.lock().unwrap().entry("parse").or_insert(0) += 1;
        b.accepted.fetch_add(5, Ordering::Relaxed);
        *b.reasons.lock().unwrap().entry("late").or_insert(0) += 1;
        let mut totals = StatTotals::default();
        totals.add_cell(&a);
        totals.add_cell(&b);
        assert_eq!(totals.accepted, 15);
        assert_eq!(totals.reasons["late"], 2);
        assert_eq!(totals.reasons["parse"], 1);
    }
}
