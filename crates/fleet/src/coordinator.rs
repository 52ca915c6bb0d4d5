//! The fleet coordinator: hosts N in-process PoPs, owns the catchment,
//! and serves fleet-level queries by fanning the typed live protocol
//! out to every alive node and merging the replies.
//!
//! Control plane vs data plane: on its own socket the coordinator
//! answers the live protocol's `ping` / `snapshot` / `cells` / `stats` /
//! `metrics` / `shutdown` — parsed by [`Request::parse`], as a PoP parses
//! them — for the fleet as a whole, plus three verbs only it has: `pops`,
//! `home` and `kill` (each verb optionally prefixed `fleet `). **Records
//! never flow through it** — clients ask `home` for their PoP and then
//! connect to that PoP's ingest socket directly, exactly as anycast
//! delivers client packets straight to the catchment PoP. The client side
//! is therefore a [`LiveClient`] pointed at the coordinator;
//! [`FleetClient`] adds the three verbs to one.
//!
//! Fan-out reuses one persistent [`LiveClient`] per PoP across query
//! rounds (one connection per fan-out round, not per request);
//! `fleet.fanout.connects` / `fleet.fanout.reconnects` counters make
//! the reuse observable and testable.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Instant;

use edgeperf_live::{
    CellQuery, LineParser, LiveClient, LiveConfig, LiveServer, LiveSnapshot, ProtocolError,
    Request, Response, ServerHandle,
};
use edgeperf_obs::Metrics;
use serde::{Deserialize, Serialize};

use crate::catchment::{CatchmentModel, ClientKey};
use crate::merge::{merge_cells, merge_snapshots};
use crate::FleetError;

/// Fleet geometry and placement.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of PoPs to host.
    pub pops: u16,
    /// Worker threads per PoP.
    pub workers: usize,
    /// Coordinator listen address (`host:0` picks a free port).
    pub addr: String,
    /// Window width per PoP, in event-time milliseconds.
    pub window_ms: f64,
    /// Allowed lateness per PoP, in event-time milliseconds.
    pub lateness_ms: f64,
    /// Closed windows each PoP retains in RAM.
    pub retention_windows: usize,
    /// Catchment seed (tie-break jitter).
    pub seed: u64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            pops: 2,
            workers: 2,
            addr: "127.0.0.1:0".to_string(),
            window_ms: 900_000.0,
            lateness_ms: 60_000.0,
            retention_windows: 64,
            seed: 7,
        }
    }
}

/// One PoP's wire row in the `pops` reply.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetPopInfo {
    /// PoP id.
    pub pop: u16,
    /// The PoP's ingest address (clients connect here).
    pub addr: String,
    /// Still in the catchment.
    pub alive: bool,
    /// Continent ring position.
    pub continent: u8,
    /// Capacity weight.
    pub capacity: f64,
    /// Fraction of observed client keys homed here.
    pub share: f64,
}

/// The `kill` reply: what the failover did.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct KillReport {
    /// The PoP removed from the fleet.
    pub killed: u16,
    /// Observed client keys re-homed onto survivors.
    pub rehomed: u64,
    /// PoPs still alive.
    pub alive: u64,
}

struct PopState {
    pop: u16,
    addr: SocketAddr,
    alive: AtomicBool,
    handle: Mutex<Option<ServerHandle>>,
    /// The persistent fan-out connection, opened on first use.
    link: Mutex<Option<LiveClient>>,
}

/// Catchment state the coordinator mutates: the model plus every client
/// key it has homed so far (the set it must re-home after a kill).
struct CatchmentState {
    model: CatchmentModel,
    observed: BTreeMap<ClientKey, u16>,
}

struct FleetShared {
    /// The coordinator's own listen address (the shutdown path
    /// self-connects to pop the acceptor out of its blocking accept).
    addr: SocketAddr,
    pops: Vec<PopState>,
    catchment: Mutex<CatchmentState>,
    metrics: Metrics,
    shutting_down: AtomicBool,
    final_snapshot: Mutex<Option<LiveSnapshot>>,
}

/// The hosting side: starts the PoPs and the coordinator socket.
pub struct Fleet;

/// A running fleet; join to collect the merged drained snapshot.
pub struct FleetHandle {
    addr: SocketAddr,
    pop_addrs: Vec<SocketAddr>,
    accept_thread: Option<thread::JoinHandle<()>>,
    shared: Arc<FleetShared>,
}

impl Fleet {
    /// Host `config.pops` in-process PoPs (each a full `edgeperf serve`
    /// instance on a loopback port, with its own private metrics
    /// registry) and the coordinator socket. `metrics` receives the
    /// coordinator's `fleet.*` counters and gauges.
    pub fn start(
        config: &FleetConfig,
        parser: Arc<dyn LineParser>,
        metrics: &Metrics,
    ) -> Result<FleetHandle, FleetError> {
        if config.pops == 0 {
            return Err(FleetError::Config("a fleet needs at least one PoP".to_string()));
        }
        // Bind first: a taken address fails before any PoP runs, and a
        // later failure stops the PoPs already started.
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let mut pops = Vec::with_capacity(usize::from(config.pops));
        for pop in 0..config.pops {
            let pop_config = LiveConfig {
                workers: config.workers,
                window_ms: config.window_ms,
                lateness_ms: config.lateness_ms,
                retention_windows: config.retention_windows,
                ..LiveConfig::default()
            };
            let handle = LiveServer::start(pop_config, Arc::clone(&parser), Metrics::enabled())
                .map_err(|e| {
                    stop_pops(&pops);
                    FleetError::Config(format!("PoP {pop}: {e}"))
                })?;
            pops.push(PopState {
                pop,
                addr: handle.addr(),
                alive: AtomicBool::new(true),
                handle: Mutex::new(Some(handle)),
                link: Mutex::new(None),
            });
        }
        let pop_addrs = pops.iter().map(|p| p.addr).collect();
        let shared = Arc::new(FleetShared {
            addr,
            pops,
            catchment: Mutex::new(CatchmentState {
                model: CatchmentModel::new(config.pops, config.seed),
                observed: BTreeMap::new(),
            }),
            metrics: metrics.clone(),
            shutting_down: AtomicBool::new(false),
            final_snapshot: Mutex::new(None),
        });
        shared.metrics.gauge("fleet.pops.alive").set(f64::from(config.pops));
        let accept_shared = Arc::clone(&shared);
        let accept_thread = thread::Builder::new()
            .name("fleet-accept".to_string())
            .spawn(move || accept_loop(listener, accept_shared))
            .map_err(|e| {
                stop_pops(&shared.pops);
                FleetError::Io(e)
            })?;
        Ok(FleetHandle { addr, pop_addrs, accept_thread: Some(accept_thread), shared })
    }
}

/// Shut down and join every PoP server in `pops` still running.
fn stop_pops(pops: &[PopState]) {
    for pop in pops {
        if let Some(handle) = pop.handle.lock().expect("lock").take() {
            let _ = handle.shutdown_and_join();
        }
    }
}

impl FleetHandle {
    /// The coordinator's listen address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Every PoP's ingest address, by PoP id.
    pub fn pop_addrs(&self) -> &[SocketAddr] {
        &self.pop_addrs
    }

    /// Wait for `shutdown` and return the merged drained snapshot.
    pub fn join(mut self) -> LiveSnapshot {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        self.shared.final_snapshot.lock().expect("lock").take().unwrap_or_default()
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<FleetShared>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => break,
        };
        if shared.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        let conn_shared = Arc::clone(&shared);
        let _ = thread::Builder::new()
            .name("fleet-conn".to_string())
            .spawn(move || handle_connection(stream, conn_shared));
    }
}

fn handle_connection(stream: TcpStream, shared: Arc<FleetShared>) {
    // As on a PoP's sockets: a reply of a buffer or more goes out as two
    // writes (the rows, then the newline), and with Nagle on the newline
    // waits for the client's delayed ACK (~40 ms).
    let _ = stream.set_nodelay(true);
    let reader = match stream.try_clone() {
        Ok(s) => BufReader::new(s),
        Err(_) => return,
    };
    let mut writer = BufWriter::new(stream);
    for line in reader.lines() {
        let line = match line {
            Ok(l) => l,
            Err(_) => break,
        };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        // The `fleet ` prefix is optional so both `fleet cells` (the
        // documented form) and bare `cells` work.
        let command = line.strip_prefix("fleet ").unwrap_or(line).trim();
        if command == "quit" {
            break;
        }
        let shutdown = command == "shutdown";
        let reply = dispatch(command, &shared);
        let sent = writer
            .write_all(reply.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .and_then(|()| writer.flush());
        if shutdown {
            // Pop the acceptor out of its blocking accept so join()
            // returns; it re-checks `shutting_down` after every accept.
            // Only after the reply is flushed: `edgeperf fleet` exits as
            // soon as join() returns, and must not outrun the reply.
            let _ = TcpStream::connect(shared.addr);
        }
        if sent.is_err() || shutdown {
            break;
        }
    }
}

fn dispatch(command: &str, shared: &FleetShared) -> String {
    let (verb, args) = match command.split_once(' ') {
        Some((v, a)) => (v, a.trim()),
        None => (command, ""),
    };
    // The coordinator's own three verbs, then the live protocol: a verb a
    // PoP also answers is parsed exactly as a PoP parses it.
    let result = match (verb, args) {
        ("pops", "") => serve_pops(shared),
        ("home", _) => serve_home(shared, args),
        ("kill", _) => serve_kill(shared, args),
        _ => match Request::parse(command) {
            Ok(Request::Ping) => Ok("pong".to_string()),
            Ok(Request::Snapshot) => fleet_snapshot(shared).map(|s| render_snapshot(&s)),
            Ok(Request::Cells(query)) => serve_cells(shared, &query),
            Ok(Request::Stats) => serve_stats(shared),
            Ok(Request::Metrics) => serde_json::to_string(&shared.metrics.snapshot())
                .map_err(|e| FleetError::Io(io::Error::other(e))),
            Ok(Request::Shutdown) => serve_shutdown(shared),
            // The PoP's own words for an argument it would refuse too.
            Err(err @ ProtocolError::BadArgument { .. }) => return err.render(),
            // A per-PoP verb (`store`, `hello`, …) is no fleet verb.
            Ok(_) | Err(_) => {
                Err(FleetError::Protocol(ProtocolError::UnknownCommand(command.to_string())))
            }
        },
    };
    result.unwrap_or_else(|err| err.render())
}

fn render_snapshot(snapshot: &LiveSnapshot) -> String {
    serde_json::to_string(snapshot).expect("snapshot serializes")
}

fn serve_pops(shared: &FleetShared) -> Result<String, FleetError> {
    let state = shared.catchment.lock().expect("lock");
    let total = state.observed.len().max(1) as f64;
    let infos: Vec<FleetPopInfo> = shared
        .pops
        .iter()
        .map(|p| {
            let site = state.model.sites()[usize::from(p.pop)];
            let homed = state.observed.values().filter(|home| **home == p.pop).count();
            FleetPopInfo {
                pop: p.pop,
                addr: p.addr.to_string(),
                alive: p.alive.load(Ordering::SeqCst),
                continent: site.continent,
                capacity: site.capacity,
                share: homed as f64 / total,
            }
        })
        .collect();
    serde_json::to_string(&infos).map_err(|e| FleetError::Io(io::Error::other(e)))
}

fn parse_client_key(args: &str) -> Result<ClientKey, FleetError> {
    let bad = |msg: &str| FleetError::Config(format!("home: {msg}, got `{args}`"));
    let mut parts = args.split_whitespace();
    let prefix = parts.next().ok_or_else(|| bad("expected `BASE/LEN COUNTRY CONTINENT`"))?;
    let (base, len) = prefix.split_once('/').ok_or_else(|| bad("expected prefix as `BASE/LEN`"))?;
    let key = ClientKey {
        prefix_base: base.parse().map_err(|_| bad("prefix base must be a u32"))?,
        prefix_len: len.parse().map_err(|_| bad("prefix length must be a u8"))?,
        country: parts
            .next()
            .and_then(|c| c.parse().ok())
            .ok_or_else(|| bad("country must be a u16"))?,
        continent: parts
            .next()
            .and_then(|c| c.parse().ok())
            .ok_or_else(|| bad("continent must be a u8"))?,
    };
    if parts.next().is_some() {
        return Err(bad("trailing arguments"));
    }
    Ok(key)
}

fn serve_home(shared: &FleetShared, args: &str) -> Result<String, FleetError> {
    let key = parse_client_key(args)?;
    let mut state = shared.catchment.lock().expect("lock");
    let pop = state.model.home(&key).ok_or(FleetError::NoPopsAlive)?;
    state.observed.insert(key, pop);
    update_share_gauges(shared, &state);
    let addr = shared.pops[usize::from(pop)].addr;
    Ok(format!("{{\"pop\":{pop},\"addr\":\"{addr}\"}}"))
}

fn update_share_gauges(shared: &FleetShared, state: &CatchmentState) {
    if !shared.metrics.is_enabled() {
        return;
    }
    let total = state.observed.len().max(1) as f64;
    let mut counts = vec![0u64; shared.pops.len()];
    for home in state.observed.values() {
        counts[usize::from(*home)] += 1;
    }
    for (pop, count) in counts.iter().enumerate() {
        shared.metrics.gauge(&format!("fleet.catchment.share.pop{pop}")).set(*count as f64 / total);
    }
}

/// Fan a closure out over every alive PoP on its persistent link,
/// reconnecting once per PoP on transport errors.
fn fan_out<R>(
    shared: &FleetShared,
    op: impl Fn(&mut LiveClient) -> io::Result<R>,
) -> Result<Vec<(u16, R)>, FleetError> {
    let mut out = Vec::new();
    for pop in &shared.pops {
        if !pop.alive.load(Ordering::SeqCst) {
            continue;
        }
        out.push((pop.pop, with_link(shared, pop, &op)?));
    }
    if out.is_empty() {
        return Err(FleetError::NoPopsAlive);
    }
    Ok(out)
}

fn with_link<R>(
    shared: &FleetShared,
    pop: &PopState,
    op: &impl Fn(&mut LiveClient) -> io::Result<R>,
) -> Result<R, FleetError> {
    let fail = |source: io::Error| FleetError::Pop { pop: pop.pop, source };
    let mut link = pop.link.lock().expect("lock");
    if link.is_none() {
        *link = Some(LiveClient::connect(pop.addr).map_err(fail)?);
        shared.metrics.counter("fleet.fanout.connects").inc();
    }
    match op(link.as_mut().expect("link populated")) {
        Ok(r) => Ok(r),
        Err(_) => {
            // One reconnect per round: the link may have idled out.
            *link = None;
            *link = Some(LiveClient::connect(pop.addr).map_err(fail)?);
            shared.metrics.counter("fleet.fanout.connects").inc();
            shared.metrics.counter("fleet.fanout.reconnects").inc();
            match op(link.as_mut().expect("link populated")) {
                Ok(r) => Ok(r),
                Err(e) => {
                    *link = None;
                    Err(fail(e))
                }
            }
        }
    }
}

/// Fan `cells` out to every alive PoP and merge the rows into the
/// global canonical view.
fn serve_cells(shared: &FleetShared, query: &CellQuery) -> Result<String, FleetError> {
    shared.metrics.counter("fleet.queries.cells").inc();
    let per_pop = fan_out(shared, |client| client.cells_query(query))?;
    let started = Instant::now();
    let merged = merge_cells(per_pop)?;
    let elapsed = started.elapsed();
    shared.metrics.gauge("fleet.merge.last_ms").set(elapsed.as_secs_f64() * 1e3);
    shared.metrics.histogram("fleet.merge.us").record(elapsed.as_micros() as u64);
    Ok(Response::Cells(merged).render())
}

fn fleet_snapshot(shared: &FleetShared) -> Result<LiveSnapshot, FleetError> {
    shared.metrics.counter("fleet.queries.snapshot").inc();
    let per_pop = fan_out(shared, |client| client.snapshot())?;
    let snaps: Vec<LiveSnapshot> = per_pop.into_iter().map(|(_, s)| s).collect();
    Ok(merge_snapshots(&snaps))
}

fn serve_stats(shared: &FleetShared) -> Result<String, FleetError> {
    let per_pop = fan_out(shared, |client| client.stats_json())?;
    let mut out = String::from("{\"pops\":[");
    for (i, (pop, stats)) in per_pop.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{{\"pop\":{pop},\"stats\":{stats}}}"));
    }
    out.push_str("]}");
    Ok(out)
}

fn serve_kill(shared: &FleetShared, args: &str) -> Result<String, FleetError> {
    let pop: u16 = args
        .trim()
        .parse()
        .map_err(|_| FleetError::Config(format!("kill: expected a PoP id, got `{args}`")))?;
    let report = kill_pop(shared, pop)?;
    Ok(serde_json::to_string(&report).expect("report serializes"))
}

/// Remove a PoP: stop its server (its un-drained state is lost, as a
/// real PoP failure loses un-acked state), drop it from the catchment,
/// and re-home every observed client key it owned onto survivors.
/// Clients then resume via the exactly-once session protocol against
/// their new home.
fn kill_pop(shared: &FleetShared, pop: u16) -> Result<KillReport, FleetError> {
    let state = shared.pops.get(usize::from(pop)).ok_or(FleetError::UnknownPop { pop })?;
    let mut catchment = shared.catchment.lock().expect("lock");
    if !state.alive.load(Ordering::SeqCst) {
        return Err(FleetError::PopDead { pop });
    }
    if catchment.model.alive_count() <= 1 {
        return Err(FleetError::LastPop { pop });
    }
    // Stop the node first so nothing acks after the catchment change.
    // The returned snapshot is deliberately discarded: a killed PoP's
    // state is gone, and correctness comes from clients replaying the
    // full per-group substream into the new home.
    state.alive.store(false, Ordering::SeqCst);
    *state.link.lock().expect("lock") = None;
    if let Some(handle) = state.handle.lock().expect("lock").take() {
        let _ = handle.shutdown_and_join();
    }
    catchment.model.kill(pop);
    let orphaned: Vec<ClientKey> =
        catchment.observed.iter().filter(|(_, home)| **home == pop).map(|(k, _)| *k).collect();
    let mut rehomed = 0u64;
    for key in orphaned {
        let new_home = catchment.model.home(&key).ok_or(FleetError::NoPopsAlive)?;
        catchment.observed.insert(key, new_home);
        rehomed += 1;
    }
    update_share_gauges(shared, &catchment);
    let alive = catchment.model.alive_count() as u64;
    shared.metrics.counter("fleet.failover.kills").inc();
    shared.metrics.counter("fleet.failover.rehomed").add(rehomed);
    shared.metrics.gauge("fleet.pops.alive").set(alive as f64);
    Ok(KillReport { killed: pop, rehomed, alive })
}

fn serve_shutdown(shared: &FleetShared) -> Result<String, FleetError> {
    shared.shutting_down.store(true, Ordering::SeqCst);
    let mut snaps = Vec::new();
    for pop in &shared.pops {
        if !pop.alive.load(Ordering::SeqCst) {
            continue;
        }
        pop.alive.store(false, Ordering::SeqCst);
        *pop.link.lock().expect("lock") = None;
        if let Some(handle) = pop.handle.lock().expect("lock").take() {
            snaps.push(handle.shutdown_and_join().map_err(FleetError::Io)?);
        }
    }
    let merged = merge_snapshots(&snaps);
    *shared.final_snapshot.lock().expect("lock") = Some(merged.clone());
    shared.metrics.gauge("fleet.pops.alive").set(0.0);
    Ok(render_snapshot(&merged))
}

/// A [`LiveClient`] connected to a coordinator: `ping`, `snapshot`,
/// `cells_query`, `stats_json`, `metrics_json` and `shutdown` are the
/// live client's own (the coordinator answers them fleet-wide); this
/// adds the three verbs only a coordinator has.
pub struct FleetClient(LiveClient);

impl Deref for FleetClient {
    type Target = LiveClient;

    fn deref(&self) -> &LiveClient {
        &self.0
    }
}

impl DerefMut for FleetClient {
    fn deref_mut(&mut self) -> &mut LiveClient {
        &mut self.0
    }
}

impl FleetClient {
    /// Connect to a coordinator.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<FleetClient> {
        LiveClient::connect(addr).map(FleetClient)
    }

    /// The PoP table with liveness and catchment shares.
    pub fn pops(&mut self) -> io::Result<Vec<FleetPopInfo>> {
        from_json(&self.request("fleet pops")?)
    }

    /// Home a client key; returns (PoP id, ingest address).
    pub fn home(&mut self, key: &ClientKey) -> io::Result<(u16, String)> {
        #[derive(Deserialize)]
        struct Home {
            pop: u16,
            addr: String,
        }
        let Home { pop, addr } = from_json(&self.request(&format!(
            "fleet home {}/{} {} {}",
            key.prefix_base, key.prefix_len, key.country, key.continent
        ))?)?;
        Ok((pop, addr))
    }

    /// Kill a PoP and re-home its catchment.
    pub fn kill(&mut self, pop: u16) -> io::Result<KillReport> {
        from_json(&self.request(&format!("fleet kill {pop}"))?)
    }
}

fn from_json<T: Deserialize>(reply: &str) -> io::Result<T> {
    serde_json::from_str(reply).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgeperf_core::EdgeperfError;
    use edgeperf_live::LiveRecord;
    use edgeperf_routing::Relationship;

    /// A minimal wire format for tests: `ts base/len country continent rtt`.
    fn test_parser() -> Arc<dyn LineParser> {
        Arc::new(|line: &str| {
            let mut it = line.split_whitespace();
            let mut next =
                || it.next().ok_or_else(|| EdgeperfError::Json { message: "short".into() });
            let ts: f64 =
                next()?.parse().map_err(|_| EdgeperfError::Json { message: "ts".into() })?;
            let prefix = next()?;
            let (base, len) =
                prefix.split_once('/').ok_or(EdgeperfError::Json { message: "prefix".into() })?;
            let country = next()?.parse().unwrap_or(0);
            let continent = next()?.parse().unwrap_or(0);
            let rtt: f64 = next()?.parse().unwrap_or(10.0);
            Ok(LiveRecord {
                ts_ms: ts,
                group: edgeperf_analysis::GroupKey {
                    pop: edgeperf_routing::PopId(0),
                    prefix: edgeperf_routing::Prefix {
                        base: base.parse().unwrap_or(0),
                        len: len.parse().unwrap_or(24),
                    },
                    country,
                    continent,
                },
                route_rank: 0,
                relationship: Relationship::Transit,
                longer_path: false,
                more_prepended: false,
                min_rtt_ms: rtt,
                hdratio: Some(0.9),
                bytes: 1000,
            })
        })
    }

    fn start_fleet(pops: u16) -> (FleetHandle, FleetClient) {
        let config = FleetConfig {
            pops,
            workers: 1,
            window_ms: 1000.0,
            lateness_ms: 500.0,
            ..FleetConfig::default()
        };
        let handle = Fleet::start(&config, test_parser(), &Metrics::enabled()).unwrap();
        let client = FleetClient::connect(handle.addr()).unwrap();
        (handle, client)
    }

    #[test]
    fn ping_pops_and_home_round_trip() {
        let (handle, mut client) = start_fleet(3);
        client.ping().unwrap();
        let pops = client.pops().unwrap();
        assert_eq!(pops.len(), 3);
        assert!(pops.iter().all(|p| p.alive));
        let key = ClientKey { prefix_base: 0x0A00_0100, prefix_len: 24, country: 1, continent: 2 };
        let (pop, addr) = client.home(&key).unwrap();
        assert!(usize::from(pop) < 3);
        assert_eq!(addr, handle.pop_addrs()[usize::from(pop)].to_string());
        // Homing is stable across calls.
        assert_eq!(client.home(&key).unwrap().0, pop);
        client.shutdown().unwrap();
        let merged = handle.join();
        assert!(merged.drained);
    }

    #[test]
    fn fan_out_reuses_one_connection_per_pop() {
        let (handle, mut client) = start_fleet(2);
        for _ in 0..5 {
            let snap = client.snapshot().unwrap();
            assert_eq!(snap.workers, 2);
        }
        let metrics = client.metrics_json().unwrap();
        // 5 snapshot rounds over 2 PoPs must open exactly 2 links.
        assert!(
            metrics.contains("\"fleet.fanout.connects\":2")
                || metrics.contains("\"fleet.fanout.connects\": 2"),
            "expected 2 fan-out connects, metrics: {metrics}"
        );
        client.shutdown().unwrap();
        handle.join();
    }

    #[test]
    fn kill_rehomes_and_refuses_the_last_pop() {
        let (handle, mut client) = start_fleet(2);
        // Observe some keys so the kill has something to re-home.
        for g in 0u32..64 {
            let key = ClientKey {
                prefix_base: 0x0A00_0000 + (g << 8),
                prefix_len: 24,
                country: (g % 37) as u16,
                continent: (g % 6) as u8,
            };
            client.home(&key).unwrap();
        }
        let report = client.kill(0).unwrap();
        assert_eq!(report.killed, 0);
        assert_eq!(report.alive, 1);
        assert!(report.rehomed > 0, "PoP 0 should have owned some keys");
        // All re-homed keys now land on the survivor.
        let key = ClientKey { prefix_base: 0x0A00_0000, prefix_len: 24, country: 0, continent: 0 };
        assert_eq!(client.home(&key).unwrap().0, 1);
        // Double kill is a typed error; killing the survivor is refused.
        assert!(client.kill(0).unwrap_err().to_string().contains("dead"));
        assert!(client.kill(1).unwrap_err().to_string().contains("last alive"));
        assert!(client.kill(9).unwrap_err().to_string().contains("unknown PoP"));
        client.shutdown().unwrap();
        handle.join();
    }
}
