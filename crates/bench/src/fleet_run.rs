//! Fleet load generation: catchment-routed, chunk-barriered replay
//! across a multi-PoP fleet, with mid-run PoP failover, its merged view
//! proven bit-identical to the serial oracle over the settled horizon
//! ([`crate::loadgen::settled_horizon`]).
//!
//! Routing mirrors anycast: each user group's client key is homed via
//! the coordinator's `home` command, and the group's full record
//! substream is replayed straight to that PoP's ingest socket as one
//! exactly-once session, through the replay engine every `loadgen` mode
//! shares (`crate::loadgen::replay_in_chunks`). The replay is chunked on
//! global event time — all streams quiesce at each boundary before any
//! advances — so cross-PoP skew stays within half the lateness bound and
//! nothing is ever late.
//!
//! **Failover.** A [`FleetChaosPlan`] kill fires at a chunk barrier:
//! the coordinator stops the PoP (its un-drained state is discarded)
//! and re-homes its catchment; for every survivor inheriting groups
//! the replayer opens a *new* session whose payload is the inherited
//! groups' full substream from record zero. The server acks zero for
//! an unknown session, so resume naturally replays everything, and the
//! new home rebuilds exactly the per-group insertion sequences one
//! serial pass sees. The lateness budget that makes the
//! catch-up safe: a kill at event time `T` is only valid while
//! `T <= lateness/2`, because the survivors' watermark at the kill
//! barrier is then `<= T + lateness/2 - lateness <= 0` — older than
//! every inherited record.

use std::collections::BTreeMap;
use std::io;
use std::sync::Arc;
use std::time::Instant;

use edgeperf::serve::WireParser;
use edgeperf_core::HD_GOODPUT_BPS;
use edgeperf_fleet::{ClientKey, Fleet, FleetChaosPlan, FleetClient, FleetConfig};
use edgeperf_live::{first_difference, WireMode};
use edgeperf_obs::Metrics;
use serde::{Deserialize, Serialize};

use crate::loadgen::{
    chunk_len, differs_from_serial, first_violated, generate_lines, jsonl_payloads,
    replay_in_chunks, serial_rows, session_id, settled_horizon, settled_query, LoadgenConfig,
    MetricsReply, Stream,
};

/// Fleet-run shape: how many PoPs to host and what to break.
#[derive(Debug, Clone)]
pub struct FleetRunOpts {
    /// PoPs in the fleet (self-hosted runs; external coordinators
    /// report their own).
    pub pops: u16,
    /// Ingest workers per PoP.
    pub workers: usize,
    /// PoP kills to inject at chunk barriers.
    pub plan: FleetChaosPlan,
}

impl Default for FleetRunOpts {
    fn default() -> FleetRunOpts {
        FleetRunOpts { pops: 2, workers: 2, plan: FleetChaosPlan::default() }
    }
}

/// What a fleet replay achieved, fleet-wide.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FleetReport {
    /// The canonical fleet chaos plan that was injected.
    pub plan: String,
    /// PoPs the fleet started with.
    pub pops: u64,
    /// PoPs still alive at the end.
    pub alive_pops: u64,
    /// Ingest workers per PoP.
    pub workers: u64,
    /// Sessions replayed.
    pub sessions: u64,
    /// Distinct user groups routed through the catchment.
    pub groups: u64,
    /// Final cumulative acks across live sessions (must equal
    /// `sessions`: every record acked exactly once fleet-wide).
    pub acked: u64,
    /// Fleet-merged records folded into windows (must equal `sessions`).
    pub accepted: u64,
    /// Fleet-merged rejected records (0 in a clean run).
    pub rejected: u64,
    /// Fleet-merged late records (0 in a clean run).
    pub late: u64,
    /// Every alive PoP drained cleanly at shutdown.
    pub drained: bool,
    /// PoP kills that fired.
    pub kills: u64,
    /// Client keys the coordinator re-homed across all kills.
    pub rehomed_groups: u64,
    /// Replay sessions opened (initial per-PoP streams + failover
    /// catch-up streams).
    pub streams: u64,
    /// Coordinator fan-out connections opened (reuse makes this small).
    pub fanout_connects: u64,
    /// Coordinator fan-out reconnects after transport errors.
    pub fanout_reconnects: u64,
    /// Last fleet cells merge latency, ms.
    pub merge_ms: f64,
    /// Rows in the fleet-merged view of the settled horizon.
    pub fleet_cells: u64,
    /// Final per-PoP catchment share over observed client keys.
    pub catchment_share: Vec<f64>,
    /// The merged `fleet cells from=0 until=settled_until` are, row for
    /// row and bit for bit, `serial_cells` of the same sessions.
    pub bit_identical_to_serial: bool,
    /// The settled horizon `K` that comparison covered.
    pub settled_until: u32,
    /// Wall-clock replay time (s).
    pub elapsed_s: f64,
}

impl FleetReport {
    /// `Ok` when the fleet contract held: every record acked and
    /// accepted exactly once fleet-wide, nothing rejected or late, a
    /// clean drain, each of the `planned_kills` fired and re-homed at
    /// least one group, and the merged settled horizon bit-identical to
    /// the serial oracle.
    pub fn verdict(&self, planned_kills: u64) -> Result<(), String> {
        let FleetReport { sessions, acked, accepted, rejected, late, kills, .. } = self;
        first_violated([
            (acked == sessions, format!("acked {acked} of {sessions} sessions")),
            (accepted == sessions, format!("accepted {accepted} of {sessions} sessions")),
            (*rejected == 0, format!("{rejected} records rejected")),
            (*late == 0, format!("{late} records late")),
            (self.drained, "the fleet did not drain cleanly".to_string()),
            (*kills == planned_kills, format!("{kills} of {planned_kills} planned kills fired")),
            (*kills == 0 || self.rehomed_groups > 0, "a kill re-homed no group".to_string()),
            (self.bit_identical_to_serial, differs_from_serial(self.settled_until)),
        ])
    }
}

/// A session to the PoP at `addr` carrying a copy of every record of
/// `payloads` whose global index `carries` accepts. The fleet keeps the
/// whole replay: a failover re-sends a dead PoP's groups from record zero.
fn substream(
    addr: &str,
    session: u64,
    payloads: &[Vec<u8>],
    carries: impl Fn(usize) -> bool,
) -> Stream {
    let mut stream = Stream::new(addr, session);
    for (i, payload) in payloads.iter().enumerate().filter(|&(i, _)| carries(i)) {
        stream.carry(i, payload.clone());
    }
    stream
}

/// The client key [`generate_lines`] encodes for group `g` — the
/// catchment input. Prefix ↔ group is 1:1, which is what makes each
/// group's whole insertion sequence live on exactly one PoP at a time.
fn group_key(g: usize) -> ClientKey {
    ClientKey {
        prefix_base: 0x0A00_0000 + ((g as u32) << 8),
        prefix_len: 24,
        country: (g % 40) as u16,
        continent: (g % 6) as u8,
    }
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, msg)
}

/// Self-host a fleet matching `cfg`'s geometry, replay through it (see
/// [`run_fleet_at`]), and shut it down.
pub fn run_fleet(cfg: &LoadgenConfig, opts: &FleetRunOpts) -> io::Result<FleetReport> {
    let fleet_cfg = FleetConfig {
        pops: opts.pops,
        workers: opts.workers,
        addr: "127.0.0.1:0".to_string(),
        window_ms: cfg.window_ms,
        lateness_ms: cfg.lateness_ms,
        retention_windows: cfg.windows as usize + 4,
        seed: cfg.seed,
    };
    let handle =
        Fleet::start(&fleet_cfg, Arc::new(WireParser::new(HD_GOODPUT_BPS)), &Metrics::enabled())
            .map_err(|e| invalid(e.to_string()))?;
    let report = run_fleet_at(&handle.addr().to_string(), cfg, opts);
    if report.is_err() {
        // A successful run ends with `fleet shutdown`; on the error
        // paths the coordinator is still accepting, so drain it here or
        // the join below would block forever.
        if let Ok(mut coord) = FleetClient::connect(handle.addr()) {
            let _ = coord.shutdown();
        }
    }
    let _ = handle.join();
    report
}

/// Replay `cfg.sessions` through the fleet behind the coordinator at
/// `addr`: home every group, stream each PoP's substream under the
/// exactly-once session protocol with global chunk barriers, fire the
/// plan's kills at barriers, fail over, and compare the merged fleet
/// view of the settled horizon with the serial oracle. Ends with
/// `fleet shutdown` unless it fails first.
pub fn run_fleet_at(
    addr: &str,
    cfg: &LoadgenConfig,
    opts: &FleetRunOpts,
) -> io::Result<FleetReport> {
    let settled_until = settled_horizon(cfg)?;
    let lines = generate_lines(cfg);
    let oracle = serial_rows(cfg, &lines, settled_until)?;
    let payloads = jsonl_payloads(&lines);
    drop(lines);
    let sessions = cfg.sessions;
    let groups = cfg.groups.max(1);
    let span_ms = f64::from(cfg.windows) * cfg.window_ms;
    let per_record_ms = span_ms / sessions.max(1) as f64;

    // Failover lateness budget (module docs): a kill at event time T
    // is only recoverable while T <= lateness/2.
    let kills = opts.plan.kills_sorted();
    for kill in &kills {
        let ts = kill.after_records as f64 * per_record_ms;
        if kill.after_records >= sessions as u64 || ts > cfg.lateness_ms / 2.0 {
            return Err(invalid(format!(
                "kill of PoP {} at record {} (event time {ts:.0} ms) breaks the failover \
                 budget: kills must land before {} records (lateness/2 = {:.0} ms)",
                kill.pop,
                kill.after_records,
                (cfg.lateness_ms / 2.0 / per_record_ms) as u64,
                cfg.lateness_ms / 2.0,
            )));
        }
    }

    let started = Instant::now();
    let mut coord = FleetClient::connect(addr)?;
    let pops_at_start = coord.pops()?.len() as u64;

    // Home every group through the coordinator's catchment.
    let mut group_home: Vec<u16> = Vec::with_capacity(groups);
    let mut pop_addr: BTreeMap<u16, String> = BTreeMap::new();
    for g in 0..groups {
        let (pop, addr) = coord.home(&group_key(g))?;
        group_home.push(pop);
        pop_addr.insert(pop, addr);
    }

    // One initial stream per PoP that owns at least one group.
    let mut streams: Vec<Stream> = Vec::new();
    for (&pop, addr) in &pop_addr {
        let session = session_id(cfg.seed, 1, u64::from(pop));
        streams.push(substream(addr, session, &payloads, |i| group_home[i % groups] == pop));
    }
    streams.retain(|s| !s.indices.is_empty());
    let mut total_streams = streams.len() as u64;

    let mut generation = 1u64;
    let mut kills_fired = 0u64;
    let mut rehomed_total = 0u64;
    let mut kill_iter = kills.iter().peekable();
    // Kills land on barriers: everything sent so far is acked and
    // applied, so the re-homed substreams rebuild complete per-group
    // sequences on their new home.
    let fire_kills = |b: usize, streams: &mut Vec<Stream>| -> io::Result<()> {
        while let Some(kill) = kill_iter.next_if(|kill| kill.after_records as usize <= b) {
            let report = coord
                .kill(kill.pop)
                .map_err(|e| invalid(format!("kill of PoP {}: {e}", kill.pop)))?;
            kills_fired += 1;
            rehomed_total += report.rehomed;
            generation += 1;
            if let Some(dead) = pop_addr.get(&kill.pop) {
                streams.retain(|s| &s.addr != dead);
            }
            // Re-home the dead PoP's groups and open one catch-up
            // session per inheriting survivor, carrying the full
            // substream of every inherited group from record zero.
            let mut inherited: BTreeMap<u16, Vec<usize>> = BTreeMap::new();
            for (g, home) in group_home.iter_mut().enumerate() {
                if *home != kill.pop {
                    continue;
                }
                let (new_home, new_addr) = coord.home(&group_key(g))?;
                *home = new_home;
                pop_addr.insert(new_home, new_addr);
                inherited.entry(new_home).or_default().push(g);
            }
            for (pop, inherited_groups) in inherited {
                let session = session_id(cfg.seed, generation, u64::from(pop));
                let inherits = |i: usize| inherited_groups.contains(&(i % groups));
                let mut stream = substream(&pop_addr[&pop], session, &payloads, inherits);
                // Catch the new session up to the barrier immediately:
                // the survivors' watermark is still older than every
                // inherited record (the budget check above).
                stream.replay_to(b, WireMode::Jsonl)?;
                streams.push(stream);
                total_streams += 1;
            }
        }
        Ok(())
    };
    replay_in_chunks(&mut streams, sessions, chunk_len(cfg), WireMode::Jsonl, fire_kills)?;

    let acked: u64 = streams.iter().map(|s| s.last.acked).sum();

    // The merged fleet view, while windows are still live.
    let fleet_rows = coord.cells_query(&settled_query(settled_until))?;
    let pops_info = coord.pops()?;
    let metrics = MetricsReply::parse(&coord.metrics_json()?)?;
    let elapsed_s = started.elapsed().as_secs_f64();
    let merged = coord.shutdown()?;

    Ok(FleetReport {
        plan: opts.plan.to_string(),
        pops: pops_at_start,
        alive_pops: pops_info.iter().filter(|p| p.alive).count() as u64,
        workers: opts.workers as u64,
        sessions: sessions as u64,
        groups: groups as u64,
        acked,
        accepted: merged.accepted,
        rejected: merged.rejected,
        late: merged.late,
        drained: merged.drained,
        kills: kills_fired,
        rehomed_groups: rehomed_total,
        streams: total_streams,
        fanout_connects: metrics.counter("fleet.fanout.connects"),
        fanout_reconnects: metrics.counter("fleet.fanout.reconnects"),
        merge_ms: metrics.gauge("fleet.merge.last_ms"),
        fleet_cells: fleet_rows.len() as u64,
        catchment_share: pops_info.iter().map(|p| p.share).collect(),
        bit_identical_to_serial: first_difference(&fleet_rows, &oracle).is_none(),
        settled_until,
        elapsed_s,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_keys_match_the_generated_wire_lines() {
        let cfg = LoadgenConfig { sessions: 32, groups: 8, ..LoadgenConfig::default() };
        let lines = generate_lines(&cfg);
        for (i, line) in lines.iter().enumerate() {
            let key = group_key(i % cfg.groups);
            assert!(
                line.contains(&format!("\"prefix_base\":{}", key.prefix_base)),
                "line {i} prefix mismatch: {line}"
            );
            assert!(
                line.contains(&format!("\"country\":{}", key.country)),
                "line {i} country mismatch"
            );
            assert!(
                line.contains(&format!("\"continent\":{}", key.continent)),
                "line {i} continent mismatch"
            );
        }
    }

    #[test]
    fn the_verdict_names_the_first_violated_condition() {
        let clean = FleetReport {
            sessions: 10,
            acked: 10,
            accepted: 10,
            drained: true,
            kills: 1,
            rehomed_groups: 4,
            bit_identical_to_serial: true,
            settled_until: 2,
            ..FleetReport::default()
        };
        assert_eq!(clean.verdict(1), Ok(()));
        let unplanned = FleetReport { kills: 0, rehomed_groups: 0, ..clean.clone() };
        assert_eq!(unplanned.verdict(0), Ok(()), "no kill planned, none fired");
        for (broken, names) in [
            (FleetReport { acked: 9, accepted: 9, ..clean.clone() }, "acked 9 of 10"),
            (FleetReport { accepted: 11, rejected: 1, ..clean.clone() }, "accepted 11 of 10"),
            (FleetReport { rejected: 1, late: 1, ..clean.clone() }, "1 records rejected"),
            (FleetReport { late: 2, drained: false, ..clean.clone() }, "2 records late"),
            (FleetReport { drained: false, kills: 0, ..clean.clone() }, "did not drain"),
            (unplanned, "0 of 1 planned kills fired"),
            (FleetReport { rehomed_groups: 0, ..clean.clone() }, "re-homed no group"),
            (
                FleetReport { bit_identical_to_serial: false, ..clean.clone() },
                "windows 0..=2 differ",
            ),
        ] {
            let verdict = broken.verdict(1).expect_err(names);
            assert!(verdict.contains(names), "{verdict}");
        }
    }

    #[test]
    fn the_failover_budget_is_enforced() {
        let cfg = LoadgenConfig {
            sessions: 3_000,
            groups: 16,
            windows: 6,
            window_ms: 1_000.0,
            lateness_ms: 2_100.0,
            ..LoadgenConfig::default()
        };
        // span 6000 ms, 2 ms/record: lateness/2 = 1050 ms => 525 records.
        let opts = FleetRunOpts {
            plan: FleetChaosPlan::parse("kill:0@2000").unwrap(),
            ..FleetRunOpts::default()
        };
        let err = run_fleet(&cfg, &opts).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("failover budget"), "{err}");
    }
}
