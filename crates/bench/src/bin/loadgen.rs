//! `loadgen` — replay simulated workload sessions into `edgeperf serve`.
//!
//! ```text
//! loadgen --addr HOST:PORT [--wire jsonl|binary] [--sessions N]
//!         [--connections N] [--groups N] [--windows N] [--window-ms F]
//!         [--lateness-ms F] [--max-txns N] [--seed N] [--shutdown]
//!         [--query-from N] [--query-until N]
//!         [--expect-clean] [--json PATH]
//! loadgen --chaos PLAN [--wire jsonl|binary] [--workers N]
//!         [--idle-timeout-ms N] [--retention N] [--spill-dir DIR]
//!         [--expect-clean] [--json PATH]
//! loadgen --fleet ADDR | --fleet-pops N [--workers N]
//!         [--fleet-chaos PLAN] [--sessions N] [--groups N] [--windows N]
//!         [--window-ms F] [--lateness-ms F] [--expect-clean] [--json PATH]
//! ```
//!
//! Three modes, each proving the live tier correct — none times it, and
//! there is no pacing or latency flag (`benchmark/` is the performance
//! instrument). All three send the same way: every data connection is an
//! exactly-once resumable session, and the sessions advance together in
//! chunks of at most half the lateness bound of event time, each chunk
//! ending when the server has acked (and so applied) all of it. Each
//! mode prints its report as JSON on stdout; `--json PATH`
//! also writes it to a file; `--expect-clean` exits non-zero unless the
//! report's `verdict()` — the one predicate the test suites assert too —
//! is `Ok`, naming the first condition that failed. Integer flags are
//! parsed as integers of their own type: `1.5`, `-1` or a value out of
//! range is an error naming the flag, not a silently altered number.
//!
//! The plain replay sends to the server at `--addr` over
//! `--connections` sessions, session `c` carrying every record `i` with
//! `i % connections == c`, and prints a
//! [`edgeperf_bench::loadgen::LoadReport`]. `--wire binary` negotiates
//! the length-prefixed binary frame format (the estimator runs locally;
//! the server skips JSON entirely). `--shutdown` drains the server at
//! the end of the replay. Its verdict: every session acked and
//! ingested, no rejects, no late drops, groups observed, clean drain
//! when `--shutdown` was given.
//!
//! `--query-from` / `--query-until` issue a window-range `cells` query
//! after the replay (and before any `--shutdown` drain) — the smoke for
//! the tiered window store's historical query path. With
//! `--expect-clean` the query must return at least one cell.
//!
//! `--chaos PLAN` self-hosts a fault-injected server (the plan's worker
//! panics and disk faults fire server-side; its disconnects, torn
//! records and stalls fire client-side in the resume loop), replays
//! as one session, unchunked, with reconnect-and-resume, then compares
//! what it serves with the serial oracle, reported as a
//! [`edgeperf_bench::loadgen::ChaosReport`]. `--spill-dir` (with
//! `--retention`, default
//! [`edgeperf_bench::loadgen::CHAOS_SPILL_RETENTION`]) routes the server
//! through the tiered store so `spillfail:`/`compactfail:` clauses have a
//! disk to hit. Its verdict: every record acked and applied exactly
//! once, nothing rejected, lost or shed, and
//! `bit_identical_to_serial`.
//!
//! `--fleet ADDR` replays a catchment-partitioned workload through the
//! multi-PoP coordinator listening on `ADDR` (started with `edgeperf
//! fleet`); `--fleet-pops N` self-hosts an N-PoP fleet in-process
//! instead. Either way each group's records go to the PoP the anycast
//! catchment homes them on, and the merged `fleet cells` view is
//! compared with the serial oracle, reported as a
//! [`edgeperf_bench::fleet_run::FleetReport`]. `--fleet-chaos PLAN`
//! (grammar `kill:POP@RECORDS`) kills a PoP mid-replay and
//! proves exactly-once failover. Its verdict: every record acked and
//! accepted exactly once fleet-wide, nothing rejected or late, a clean
//! drain, every planned kill fired (re-homing at least one group), and
//! `bit_identical_to_serial`.
//!
//! `bit_identical_to_serial` means one thing in both reports: the
//! served `cells from=0 until=K` equal, row for row and float bit for
//! float bit, one serial `WindowRing` pass over the very sessions that
//! were sent, where `K` (`settled_until` in the report) is the last
//! window every worker and PoP is known to have closed
//! ([`edgeperf_bench::loadgen::settled_horizon`]). A replay too short to
//! settle any window is refused, not passed.
//!
//! `--workers` sets the ingest workers of every self-hosted server (the
//! chaos server; each PoP of a `--fleet-pops` fleet).

use edgeperf::flag_value as value;
use edgeperf_bench::fleet_run::{run_fleet, run_fleet_at, FleetRunOpts};
use edgeperf_bench::loadgen::{
    run, run_chaos, ChaosRunOpts, LoadgenConfig, WireMode, CHAOS_SPILL_RETENTION,
};
use edgeperf_fleet::FleetChaosPlan;
use edgeperf_live::{CellQuery, ChaosPlan, LiveClient};
use std::path::PathBuf;
use std::str::FromStr;

/// The parsed command line.
struct Cli {
    cfg: LoadgenConfig,
    json_path: Option<String>,
    expect_clean: bool,
    workers: usize,
    chaos: Option<ChaosPlan>,
    fleet_addr: Option<String>,
    fleet_pops: Option<u16>,
    fleet_chaos: FleetChaosPlan,
    idle_timeout_ms: u64,
    retention: usize,
    spill_dir: Option<PathBuf>,
    query_from: Option<u32>,
    query_until: Option<u32>,
}

/// An integer flag, parsed as the integer type of the field it sets
/// (`f64` then `as` used to alter fractions, signs and out-of-range values).
fn int<'a, T: FromStr>(it: &mut impl Iterator<Item = &'a String>, flag: &str) -> Result<T, String> {
    value(it, flag, "an integer")
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        cfg: LoadgenConfig::default(),
        json_path: None,
        expect_clean: false,
        workers: 4,
        chaos: None,
        fleet_addr: None,
        fleet_pops: None,
        fleet_chaos: FleetChaosPlan::default(),
        idle_timeout_ms: 0,
        retention: CHAOS_SPILL_RETENTION,
        spill_dir: None,
        query_from: None,
        query_until: None,
    };
    let cfg = &mut cli.cfg;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let flag = a.as_str();
        match flag {
            "--addr" => cfg.addr = value(&mut it, flag, "an address")?,
            "--wire" => {
                cfg.wire = it
                    .next()
                    .and_then(|s| WireMode::parse(s))
                    .ok_or("--wire needs `jsonl` or `binary`")?;
            }
            "--sessions" => cfg.sessions = int(&mut it, flag)?,
            "--connections" => cfg.connections = int(&mut it, flag)?,
            "--groups" => cfg.groups = int(&mut it, flag)?,
            "--windows" => cfg.windows = int(&mut it, flag)?,
            "--window-ms" => cfg.window_ms = value(&mut it, flag, "a number")?,
            "--lateness-ms" => cfg.lateness_ms = value(&mut it, flag, "a number")?,
            "--max-txns" => cfg.max_txns = int(&mut it, flag)?,
            "--seed" => cfg.seed = int(&mut it, flag)?,
            "--shutdown" => cfg.shutdown = true,
            "--workers" => cli.workers = int(&mut it, flag)?,
            "--chaos" => {
                let spec: String = value(&mut it, flag, "a plan")?;
                cli.chaos = Some(ChaosPlan::parse(&spec).map_err(|e| format!("--chaos: {e}"))?);
            }
            "--fleet" => cli.fleet_addr = Some(value(&mut it, flag, "an address")?),
            "--fleet-pops" => cli.fleet_pops = Some(int(&mut it, flag)?),
            "--fleet-chaos" => {
                let spec: String = value(&mut it, flag, "a plan")?;
                cli.fleet_chaos =
                    FleetChaosPlan::parse(&spec).map_err(|e| format!("--fleet-chaos: {e}"))?;
            }
            "--idle-timeout-ms" => cli.idle_timeout_ms = int(&mut it, flag)?,
            "--retention" => cli.retention = int(&mut it, flag)?,
            "--spill-dir" => cli.spill_dir = Some(value(&mut it, flag, "a path")?),
            "--query-from" => cli.query_from = Some(int(&mut it, flag)?),
            "--query-until" => cli.query_until = Some(int(&mut it, flag)?),
            "--expect-clean" => cli.expect_clean = true,
            "--json" => cli.json_path = Some(value(&mut it, flag, "a path")?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Cli {
        cfg,
        json_path,
        expect_clean,
        workers,
        chaos,
        fleet_addr,
        fleet_pops,
        fleet_chaos,
        idle_timeout_ms,
        retention,
        spill_dir,
        query_from,
        query_until,
    } = parse_args(&args).unwrap_or_else(|e| die(&e));

    if let Some(plan) = chaos {
        let opts = ChaosRunOpts {
            workers,
            idle_timeout_ms,
            spill: spill_dir.map(|dir| (dir, retention)),
            ..ChaosRunOpts::default()
        };
        let report = run_chaos(&cfg, &plan, &opts).unwrap_or_else(|e| die(&format!("chaos: {e}")));
        emit(&serde_json::to_string_pretty(&report).expect("report serializes"), &json_path);
        if let (true, Err(why)) = (expect_clean, report.verdict()) {
            die(&format!("chaos run was not clean: {why}: {report:?}"));
        }
        return;
    }

    if fleet_addr.is_some() || fleet_pops.is_some() {
        let opts = FleetRunOpts {
            pops: fleet_pops.unwrap_or(FleetRunOpts::default().pops),
            workers,
            plan: fleet_chaos,
        };
        let planned_kills = opts.plan.kills.len() as u64;
        let report = match &fleet_addr {
            Some(addr) => run_fleet_at(addr, &cfg, &opts)
                .unwrap_or_else(|e| die(&format!("fleet replay against {addr}: {e}"))),
            None => run_fleet(&cfg, &opts).unwrap_or_else(|e| die(&format!("fleet: {e}"))),
        };
        emit(&serde_json::to_string_pretty(&report).expect("report serializes"), &json_path);
        if let (true, Err(why)) = (expect_clean, report.verdict(planned_kills)) {
            die(&format!("fleet run was not clean: {why}: {report:?}"));
        }
        return;
    }

    // A range query must run before any drain: replay with shutdown
    // deferred, query, then drain explicitly.
    let wants_query = query_from.is_some() || query_until.is_some();
    let mut run_cfg = cfg.clone();
    if wants_query {
        run_cfg.shutdown = false;
    }
    let mut report =
        run(&run_cfg).unwrap_or_else(|e| die(&format!("replay against {}: {e}", cfg.addr)));
    if wants_query {
        let mut client = LiveClient::connect(&cfg.addr)
            .unwrap_or_else(|e| die(&format!("connect {}: {e}", cfg.addr)));
        let query = CellQuery {
            from_window: query_from,
            until_window: query_until,
            ..CellQuery::default()
        };
        let rows = client.cells_query(&query).unwrap_or_else(|e| die(&format!("cells query: {e}")));
        eprintln!(
            "loadgen: cells query from={} until={} returned {} cells",
            query_from.map_or("start".to_string(), |w| w.to_string()),
            query_until.map_or("end".to_string(), |w| w.to_string()),
            rows.len()
        );
        if expect_clean && rows.is_empty() {
            die("range query returned no cells");
        }
        if cfg.shutdown {
            let snapshot = client.shutdown().unwrap_or_else(|e| die(&format!("shutdown: {e}")));
            report.drained = snapshot.drained;
        }
    }
    emit(&serde_json::to_string_pretty(&report).expect("report serializes"), &json_path);
    if let (true, Err(why)) = (expect_clean, report.verdict(cfg.shutdown)) {
        die(&format!("replay was not clean: {why}: {report:?}"));
    }
}

fn emit(json: &str, json_path: &Option<String>) {
    println!("{json}");
    if let Some(path) = json_path {
        std::fs::write(path, format!("{json}\n"))
            .unwrap_or_else(|e| die(&format!("write {path}: {e}")));
    }
}

fn die(msg: &str) -> ! {
    eprintln!("loadgen: {msg}");
    std::process::exit(1);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn integer_flags_keep_every_bit_of_their_own_type() {
        let cli = parse(&[
            "--seed",
            "18446744073709551615",
            "--fleet-pops",
            "65535",
            "--query-until",
            "4294967295",
            "--workers",
            "2",
            "--window-ms",
            "1.5",
        ])
        .unwrap();
        assert_eq!(cli.cfg.seed, u64::MAX);
        assert_eq!(cli.fleet_pops, Some(u16::MAX));
        assert_eq!(cli.query_until, Some(u32::MAX));
        assert_eq!(cli.workers, 2);
        assert_eq!(cli.cfg.window_ms, 1.5);
        let defaults = parse(&[]).unwrap();
        assert_eq!((defaults.workers, defaults.retention), (4, CHAOS_SPILL_RETENTION));
    }

    #[test]
    fn bad_or_missing_values_are_messages_naming_the_flag() {
        for flag in [
            "--seed",
            "--sessions",
            "--connections",
            "--groups",
            "--windows",
            "--max-txns",
            "--workers",
            "--retention",
            "--idle-timeout-ms",
            "--fleet-pops",
            "--query-from",
            "--query-until",
        ] {
            let want = format!("{flag} needs an integer");
            for bad in [&["1.5"][..], &["-1"], &["1e3"], &[]] {
                let args: Vec<&str> = [flag].into_iter().chain(bad.iter().copied()).collect();
                assert_eq!(parse(&args).err(), Some(want.clone()), "{args:?}");
            }
        }
        for (args, want) in [
            (&["--fleet-pops", "70000"][..], "--fleet-pops needs an integer"),
            (&["--windows", "4294967296"], "--windows needs an integer"),
            (&["--window-ms", "wide"], "--window-ms needs a number"),
            (&["--addr"], "--addr needs an address"),
            (&["--wire", "xml"], "--wire needs `jsonl` or `binary`"),
            (&["--json"], "--json needs a path"),
            (&["--chaos"], "--chaos needs a plan"),
            (&["--frobnicate"], "unknown argument --frobnicate"),
            (&["--target-bps", "2.5e6"], "unknown argument --target-bps"),
        ] {
            assert_eq!(parse(args).err().as_deref(), Some(want), "{args:?}");
        }
    }
}
