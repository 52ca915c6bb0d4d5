//! `edgeperf` — estimate user performance from captured socket stats.
//!
//! ```text
//! edgeperf estimate [--target-mbps F] [--metrics] [--quarantine-file PATH] [FILE]
//!                                              JSONL sessions → JSONL verdicts
//! edgeperf demo                                print a sample input line
//! edgeperf serve [--addr A] [--workers N] [--window-ms F] [--lateness-ms F]
//!                [--queue N] [--retention N] [--spill-dir DIR]
//!                [--compact-min N] [--compact-batch N]
//!                [--idle-timeout-ms N] [--write-timeout-ms N]
//!                [--max-conns N] [--spill-fail-threshold N] [--chaos PLAN]
//!                [--target-mbps F] [--metrics]
//!                                              live session-ingest server
//! edgeperf fleet [--addr A] [--pops N] [--workers N] [--window-ms F]
//!                [--lateness-ms F] [--retention N] [--seed S]
//!                [--target-mbps F] [--metrics]
//!                                              multi-PoP fleet coordinator
//! ```
//!
//! `serve` starts the `edgeperf-live` TCP server: JSONL `WireSession`
//! lines in, sliding event-time windows + online degradation detection
//! inside, a line-protocol query interface out (`ping`, `snapshot`,
//! `stats`, `cells`, `metrics`, `shutdown`). A connection whose first
//! bytes are the `EPB1` preamble switches to the compact binary frame
//! format instead (see `edgeperf_live::frame`; data-only, used by
//! `loadgen --wire binary`). The server prints `listening on ADDR` once
//! bound and runs until a client sends `shutdown`, then drains, prints
//! the final snapshot to stdout and exits.
//!
//! `--spill-dir DIR` enables the tiered window store: windows evicted
//! past `--retention` are spilled to columnar segments under DIR and
//! stay queryable via `cells from=.. until=..` (see
//! `edgeperf_live::store`). `--compact-min` / `--compact-batch` tune
//! the background segment compactor.
//!
//! Robustness knobs: `--idle-timeout-ms` / `--write-timeout-ms` set
//! per-connection socket deadlines (0 = off; a timed-out connection is
//! evicted and counted under `live.conns.evicted`; a resuming client
//! replays its unacked tail). `--max-conns` caps concurrent
//! connections (excess are refused, the acceptor keeps running; a
//! connection's slot frees however it ends, a reader panic included).
//! A panicked worker is respawned up to 8 times, then degrades to a
//! draining zombie. `--spill-fail-threshold` is
//! the consecutive-spill-failure count that flips the tiered store
//! into degraded (RAM-only) retention. `--chaos PLAN` injects the
//! deterministic server-side faults of an `edgeperf_live::ChaosPlan`
//! (worker panics, spill/compaction failures) — testing only.
//!
//! `fleet` hosts `--pops` in-process `serve` instances (each a full
//! live server on its own loopback port) behind a coordinator speaking
//! the `fleet *` line protocol (`ping`, `pops`, `home`, `snapshot`,
//! `cells`, `stats`, `metrics`, `kill`, `shutdown`). The coordinator
//! owns a deterministic seeded anycast catchment: clients ask
//! `fleet home BASE/LEN COUNTRY CONTINENT` for their PoP and send
//! records to that PoP directly; fleet queries fan out over the typed
//! protocol and merge per-PoP cells into a global view bit-identical
//! to a single-node run (see `edgeperf_fleet`). `fleet kill P` removes
//! a PoP mid-run and re-homes its catchment onto survivors. The
//! coordinator prints `coordinator listening on ADDR` plus one
//! `pop N listening on ADDR` line per PoP, and on `fleet shutdown`
//! drains every PoP and prints the merged final snapshot.
//!
//! Every integer flag of `serve` and `fleet` is parsed as the integer
//! type of the field it sets: a fraction, a sign or a value out of range
//! exits 2 with `edgeperf: --pops needs an integer`.
//!
//! `--metrics` prints an ingest accounting table (lines evaluated, rejects
//! by reason) to stderr after the run.
//!
//! `--quarantine-file PATH` additionally writes every rejected line to a
//! JSONL sidecar — `{"line":N,"reason":...,"error":...,"raw":...}` — so
//! bad telemetry can be triaged or replayed without the original file.
//! The file is only created when something was rejected.
//!
//! Input format: see `edgeperf::ingest`. With no FILE, reads stdin. Every
//! output line mirrors an input session:
//! `{"min_rtt_ms":60.0,"tested":1,"achieved":1,"hdratio":1.0}`.
//! Malformed lines produce `{"error":...,"line":N}` on stderr and are
//! skipped.

use edgeperf::core::HD_GOODPUT_BPS;
use edgeperf::flag_value as value;
use edgeperf::fleet::{Fleet, FleetConfig};
use edgeperf::ingest::{evaluate_jsonl_observed, quarantine_jsonl, sample_line};
use edgeperf::live::{ChaosPlan, LiveConfig, LiveServer};
use edgeperf::obs::{render_table, Metrics};
use edgeperf::serve::WireParser;
use std::io::Read;
use std::str::FromStr;
use std::sync::Arc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("demo") => {
            println!("{}", sample_line());
        }
        Some("estimate") => {
            let mut target = HD_GOODPUT_BPS;
            let mut file: Option<String> = None;
            let mut metrics = Metrics::disabled();
            let mut quarantine_file: Option<String> = None;
            let mut it = args.iter().skip(1);
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--target-mbps" => {
                        let mbps: f64 = value(&mut it, a, "a number").unwrap_or_else(|e| die(&e));
                        target = mbps * 1e6;
                    }
                    "--metrics" => metrics = Metrics::enabled(),
                    "--quarantine-file" => {
                        quarantine_file =
                            Some(value(&mut it, a, "a path").unwrap_or_else(|e| die(&e)));
                    }
                    f if !f.starts_with('-') => file = Some(f.to_string()),
                    other => die(&format!("unknown argument {other}")),
                }
            }
            let input = match file {
                Some(path) => std::fs::read_to_string(&path)
                    .unwrap_or_else(|e| die(&format!("read {path}: {e}"))),
                None => {
                    let mut buf = String::new();
                    std::io::stdin()
                        .read_to_string(&mut buf)
                        .unwrap_or_else(|e| die(&format!("read stdin: {e}")));
                    buf
                }
            };
            let results = evaluate_jsonl_observed(&input, target, &metrics);
            let mut errors = 0usize;
            for result in &results {
                match result {
                    Ok(v) => println!("{}", serde_json::to_string(v).unwrap()),
                    Err(e) => {
                        eprintln!(
                            "{{\"line\":{},\"error\":{}}}",
                            e.line,
                            serde_json::to_string(&e.error.to_string()).unwrap()
                        );
                        errors += 1;
                    }
                }
            }
            if let Some(path) = quarantine_file {
                if let Some(sidecar) = quarantine_jsonl(&input, &results) {
                    std::fs::write(&path, sidecar)
                        .unwrap_or_else(|e| die(&format!("write {path}: {e}")));
                    eprintln!("edgeperf: quarantined {errors} line(s) to {path}");
                }
            }
            if metrics.is_enabled() {
                eprint!("{}", render_table(&metrics.snapshot()));
            }
            if errors > 0 {
                std::process::exit(1);
            }
        }
        Some("serve") => {
            let Serve { config, target, metrics } =
                parse_serve(&args[1..]).unwrap_or_else(|e| die(&e));
            let parser = Arc::new(WireParser::new(target));
            let handle = LiveServer::start(config, parser, metrics.clone())
                .unwrap_or_else(|e| die(&format!("serve: {e}")));
            println!("listening on {}", handle.addr());
            let snapshot = handle.join();
            println!("{}", serde_json::to_string(&snapshot).unwrap());
            if metrics.is_enabled() {
                eprint!("{}", render_table(&metrics.snapshot()));
            }
        }
        Some("fleet") => {
            let FleetArgs { config, target, metrics } =
                parse_fleet(&args[1..]).unwrap_or_else(|e| die(&e));
            let parser = Arc::new(WireParser::new(target));
            let handle = Fleet::start(&config, parser, &metrics)
                .unwrap_or_else(|e| die(&format!("fleet: {e}")));
            println!("coordinator listening on {}", handle.addr());
            for (pop, addr) in handle.pop_addrs().iter().enumerate() {
                println!("pop {pop} listening on {addr}");
            }
            let snapshot = handle.join();
            println!("{}", serde_json::to_string(&snapshot).unwrap());
            if metrics.is_enabled() {
                eprint!("{}", render_table(&metrics.snapshot()));
            }
        }
        _ => {
            eprintln!(
                "usage: edgeperf estimate [--target-mbps F] [--metrics] [--quarantine-file PATH] [FILE] | edgeperf serve [--addr A] [--workers N] [--spill-dir DIR] | edgeperf fleet [--addr A] [--pops N] | edgeperf demo"
            );
            std::process::exit(2);
        }
    }
}

/// An integer flag, parsed as the integer type of the field it sets
/// (`f64` then `as` used to alter fractions, signs and out-of-range values).
fn int<'a, T: FromStr>(it: &mut impl Iterator<Item = &'a String>, flag: &str) -> Result<T, String> {
    value(it, flag, "an integer")
}

/// The parsed `edgeperf serve` command line.
struct Serve {
    config: LiveConfig,
    target: f64,
    metrics: Metrics,
}

fn parse_serve(args: &[String]) -> Result<Serve, String> {
    let mut serve = Serve {
        config: LiveConfig { addr: "127.0.0.1:4620".to_string(), ..Default::default() },
        target: HD_GOODPUT_BPS,
        metrics: Metrics::disabled(),
    };
    let config = &mut serve.config;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let flag = a.as_str();
        match flag {
            "--addr" => config.addr = value(&mut it, flag, "an address")?,
            "--workers" => config.workers = int(&mut it, flag)?,
            "--window-ms" => config.window_ms = value(&mut it, flag, "a number")?,
            "--lateness-ms" => config.lateness_ms = value(&mut it, flag, "a number")?,
            "--queue" => config.queue_capacity = int(&mut it, flag)?,
            "--retention" => config.retention_windows = int(&mut it, flag)?,
            "--spill-dir" => {
                config.spill_dir = Some(value::<String>(&mut it, flag, "a path")?.into())
            }
            "--compact-min" => config.compact_min_segments = int(&mut it, flag)?,
            "--compact-batch" => config.compact_batch = int(&mut it, flag)?,
            "--idle-timeout-ms" => config.idle_timeout_ms = int(&mut it, flag)?,
            "--write-timeout-ms" => config.write_timeout_ms = int(&mut it, flag)?,
            "--max-conns" => config.max_connections = int(&mut it, flag)?,
            "--spill-fail-threshold" => config.spill_fail_threshold = int(&mut it, flag)?,
            "--chaos" => {
                let spec: String = value(&mut it, flag, "a plan")?;
                config.chaos = ChaosPlan::parse(&spec).map_err(|e| format!("--chaos: {e}"))?;
            }
            "--target-mbps" => serve.target = value::<f64>(&mut it, flag, "a number")? * 1e6,
            "--metrics" => serve.metrics = Metrics::enabled(),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(serve)
}

/// The parsed `edgeperf fleet` command line.
struct FleetArgs {
    config: FleetConfig,
    target: f64,
    metrics: Metrics,
}

fn parse_fleet(args: &[String]) -> Result<FleetArgs, String> {
    let mut fleet = FleetArgs {
        config: FleetConfig { addr: "127.0.0.1:4630".to_string(), ..Default::default() },
        target: HD_GOODPUT_BPS,
        metrics: Metrics::disabled(),
    };
    let config = &mut fleet.config;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let flag = a.as_str();
        match flag {
            "--addr" => config.addr = value(&mut it, flag, "an address")?,
            "--pops" => config.pops = int(&mut it, flag)?,
            "--workers" => config.workers = int(&mut it, flag)?,
            "--window-ms" => config.window_ms = value(&mut it, flag, "a number")?,
            "--lateness-ms" => config.lateness_ms = value(&mut it, flag, "a number")?,
            "--retention" => config.retention_windows = int(&mut it, flag)?,
            "--seed" => config.seed = int(&mut it, flag)?,
            "--target-mbps" => fleet.target = value::<f64>(&mut it, flag, "a number")? * 1e6,
            "--metrics" => fleet.metrics = Metrics::enabled(),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(fleet)
}

fn die(msg: &str) -> ! {
    eprintln!("edgeperf: {msg}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    fn serve(line: &str) -> Result<Serve, String> {
        parse_serve(&words(line))
    }

    fn fleet(line: &str) -> Result<FleetArgs, String> {
        parse_fleet(&words(line))
    }

    #[test]
    fn integer_flags_keep_every_bit_of_their_own_type() {
        let f = fleet("--pops 65535 --seed 18446744073709551615 --workers 3").unwrap();
        assert_eq!((f.config.pops, f.config.seed, f.config.workers), (u16::MAX, u64::MAX, 3));
        assert_eq!(fleet("").unwrap().config.addr, "127.0.0.1:4630");
        let s = serve(
            "--spill-fail-threshold 4294967295 --idle-timeout-ms 18446744073709551615 \
             --max-conns 0 --window-ms 1.5 --target-mbps 2.5",
        )
        .unwrap();
        let config = &s.config;
        assert_eq!(config.spill_fail_threshold, u32::MAX);
        assert_eq!(config.idle_timeout_ms, u64::MAX);
        assert_eq!((config.max_connections, config.window_ms, s.target), (0, 1.5, 2.5e6));
        // The command line `benchmark/` starts its servers with.
        let s =
            serve("--addr 127.0.0.1:0 --workers 2 --retention 8 --lateness-ms 60000 --spill-dir D")
                .unwrap();
        let config = &s.config;
        assert_eq!((config.addr.as_str(), config.workers), ("127.0.0.1:0", 2));
        assert_eq!((config.retention_windows, config.lateness_ms), (8, 60_000.0));
        assert_eq!(config.spill_dir.as_deref(), Some(std::path::Path::new("D")));
    }

    #[test]
    fn bad_or_missing_values_are_messages_naming_the_flag() {
        type Parse = fn(&str) -> Option<String>;
        let serve_err: Parse = |line| serve(line).err();
        let fleet_err: Parse = |line| fleet(line).err();
        let integer_flags: [(Parse, &str); 2] = [
            (
                serve_err,
                "--workers --queue --retention --compact-min --compact-batch --idle-timeout-ms \
                 --write-timeout-ms --max-conns --spill-fail-threshold",
            ),
            (fleet_err, "--pops --workers --retention --seed"),
        ];
        for (parse, flags) in integer_flags {
            for flag in flags.split_whitespace() {
                for bad in ["1.5", "-1", "1e3", ""] {
                    let line = format!("{flag} {bad}");
                    assert_eq!(parse(&line), Some(format!("{flag} needs an integer")), "{line}");
                }
            }
        }
        for (parse, line, want) in [
            (fleet_err, "--pops 70000", "--pops needs an integer"),
            (
                serve_err,
                "--spill-fail-threshold 4294967296",
                "--spill-fail-threshold needs an integer",
            ),
            (serve_err, "--max-respawns 8", "unknown argument --max-respawns"),
            (serve_err, "--window-ms wide", "--window-ms needs a number"),
            (fleet_err, "--lateness-ms", "--lateness-ms needs a number"),
            (serve_err, "--target-mbps fast", "--target-mbps needs a number"),
            (serve_err, "--addr", "--addr needs an address"),
            (serve_err, "--spill-dir", "--spill-dir needs a path"),
            (serve_err, "--chaos", "--chaos needs a plan"),
            (
                serve_err,
                "--chaos bogus:1",
                "--chaos: invalid chaos plan: `bogus:1`: unknown clause kind",
            ),
            (fleet_err, "--frobnicate", "unknown argument --frobnicate"),
            (serve_err, "--pops 2", "unknown argument --pops"),
        ] {
            assert_eq!(parse(line).as_deref(), Some(want), "{line}");
        }
    }
}
