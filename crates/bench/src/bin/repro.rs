//! `repro` — regenerate every table and figure of the paper.
//!
//! Usage:
//! ```text
//! repro <experiment> [--seed N] [--days N] [--sessions N] [--scale F] [--quick]
//!                    [--json DIR] [--streaming] [--metrics] [--metrics-json PATH]
//!                    [--fault-plan SPEC] [--checkpoint-dir DIR]
//!
//! experiments:
//!   fig1 fig2 fig3      traffic characterization (Figures 1–3)
//!   fig4                worked example (Figure 4)
//!   validation          §3.2.3 NS3-style sweep (15,840 configs at scale 1)
//!   fig5 grouping       client-mix MinRTT shift (Figure 5) and the §3.3
//!                       grouping comparison computed from it
//!   fig6 fig7           global performance (Figures 6–7)
//!   fig8 table1         degradation over time (Figure 8, Table 1)
//!   fig9 fig10 table2   routing opportunity (Figures 9–10, Table 2)
//!   cc                  congestion-control comparison (Reno/Cubic/BBR)
//!   detector            §5 degradation detector vs the world's known
//!                       congestion episodes (precision/recall)
//!   ablations           what each §3.2 estimator correction buys
//!   naive               naive-vs-model achieved-rule ablation (§4)
//!   all                 everything (one shared study run)
//! ```
//!
//! A flag without its value, or with one that does not parse, and an
//! unknown flag or experiment all exit 2 with a `repro: …` line.
//!
//! `--scale` (or `EDGEPERF_SCALE`) trades fidelity for speed: it thins the
//! validation grid and shrinks the study (countries and sessions).
//! Scale 1.0 reproduces the full configuration; CI uses ~0.1.
//!
//! `--streaming` runs the study through the bounded-memory t-digest sink
//! instead of keeping every preferred session's MinRTT: each cell is a
//! digest reduced to its summary as its window closes, and every figure
//! and table is computed from those — figure 6's MinRTT half from
//! per-group MinRTT digests — and from the HDratio tally both sinks keep,
//! so figure 7 and figure 6's HDratio half are the exact job's. The
//! output is byte-identical run to run and at any worker count. Either
//! way the study's report (prefixes merged, sessions simulated, emitted
//! and dropped, recovery decisions) is printed to stderr. What never reads the study runs before it — Figures
//! 1–5, validation and grouping, then `cc`, `detector`, `ablations` and
//! `naive`, whose text is held back to print after the study's so that
//! stdout keeps its order — and its own experiments straight after it, so
//! the exact sink's MinRTT runs, most of the job's memory, are dropped
//! once no experiment still to run reads them (after `fig7` under `all`)
//! and nothing else runs on top of the study. So a `repro all --json DIR`
//! whose study fails (exit 3) has already written those experiments'
//! JSON.
//!
//! `--metrics` prints the observability snapshot (counters, gauges,
//! latency histograms, phase spans) to stderr after the run;
//! `--metrics-json PATH` writes the same snapshot as JSON. Either flag
//! enables recording; otherwise the metrics layer stays a dead branch.
//!
//! Every study runs under the one fault-tolerant driver (panic isolation,
//! retry/quarantine, watchdog deadlines, an in-order merge), whichever
//! sink it fills. `--fault-plan SPEC` injects deterministic faults —
//! `panic:K`, `stall:K`, `delay:W:MS`, `malformed:N` (every Nth record's
//! HDratio made NaN, which validation drops and counts), `mergefail:K`,
//! `crash:K` — for chaos testing, with either sink. `--checkpoint-dir
//! PATH` journals each merged prefix of the exact study there — a rerun
//! against the same directory resumes after the last one — and is refused
//! (exit 2) with `--streaming`, whose sealed state has no on-disk form.
//! With either flag the driver's `study_report.json` is written beside
//! the checkpoint and into `--json DIR`. A study that quarantined a
//! prefix nobody planned a fault for still writes its outputs, says which
//! prefixes every figure is missing, and exits 3. `--quick` shrinks the
//! study to scale 0.1 unless `--scale` is given.

use edgeperf::flag_value as value;
use edgeperf_analysis::segment::atomic_write;
use edgeperf_bench::{
    ablations, cc_compare, detector, env_scale, fig4, fig5, naive, study, validation, workload_figs,
};
use edgeperf_obs::{render_table, Metrics};
use edgeperf_world::{FaultPlan, SupervisorConfig};
use std::fmt::Write as _;

const USAGE: &str = "\
repro <experiment> [--seed N] [--days N] [--sessions N] [--scale F] [--quick]
                   [--json DIR] [--streaming] [--metrics] [--metrics-json PATH]
                   [--fault-plan SPEC] [--checkpoint-dir DIR]
experiments: fig1 fig2 fig3 fig4 validation fig5 grouping fig6 fig7 fig8 table1
             fig9 fig10 table2 cc detector ablations naive all (the default)
  --quick                scale 0.1 unless --scale or EDGEPERF_SCALE says otherwise
  --json DIR             also write each experiment as DIR/<name>.json
  --streaming            bounded-memory t-digest sink
  --metrics              print the observability snapshot to stderr
  --metrics-json PATH    write the same snapshot as JSON
  --fault-plan SPEC      inject deterministic faults into the study driver
  --checkpoint-dir DIR   journal the exact study there and resume from it on a
                         rerun (not with --streaming)";

struct Args {
    experiment: String,
    seed: u64,
    days: u32,
    sessions: u32,
    scale: f64,
    json: Option<String>,
    quick: bool,
    streaming: bool,
    metrics: bool,
    metrics_json: Option<String>,
    fault_plan: Option<FaultPlan>,
    checkpoint_dir: Option<String>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        experiment: String::new(),
        seed: 20190521,
        days: 0, // 0 = per-experiment default
        sessions: 0,
        scale: 0.0, // resolved after parsing (depends on --quick)
        json: None,
        quick: false,
        streaming: false,
        metrics: false,
        metrics_json: None,
        fault_plan: None,
        checkpoint_dir: None,
    };
    let mut scale_flag: Option<f64> = None;
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => args.seed = value(&mut it, "--seed", "an integer")?,
            "--days" => args.days = value(&mut it, "--days", "an integer")?,
            "--sessions" => args.sessions = value(&mut it, "--sessions", "an integer")?,
            "--scale" => scale_flag = Some(value(&mut it, "--scale", "a number")?),
            "--json" => args.json = Some(value(&mut it, "--json", "a directory")?),
            "--quick" => args.quick = true,
            "--streaming" => args.streaming = true,
            "--metrics" => args.metrics = true,
            "--metrics-json" => {
                args.metrics_json = Some(value(&mut it, "--metrics-json", "a path")?)
            }
            "--fault-plan" => {
                let spec: String = value(&mut it, "--fault-plan", "a spec")?;
                args.fault_plan = Some(FaultPlan::parse(&spec).map_err(|e| e.to_string())?)
            }
            "--checkpoint-dir" => {
                args.checkpoint_dir = Some(value(&mut it, "--checkpoint-dir", "a directory")?)
            }
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                std::process::exit(0);
            }
            exp if args.experiment.is_empty() && !exp.starts_with('-') => {
                args.experiment = exp.to_string()
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if args.experiment.is_empty() {
        args.experiment = "all".to_string();
    }
    // --quick shrinks everything unless the scale was pinned explicitly
    // (EDGEPERF_SCALE still wins over the quick default).
    args.scale = scale_flag.unwrap_or_else(|| env_scale(if args.quick { 0.1 } else { 1.0 }));
    if args.streaming && args.checkpoint_dir.is_some() {
        return Err("--checkpoint-dir needs the exact sink: the streaming sink's sealed state \
                    has no on-disk form (drop --streaming)"
            .to_string());
    }
    Ok(args)
}

/// Whether anything asked for reads a study run.
fn needs_study(a: &Args) -> bool {
    let exp = a.experiment.as_str();
    matches!(exp, "fig6" | "fig7" | "fig8" | "fig9" | "fig10" | "table1" | "table2" | "all")
}

fn write_json(path: &Option<String>, name: &str, value: serde_json::Value) {
    if let Some(dir) = path {
        std::fs::create_dir_all(dir).expect("create json dir");
        let file = format!("{dir}/{name}.json");
        std::fs::write(&file, serde_json::to_string_pretty(&value).unwrap())
            .unwrap_or_else(|e| panic!("write {file}: {e}"));
        eprintln!("wrote {file}");
    }
}

fn main() {
    let a = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("repro: {e}");
        std::process::exit(2);
    });
    let exp = a.experiment.as_str();
    let metrics = if a.metrics || a.metrics_json.is_some() {
        Metrics::enabled()
    } else {
        Metrics::disabled()
    };
    let mut printed = String::new();

    // Figures 1–5 never read the study: nothing they leave sits on top of it.
    let workload_n = ((30_000.0 * a.scale) as usize).max(2_000);
    if matches!(exp, "fig1" | "fig2" | "fig3" | "all") {
        let out = workload_figs::run(a.seed, workload_n);
        let _ = writeln!(printed, "{out}");
        write_json(&a.json, "fig1-3", serde_json::to_value(&out).unwrap());
    }
    if matches!(exp, "fig4" | "all") {
        let rows = fig4::run();
        let _ = writeln!(printed, "{}", fig4::render(&rows));
        write_json(&a.json, "fig4", serde_json::to_value(&rows).unwrap());
    }
    if matches!(exp, "validation" | "all") {
        let res = validation::run(a.scale);
        let _ = writeln!(printed, "{res}");
        write_json(&a.json, "validation", serde_json::to_value(&res).unwrap());
    }
    if matches!(exp, "fig5" | "grouping" | "all") {
        let days = if a.days > 0 { a.days } else { 3 };
        let pts = fig5::run(a.seed, days, ((400.0 * a.scale) as usize).max(100));
        if matches!(exp, "fig5" | "all") {
            let _ = writeln!(printed, "{}", fig5::render(&pts));
            write_json(&a.json, "fig5", serde_json::to_value(&pts).unwrap());
        }
        let g = fig5::grouping_comparison(&pts);
        let _ = writeln!(printed, "{}", fig5::render_grouping(&g));
        write_json(&a.json, "grouping", serde_json::to_value(&g).unwrap());
    }

    // Nor do the experiments printed after the study's: they run before it
    // too, their text held back so that stdout keeps its order.
    let mut unread = String::new();
    if matches!(exp, "cc" | "all") {
        let rows = cc_compare::run(a.seed, ((1_500.0 * a.scale) as usize).max(200));
        let _ = writeln!(unread, "{}", cc_compare::render(&rows));
        write_json(&a.json, "cc", serde_json::to_value(&rows).unwrap());
    }
    if matches!(exp, "detector" | "all") {
        let days = if a.days > 0 { a.days.min(3) } else { 1 };
        let s = detector::run(a.seed, days, ((160.0 * a.scale) as u32).max(40), 10.0);
        let _ = writeln!(unread, "{s}");
        write_json(&a.json, "detector", serde_json::to_value(&s).unwrap());
    }
    if matches!(exp, "ablations" | "all") {
        let rows = ablations::run(a.seed, ((12.0 * a.scale) as usize).max(3));
        let _ = writeln!(unread, "{}", ablations::render(&rows));
        write_json(&a.json, "ablations", serde_json::to_value(&rows).unwrap());
    }
    if matches!(exp, "naive" | "all") {
        let r = naive::run(a.seed, ((2_000.0 * a.scale) as usize).max(300));
        let _ = writeln!(unread, "{r}");
        write_json(&a.json, "naive", serde_json::to_value(&r).unwrap());
    }

    let mut data: Option<study::StudyData> = None;
    if needs_study(&a) {
        let (world, mut cfg) = study::scaled(a.seed, a.scale);
        if a.days > 0 {
            cfg.days = a.days;
        }
        if a.sessions > 0 {
            cfg.sessions_per_group_window = a.sessions;
        }
        eprintln!(
            "running study ({}): days={} sessions/group/window={} country_fraction={:.2}",
            if a.streaming { "streaming sink" } else { "exact sink" },
            cfg.days,
            cfg.sessions_per_group_window,
            world.country_fraction
        );
        let t0 = std::time::Instant::now();
        let mut sup = SupervisorConfig::default();
        if let Some(plan) = &a.fault_plan {
            eprintln!("fault plan: {plan}");
            sup.fault_plan = plan.clone();
        }
        let d = if a.streaming {
            study::run_streaming(&world, &cfg, &sup, &metrics)
        } else {
            let checkpoint = a.checkpoint_dir.as_deref().map(std::path::Path::new);
            study::run(&world, &cfg, &sup, checkpoint, &metrics)
        };
        let d = d.unwrap_or_else(|e| {
            eprintln!("study failed: {e}");
            std::process::exit(3);
        });
        // What the sink holds — after a resume, more than this process's
        // workers emitted.
        let held = d.report.records_emitted - d.report.malformed_dropped;
        let kept =
            if a.streaming { "sessions into bounded digest cells" } else { "session records" };
        eprintln!("study: {held} {kept} in {:.1?}", t0.elapsed());
        eprint!("{}", d.report.render());
        if a.fault_plan.is_some() || a.checkpoint_dir.is_some() {
            let report = serde_json::to_value(&d.report).unwrap();
            if let Some(dir) = &a.checkpoint_dir {
                // Beside a journal that is staged and renamed: so is this.
                let file = format!("{dir}/study_report.json");
                let text = serde_json::to_string_pretty(&report).unwrap();
                atomic_write(std::path::Path::new(&file), text.as_bytes())
                    .unwrap_or_else(|e| panic!("write {file}: {e}"));
                eprintln!("wrote {file}");
            }
            write_json(&a.json, "study_report", report);
        }
        data = Some(d);
    }

    // The study experiments run straight after the study, so the rows are
    // gone before anything else runs.
    {
        // One entry per study experiment, whichever sink ran: the printed
        // text and the JSON.
        type Experiment = fn(&study::StudyData) -> (String, serde_json::Value);
        fn rendered<T: serde::Serialize>(text: String, value: &T) -> (String, serde_json::Value) {
            (text, serde_json::to_value(value).unwrap())
        }
        let experiments: [(&str, Experiment); 7] = [
            ("fig6", |d| {
                let s = study::fig6(d);
                rendered(study::render_fig6(&s), &s)
            }),
            ("fig7", |d| {
                let rows = study::fig7(d);
                rendered(study::render_fig7(&rows), &rows)
            }),
            ("fig8", |d| {
                let s = study::fig8(d);
                rendered(study::render_diffs("Figure 8: degradation vs baseline", &s), &s)
            }),
            ("table1", |d| {
                let t = study::table1_blocks(d);
                rendered(study::render_table1(&t), &t)
            }),
            ("fig9", |d| {
                let s = study::fig9(d);
                rendered(study::render_diffs("Figure 9: opportunity vs best alternate", &s), &s)
            }),
            ("fig10", |d| {
                let s = study::fig10(d);
                rendered(study::render_diffs("Figure 10: MinRTT by relationship pair", &s), &s)
            }),
            ("table2", |d| {
                let t = study::table2_outputs(d);
                rendered(study::render_table2(&t), &t)
            }),
        ];
        let wanted = |name: &str| exp == name || exp == "all";
        for (i, (name, run)) in experiments.into_iter().enumerate() {
            // The rows and tally go with their last reader: Figure 6 or 7.
            let reads_rows =
                |(n, _): &(&str, Experiment)| wanted(n) && matches!(*n, "fig6" | "fig7");
            if let Some(d) = data.as_mut().filter(|_| !experiments[i..].iter().any(reads_rows)) {
                d.sessions = None;
            }
            if !wanted(name) {
                continue;
            }
            let d = data.as_ref().expect("a study experiment has run its study");
            let (text, json) = {
                let _sp = metrics.span(&format!("figures.{name}"));
                run(d)
            };
            let _ = writeln!(printed, "{text}");
            write_json(&a.json, name, json);
        }
    }

    printed.push_str(&unread);
    if printed.is_empty() {
        eprintln!("repro: unknown experiment '{exp}'; try --help");
        std::process::exit(2);
    }
    print!("{printed}");

    if metrics.is_enabled() {
        let snap = metrics.snapshot();
        if let Some(path) = &a.metrics_json {
            std::fs::write(path, serde_json::to_string_pretty(&snap).unwrap())
                .unwrap_or_else(|e| panic!("write {path}: {e}"));
            eprintln!("wrote {path}");
        }
        if a.metrics {
            eprintln!("{}", render_table(&snap));
        }
    }

    // Never-silent quarantine: under a plan it is the expected outcome;
    // without one, every figure above is missing prefixes nobody asked to
    // lose, and an exit 0 would say otherwise.
    let lost = data.iter().flat_map(|d| &d.report.quarantined).collect::<Vec<_>>();
    if a.fault_plan.is_none() && !lost.is_empty() {
        eprintln!("repro: {} prefix(es) quarantined and missing from every figure:", lost.len());
        for q in lost {
            eprintln!("  prefix {} after {} attempts: {}", q.prefix, q.attempts, q.reason);
        }
        std::process::exit(3);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn integer_flags_keep_every_bit_of_their_own_type() {
        let a = parse(&["fig6", "--seed", "18446744073709551615", "--days", "3"]).unwrap();
        assert_eq!((a.experiment.as_str(), a.seed, a.days), ("fig6", u64::MAX, 3));
        assert_eq!(parse(&[]).unwrap().experiment, "all");
        assert_eq!(
            parse(&["--checkpoint-dir", "ck"]).unwrap().checkpoint_dir.as_deref(),
            Some("ck")
        );
    }

    #[test]
    fn bad_or_missing_values_are_messages_naming_the_flag() {
        for (args, want) in [
            (&["--seed"][..], "--seed needs an integer"),
            (&["--seed", "1.5"], "--seed needs an integer"),
            (&["--seed", "-1"], "--seed needs an integer"),
            (&["--days", "4294967296"], "--days needs an integer"),
            (&["fig6", "--sessions", "many"], "--sessions needs an integer"),
            (&["--scale", "big"], "--scale needs a number"),
            (&["all", "--json"], "--json needs a directory"),
            (&["--metrics-json"], "--metrics-json needs a path"),
            (&["--fault-plan"], "--fault-plan needs a spec"),
            (
                &["--fault-plan", "explode:3"],
                "invalid fault plan: `explode:3`: unknown clause kind",
            ),
            (&["--frobnicate", "x"], "unknown argument: --frobnicate"),
            (&["fig6", "fig7"], "unknown argument: fig7"),
        ] {
            assert_eq!(parse(args).err().as_deref(), Some(want), "{args:?}");
        }
        // A fault plan goes with either sink; a checkpoint only with the exact one.
        assert!(parse(&["fig6", "--streaming", "--fault-plan", "panic:1@1"]).is_ok());
        let refused = parse(&["fig6", "--streaming", "--checkpoint-dir", "ck"]).err().unwrap();
        assert!(refused.starts_with("--checkpoint-dir needs the exact sink"), "{refused}");
    }

    #[test]
    fn a_study_runs_only_for_an_experiment_that_can_use_it() {
        let study = |args: &[&str]| needs_study(&parse(args).unwrap());
        for exp in ["all", "fig6", "fig7", "fig8", "fig9", "fig10", "table1", "table2"] {
            assert!(study(&[exp]) && study(&[exp, "--streaming"]), "{exp}");
        }
        assert!(study(&[]) && study(&["--streaming"]));
        for exp in ["fig4", "validation", "cc", "naive", "nonesuch"] {
            assert!(!study(&[exp]) && !study(&[exp, "--streaming"]), "{exp}");
        }
    }
}
