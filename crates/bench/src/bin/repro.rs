//! `repro` — regenerate every table and figure of the paper.
//!
//! Usage:
//! ```text
//! repro <experiment> [--seed N] [--days N] [--sessions N] [--scale F] [--json PATH] [--streaming]
//!                    [--metrics] [--metrics-json PATH]
//!
//! experiments:
//!   fig1 fig2 fig3      traffic characterization (Figures 1–3)
//!   fig4                worked example (Figure 4)
//!   validation          §3.2.3 NS3-style sweep (15,840 configs at scale 1)
//!   fig5                client-mix MinRTT shift (Figure 5)
//!   fig6 fig7           global performance (Figures 6–7)
//!   fig8 table1         degradation over time (Figure 8, Table 1)
//!   fig9 fig10 table2   routing opportunity (Figures 9–10, Table 2)
//!   naive               naive-vs-model achieved-rule ablation (§4)
//!   bench               pipeline-throughput baseline (--quick, --bench-json)
//!   all                 everything (one shared study run; excludes bench)
//! ```
//!
//! `--scale` (or `EDGEPERF_SCALE`) trades fidelity for speed: it thins the
//! validation grid and shrinks the study (countries and sessions).
//! Scale 1.0 reproduces the full configuration; CI uses ~0.1.
//!
//! `--streaming` runs the study through the bounded-memory t-digest sink
//! instead of collecting every record: every figure and table is computed
//! from the digest cells but figure 7 (a joint distribution over sessions,
//! which no cell holds), skipped with a note. Per-worker scheduler
//! counters are printed either way.
//!
//! `--metrics` prints the observability snapshot (counters, gauges,
//! latency histograms, phase spans) to stderr after the run;
//! `--metrics-json PATH` writes the same snapshot as JSON. Either flag
//! enables recording; otherwise the metrics layer stays a dead branch.
//!
//! `--supervised` runs the study under the fault-tolerant supervisor
//! (panic isolation, retry/quarantine, watchdog deadlines).
//! `--checkpoint-dir PATH` adds periodic checkpoints there — a rerun
//! against the same directory resumes after the last merged prefix, and
//! the supervisor's `study_report.json` is written alongside the
//! checkpoint. `--fault-plan SPEC` (or `EDGEPERF_FAULT_PLAN`) injects
//! deterministic faults — `panic:K`, `stall:K`, `delay:W:MS`,
//! `malformed:N`, `mergefail:K`, `crash:K` — for chaos testing. Either
//! flag implies `--supervised`. `--quick` shrinks the study to scale 0.1
//! unless `--scale` is given.

use edgeperf_analysis::sink::RecordSink;
use edgeperf_bench::{
    ablations, cc_compare, detector, env_scale, fig4, fig5, naive, pipeline_bench, study,
    validation, workload_figs,
};
use edgeperf_obs::{render_table, Metrics};
use std::fmt::Write as _;

struct Args {
    experiment: String,
    seed: u64,
    days: u32,
    sessions: u32,
    scale: f64,
    json: Option<String>,
    bench_json: Option<String>,
    quick: bool,
    streaming: bool,
    metrics: bool,
    metrics_json: Option<String>,
    supervised: bool,
    fault_plan: Option<String>,
    checkpoint_dir: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        experiment: String::new(),
        seed: 20190521,
        days: 0, // 0 = per-experiment default
        sessions: 0,
        scale: 0.0, // resolved after parsing (depends on --quick)
        json: None,
        bench_json: None,
        quick: false,
        streaming: false,
        metrics: false,
        metrics_json: None,
        supervised: false,
        fault_plan: None,
        checkpoint_dir: None,
    };
    let mut scale_flag: Option<f64> = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => args.seed = it.next().expect("--seed N").parse().expect("seed"),
            "--days" => args.days = it.next().expect("--days N").parse().expect("days"),
            "--sessions" => {
                args.sessions = it.next().expect("--sessions N").parse().expect("sessions")
            }
            "--scale" => scale_flag = Some(it.next().expect("--scale F").parse().expect("scale")),
            "--json" => args.json = Some(it.next().expect("--json PATH")),
            "--bench-json" => args.bench_json = Some(it.next().expect("--bench-json PATH")),
            "--quick" => args.quick = true,
            "--streaming" => args.streaming = true,
            "--metrics" => args.metrics = true,
            "--metrics-json" => args.metrics_json = Some(it.next().expect("--metrics-json PATH")),
            "--supervised" => args.supervised = true,
            "--fault-plan" => args.fault_plan = Some(it.next().expect("--fault-plan SPEC")),
            "--checkpoint-dir" => {
                args.checkpoint_dir = Some(it.next().expect("--checkpoint-dir PATH"))
            }
            "--help" | "-h" => {
                eprintln!("repro <experiment> [--seed N] [--days N] [--sessions N] [--scale F] [--json PATH] [--streaming]");
                eprintln!("       repro bench [--quick] [--bench-json PATH]   pipeline throughput baseline");
                eprintln!("       --metrics prints the observability snapshot to stderr; --metrics-json PATH writes it as JSON");
                eprintln!("       --supervised [--fault-plan SPEC] [--checkpoint-dir PATH]   fault-tolerant study driver");
                eprintln!("experiments: fig1..fig10, table1, table2, fig4, validation, naive, ablations, bench, all");
                std::process::exit(0);
            }
            exp if args.experiment.is_empty() && !exp.starts_with('-') => {
                args.experiment = exp.to_string()
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    if args.experiment.is_empty() {
        args.experiment = "all".to_string();
    }
    // --quick shrinks everything unless the scale was pinned explicitly
    // (EDGEPERF_SCALE still wins over the quick default).
    args.scale = scale_flag.unwrap_or_else(|| env_scale(if args.quick { 0.1 } else { 1.0 }));
    if args.fault_plan.is_some() || args.checkpoint_dir.is_some() {
        args.supervised = true;
    }
    args
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

fn study_builder(a: &Args, metrics: &Metrics) -> study::StudyBuilder {
    let mut b = study::StudyBuilder::new().seed(a.seed).scale(a.scale).metrics(metrics);
    if a.days > 0 {
        b = b.days(a.days);
    }
    if a.sessions > 0 {
        b = b.sessions_per_group_window(a.sessions);
    }
    b
}

fn main() {
    let a = parse_args();
    let exp = a.experiment.as_str();
    let metrics = if a.metrics || a.metrics_json.is_some() {
        Metrics::enabled()
    } else {
        Metrics::disabled()
    };
    let mut printed = String::new();

    let needs_study =
        matches!(exp, "fig6" | "fig7" | "fig8" | "fig9" | "fig10" | "table1" | "table2" | "all");
    let mut data: Option<study::StudyData> = None;
    if needs_study {
        let mut b = study_builder(&a, &metrics);
        eprintln!(
            "running study ({}): days={} sessions/group/window={} country_fraction={:.2}",
            if a.supervised {
                "supervised"
            } else if a.streaming {
                "streaming sink"
            } else {
                "exact sink"
            },
            b.resolved_days(),
            b.resolved_sessions_per_group_window(),
            b.resolved_country_fraction()
        );
        let t0 = std::time::Instant::now();
        let (d, report) = if a.supervised {
            if a.streaming {
                eprintln!("note: --supervised uses the exact sink; --streaming ignored");
            }
            if let Some(spec) = &a.fault_plan {
                let plan = edgeperf_world::FaultPlan::parse(spec).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(2);
                });
                eprintln!("fault plan: {plan}");
                b = b.fault_plan(plan);
            }
            if let Some(dir) = &a.checkpoint_dir {
                b = b.checkpoint_dir(dir);
            }
            match b.run_supervised() {
                Ok((d, report)) => (d, Some(report)),
                Err(e) => {
                    eprintln!("supervised study failed: {e}");
                    std::process::exit(3);
                }
            }
        } else if a.streaming {
            (b.run_streaming(), None)
        } else {
            (b.run(), None)
        };
        match &d.sessions {
            // What the sink holds: after a resume that is more than this
            // process's workers emitted.
            study::Sessions::Columns(sink) => {
                eprintln!("study: {} session records in {:.1?}", sink.stats().records, t0.elapsed())
            }
            study::Sessions::Digests(_) => eprintln!(
                "study: {} sessions into bounded digest cells in {:.1?}",
                d.stats.total().records_emitted,
                t0.elapsed()
            ),
        }
        eprintln!("{}", study::render_stats(&d.stats));
        if let Some(report) = report {
            eprint!("{}", report.render());
            let report_json = serde_json::to_string_pretty(&report.to_value()).unwrap();
            if let Some(dir) = &a.checkpoint_dir {
                let file = format!("{dir}/study_report.json");
                std::fs::create_dir_all(dir).expect("create checkpoint dir");
                std::fs::write(&file, &report_json).unwrap_or_else(|e| panic!("write {file}: {e}"));
                eprintln!("wrote {file}");
            }
            write_json(&a.json, "study_report", serde_json::parse(&report_json).unwrap());
        }
        data = Some(d);
    }

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
    if let Some(data) = &data {
        // One entry per study experiment, whichever sink ran: the printed
        // text and the JSON, or `None` when the sink kept too little.
        type Experiment = fn(&study::StudyData) -> Option<(String, serde_json::Value)>;
        fn rendered<T: serde::Serialize>(
            text: String,
            value: &T,
        ) -> Option<(String, serde_json::Value)> {
            Some((text, serde_json::to_value(value).unwrap()))
        }
        let experiments: [(&str, Experiment); 7] = [
            ("fig6", |d| {
                let s = study::fig6(d);
                rendered(study::render_fig6(&s), &s)
            }),
            ("fig7", |d| {
                let rows = study::fig7(d)?;
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
        for (name, run) in experiments {
            if exp != name && exp != "all" {
                continue;
            }
            let out = {
                let _sp = metrics.span(&format!("figures.{name}"));
                run(data)
            };
            match out {
                Some((text, json)) => {
                    let _ = writeln!(printed, "{text}");
                    write_json(&a.json, name, json);
                }
                None => {
                    let _ = writeln!(
                        printed,
                        "== {name}: skipped — needs per-session records; rerun without --streaming ==\n"
                    );
                }
            }
        }
    }
    if matches!(exp, "cc" | "all") {
        let rows = cc_compare::run(a.seed, ((1_500.0 * a.scale) as usize).max(200));
        let _ = writeln!(printed, "{}", cc_compare::render(&rows));
        write_json(&a.json, "cc", serde_json::to_value(&rows).unwrap());
    }
    if matches!(exp, "detector" | "all") {
        let days = if a.days > 0 { a.days.min(3) } else { 1 };
        let s = detector::run(a.seed, days, ((160.0 * a.scale) as u32).max(40), 10.0);
        let _ = writeln!(printed, "{s}");
        write_json(&a.json, "detector", serde_json::to_value(&s).unwrap());
    }
    if matches!(exp, "ablations" | "all") {
        let rows = ablations::run(a.seed, ((12.0 * a.scale) as usize).max(3));
        let _ = writeln!(printed, "{}", ablations::render(&rows));
        write_json(&a.json, "ablations", serde_json::to_value(&rows).unwrap());
    }
    if matches!(exp, "naive" | "all") {
        let r = naive::run(a.seed, ((2_000.0 * a.scale) as usize).max(300));
        let _ = writeln!(printed, "{r}");
        write_json(&a.json, "naive", serde_json::to_value(&r).unwrap());
    }
    // Deliberately not part of `all`: it re-runs the study several times
    // to time each ingestion path.
    if matches!(exp, "bench") {
        let r = pipeline_bench::run_observed(
            &pipeline_bench::BenchOptions { seed: a.seed, quick: a.quick },
            &metrics,
        );
        let _ = writeln!(printed, "{}", pipeline_bench::render(&r));
        write_json(&a.json, "bench", serde_json::to_value(&r).unwrap());
        if let Some(path) = &a.bench_json {
            std::fs::write(path, serde_json::to_string_pretty(&r).unwrap())
                .unwrap_or_else(|e| panic!("write {path}: {e}"));
            eprintln!("wrote {path}");
        }
    }

    if printed.is_empty() {
        eprintln!("unknown experiment '{exp}'; try --help");
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
}
