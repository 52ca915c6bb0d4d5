//! The conditions a result was measured under (Feamster & Livingood: a
//! speed number without its test conditions is not a measurement), the
//! result file, and the `--repeat` spread table.

use crate::child::{Error, Layout, SERVE_RETENTION, SERVE_WORKERS};
use crate::live::{Plan, DENSE_PACED_RPS, MIXED_RPS, WIDE_PACED_RPS};
use crate::oracle::LATENESS_MS;
use crate::proc::status_field;
use crate::report::{num, object, outcome_value, text, Outcome, END_TO_END, PER_LAYER};
use crate::stats::{quartiles_exclusive, relative_spread};
use serde_json::Value;
use std::process::Command;

fn command_line(program: &str, args: &[&str], dir: &std::path::Path) -> Option<String> {
    let out = Command::new(program).args(args).current_dir(dir).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The environment block written into every result file.
pub fn block(layout: &Layout, seed: u64, seconds: f64) -> Value {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let plan = Plan { factor: seconds / crate::FULL_SECONDS, seed };
    let or_null = |v: Option<String>| v.map_or(Value::Null, |s| text(&s));
    object(vec![
        ("nproc", num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64)),
        (
            "cpus_allowed_list",
            or_null(status_field(&status, "Cpus_allowed_list").map(String::from)),
        ),
        (
            "loadavg_at_start",
            or_null(std::fs::read_to_string("/proc/loadavg").ok().map(|s| s.trim().to_string())),
        ),
        ("rustc", or_null(command_line("rustc", &["-V"], &layout.root))),
        ("build_profile", text("release")),
        // Absent in an exported checkout, which is not a git repository.
        ("git_head", or_null(command_line("git", &["rev-parse", "HEAD"], &layout.root))),
        ("seed", num(seed as f64)),
        ("wire", text("binary EPB1 data connection + line-protocol control connection")),
        ("serve_workers", num(SERVE_WORKERS as f64)),
        ("serve_retention_windows", num(SERVE_RETENTION as f64)),
        ("serve_lateness_ms", num(LATENESS_MS)),
        ("seconds", num(seconds)),
        ("time_scale_factor", num(plan.factor)),
        (
            "phases",
            object(vec![
                ("ingest_rounds", num(f64::from(plan.ingest_rounds()))),
                ("sat_s", num(plan.sat().as_secs_f64())),
                ("paced_s", num(plan.paced().as_secs_f64())),
                ("dense_paced_rps", num(DENSE_PACED_RPS)),
                ("wide_paced_rps", num(WIDE_PACED_RPS)),
                ("history_build_laps", num(plan.build_laps() as f64)),
                ("history_query_s_per_kind", num(plan.query().as_secs_f64())),
                ("history_mixed_s", num(plan.mixed().as_secs_f64())),
                ("history_mixed_rps", num(MIXED_RPS)),
                ("history_quiesce_cap_s", num(plan.quiesce_cap().as_secs_f64())),
                ("repro_scale", num(crate::repro::scale_for(plan.factor))),
            ]),
        ),
    ])
}

/// Write `benchmark/out/<file>`: the environment block and every outcome.
pub fn write_result(
    layout: &Layout,
    file: &str,
    environment: &Value,
    outcomes: &[(&str, &Outcome)],
) -> Result<(), Error> {
    let doc = object(vec![
        ("environment", environment.clone()),
        (
            "workloads",
            Value::Object(
                outcomes.iter().map(|(w, o)| (w.to_string(), outcome_value(o))).collect(),
            ),
        ),
    ]);
    let path = layout.out_dir.join(file);
    std::fs::write(&path, serde_json::to_string_pretty(&doc)?)?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

/// Per end-to-end metric × workload: the values of every set, their
/// interquartile spread as a share of the median, and pass/fail against
/// the metric's bound. The issue's end-to-end names (the per-layer entries
/// without a dot) are listed too, on the workloads that measure them; they
/// carry no bound and cannot fail. Returns whether every gated spread is
/// within its bound. (`setup_s` is shown but, as in the acceptance rule,
/// never fails.)
pub fn print_spread(sets: &[Vec<(&str, Outcome)>]) -> bool {
    let mut ok = true;
    println!("== spread over {} sets (IQR / median, statistics.quantiles n=4)", sets.len());
    let named = PER_LAYER.iter().filter(|def| !def.name.contains('.'));
    for (w, (workload, _)) in sets[0].iter().enumerate() {
        for def in END_TO_END.iter().chain(named.clone()) {
            let values: Vec<f64> = sets.iter().filter_map(|set| set[w].1.get(def.name)).collect();
            if values.is_empty() {
                continue;
            }
            let spread = relative_spread(&values).unwrap_or(f64::NAN);
            let verdict = match def.bound {
                Some(bound) if spread <= bound || def.name == "setup_s" => {
                    format!("bound {:>2.0}% ok", bound * 100.0)
                }
                Some(bound) => {
                    ok = false;
                    format!("bound {:>2.0}% WIDE", bound * 100.0)
                }
                None => "ungated".to_string(),
            };
            let median = quartiles_exclusive(&values).map_or(f64::NAN, |q| q[1]);
            println!(
                "   {workload:<14} {:<28} median {median:>14.4} {:<4} spread {:>6.2}% {verdict}  {values:?}",
                def.name,
                def.unit,
                spread * 100.0,
            );
        }
    }
    ok
}
