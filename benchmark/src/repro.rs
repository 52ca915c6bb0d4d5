//! The `offline_repro` workload: the batch job a researcher runs —
//! `repro all` through the exact sink, then through the streaming sink —
//! as child processes measured from outside. No live-tier code runs.

use crate::child::{run_measured, Error, Layout, RunCost, ScratchDir};
use crate::report::Outcome;
use std::path::Path;
use std::time::Duration;

/// The fig6 numbers the streaming sink must reproduce: the traffic-wide
/// MinRTT median and 80th percentile. The per-continent medians rest on a
/// handful of groups each; where such a distribution has a gap at its
/// median a t-digest may answer anywhere inside it (16 % off on some
/// seeds), so they are no gate.
const FIG6_KEYS: [&str; 2] = ["minrtt_p50", "minrtt_p80"];

/// Relative tolerance of a streaming (t-digest, compression 100) quantile
/// against the exact one. The streaming merge order varies from run to
/// run; over 20 seeds the two keys above stayed within 1.2 %.
const DIGEST_TOLERANCE: f64 = 0.03;

const RUN_TIMEOUT: Duration = Duration::from_secs(150);

/// Study scale: the default (1.0) at the benchmark's declared run length,
/// smaller only for shorter smoke runs.
pub fn scale_for(factor: f64) -> f64 {
    (factor / crate::DECLARED_FACTOR).clamp(0.05, 1.0)
}

/// One `repro all` child: JSON tree in `scratch/<name>`, stderr beside it.
fn repro(
    layout: &Layout,
    seed: u64,
    scale: f64,
    scratch: &Path,
    name: &str,
    extra: &[&str],
) -> Result<RunCost, Error> {
    let seed = seed.to_string();
    let scale = scale.to_string();
    let json = scratch.join(name).to_string_lossy().into_owned();
    let mut args = vec!["all", "--seed", &seed, "--scale", &scale, "--json", &json];
    args.extend_from_slice(extra);
    let stderr = scratch.join(format!("{name}.stderr"));
    run_measured(&layout.repro(), &args, &stderr, RUN_TIMEOUT)
}

/// Sessions the study simulated, from the `study: N session…` line `repro`
/// prints to stderr.
fn sessions(scratch: &Path, name: &str) -> Option<f64> {
    let text = std::fs::read_to_string(scratch.join(format!("{name}.stderr"))).ok()?;
    text.lines().find_map(|l| l.strip_prefix("study: ")?.split(' ').next()?.parse().ok())
}

/// The traffic-wide fig6 quantiles of `dir/fig6.json`.
fn fig6_quantiles(dir: &Path) -> Result<Vec<f64>, Error> {
    let path = dir.join("fig6.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = serde_json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    FIG6_KEYS
        .iter()
        .map(|key| match doc.get(key) {
            Some(serde_json::Value::Num(n)) => Ok(*n),
            other => Err(format!("{}: {key} is {other:?}", path.display()).into()),
        })
        .collect()
}

/// Files of two `--json` trees that differ (or exist on one side only).
fn differing_files(a: &Path, b: &Path) -> Result<Vec<String>, Error> {
    let names = |dir: &Path| -> Result<std::collections::BTreeSet<String>, Error> {
        let mut out = std::collections::BTreeSet::new();
        for entry in std::fs::read_dir(dir)? {
            out.insert(entry?.file_name().to_string_lossy().into_owned());
        }
        Ok(out)
    };
    let (left, right) = (names(a)?, names(b)?);
    let mut differing: Vec<String> = left.symmetric_difference(&right).cloned().collect();
    for name in left.intersection(&right) {
        if std::fs::read(a.join(name))? != std::fs::read(b.join(name))? {
            differing.push(name.clone());
        }
    }
    Ok(differing)
}

/// Run the workload. With `traced`, a third run of the exact job with
/// `--metrics-json` yields the offline per-layer numbers and the registry's
/// overhead, and its `--json` tree must be byte-identical to the first's.
pub fn run(layout: &Layout, seed: u64, factor: f64, traced: bool) -> Result<Outcome, Error> {
    let mut out = Outcome::default();
    let scratch = ScratchDir(layout.scratch("repro")?);
    let dir = |name: &str| scratch.0.join(name);
    let scale = scale_for(factor);
    let mut notes = Vec::new();
    let mut failed = 0;

    let exact = repro(layout, seed, scale, &scratch.0, "exact", &[])?;
    let streaming = repro(layout, seed, scale, &scratch.0, "streaming", &["--streaming"])?;
    let mut exits = vec![("exact", exact.exit_code), ("streaming", streaming.exit_code)];
    let simulated = sessions(&scratch.0, "exact").unwrap_or(0.0);
    if simulated == 0.0 || sessions(&scratch.0, "streaming") != Some(simulated) {
        failed += 1;
        notes.push("the two runs did not report the same non-zero session count".to_string());
    }
    out.set("bench.repro.sessions", simulated);
    out.set("repro_wall_s", exact.wall_s);
    out.set("repro_peak_rss_mb", exact.peak_rss_mb);
    out.set("repro_streaming_wall_s", streaming.wall_s);
    out.set("repro_streaming_peak_rss_mb", streaming.peak_rss_mb);
    out.set("bench.repro.cpu_s", exact.cpu_s);
    out.set("bench.repro.streaming_cpu_s", streaming.cpu_s);

    // Streaming fig6 must sit within the digest tolerance of exact.
    let (want, got) = (fig6_quantiles(&dir("exact"))?, fig6_quantiles(&dir("streaming"))?);
    for ((key, w), g) in FIG6_KEYS.iter().zip(&want).zip(&got) {
        if (w - g).abs() > DIGEST_TOLERANCE * w.abs() {
            failed += 1;
            notes.push(format!("streaming fig6 {key} {g} is off exact {w} by more than 3 %"));
        }
    }

    if traced {
        let metrics_json = scratch.0.join("metrics.json");
        let path = metrics_json.to_string_lossy().into_owned();
        let metered =
            repro(layout, seed, scale, &scratch.0, "metered", &["--metrics-json", &path])?;
        exits.push(("metered", metered.exit_code));
        out.set("obs.registry.repro_overhead_share", (metered.cpu_s - exact.cpu_s) / exact.cpu_s);
        let differing = differing_files(&dir("exact"), &dir("metered"))?;
        if !differing.is_empty() {
            failed += 1;
            notes.push(format!("two --json trees at seed {seed} differ in {differing:?}"));
        }
        crate::probes::offline::report_registry(&mut out, &metrics_json);
    }
    for (name, code) in exits.iter().filter(|(_, code)| *code != 0) {
        failed += 1;
        notes.push(format!("repro all ({name}) exited with code {code}"));
    }
    // Child runs, the session-count check, the fig6 checks, the tree check.
    let attempted = (exits.len() + 1 + FIG6_KEYS.len()) as u64 + u64::from(traced);
    Ok(out.finish(attempted, failed, notes))
}
