//! The study driver through `study::run`, `study::run_streaming` and the
//! `repro` command line: the same outputs with or without recovered
//! faults, from either sink; faults quarantined with the figures intact
//! and the exit code honest; crash → rerun on the same checkpoint
//! directory → completion bit-identical to an uninterrupted run; and
//! another world's checkpoint refused.

use edgeperf_analysis::{ColumnarSink, GroupKey};
use edgeperf_bench::study::{self, Sessions, StudyData};
use edgeperf_obs::Metrics;
use edgeperf_world::{FaultPlan, StudyConfig, SupervisorConfig, SupervisorError, WorldConfig};
use std::path::{Path, PathBuf};
use std::process::Command;

/// The plan CI's chaos job used to put in the environment of every test.
const CHAOS: &str = "panic:1@1;delay:0:2";

/// Seed 42 at scale 0.15: one day, 8 sessions a (group, window), two
/// workers.
fn small() -> (WorldConfig, StudyConfig) {
    let (world, mut study) = study::scaled(42, 0.15);
    (study.days, study.sessions_per_group_window, study.parallelism) = (1, 8, 2);
    (world, study)
}

fn sup(plan: &str) -> SupervisorConfig {
    SupervisorConfig { fault_plan: FaultPlan::parse(plan).unwrap(), ..Default::default() }
}

/// The small study on `parallelism` workers through the exact sink under
/// `plan`, journalled under `checkpoint` when there is one.
fn run_exact(
    plan: &str,
    parallelism: usize,
    checkpoint: Option<&Path>,
) -> Result<StudyData, SupervisorError> {
    let (world, study) = small();
    let study = StudyConfig { parallelism, ..study };
    study::run(&world, &study, &sup(plan), checkpoint, &Metrics::disabled())
}

/// The same through the streaming sink.
fn run_streaming(plan: &str, parallelism: usize) -> StudyData {
    let (world, study) = small();
    let study = StudyConfig { parallelism, ..study };
    study::run_streaming(&world, &study, &sup(plan), &Metrics::disabled()).unwrap()
}

fn exact_sink(data: &StudyData) -> &ColumnarSink {
    let Some(Sessions::Columns(sink)) = &data.sessions else {
        panic!("an exact study keeps its rows")
    };
    sink
}

/// (group, MinRTT bits) of every session the exact sink holds — the
/// preferred route's, a sorted run a group — in the order it holds them.
fn rows(data: &StudyData) -> Vec<(GroupKey, u64)> {
    let rows = exact_sink(data).rows();
    rows.map(|(group, rtt)| (group, rtt.to_bits())).collect()
}

/// Every study experiment as the JSON `repro all --json` writes for it.
fn json_tree(d: &StudyData) -> Vec<String> {
    [
        serde_json::to_string(&study::fig6(d)),
        serde_json::to_string(&study::fig7(d)),
        serde_json::to_string(&study::fig8(d)),
        serde_json::to_string(&study::fig9(d)),
        serde_json::to_string(&study::fig10(d)),
        serde_json::to_string(&study::table1_blocks(d)),
        serde_json::to_string(&study::table2_outputs(d)),
    ]
    .map(|json| json.expect("serializable"))
    .to_vec()
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("edgeperf-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn a_recovered_fault_changes_no_output_byte_of_either_sink() {
    let exact = run_exact("", 2, None).expect("fault-free run");
    assert_eq!(exact.report.completed, exact.report.n_prefixes);
    assert!(exact.report.quarantined.is_empty());
    let preferred = exact.summaries.groups.iter().flat_map(|(_, g)| g.preferred());
    assert_eq!(rows(&exact).len() as u64, preferred.map(|c| u64::from(c.n)).sum::<u64>());

    let shaken = run_exact(CHAOS, 4, None).unwrap();
    assert_eq!(shaken.report.retries, 1);
    assert_eq!(rows(&shaken), rows(&exact));
    assert_eq!(json_tree(&shaken), json_tree(&exact));

    // Streaming under `panic:1@1` writes what a clean streaming run writes.
    let streaming = run_streaming("", 2);
    let shaken = run_streaming(CHAOS, 4);
    assert_eq!((shaken.report.retries, shaken.report.completed), (1, exact.report.n_prefixes));
    assert_eq!(json_tree(&shaken), json_tree(&streaming));
    // Both sinks tally the same HDratios, so Figure 7 is the exact one.
    assert_eq!(json_tree(&streaming)[1], json_tree(&exact)[1]);
}

#[test]
fn injected_fault_quarantines_but_figures_still_compute() {
    let data = run_exact("panic:0@99", 2, None).expect("faulty run still completes");
    let report = &data.report;
    assert_eq!(report.quarantined.len(), 1);
    assert_eq!(report.quarantined[0].prefix, 0);
    assert_eq!(report.completed, report.n_prefixes - 1);
    assert!(report.render().contains("quarantined prefix 0"));
    // The analysis layer never sees the quarantined prefix; everything
    // else flows through.
    let f6 = study::fig6(&data);
    assert!(f6.minrtt_p50 > 5.0 && f6.minrtt_p50 < 100.0);
}

#[test]
fn crash_resume_is_bit_identical() {
    let uninterrupted = run_exact("", 2, None).unwrap();
    let n = uninterrupted.report.n_prefixes;

    let dir = scratch_dir("resume");
    let first = run_exact(&format!("crash:{}", n / 2), 2, Some(&dir));
    let err = first.map(|_| ()).expect_err("injected crash aborts the first run");
    assert!(err.to_string().contains("injected crash"), "got: {err}");

    // Rerunning the same study on the same directory resumes it, on any
    // worker count.
    let resumed = run_exact("", 4, Some(&dir)).expect("resume completes");
    assert_eq!(resumed.report.resumed_at, Some(n / 2 + 1));
    assert_eq!(rows(&resumed), rows(&uninterrupted));
    assert_eq!(json_tree(&resumed), json_tree(&uninterrupted));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_study_resumed_after_crash_8_tallies_what_an_uninterrupted_one_does() {
    // The journal holds each prefix's worker shard, HDratios and all, so
    // the resumed sink tallies the journalled prefixes as it rereads them.
    let uninterrupted = run_exact("", 2, None).unwrap();
    assert!(uninterrupted.report.n_prefixes > 9, "{} prefixes", uninterrupted.report.n_prefixes);
    let dir = scratch_dir("tally");
    let crashed = run_exact("crash:8", 2, Some(&dir));
    crashed.map(|_| ()).expect_err("injected crash aborts the first run");
    let resumed = run_exact("", 2, Some(&dir)).unwrap();
    assert_eq!(resumed.report.resumed_at, Some(9));
    let tally = |d: &StudyData| {
        let sink = exact_sink(d);
        let fig7 = format!("{:?}", sink.hdratio().fig7());
        (sink.hdratio().rollup(), fig7, sink.hdratio().clone())
    };
    let want = tally(&uninterrupted);
    assert!(want.0 .0.tested > 0 && want.2.fig7().len() >= 3, "{want:?}");
    assert_eq!(tally(&resumed), want);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn another_worlds_checkpoint_is_refused() {
    let dir = scratch_dir("other");
    let crashed = run_exact("crash:1", 2, Some(&dir));
    crashed.map(|_| ()).expect_err("injected crash aborts the first run");
    let (world, study) = small();
    let world = WorldConfig { seed: 7, ..world };
    let other = study::run(&world, &study, &sup(""), Some(&dir), &Metrics::disabled());
    let err = other.map(|_| ()).expect_err("another world's checkpoint is refused");
    let named = "belongs to a different study: world_seed is 42, this run has 7";
    assert!(err.to_string().contains(named), "got: {err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `repro fig6` on a study of a second or so, plus `args`; its exit code.
fn repro(json: &Path, args: &[&str]) -> Option<i32> {
    let shape = ["fig6", "--scale", "0.15", "--days", "1", "--sessions", "8", "--json"];
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(shape)
        .arg(json)
        .args(args)
        .output()
        .expect("repro runs");
    out.status.code()
}

#[test]
fn a_quarantine_nobody_planned_is_an_exit_code_and_a_planned_one_is_not() {
    let dir = scratch_dir("cli");
    let (ck, json) = (dir.join("ck"), dir.join("json"));
    let ck_arg = ck.to_str().unwrap();

    // Under a plan the quarantine is the expected outcome: exit 0, with
    // the report beside the figure.
    assert_eq!(repro(&json, &["--fault-plan", "panic:0@99"]), Some(0));
    let report = std::fs::read_to_string(json.join("study_report.json")).unwrap();
    assert!(report.contains("\"reason\": \"panic: fault-plan: injected panic"), "{report}");
    assert!(json.join("fig6.json").exists());
    // A checkpoint of the streaming sink is refused before anything runs.
    assert_eq!(repro(&json, &["--streaming", "--checkpoint-dir", ck_arg]), Some(2));
    assert!(!ck.exists());

    // The same quarantine met without a plan — here remembered by the
    // checkpoint of a run that crashed — is a loss nobody asked for: the
    // outputs are written, and the exit code says they are short.
    std::fs::remove_dir_all(&json).unwrap();
    let crashed = ["--checkpoint-dir", ck_arg, "--fault-plan", "panic:0@99;crash:3"];
    assert_eq!(repro(&json, &crashed), Some(3));
    assert!(!json.join("fig6.json").exists(), "the crashed run wrote no figure");
    assert_eq!(repro(&json, &["--checkpoint-dir", ck_arg]), Some(3));
    assert!(json.join("fig6.json").exists());
    let report = std::fs::read_to_string(ck.join("study_report.json")).unwrap();
    assert!(report.contains("\"resumed_at\": 4"), "{report}");
    assert!(!ck.join("study_report.json.tmp").exists(), "staged and renamed");
    let _ = std::fs::remove_dir_all(&dir);
}
