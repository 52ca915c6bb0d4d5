//! The study driver through `StudyBuilder` and the `repro` command line:
//! the same outputs with or without recovered faults, from either sink;
//! faults quarantined with the figures intact and the exit code honest;
//! and crash → rerun on the same checkpoint directory → completion
//! bit-identical to an uninterrupted run.

use edgeperf_analysis::{ColumnarSink, GroupKey};
use edgeperf_bench::study::{self, Sessions, StudyBuilder, StudyData};
use edgeperf_world::FaultPlan;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The plan CI's chaos job used to put in the environment of every test.
const CHAOS: &str = "panic:1@1;delay:0:2";

fn small() -> StudyBuilder {
    StudyBuilder::new().seed(42).scale(0.15).days(1).sessions_per_group_window(8).parallelism(2)
}

fn plan(spec: &str) -> FaultPlan {
    FaultPlan::parse(spec).unwrap()
}

fn exact_sink(data: &StudyData) -> &ColumnarSink {
    let Some(Sessions::Columns(sink)) = &data.sessions else {
        panic!("an exact study keeps its rows")
    };
    sink
}

/// (group, window, rank, MinRTT bits) of every session the exact sink
/// holds — the preferred route's — in the order it holds them.
fn rows(data: &StudyData) -> Vec<(GroupKey, u32, u8, u64)> {
    let rows = exact_sink(data).rows();
    rows.map(|(cell, rtt)| (cell.group, cell.window, cell.rank, rtt.to_bits())).collect()
}

/// Every study experiment as the JSON `repro all --json` writes for it
/// (fig7 only from the exact sink).
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
    let exact = small().run().expect("fault-free run");
    assert_eq!(exact.report.completed, exact.report.n_prefixes);
    assert!(exact.report.quarantined.is_empty());
    let preferred = exact.summaries.groups.iter().flat_map(|(_, g)| g.preferred());
    assert_eq!(rows(&exact).len() as u64, preferred.map(|c| c.n).sum::<u64>());

    let shaken = small().fault_plan(plan(CHAOS)).parallelism(4).run().unwrap();
    assert_eq!(shaken.report.retries, 1);
    assert_eq!(rows(&shaken), rows(&exact));
    assert_eq!(json_tree(&shaken), json_tree(&exact));

    // Streaming under `panic:1@1` writes what a clean streaming run writes.
    let streaming = small().run_streaming().unwrap();
    let shaken = small().fault_plan(plan(CHAOS)).parallelism(4).run_streaming().unwrap();
    assert_eq!((shaken.report.retries, shaken.report.completed), (1, exact.report.n_prefixes));
    assert_eq!(json_tree(&shaken), json_tree(&streaming));
}

#[test]
fn injected_fault_quarantines_but_figures_still_compute() {
    let data = small().fault_plan(plan("panic:0@99")).run().expect("faulty run still completes");
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
fn crash_resume_via_builder_is_bit_identical() {
    let uninterrupted = small().run().unwrap();
    let n = uninterrupted.report.n_prefixes;

    let dir = scratch_dir("resume");
    let first = small().checkpoint_dir(&dir).fault_plan(plan(&format!("crash:{}", n / 2))).run();
    let err = first.map(|_| ()).expect_err("injected crash aborts the first run");
    assert!(err.to_string().contains("injected crash"), "got: {err}");

    // Rerunning the same shape on the same directory resumes it, on any
    // worker count.
    let resumed = small().parallelism(4).checkpoint_dir(&dir).run().expect("resume completes");
    assert_eq!(resumed.report.resumed_at, Some(n / 2 + 1));
    assert_eq!(rows(&resumed), rows(&uninterrupted));
    assert_eq!(json_tree(&resumed), json_tree(&uninterrupted));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_study_resumed_after_crash_8_tallies_what_an_uninterrupted_one_does() {
    // The journal holds each prefix's worker shard, HDratios and all, so
    // the resumed sink tallies the journalled prefixes as it rereads them.
    let uninterrupted = small().run().unwrap();
    assert!(uninterrupted.report.n_prefixes > 9, "{} prefixes", uninterrupted.report.n_prefixes);
    let dir = scratch_dir("tally");
    let crashed = small().checkpoint_dir(&dir).fault_plan(plan("crash:8")).run();
    crashed.map(|_| ()).expect_err("injected crash aborts the first run");
    let resumed = small().checkpoint_dir(&dir).run().unwrap();
    assert_eq!(resumed.report.resumed_at, Some(9));
    let tally = |d: &StudyData| {
        let sink = exact_sink(d);
        let fig7 = format!("{:?}", sink.hdratio().fig7());
        (sink.hdratio_rollup(), fig7, sink.hdratio().clone())
    };
    let want = tally(&uninterrupted);
    assert!(want.0 .0.tested > 0 && want.2.fig7().len() >= 3, "{want:?}");
    assert_eq!(tally(&resumed), want);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn what_cannot_be_resumed_or_checkpointed_is_an_error() {
    let dir = scratch_dir("other");
    let crashed = small().checkpoint_dir(&dir).fault_plan(plan("crash:1")).run();
    crashed.map(|_| ()).expect_err("injected crash aborts the first run");
    let other = small().seed(7).checkpoint_dir(&dir).run().map(|_| ());
    let err = other.expect_err("another study's checkpoint is refused");
    assert!(err.to_string().contains("belongs to a different study"), "got: {err}");
    let _ = std::fs::remove_dir_all(&dir);

    let dir = scratch_dir("missing");
    let refused = small().checkpoint_dir(&dir).run_streaming().map(|_| ());
    let err = refused.expect_err("no on-disk form");
    assert!(err.to_string().contains("streaming sink cannot be checkpointed"), "got: {err}");
    assert!(!dir.exists(), "refused before anything was written");
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
