//! The supervised study path through `StudyBuilder`: same analysis
//! outputs as the raw path, faults quarantined with the figures intact,
//! and crash → `resume_from` → completion bit-identical to an
//! uninterrupted run.

use edgeperf_analysis::GroupKey;
use edgeperf_bench::study::{Sessions, StudyBuilder, StudyData};
use edgeperf_world::FaultPlan;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn small() -> StudyBuilder {
    StudyBuilder::new()
        .seed(42)
        .days(1)
        .sessions_per_group_window(8)
        .country_fraction(0.15)
        .parallelism(2)
}

/// (group, window, rank, MinRTT bits, HDratio bits) of every session the
/// exact sink holds, in the order it holds them.
fn rows(data: &StudyData) -> Vec<(GroupKey, u32, u8, u64, Option<u64>)> {
    let Sessions::Columns(sink) = &data.sessions else { panic!("an exact study keeps its rows") };
    sink.rows()
        .map(|(cell, rtt, hd)| {
            (cell.group, cell.window, cell.rank, rtt.to_bits(), hd.map(f64::to_bits))
        })
        .collect()
}

/// (group, rank, window, bytes) of every cell, sorted.
fn cell_bytes(data: &StudyData) -> Vec<(GroupKey, usize, usize, u64)> {
    let mut out = Vec::new();
    for (key, g) in &data.summaries.groups {
        for (rank, windows) in g.ranks.iter().enumerate() {
            for (w, cell) in windows.iter().enumerate() {
                out.extend(cell.map(|c| (*key, rank, w, c.bytes)));
            }
        }
    }
    out.sort_unstable();
    out
}

fn scratch_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "edgeperf-bench-supervised-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn supervised_run_matches_raw_run_as_a_multiset() {
    let raw = small().run();
    let (sup, report) = small().run_supervised().expect("fault-free supervised run");
    assert_eq!(report.completed, report.n_prefixes);
    assert!(report.quarantined.is_empty());

    // The raw path merges per-worker shards; the supervisor merges per
    // prefix. Orders differ, multisets must not.
    let (mut a, mut b) = (rows(&raw), rows(&sup));
    assert_eq!(a.len() as u64, raw.stats.total().records_emitted);
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b);

    // Bytes are kept per cell, not per row; and the summarised cells drive
    // the same figures.
    assert_eq!(cell_bytes(&sup), cell_bytes(&raw));
    assert_eq!(sup.summaries.groups.len(), raw.summaries.groups.len());
}

#[test]
fn injected_fault_quarantines_but_figures_still_compute() {
    let (sup, report) = small()
        .fault_plan(FaultPlan::parse("panic:0@99").unwrap())
        .run_supervised()
        .expect("faulty run still completes");
    assert_eq!(report.quarantined.len(), 1);
    assert_eq!(report.quarantined[0].prefix, 0);
    assert_eq!(report.completed, report.n_prefixes - 1);
    let text = report.render();
    assert!(text.contains("quarantined prefix 0"));
    // The analysis layer never sees the quarantined prefix; everything
    // else flows through.
    let f6 = edgeperf_bench::study::fig6(&sup);
    assert!(f6.minrtt_p50 > 5.0 && f6.minrtt_p50 < 100.0);
}

#[test]
fn crash_resume_via_builder_is_bit_identical() {
    let (uninterrupted, report) = small().run_supervised().unwrap();
    let n = report.n_prefixes;

    let dir = scratch_dir("resume");
    let first = small()
        .checkpoint_dir(&dir)
        .fault_plan(FaultPlan::parse(&format!("crash:{}", n / 2)).unwrap())
        .run_supervised();
    let err = first.err().expect("injected crash aborts the first run");
    assert!(err.to_string().contains("injected crash"), "got: {err}");

    // `resume_from` rebuilds the study shape from the checkpoint alone.
    let (resumed, report) = StudyBuilder::resume_from(&dir)
        .expect("checkpoint readable")
        .parallelism(4)
        .run_supervised()
        .expect("resume completes");
    assert_eq!(report.resumed_at, Some(n / 2 + 1));
    assert_eq!(rows(&resumed), rows(&uninterrupted));
    assert_eq!(cell_bytes(&resumed), cell_bytes(&uninterrupted));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_from_rejects_a_missing_checkpoint() {
    let dir = scratch_dir("missing");
    assert!(StudyBuilder::resume_from(&dir).is_err());
}
