//! The supervised study path through `StudyBuilder`: same analysis
//! outputs as the raw path, faults quarantined with the figures intact,
//! and crash → `resume_from` → completion bit-identical to an
//! uninterrupted run.

use edgeperf_analysis::SessionRecord;
use edgeperf_bench::study::{StudyBuilder, StudyData};
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

fn record_bits(r: &SessionRecord) -> (u32, u32, u8, u64, Option<u64>, u64) {
    (
        r.group.prefix.base,
        r.window,
        r.route_rank,
        r.min_rtt_ms.to_bits(),
        r.hdratio.map(f64::to_bits),
        r.bytes,
    )
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
    let (raw_records, sup_records) = (raw.records().unwrap(), sup.records().unwrap());

    assert_eq!(report.completed, report.n_prefixes);
    assert!(report.quarantined.is_empty());
    assert_eq!(sup_records.len(), raw_records.len());

    // The raw path merges per-worker shards; the supervisor merges per
    // prefix. Orders differ, multisets must not.
    let mut a: Vec<_> = raw_records.iter().map(record_bits).collect();
    let mut b: Vec<_> = sup_records.iter().map(record_bits).collect();
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b);

    // And the summarised cells drive the same figures.
    let total_bytes =
        |d: &StudyData| d.summaries.groups.iter().map(|(_, g)| g.total_bytes).sum::<u64>();
    assert_eq!(sup.summaries.groups.len(), raw.summaries.groups.len());
    assert_eq!(total_bytes(&sup), total_bytes(&raw));
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
    let (resumed, uninterrupted) = (resumed.records().unwrap(), uninterrupted.records().unwrap());
    assert_eq!(resumed.len(), uninterrupted.len());
    for (a, b) in resumed.iter().zip(uninterrupted) {
        assert_eq!(record_bits(a), record_bits(b));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_from_rejects_a_missing_checkpoint() {
    let dir = scratch_dir("missing");
    assert!(StudyBuilder::resume_from(&dir).is_err());
}
