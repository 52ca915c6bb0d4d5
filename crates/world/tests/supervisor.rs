//! Semantics of the study driver, exercised through the deterministic
//! fault-injection harness.
//!
//! The contract under test: whatever faults fire, the study completes
//! with an exact account of what is missing — unaffected prefixes are
//! bit-identical to a fault-free run, quarantine hits exactly the
//! injected prefixes after the retry budget, and a crash resumed from a
//! checkpoint reproduces the uninterrupted output bit-for-bit at any
//! parallelism. Output is what the exact sink every figure reads from
//! holds: `ColumnarSink::rows()` as bit tuples, its summaries and its
//! HDratio tally.

use edgeperf_analysis::figures::HdratioTally;
use edgeperf_analysis::{atomic_write, ColumnarSink, RecordSink, SessionRecord, StreamingDataset};
use edgeperf_obs::{Metrics, MetricsSnapshot};
use edgeperf_workload::WorkloadConfig;
use edgeperf_world::{
    run_study_checkpointed, run_study_into, run_study_supervised, FaultPlan, StudyConfig,
    StudyReport, SupervisorConfig, SupervisorError, World, WorldConfig, RETRY_BUDGET,
};
use serde::Deserialize;
use std::path::{Path, PathBuf};

/// The plan CI's chaos job used to put in the environment of every test:
/// the fault-free assertions below hold under it too.
const CHAOS: &str = "panic:1@1;delay:0:2";

/// A thinned world: enough prefixes for the scheduler to matter, small
/// enough that every test finishes in well under a second of sim time.
fn tiny() -> (World, StudyConfig) {
    let world =
        World::generate(WorldConfig { seed: 42, country_fraction: 0.12, ..Default::default() });
    assert!(world.prefixes.len() >= 8, "world too small for fault targeting");
    let cfg = StudyConfig {
        seed: 11,
        days: 1,
        sessions_per_group_window: 2,
        parallelism: 2,
        ..Default::default()
    };
    (world, cfg)
}

/// The default supervisor under `plan`: a generous deadline (the
/// watchdog tests shrink it explicitly).
fn sup(plan: &str) -> SupervisorConfig {
    SupervisorConfig { fault_plan: FaultPlan::parse(plan).unwrap(), ..SupervisorConfig::default() }
}

fn sink_for(cfg: &StudyConfig) -> ColumnarSink {
    ColumnarSink::new(cfg.n_windows() as usize)
}

/// One study into a fresh exact sink.
fn run(world: &World, cfg: &StudyConfig, sup: &SupervisorConfig) -> (ColumnarSink, StudyReport) {
    let mut sink = sink_for(cfg);
    let report = run_study_supervised(world, cfg, sup, &mut sink, &Metrics::disabled())
        .expect("no crash planned");
    (sink, report)
}

/// The same, journalled under `dir` (resuming whatever is there): the
/// cumulative report, and this process's share of it as its metrics.
fn run_in(
    dir: &Path,
    world: &World,
    cfg: &StudyConfig,
    sup: &SupervisorConfig,
) -> Result<(ColumnarSink, StudyReport, MetricsSnapshot), SupervisorError> {
    let (mut sink, metrics) = (sink_for(cfg), Metrics::enabled());
    let report = run_study_checkpointed(world, cfg, sup, dir, &mut sink, &metrics)?;
    Ok((sink, report, metrics.snapshot()))
}

/// The report `dir`'s manifest carries.
fn manifest_report(dir: &Path) -> StudyReport {
    let text = std::fs::read_to_string(dir.join("checkpoint.json")).expect("a manifest");
    let manifest = serde_json::parse(&text).expect("a manifest is JSON");
    StudyReport::from_value(manifest.get("report").expect("a report member")).expect("a report")
}

type Row = (u32, u16, u64);

/// Every session the sink holds, in the order it holds them — group by
/// group, each group's sorted — : prefix, PoP, MinRTT bits.
fn rows(sink: &ColumnarSink) -> Vec<Row> {
    let rows = sink.rows();
    rows.map(|(group, rtt)| (group.prefix.base, group.pop.0, rtt.to_bits())).collect()
}

/// Every cell's summary (bytes and flags included) as text: `{:?}` prints
/// floats in shortest round-trip form, so equal text means equal bits.
fn cells(sink: &ColumnarSink) -> String {
    format!("{:?}", sink.summarize().groups)
}

fn assert_same(a: &ColumnarSink, b: &ColumnarSink, what: &str) {
    assert_eq!(rows(a), rows(b), "{what}");
    assert_eq!(cells(a), cells(b), "{what}");
    assert_eq!(a.hdratio(), b.hdratio(), "{what}");
}

/// A fresh checkpoint directory under the system temp dir, one a test.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("edgeperf-supervisor-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn output_is_the_same_bits_at_any_parallelism_with_or_without_recovered_faults() {
    let (world, cfg) = tiny();

    // `run_study_into` is the driver under its defaults: the baseline.
    let mut baseline = sink_for(&cfg);
    let report = run_study_into(&world, &StudyConfig { parallelism: 1, ..cfg }, &mut baseline);
    assert_eq!(report.records_emitted, baseline.stats().records);

    // Fragments merge strictly by prefix index, so the sink holds the same
    // rows in the same order at ANY parallelism — and a fault the retry
    // budget absorbs (a first-attempt panic, a failed merge: the prefix is
    // recomputed) leaves no trace in it.
    for plan in ["", CHAOS, "mergefail:3"] {
        for p in [1usize, 4] {
            let mut sink = sink_for(&cfg);
            let report = run_study_supervised(
                &world,
                &StudyConfig { parallelism: p, ..cfg },
                &sup(plan),
                &mut sink,
                &Metrics::disabled(),
            )
            .expect("nothing here can fail the run");
            assert_same(&sink, &baseline, &format!("plan {plan:?} parallelism {p}"));
            assert_eq!(report.completed, world.prefixes.len());
            assert_eq!(report.n_prefixes, world.prefixes.len());
            assert!(report.quarantined.is_empty());
            assert_eq!(report.retries, u64::from(!plan.is_empty()));
            assert_eq!(report.merge_failures, u64::from(plan == "mergefail:3"));
            assert_eq!(report.malformed_dropped, 0);
            assert_eq!(report.records_emitted, sink.stats().records);
        }
    }
}

#[test]
fn the_streaming_sink_runs_under_the_same_driver_and_the_same_faults() {
    // What `repro --streaming --fault-plan` is: a sealed fragment per
    // prefix, a panicked attempt's fragment dropped whole, the retry's
    // merged in its place — the same summaries and Figure 6 rollups, bit
    // for bit, as a clean run's.
    let (world, cfg) = tiny();
    let run = |plan: &str, parallelism: usize| {
        let mut sink = StreamingDataset::new(cfg.n_windows() as usize);
        let cfg = StudyConfig { parallelism, ..cfg };
        let report =
            run_study_supervised(&world, &cfg, &sup(plan), &mut sink, &Metrics::disabled())
                .unwrap();
        assert_eq!(report.retries, u64::from(!plan.is_empty()));
        let (minrtt, per_continent) = sink.minrtt_rollup();
        let rollups: Vec<_> =
            std::iter::once(&minrtt).chain(per_continent.values()).map(|d| d.to_parts()).collect();
        (format!("{:?}", sink.summarize().groups), rollups, sink.hdratio_rollup(), sink.stats())
    };
    let clean = run("", 1);
    assert!(clean.3.records > 0);
    assert_eq!(run(CHAOS, 1), clean);
    assert_eq!(run(CHAOS, 4), clean);
}

#[test]
fn panicking_prefix_is_quarantined_and_the_rest_is_bit_identical() {
    let (world, cfg) = tiny();
    let n = world.prefixes.len();
    let victim = n / 2;
    let victim_base = world.prefixes[victim].prefix.base;

    let (clean, _) = run(&world, &cfg, &sup(""));

    // Panic on every attempt: budget 2 → 3 attempts, then quarantine.
    let (faulty, report) = run(&world, &cfg, &sup(&format!("panic:{victim}@99")));

    assert_eq!(report.completed, n - 1);
    assert_eq!(report.retries, 2);
    assert_eq!(report.quarantined.len(), 1);
    let q = &report.quarantined[0];
    assert_eq!(q.prefix, victim);
    assert_eq!(q.attempts, 3);
    assert!(q.reason.contains("injected panic"), "reason: {}", q.reason);

    // Every other prefix's rows survive bit-identically, in order.
    let expected: Vec<Row> = rows(&clean).into_iter().filter(|r| r.0 != victim_base).collect();
    assert!(expected.len() < rows(&clean).len(), "the victim has rows to lose");
    assert_eq!(rows(&faulty), expected);
}

#[test]
fn acceptance_scenario_panic_plus_stall_completes_with_exact_quarantine() {
    // A FaultPlan study with one panicking prefix and one stuck worker
    // completes, quarantining exactly the panicking prefix after the
    // retry budget.
    let (world, cfg) = tiny();
    let n = world.prefixes.len();
    let (bad, stuck) = (n / 3, 2 * n / 3);
    assert_ne!(bad, stuck);

    let faulty_sup = SupervisorConfig {
        // The stall fires on attempt 0 only; a 120 ms deadline catches it.
        deadline: std::time::Duration::from_millis(120),
        ..sup(&format!("panic:{bad}@99;stall:{stuck}@1"))
    };
    let (sink, report) = run(&world, &cfg, &faulty_sup);

    assert_eq!(report.completed, n - 1);
    assert_eq!(report.quarantined.len(), 1);
    assert_eq!(report.quarantined[0].prefix, bad);
    assert_eq!(report.quarantined[0].attempts, 1 + RETRY_BUDGET);
    assert!(report.watchdog_aborts >= 1, "stalled prefix never aborted");
    assert!(report.watchdog_slow >= 1, "slow mark should precede the abort");
    // The stalled prefix recovered rather than being quarantined, and its
    // retry replayed the identical stream (deterministic per-prefix RNG):
    // but for the quarantined prefix, the rows are a clean run's.
    let bad_base = world.prefixes[bad].prefix.base;
    let clean = rows(&run(&world, &cfg, &sup("")).0);
    assert_eq!(rows(&sink), clean.into_iter().filter(|r| r.0 != bad_base).collect::<Vec<_>>());
}

#[test]
fn malformed_records_are_dropped_counted_and_never_reach_the_sink() {
    let (world, cfg) = tiny();
    let (sink, report) = run(&world, &cfg, &sup("malformed:7"));

    // Every 7th record of each prefix, as many as when the injector wrote
    // a NaN MinRTT instead of a NaN HDratio (252 of 1,834 in this study).
    assert_eq!(report.malformed_dropped, 252, "the injector drops other records");
    // Accounting closes: emitted = kept + dropped.
    assert_eq!(report.records_emitted, sink.stats().records + report.malformed_dropped);
    // Validation held the line: no NaN HDratio reached the tally, which is
    // that of the records the same plan lets through, each HDratio finite.
    let mut kept: Vec<SessionRecord> = Vec::new();
    run_study_supervised(&world, &cfg, &sup("malformed:7"), &mut kept, &Metrics::disabled())
        .expect("no crash planned");
    assert!(kept.iter().all(|r| r.hdratio.is_none_or(f64::is_finite)));
    assert_eq!(sink.hdratio(), &HdratioTally::of(&kept));
    let fig7 = sink.hdratio().fig7();
    assert!(fig7.iter().all(|b| b.median.is_finite()), "{fig7:?}");
}

#[test]
fn crash_then_resume_is_bit_identical_to_uninterrupted() {
    let (world, cfg) = tiny();
    let n = world.prefixes.len();

    for plan in ["", CHAOS] {
        for p in [1usize, 4] {
            let cfg = StudyConfig { parallelism: p, ..cfg };
            let (uninterrupted, _) = run(&world, &cfg, &sup(plan));

            let dir = scratch_dir("resume");
            // First process: crash right after merging the middle prefix.
            let crash = format!("{plan};crash:{}", n / 2);
            let err = run_in(&dir, &world, &cfg, &sup(&crash))
                .expect_err("the injected crash must abort the run");
            assert!(err.to_string().contains("injected crash"), "got: {err}");
            let at_crash = manifest_report(&dir);
            assert_eq!(at_crash.completed, n / 2 + 1);

            // Second process: same checkpoint dir, no crash → resume.
            let (resumed, report, ours) = run_in(&dir, &world, &cfg, &sup(plan)).unwrap();
            assert_eq!(report.resumed_at, Some(n / 2 + 1), "parallelism {p}");
            assert_eq!(report.completed, n, "cumulative completion count survives resume");
            let merged = ours.counters["supervisor.prefixes_merged"];
            assert_eq!(merged as usize, n - (n / 2 + 1), "only the rest reran");
            // The counters are this process's share of the cumulative report.
            assert_eq!(
                ours.counters["runner.sessions_simulated"],
                report.sessions_simulated - at_crash.sessions_simulated
            );
            assert_same(&resumed, &uninterrupted, &format!("plan {plan:?} parallelism {p}"));
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn resume_preserves_quarantine_across_the_crash() {
    let (world, cfg) = tiny();
    let n = world.prefixes.len();
    let victim = 1;
    let crash_at = n / 2;
    assert!(victim < crash_at);

    let dir = scratch_dir("quarantine");
    run_in(&dir, &world, &cfg, &sup(&format!("panic:{victim}@99;crash:{crash_at}")))
        .expect_err("crash fires");

    let (resumed, report, _) = run_in(&dir, &world, &cfg, &sup("")).unwrap();
    // The pre-crash quarantine is remembered: not re-attempted, still
    // reported, and its rows stay absent.
    assert_eq!(report.quarantined.len(), 1);
    assert_eq!(report.quarantined[0].prefix, victim);
    assert_eq!(report.completed, n - 1);
    assert_eq!(report.retries, 2, "the retries before the crash, and none after");
    let victim_base = world.prefixes[victim].prefix.base;
    assert!(rows(&resumed).iter().all(|r| r.0 != victim_base));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_shard_file_beyond_the_cursor_is_ignored_and_overwritten() {
    // A crash between journalling a fragment and rewriting the manifest
    // leaves the shard file of a prefix the manifest does not count.
    let (world, cfg) = tiny();
    let n = world.prefixes.len();
    let dir = scratch_dir("orphan");
    run_in(&dir, &world, &cfg, &sup(&format!("crash:{}", n / 2))).expect_err("crash fires");

    let orphan = dir.join(format!("shard-{:06}.bin", n / 2 + 1));
    assert!(!orphan.exists(), "the crash stopped the journal at the cursor");
    atomic_write(&orphan, b"not a shard: the prefix it names was never counted").unwrap();

    let (resumed, report, _) = run_in(&dir, &world, &cfg, &sup("")).unwrap();
    assert_eq!(report.resumed_at, Some(n / 2 + 1));
    assert_same(&resumed, &run(&world, &cfg, &sup("")).0, "resumed past an orphan");
    // The prefix reran and its file is now the real thing: a second rerun
    // reads every shard back.
    let (again, _, ours) = run_in(&dir, &world, &cfg, &sup("")).unwrap();
    assert_eq!(ours.counters["supervisor.prefixes_merged"], 0);
    assert_same(&again, &resumed, "reread from the journal");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_from_a_different_study_is_rejected() {
    let (world, cfg) = tiny();
    let dir = scratch_dir("mismatch");
    run_in(&dir, &world, &cfg, &sup("")).unwrap();
    let mismatch = |result: Result<(), SupervisorError>, field: &str| match result {
        Err(SupervisorError::Mismatch { field: f, .. }) => assert_eq!(f, field),
        Err(other) => panic!("{field}: expected a mismatch, got: {other}"),
        Ok(()) => panic!("{field}: a different study resumed"),
    };

    // Same directory, different seed → refuse to resume.
    let other = StudyConfig { seed: cfg.seed + 1, ..cfg };
    mismatch(run_in(&dir, &world, &other, &sup("")).map(|_| ()), "seed");

    // Another traffic mix changes every record → refused too.
    let workload = WorkloadConfig { h2_fraction: 0.5, ..cfg.workload };
    let other = StudyConfig { workload, ..cfg };
    mismatch(run_in(&dir, &world, &other, &sup("")).map(|_| ()), "h2_fraction");

    // The same study over another world with as many prefixes: a
    // checkpoint that recorded only the prefix count would resume it.
    let world_of = |seed, max_ases_per_country| {
        World::generate(WorldConfig { seed, country_fraction: 0.12, max_ases_per_country })
    };
    for (crashed, resumed, field) in [
        (world_of(42, 3), world_of(4, 3), "world_seed"),
        (world_of(42, 1), world_of(42, 2), "max_ases_per_country"),
    ] {
        assert_eq!(crashed.prefixes.len(), resumed.prefixes.len(), "{field}: as many prefixes");
        let dir = scratch_dir(field);
        run_in(&dir, &crashed, &cfg, &sup("crash:1")).expect_err("crash fires");
        mismatch(run_in(&dir, &resumed, &cfg, &sup("")).map(|_| ()), field);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // A version-1 checkpoint (one JSON tree, sink inside, no checksum) is
    // another format, not damage: a checkpoint is one study's transient.
    let v1 = r#"{"version":1,"kind":"records","study":{"seed":11},"cursor":0,"sink":{}}"#;
    atomic_write(&dir.join("checkpoint.json"), v1.as_bytes()).unwrap();
    mismatch(run_in(&dir, &world, &cfg, &sup("")).map(|_| ()), "version");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn completed_checkpoint_resumes_as_a_no_op() {
    let (world, cfg) = tiny();
    let dir = scratch_dir("noop");
    let (first, report, _) = run_in(&dir, &world, &cfg, &sup("")).unwrap();
    // A manifest per merge, and the last word — which says so itself.
    assert_eq!(report.checkpoints_written as usize, world.prefixes.len() + 1);
    assert_eq!(manifest_report(&dir), report, "the manifest holds the report returned");

    // Rerun against the finished checkpoint: nothing recomputes, the sink
    // is rebuilt bit-identically from the journalled shards.
    let (again, report, ours) = run_in(&dir, &world, &cfg, &sup("")).unwrap();
    assert_eq!(report.resumed_at, Some(world.prefixes.len()));
    assert_eq!(ours.counters["runner.records_emitted"], 0, "no new work on a finished study");
    assert_eq!(report.records_emitted, again.stats().records, "the cumulative count stands");
    assert_eq!(report.checkpoints_written, 1, "the last word alone");
    assert_eq!(manifest_report(&dir), report, "the manifest holds the report returned");
    assert_same(&again, &first, "rebuilt from the journal");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn supervisor_metrics_account_for_every_decision() {
    let (world, cfg) = tiny();
    let metrics = Metrics::enabled();
    let mut sink = sink_for(&cfg);
    let report =
        run_study_supervised(&world, &cfg, &sup("panic:0@99"), &mut sink, &metrics).unwrap();

    let snap = metrics.snapshot();
    let counter =
        |name: &str| *snap.counters.get(name).unwrap_or_else(|| panic!("missing counter {name}"));
    assert_eq!(counter("supervisor.retries"), report.retries);
    assert_eq!(counter("supervisor.quarantined"), report.quarantined.len() as u64);
    assert_eq!(counter("supervisor.prefixes_merged"), report.completed as u64);
    // The runner's names, from the same loop: what merged, and every claim
    // (three of them the victim's).
    assert_eq!(counter("runner.prefixes"), report.completed as u64);
    assert_eq!(counter("runner.records_emitted"), sink.stats().records);
    assert_eq!(counter("runner.sessions_simulated"), report.sessions_simulated);
    assert_eq!(counter("runner.drop.no_minrtt"), report.sessions_dropped_no_minrtt);
    assert_eq!(snap.histograms["sink.merge_ns"].count, report.completed as u64);
    assert_eq!(snap.histograms["scheduler.queue_depth"].count, report.completed as u64 + 3);
}
