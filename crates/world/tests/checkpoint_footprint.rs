//! Footprint gate for the checkpoint journal: journalling a study costs
//! one fragment's bytes of heap, not a second copy of the sink, and what
//! it leaves on disk is the codec's closed cells — a row a cell and a few
//! bits a session — not a JSON tree. (The whole-sink checkpoint this
//! replaced peaked at 17 × the plain run and wrote 57 B a session; the
//! raw-row fragments after it, 20 B a session and 25 B a cell.) Heap is counted exactly, on every
//! thread, by the counting allocator of `crates/analysis/tests/counting/`
//! — hence a test binary of its own with a single `#[test]`.

#[path = "../../analysis/tests/counting/mod.rs"]
mod counting;

use counting::{count_every_thread, peak_above};
use edgeperf_analysis::{ColumnarSink, RecordSink};
use edgeperf_obs::Metrics;
use edgeperf_world::{
    run_study_checkpointed, run_study_supervised, StudyConfig, SupervisorConfig, World, WorldConfig,
};

#[test]
fn a_checkpointed_study_costs_a_fragment_of_heap_and_the_codec_s_bytes_of_disk() {
    count_every_thread();
    let world =
        World::generate(WorldConfig { seed: 42, country_fraction: 0.3, ..Default::default() });
    let cfg = StudyConfig {
        seed: 11,
        days: 1,
        sessions_per_group_window: 24,
        parallelism: 1,
        ..Default::default()
    };
    let dir = &std::env::temp_dir().join(format!("edgeperf-ckfoot-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(dir);
    let (sup, metrics) = (SupervisorConfig::default(), Metrics::disabled());
    let sink = || ColumnarSink::new(cfg.n_windows() as usize);

    // Peak live bytes of a run: what the finished sink holds plus how far
    // above that the heap went on the way.
    let (plain, held, above) = peak_above(|| {
        let mut sink = sink();
        run_study_supervised(&world, &cfg, &sup, &mut sink, &metrics).unwrap();
        sink
    });
    let plain_peak = held + above;
    let (journalled, held, above) = peak_above(|| {
        let mut sink = sink();
        run_study_checkpointed(&world, &cfg, &sup, dir, &mut sink, &metrics).unwrap();
        sink
    });
    let journalled_peak = held + above;
    let (rows, cells) = (plain.stats().records, plain.stats().cells);
    assert_eq!(journalled.stats(), plain.stats());
    assert!(rows > 50_000 && world.prefixes.len() > 20, "{rows} rows");
    assert!(
        journalled_peak as f64 <= 1.25 * plain_peak as f64,
        "journalled {journalled_peak} B against {plain_peak} B plain"
    );

    // And reading it all back peaks no higher than writing it did.
    drop(journalled);
    let (resumed, held, above) = peak_above(|| {
        let mut sink = sink();
        let report = run_study_checkpointed(&world, &cfg, &sup, dir, &mut sink, &metrics).unwrap();
        assert_eq!(report.resumed_at, Some(world.prefixes.len()), "everything was on disk");
        sink
    });
    assert_eq!(resumed.stats(), plain.stats());
    assert!(
        (held + above) as f64 <= 1.25 * plain_peak as f64,
        "resumed {} B against {plain_peak} B plain",
        held + above
    );

    let on_disk: u64 =
        std::fs::read_dir(dir).unwrap().map(|entry| entry.unwrap().metadata().unwrap().len()).sum();
    // A cell is its row — 49–73 B in its fragment's segment, and a share
    // of its window's 58 B row-group frame and index entry; a session is
    // a few bits of Rice-coded gap in its group's one run, a 37-bit
    // header a group (the manifest fits the constant): 899,899 B for
    // 70,618 sessions in 9,581 cells. Version 2 coded a run a preferred
    // cell (931 KB here), version 1 wrote every session's raw row, 20 B,
    // and 25 B a cell.
    assert!(
        on_disk <= rows + 90 * cells + 4096,
        "{on_disk} B on disk for {rows} rows in {cells} cells"
    );
    std::fs::remove_dir_all(dir).expect("cleanup");
}
