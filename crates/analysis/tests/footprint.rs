//! Footprint gate: a cell costs what it holds, the streaming sink holds
//! digests only for the group in flight, the exact sink holds a summary a
//! cell, every preferred-route session's MinRTT once, in one sorted run a
//! group — in 1.9 bytes when it is shaped like a study's, 2.55 when a
//! group spreads over 80 ms — indexed by each kept group once, and an
//! HDratio tally bounded by the distinct HDratios, its worker's shard
//! holds one window's sessions beside what it has closed, and Figures 6–7
//! read it without copying it and in a transient of a few histograms. Heap
//! bytes are counted exactly by the counting global allocator in
//! `counting/`, which is why this is a test binary of its own with a
//! single `#[test]`.

mod counting;

use counting::{count_this_thread, heap_of, peak_above};
use edgeperf_analysis::figures::{fig6_minrtt, HdratioTally};
use edgeperf_analysis::sink::{RecordShard, RecordSink};
use edgeperf_analysis::{
    ColumnarSink, GroupKey, SessionRecord, StreamingAggregation, StreamingCell, StreamingDataset,
};
use edgeperf_routing::{PopId, Prefix, Relationship};
use edgeperf_stats::TDigest;
/// A cell of `samples` sessions, one in five untested.
fn open_cell(samples: usize) -> StreamingAggregation {
    let mut cell = StreamingAggregation::new();
    for i in 0..samples {
        let u = (i as f64 * 0.618_033_988_749).fract();
        cell.push(20.0 + 80.0 * u, (i % 5 != 4).then_some(u), 1_000);
    }
    cell
}

/// Session `i` of cell `cell`: eight cells (2 ranks × 4 windows) a group.
fn session(cell: u32, i: usize) -> SessionRecord {
    let (prefix, rank, window) = (cell / 8, (cell / 4 % 2) as u8, cell % 4);
    let u = ((i as u32 * 8_191 + cell) as f64 * 0.618_033_988_749).fract();
    SessionRecord {
        group: GroupKey {
            pop: PopId(1),
            prefix: Prefix::new(prefix << 8, 24),
            country: 1,
            continent: 0,
        },
        window,
        route_rank: rank,
        relationship: Relationship::Transit,
        longer_path: false,
        more_prepended: false,
        min_rtt_ns: ((20.0 + 80.0 * u) * 1e6).round() as u32,
        hdratio: Some(u),
        bytes: 1_000,
    }
}

/// Session `i` of cell `cell` with an HDratio shaped like a study's:
/// `achieved / tested`, untested one time in five.
fn study_session(cell: u32, i: usize) -> SessionRecord {
    let r = session(cell, i);
    let tested = 1 + i % 9;
    let hdratio = (i * 7 % (tested + 1)) as f64 / tested as f64;
    SessionRecord { hdratio: (!i.is_multiple_of(5)).then_some(hdratio), ..r }
}

/// [`study_session`] with the spread of a study's group: its MinRTTs, in
/// every window, lie within 2 ms of each other, where `session`'s spread
/// over 80. (At seed 7, scale 1, a study's group is a prefix whose ~30,000
/// preferred sessions a run codes in 9.6 bits each.)
fn tight_session(cell: u32, i: usize) -> SessionRecord {
    let r = study_session(cell, i);
    let base = 20.0 + 80.0 * (f64::from(cell / 8) * 0.618_033_988_749).fract();
    let min_rtt_ms = base + (f64::from(r.min_rtt_ns) / 1e6 - 20.0) / 40.0;
    SessionRecord { min_rtt_ns: (min_rtt_ms * 1e6).round() as u32, ..r }
}

/// One worker's shard after groups `groups` × 2 ranks × 4 windows cells
/// of `per_cell` sessions each, pushed group by group and — when `seal` —
/// sealed as each is done, the way the runner does.
fn streaming_shard(groups: std::ops::Range<u32>, per_cell: usize, seal: bool) -> StreamingDataset {
    let mut shard = StreamingDataset::new(4);
    for group in groups {
        for i in 0..per_cell {
            (group * 8..(group + 1) * 8).for_each(|cell| shard.push(session(cell, i)));
        }
        if seal {
            shard.seal(group as usize);
        }
    }
    shard
}

/// A study of `groups` groups run through one sealing worker, finalized.
fn sealed_dataset(groups: u32, per_cell: usize) -> StreamingDataset {
    let mut sink = StreamingDataset::new(4);
    sink.merge_shard(streaming_shard(0..groups, per_cell, true));
    sink.finalize();
    sink
}

/// The sessions of two shards, of `groups[0]` and `groups[1]` groups,
/// `per_cell` sessions made by `session` in each cell, in push order:
/// window by window, as a worker pushes them, a window's cells
/// interleaved.
fn shards(
    groups: [u32; 2],
    per_cell: usize,
    session: fn(u32, usize) -> SessionRecord,
) -> [Vec<SessionRecord>; 2] {
    [0..groups[0] * 8, groups[0] * 8..(groups[0] + groups[1]) * 8].map(|cells| {
        let mut records = Vec::new();
        for window in 0..4 {
            for i in 0..per_cell {
                let of_window = cells.clone().filter(|cell| cell % 4 == window);
                records.extend(of_window.map(|cell| session(cell, i)));
            }
        }
        records
    })
}

/// `shards` merged in order, finalized.
fn columnar_sink(shards: &[Vec<SessionRecord>]) -> ColumnarSink {
    let mut sink = ColumnarSink::new(4);
    for records in shards {
        let mut shard = sink.new_shard();
        records.iter().for_each(|r| shard.push(*r));
        sink.merge_shard(shard);
    }
    sink.finalize();
    sink
}

#[test]
fn cells_cost_what_they_hold() {
    count_this_thread();
    // An empty digest owns no heap at all.
    let (_digest, bytes) = heap_of(|| TDigest::new(100.0));
    assert_eq!(bytes, 0, "TDigest::new allocated");

    // A cell below 512 sessions holds them, 16 B each in a run that
    // doubles from four: the wide shape's 1- and 3-session alternate
    // routes, its 28-session preferred route and the paper's 30-session
    // minimum. Beside it the live tier's arena entry, (`CellKey`, cell),
    // is 72 B at most.
    assert!(std::mem::size_of::<((GroupKey, u8), StreamingCell)>() <= 72);
    for (sessions, run) in [(1, 64), (3, 64), (28, 512), (30, 512)] {
        let (_cell, bytes) = heap_of(|| open_cell(sessions));
        assert!(bytes <= run, "an open {sessions}-session cell holds {bytes} B");
    }

    // A hot cell holds its boxed digest pair, their two 4 KiB insert
    // buffers and 16 B a centroid: every compression trims the slack its
    // output was given.
    let (cell, bytes) = heap_of(|| open_cell(100_000));
    let held = std::mem::size_of::<[TDigest; 2]>() + 2 * 4096 + 16 * cell.state_centroids();
    assert!(bytes <= held, "an open 100,000-sample cell holds {bytes} B, its content {held} B");

    // A sealed, finalized sink holds a summary a cell and one Figure 6
    // rollup digest a group, so its heap does not grow with the sessions
    // a cell saw: twenty times the sessions cost at most what the rollups
    // gained, if anything (a fuller digest can merge to fewer centroids) —
    // 16 B a centroid, and up to a quarter of slack in the list
    // (every `TDigest` compression trims beyond that).
    let groups = 64;
    let (thin, thin_bytes) = heap_of(|| sealed_dataset(groups, 30));
    let (thick, thick_bytes) = heap_of(|| sealed_dataset(groups, 600));
    assert_eq!(thick.stats().records, 20 * thin.stats().records);
    assert_eq!(thick.cell_count(), groups as usize * 8);
    let gained = thick.state_centroids().saturating_sub(thin.state_centroids());
    assert!(
        thick_bytes <= thin_bytes + 20 * gained,
        "600 a cell holds {thick_bytes} B, 30 a cell {thin_bytes} B; rollups gained {gained} centroids"
    );
    drop((thin, thick));

    // And the run never holds more than that plus the group in flight:
    // sealing group by group peaks at one group's open cells above what
    // it ends up holding (and a flush's temporaries: a digest's centroids
    // once more), where an unsealed run holds every group's.
    let (_open, one_group_bytes) = heap_of(|| streaming_shard(0..1, 600, false));
    let (_sealed, held, transient) = peak_above(|| sealed_dataset(groups, 600));
    assert!(
        transient <= one_group_bytes + one_group_bytes / 4,
        "sealing peaked {transient} B above the {held} B it holds; one open group is {one_group_bytes} B"
    );
    let (_unsealed, all_open_bytes) = heap_of(|| streaming_shard(0..groups, 600, false));
    assert!(
        held + transient < all_open_bytes / 8,
        "the sealed run peaks at {} B, every group open is {all_open_bytes} B",
        held + transient
    );

    // The exact sink's shards close each cell when its window ends: every
    // cell becomes a summary in the sink's grid, what Figures 6–7 read of
    // HDratio goes into its tally, and only a preferred-route session
    // keeps a row, its MinRTT, in its group's one sorted run (so no row
    // names its cell or its window). The skeleton — the same layout with
    // one untested session a cell — holds the grid and the tables beside
    // its kept streams, whose bytes it reports. Beside the tables and the
    // tally, a group's run is a 37-bit header — a shard's packed in 64-bit
    // words, then a zero word — and a Rice-coded gap a further row: at
    // most 1.9 B for a study-shaped group (160 sessions within 2 ms,
    // gaps of 12.5 µs on average, so `k` ≤ 13 and a row under 16 bits),
    // at most 2.55 for one spread over 80 ms (gaps of 0.5 ms, `k` ≤ 18
    // and a row under 21 bits); an alternate route's sessions hold no row
    // bytes at all.
    let groups = [64, 192];
    let cells = (groups[0] + groups[1]) as usize * 8;
    let preferred_cells = cells / 2;
    let part = |sink: &ColumnarSink, name: &str| {
        sink.footprint().into_iter().find(|p| p.0 == name).unwrap().1
    };
    let (skeleton, skeleton_bytes) = heap_of(|| columnar_sink(&shards(groups, 1, tight_session)));
    assert_eq!(skeleton.hdratio_rollup().0.tested, 0, "session 0 tests nothing");
    let table_bytes = skeleton_bytes - part(&skeleton, "kept_bytes");
    drop(skeleton);
    let headers: usize = groups.iter().map(|&g| (37 * g as usize).div_ceil(64) * 8 + 8).sum();
    let per_cell = 40;
    for (session, row_bytes) in
        [(tight_session as fn(u32, usize) -> SessionRecord, 1.9), (session, 2.55)]
    {
        let sessions = shards(groups, per_cell, session);
        let (sink, bytes) = heap_of(|| columnar_sink(&sessions));
        let (tally, tally_bytes) = heap_of(|| HdratioTally::of(&sessions.concat()));
        assert_eq!(sink.hdratio(), &tally);
        assert_eq!(sink.stats().records as usize, cells * per_cell);
        let rows = sink.rows().count();
        assert_eq!(rows, preferred_cells * per_cell, "an alternate row is held");
        assert_eq!(part(&sink, "kept_rows"), rows);
        let held = bytes - table_bytes - tally_bytes;
        assert_eq!(held, part(&sink, "kept_bytes"), "the sink holds more than it reports");
        assert!(
            (held - headers) as f64 <= row_bytes * rows as f64,
            "{rows} preferred rows in {held} B beside {table_bytes} B of grid and tables, {headers} B of headers and a {tally_bytes} B tally"
        );
        // Of the tables, Figure 6's index — which group a kept row is in —
        // is each kept group once with its run's end row, 20 B, whatever
        // the order its shard closed its cells in (here a window's groups
        // interleave), beside a constant a shard.
        let (index, groups) = (part(&sink, "index_bytes"), (groups[0] + groups[1]) as usize);
        let bound = std::mem::size_of::<(GroupKey, u32)>() * groups + 32 * 2;
        assert!(index <= bound, "a {index} B index for {groups} kept groups");
        assert_eq!(part(&sink, "tally_entries"), sink.hdratio().distinct_hdratios());
    }

    // The tally holds an entry a distinct HDratio and Figure 7 bucket,
    // 64 B at most, and no more for more sessions: a study's HDratios are
    // `achieved / tested` ratios, a few thousand distinct.
    let tally = |per_cell: usize| {
        let sessions = shards([1, 3], per_cell, study_session).concat();
        heap_of(|| HdratioTally::of(&sessions))
    };
    let ((few, few_bytes), (many, many_bytes)) = (tally(400), tally(4_000));
    assert_eq!(many.rollup().0.tested, 10 * few.rollup().0.tested);
    assert_eq!(few.distinct_hdratios(), many.distinct_hdratios());
    assert_eq!(few_bytes, many_bytes, "the tally grew with the sessions");
    let distinct = few.distinct_hdratios();
    assert!(distinct > 50 && few_bytes <= 64 * distinct + 1024, "{distinct} in {few_bytes} B");

    // Figure 6 reads its ranks off those rows in place, every continent's
    // at once, in three walks: one 4,096-counter histogram (32 KiB) a
    // continent, then one a wanted rank — the p50 and p80 of the one
    // continent here, which is the overall set — then the samples of the
    // sub-buckets a wanted rank fell in (8 B each; a sub-bucket is a
    // 4,096th of an octave, and these uniform samples put under a 512th of
    // them into any two) — never the 16 B a preferred session of a CDF,
    // nor a 4 B copy of the rows. Figure 7 reads the tally: one list of its
    // distinct HDratios. Over 8,000 preferred sessions a copy of the rows
    // (32 KB) breaks that bound.
    for (sink, preferred) in [
        (columnar_sink(&shards([10, 40], 40, study_session)), 8_000),
        (columnar_sink(&shards([1, 0], 50_000, study_session)), 200_000),
    ] {
        let (figures, held, transient) =
            peak_above(|| (fig6_minrtt(&sink), sink.hdratio_rollup(), sink.hdratio().fig7()));
        let tested = preferred * 4 / 5;
        assert_eq!(figures.0 .0.sessions, preferred);
        assert_eq!(figures.1 .0.tested, tested);
        assert_eq!(figures.2.iter().map(|b| b.hdratio.tested).sum::<u64>(), tested);
        let distinct = sink.hdratio().distinct_hdratios();
        assert!(
            held + transient <= 2 * (32 << 10) + 8 * preferred as usize / 512 + 16 * distinct + 1024,
            "figures 6-7 over {preferred} preferred sessions peaked {transient} B above the {held} B they return"
        );
    }

    // A worker's shard holds one window's rows at a time, and what it has
    // closed: pushed W windows window by window, it peaks above what it
    // ends up holding — a row a cell, the tally and the coded runs — by one
    // window's sessions: their three columns (20 B a session, in capacity
    // that at most doubles), the two columns a close lays them out in (8 B
    // each) and the window's per-cell bookkeeping; and by its groups' raw
    // runs, which sealing sorts, codes and frees: a `u32` a kept session
    // of every window, in capacity that at most doubles.
    let (window_groups, window_cells) = (16u32, 32);
    let window_shard = |windows: u32| {
        let mut shard = ColumnarSink::new(windows as usize).new_shard();
        for window in 0..windows {
            for i in 0..per_cell {
                for cell in 0..window_groups * 8 {
                    let r = study_session(cell, i);
                    if cell % 4 == 0 {
                        shard.push(SessionRecord { window, ..r });
                    }
                }
            }
        }
        shard.seal(0);
        shard
    };
    let window_sessions = window_cells * per_cell;
    for windows in [8, 64] {
        let (_shard, held, transient) = peak_above(|| window_shard(windows));
        let raw_runs = 8 * windows as usize * window_sessions / 2;
        assert!(
            transient <= 56 * window_sessions + 64 * window_cells + raw_runs + 1024,
            "{windows} windows of {window_sessions} sessions peaked {transient} B above the {held} B they hold"
        );
    }

    // Merging a closed shard places its rows, adds its tally and appends
    // its coded runs: it rises above the shard it is handed by at most what
    // the sink then holds — never a copy of the shard's sessions.
    let one_shard = || {
        let mut shard = ColumnarSink::new(4).new_shard();
        shards([0, groups[1]], per_cell, study_session)[1].iter().for_each(|r| shard.push(*r));
        shard.seal(0);
        shard
    };
    let (_merged, merged_bytes) = heap_of(|| {
        let mut sink = ColumnarSink::new(4);
        sink.merge_shard(one_shard());
        sink
    });
    let (shard, mut fresh) = (one_shard(), ColumnarSink::new(4));
    let ((), _, rise) = peak_above(|| fresh.merge_shard(shard));
    assert!(
        rise <= merged_bytes,
        "merging a closed shard rose {rise} B above it; the sink then holds {merged_bytes} B"
    );
}
