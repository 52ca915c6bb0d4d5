//! Property tests: the optimized ingestion paths (FxHash maps, last-cell
//! memo, unstable sorts, columnar shards) are observationally identical
//! to a straightforward std-`HashMap` baseline over randomized record
//! streams — including streams that defeat the memo (interleaved cells)
//! and streams split across worker shards.

use edgeperf_analysis::figures::HdratioTally;
use edgeperf_analysis::sink::{RecordShard, RecordSink};
use edgeperf_analysis::{ColumnarSink, Dataset, GroupKey, SessionRecord};
use edgeperf_routing::{PopId, Prefix, Relationship};
use proptest::prelude::*;
use std::collections::HashMap;

const N_WINDOWS: usize = 6;

/// Deterministic pool of group keys; index selects one.
fn group(i: u8) -> GroupKey {
    GroupKey {
        pop: PopId((i % 3) as u16),
        prefix: Prefix::new(((i / 3) as u32) << 16, 16),
        country: (i % 5) as u16,
        continent: (i % 6),
    }
}

/// Relationship as a pure function of (group, rank) so that cell
/// metadata is independent of record order and shard assignment.
fn relationship(g: u8, rank: u8) -> Relationship {
    match (g as usize + rank as usize) % 3 {
        0 => Relationship::PrivatePeer,
        1 => Relationship::PublicPeer,
        _ => Relationship::Transit,
    }
}

type RawRecord = (u8, u32, u8, u32, Option<f64>, u64);

fn materialize(raw: &[RawRecord]) -> Vec<SessionRecord> {
    raw.iter()
        .map(|&(g, w, rank, rtt, hd, bytes)| SessionRecord {
            group: group(g),
            window: w % N_WINDOWS as u32,
            route_rank: rank % 3,
            relationship: relationship(g, rank % 3),
            longer_path: (rank % 3) > 0,
            more_prepended: g % 2 == 0,
            min_rtt_ns: rtt,
            hdratio: hd,
            bytes,
        })
        .collect()
}

/// The record's MinRTT in ms, as the analyses read it.
fn min_rtt_ms(r: &SessionRecord) -> f64 {
    f64::from(r.min_rtt_ns) / 1e6
}

/// (sorted minrtt, sorted hdratio, bytes, relationship, longer, prepended).
type RefCell = (Vec<f64>, Vec<f64>, u64, Relationship, bool, bool);

/// The reference implementation: std `HashMap` (SipHash), one entry
/// lookup per record, no memo. Mirrors the original `from_records`.
#[derive(Debug, Default)]
struct RefGroup {
    cells: HashMap<(u8, u32), RefCell>,
    total_bytes: u64,
}

fn reference_ingest(records: &[SessionRecord]) -> HashMap<GroupKey, RefGroup> {
    let mut groups: HashMap<GroupKey, RefGroup> = HashMap::new();
    for r in records {
        let g = groups.entry(r.group).or_default();
        let cell = g
            .cells
            .entry((r.route_rank, r.window))
            .or_insert_with(|| (Vec::new(), Vec::new(), 0, r.relationship, false, false));
        cell.0.push(min_rtt_ms(r));
        if let Some(h) = r.hdratio {
            cell.1.push(h);
        }
        cell.2 += r.bytes;
        cell.4 |= r.longer_path;
        cell.5 |= r.more_prepended;
        g.total_bytes += r.bytes;
    }
    for g in groups.values_mut() {
        for cell in g.cells.values_mut() {
            cell.0.sort_by(f64::total_cmp);
            cell.1.sort_by(f64::total_cmp);
        }
    }
    groups
}

/// Assert a `Dataset` matches the reference bit-for-bit.
fn assert_matches_reference(ds: &Dataset, reference: &HashMap<GroupKey, RefGroup>) {
    assert_eq!(ds.groups.len(), reference.len(), "group count");
    for (key, rg) in reference {
        let g = ds.groups.get(key).unwrap_or_else(|| panic!("missing group {key:?}"));
        assert_eq!(g.total_bytes, rg.total_bytes, "total_bytes of {key:?}");
        let ds_cells: usize =
            g.ranks.iter().map(|ws| ws.iter().filter(|c| c.is_some()).count()).sum();
        assert_eq!(ds_cells, rg.cells.len(), "cell count of {key:?}");
        for (&(rank, window), expect) in &rg.cells {
            let cell = g
                .cell(rank as usize, window as usize)
                .unwrap_or_else(|| panic!("missing cell ({rank},{window}) of {key:?}"));
            let same = cell.min_rtt_ms.len() == expect.0.len()
                && cell.min_rtt_ms.iter().zip(&expect.0).all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "minrtt mismatch at ({rank},{window}) of {key:?}");
            let same_hd = cell.hdratio.len() == expect.1.len()
                && cell.hdratio.iter().zip(&expect.1).all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same_hd, "hdratio mismatch at ({rank},{window}) of {key:?}");
            assert_eq!(cell.bytes, expect.2, "bytes at ({rank},{window})");
            assert_eq!(cell.relationship, expect.3, "relationship at ({rank},{window})");
            assert_eq!(cell.longer_path, expect.4, "longer_path at ({rank},{window})");
            assert_eq!(cell.more_prepended, expect.5, "more_prepended at ({rank},{window})");
        }
    }
}

fn raw_stream() -> impl Strategy<Value = Vec<RawRecord>> {
    prop::collection::vec(
        (
            0u8..12,
            0u32..(N_WINDOWS as u32),
            0u8..3,
            1_000_000u32..500_000_000,
            prop::option::of(0.0f64..=1.0),
            1u64..50_000,
        ),
        0..400,
    )
}

proptest! {
    /// `Dataset::from_records` (FxHash + last-cell memo) over an arbitrary
    /// record stream — duplicates, interleavings, memo-friendly runs, and
    /// memo-hostile alternations alike — equals the std-HashMap baseline.
    #[test]
    fn from_records_matches_std_hashmap_baseline(raw in raw_stream()) {
        let records = materialize(&raw);
        let reference = reference_ingest(&records);
        let ds = Dataset::from_records(&records, N_WINDOWS);
        assert_matches_reference(&ds, &reference);
    }

    /// Columnar shards from an arbitrary by-group split of the stream
    /// summarise to what a single `from_records` pass over the same records
    /// in merge order summarises to, bit for bit and in the same group
    /// order, keep the preferred route's MinRTTs, one sorted run a group,
    /// and tally their HDratios.
    #[test]
    fn columnar_shard_split_matches_baseline(raw in raw_stream(), n_shards in 1usize..5) {
        let records = materialize(&raw);
        // Split by group, as the runner does per prefix: no group is in
        // two shards; and within a shard window by window, as a worker
        // pushes them.
        let mut split = vec![Vec::new(); n_shards];
        for (&r, &(g, ..)) in records.iter().zip(&raw) {
            split[g as usize % n_shards].push(r);
        }
        split.iter_mut().for_each(|part: &mut Vec<SessionRecord>| part.sort_by_key(|r| r.window));
        let mut sink = ColumnarSink::new(N_WINDOWS);
        for part in &split {
            let mut shard = sink.new_shard();
            part.iter().for_each(|r| shard.push(*r));
            sink.merge_shard(shard);
        }
        sink.finalize();
        let merged = split.concat();
        let whole = Dataset::from_records(&merged, N_WINDOWS);
        prop_assert_eq!(sink.stats().records, records.len() as u64);
        prop_assert_eq!(sink.cell_count(), whole.cell_count());
        prop_assert_eq!(
            format!("{:?}", sink.summarize().groups),
            format!("{:?}", whole.summarize().groups)
        );
        prop_assert_eq!(sink.hdratio(), &HdratioTally::of(&merged));
        // Each group's preferred MinRTTs as a multiset, sorted under
        // `total_cmp`: the rows of its one run, in the order they come.
        let mut want: HashMap<GroupKey, Vec<u64>> = HashMap::new();
        for r in merged.iter().filter(|r| r.route_rank == 0) {
            want.entry(r.group).or_default().push(min_rtt_ms(r).to_bits());
        }
        for run in want.values_mut() {
            run.sort_by(|a, b| f64::from_bits(*a).total_cmp(&f64::from_bits(*b)));
        }
        let mut rows: HashMap<GroupKey, Vec<u64>> = HashMap::new();
        let mut runs_seen = Vec::new();
        for (group, rtt) in sink.rows() {
            if runs_seen.last() != Some(&group) {
                prop_assert!(!runs_seen.contains(&group), "{:?}'s rows come in two runs", group);
                runs_seen.push(group);
            }
            rows.entry(group).or_default().push(rtt.to_bits());
        }
        prop_assert_eq!(rows, want);
    }
}
