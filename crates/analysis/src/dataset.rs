//! Dataset assembly: records → per-(group, window, route-rank)
//! aggregations (§3.3), each summarised into the [`CellSummary`] a
//! summarizer hands over and packed into the [`WindowCell`] row every
//! analysis reads, whichever sink produced the cell.

use crate::hash::FxHashMap;
use crate::record::{GroupKey, SessionRecord};
use crate::segment::WindowCell;
use edgeperf_routing::Relationship;
use edgeperf_stats::median_ci::median_variance_sorted;

/// The paper's statistic for one (group, window, route-rank) cell: a
/// median with its Price–Bonett variance for MinRTT and for HDratio
/// (§§3.3–3.4.1), plus traffic weight and route annotations: what a
/// summarizer hands over — [`Aggregation::summary`] (exact order
/// statistics) and [`crate::StreamingCell::summary`] (digest order
/// statistics) — and what [`WindowCell::new`] packs. Nothing reads a cell
/// as one: the analyses, both sinks' grids and the live detector read the
/// packed row. It stays the element of a live `ClosedWindow`'s cells and
/// the input of `store::window_cell`, `CellLine::new` and
/// `SegmentStore::spill_window`, because the benchmark's probes build
/// and read those.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellSummary {
    /// Sessions recorded.
    pub n: usize,
    /// Sessions with an HDratio.
    pub n_tested: usize,
    /// Traffic weight.
    pub bytes: u64,
    /// Median MinRTT (ms).
    pub min_rtt_p50: f64,
    /// Price–Bonett variance of the MinRTT median (None below 5 samples).
    pub min_rtt_var: Option<f64>,
    /// Median HDratio, if any session tested.
    pub hdratio_p50: Option<f64>,
    /// Price–Bonett variance of the HDratio median.
    pub hdratio_var: Option<f64>,
    /// Relationship of the route measured by this cell.
    pub relationship: Relationship,
    /// This route's AS path is longer than the preferred route's.
    pub longer_path: bool,
    /// This route is prepended more than the preferred route.
    pub more_prepended: bool,
}

/// Measurements for one (group, window, route-rank) cell.
#[derive(Debug, Clone)]
pub struct Aggregation {
    /// Session MinRTTs in milliseconds, sorted ascending.
    pub min_rtt_ms: Vec<f64>,
    /// Session HDratios (only sessions that tested), sorted ascending.
    pub hdratio: Vec<f64>,
    /// Total response bytes (traffic weight of the cell).
    pub bytes: u64,
    /// Relationship of the route measured by this cell.
    pub relationship: Relationship,
    /// This route's AS path is longer than the preferred route's.
    pub longer_path: bool,
    /// This route is prepended more than the preferred route.
    pub more_prepended: bool,
}

impl Aggregation {
    pub(crate) fn new(relationship: Relationship) -> Self {
        Aggregation {
            min_rtt_ms: Vec::new(),
            hdratio: Vec::new(),
            bytes: 0,
            relationship,
            longer_path: false,
            more_prepended: false,
        }
    }

    /// Median MinRTT of the aggregation (requires non-empty).
    pub fn min_rtt_p50(&self) -> f64 {
        edgeperf_stats::quantile::median_sorted(&self.min_rtt_ms)
    }

    /// Median HDratio, if any session tested.
    pub fn hdratio_p50(&self) -> Option<f64> {
        if self.hdratio.is_empty() {
            None
        } else {
            Some(edgeperf_stats::quantile::median_sorted(&self.hdratio))
        }
    }

    /// Number of MinRTT samples.
    pub fn n(&self) -> usize {
        self.min_rtt_ms.len()
    }

    /// Summarise from the exact order statistics of the sorted samples.
    pub fn summary(&self) -> CellSummary {
        let (min_rtt_p50, min_rtt_var) =
            median_and_variance(&self.min_rtt_ms).expect("a cell holds a session");
        let (hdratio_p50, hdratio_var) = median_and_variance(&self.hdratio).unzip();
        CellSummary {
            n: self.n(),
            n_tested: self.hdratio.len(),
            bytes: self.bytes,
            min_rtt_p50,
            min_rtt_var,
            hdratio_p50,
            hdratio_var: hdratio_var.flatten(),
            relationship: self.relationship,
            longer_path: self.longer_path,
            more_prepended: self.more_prepended,
        }
    }
}

/// One metric of one exact cell, off its ascending samples: the median and
/// its Price–Bonett variance (`None` below 5 samples); `None` when the
/// cell has no sample of the metric.
pub(crate) fn median_and_variance(sorted: &[f64]) -> Option<(f64, Option<f64>)> {
    if sorted.is_empty() {
        return None;
    }
    let variance = (sorted.len() >= 5).then(|| median_variance_sorted(sorted).1);
    Some((edgeperf_stats::quantile::median_sorted(sorted), variance))
}

/// All cells of one user group, `ranks[r][w]`, whatever a cell is: sorted
/// samples ([`Aggregation`]), digests ([`crate::StreamingCell`]) or the
/// [`WindowCell`] rows the analyses read.
#[derive(Debug, Clone)]
pub struct GroupData<C> {
    /// Per route rank (0 = preferred), per window.
    pub ranks: Vec<Vec<Option<C>>>,
    /// Total traffic bytes across every cell (the group weight).
    pub total_bytes: u64,
}

impl<C> Default for GroupData<C> {
    fn default() -> Self {
        GroupData { ranks: Vec::new(), total_bytes: 0 }
    }
}

impl<C> GroupData<C> {
    /// Cell for (rank, window) if present.
    pub fn cell(&self, rank: usize, window: usize) -> Option<&C> {
        self.ranks.get(rank)?.get(window)?.as_ref()
    }

    /// Windows the group spans (every rank has the same count).
    pub fn n_windows(&self) -> usize {
        self.ranks.first().map_or(0, Vec::len)
    }

    /// Every present cell, rank by rank.
    pub fn cells(&self) -> impl Iterator<Item = &C> {
        self.ranks.iter().flat_map(|ws| ws.iter().flatten())
    }

    /// The preferred route's present cells, oldest window first.
    pub fn preferred(&self) -> impl Iterator<Item = &C> {
        self.ranks.first().into_iter().flat_map(|ws| ws.iter().flatten())
    }

    /// The same grid with every cell summarised by `summary` and packed
    /// into the row of (window `w`, group `key`, rank `r`).
    pub fn summarize(
        &self,
        key: GroupKey,
        summary: impl Fn(&C) -> CellSummary,
    ) -> GroupData<WindowCell> {
        let ranks = self.ranks.iter().zip(0u8..).map(|(ws, rank)| {
            let row = |(c, window): (&Option<C>, u32)| {
                c.as_ref().map(|c| WindowCell::new(window, key, rank, &summary(c)))
            };
            ws.iter().zip(0u32..).map(row).collect()
        });
        GroupData { ranks: ranks.collect(), total_bytes: self.total_bytes }
    }
}

/// Groups in first-seen order behind an index, each a `ranks[r][w]` grid:
/// how every dataset that is assembled cell by cell finds a cell's slot.
#[derive(Debug, Clone)]
pub(crate) struct GroupSlots<C> {
    pub(crate) n_windows: usize,
    index: FxHashMap<GroupKey, u32>,
    pub(crate) slots: Vec<(GroupKey, GroupData<C>)>,
    memo: Option<(GroupKey, u32)>,
}

impl<C: Clone> GroupSlots<C> {
    pub(crate) fn new(n_windows: usize) -> Self {
        GroupSlots { n_windows, index: FxHashMap::default(), slots: Vec::new(), memo: None }
    }

    /// Data of `key`, if present.
    pub(crate) fn get(&self, key: &GroupKey) -> Option<&GroupData<C>> {
        self.index.get(key).map(|&i| &self.slots[i as usize].1)
    }

    /// Every group in first-seen order, leaving the grid empty.
    pub(crate) fn take(&mut self) -> Vec<(GroupKey, GroupData<C>)> {
        self.index.clear();
        self.memo = None;
        std::mem::take(&mut self.slots)
    }

    /// The slot of cell (`group`, `rank`, `window`), allocating the group
    /// and the rank's row on first sight; `bytes` join the group's weight.
    /// Record streams arrive grouped by prefix, so a last-group memo
    /// short-circuits the hash lookup for nearly every record.
    pub(crate) fn cell(
        &mut self,
        group: GroupKey,
        rank: usize,
        window: usize,
        bytes: u64,
    ) -> &mut Option<C> {
        assert!(window < self.n_windows, "window {window} out of range");
        let slot = match self.memo {
            Some((k, i)) if k == group => i,
            _ => {
                let i = *self.index.entry(group).or_insert_with(|| {
                    self.slots.push((group, GroupData::default()));
                    (self.slots.len() - 1) as u32
                });
                self.memo = Some((group, i));
                i
            }
        };
        let g = &mut self.slots[slot as usize].1;
        while g.ranks.len() <= rank {
            g.ranks.push(vec![None; self.n_windows]);
        }
        g.total_bytes += bytes;
        &mut g.ranks[rank][window]
    }
}

/// Groups listed in first-seen order, reordered into the order a
/// [`Dataset`]'s group map iterates them in — the order every exact
/// `results/*.json` was recorded in.
pub(crate) fn in_dataset_order<C>(
    groups: Vec<(GroupKey, GroupData<C>)>,
) -> Vec<(GroupKey, GroupData<C>)> {
    groups.into_iter().collect::<FxHashMap<_, _>>().into_iter().collect()
}

/// The row grid of a whole study: what [`Dataset::summarize`] and
/// [`crate::StreamingDataset::summarize`] produce (and what rows read
/// back from segments rebuild), and the only thing the §§5–6 analyses
/// read. Groups keep the order their source iterates them in.
#[derive(Debug, Clone, Default)]
pub struct Summaries {
    /// Per-group row grids.
    pub groups: Vec<(GroupKey, GroupData<WindowCell>)>,
}

impl Summaries {
    /// Traffic carried on preferred routes only (rank 0) — the natural
    /// denominator for "fraction of traffic" statements, since rank > 0
    /// records exist purely to measure alternates.
    pub fn preferred_bytes(&self) -> u64 {
        self.groups.iter().flat_map(|(_, g)| g.preferred()).map(|c| c.bytes).sum()
    }

    /// Rebuild the grid from a bag of rows (a store range read, decoded
    /// segments). The grid spans the rows' first to last window; groups
    /// come out in first-seen order.
    #[cfg(test)]
    pub(crate) fn from_cells(cells: &[WindowCell]) -> Summaries {
        let first = cells.iter().map(|c| c.window).min().unwrap_or(0);
        let n_windows = cells.iter().map(|c| (c.window - first) as usize + 1).max().unwrap_or(0);
        let mut grid = GroupSlots::new(n_windows);
        for c in cells {
            let mut row = *c;
            row.window -= first;
            *grid.cell(c.group(), c.rank as usize, row.window as usize, c.bytes) = Some(row);
        }
        Summaries { groups: grid.slots }
    }

    /// Flatten into rows, windows numbered from 0: group by group, rank
    /// by rank, window by window.
    #[cfg(test)]
    pub(crate) fn to_cells(&self) -> Vec<WindowCell> {
        self.groups.iter().flat_map(|(_, g)| g.cells()).copied().collect()
    }
}

/// # Example
///
/// ```
/// use edgeperf_analysis::{Dataset, GroupKey, SessionRecord};
/// use edgeperf_routing::{PopId, Prefix, Relationship};
/// let group = GroupKey { pop: PopId(0), prefix: Prefix::new(0x0A000000, 16),
///     country: 0, continent: 2 };
/// let records: Vec<SessionRecord> = (0..40).map(|i| SessionRecord {
///     group, window: 0, route_rank: 0, relationship: Relationship::PrivatePeer,
///     longer_path: false, more_prepended: false,
///     min_rtt_ms: 30.0 + i as f64 * 0.1, hdratio: Some(1.0), bytes: 1_000,
/// }).collect();
/// let ds = Dataset::from_records(&records, 1);
/// let cell = ds.groups[&group].cell(0, 0).unwrap();
/// assert_eq!(cell.n(), 40);
/// assert!((cell.min_rtt_p50() - 31.95).abs() < 0.1);
/// ```
/// The study dataset: all groups over a fixed number of windows.
#[derive(Debug, Default)]
pub struct Dataset {
    /// Number of 15-minute windows in the study.
    pub n_windows: usize,
    /// Per-group data, keyed with the fast deterministic hasher.
    pub groups: FxHashMap<GroupKey, GroupData<Aggregation>>,
}

impl Dataset {
    /// Assemble from raw records. Records beyond `n_windows` or with
    /// rank ≥ 8 are rejected (defensive: they indicate runner bugs).
    pub fn from_records(records: &[SessionRecord], n_windows: usize) -> Self {
        let mut grid = GroupSlots::new(n_windows);
        for r in records {
            assert!(r.route_rank < 8, "suspicious route rank {}", r.route_rank);
            let cell = grid
                .cell(r.group, r.route_rank as usize, r.window as usize, r.bytes)
                .get_or_insert_with(|| Aggregation::new(r.relationship));
            cell.min_rtt_ms.push(r.min_rtt_ms);
            if let Some(h) = r.hdratio {
                cell.hdratio.push(h);
            }
            cell.bytes += r.bytes;
            cell.longer_path |= r.longer_path;
            cell.more_prepended |= r.more_prepended;
        }
        // Sort sample vectors once. `total_cmp` is a total order, so no
        // NaN panic path; unstable sort is fine (and faster) because equal
        // f64 samples are indistinguishable.
        for (_, g) in &mut grid.slots {
            for ws in &mut g.ranks {
                for cell in ws.iter_mut().flatten() {
                    cell.min_rtt_ms.sort_unstable_by(f64::total_cmp);
                    cell.hdratio.sort_unstable_by(f64::total_cmp);
                }
            }
        }
        Dataset { n_windows, groups: grid.slots.into_iter().collect() }
    }

    /// Summarise every cell once, groups in this dataset's iteration order.
    pub fn summarize(&self) -> Summaries {
        Summaries {
            groups: self
                .groups
                .iter()
                .map(|(k, g)| (*k, g.summarize(*k, Aggregation::summary)))
                .collect(),
        }
    }

    /// Number of populated (group, window, rank) cells.
    pub fn cell_count(&self) -> usize {
        self.groups.values().flat_map(GroupData::cells).count()
    }

    /// Total traffic across the dataset.
    pub fn total_bytes(&self) -> u64 {
        self.groups.values().map(|g| g.total_bytes).sum()
    }

    /// Traffic carried on preferred routes only (rank 0) — the natural
    /// denominator for "fraction of traffic" statements, since rank > 0
    /// records exist purely to measure alternates.
    pub fn preferred_bytes(&self) -> u64 {
        self.groups.values().flat_map(GroupData::preferred).map(|c| c.bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgeperf_routing::{PopId, Prefix};

    fn rec(window: u32, rank: u8, rtt: f64, hdr: Option<f64>, bytes: u64) -> SessionRecord {
        SessionRecord {
            group: GroupKey {
                pop: PopId(1),
                prefix: Prefix::new(0x0A000000, 16),
                country: 1,
                continent: 3,
            },
            window,
            route_rank: rank,
            relationship: Relationship::PrivatePeer,
            longer_path: rank > 0,
            more_prepended: false,
            min_rtt_ms: rtt,
            hdratio: hdr,
            bytes,
        }
    }

    #[test]
    fn builds_cells_and_medians() {
        let records = vec![
            rec(0, 0, 30.0, Some(1.0), 100),
            rec(0, 0, 40.0, Some(0.5), 100),
            rec(0, 0, 50.0, None, 100),
            rec(1, 0, 90.0, Some(0.0), 50),
            rec(0, 1, 35.0, Some(1.0), 10),
        ];
        let ds = Dataset::from_records(&records, 4);
        assert_eq!(ds.groups.len(), 1);
        let g = ds.groups.values().next().unwrap();
        let c = g.cell(0, 0).unwrap();
        assert_eq!(c.n(), 3);
        assert_eq!(c.min_rtt_p50(), 40.0);
        assert_eq!(c.hdratio_p50(), Some(0.75));
        assert_eq!(c.bytes, 300);
        assert!(g.cell(1, 0).unwrap().longer_path);
        assert!(g.cell(0, 2).is_none());
        assert_eq!(g.preferred().count(), 2);
        assert_eq!(ds.total_bytes(), 360);
    }

    #[test]
    fn hdratio_p50_none_when_no_tested_sessions() {
        let ds = Dataset::from_records(&[rec(0, 0, 20.0, None, 1)], 1);
        let g = ds.groups.values().next().unwrap();
        assert_eq!(g.cell(0, 0).unwrap().hdratio_p50(), None);
    }

    #[test]
    #[should_panic]
    fn window_out_of_range_panics() {
        Dataset::from_records(&[rec(5, 0, 20.0, None, 1)], 4);
    }

    #[test]
    fn samples_are_sorted() {
        let records =
            vec![rec(0, 0, 50.0, None, 1), rec(0, 0, 10.0, None, 1), rec(0, 0, 30.0, None, 1)];
        let ds = Dataset::from_records(&records, 1);
        let g = ds.groups.values().next().unwrap();
        assert_eq!(g.cell(0, 0).unwrap().min_rtt_ms, vec![10.0, 30.0, 50.0]);
    }
}
