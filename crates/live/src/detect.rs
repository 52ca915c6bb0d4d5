//! Online degradation detection over closed windows.
//!
//! Runs the offline pipeline (`edgeperf_analysis::degradation` +
//! `classify`) one window at a time, through the offline code:
//! [`pick_baseline`] chooses the group's baseline window from the
//! retained history, [`assess_window`] compares each closing window
//! against it, and the status series feed the paper's temporal
//! classifier ([`classify_group`]) and an episode tracker that flags
//! degradations as they open and close.
//!
//! The history is the packed windows themselves. [`OnlineDetector::observe`]
//! packs each closed window once ([`ClosedWindow::share`]), keeps the last
//! `retention` of them and hands the same rows back, for the worker to
//! retain, spill and reply from. A group's baseline candidates are its
//! preferred-route rows in those windows, oldest first; every window is in
//! canonical order, so one cursor per window finds them. A group keeps
//! only its status series and open episodes.
//!
//! Two deliberate divergences from the offline algorithm. Offline, the
//! baseline is picked over the whole study and every window re-assessed
//! against it; online, each window is assessed against the baseline of
//! the windows retained *at close time*. And a group absent from some of
//! those windows has a shorter history: its candidates are the windows it
//! appears in among the last `retention`, not its last `retention`
//! appearances, just as its status series counts the others as
//! `NoTraffic`. Tests bound the first and pin the second.

use crate::window::{ClosedWindow, SharedWindow};
use edgeperf_analysis::{
    assess_window, cell_sort_key, classify_group, pick_baseline, AnalysisConfig, CellSortKey,
    DegradationMetric, FxHashMap, GroupKey, TemporalClass, WindowCell, WindowStatus,
};
use std::collections::VecDeque;
use std::sync::Arc;

/// An episode boundary the detector observed while folding in a window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpisodeChange {
    /// The affected user group.
    pub group: GroupKey,
    /// Which metric degraded.
    pub metric: DegradationMetric,
    /// The window at which the episode opened or closed.
    pub window: u32,
    /// True when a degradation episode starts, false when it ends.
    pub opened: bool,
    /// (diff, lo, hi) of the comparison that opened the episode.
    pub diff: Option<(f64, f64, f64)>,
}

const METRICS: [DegradationMetric; 2] = [DegradationMetric::MinRtt, DegradationMetric::HdRatio];

fn metric_slot(metric: DegradationMetric) -> usize {
    match metric {
        DegradationMetric::MinRtt => 0,
        DegradationMetric::HdRatio => 1,
    }
}

/// A row's place within its window: its canonical key without the window.
fn place(row: &WindowCell) -> CellSortKey {
    let (_, pop, base, len, country, continent, rank) = cell_sort_key(row);
    (0, pop, base, len, country, continent, rank)
}

#[derive(Debug, Default)]
struct GroupState {
    /// Window of the first entry of `statuses`.
    start: u32,
    /// Contiguous per-window (MinRTT, HDratio) statuses, oldest first,
    /// gaps filled with `NoTraffic`; at most `retention` entries. Both
    /// metrics are assessed at every window, so one series holds both.
    statuses: VecDeque<[WindowStatus; 2]>,
    /// Window at which the currently-open episode started, per metric.
    open_episode: [Option<u32>; 2],
}

impl GroupState {
    /// Append `status` at `window`, padding skipped windows with
    /// `NoTraffic` and keeping the newest `retention` entries. It evicts
    /// before it pushes, so the deque never holds one entry more — a ninth
    /// at retention 8 doubles its buffer for good. A window inside the
    /// series is overwritten in place and one older than the series is
    /// ignored: a worker observes strictly increasing windows, so either
    /// is a replay, and indexing by `window - start` below the series
    /// would underflow.
    fn push_status(&mut self, window: u32, status: [WindowStatus; 2], retention: usize) {
        if self.statuses.is_empty() {
            self.start = window;
        }
        if window < self.start {
            return;
        }
        // Checked conversions (not casts): the deque is retention-bounded,
        // and window indices near u32::MAX must not overflow the add.
        let len = self.statuses.len();
        let next = self.start.saturating_add(u32::try_from(len).unwrap_or(u32::MAX));
        if window < next {
            let i = usize::try_from(window - self.start).expect("inside a bounded series");
            self.statuses[i] = status;
            return;
        }
        // Skipped windows older than the newest `retention` would be
        // evicted as soon as they were pushed.
        let gap = usize::try_from(window - next).unwrap_or(usize::MAX).min(retention - 1);
        self.statuses.drain(..(len + gap + 1).saturating_sub(retention));
        self.statuses.extend(std::iter::repeat_n([WindowStatus::NoTraffic; 2], gap));
        self.statuses.push_back(status);
        let newer = u32::try_from(self.statuses.len() - 1).expect("retention-bounded");
        self.start = window - newer;
    }
}

/// Per-worker online detector state; see the module docs.
#[derive(Debug)]
pub struct OnlineDetector {
    cfg: AnalysisConfig,
    thresholds: [f64; 2],
    retention: usize,
    /// The last `retention` windows observed, oldest first: the baselines'
    /// only history, shared with whoever else keeps the rows.
    windows: VecDeque<SharedWindow>,
    groups: FxHashMap<GroupKey, GroupState>,
    events: [u64; 2],
    episodes_opened: u64,
    /// Scratch, reused across windows: one cursor per retained window.
    cursors: Vec<usize>,
}

impl OnlineDetector {
    /// Empty detector retaining at most `retention` windows.
    pub fn new(
        cfg: AnalysisConfig,
        minrtt_threshold_ms: f64,
        hdratio_threshold: f64,
        retention: usize,
    ) -> Self {
        OnlineDetector {
            cfg,
            thresholds: [minrtt_threshold_ms, hdratio_threshold],
            retention: retention.max(1),
            windows: VecDeque::new(),
            groups: FxHashMap::default(),
            events: [0; 2],
            episodes_opened: 0,
            cursors: Vec::new(),
        }
    }

    /// Fold one closed window in. Returns the window packed into the rows
    /// the detector now retains — the one copy its worker keeps too — and
    /// any episode boundaries, in canonical group order.
    pub fn observe(&mut self, window: &ClosedWindow) -> (SharedWindow, Vec<EpisodeChange>) {
        let rows = window.share();
        // Evict first: the deque never holds `retention + 1` windows.
        if self.windows.len() >= self.retention {
            self.windows.pop_front();
        }
        self.windows.push_back(Arc::clone(&rows));
        let changes = self.assess(window.index, &rows);
        (rows, changes)
    }

    /// Assess every preferred-route row of `rows`, the newest retained
    /// window, against its group's baseline among the retained windows.
    fn assess(&mut self, index: u32, rows: &[WindowCell]) -> Vec<EpisodeChange> {
        let mut changes = Vec::new();
        self.cursors.clear();
        self.cursors.resize(self.windows.len(), 0);
        for row in rows.iter().filter(|row| row.rank == 0) {
            let at = place(row);
            for (retained, cursor) in self.windows.iter().zip(&mut self.cursors) {
                // Rows and windows share one order: a cursor only moves on.
                while retained.get(*cursor).is_some_and(|c| place(c) < at) {
                    *cursor += 1;
                }
            }
            // The group's preferred-route rows in the retained windows,
            // oldest first: where the cursors stopped, if the place matches.
            let history = (self.windows.iter().zip(&self.cursors))
                .filter_map(|(retained, &cursor)| retained.get(cursor))
                .filter(|c| place(c) == at);
            let group = row.group();
            let state = self.groups.entry(group).or_default();
            let mut statuses = [WindowStatus::NoTraffic; 2];
            for metric in METRICS {
                let m = metric_slot(metric);
                let baseline = pick_baseline(&self.cfg, metric, history.clone());
                let assessed = assess_window(&self.cfg, metric, self.thresholds[m], row, baseline);
                let status = assessed.status;
                statuses[m] = status;
                if status == WindowStatus::Event {
                    self.events[m] += 1;
                }
                // Episode boundaries.
                match (state.open_episode[m], status) {
                    (None, WindowStatus::Event) => {
                        state.open_episode[m] = Some(index);
                        self.episodes_opened += 1;
                        changes.push(EpisodeChange {
                            group,
                            metric,
                            window: index,
                            opened: true,
                            diff: assessed.diff,
                        });
                    }
                    (Some(_), s) if s != WindowStatus::Event => {
                        state.open_episode[m] = None;
                        changes.push(EpisodeChange {
                            group,
                            metric,
                            window: index,
                            opened: false,
                            diff: None,
                        });
                    }
                    _ => {}
                }
            }
            state.push_status(index, statuses, self.retention);
        }
        changes
    }

    /// Forget every group and retained window but keep the running totals:
    /// what a worker's detector becomes after a dirty panic, so its counts
    /// only grow and no baseline reaches back before the panic.
    pub(crate) fn forget_groups(&mut self) {
        self.groups.clear();
        self.windows.clear();
    }

    /// Distinct preferred-route groups observed.
    pub(crate) fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Confident degradation events recorded for `metric`.
    pub(crate) fn event_count(&self, metric: DegradationMetric) -> u64 {
        self.events[metric_slot(metric)]
    }

    /// Episodes opened so far (across both metrics).
    pub fn episodes_opened(&self) -> u64 {
        self.episodes_opened
    }

    /// Episodes currently open (across both metrics).
    pub fn episodes_open(&self) -> usize {
        self.groups.values().flat_map(|s| s.open_episode.iter()).flatten().count()
    }

    /// Current temporal class of every group for `metric`, in canonical
    /// group order, from the retained status series.
    pub fn classes(&self, metric: DegradationMetric) -> Vec<(GroupKey, TemporalClass)> {
        let m = metric_slot(metric);
        let mut classes: Vec<(GroupKey, TemporalClass)> = self
            .groups
            .iter()
            .map(|(key, state)| {
                let statuses: Vec<WindowStatus> = state.statuses.iter().map(|s| s[m]).collect();
                (*key, classify_group(&self.cfg, &statuses))
            })
            .collect();
        classes.sort_unstable_by_key(|&(key, _)| key);
        classes
    }

    /// The newest retained window.
    #[cfg(test)]
    pub(crate) fn newest_window(&self) -> Option<&SharedWindow> {
        self.windows.back()
    }

    /// The window `group`'s retained status series for `metric` starts
    /// at, and the series, oldest first.
    #[cfg(test)]
    fn statuses(&self, group: &GroupKey, metric: DegradationMetric) -> (u32, Vec<WindowStatus>) {
        let m = metric_slot(metric);
        self.groups
            .get(group)
            .map_or((0, Vec::new()), |s| (s.start, s.statuses.iter().map(|s| s[m]).collect()))
    }

    /// The latest per-metric window status of `group`, if observed.
    #[cfg(test)]
    fn latest_status(&self, group: &GroupKey, metric: DegradationMetric) -> Option<WindowStatus> {
        self.statuses(group, metric).1.last().copied()
    }
}

/// The detector as it was before it read its baselines from the retained
/// windows: per group, a history of its last `retention` preferred-route
/// summaries and a status series per metric. The reference the
/// equivalence tests hold [`OnlineDetector`] to.
#[cfg(test)]
mod reference {
    use super::{metric_slot, EpisodeChange, METRICS};
    use crate::window::ClosedWindow;
    use edgeperf_analysis::{
        assess_window, classify_group, pick_baseline, AnalysisConfig, DegradationMetric, FxHashMap,
        GroupKey, TemporalClass, WindowCell, WindowStatus,
    };
    use std::collections::VecDeque;

    #[derive(Debug, Default)]
    struct GroupState {
        /// Closed preferred-route rows, oldest first.
        history: Vec<WindowCell>,
        statuses: [(u32, VecDeque<WindowStatus>); 2],
        open_episode: [Option<u32>; 2],
    }

    #[derive(Debug)]
    pub(super) struct Reference {
        cfg: AnalysisConfig,
        thresholds: [f64; 2],
        retention: usize,
        groups: FxHashMap<GroupKey, GroupState>,
        keys: Vec<GroupKey>,
        pub(super) events: [u64; 2],
        pub(super) episodes_opened: u64,
    }

    impl Reference {
        pub(super) fn new(cfg: AnalysisConfig, thresholds: [f64; 2], retention: usize) -> Self {
            Reference {
                cfg,
                thresholds,
                retention: retention.max(1),
                groups: FxHashMap::default(),
                keys: Vec::new(),
                events: [0; 2],
                episodes_opened: 0,
            }
        }

        pub(super) fn observe(&mut self, window: &ClosedWindow) -> Vec<EpisodeChange> {
            let mut changes = Vec::new();
            for ((group, rank), summary) in &window.cells {
                if *rank != 0 {
                    continue;
                }
                if !self.groups.contains_key(group) {
                    self.keys.push(*group);
                    self.groups.insert(*group, GroupState::default());
                }
                let state = self.groups.get_mut(group).expect("group just ensured");
                if state.history.len() >= self.retention {
                    state.history.remove(0);
                }
                let row = WindowCell::new(window.index, *group, 0, summary);
                state.history.push(row);
                for metric in METRICS {
                    let m = metric_slot(metric);
                    let baseline = pick_baseline(&self.cfg, metric, &state.history);
                    let assessed =
                        assess_window(&self.cfg, metric, self.thresholds[m], &row, baseline);
                    let status = assessed.status;
                    if status == WindowStatus::Event {
                        self.events[m] += 1;
                    }
                    push_status(&mut state.statuses[m], window.index, status, self.retention);
                    match (state.open_episode[m], status) {
                        (None, WindowStatus::Event) => {
                            state.open_episode[m] = Some(window.index);
                            self.episodes_opened += 1;
                            changes.push(EpisodeChange {
                                group: *group,
                                metric,
                                window: window.index,
                                opened: true,
                                diff: assessed.diff,
                            });
                        }
                        (Some(_), s) if s != WindowStatus::Event => {
                            state.open_episode[m] = None;
                            changes.push(EpisodeChange {
                                group: *group,
                                metric,
                                window: window.index,
                                opened: false,
                                diff: None,
                            });
                        }
                        _ => {}
                    }
                }
            }
            changes
        }

        pub(super) fn group_count(&self) -> usize {
            self.keys.len()
        }

        pub(super) fn episodes_open(&self) -> usize {
            self.groups.values().flat_map(|s| s.open_episode.iter()).flatten().count()
        }

        pub(super) fn classes(&self, metric: DegradationMetric) -> Vec<(GroupKey, TemporalClass)> {
            let m = metric_slot(metric);
            self.keys
                .iter()
                .map(|key| {
                    let statuses: Vec<WindowStatus> =
                        self.groups[key].statuses[m].1.iter().copied().collect();
                    (*key, classify_group(&self.cfg, &statuses))
                })
                .collect()
        }

        pub(super) fn statuses(
            &self,
            group: &GroupKey,
            metric: DegradationMetric,
        ) -> (u32, Vec<WindowStatus>) {
            self.groups.get(group).map_or((0, Vec::new()), |s| {
                let (start, series) = &s.statuses[metric_slot(metric)];
                (*start, series.iter().copied().collect())
            })
        }
    }

    fn push_status(
        series: &mut (u32, VecDeque<WindowStatus>),
        window: u32,
        status: WindowStatus,
        retention: usize,
    ) {
        let (start, statuses) = series;
        if statuses.is_empty() {
            *start = window;
        }
        let len = u32::try_from(statuses.len()).unwrap_or(u32::MAX);
        let next = start.saturating_add(len);
        if window >= next {
            for _ in next..window {
                statuses.push_back(WindowStatus::NoTraffic);
            }
            statuses.push_back(status);
        } else {
            statuses[(window - *start) as usize] = status;
        }
        while statuses.len() > retention {
            statuses.pop_front();
            *start += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::Reference;
    use super::*;
    use edgeperf_analysis::{degradation_events, CellSummary, GroupData, StreamingCell};
    use edgeperf_routing::{PopId, Prefix, Relationship};
    use proptest::prelude::*;

    fn group() -> GroupKey {
        GroupKey { pop: PopId(0), prefix: Prefix::new(0x0A000000, 16), country: 0, continent: 0 }
    }

    /// A closed window of `n` sessions, the first `n_tested` with an
    /// HDratio.
    fn window_with(
        index: u32,
        center_rtt: f64,
        hdratio: f64,
        n: usize,
        n_tested: usize,
    ) -> ClosedWindow {
        let mut cell = StreamingCell::new(Relationship::PrivatePeer);
        for i in 0..n {
            let jitter = (i as f64 - n as f64 / 2.0) * 0.05;
            let hd = (i < n_tested).then_some((hdratio + jitter / 100.0).clamp(0.0, 1.0));
            cell.push(center_rtt + jitter, hd, 100, false, false);
        }
        cell.agg.flush();
        ClosedWindow { index, cells: vec![((group(), 0), cell.summary())] }
    }

    fn window_of(index: u32, center_rtt: f64, hdratio: f64, n: usize) -> ClosedWindow {
        window_with(index, center_rtt, hdratio, n, n)
    }

    /// The rows of `group`'s preferred route among `d`'s retained
    /// windows: how far back its baselines reach.
    fn retained_rows(d: &OnlineDetector, group: &GroupKey) -> usize {
        let rows = d.windows.iter().flat_map(|w| w.iter());
        rows.filter(|c| c.rank == 0 && c.group() == *group).count()
    }

    fn detector() -> OnlineDetector {
        OnlineDetector::new(AnalysisConfig::default(), 5.0, 0.05, 64)
    }

    #[test]
    fn stable_stream_stays_quiet() {
        let mut d = detector();
        for w in 0..10 {
            assert!(d.observe(&window_of(w, 40.0, 0.95, 60)).1.is_empty());
        }
        assert_eq!(d.event_count(DegradationMetric::MinRtt), 0);
        assert_eq!(d.episodes_open(), 0);
        assert_eq!(d.group_count(), 1);
    }

    #[test]
    fn latency_spike_opens_and_closes_an_episode() {
        let mut d = detector();
        for w in 0..6 {
            d.observe(&window_of(w, 40.0, 0.95, 60));
        }
        let (_, changes) = d.observe(&window_of(6, 70.0, 0.95, 60));
        assert_eq!(changes.len(), 1);
        assert!(changes[0].opened);
        assert_eq!(changes[0].metric, DegradationMetric::MinRtt);
        assert_eq!(changes[0].window, 6);
        let (diff, lo, _) = changes[0].diff.unwrap();
        assert!((diff - 30.0).abs() < 2.0, "diff = {diff}");
        assert!(lo > 5.0);
        assert_eq!(d.episodes_open(), 1);
        let (_, changes) = d.observe(&window_of(7, 40.0, 0.95, 60));
        assert_eq!(changes.len(), 1);
        assert!(!changes[0].opened);
        assert_eq!(d.episodes_open(), 0);
        assert_eq!(d.episodes_opened(), 1);
        assert_eq!(d.event_count(DegradationMetric::MinRtt), 1);
    }

    #[test]
    fn hdratio_collapse_is_detected() {
        let mut d = detector();
        for w in 0..6 {
            d.observe(&window_of(w, 40.0, 0.95, 60));
        }
        let (_, changes) = d.observe(&window_of(6, 40.0, 0.30, 60));
        let hd: Vec<_> =
            changes.iter().filter(|c| c.metric == DegradationMetric::HdRatio).collect();
        assert_eq!(hd.len(), 1);
        assert!(hd[0].opened);
        assert_eq!(d.event_count(DegradationMetric::HdRatio), 1);
    }

    #[test]
    fn sparse_windows_are_invalid_not_events() {
        let mut d = detector();
        for w in 0..4 {
            d.observe(&window_of(w, 40.0, 0.95, 60));
        }
        // 5 samples < min_samples: invalid, no event either way.
        assert!(d.observe(&window_of(4, 90.0, 0.2, 5)).1.is_empty());
        assert_eq!(
            d.latest_status(&group(), DegradationMetric::MinRtt),
            Some(WindowStatus::Invalid)
        );
    }

    #[test]
    fn gaps_fill_as_no_traffic_and_classes_come_out() {
        let mut d = detector();
        for w in 0..3 {
            d.observe(&window_of(w, 40.0, 0.95, 60));
        }
        d.observe(&window_of(10, 40.0, 0.95, 60));
        // 4 covered of 11 windows < 60% coverage → ignored.
        let classes = d.classes(DegradationMetric::MinRtt);
        assert_eq!(classes.len(), 1);
        assert_eq!(classes[0].1, TemporalClass::Ignored);
    }

    #[test]
    fn continuous_degradation_classifies_continuous() {
        let mut d = detector();
        // Enough good windows that the p10 baseline stays at the good
        // level (like the offline baseline, it is a quantile over window
        // medians), then persistently bad.
        for w in 0..3 {
            d.observe(&window_of(w, 40.0, 0.95, 60));
        }
        for w in 3..12 {
            d.observe(&window_of(w, 70.0, 0.95, 60));
        }
        let classes = d.classes(DegradationMetric::MinRtt);
        assert_eq!(classes[0].1, TemporalClass::Continuous);
        assert!(d.event_count(DegradationMetric::MinRtt) >= 8);
    }

    #[test]
    fn final_window_verdict_equals_the_offline_detector() {
        // With every window retained, the history at the last close is the
        // whole series, so online and offline pick the same baseline and
        // must reach the same verdict, bit for bit. Window 3 has 40
        // sessions but 3 tested ones: both sides admit it as an HDratio
        // baseline candidate (n ≥ 30 and a median exists), which
        // `n_tested ≥ 30` would not.
        let mut series: Vec<ClosedWindow> = (0..8)
            .map(|w| window_of(w, 40.0 + w as f64 * 0.3, 0.9 - w as f64 * 0.004, 60))
            .collect();
        series[3] = window_with(3, 41.0, 0.99, 40, 3);
        series.push(window_of(8, 70.0, 0.4, 60));

        let mut d = detector();
        for w in &series[..8] {
            assert!(d.observe(w).1.is_empty(), "no episode before the last window");
        }
        let (_, changes) = d.observe(&series[8]);
        let cfg = AnalysisConfig::default();
        let grid = GroupData {
            ranks: vec![series.iter().map(|w| Some(w.share()[0])).collect()],
            total_bytes: 0,
        };
        for (metric, threshold) in METRICS.into_iter().zip([5.0, 0.05]) {
            let offline = *degradation_events(&cfg, &grid, metric, threshold).last().unwrap();
            assert_eq!(offline.status, WindowStatus::Event);
            assert_eq!(d.latest_status(&group(), metric), Some(offline.status));
            let opened = changes.iter().find(|c| c.metric == metric && c.opened).unwrap();
            // Shortest round-trip float text: equal strings, equal bits.
            assert_eq!(format!("{:?}", opened.diff), format!("{:?}", offline.diff));
        }
    }

    #[test]
    fn retention_bounds_history_and_statuses() {
        let mut d = OnlineDetector::new(AnalysisConfig::default(), 5.0, 0.05, 8);
        for w in 0..100 {
            d.observe(&window_of(w, 40.0, 0.95, 60));
        }
        assert_eq!(d.windows.len(), 8);
        assert!(d.windows.capacity() <= 8, "evict, then push");
        assert_eq!(
            retained_rows(&d, &group()),
            8,
            "the group's history reaches every retained window"
        );
        let state = &d.groups[&group()];
        assert_eq!((state.start, state.statuses.len()), (92, 8));
        assert!(state.statuses.capacity() <= 8, "evict, then push");
        // A gap longer than the retention leaves padding and the newest
        // window, and an index older than the series changes no status.
        d.observe(&window_of(1_000, 40.0, 0.95, 60));
        let (start, series) = d.statuses(&group(), DegradationMetric::MinRtt);
        assert_eq!((start, series.len()), (993, 8));
        assert!(series[..7].iter().all(|s| *s == WindowStatus::NoTraffic));
        d.observe(&window_of(500, 90.0, 0.2, 60));
        assert_eq!(d.statuses(&group(), DegradationMetric::MinRtt), (start, series));
    }

    /// The documented divergence: a group absent from some of the last
    /// `retention` windows gets a shorter history. Group A is steady at
    /// 40 ms for six windows, absent for three, and back at 70 ms. The old
    /// detector's history still held A's last four appearances, so its
    /// baseline was a 40 ms window and A's return was an event. Among the
    /// last four windows A appears only in its own, which is its own
    /// baseline: the comparison is valid and quiet.
    #[test]
    fn a_group_absent_from_retained_windows_has_a_shorter_history() {
        let other = GroupKey { country: 1, ..group() };
        let cell = |w: u32, rtt: f64| window_of(w, rtt, 0.95, 60).cells[0].1;
        let window = |w: u32, a: Option<f64>| ClosedWindow {
            index: w,
            cells: [a.map(|rtt| ((group(), 0), cell(w, rtt))), Some(((other, 0), cell(w, 40.0)))]
                .into_iter()
                .flatten()
                .collect(),
        };
        let cfg = AnalysisConfig::default();
        let mut d = OnlineDetector::new(cfg, 5.0, 0.05, 4);
        let mut old = Reference::new(cfg, [5.0, 0.05], 4);
        for w in 0..9 {
            let w = window(w, (w < 6).then_some(40.0));
            assert!(d.observe(&w).1.is_empty());
            assert!(old.observe(&w).is_empty());
        }
        let back = window(9, Some(70.0));
        let (_, changes) = d.observe(&back);
        let old_changes = old.observe(&back);
        assert!(changes.is_empty());
        assert_eq!(d.latest_status(&group(), DegradationMetric::MinRtt), Some(WindowStatus::Quiet));
        assert_eq!(old_changes.len(), 1);
        assert!(old_changes[0].opened && old_changes[0].group == group());
        // The status series agree but for that verdict: both count A's
        // absence as `NoTraffic`.
        for metric in METRICS {
            let (start, series) = d.statuses(&group(), metric);
            let (old_start, old_series) = old.statuses(&group(), metric);
            assert_eq!((start, series.len()), (old_start, old_series.len()));
            assert_eq!(series[..3], old_series[..3]);
        }
    }

    /// One cell's summary, built directly: `n` below 30 or few tested
    /// sessions make it sparse.
    fn summary(n: usize, n_tested: usize, rtt: f64, hd: f64, rank: u8) -> CellSummary {
        let var = |spread: f64, k: usize| (k >= 5).then_some(spread * spread / k as f64);
        CellSummary {
            n,
            n_tested,
            bytes: 1_000 * n as u64,
            min_rtt_p50: rtt,
            min_rtt_var: var(4.0, n),
            hdratio_p50: (n_tested > 0).then_some(hd),
            hdratio_var: var(0.05, n_tested),
            relationship: if rank == 0 { Relationship::PrivatePeer } else { Relationship::Transit },
            longer_path: rank > 0,
            more_prepended: false,
        }
    }

    /// A group's cells in one generated window: (sessions, tested
    /// quarters, MinRTT shift steps, HDratio drop steps, alternate route).
    type CellSpec = (usize, usize, u8, u8, bool);

    /// One cell in four is sparse: fewer than 30 sessions.
    fn cell_specs() -> impl Strategy<Value = CellSpec> {
        let sessions =
            (0u8..4, 30usize..90, 1usize..30)
                .prop_map(|(pick, dense, sparse)| if pick == 0 { sparse } else { dense });
        (sessions, 0usize..=4, 0u8..4, 0u8..3, any::<bool>())
    }

    /// The insertion order of one window's groups: `0..keys.len()` sorted
    /// by the random keys.
    fn order(keys: &[u32]) -> Vec<usize> {
        let mut order: Vec<usize> = (0..keys.len()).collect();
        order.sort_by_key(|&g| keys[g]);
        order
    }

    /// `windows[w][g]` is group `g`'s cells in window `w`, inserted in the
    /// order `orders[w]` gives.
    fn build(windows: &[Vec<CellSpec>], orders: &[Vec<usize>]) -> Vec<ClosedWindow> {
        let key = |g: usize| GroupKey {
            pop: PopId(u16::try_from(g % 3).unwrap()),
            prefix: Prefix::new(0x0A00_0000 + (u32::try_from(g).unwrap() << 8), 24),
            country: u16::try_from(g % 2).unwrap(),
            continent: 1,
        };
        windows
            .iter()
            .zip(orders)
            .enumerate()
            .map(|(w, (cells, order))| {
                let mut out = Vec::new();
                for &g in order.iter().filter(|&&g| g < cells.len()) {
                    let (n, quarters, shift, drop, alternate) = cells[g];
                    let tested = n * quarters / 4;
                    let rtt = 30.0 + 2.0 * g as f64 + 15.0 * f64::from(shift) + 0.01 * w as f64;
                    let hd = 0.95 - 0.2 * f64::from(drop) - 0.001 * w as f64;
                    out.push(((key(g), 0), summary(n, tested, rtt, hd, 0)));
                    if alternate {
                        out.push(((key(g), 1), summary(n / 3, tested / 3, rtt + 9.0, hd, 1)));
                    }
                }
                ClosedWindow { index: u32::try_from(w).unwrap(), cells: out }
            })
            .collect()
    }

    /// An episode change with its diff as bits.
    type ChangeBits = (GroupKey, usize, u32, bool, Option<[u64; 3]>);

    /// A window's changes in canonical group order, diffs as bits.
    fn bits(mut changes: Vec<EpisodeChange>) -> Vec<ChangeBits> {
        changes.sort_by_key(|c| (c.group, metric_slot(c.metric)));
        changes
            .into_iter()
            .map(|c| {
                let diff = c.diff.map(|(d, lo, hi)| [d.to_bits(), lo.to_bits(), hi.to_bits()]);
                (c.group, metric_slot(c.metric), c.window, c.opened, diff)
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Gap-free series of several groups — every group has a
        /// preferred-route cell in every window, shifted, sparse or few
        /// tested, sometimes beside an alternate route — through both
        /// detectors: after every window, every episode change (diffs by
        /// bits), every status series, the classes as a multiset and every
        /// count agree.
        #[test]
        fn verdicts_equal_the_per_group_history_detector(
            retention in 1usize..10,
            groups in 1usize..6,
            windows in prop::collection::vec(prop::collection::vec(cell_specs(), 6), 1..24),
            shuffles in prop::collection::vec(prop::collection::vec(any::<u32>(), 6), 24),
        ) {
            let windows: Vec<Vec<CellSpec>> =
                windows.into_iter().map(|cells| cells[..groups].to_vec()).collect();
            let orders: Vec<Vec<usize>> = shuffles.iter().map(|keys| order(keys)).collect();
            let cfg = AnalysisConfig::default();
            let mut d = OnlineDetector::new(cfg, 5.0, 0.05, retention);
            let mut old = Reference::new(cfg, [5.0, 0.05], retention);
            for window in &build(&windows, &orders) {
                let (rows, changes) = d.observe(window);
                prop_assert!(Arc::ptr_eq(&rows, d.newest_window().unwrap()));
                prop_assert_eq!(bits(changes), bits(old.observe(window)));
                for ((group, _), _) in window.cells.iter().filter(|((_, rank), _)| *rank == 0) {
                    for metric in METRICS {
                        prop_assert_eq!(d.statuses(group, metric), old.statuses(group, metric));
                    }
                }
                for metric in METRICS {
                    let mut old_classes = old.classes(metric);
                    old_classes.sort_unstable_by_key(|&(key, _)| key);
                    prop_assert_eq!(d.classes(metric), old_classes);
                    prop_assert_eq!(d.event_count(metric), old.events[metric_slot(metric)]);
                }
                prop_assert_eq!(d.episodes_opened(), old.episodes_opened);
                prop_assert_eq!(d.episodes_open(), old.episodes_open());
                prop_assert_eq!(d.group_count(), old.group_count());
            }
        }
    }
}
