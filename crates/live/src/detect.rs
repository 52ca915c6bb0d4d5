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
//! The one deliberate divergence from the offline algorithm: offline, the
//! baseline is picked over the whole study and every window re-assessed
//! against it; online, each window is assessed against the baseline of
//! the history retained *at close time*. Tests bound the difference.

use crate::window::{CellSummary, ClosedWindow};
use edgeperf_analysis::{
    assess_window, classify_group, pick_baseline, AnalysisConfig, DegradationMetric, FxHashMap,
    GroupKey, TemporalClass, WindowStatus,
};
use std::collections::VecDeque;

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

#[derive(Debug, Default)]
struct GroupState {
    /// Closed preferred-route summaries, oldest first.
    history: VecDeque<CellSummary>,
    /// Contiguous per-window status series per metric (gaps filled with
    /// `NoTraffic`), oldest first; `statuses[m].0` is the first window.
    statuses: [(u32, VecDeque<WindowStatus>); 2],
    /// Window at which the currently-open episode started, per metric.
    open_episode: [Option<u32>; 2],
}

/// Per-worker online detector state; see the module docs.
#[derive(Debug)]
pub struct OnlineDetector {
    cfg: AnalysisConfig,
    thresholds: [f64; 2],
    retention: usize,
    groups: FxHashMap<GroupKey, GroupState>,
    keys: Vec<GroupKey>,
    events: [u64; 2],
    episodes_opened: u64,
}

impl OnlineDetector {
    /// Empty detector retaining at most `retention` windows per group.
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
            groups: FxHashMap::default(),
            keys: Vec::new(),
            events: [0; 2],
            episodes_opened: 0,
        }
    }

    /// Fold one closed window in, returning any episode boundaries.
    pub fn observe(&mut self, window: &ClosedWindow) -> Vec<EpisodeChange> {
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
            // Retain the summary for future baselines. Evicting first
            // keeps the deque at `retention` entries, never one more — a
            // ninth entry at retention 8 doubles its buffer for good.
            while state.history.len() >= self.retention {
                state.history.pop_front();
            }
            state.history.push_back(*summary);
            for metric in METRICS {
                let m = metric_slot(metric);
                let baseline = pick_baseline(&self.cfg, metric, &state.history);
                let assessed =
                    assess_window(&self.cfg, metric, self.thresholds[m], summary, baseline);
                let status = assessed.status;
                if status == WindowStatus::Event {
                    self.events[m] += 1;
                }
                push_status(&mut state.statuses[m], window.index, status, self.retention);
                // Episode boundaries.
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

    /// Forget every group but keep the running totals: what a worker's
    /// detector becomes after a dirty panic, so its counts only grow.
    pub(crate) fn forget_groups(&mut self) {
        self.groups.clear();
        self.keys.clear();
    }

    /// Distinct preferred-route groups observed.
    pub(crate) fn group_count(&self) -> usize {
        self.keys.len()
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

    /// Current temporal class of every group for `metric`, in first-seen
    /// order, from the retained status series.
    pub fn classes(&self, metric: DegradationMetric) -> Vec<(GroupKey, TemporalClass)> {
        let m = metric_slot(metric);
        self.keys
            .iter()
            .map(|key| {
                let state = &self.groups[key];
                let statuses: Vec<WindowStatus> = state.statuses[m].1.iter().copied().collect();
                (*key, classify_group(&self.cfg, &statuses))
            })
            .collect()
    }

    /// The latest per-metric window status of `group`, if observed.
    #[cfg(test)]
    fn latest_status(&self, group: &GroupKey, metric: DegradationMetric) -> Option<WindowStatus> {
        self.groups.get(group)?.statuses[metric_slot(metric)].1.back().copied()
    }
}

/// Append `status` at `window`, padding skipped windows with `NoTraffic`
/// and evicting from the front past `retention`.
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
    // Checked conversion (not a cast): the deque is retention-bounded,
    // and window indices near u32::MAX must not overflow the add.
    let len = u32::try_from(statuses.len()).unwrap_or(u32::MAX);
    let next = start.saturating_add(len);
    if window >= next {
        for _ in next..window {
            statuses.push_back(WindowStatus::NoTraffic);
        }
        statuses.push_back(status);
    } else {
        // A worker only observes strictly increasing windows; treat a
        // replayed index defensively by overwriting in place.
        let i = (window - *start) as usize;
        statuses[i] = status;
    }
    while statuses.len() > retention {
        statuses.pop_front();
        *start += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgeperf_analysis::{degradation_events, GroupData, StreamingCell};
    use edgeperf_routing::{PopId, Prefix, Relationship};

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

    fn detector() -> OnlineDetector {
        OnlineDetector::new(AnalysisConfig::default(), 5.0, 0.05, 64)
    }

    #[test]
    fn stable_stream_stays_quiet() {
        let mut d = detector();
        for w in 0..10 {
            assert!(d.observe(&window_of(w, 40.0, 0.95, 60)).is_empty());
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
        let changes = d.observe(&window_of(6, 70.0, 0.95, 60));
        assert_eq!(changes.len(), 1);
        assert!(changes[0].opened);
        assert_eq!(changes[0].metric, DegradationMetric::MinRtt);
        assert_eq!(changes[0].window, 6);
        let (diff, lo, _) = changes[0].diff.unwrap();
        assert!((diff - 30.0).abs() < 2.0, "diff = {diff}");
        assert!(lo > 5.0);
        assert_eq!(d.episodes_open(), 1);
        let changes = d.observe(&window_of(7, 40.0, 0.95, 60));
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
        let changes = d.observe(&window_of(6, 40.0, 0.30, 60));
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
        assert!(d.observe(&window_of(4, 90.0, 0.2, 5)).is_empty());
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
            assert!(d.observe(w).is_empty(), "no episode before the last window");
        }
        let changes = d.observe(&series[8]);
        let cfg = AnalysisConfig::default();
        let grid = GroupData {
            ranks: vec![series.iter().map(|w| Some(w.cells[0].1)).collect()],
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
        let state = &d.groups[&group()];
        assert_eq!(state.history.len(), 8);
        assert!(state.history.capacity() <= 8usize.next_power_of_two(), "evict, then push");
        assert!(state.statuses[0].1.len() <= 8);
        assert_eq!(state.statuses[0].0, 92);
    }
}
