//! Temporal behaviour classification (§3.4.2).
//!
//! Given a per-window event series (degradation or opportunity), a user
//! group is classified, checking in order:
//!
//! 1. **Ignored** — traffic in fewer than 60% of windows (no
//!    representative view).
//! 2. **Uneventful** — no valid window has an event.
//! 3. **Continuous** — events in ≥ 75% of valid windows.
//! 4. **Diurnal** — some fixed 15-minute slot is eventful on ≥ 5 days.
//! 5. **Episodic** — everything else.
//!
//! A run shorter than those 5 days cannot tell 4 from 5: its eventful,
//! non-continuous groups are **not assessable**, never episodic.

use crate::config::AnalysisConfig;
use crate::degradation::WindowStatus;

/// The paper's temporal behaviour classes (plus the ignored bucket).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TemporalClass {
    /// Insufficient coverage to classify.
    Ignored,
    /// No eventful valid window.
    Uneventful,
    /// Eventful in at least 75% of valid windows ("continuous" /
    /// "persistent" in the paper).
    Continuous,
    /// A fixed time-of-day slot eventful on ≥ 5 days.
    Diurnal,
    /// Some events, no clear pattern.
    Episodic,
    /// Some events, not continuous, in a run of `days` days, fewer than
    /// the `needed` (`AnalysisConfig::diurnal_days`) a diurnal slot must
    /// recur on: diurnal or episodic, the run cannot tell.
    NotAssessable { days: u32, needed: u32 },
}

impl TemporalClass {
    /// Display label matching the paper's tables.
    pub fn label(&self) -> String {
        match self {
            TemporalClass::Ignored => "ignored".into(),
            TemporalClass::Uneventful => "uneventful".into(),
            TemporalClass::Continuous => "continuous".into(),
            TemporalClass::Diurnal => "diurnal".into(),
            TemporalClass::Episodic => "episodic".into(),
            TemporalClass::NotAssessable { days, needed } => {
                format!("not assessable ({days} < {needed} days)")
            }
        }
    }
}

/// Classify a group's event series.
pub fn classify_group(cfg: &AnalysisConfig, statuses: &[WindowStatus]) -> TemporalClass {
    let n = statuses.len();
    if n == 0 {
        return TemporalClass::Ignored;
    }
    let covered = statuses.iter().filter(|s| **s != WindowStatus::NoTraffic).count();
    if (covered as f64) < cfg.min_coverage * n as f64 {
        return TemporalClass::Ignored;
    }
    let valid: Vec<bool> = statuses
        .iter()
        .filter(|s| matches!(s, WindowStatus::Quiet | WindowStatus::Event))
        .map(|s| *s == WindowStatus::Event)
        .collect();
    let events = valid.iter().filter(|&&e| e).count();
    if events == 0 {
        return TemporalClass::Uneventful;
    }
    if !valid.is_empty() && events as f64 >= cfg.continuous_fraction * valid.len() as f64 {
        return TemporalClass::Continuous;
    }
    // Diurnal: same slot-of-day eventful on ≥ diurnal_days distinct days,
    // which a shorter run cannot show (and its day count fits a `u32`).
    let wpd = cfg.windows_per_day as usize;
    let days = n.div_ceil(wpd);
    if days < cfg.diurnal_days as usize {
        return TemporalClass::NotAssessable { days: days as u32, needed: cfg.diurnal_days };
    }
    let eventful_days =
        |slot| (slot..n).step_by(wpd).filter(|&i| statuses[i] == WindowStatus::Event).count();
    if (0..wpd).any(|slot| eventful_days(slot) >= cfg.diurnal_days as usize) {
        TemporalClass::Diurnal
    } else {
        TemporalClass::Episodic
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> AnalysisConfig {
        // 4 windows/day for compact tests; diurnal needs 5 days.
        AnalysisConfig { windows_per_day: 4, ..Default::default() }
    }

    fn series(pattern: &[(WindowStatus, usize)]) -> Vec<WindowStatus> {
        pattern.iter().flat_map(|&(s, n)| std::iter::repeat_n(s, n)).collect()
    }

    use WindowStatus::*;

    #[test]
    fn sparse_coverage_is_ignored() {
        let s = series(&[(Quiet, 10), (NoTraffic, 30)]);
        assert_eq!(classify_group(&cfg(), &s), TemporalClass::Ignored);
    }

    #[test]
    fn all_quiet_is_uneventful() {
        let s = series(&[(Quiet, 40)]);
        assert_eq!(classify_group(&cfg(), &s), TemporalClass::Uneventful);
    }

    #[test]
    fn invalid_windows_dont_make_events() {
        let s = series(&[(Quiet, 30), (Invalid, 10)]);
        assert_eq!(classify_group(&cfg(), &s), TemporalClass::Uneventful);
    }

    #[test]
    fn mostly_eventful_is_continuous() {
        let s = series(&[(Event, 32), (Quiet, 8)]);
        assert_eq!(classify_group(&cfg(), &s), TemporalClass::Continuous);
    }

    #[test]
    fn diurnal_pattern_detected() {
        // 10 days × 4 windows; slot 2 eventful every day.
        let mut s = Vec::new();
        for _day in 0..10 {
            s.extend_from_slice(&[Quiet, Quiet, Event, Quiet]);
        }
        assert_eq!(classify_group(&cfg(), &s), TemporalClass::Diurnal);
    }

    #[test]
    fn diurnal_needs_five_days() {
        // Slot 2 eventful on only 4 of 10 days → episodic.
        let mut s = Vec::new();
        for day in 0..10 {
            if day < 4 {
                s.extend_from_slice(&[Quiet, Quiet, Event, Quiet]);
            } else {
                s.extend_from_slice(&[Quiet, Quiet, Quiet, Quiet]);
            }
        }
        assert_eq!(classify_group(&cfg(), &s), TemporalClass::Episodic);
    }

    #[test]
    fn a_run_shorter_than_the_diurnal_rule_is_not_assessable() {
        // 3 days × 4 windows; slot 2 eventful every day: diurnal over 5
        // days, but 3 cannot show it.
        let s: Vec<_> = (0..3).flat_map(|_| [Quiet, Quiet, Event, Quiet]).collect();
        let class = classify_group(&cfg(), &s);
        assert_eq!(class, TemporalClass::NotAssessable { days: 3, needed: 5 });
        assert_eq!(class.label(), "not assessable (3 < 5 days)");
    }

    #[test]
    fn scattered_events_are_episodic() {
        // Events at varying slots on different days, ~20% of windows.
        let mut s = vec![Quiet; 40];
        for (day, slot) in [(0, 1), (2, 3), (4, 0), (6, 2), (8, 1)] {
            s[day * 4 + slot] = Event;
        }
        assert_eq!(classify_group(&cfg(), &s), TemporalClass::Episodic);
    }

    #[test]
    fn empty_series_is_ignored() {
        assert_eq!(classify_group(&cfg(), &[]), TemporalClass::Ignored);
    }

    #[test]
    fn continuous_checked_before_diurnal() {
        // Eventful everywhere also matches diurnal; continuous must win.
        let mut s = Vec::new();
        for _ in 0..10 {
            s.extend_from_slice(&[Event, Event, Event, Event]);
        }
        assert_eq!(classify_group(&cfg(), &s), TemporalClass::Continuous);
    }
}
