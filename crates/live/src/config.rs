//! Live-server tunables: one struct of public fields, checked by
//! [`LiveConfig::validate`] when [`crate::LiveServer::start`] takes it.

use edgeperf_analysis::AnalysisConfig;
use edgeperf_core::EdgeperfError;
use std::path::PathBuf;

/// Configuration of a [`crate::LiveServer`].
///
/// Defaults target the paper's parameters (15-minute windows, §3.3) with
/// an allowed lateness of one minute; tests shrink both to keep replays
/// fast. Callers name the fields that differ and take the rest from
/// [`Default`]: `LiveConfig { workers: 2, ..LiveConfig::default() }`.
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// Address to bind (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Number of ingest worker threads (each owns a shard of the groups).
    pub workers: usize,
    /// Aggregation window length in milliseconds (15 minutes).
    pub window_ms: f64,
    /// Allowed event-time lateness: the watermark trails the maximum
    /// observed timestamp by this much, and a window closes only when the
    /// watermark passes its end.
    pub lateness_ms: f64,
    /// Bounded per-lane queue capacity (records). Each connection owns
    /// one SPSC lane per worker sized to hold about this many records
    /// (rounded to whole batches, then to a power of two of ring
    /// slots); a reader blocks when a lane is full — backpressure
    /// instead of unbounded memory.
    pub queue_capacity: usize,
    /// Closed windows retained in RAM per worker. One set serves both
    /// queries and the detector's baselines: the detector reads the
    /// packed windows the worker keeps and holds no copy of its own.
    /// Older windows are evicted — into the tiered segment store when
    /// [`spill_dir`](Self::spill_dir) is set, otherwise dropped — so RAM
    /// stays bounded by `groups × retention_windows` cells either way.
    pub retention_windows: usize,
    /// Directory for the tiered window store. `None` (the default)
    /// keeps the pre-spill behaviour: evicted windows are gone. With a
    /// directory, evicted windows are written as columnar segments and
    /// stay queryable through `cells from=… until=…`.
    pub spill_dir: Option<PathBuf>,
    /// Segment count at which the background compactor starts merging
    /// (only meaningful with a spill directory).
    pub compact_min_segments: usize,
    /// Segments merged per compaction round.
    pub compact_batch: usize,
    /// Statistical parameters shared with the offline pipeline.
    pub analysis: AnalysisConfig,
    /// MinRTT degradation threshold (ms): an event needs the CI lower
    /// bound of (window − baseline) to clear this.
    pub minrtt_threshold_ms: f64,
    /// HDratio degradation threshold (ratio units, baseline − window).
    pub hdratio_threshold: f64,
    /// Per-connection read buffer size in bytes: the `BufReader`
    /// capacity in JSONL mode and the reusable [`crate::FrameDecoder`]
    /// buffer in binary mode. One allocation per connection, reused for
    /// every record.
    pub read_buffer_bytes: usize,
    /// Idle/read deadline per connection in milliseconds. A connection
    /// that produces no bytes for this long is evicted (counted under
    /// `live.conns.evicted`); clients with resume sessions reconnect
    /// and continue. `0` (the default) disables the deadline.
    pub idle_timeout_ms: u64,
    /// Write deadline per connection in milliseconds: a reply write
    /// blocked longer than this (slow-loris reader) evicts the
    /// connection. `0` (the default) disables the deadline.
    pub write_timeout_ms: u64,
    /// Maximum simultaneous client connections. New connections beyond
    /// the cap are refused (counted under `live.conns.refused`).
    /// `0` (the default) means unlimited.
    pub max_connections: usize,
    /// Times a panicked ingest worker is respawned before its shard
    /// goes into zombie mode (records drained and counted as rejected
    /// with reason `worker_lost`, queries keep answering).
    pub max_worker_respawns: u32,
    /// Consecutive spill failures before the segment store enters
    /// degraded (RAM-only retention) mode.
    pub spill_fail_threshold: u32,
    /// Deterministic fault-injection schedule (empty in production;
    /// see [`crate::ChaosPlan`]).
    pub chaos: crate::ChaosPlan,
}

impl Default for LiveConfig {
    fn default() -> Self {
        LiveConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            window_ms: 900_000.0,
            lateness_ms: 60_000.0,
            queue_capacity: 4_096,
            retention_windows: 192,
            spill_dir: None,
            compact_min_segments: 16,
            compact_batch: 8,
            analysis: AnalysisConfig::default(),
            minrtt_threshold_ms: 5.0,
            hdratio_threshold: 0.05,
            read_buffer_bytes: 1 << 16,
            idle_timeout_ms: 0,
            write_timeout_ms: 0,
            max_connections: 0,
            max_worker_respawns: 8,
            spill_fail_threshold: 3,
            chaos: crate::ChaosPlan::default(),
        }
    }
}

impl LiveConfig {
    /// Reject configurations the server cannot run with.
    pub fn validate(&self) -> Result<(), EdgeperfError> {
        fn bad(field: &'static str, message: String) -> Result<(), EdgeperfError> {
            Err(EdgeperfError::InvalidConfig { field, message })
        }
        if self.workers == 0 {
            return bad("workers", "must be positive, got 0".to_string());
        }
        // NaN fails both checks: `is_nan` is spelled out so the negated
        // float comparisons don't hide it.
        if self.window_ms.is_nan() || self.window_ms <= 0.0 {
            return bad("window_ms", format!("must be positive, got {}", self.window_ms));
        }
        if self.lateness_ms.is_nan() || self.lateness_ms < 0.0 {
            return bad("lateness_ms", format!("must be non-negative, got {}", self.lateness_ms));
        }
        if self.queue_capacity == 0 {
            return bad("queue_capacity", "must be positive, got 0".to_string());
        }
        if self.retention_windows == 0 {
            return bad("retention_windows", "must be positive, got 0".to_string());
        }
        if self.read_buffer_bytes == 0 {
            return bad("read_buffer_bytes", "must be positive, got 0".to_string());
        }
        if self.spill_dir.as_ref().is_some_and(|d| d.as_os_str().is_empty()) {
            return bad("spill_dir", "must not be an empty path".to_string());
        }
        if self.compact_min_segments < 2 {
            return bad(
                "compact_min_segments",
                format!("must be at least 2, got {}", self.compact_min_segments),
            );
        }
        if self.compact_batch < 2 {
            return bad("compact_batch", format!("must be at least 2, got {}", self.compact_batch));
        }
        if self.spill_fail_threshold == 0 {
            return bad("spill_fail_threshold", "must be positive, got 0".to_string());
        }
        self.analysis.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate_and_match_paper_window() {
        let c = LiveConfig::default();
        c.validate().expect("defaults are valid");
        assert_eq!(c.window_ms, 15.0 * 60.0 * 1000.0);
        assert_eq!(c.analysis.min_samples, 30);
        assert!(c.spill_dir.is_none(), "spilling is opt-in");
        assert!(c.chaos.is_empty(), "fault injection is opt-in");
        assert_eq!(c.idle_timeout_ms, 0, "deadlines are opt-in");
        assert_eq!(c.max_connections, 0, "connection cap is opt-in");
    }

    #[test]
    fn bad_parameters_are_rejected_with_field_context() {
        type Case = (fn(&mut LiveConfig), &'static str);
        let cases: Vec<Case> = vec![
            (|c| c.workers = 0, "workers"),
            (|c| c.window_ms = 0.0, "window_ms"),
            (|c| c.window_ms = f64::NAN, "window_ms"),
            (|c| c.lateness_ms = -1.0, "lateness_ms"),
            (|c| c.queue_capacity = 0, "queue_capacity"),
            (|c| c.retention_windows = 0, "retention_windows"),
            (|c| c.read_buffer_bytes = 0, "read_buffer_bytes"),
            (|c| c.spill_dir = Some(PathBuf::new()), "spill_dir"),
            (|c| c.compact_min_segments = 1, "compact_min_segments"),
            (|c| c.compact_batch = 0, "compact_batch"),
            (|c| c.spill_fail_threshold = 0, "spill_fail_threshold"),
        ];
        for (mutate, field) in cases {
            let mut c = LiveConfig::default();
            mutate(&mut c);
            match c.validate().expect_err(field) {
                EdgeperfError::InvalidConfig { field: f, .. } => assert_eq!(f, field),
                other => panic!("unexpected error for {field}: {other}"),
            }
        }
    }
}
