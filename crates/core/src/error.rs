//! Typed errors for the edgeperf API surface.
//!
//! Replaces the `Result<_, String>` plumbing that ingestion and analysis
//! configuration grew organically. Every variant keeps the context a
//! caller needs programmatically (field name, offending value, line
//! number) while `Display` reproduces the exact message text the CLI has
//! always printed, so scripts parsing stderr keep working.

use std::fmt;

/// Any error the edgeperf pipeline surfaces to callers.
#[derive(Debug, Clone, PartialEq)]
pub enum EdgeperfError {
    /// A numeric field held NaN or ±∞.
    NonFinite {
        /// Dotted path of the offending field (e.g. `responses[2].first_tx_ms`).
        field: String,
        /// The rejected value.
        value: f64,
    },
    /// A timestamp field was negative.
    NegativeTimestamp {
        /// Dotted path of the offending field.
        field: String,
        /// The rejected value.
        value: f64,
    },
    /// `min_rtt_ms` was negative or non-finite.
    InvalidMinRtt {
        /// The rejected value.
        value: f64,
    },
    /// Neither `duration_ms` nor any `full_ack_ms` was present, so the
    /// session span cannot be established.
    UnknownDuration,
    /// A JSONL line failed to parse at all.
    Json {
        /// The parser's message.
        message: String,
    },
    /// A live-ingest record arrived behind the stream watermark: its
    /// window had already been closed and summarized, so the record can
    /// no longer be folded in. Counted under `ingest.reject.late`.
    LateRecord {
        /// The record's event timestamp (ms).
        ts_ms: f64,
        /// The watermark at rejection time (ms).
        watermark_ms: f64,
    },
    /// A live-ingest timestamp maps to a window index beyond the ring's
    /// `u32` index space (`floor(ts / window) > u32::MAX`). The old code
    /// saturated the cast, silently collapsing every far-future record
    /// into one never-closing window; now the record is rejected at the
    /// point of ingest. Counted under `ingest.reject.window_overflow`.
    WindowOverflow {
        /// The record's event timestamp (ms).
        ts_ms: f64,
        /// The ring's window length (ms).
        window_ms: f64,
    },
    /// A cell would hold more sessions than the `u32` count its row
    /// keeps: the live ring refuses the record that would take a cell past
    /// `u32::MAX` (counted under `ingest.reject.cell_overflow`), and a
    /// summary of more is no row.
    CellOverflow {
        /// The sessions the cell would hold.
        sessions: u64,
    },
    /// A record's client prefix length was above 32. Counted under
    /// `ingest.reject.invalid_prefix_len` on either wire.
    InvalidPrefixLen {
        /// The rejected length.
        len: u8,
    },
    /// A binary wire frame could not be decoded (bad preamble, short
    /// length prefix, or invalid packed fields). Unlike per-line JSONL
    /// errors there is no way to resynchronize a corrupt binary stream,
    /// so the connection is closed after counting the reject.
    Frame {
        /// What was wrong with the frame.
        message: String,
    },
    /// An on-disk window segment failed validation (bad magic or
    /// version, truncation, checksum mismatch, invalid packed fields).
    /// Segments are written atomically, so this indicates external
    /// corruption — the store surfaces it instead of serving bad cells.
    Segment {
        /// What was wrong with the segment.
        message: String,
    },
    /// An [`AnalysisConfig`]-style parameter was out of range.
    ///
    /// [`AnalysisConfig`]: https://docs.rs/edgeperf-analysis
    InvalidConfig {
        /// The parameter name.
        field: &'static str,
        /// Why it was rejected.
        message: String,
    },
    /// A live-server reader panicked while parsing or decoding this record,
    /// which counts as consumed. Counted under `ingest.reject.reader_panic`.
    ReaderPanic,
    /// An OS thread could not be spawned (EMFILE / thread exhaustion).
    /// The live server refuses the work that needed the thread instead
    /// of panicking: a failed reader spawn drops that one connection
    /// while the acceptor keeps accepting.
    Spawn {
        /// What the thread was for (`"worker"`, `"reader"`, ...).
        what: &'static str,
        /// The OS error message.
        message: String,
    },
}

impl EdgeperfError {
    /// Stable, low-cardinality label for metrics (`ingest.reject.<reason>`).
    pub fn reason(&self) -> &'static str {
        match self {
            EdgeperfError::NonFinite { .. } => "non_finite",
            EdgeperfError::NegativeTimestamp { .. } => "negative_timestamp",
            EdgeperfError::InvalidMinRtt { .. } => "invalid_min_rtt",
            EdgeperfError::UnknownDuration => "unknown_duration",
            EdgeperfError::Json { .. } => "json",
            EdgeperfError::LateRecord { .. } => "late",
            EdgeperfError::WindowOverflow { .. } => "window_overflow",
            EdgeperfError::CellOverflow { .. } => "cell_overflow",
            EdgeperfError::InvalidPrefixLen { .. } => "invalid_prefix_len",
            EdgeperfError::Frame { .. } => "frame",
            EdgeperfError::Segment { .. } => "segment",
            EdgeperfError::InvalidConfig { .. } => "invalid_config",
            EdgeperfError::ReaderPanic => "reader_panic",
            EdgeperfError::Spawn { .. } => "spawn",
        }
    }
}

impl fmt::Display for EdgeperfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EdgeperfError::NonFinite { field, value } => {
                write!(f, "{field}: non-finite value {value}")
            }
            EdgeperfError::NegativeTimestamp { field, value } => {
                write!(f, "{field}: negative timestamp {value}")
            }
            EdgeperfError::InvalidMinRtt { value } => {
                write!(f, "min_rtt_ms: invalid value {value}")
            }
            EdgeperfError::UnknownDuration => write!(
                f,
                "cannot determine session duration: duration_ms absent and no response has \
                 full_ack_ms"
            ),
            EdgeperfError::Json { message } => write!(f, "{message}"),
            EdgeperfError::LateRecord { ts_ms, watermark_ms } => {
                write!(f, "ts_ms {ts_ms} is behind the watermark {watermark_ms}")
            }
            EdgeperfError::WindowOverflow { ts_ms, window_ms } => {
                write!(
                    f,
                    "ts_ms {ts_ms} maps past the window-index horizon ({window_ms} ms windows)"
                )
            }
            EdgeperfError::CellOverflow { sessions } => {
                write!(f, "a cell of {sessions} sessions passes the u32 count a row keeps")
            }
            EdgeperfError::InvalidPrefixLen { len } => {
                write!(f, "prefix_len: {len} exceeds 32")
            }
            EdgeperfError::Frame { message } => write!(f, "binary frame: {message}"),
            EdgeperfError::Segment { message } => write!(f, "window segment: {message}"),
            EdgeperfError::InvalidConfig { field, message } => {
                write!(f, "invalid config: {field}: {message}")
            }
            EdgeperfError::ReaderPanic => write!(f, "reader panicked on this record"),
            EdgeperfError::Spawn { what, message } => {
                write!(f, "spawn {what} thread: {message}")
            }
        }
    }
}

impl std::error::Error for EdgeperfError {}

/// An [`EdgeperfError`] pinned to a 1-based JSONL line number.
#[derive(Debug, Clone, PartialEq)]
pub struct LineError {
    /// 1-based line number in the input.
    pub line: usize,
    /// What went wrong on that line.
    pub error: EdgeperfError,
}

impl fmt::Display for LineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.error)
    }
}

impl std::error::Error for LineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The CLI prints these messages to stderr; they are part of the
    /// observable interface and must not drift when variants change.
    #[test]
    fn display_is_compatible_with_the_string_era() {
        let cases: Vec<(EdgeperfError, &str)> = vec![
            (
                EdgeperfError::NonFinite {
                    field: "responses[0].issued_at_ms".into(),
                    value: f64::INFINITY,
                },
                "responses[0].issued_at_ms: non-finite value inf",
            ),
            (
                EdgeperfError::NegativeTimestamp { field: "duration_ms".into(), value: -3.0 },
                "duration_ms: negative timestamp -3",
            ),
            (EdgeperfError::InvalidMinRtt { value: -1.0 }, "min_rtt_ms: invalid value -1"),
            (
                EdgeperfError::UnknownDuration,
                "cannot determine session duration: duration_ms absent and no response has \
                 full_ack_ms",
            ),
            (
                EdgeperfError::Json { message: "expected value at line 1".into() },
                "expected value at line 1",
            ),
            (
                EdgeperfError::LateRecord { ts_ms: 1000.0, watermark_ms: 2500.0 },
                "ts_ms 1000 is behind the watermark 2500",
            ),
            (
                EdgeperfError::WindowOverflow { ts_ms: 4.0e15, window_ms: 900000.0 },
                "ts_ms 4000000000000000 maps past the window-index horizon (900000 ms windows)",
            ),
            (
                EdgeperfError::CellOverflow { sessions: 1 << 32 },
                "a cell of 4294967296 sessions passes the u32 count a row keeps",
            ),
            (
                EdgeperfError::Frame { message: "length prefix 3 below minimum 44".into() },
                "binary frame: length prefix 3 below minimum 44",
            ),
            (
                EdgeperfError::Segment { message: "checksum mismatch".into() },
                "window segment: checksum mismatch",
            ),
            (EdgeperfError::ReaderPanic, "reader panicked on this record"),
            (
                EdgeperfError::Spawn { what: "reader", message: "Resource exhausted".into() },
                "spawn reader thread: Resource exhausted",
            ),
        ];
        for (err, expected) in cases {
            assert_eq!(err.to_string(), expected);
        }
        let le = LineError { line: 7, error: EdgeperfError::UnknownDuration };
        assert!(le.to_string().starts_with("line 7: cannot determine"));
    }

    #[test]
    fn reasons_are_stable_metric_labels() {
        assert_eq!(EdgeperfError::UnknownDuration.reason(), "unknown_duration");
        assert_eq!(EdgeperfError::Json { message: String::new() }.reason(), "json");
        assert_eq!(
            EdgeperfError::NegativeTimestamp { field: "t".into(), value: -1.0 }.reason(),
            "negative_timestamp"
        );
        assert_eq!(EdgeperfError::LateRecord { ts_ms: 0.0, watermark_ms: 1.0 }.reason(), "late");
        assert_eq!(
            EdgeperfError::WindowOverflow { ts_ms: 0.0, window_ms: 1.0 }.reason(),
            "window_overflow"
        );
        assert_eq!(EdgeperfError::CellOverflow { sessions: 0 }.reason(), "cell_overflow");
        assert_eq!(EdgeperfError::Frame { message: String::new() }.reason(), "frame");
        assert_eq!(EdgeperfError::ReaderPanic.reason(), "reader_panic");
        assert_eq!(EdgeperfError::Segment { message: String::new() }.reason(), "segment");
        assert_eq!(
            EdgeperfError::Spawn { what: "worker", message: String::new() }.reason(),
            "spawn"
        );
    }
}
