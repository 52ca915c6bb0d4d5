//! JSON ingestion for the `edgeperf` CLI: turn externally captured
//! socket statistics into [`edgeperf_core`] observations and verdicts.
//!
//! The wire format is one JSON object per line (JSONL), one line per HTTP
//! session. Times are in **milliseconds** relative to any epoch (only
//! differences matter); `wnic` is in bytes. A deployment would populate
//! these fields from `getsockopt(TCP_INFO)` plus socket/NIC timestamps —
//! see the paper's §2.2.2.
//!
//! ```json
//! {"min_rtt_ms": 42.0, "responses": [
//!   {"bytes": 36000, "issued_at_ms": 0.0, "first_tx_ms": 0.2,
//!    "wnic": 14600, "second_last_ack_ms": 135.0, "full_ack_ms": 140.0,
//!    "last_packet_bytes": 1240, "bytes_in_flight_at_write": 0,
//!    "prev_unsent_at_write": false}
//! ]}
//! ```

use edgeperf_core::{
    session_hdratio, EdgeperfError, HttpVersion, LineError, ResponseObs, SessionObs, MILLISECOND,
};
use edgeperf_obs::Metrics;
use serde::{Deserialize, Serialize};

/// One response as captured by external instrumentation.
#[derive(Debug, Clone, Deserialize, Serialize)]
pub struct ResponseIn {
    /// Response size in bytes.
    pub bytes: u64,
    /// When the application wrote the response (ms).
    pub issued_at_ms: f64,
    /// When the first byte reached the NIC (ms); absent if it never did.
    #[serde(default)]
    pub first_tx_ms: Option<f64>,
    /// Congestion window (bytes) at first transmission.
    #[serde(default)]
    pub wnic: Option<u32>,
    /// Arrival of the ACK covering the second-to-last packet (ms).
    #[serde(default)]
    pub second_last_ack_ms: Option<f64>,
    /// Arrival of the ACK covering the whole response (ms).
    #[serde(default)]
    pub full_ack_ms: Option<f64>,
    /// Size of the final packet in bytes.
    #[serde(default)]
    pub last_packet_bytes: Option<u32>,
    /// Bytes still unacknowledged when the write was issued.
    #[serde(default)]
    pub bytes_in_flight_at_write: u64,
    /// A previous response still had unsent bytes at this write.
    #[serde(default)]
    pub prev_unsent_at_write: bool,
}

/// One session line in the input.
#[derive(Debug, Clone, Deserialize, Serialize)]
pub struct SessionIn {
    /// Kernel MinRTT at session close, milliseconds.
    pub min_rtt_ms: f64,
    /// Responses in write order.
    pub responses: Vec<ResponseIn>,
    /// "h1" or "h2" (defaults to h2).
    #[serde(default)]
    pub http: Option<String>,
    /// Session duration in milliseconds (defaults to the measurement span).
    #[serde(default)]
    pub duration_ms: Option<f64>,
}

/// Verdict emitted per session.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VerdictOut {
    /// Session MinRTT echoed back, ms.
    pub min_rtt_ms: f64,
    /// Transactions able to test the target goodput.
    pub tested: u32,
    /// Of those, transactions that achieved it.
    pub achieved: u32,
    /// HDratio, if anything tested.
    pub hdratio: Option<f64>,
}

/// Convert a millisecond timestamp to internal ticks, rejecting values a
/// sane capture can never produce. Clamping negatives to zero (the old
/// behavior) silently reordered events and corrupted downstream goodput
/// estimates; bad telemetry must surface as a per-line error instead.
fn ms(v: f64, field: &str) -> Result<u64, EdgeperfError> {
    if !v.is_finite() {
        return Err(EdgeperfError::NonFinite { field: field.to_string(), value: v });
    }
    if v < 0.0 {
        return Err(EdgeperfError::NegativeTimestamp { field: field.to_string(), value: v });
    }
    Ok((v * MILLISECOND as f64) as u64)
}

impl SessionIn {
    /// Convert to the core observation type.
    ///
    /// Fails when any timestamp is negative or non-finite, or when the
    /// session duration cannot be determined (`duration_ms` absent and no
    /// response carries `full_ack_ms`) — previously such sessions were
    /// given duration 0, which made every transaction look infinitely
    /// fast to rate-based checks.
    pub fn to_obs(&self) -> Result<SessionObs, EdgeperfError> {
        let responses = self
            .responses
            .iter()
            .enumerate()
            .map(|(i, r)| {
                Ok(ResponseObs {
                    bytes: r.bytes,
                    issued_at: ms(r.issued_at_ms, &format!("responses[{i}].issued_at_ms"))?,
                    first_tx: r
                        .first_tx_ms
                        .map(|t| {
                            Ok::<_, EdgeperfError>((
                                ms(t, &format!("responses[{i}].first_tx_ms"))?,
                                r.wnic.unwrap_or(0),
                            ))
                        })
                        .transpose()?,
                    t_second_last_ack: r
                        .second_last_ack_ms
                        .map(|t| ms(t, &format!("responses[{i}].second_last_ack_ms")))
                        .transpose()?,
                    t_full_ack: r
                        .full_ack_ms
                        .map(|t| ms(t, &format!("responses[{i}].full_ack_ms")))
                        .transpose()?,
                    last_packet_bytes: r.last_packet_bytes,
                    bytes_in_flight_at_write: r.bytes_in_flight_at_write,
                    prev_unsent_at_write: r.prev_unsent_at_write,
                })
            })
            .collect::<Result<Vec<_>, EdgeperfError>>()?;
        if !self.min_rtt_ms.is_finite() || self.min_rtt_ms < 0.0 {
            return Err(EdgeperfError::InvalidMinRtt { value: self.min_rtt_ms });
        }
        let duration_ms = match self.duration_ms {
            Some(d) => d,
            None => {
                let span = self
                    .responses
                    .iter()
                    .filter_map(|r| r.full_ack_ms)
                    .fold(f64::NEG_INFINITY, f64::max);
                if span.is_finite() {
                    span
                } else {
                    return Err(EdgeperfError::UnknownDuration);
                }
            }
        };
        Ok(SessionObs {
            responses,
            min_rtt: (self.min_rtt_ms > 0.0)
                .then(|| ms(self.min_rtt_ms, "min_rtt_ms"))
                .transpose()?,
            http: match self.http.as_deref() {
                Some("h1") | Some("http/1.1") => HttpVersion::H1,
                _ => HttpVersion::H2,
            },
            duration: ms(duration_ms, "duration_ms")?,
        })
    }

    /// Evaluate the session at `target_bps`.
    pub fn evaluate(&self, target_bps: f64) -> Result<VerdictOut, EdgeperfError> {
        let obs = self.to_obs()?;
        Ok(match session_hdratio(&obs, target_bps) {
            Some(v) => VerdictOut {
                min_rtt_ms: self.min_rtt_ms,
                tested: v.tested,
                achieved: v.achieved,
                hdratio: v.hdratio(),
            },
            None => {
                VerdictOut { min_rtt_ms: self.min_rtt_ms, tested: 0, achieved: 0, hdratio: None }
            }
        })
    }
}

/// One evaluated input line: a verdict, or the typed per-line error.
pub(crate) type LineResult = Result<VerdictOut, LineError>;

/// Evaluate a stream of JSONL sessions; invalid lines yield [`LineError`]
/// entries carrying the 1-based line number and a typed cause.
pub fn evaluate_jsonl(input: &str, target_bps: f64) -> Vec<LineResult> {
    evaluate_jsonl_observed(input, target_bps, &Metrics::disabled())
}

/// [`evaluate_jsonl`] with parse accounting: counts every evaluated line
/// into `ingest.lines` and each reject into `ingest.reject.<reason>`
/// (reasons from [`EdgeperfError::reason`]).
pub fn evaluate_jsonl_observed(input: &str, target_bps: f64, metrics: &Metrics) -> Vec<LineResult> {
    let lines = metrics.counter("ingest.lines");
    input
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, line)| {
            lines.inc();
            serde_json::from_str::<SessionIn>(line)
                .map_err(|e| EdgeperfError::Json { message: e.to_string() })
                .and_then(|s| s.evaluate(target_bps))
                .map_err(|error| {
                    metrics.counter(&format!("ingest.reject.{}", error.reason())).inc();
                    LineError { line: i + 1, error }
                })
        })
        .collect()
}

/// Render one quarantine-sidecar entry for a rejected input line: the
/// 1-based line number, the typed reason (stable, machine-matchable),
/// the human-readable error, and the offending raw line — everything
/// needed to replay or triage the reject without the original file.
pub(crate) fn quarantine_line(raw: &str, err: &LineError) -> String {
    let v = serde_json::Value::Object(vec![
        ("line".to_string(), serde_json::Value::Num(err.line as f64)),
        ("reason".to_string(), serde_json::Value::Str(err.error.reason().to_string())),
        ("error".to_string(), serde_json::Value::Str(err.error.to_string())),
        ("raw".to_string(), serde_json::Value::Str(raw.to_string())),
    ]);
    serde_json::to_string(&v).expect("quarantine entry serializes")
}

/// Build the quarantine sidecar (JSONL, one entry per rejected line) for
/// an already-evaluated input. Returns `None` when nothing was rejected.
pub fn quarantine_jsonl(input: &str, results: &[LineResult]) -> Option<String> {
    let lines: Vec<&str> = input.lines().collect();
    let mut out = String::new();
    for err in results.iter().filter_map(|r| r.as_ref().err()) {
        let raw = lines.get(err.line.saturating_sub(1)).copied().unwrap_or("");
        out.push_str(&quarantine_line(raw, err));
        out.push('\n');
    }
    (!out.is_empty()).then_some(out)
}

/// A sample input line (used by `edgeperf demo` and the docs).
pub fn sample_line() -> String {
    let s = SessionIn {
        min_rtt_ms: 60.0,
        http: Some("h2".into()),
        duration_ms: Some(12_000.0),
        responses: vec![ResponseIn {
            bytes: 36_000,
            issued_at_ms: 0.0,
            first_tx_ms: Some(0.2),
            wnic: Some(14_600),
            second_last_ack_ms: Some(135.0),
            full_ack_ms: Some(140.0),
            last_packet_bytes: Some(1_240),
            bytes_in_flight_at_write: 0,
            prev_unsent_at_write: false,
        }],
    };
    serde_json::to_string(&s).expect("sample serializes")
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgeperf_core::HD_GOODPUT_BPS;

    #[test]
    fn sample_line_round_trips_and_achieves_hd() {
        let line = sample_line();
        let out = evaluate_jsonl(&line, HD_GOODPUT_BPS);
        assert_eq!(out.len(), 1);
        let v = out[0].as_ref().expect("valid sample");
        assert_eq!(v.tested, 1);
        assert_eq!(v.achieved, 1);
        assert_eq!(v.hdratio, Some(1.0));
    }

    #[test]
    fn slow_session_fails_hd() {
        let mut s: SessionIn = serde_json::from_str(&sample_line()).unwrap();
        s.responses[0].second_last_ack_ms = Some(900.0); // took forever
        let v = s.evaluate(HD_GOODPUT_BPS).unwrap();
        assert_eq!(v.tested, 1);
        assert_eq!(v.achieved, 0);
    }

    #[test]
    fn tiny_session_tests_nothing() {
        let mut s: SessionIn = serde_json::from_str(&sample_line()).unwrap();
        s.responses[0].bytes = 2_000;
        s.responses[0].last_packet_bytes = Some(540);
        let v = s.evaluate(HD_GOODPUT_BPS).unwrap();
        assert_eq!(v.tested, 0);
        assert_eq!(v.hdratio, None);
    }

    #[test]
    fn malformed_lines_are_reported_with_line_numbers() {
        let input = format!("{}\nnot json\n\n{}", sample_line(), sample_line());
        let out = evaluate_jsonl(&input, HD_GOODPUT_BPS);
        assert_eq!(out.len(), 3); // blank line skipped
        assert!(out[0].is_ok());
        let err = out[1].as_ref().unwrap_err();
        assert_eq!(err.line, 2);
        assert_eq!(err.error.reason(), "json");
        assert!(out[2].is_ok());
    }

    #[test]
    fn missing_optionals_default_sanely() {
        // With an explicit duration, absent per-response fields are fine:
        // the session parses but nothing is measurable.
        let line = r#"{"min_rtt_ms": 30.0, "duration_ms": 1000.0, "responses": [{"bytes": 5000, "issued_at_ms": 0.0}]}"#;
        let out = evaluate_jsonl(line, HD_GOODPUT_BPS);
        let v = out[0].as_ref().unwrap();
        // No transmission endpoints → nothing measurable.
        assert_eq!(v.tested, 0);
    }

    #[test]
    fn undeterminable_duration_is_rejected() {
        // No duration_ms and no full_ack_ms anywhere: the old code
        // defaulted the duration to 0; now it is a per-line error.
        let line = r#"{"min_rtt_ms": 30.0, "responses": [{"bytes": 5000, "issued_at_ms": 0.0}]}"#;
        let out = evaluate_jsonl(line, HD_GOODPUT_BPS);
        let err = out[0].as_ref().unwrap_err();
        assert_eq!(err.line, 1);
        assert_eq!(err.error, EdgeperfError::UnknownDuration);
        assert!(err.to_string().contains("duration"), "unexpected message: {err}");
    }

    #[test]
    fn negative_timestamps_are_rejected() {
        let mut s: SessionIn = serde_json::from_str(&sample_line()).unwrap();
        s.responses[0].issued_at_ms = -3.0;
        let err = s.evaluate(HD_GOODPUT_BPS).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("issued_at_ms") && msg.contains("negative"),
            "unexpected message: {msg}"
        );
        assert_eq!(err.reason(), "negative_timestamp");

        let mut s: SessionIn = serde_json::from_str(&sample_line()).unwrap();
        s.responses[0].full_ack_ms = Some(-0.5);
        let err = s.evaluate(HD_GOODPUT_BPS).unwrap_err();
        assert!(err.to_string().contains("full_ack_ms"), "unexpected message: {err}");

        let mut s: SessionIn = serde_json::from_str(&sample_line()).unwrap();
        s.min_rtt_ms = -1.0;
        assert!(s.evaluate(HD_GOODPUT_BPS).is_err());

        let mut s: SessionIn = serde_json::from_str(&sample_line()).unwrap();
        s.duration_ms = Some(-10.0);
        assert!(s.evaluate(HD_GOODPUT_BPS).is_err());
    }

    #[test]
    fn rejected_lines_carry_line_numbers() {
        let bad = r#"{"min_rtt_ms": 30.0, "responses": [{"bytes": 1, "issued_at_ms": -1.0}]}"#;
        let input = format!("{}\n{bad}", sample_line());
        let out = evaluate_jsonl(&input, HD_GOODPUT_BPS);
        assert!(out[0].is_ok());
        let err = out[1].as_ref().unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("negative"), "unexpected message: {err}");
    }

    /// CLI stderr messages are part of the observable interface: the typed
    /// errors must render exactly what the `String` era rendered.
    #[test]
    fn typed_errors_render_legacy_messages() {
        let mut s: SessionIn = serde_json::from_str(&sample_line()).unwrap();
        s.responses[0].issued_at_ms = -3.0;
        assert_eq!(
            s.evaluate(HD_GOODPUT_BPS).unwrap_err().to_string(),
            "responses[0].issued_at_ms: negative timestamp -3"
        );

        let mut s: SessionIn = serde_json::from_str(&sample_line()).unwrap();
        s.min_rtt_ms = -1.0;
        assert_eq!(
            s.evaluate(HD_GOODPUT_BPS).unwrap_err().to_string(),
            "min_rtt_ms: invalid value -1"
        );

        let mut s: SessionIn = serde_json::from_str(&sample_line()).unwrap();
        s.responses[0].first_tx_ms = Some(f64::NAN);
        assert_eq!(
            s.evaluate(HD_GOODPUT_BPS).unwrap_err().to_string(),
            "responses[0].first_tx_ms: non-finite value NaN"
        );
    }

    #[test]
    fn observed_ingest_counts_rejects_by_reason() {
        let metrics = Metrics::enabled();
        let bad_ts = r#"{"min_rtt_ms": 30.0, "responses": [{"bytes": 1, "issued_at_ms": -1.0}]}"#;
        let no_dur = r#"{"min_rtt_ms": 30.0, "responses": [{"bytes": 5, "issued_at_ms": 0.0}]}"#;
        let input = format!("{}\nnot json\n{bad_ts}\n{no_dur}", sample_line());
        let out = evaluate_jsonl_observed(&input, HD_GOODPUT_BPS, &metrics);
        assert_eq!(out.len(), 4);
        let snap = metrics.snapshot();
        assert_eq!(snap.counters["ingest.lines"], 4);
        assert_eq!(snap.counters["ingest.reject.json"], 1);
        assert_eq!(snap.counters["ingest.reject.negative_timestamp"], 1);
        assert_eq!(snap.counters["ingest.reject.unknown_duration"], 1);
    }

    #[test]
    fn quarantine_sidecar_carries_raw_lines_and_reasons() {
        let bad_ts = r#"{"min_rtt_ms": 30.0, "responses": [{"bytes": 1, "issued_at_ms": -1.0}]}"#;
        let input = format!("{}\nnot json\n{bad_ts}", sample_line());
        let out = evaluate_jsonl(&input, HD_GOODPUT_BPS);
        let sidecar = quarantine_jsonl(&input, &out).expect("two rejects");
        let entries: Vec<serde_json::Value> =
            sidecar.lines().map(|l| serde_json::parse(l).expect("valid JSONL")).collect();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].get("line"), Some(&serde_json::Value::Num(2.0)));
        assert_eq!(entries[0].get("reason"), Some(&serde_json::Value::Str("json".to_string())));
        assert_eq!(entries[0].get("raw"), Some(&serde_json::Value::Str("not json".to_string())));
        assert_eq!(
            entries[1].get("reason"),
            Some(&serde_json::Value::Str("negative_timestamp".to_string()))
        );
        assert_eq!(entries[1].get("raw"), Some(&serde_json::Value::Str(bad_ts.to_string())));

        // Clean input → no sidecar at all.
        assert!(quarantine_jsonl(&sample_line(), &evaluate_jsonl(&sample_line(), HD_GOODPUT_BPS))
            .is_none());
    }

    #[test]
    fn http_version_parsing() {
        let mut s: SessionIn = serde_json::from_str(&sample_line()).unwrap();
        s.http = Some("h1".into());
        assert_eq!(s.to_obs().unwrap().http, HttpVersion::H1);
        s.http = None;
        assert_eq!(s.to_obs().unwrap().http, HttpVersion::H2);
    }

    #[test]
    fn zero_min_rtt_is_untestable_but_not_an_error() {
        let mut s: SessionIn = serde_json::from_str(&sample_line()).unwrap();
        s.min_rtt_ms = 0.0;
        let v = s.evaluate(HD_GOODPUT_BPS).unwrap();
        assert_eq!(v.tested, 0);
    }
}
