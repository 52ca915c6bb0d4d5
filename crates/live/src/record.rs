//! The live ingest record and the pluggable wire parser.

use edgeperf_analysis::GroupKey;
use edgeperf_core::EdgeperfError;
use edgeperf_routing::{Prefix, Relationship};

/// One measured session arriving over the wire: a
/// [`edgeperf_analysis::SessionRecord`] plus the event timestamp the
/// window assignment is derived from (the offline pipeline assigns
/// window indices up front; the live server derives them from time).
#[derive(Debug, Clone, Copy)]
pub struct LiveRecord {
    /// Event time in milliseconds since the stream epoch.
    pub ts_ms: f64,
    /// The user group the session belongs to.
    pub group: GroupKey,
    /// Rank of the pinned egress route (0 = policy-preferred).
    pub route_rank: u8,
    /// Relationship type of the pinned route.
    pub relationship: Relationship,
    /// The pinned route's AS path is longer than the preferred route's.
    pub longer_path: bool,
    /// The pinned route is prepended more than the preferred route.
    pub more_prepended: bool,
    /// Session MinRTT in milliseconds.
    pub min_rtt_ms: f64,
    /// Session HDratio, if any transaction could test for HD goodput.
    pub hdratio: Option<f64>,
    /// Response bytes carried (the session's traffic weight).
    pub bytes: u64,
}

/// The rule a session's measurements meet before they reach a cell: a
/// MinRTT that is non-finite or negative is
/// [`EdgeperfError::InvalidMinRtt`], a non-finite HDratio
/// [`EdgeperfError::NonFinite`]. The frame decoder applies it to what the
/// wire carries, [`crate::WindowRing::push`] to whatever a caller hands it.
#[inline]
pub(crate) fn check_measurements(
    min_rtt_ms: f64,
    hdratio: Option<f64>,
) -> Result<(), EdgeperfError> {
    // One test on the path every record takes (NaN lies in no range);
    // the error is built out of line.
    let min_rtt_ok = (0.0..f64::INFINITY).contains(&min_rtt_ms);
    if min_rtt_ok && hdratio.is_none_or(f64::is_finite) {
        return Ok(());
    }
    Err(measurement_error(min_rtt_ok, min_rtt_ms, hdratio))
}

#[cold]
fn measurement_error(min_rtt_ok: bool, min_rtt_ms: f64, hdratio: Option<f64>) -> EdgeperfError {
    match hdratio {
        Some(h) if min_rtt_ok => EdgeperfError::NonFinite { field: "hdratio".into(), value: h },
        _ => EdgeperfError::InvalidMinRtt { value: min_rtt_ms },
    }
}

/// Parses one wire line into a [`LiveRecord`].
///
/// The server is generic over the wire format so the crate graph stays
/// acyclic: the umbrella `edgeperf` crate implements this trait on top of
/// its `ingest` module (typed-error JSONL parsing + the core estimator)
/// and injects it into [`crate::LiveServer`].
pub trait LineParser: Send + Sync + 'static {
    /// Parse a line; errors are counted under `ingest.reject.<reason>`.
    fn parse(&self, line: &str) -> Result<LiveRecord, EdgeperfError>;
}

impl<F> LineParser for F
where
    F: Fn(&str) -> Result<LiveRecord, EdgeperfError> + Send + Sync + 'static,
{
    fn parse(&self, line: &str) -> Result<LiveRecord, EdgeperfError> {
        self(line)
    }
}

/// The client prefix a record names, as either wire carries it: a length
/// above 32 is [`EdgeperfError::InvalidPrefixLen`], where `Prefix::new`
/// would panic. Both wire decoders call it.
pub fn prefix_from_wire(base: u32, len: u8) -> Result<Prefix, EdgeperfError> {
    if len > 32 {
        return Err(EdgeperfError::InvalidPrefixLen { len });
    }
    Ok(Prefix::new(base, len))
}

/// Parse a relationship label as produced by [`Relationship::label`].
pub fn relationship_from_label(s: &str) -> Result<Relationship, EdgeperfError> {
    match s {
        "private" => Ok(Relationship::PrivatePeer),
        "public" => Ok(Relationship::PublicPeer),
        "transit" => Ok(Relationship::Transit),
        other => Err(EdgeperfError::Json { message: format!("unknown relationship `{other}`") }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relationship_labels_round_trip() {
        for rel in [Relationship::PrivatePeer, Relationship::PublicPeer, Relationship::Transit] {
            assert_eq!(relationship_from_label(rel.label()).unwrap(), rel);
        }
        assert!(relationship_from_label("imaginary").is_err());
    }

    #[test]
    fn closures_are_parsers() {
        let parser = |_: &str| Err(EdgeperfError::UnknownDuration);
        assert!(LineParser::parse(&parser, "x").is_err());
    }
}
