//! `live::detect`: what a worker pays per closed window to fold it into
//! the online degradation detector.

use crate::child::SERVE_RETENTION;
use crate::trace::{Open, Tracer};
use edgeperf::analysis::AnalysisConfig;
use edgeperf::live::{ClosedWindow, LiveConfig, OnlineDetector};

pub const SPAN: &str = "live.detect.observe";

/// A detector configured as `edgeperf serve` configures each worker's.
pub fn detector() -> OnlineDetector {
    let defaults = LiveConfig::default();
    OnlineDetector::new(
        AnalysisConfig::default(),
        defaults.minrtt_threshold_ms,
        defaults.hdratio_threshold,
        SERVE_RETENTION,
    )
}

/// [`OnlineDetector::observe`] under a span.
pub fn observe(
    detector: &mut OnlineDetector,
    window: &ClosedWindow,
    tracer: &mut Tracer,
    name: u16,
    parent: Open,
) {
    let span = tracer.begin(name, parent, u64::from(window.index));
    std::hint::black_box(detector.observe(window));
    tracer.end(span);
}
