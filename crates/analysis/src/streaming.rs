//! Production-style streaming aggregation (paper §3.4.1, footnote 11).
//!
//! Traffic-engineering systems must compare route performance in near
//! real time; they cannot buffer every session. The paper points at
//! t-digests for exactly this. This module provides a bounded-memory
//! [`StreamingAggregation`] that mirrors the exact [`crate::dataset::Aggregation`]:
//! medians come from the digest, and the Price–Bonett order statistics are
//! approximated by digest quantiles at the same ranks, giving an on-line
//! approximation of the difference-of-medians CI.
//!
//! Tests quantify the approximation against the exact pipeline.

use edgeperf_stats::{median_variance_from_order_stats, order_stat_c, TDigest};

/// Bounded-memory aggregation of one (group, window, route) cell.
#[derive(Debug, Clone)]
pub struct StreamingAggregation {
    minrtt: TDigest,
    hdratio: TDigest,
    bytes: u64,
}

impl Default for StreamingAggregation {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamingAggregation {
    /// Empty aggregation (t-digest compression 100). It owns no heap until
    /// the first push; state then scales with content: 512 B at the
    /// paper's 30-session minimum, 2 KB at 80 sessions, and at most
    /// ~10 KB from 512 sessions on (two 4 KiB insert buffers plus 16 B a
    /// centroid, the lists trimmed at every compression), however many
    /// sessions follow. Once [`flush`](Self::flush)ed it holds its
    /// centroids only: under 2 KB.
    /// (The eager 512-slot buffers this replaced cost 16.4 KB from birth.)
    pub fn new() -> Self {
        StreamingAggregation { minrtt: TDigest::new(100.0), hdratio: TDigest::new(100.0), bytes: 0 }
    }

    /// Record one session's measurements.
    pub fn push(&mut self, min_rtt_ms: f64, hdratio: Option<f64>, bytes: u64) {
        self.minrtt.insert(min_rtt_ms);
        if let Some(h) = hdratio {
            self.hdratio.insert(h);
        }
        self.bytes += bytes;
    }

    /// Flush both digests: their insert buffers are compressed in and
    /// released, so the aggregation holds centroids only and subsequent
    /// queries are allocation-free. The streaming sink calls this when it
    /// seals the cell's group, the live tier at window close.
    pub fn flush(&mut self) {
        self.minrtt.flush();
        self.hdratio.flush();
    }

    /// MinRTT quantile estimate (exact at q = 0 and q = 1).
    pub fn min_rtt_quantile(&self, q: f64) -> f64 {
        self.minrtt.quantile(q)
    }

    /// HDratio quantile estimate, if any session tested.
    pub fn hdratio_quantile(&self, q: f64) -> Option<f64> {
        if self.hdratio.is_empty() {
            None
        } else {
            Some(self.hdratio.quantile(q))
        }
    }

    /// The underlying MinRTT digest (for rollups that merge across cells).
    pub(crate) fn minrtt_digest(&self) -> &TDigest {
        &self.minrtt
    }

    /// Centroids currently held across both digests — the aggregation's
    /// memory footprint, which stays bounded regardless of session count.
    pub fn state_centroids(&self) -> usize {
        let hd = if self.hdratio.is_empty() { 0 } else { self.hdratio.centroid_count() };
        self.minrtt.centroid_count() + hd
    }

    /// Digest compression passes run across both digests (see
    /// [`TDigest::compressions`]).
    pub fn compressions(&self) -> u64 {
        self.minrtt.compressions() + self.hdratio.compressions()
    }

    /// Sessions recorded.
    pub fn n(&self) -> usize {
        self.minrtt.count() as usize
    }

    /// Sessions with an HDratio.
    pub fn n_tested(&self) -> usize {
        self.hdratio.count() as usize
    }

    /// Traffic weight.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Median MinRTT (ms).
    pub fn min_rtt_p50(&self) -> f64 {
        self.minrtt.quantile(0.5)
    }

    /// Median HDratio, if any session tested.
    pub fn hdratio_p50(&self) -> Option<f64> {
        if self.hdratio.is_empty() {
            None
        } else {
            Some(self.hdratio.quantile(0.5))
        }
    }

    /// Approximate Price–Bonett variance of the MinRTT median: the exact
    /// method reads order statistics `y_c` and `y_{n−c+1}`; here they are
    /// approximated by digest quantiles at ranks `c/n` and `(n−c+1)/n`.
    pub(crate) fn min_rtt_median_variance(&self) -> Option<f64> {
        median_variance(&self.minrtt)
    }

    /// Approximate variance of the HDratio median.
    pub(crate) fn hdratio_median_variance(&self) -> Option<f64> {
        median_variance(&self.hdratio)
    }
}

fn median_variance(d: &TDigest) -> Option<f64> {
    let n = d.count() as usize;
    if n < 5 {
        return None;
    }
    // Same ranks as the exact pipeline (edgeperf_stats::order_stat_c),
    // read from the digest instead of the sorted sample; the variance
    // inversion itself is the shared implementation in edgeperf-stats.
    let c = order_stat_c(n);
    let y_lo = d.quantile((c as f64 - 0.5) / n as f64);
    let y_hi = d.quantile((n as f64 - c as f64 + 0.5) / n as f64);
    Some(median_variance_from_order_stats(n, y_lo, y_hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::{compare, CompareOutcome};
    use crate::config::AnalysisConfig;
    use crate::dataset::{Aggregation, CellSummary};
    use crate::degradation::DegradationMetric::MinRtt;
    use crate::sink::StreamingCell;
    use edgeperf_routing::Relationship;

    fn samples(center: f64, spread: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let u = (i as f64 * 0.618_033_988_749).fract() - 0.5;
                center + spread * u
            })
            .collect()
    }

    fn stream_of(v: &[f64]) -> StreamingAggregation {
        let mut s = StreamingAggregation::new();
        for &x in v {
            s.push(x, Some((x / 100.0).clamp(0.0, 1.0)), 100);
        }
        s
    }

    /// The same samples summarised from exact and from digest order
    /// statistics.
    fn summaries_of(v: &[f64]) -> (CellSummary, CellSummary) {
        let mut exact = Aggregation::new(Relationship::PrivatePeer);
        exact.min_rtt_ms = v.to_vec();
        exact.min_rtt_ms.sort_unstable_by(f64::total_cmp);
        let mut stream = StreamingCell::new(Relationship::PrivatePeer);
        stream.agg = stream_of(v);
        (exact.summary(), stream.summary())
    }

    #[test]
    fn medians_match_exact_pipeline() {
        let v = samples(42.0, 12.0, 5_000);
        let s = stream_of(&v);
        let mut sorted = v.clone();
        sorted.sort_unstable_by(f64::total_cmp);
        let exact = edgeperf_stats::quantile::median_sorted(&sorted);
        assert!((s.min_rtt_p50() - exact).abs() < 0.2, "{} vs {exact}", s.min_rtt_p50());
        assert_eq!(s.n(), 5_000);
        assert_eq!(s.n_tested(), 5_000);
        assert_eq!(s.bytes(), 500_000);
    }

    #[test]
    fn streaming_ci_tracks_exact_ci() {
        let (ea, sa) = summaries_of(&samples(50.0, 8.0, 400));
        let (eb, sb) = summaries_of(&samples(44.0, 8.0, 400));
        let cfg = AnalysisConfig::default();
        match (compare(&cfg, MinRtt, &ea, &eb), compare(&cfg, MinRtt, &sa, &sb)) {
            (
                CompareOutcome::Valid { diff: d1, lo: l1, hi: h1 },
                CompareOutcome::Valid { diff: d2, lo: l2, hi: h2 },
            ) => {
                assert!((d1 - d2).abs() < 0.5, "diff {d1} vs {d2}");
                assert!((l1 - l2).abs() < 1.5, "lo {l1} vs {l2}");
                assert!((h1 - h2).abs() < 1.5, "hi {h1} vs {h2}");
            }
            other => panic!("expected both valid, got {other:?}"),
        }
    }

    #[test]
    fn event_decisions_agree_with_exact() {
        // Across a range of true differences, the comparison of digest
        // summaries should reach the same event verdict as the exact one.
        let cfg = AnalysisConfig::default();
        let mut agreements = 0;
        let mut total = 0;
        for shift in [0.0, 1.0, 3.0, 6.0, 12.0, 25.0] {
            let (ea, sa) = summaries_of(&samples(40.0 + shift, 6.0, 300));
            let (eb, sb) = summaries_of(&samples(40.0, 6.0, 300));
            let exact = compare(&cfg, MinRtt, &ea, &eb);
            let stream = compare(&cfg, MinRtt, &sa, &sb);
            total += 1;
            if exact.event_at(5.0) == stream.event_at(5.0) {
                agreements += 1;
            }
        }
        assert!(agreements >= total - 1, "only {agreements}/{total} verdicts agree");
    }

    #[test]
    fn memory_is_bounded() {
        // A million samples must not grow the aggregation unboundedly.
        let mut s = StreamingAggregation::new();
        for i in 0..1_000_000u64 {
            s.push(30.0 + (i % 37) as f64, Some(1.0), 1);
        }
        assert_eq!(s.n(), 1_000_000);
        // The digest holds bounded centroids; just verify quantiles work.
        let p50 = s.min_rtt_p50();
        assert!(p50 > 30.0 && p50 < 67.0);
    }
}
