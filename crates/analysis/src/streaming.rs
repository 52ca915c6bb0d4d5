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
use std::borrow::Cow;

/// t-digest compression δ of both metrics' digests.
const COMPRESSION: f64 = 100.0;

/// Sessions a cell holds raw before it builds its digests: one digest
/// batch, so the MinRTT digest compresses at the session whose insert
/// would have compressed it.
const RUN_LEN: usize = 512;

/// Bounded-memory aggregation of one (group, window, route) cell.
///
/// A cell holds its first sessions as they came — MinRTT and HDratio, NaN
/// for an untested session — and builds its two t-digests from them at
/// the 512th session or at [`flush`](Self::flush), whichever comes first;
/// from then on sessions go straight into the digests. Either way every
/// digest is, bit for bit, the one per-session inserts would have made,
/// and so is every answer read off it.
#[derive(Debug, Clone)]
pub struct StreamingAggregation {
    /// The run: each session's `[MinRTT, HDratio or NaN]`, in arrival
    /// order. Empty once `digests` exist.
    pending: Vec<[f64; 2]>,
    /// The MinRTT and HDratio digests, once built.
    digests: Option<Box<[TDigest; 2]>>,
    bytes: u64,
}

impl Default for StreamingAggregation {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamingAggregation {
    /// Empty aggregation (t-digest compression 100). It owns no heap until
    /// the first push; a cell then holds its sessions, 16 B each in a run
    /// that doubles from 4: 64 B for one to four sessions, 512 B at the
    /// paper's 30-session minimum. At 512 sessions the run becomes a boxed
    /// pair of digests (240 B), which hold at most ~10 KB however many
    /// sessions follow (two 4 KiB insert buffers plus 16 B a centroid, the
    /// lists trimmed at every compression). Once [`flush`](Self::flush)ed
    /// it holds the digest pair and its centroids only: under 2.3 KB.
    pub fn new() -> Self {
        StreamingAggregation { pending: Vec::new(), digests: None, bytes: 0 }
    }

    /// Record one session's measurements.
    ///
    /// # Panics
    /// Panics on a non-finite MinRTT or HDratio.
    #[inline]
    pub fn push(&mut self, min_rtt_ms: f64, hdratio: Option<f64>, bytes: u64) {
        self.bytes += bytes;
        if let Some(digests) = &mut self.digests {
            digests[0].insert(min_rtt_ms);
            if let Some(h) = hdratio {
                digests[1].insert(h);
            }
        } else {
            self.push_raw(min_rtt_ms, hdratio);
        }
    }

    /// Append one session to the run, building the digests from it once it
    /// holds [`RUN_LEN`] sessions.
    fn push_raw(&mut self, min_rtt_ms: f64, hdratio: Option<f64>) {
        assert!(min_rtt_ms.is_finite(), "non-finite sample {min_rtt_ms}");
        let h = match hdratio {
            Some(h) => {
                assert!(h.is_finite(), "non-finite sample {h}");
                h
            }
            None => f64::NAN,
        };
        self.pending.push([min_rtt_ms, h]);
        if self.pending.len() == RUN_LEN {
            self.digests = Some(Box::new(digests_of(&std::mem::take(&mut self.pending))));
        }
    }

    /// Flush both digests — built from the run first, if the cell never
    /// reached 512 sessions: their insert buffers are compressed in (a
    /// sort, and under ~60 sessions no merge test) and released, so the
    /// aggregation holds centroids only and subsequent queries are
    /// allocation-free. The streaming sink's shards and the live tier both
    /// call this when the cell's window closes.
    pub fn flush(&mut self) {
        let digests = match &mut self.digests {
            Some(digests) => digests,
            none => none.insert(Box::new(digests_of(&std::mem::take(&mut self.pending)))),
        };
        digests.iter_mut().for_each(TDigest::flush);
    }

    /// The MinRTT and HDratio digests: the cell's own, or the ones its run
    /// would make, built for the caller.
    fn view(&self) -> Cow<'_, [TDigest; 2]> {
        match &self.digests {
            Some(digests) => Cow::Borrowed(digests),
            None => Cow::Owned(digests_of(&self.pending)),
        }
    }

    /// MinRTT quantile estimate (exact at q = 0 and q = 1).
    pub fn min_rtt_quantile(&self, q: f64) -> f64 {
        self.view()[0].quantile(q)
    }

    /// HDratio quantile estimate, if any session tested.
    pub fn hdratio_quantile(&self, q: f64) -> Option<f64> {
        let view = self.view();
        (!view[1].is_empty()).then(|| view[1].quantile(q))
    }

    /// The underlying MinRTT digest (for rollups that merge across cells).
    ///
    /// # Panics
    /// Panics on a cell with neither 512 sessions nor a flush behind it.
    pub(crate) fn minrtt_digest(&self) -> &TDigest {
        &self.digests.as_ref().expect("flush first: the cell holds its run")[0]
    }

    /// Centroids currently held across both digests — the aggregation's
    /// memory footprint, which stays bounded regardless of session count.
    pub fn state_centroids(&self) -> usize {
        self.view().iter().map(TDigest::centroid_count).sum()
    }

    /// Digest compression passes run across both digests (see
    /// [`TDigest::compressions`]); none while the cell holds its run.
    pub(crate) fn compressions(&self) -> u64 {
        self.digests.as_ref().map_or(0, |d| d.iter().map(TDigest::compressions).sum())
    }

    /// Sessions recorded.
    pub fn n(&self) -> usize {
        self.digests.as_ref().map_or(self.pending.len(), |d| d[0].count() as usize)
    }

    /// Sessions with an HDratio.
    pub(crate) fn n_tested(&self) -> usize {
        match &self.digests {
            Some(d) => d[1].count() as usize,
            None => self.pending.iter().filter(|s| !s[1].is_nan()).count(),
        }
    }

    /// Traffic weight.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Median MinRTT (ms).
    pub fn min_rtt_p50(&self) -> f64 {
        self.min_rtt_quantile(0.5)
    }

    /// Median HDratio, if any session tested.
    pub fn hdratio_p50(&self) -> Option<f64> {
        self.hdratio_quantile(0.5)
    }

    /// Approximate Price–Bonett variance of the MinRTT median: the exact
    /// method reads order statistics `y_c` and `y_{n−c+1}`; here they are
    /// approximated by digest quantiles at ranks `c/n` and `(n−c+1)/n`.
    pub(crate) fn min_rtt_median_variance(&self) -> Option<f64> {
        median_variance(&self.view()[0])
    }

    /// Approximate variance of the HDratio median.
    pub(crate) fn hdratio_median_variance(&self) -> Option<f64> {
        median_variance(&self.view()[1])
    }
}

/// The MinRTT and HDratio digests a run's sessions, inserted one by one,
/// would have made: each built from its samples in one piece.
fn digests_of(run: &[[f64; 2]]) -> [TDigest; 2] {
    let minrtt = run.iter().map(|s| s[0]).collect();
    let tested = |s: &&[f64; 2]| !s[1].is_nan();
    let mut hdratio = Vec::with_capacity(run.iter().filter(tested).count());
    hdratio.extend(run.iter().filter(tested).map(|s| s[1]));
    [
        TDigest::from_unit_samples(COMPRESSION, minrtt),
        TDigest::from_unit_samples(COMPRESSION, hdratio),
    ]
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
    use crate::record::GroupKey;
    use crate::segment::WindowCell;
    use crate::sink::StreamingCell;
    use edgeperf_routing::{PopId, Prefix, Relationship};

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
    /// statistics, as rows.
    fn summaries_of(v: &[f64]) -> (WindowCell, WindowCell) {
        let mut exact = Aggregation::new(Relationship::PrivatePeer);
        exact.min_rtt_ms = v.to_vec();
        exact.min_rtt_ms.sort_unstable_by(f64::total_cmp);
        let mut stream = StreamingCell::new(Relationship::PrivatePeer);
        stream.agg = stream_of(v);
        let group =
            GroupKey { pop: PopId(0), prefix: Prefix::new(0, 16), country: 0, continent: 0 };
        let row = |s: CellSummary| WindowCell::new(0, group, 0, &s).unwrap();
        (row(exact.summary()), row(stream.summary()))
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

    /// The aggregation as it was before a cell held its run: two digests
    /// inserted into from the first session on — the reference the run
    /// must match bit for bit.
    struct Eager {
        digests: [TDigest; 2],
        bytes: u64,
    }

    impl Eager {
        fn push(&mut self, min_rtt_ms: f64, hdratio: Option<f64>, bytes: u64) {
            self.digests[0].insert(min_rtt_ms);
            if let Some(h) = hdratio {
                self.digests[1].insert(h);
            }
            self.bytes += bytes;
        }

        /// The reference's digests in a cell, to be read and summarised
        /// through the same accessors as the run.
        fn cell(&self) -> StreamingCell {
            let mut cell = StreamingCell::new(Relationship::Transit);
            cell.agg.digests = Some(Box::new(self.digests.clone()));
            cell.agg.bytes = self.bytes;
            cell
        }
    }

    fn parts_bits(d: &TDigest) -> (u64, u64, u64, u64, Vec<(u64, u64)>) {
        let p = d.to_parts();
        let centroids =
            p.centroids.iter().map(|c| (c.mean.to_bits(), c.weight.to_bits())).collect();
        (p.compression.to_bits(), p.min.to_bits(), p.max.to_bits(), p.compressions, centroids)
    }

    /// Everything a caller can read off an aggregation, as bits: counts,
    /// quantiles, both Price–Bonett variances and the digests' parts.
    fn reading(s: &StreamingAggregation) -> Vec<u64> {
        let mut bits = vec![s.n() as u64, s.n_tested() as u64, s.bytes()];
        bits.extend([s.state_centroids() as u64, s.compressions()]);
        if s.n() > 0 {
            bits.push(s.min_rtt_quantile(0.25).to_bits());
            bits.push(s.hdratio_quantile(0.75).map_or(u64::MAX, f64::to_bits));
        }
        for d in s.view().iter() {
            bits.push(d.centroid_count() as u64);
            if !d.is_empty() {
                bits.extend([0.0, 0.1, 0.5, 0.9, 1.0].map(|q| d.quantile(q).to_bits()));
            }
            bits.push(median_variance(d).map_or(u64::MAX, f64::to_bits));
            let (compression, min, max, compressions, centroids) = parts_bits(d);
            bits.extend([compression, min, max, compressions]);
            bits.extend(centroids.into_iter().flat_map(|(m, w)| [m, w]));
        }
        bits
    }

    /// A summary as bits, field by field.
    fn summary_bits(s: &CellSummary) -> [u64; 7] {
        let opt = |v: Option<f64>| v.map_or(u64::MAX, f64::to_bits);
        [
            s.n as u64,
            s.n_tested as u64,
            s.bytes,
            s.min_rtt_p50.to_bits(),
            opt(s.min_rtt_var),
            opt(s.hdratio_p50),
            opt(s.hdratio_var),
        ]
    }

    use proptest::prelude::*;

    proptest! {
        /// Runs of pushes — tested and untested, on a coarse grid with
        /// ties and ±0.0, crossing 512 and 1,024 sessions — interleaved
        /// with queries, flushes and pushes after a flush leave every
        /// reading and both digests' parts as the eager digests leave them.
        #[test]
        fn the_run_is_the_eager_digests_bit_for_bit(
            ops in prop::collection::vec((0u8..8, 1usize..400, any::<u64>()), 1..10),
        ) {
            let mut run = StreamingCell::new(Relationship::Transit);
            let mut eager = Eager {
                digests: [TDigest::new(100.0), TDigest::new(100.0)],
                bytes: 0,
            };
            for &(op, count, mut seed) in &ops {
                match op {
                    0..=5 => {
                        for _ in 0..count {
                            seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                            let r = seed >> 33;
                            let min_rtt = match r % 8 {
                                0 => 0.0,
                                1 => -0.0,
                                _ => (r >> 3) as f64 % 24.0 * 0.5,
                            };
                            let h = (r >> 8) % 5;
                            let hdratio = match h {
                                0 => None,
                                1 if (r >> 12) % 2 == 0 => Some(-0.0),
                                _ => Some((r >> 12) as f64 % 4.0 * 0.25),
                            };
                            let bytes = r % 1_000;
                            run.push(min_rtt, hdratio, bytes, false, false);
                            eager.push(min_rtt, hdratio, bytes);
                        }
                    }
                    6 => {
                        run.agg.flush();
                        eager.digests.iter_mut().for_each(TDigest::flush);
                    }
                    _ => {} // queries alone
                }
                prop_assert_eq!(reading(&run.agg), reading(&eager.cell().agg));
            }
            if eager.digests[0].is_empty() {
                return;
            }
            let mut e = eager.cell();
            prop_assert_eq!(summary_bits(&run.summary()), summary_bits(&e.summary()));
            run.agg.flush();
            e.agg.flush();
            prop_assert_eq!(summary_bits(&run.summary()), summary_bits(&e.summary()));
            prop_assert_eq!(reading(&run.agg), reading(&e.agg));
        }
    }

    #[test]
    fn the_hand_off_is_where_the_minrtt_digest_compresses() {
        let mut s = StreamingAggregation::new();
        for i in 0..RUN_LEN - 1 {
            s.push(i as f64, (i % 2 == 0).then_some(0.5), 1);
        }
        assert!(s.digests.is_none());
        assert_eq!(s.compressions(), 0);
        s.push(1.0, None, 1);
        let digests = s.digests.as_ref().expect("built at the 512th session");
        assert!(s.pending.capacity() == 0, "and the run released");
        assert_eq!(digests[0].compressions(), 1, "MinRTT compressed once");
        assert_eq!(digests[1].compressions(), 0, "256 HDratios still buffered");
        assert_eq!((s.n(), s.n_tested()), (RUN_LEN, RUN_LEN / 2));
    }

    #[test]
    #[should_panic(expected = "non-finite sample")]
    fn a_non_finite_hdratio_panics_at_push() {
        StreamingAggregation::new().push(1.0, Some(f64::NAN), 1);
    }

    #[test]
    #[should_panic(expected = "non-finite sample")]
    fn a_non_finite_min_rtt_panics_at_push() {
        StreamingAggregation::new().push(f64::INFINITY, None, 1);
    }
}
