//! A merging t-digest (Dunning & Ertl, "Computing Extremely Accurate
//! Quantiles Using t-Digests") — the streaming sketch the paper's §3.4.1
//! footnote recommends for production traffic-engineering systems that must
//! compare route performance in near real time.
//!
//! This implementation uses the `k1` scale function
//! `k(q) = δ/(2π)·asin(2q−1)`, buffered inserts, and merge-based
//! compression. It is deterministic: the same insertion order always yields
//! the same digest.
//!
//! Ingestion is buffered: inserts accumulate raw samples and merge into the
//! compressed centroid list in batches of [`BUFFER_LEN`], so an insert
//! costs a bounds check and a push, and a batch one sort plus one merge
//! pass that calls `asin` and `sin` once per *output* centroid — none for
//! fewer than 0.95·2δ/π (60 at δ = 100) unit weights, which cannot merge:
//! a 30-sample cell closes at the cost of its sort. The buffer
//! costs what it holds: an empty digest owns no heap, the first insert
//! allocates room for [`FIRST_BUFFER_LEN`] samples — one allocation covers
//! a cell at the paper's 30-sample validity minimum — and it doubles from
//! there up to [`BUFFER_LEN`]. Samples are buffered as bare `f64` means
//! (8 B); a parallel weight column appears only once a weight other than 1
//! is buffered ([`TDigest::insert_weighted`], or [`TDigest::merge`] of
//! compressed centroids). The every-[`BUFFER_LEN`] compression keeps the
//! buffer for the next batch; every compression trims the centroid list to
//! within a quarter of its count, so a hot digest holds its 4 KiB buffer
//! and 16 B a centroid.
//!
//! Queries never mutate the digest: [`TDigest::quantile`]/[`TDigest::cdf`]
//! take `&self` and, when buffered samples are pending, compress into a
//! temporary view. Call [`TDigest::flush`] once after the last insert (the
//! record sinks do this at finalize time, the live tier at window close):
//! every subsequent query is allocation-free, the buffer is released and
//! the digest holds its centroids and nothing else.

/// Buffered inserts per compression batch.
const BUFFER_LEN: usize = 512;

/// Samples the first buffer allocation has room for when a digest grows
/// one insert at a time: from empty, or after a flush. A digest built by
/// [`TDigest::from_unit_samples`] starts from the buffer it was handed
/// (the analysis cells build theirs that way from a small cell's
/// sessions) and doubles from there, never past [`BUFFER_LEN`].
const FIRST_BUFFER_LEN: usize = 32;

/// A single centroid: a weighted point approximating nearby samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Centroid {
    /// Mean of the samples merged into this centroid.
    pub mean: f64,
    /// Number of samples (or total weight) merged.
    pub weight: f64,
}

/// # Example
///
/// ```
/// use edgeperf_stats::TDigest;
/// let mut d = TDigest::new(100.0);
/// for i in 0..10_000 {
///     d.insert(i as f64);
/// }
/// let p99 = d.quantile(0.99);
/// assert!((p99 - 9_900.0).abs() < 100.0);
/// ```
/// Streaming quantile sketch with bounded memory.
#[derive(Debug, Clone)]
pub struct TDigest {
    compression: f64,
    centroids: Vec<Centroid>,
    /// Means of the samples not yet compressed, in arrival order.
    buffer: Vec<f64>,
    /// Their weights: empty while every buffered weight is 1, otherwise
    /// one per buffered mean.
    weights: Vec<f64>,
    /// Weight held in `centroids`.
    total_weight: f64,
    /// Weight held in `buffer`, summed in arrival order.
    buffered_weight: f64,
    min: f64,
    max: f64,
    compressions: u64,
}

/// Scale function k1.
fn k1(compression: f64, q: f64) -> f64 {
    compression / (2.0 * std::f64::consts::PI) * (2.0 * q - 1.0).asin()
}

/// Sort `all` by mean and merge adjacent centroids under the `k1` size
/// bound, in place. The single compression routine shared by the mutating
/// compression and the non-mutating query view, so both produce identical
/// centroids.
///
/// The bound `k1(q_hi) − k1(q_lo) ≤ 1` costs one `asin` and one `sin` per
/// output centroid, not an `asin` pair per input: while one centroid grows
/// `k1(q_lo)` is fixed, and the bound is crossed at
/// `q* = (sin((k1(q_lo) + 1)/scale) + 1)/2`. An element whose `q_hi` lies
/// more than 1e-9 from `q*` is decided by the side it lies on — a margin of
/// at least δ/π·1e-9 in k, orders of magnitude above any `asin`/`sin`
/// rounding — and only one inside that band runs the exact test, so every
/// bit is what the per-element test gives. Too few unit weights to merge
/// skip the pass.
fn compress_centroids(all: &mut Vec<Centroid>, compression: f64) -> f64 {
    debug_assert!(!all.is_empty());
    all.sort_unstable_by(|a, b| a.mean.total_cmp(&b.mean));
    let total: f64 = all.iter().map(|c| c.weight).sum();
    // Fewer unit weights than 2δ/π never merge: across two, k1 steps by at
    // least 2δ/(π·total) > 1 as asin′ ≥ 1 (0.95: a margin for rounding).
    if (all.len() as f64) < 0.95 * std::f64::consts::FRAC_2_PI * compression
        && all.iter().all(|c| c.weight == 1.0)
    {
        return total;
    }

    // For the centroid starting at `w_before`: `k1(q_lo)`, the weight up to
    // which an element merges and the weight above which it does not. Past
    // θ = π/2 − 1e-4 the upper bracket would reach the clamp at q = 1, and a
    // subnormal or infinite total voids the relative precision the margin
    // rests on, so both take the exact test throughout (as does a NaN
    // `k1(q_lo)`, whose brackets are NaN).
    let bound = |w_before: f64| {
        let k_lo = k1(compression, w_before / total);
        let theta = (k_lo + 1.0) / (compression / (2.0 * std::f64::consts::PI));
        if theta > std::f64::consts::FRAC_PI_2 - 1e-4 || !total.is_normal() {
            return (k_lo, f64::NEG_INFINITY, f64::INFINITY);
        }
        let q = (theta.sin() + 1.0) / 2.0;
        (k_lo, (q - 1e-9) * total, (q + 1e-9) * total)
    };
    let mut out = 0; // centroids finished, at the front of `all`
    let mut acc = all[0];
    let mut w_before = 0.0; // weight strictly before `acc`
    let (mut k_lo, mut merge_to, mut split_above) = bound(w_before);
    for i in 1..all.len() {
        let c = all[i];
        let w_hi = w_before + acc.weight + c.weight;
        let merge = if w_hi <= merge_to {
            true
        } else if w_hi > split_above {
            false
        } else {
            k1(compression, (w_hi / total).min(1.0)) - k_lo <= 1.0
        };
        if merge {
            let w = acc.weight + c.weight;
            acc.mean += (c.mean - acc.mean) * c.weight / w;
            acc.weight = w;
        } else {
            w_before += acc.weight;
            all[out] = acc;
            out += 1;
            acc = c;
            (k_lo, merge_to, split_above) = bound(w_before);
        }
    }
    all[out] = acc;
    all.truncate(out + 1);
    total
}

/// Walk a compressed centroid list accumulating weight; interpolate
/// between centroid midpoints, honoring exact min/max at the extremes.
fn quantile_over(centroids: &[Centroid], total: f64, min: f64, max: f64, q: f64) -> f64 {
    assert!(!centroids.is_empty(), "quantile of empty digest");
    if centroids.len() == 1 {
        return centroids[0].mean;
    }
    let target = q * total;
    let mut cum = 0.0;
    for (i, c) in centroids.iter().enumerate() {
        let mid = cum + c.weight / 2.0;
        if target < mid {
            if i == 0 {
                // Between min and first centroid mean.
                let frac = (target / c.weight * 2.0).clamp(0.0, 1.0);
                return min + (centroids[0].mean - min) * frac;
            }
            let prev = &centroids[i - 1];
            let prev_mid = cum - prev.weight / 2.0;
            let span = mid - prev_mid;
            let frac = if span > 0.0 { (target - prev_mid) / span } else { 0.5 };
            return prev.mean + (c.mean - prev.mean) * frac;
        }
        cum += c.weight;
    }
    max
}

fn cdf_over(centroids: &[Centroid], total: f64, min: f64, max: f64, x: f64) -> f64 {
    assert!(!centroids.is_empty(), "cdf of empty digest");
    if x < min {
        return 0.0;
    }
    if x >= max {
        return 1.0;
    }
    let mut cum = 0.0;
    for (i, c) in centroids.iter().enumerate() {
        if x < c.mean {
            if i == 0 {
                let span = c.mean - min;
                let frac = if span > 0.0 { (x - min) / span } else { 0.0 };
                return (c.weight / 2.0) * frac / total;
            }
            let prev = &centroids[i - 1];
            let span = c.mean - prev.mean;
            let frac = if span > 0.0 { (x - prev.mean) / span } else { 0.0 };
            let prev_mid = cum - prev.weight / 2.0;
            let mid = cum + c.weight / 2.0;
            return (prev_mid + (mid - prev_mid) * frac) / total;
        }
        cum += c.weight;
    }
    1.0
}

impl TDigest {
    /// Create a digest with the given compression δ (typical: 100).
    /// Larger δ means more centroids and better accuracy.
    ///
    /// # Panics
    /// Panics on a non-finite δ (a digest that never merges) or one < 10.
    pub fn new(compression: f64) -> Self {
        assert!(compression.is_finite(), "non-finite compression {compression}");
        assert!(compression >= 10.0, "compression too small: {compression}");
        TDigest {
            compression,
            centroids: Vec::new(),
            buffer: Vec::new(),
            weights: Vec::new(),
            total_weight: 0.0,
            buffered_weight: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            compressions: 0,
        }
    }

    /// The digest that inserting `samples` one at a time, in order and at
    /// weight 1, leaves behind — its buffer, extremes and counts bit for
    /// bit, compressed once if the samples fill a batch (512) — built
    /// without replaying the inserts: `samples` becomes the insert buffer
    /// as it is, so no buffer grows.
    ///
    /// # Panics
    /// Panics on more than one batch of samples, on a non-finite sample
    /// and on the compressions [`TDigest::new`] rejects.
    pub fn from_unit_samples(compression: f64, samples: Vec<f64>) -> Self {
        assert!(samples.len() <= BUFFER_LEN, "{} samples exceed one batch", samples.len());
        let mut d = TDigest::new(compression);
        for &value in &samples {
            assert!(value.is_finite(), "non-finite sample {value}");
            d.widen(value, value);
        }
        // A sum of unit weights is exact in any order.
        d.buffered_weight = samples.len() as f64;
        d.buffer = samples;
        if d.buffer.len() == BUFFER_LEN {
            d.compress();
        }
        d
    }

    /// Number of samples inserted (total weight).
    pub fn count(&self) -> f64 {
        self.total_weight + self.buffered_weight
    }

    /// True if no samples have been inserted.
    pub fn is_empty(&self) -> bool {
        self.count() == 0.0
    }

    /// Insert a sample with weight 1.
    #[inline]
    pub fn insert(&mut self, value: f64) {
        self.insert_weighted(value, 1.0);
    }

    /// Insert a sample with an arbitrary positive, finite weight.
    #[inline]
    pub fn insert_weighted(&mut self, value: f64, weight: f64) {
        assert!(value.is_finite(), "non-finite sample {value}");
        assert!(weight > 0.0, "non-positive weight {weight}");
        assert!(weight.is_finite(), "non-finite weight {weight}");
        self.widen(value, value);
        self.push_buffered(value, weight);
    }

    /// Widen the extremes to cover `lo..=hi` in `f64::total_cmp` order, so
    /// `-0.0` is below `+0.0` in any build (`f64::min` may return either).
    #[inline]
    fn widen(&mut self, lo: f64, hi: f64) {
        self.min = std::cmp::min_by(self.min, lo, f64::total_cmp);
        self.max = std::cmp::max_by(self.max, hi, f64::total_cmp);
    }

    /// Append one sample to the buffer, compressing when it is full.
    #[inline]
    fn push_buffered(&mut self, mean: f64, weight: f64) {
        if self.buffer.len() == self.buffer.capacity() {
            // First room for FIRST_BUFFER_LEN samples, then doubling, up to
            // the BUFFER_LEN at which it is compressed below: a buffer
            // handed over by `from_unit_samples`, of any length, grows to
            // no more than one grown from empty does.
            let room = self.buffer.capacity().max(FIRST_BUFFER_LEN);
            self.buffer.reserve_exact(room.min(BUFFER_LEN - self.buffer.len()));
        }
        if weight != 1.0 || !self.weights.is_empty() {
            // On the first non-unit weight the samples already buffered get
            // their implicit 1s, in place, so the sort sees the same
            // sequence; once the column exists this resize changes nothing.
            self.weights.resize(self.buffer.len(), 1.0);
            self.weights.push(weight);
        }
        self.buffer.push(mean);
        self.buffered_weight += weight;
        if self.buffer.len() >= BUFFER_LEN {
            self.compress();
        }
    }

    /// The buffered samples as centroids, in arrival order.
    fn buffered(&self) -> impl Iterator<Item = Centroid> + '_ {
        // Loop-invariant, so the all-unit case compiles to a plain copy.
        let unit = self.weights.is_empty();
        self.buffer.iter().enumerate().map(move |(i, &mean)| Centroid {
            mean,
            weight: if unit { 1.0 } else { self.weights[i] },
        })
    }

    /// Merge another digest into this one.
    pub fn merge(&mut self, other: &TDigest) {
        if other.is_empty() {
            return;
        }
        // Take the extremes from the other digest's tracked min/max, not
        // from its centroid means: interior centroids are averages that
        // have already pulled away from the true sample extremes.
        self.widen(other.min, other.max);
        for c in other.centroids.iter().copied().chain(other.buffered()) {
            self.push_buffered(c.mean, c.weight);
        }
    }

    /// The centroids and the buffered samples in one list with no room to
    /// spare: what a compression merges, in place.
    fn gathered(&self) -> Vec<Centroid> {
        let mut all = Vec::with_capacity(self.centroids.len() + self.buffer.len());
        all.extend_from_slice(&self.centroids);
        all.extend(self.buffered());
        all
    }

    /// Merge buffered samples into the compressed centroid list, keeping
    /// the buffer's allocation for the next batch.
    fn compress(&mut self) {
        if self.buffer.is_empty() {
            return;
        }
        let mut all = self.gathered();
        self.centroids = Vec::new();
        self.buffer.clear();
        self.weights.clear();
        self.buffered_weight = 0.0;
        self.total_weight = compress_centroids(&mut all, self.compression);
        // Slack of more than a quarter is handed back by moving the output
        // to an allocation of its own, so the batch-sized list is freed
        // whole for the next compression to reuse (a `shrink_to_fit` would
        // split it, and the heap grew around the tails); less is kept.
        self.centroids =
            if all.capacity() > all.len() + all.len() / 4 { all.to_vec() } else { all };
        self.compressions += 1;
    }

    /// Settle the digest: merge buffered samples into the compressed
    /// centroid list (as happens automatically every [`BUFFER_LEN`]
    /// inserts) and release the insert buffer, leaving centroids only —
    /// trimmed, as every compression leaves them, to within a quarter of
    /// their count. Call it once after the last insert; subsequent queries
    /// are allocation-free. Inserting afterwards is fine — the buffer grows
    /// again from [`FIRST_BUFFER_LEN`].
    pub fn flush(&mut self) {
        self.compress();
        self.buffer = Vec::new();
        self.weights = Vec::new();
    }

    /// Run `f` over the compressed view of this digest. When the buffer is
    /// clean this borrows the centroid list directly; otherwise it
    /// compresses into a temporary using the same routine as [`flush`],
    /// so the view is bit-identical to the post-flush state.
    fn with_view<R>(&self, f: impl FnOnce(&[Centroid], f64) -> R) -> R {
        if self.buffer.is_empty() {
            f(&self.centroids, self.total_weight)
        } else {
            let mut all = self.gathered();
            let total = compress_centroids(&mut all, self.compression);
            f(&all, total)
        }
    }

    /// Estimate the quantile `q` ∈ [0, 1]. Non-mutating: pending buffered
    /// samples are folded in through a temporary view (see [`flush`]).
    ///
    /// # Panics
    /// Panics if the digest is empty or q outside [0, 1].
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "q out of range: {q}");
        self.with_view(|cs, total| quantile_over(cs, total, self.min, self.max, q))
    }

    /// Estimate the fraction of samples ≤ `x` (the empirical CDF).
    /// Non-mutating, like [`quantile`].
    pub fn cdf(&self, x: f64) -> f64 {
        self.with_view(|cs, total| cdf_over(cs, total, self.min, self.max, x))
    }

    /// Smallest sample seen.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample seen.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// How many buffer-compression passes this digest has run (automatic
    /// batch flushes plus explicit [`flush`] calls) — the signal behind
    /// the sinks' digest-flush metrics. Non-mutating queries over a dirty
    /// buffer compress a temporary and do not count.
    pub fn compressions(&self) -> u64 {
        self.compressions
    }

    /// Number of centroids the compressed digest holds (buffered samples
    /// are counted through the same compression as [`flush`]).
    pub fn centroid_count(&self) -> usize {
        if self.is_empty() {
            return 0;
        }
        self.with_view(|cs, _| cs.len())
    }

    /// Flatten the digest into plain data for persistence. The centroid
    /// list is the compressed view (identical to the post-[`flush`]
    /// state), so `from_parts(d.to_parts())` reproduces a flushed `d`
    /// bit-for-bit — including the tracked extremes and the compression
    /// counter. This crate stays serialization-agnostic; callers own the
    /// encoding.
    pub fn to_parts(&self) -> DigestParts {
        let centroids =
            if self.is_empty() { Vec::new() } else { self.with_view(|cs, _| cs.to_vec()) };
        DigestParts {
            compression: self.compression,
            min: self.min,
            max: self.max,
            compressions: self.compressions,
            centroids,
        }
    }

    /// Rebuild a digest from [`to_parts`] output.
    ///
    /// # Panics
    /// Panics on the same invalid inputs `insert_weighted` rejects
    /// (non-finite means, non-positive or non-finite weights) and those
    /// `new` rejects (a non-finite compression or one < 10).
    ///
    /// [`to_parts`]: TDigest::to_parts
    pub fn from_parts(parts: DigestParts) -> Self {
        assert!(parts.compression.is_finite(), "non-finite compression {}", parts.compression);
        assert!(parts.compression >= 10.0, "compression too small: {}", parts.compression);
        let mut total_weight = 0.0;
        for c in &parts.centroids {
            assert!(c.mean.is_finite(), "non-finite centroid mean {}", c.mean);
            assert!(c.weight > 0.0, "non-positive centroid weight {}", c.weight);
            assert!(c.weight.is_finite(), "non-finite centroid weight {}", c.weight);
            total_weight += c.weight;
        }
        let (min, max) = if parts.centroids.is_empty() {
            (f64::INFINITY, f64::NEG_INFINITY)
        } else {
            (parts.min, parts.max)
        };
        TDigest {
            compression: parts.compression,
            centroids: parts.centroids,
            buffer: Vec::new(),
            weights: Vec::new(),
            total_weight,
            buffered_weight: 0.0,
            min,
            max,
            compressions: parts.compressions,
        }
    }
}

/// Plain-data snapshot of a [`TDigest`] (see [`TDigest::to_parts`]).
#[derive(Debug, Clone, PartialEq)]
pub struct DigestParts {
    /// The digest's compression δ.
    pub compression: f64,
    /// Tracked exact minimum (ignored when `centroids` is empty).
    pub min: f64,
    /// Tracked exact maximum (ignored when `centroids` is empty).
    pub max: f64,
    /// Lifetime compression-pass counter.
    pub compressions: u64,
    /// The compressed centroid list, in mean order.
    pub centroids: Vec<Centroid>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_digest(n: usize) -> TDigest {
        let mut d = TDigest::new(100.0);
        for i in 0..n {
            // Golden-ratio Weyl sequence: deterministic, well spread.
            d.insert((i as f64 * 0.6180339887498949).fract());
        }
        d
    }

    #[test]
    fn quantiles_of_uniform_are_accurate() {
        let d = uniform_digest(100_000);
        for &q in &[0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
            let est = d.quantile(q);
            assert!((est - q).abs() < 0.01, "q={q} est={est}");
        }
    }

    #[test]
    fn extreme_quantiles_hit_min_max() {
        let mut d = TDigest::new(100.0);
        for i in 1..=1000 {
            d.insert(i as f64);
        }
        assert_eq!(d.quantile(0.0), 1.0);
        assert_eq!(d.quantile(1.0), 1000.0);
    }

    #[test]
    fn compressions_count_batch_flushes_but_not_queries() {
        let mut d = TDigest::new(100.0);
        for i in 0..(BUFFER_LEN * 3) {
            d.insert(i as f64);
        }
        // 3 full batches auto-flushed; the buffer is clean again.
        assert_eq!(d.compressions(), 3);
        d.insert(-1.0);
        let _ = d.quantile(0.5); // query over a dirty buffer: a temp view
        assert_eq!(d.compressions(), 3);
        d.flush();
        assert_eq!(d.compressions(), 4);
        d.flush(); // empty buffer: no work, no count
        assert_eq!(d.compressions(), 4);
    }

    #[test]
    fn memory_is_bounded() {
        let d = uniform_digest(1_000_000);
        assert!(d.centroid_count() < 200, "centroids = {}", d.centroid_count());
    }

    #[test]
    fn cdf_and_quantile_are_inverse_ish() {
        let d = uniform_digest(50_000);
        for &q in &[0.1, 0.5, 0.9] {
            let x = d.quantile(q);
            let back = d.cdf(x);
            assert!((back - q).abs() < 0.02, "q={q} back={back}");
        }
    }

    #[test]
    fn queries_do_not_mutate_and_match_flushed_state() {
        // A digest with a dirty buffer must answer exactly what it would
        // answer after flushing, without flushing.
        let mut d = TDigest::new(100.0);
        for i in 0..10_000 {
            d.insert((i as f64 * 0.7548776662466927).fract() * 50.0);
        }
        assert!(
            !d.buffer.is_empty(),
            "test needs a dirty buffer; adjust the sample count off the batch size"
        );
        let before: Vec<f64> = [0.0, 0.1, 0.5, 0.9, 1.0].iter().map(|&q| d.quantile(q)).collect();
        let centroids_before = d.centroid_count();
        d.flush();
        assert!(d.buffer.is_empty());
        let after: Vec<f64> = [0.0, 0.1, 0.5, 0.9, 1.0].iter().map(|&q| d.quantile(q)).collect();
        for (b, a) in before.iter().zip(&after) {
            assert_eq!(b.to_bits(), a.to_bits(), "{b} vs {a}");
        }
        assert_eq!(centroids_before, d.centroid_count());
    }

    #[test]
    fn merge_preserves_distribution() {
        let mut a = TDigest::new(100.0);
        let mut b = TDigest::new(100.0);
        let mut true_min = f64::INFINITY;
        let mut true_max = f64::NEG_INFINITY;
        for i in 0..10_000 {
            let v = (i as f64 * 0.6180339887498949).fract();
            true_min = true_min.min(v);
            true_max = true_max.max(v);
            if i % 2 == 0 {
                a.insert(v);
            } else {
                b.insert(v);
            }
        }
        // Force both digests through compression so the merge sees
        // centroids (whose means sit strictly inside the extremes), not
        // just raw buffered samples.
        a.flush();
        b.flush();
        a.merge(&b);
        assert!((a.count() - 10_000.0).abs() < 1e-9);
        assert!((a.quantile(0.5) - 0.5).abs() < 0.02);
        // The sample extremes must survive the merge exactly: quantile 0
        // and 1 are defined to be the true min/max, and the b-side extremes
        // must not be replaced by interior centroid means.
        assert_eq!(a.quantile(0.0), true_min);
        assert_eq!(a.quantile(1.0), true_max);
        assert_eq!(a.min(), true_min);
        assert_eq!(a.max(), true_max);
    }

    #[test]
    fn merge_takes_extremes_from_other_digest() {
        // `b` holds both global extremes; after compression its centroid
        // means are interior averages, so a merge that looked at means
        // would lose them.
        let mut a = TDigest::new(100.0);
        for i in 400..600 {
            a.insert(i as f64);
        }
        let mut b = TDigest::new(100.0);
        for i in 0..1000 {
            b.insert(i as f64);
        }
        b.flush();
        a.merge(&b);
        assert_eq!(a.min(), 0.0);
        assert_eq!(a.max(), 999.0);
        assert_eq!(a.quantile(0.0), 0.0);
        assert_eq!(a.quantile(1.0), 999.0);
    }

    /// `-0.0` is the smaller zero whichever comes first, through inserts,
    /// a hand-over and a merge alike, in debug and release builds.
    #[test]
    fn signed_zeros_order_the_extremes_in_any_order() {
        let extremes = |d: &TDigest| (d.min().to_bits(), d.max().to_bits());
        let want = ((-0.0f64).to_bits(), 0.0f64.to_bits());
        for zeros in [[0.0, -0.0], [-0.0, 0.0]] {
            let mut inserted = TDigest::new(100.0);
            zeros.iter().for_each(|&v| inserted.insert(v));
            assert_eq!(extremes(&inserted), want, "inserted {zeros:?}");
            let built = TDigest::from_unit_samples(100.0, zeros.to_vec());
            assert_eq!(extremes(&built), want, "handed over {zeros:?}");
            let mut merged = TDigest::from_unit_samples(100.0, vec![zeros[0]]);
            merged.merge(&TDigest::from_unit_samples(100.0, vec![zeros[1]]));
            assert_eq!(extremes(&merged), want, "merged {zeros:?}");
        }
    }

    #[test]
    fn merge_empty_is_identity() {
        let mut a = TDigest::new(100.0);
        a.insert(5.0);
        let b = TDigest::new(100.0);
        a.merge(&b);
        assert_eq!(a.min(), 5.0);
        assert_eq!(a.max(), 5.0);
        assert_eq!(a.count(), 1.0);
        // Merging into an empty digest adopts the other's extremes.
        let mut c = TDigest::new(100.0);
        c.merge(&a);
        assert_eq!(c.min(), 5.0);
        assert_eq!(c.max(), 5.0);
    }

    #[test]
    fn weighted_inserts_shift_quantiles() {
        let mut d = TDigest::new(100.0);
        d.insert_weighted(0.0, 90.0);
        d.insert_weighted(10.0, 10.0);
        assert!(d.quantile(0.5) <= 1.0);
        assert!(d.quantile(0.99) > 5.0);
    }

    #[test]
    fn single_value_digest() {
        let mut d = TDigest::new(100.0);
        d.insert(7.0);
        assert_eq!(d.quantile(0.5), 7.0);
        assert_eq!(d.cdf(8.0), 1.0);
        assert_eq!(d.cdf(6.0), 0.0);
    }

    #[test]
    #[should_panic]
    fn empty_digest_quantile_panics() {
        let d = TDigest::new(100.0);
        d.quantile(0.5);
    }

    #[test]
    #[should_panic]
    fn non_finite_insert_panics() {
        let mut d = TDigest::new(100.0);
        d.insert(f64::NAN);
    }

    // An infinite compression would never merge (100,000 inserts, 100,000
    // centroids); an infinite weight makes `count()` infinite.
    #[test]
    #[should_panic(expected = "non-finite compression")]
    fn infinite_compression_panics() {
        TDigest::new(f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "non-finite weight")]
    fn infinite_weight_panics() {
        TDigest::new(100.0).insert_weighted(1.0, f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "non-finite compression")]
    fn parts_with_infinite_compression_panic() {
        TDigest::from_parts(DigestParts {
            compression: f64::INFINITY,
            ..uniform_digest(10).to_parts()
        });
    }

    #[test]
    #[should_panic(expected = "non-finite centroid weight")]
    fn parts_with_an_infinite_weight_panic() {
        let mut parts = uniform_digest(10).to_parts();
        parts.centroids[3].weight = f64::INFINITY;
        TDigest::from_parts(parts);
    }

    #[test]
    fn parts_round_trip_is_bit_identical_to_flushed_state() {
        let mut d = uniform_digest(10_000);
        // Parts taken over a dirty buffer equal the flushed state (same
        // compression routine) except the pass counter, which only counts
        // real flushes.
        let dirty = TDigest::from_parts(d.to_parts());
        d.flush();
        assert_eq!(dirty.quantile(0.5).to_bits(), d.quantile(0.5).to_bits());
        let restored = TDigest::from_parts(d.to_parts());
        assert_eq!(restored.centroids, d.centroids);
        assert_eq!(restored.total_weight.to_bits(), d.total_weight.to_bits());
        assert_eq!(restored.min.to_bits(), d.min.to_bits());
        assert_eq!(restored.max.to_bits(), d.max.to_bits());
        assert_eq!(restored.compressions, d.compressions);
        for &q in &[0.0, 0.01, 0.5, 0.99, 1.0] {
            assert_eq!(restored.quantile(q).to_bits(), d.quantile(q).to_bits());
        }
        // Continued inserts behave identically on both sides.
        let (mut x, mut y) = (restored, d);
        for i in 0..2_000 {
            let v = (i as f64 * 0.7548776662466927).fract();
            x.insert(v);
            y.insert(v);
        }
        assert_eq!(x.quantile(0.5).to_bits(), y.quantile(0.5).to_bits());
    }

    #[test]
    fn empty_digest_parts_round_trip() {
        let d = TDigest::new(100.0);
        let restored = TDigest::from_parts(d.to_parts());
        assert!(restored.is_empty());
        assert_eq!(restored.centroid_count(), 0);
    }

    #[test]
    fn the_buffer_costs_what_it_holds() {
        let mut d = TDigest::new(100.0);
        assert_eq!(d.buffer.capacity() + d.weights.capacity() + d.centroids.capacity(), 0);
        for i in 0..30 {
            d.insert(i as f64);
        }
        assert_eq!(d.buffer.capacity(), FIRST_BUFFER_LEN, "one allocation covers 30 samples");
        assert_eq!(d.weights.capacity(), 0, "unit weights are implicit");
        d.insert_weighted(30.0, 2.0);
        assert_eq!(d.weights.len(), d.buffer.len(), "promoted in place");
        assert_eq!(d.count(), 32.0);
        for i in 0..BUFFER_LEN {
            d.insert(i as f64);
        }
        assert_eq!(d.buffer.capacity(), BUFFER_LEN, "the batch compression keeps the buffer");
        assert!(
            d.centroids.capacity() <= d.centroids.len() + d.centroids.len() / 4,
            "and trims the centroids it made"
        );
        d.flush();
        assert_eq!(d.buffer.capacity() + d.weights.capacity(), 0, "an explicit flush releases it");
        assert!(d.centroids.capacity() <= d.centroids.len() + d.centroids.len() / 4);
        assert_eq!(d.count(), 32.0 + BUFFER_LEN as f64);
    }

    /// The digest as it was when every buffered sample was an eager 16-byte
    /// `Centroid`: the reference the content-sized buffer must match bit
    /// for bit.
    struct Eager {
        centroids: Vec<Centroid>,
        buffer: Vec<Centroid>,
        total_weight: f64,
        compressions: u64,
    }

    impl Eager {
        fn push(&mut self, c: Centroid) {
            self.buffer.push(c);
            if self.buffer.len() >= BUFFER_LEN {
                self.flush();
            }
        }

        fn merge(&mut self, other: &Eager) {
            other.centroids.iter().chain(&other.buffer).for_each(|c| self.push(*c));
        }

        fn flush(&mut self) {
            if !self.buffer.is_empty() {
                self.centroids.append(&mut self.buffer);
                self.total_weight = compress_centroids(&mut self.centroids, 100.0);
                self.compressions += 1;
            }
        }

        fn count(&self) -> f64 {
            self.total_weight + self.buffer.iter().map(|c| c.weight).sum::<f64>()
        }

        fn view(&self) -> Vec<Centroid> {
            let mut all = [&self.centroids[..], &self.buffer[..]].concat();
            if !self.buffer.is_empty() {
                compress_centroids(&mut all, 100.0);
            }
            all
        }
    }

    fn bits(centroids: &[Centroid]) -> Vec<(u64, u64)> {
        centroids.iter().map(|c| (c.mean.to_bits(), c.weight.to_bits())).collect()
    }

    use proptest::prelude::*;

    proptest! {
        /// Arbitrary interleavings of unit inserts, weighted inserts, merges
        /// of a dirty digest and explicit flushes leave exactly the
        /// centroids, count and pass counter the eager buffer left.
        #[test]
        fn content_sized_buffer_matches_the_eager_one(
            ops in prop::collection::vec((0u8..10, 0u32..400, 1u8..8, 1usize..700), 1..400),
        ) {
            let new_pair = || {
                let eager = Eager {
                    centroids: Vec::new(),
                    buffer: Vec::new(),
                    total_weight: 0.0,
                    compressions: 0,
                };
                (TDigest::new(100.0), eager)
            };
            let (mut d, mut eager) = new_pair();
            for &(op, v, w, n) in &ops {
                // A coarse grid, so equal means with different weights occur.
                let (value, weight) = (v as f64 * 0.5, w as f64 * 0.5);
                match op {
                    0..=5 => {
                        d.insert(value);
                        eager.push(Centroid { mean: value, weight: 1.0 });
                    }
                    6 | 7 => {
                        d.insert_weighted(value, weight);
                        eager.push(Centroid { mean: value, weight });
                    }
                    8 => {
                        // `n` samples: below 512 a dirty buffer only, above
                        // it centroids and a dirty buffer.
                        let (mut other, mut other_eager) = new_pair();
                        for i in 0..n {
                            let (x, xw) = (value + (i % 37) as f64, if i % w as usize == 0 { weight } else { 1.0 });
                            other.insert_weighted(x, xw);
                            other_eager.push(Centroid { mean: x, weight: xw });
                        }
                        d.merge(&other);
                        eager.merge(&other_eager);
                    }
                    _ => {
                        d.flush();
                        eager.flush();
                    }
                }
                prop_assert_eq!(d.count().to_bits(), eager.count().to_bits());
            }
            let parts = d.to_parts();
            prop_assert_eq!(bits(&parts.centroids), bits(&eager.view()));
            prop_assert_eq!(parts.compressions, eager.compressions);
        }

        /// Up to one batch of unit samples — ties, ±0.0 — handed over whole
        /// is the digest their inserts make: buffer, extremes, counts, and
        /// what inserts after it make.
        #[test]
        fn unit_samples_handed_over_are_their_inserts(
            grid in prop::collection::vec(0u8..12, 0..BUFFER_LEN + 1),
            after in 0usize..600,
        ) {
            let samples: Vec<f64> =
                grid.iter().map(|&g| if g == 11 { -0.0 } else { g as f64 * 0.5 }).collect();
            let mut inserted = TDigest::new(100.0);
            samples.iter().for_each(|&v| inserted.insert(v));
            let mut built = TDigest::from_unit_samples(100.0, samples);
            let state = |d: &TDigest| {
                let scalars = [d.min, d.max, d.total_weight, d.buffered_weight].map(f64::to_bits);
                let buffer: Vec<u64> = d.buffer.iter().map(|v| v.to_bits()).collect();
                (scalars, buffer, bits(&d.centroids), d.compressions)
            };
            for i in 0..=after {
                prop_assert_eq!(state(&built), state(&inserted));
                prop_assert!(built.buffer.capacity() <= BUFFER_LEN, "the buffer outgrew a batch");
                let v = (i % 7) as f64;
                built.insert(v);
                inserted.insert(v);
            }
        }

        /// The bracketed merge bound decides as the per-element test does,
        /// bit for bit, from scratch and over a prior centroid list: values
        /// on a coarse grid (ties), ±0.0, 1e-300 to 1e300, or uniform;
        /// weights unit, on a grid, or anywhere in [1e-3, 1e12].
        #[test]
        fn the_bracketed_bound_is_the_per_element_test(
            compression in prop::sample::select(vec![10.0, 25.0, 100.0, 1_000.0, 1e5]),
            weights in 0u8..3,
            prior in prop::collection::vec(any::<u64>(), 1..400),
            items in prop::collection::vec(any::<u64>(), 1..3_000),
        ) {
            let unit = |r: u64| (r >> 11) as f64 / (1u64 << 53) as f64;
            let point = |r: u64| {
                let sign = if r & 1 == 0 { 1.0 } else { -1.0 };
                let exponent = ((r >> 16) % 301) as i32;
                let mean = match (r >> 1) & 3 {
                    0 => ((r >> 8) & 15) as f64 * 0.5,
                    1 if (r >> 8) & 7 == 0 => sign * 0.0,
                    1 => sign * (1.0 + unit(r)) * 10f64.powi(exponent),
                    2 => sign * (1.0 + unit(r)) * 10f64.powi(-exponent),
                    _ => unit(r) * 2_000.0 - 1_000.0,
                };
                let weight = match weights {
                    0 => 1.0,
                    1 => ((r >> 24) & 7) as f64 * 0.5 + 0.5,
                    _ => 10f64.powf(unit(r.rotate_left(29)) * 15.0 - 3.0),
                };
                Centroid { mean, weight }
            };
            let mut all: Vec<Centroid> = prior.into_iter().map(point).collect();
            assert_compresses_as_per_element(&mut all, compression);
            all.extend(items.into_iter().map(point));
            assert_compresses_as_per_element(&mut all, compression);
        }
    }

    /// The merge pass as it was before the bracketed bound, two `asin`s an
    /// input element: the reference `compress_centroids` must match.
    fn compress_per_element(all: &mut Vec<Centroid>, compression: f64) -> f64 {
        all.sort_unstable_by(|a, b| a.mean.total_cmp(&b.mean));
        let total: f64 = all.iter().map(|c| c.weight).sum();
        let mut merged: Vec<Centroid> = Vec::with_capacity(all.len() / 2 + 1);
        let mut acc = all[0];
        let mut w_before = 0.0;
        for c in all.drain(..).skip(1) {
            let q_lo = w_before / total;
            let q_hi = (w_before + acc.weight + c.weight) / total;
            if k1(compression, q_hi.min(1.0)) - k1(compression, q_lo) <= 1.0 {
                let w = acc.weight + c.weight;
                acc.mean += (c.mean - acc.mean) * c.weight / w;
                acc.weight = w;
            } else {
                w_before += acc.weight;
                merged.push(acc);
                acc = c;
            }
        }
        merged.push(acc);
        *all = merged;
        total
    }

    /// Compress `all` in place and assert the per-element pass would have
    /// made the same centroids and total, bit for bit.
    fn assert_compresses_as_per_element(all: &mut Vec<Centroid>, compression: f64) {
        let mut reference = all.clone();
        let want = compress_per_element(&mut reference, compression);
        let total = compress_centroids(all, compression);
        assert_eq!(total.to_bits(), want.to_bits(), "total at δ = {compression}");
        assert_eq!(bits(all), bits(&reference), "centroids at δ = {compression}");
    }

    /// The bound `k1(q_lo) + 1` of a centroid starting at `q_lo`, as a
    /// quantile: where the bracket is centred.
    fn crossing(compression: f64, q_lo: f64) -> f64 {
        let theta = (k1(compression, q_lo) + 1.0) / (compression / (2.0 * std::f64::consts::PI));
        (theta.sin() + 1.0) / 2.0
    }

    #[test]
    fn lists_too_short_to_merge_decide_as_the_per_element_test() {
        // All-unit lists up to and past 2δ/π, where skipping the pass gives
        // way to running it; below 0.95·2δ/π, the same lists with one weight
        // that is not 1, which must run it.
        let two_over_pi = std::f64::consts::FRAC_2_PI;
        for compression in [10.0, 25.0, 100.0, 1_000.0] {
            let (mut unit_merged, mut weighted_merged) = (false, false);
            for len in 1..=(two_over_pi * compression).ceil() as usize + 10 {
                // Out of order, with ties and a signed zero.
                let unit: Vec<Centroid> = (0..len)
                    .map(|i| match i * 7 % 11 {
                        0 => -0.0,
                        m => m as f64 * 0.5,
                    })
                    .map(|mean| Centroid { mean, weight: 1.0 })
                    .collect();
                let mut all = unit.clone();
                assert_compresses_as_per_element(&mut all, compression);
                unit_merged |= all.len() < len;
                if (len as f64) >= 0.95 * two_over_pi * compression {
                    continue;
                }
                for weight in [0.5, 1.0 + f64::EPSILON, 3.0, 1e3] {
                    let mut all = unit.clone();
                    all[len / 2].weight = weight;
                    assert_compresses_as_per_element(&mut all, compression);
                    weighted_merged |= all.len() < len;
                }
            }
            assert!(unit_merged && weighted_merged, "δ = {compression}: nothing merged");
        }
    }

    #[test]
    fn the_band_and_its_edges_decide_as_the_per_element_test() {
        // A centroid starting at `q_lo` (after one element of that weight,
        // which stands alone) meets a pair whose merge lands `d` from the
        // crossing: inside the band, on its edges, and just outside.
        let offsets = [0.0, 1e-16, 1e-15, 1e-12, 5e-10, 1e-9, 1.000_001e-9, 2e-9, 1e-8];
        for compression in [10.0, 25.0, 100.0, 1_000.0, 1e5] {
            for q_lo in [0.0, 0.5, 0.9] {
                let mut merged = Vec::new();
                for d in offsets.iter().flat_map(|&d| [d, -d]) {
                    let half = (crossing(compression, q_lo) - q_lo + d) / 2.0;
                    let mut all: Vec<Centroid> = [q_lo, half, half, 1.0 - q_lo - 2.0 * half]
                        .iter()
                        .enumerate()
                        .filter(|&(_, &w)| w > 0.0)
                        .map(|(i, &weight)| Centroid { mean: i as f64, weight })
                        .collect();
                    assert_compresses_as_per_element(&mut all, compression);
                    // The pair at means 1 and 2 merged to 1.5, or did not.
                    merged.push(all.iter().any(|c| c.mean == 1.5));
                }
                assert!(
                    merged.contains(&true) && merged.contains(&false),
                    "δ = {compression}, q_lo = {q_lo}: the sweep never crossed"
                );
            }
        }
    }

    #[test]
    fn the_cut_off_and_odd_totals_decide_as_the_per_element_test() {
        // Centroids starting either side of θ = π/2 − 1e-4, where the
        // bracket gives way to the exact test, and of θ = π/2, past which
        // everything merges; then a tail of small ones.
        let scale = |compression: f64| compression / (2.0 * std::f64::consts::PI);
        let cuts = [std::f64::consts::FRAC_PI_2 - 1e-4, std::f64::consts::FRAC_PI_2];
        for (compression, theta) in
            [10.0, 100.0, 1e5].into_iter().flat_map(|c| cuts.map(|t| (c, t)))
        {
            let q_cut = ((theta - 1.0 / scale(compression)).sin() + 1.0) / 2.0;
            for f in [-0.5, -1e-3, -1e-6, -1e-9, 0.0, 1e-9, 1e-6, 1e-3, 0.5] {
                let head = Centroid { mean: 0.0, weight: q_cut + f * (1.0 - q_cut) };
                let mut all = vec![head];
                let tail = (1.0 - head.weight) / 40.0;
                all.extend((1..=40).map(|i| Centroid { mean: i as f64, weight: tail }));
                assert_compresses_as_per_element(&mut all, compression);
            }
        }
        // A weight sum that overflows, and one that is subnormal.
        for weight in [f64::MAX / 3.0, 5e-324, 1e-310] {
            let mut all: Vec<Centroid> =
                (0..700).map(|i| Centroid { mean: (i % 13) as f64, weight }).collect();
            assert_compresses_as_per_element(&mut all, 100.0);
        }
    }

    #[test]
    fn normal_ish_distribution_median() {
        // Sum of 4 uniforms ≈ bell curve centered at 2.
        let mut d = TDigest::new(100.0);
        for i in 0..40_000usize {
            let u = |k: usize| ((i * 4 + k) as f64 * 0.6180339887498949).fract();
            d.insert(u(0) + u(1) + u(2) + u(3));
        }
        assert!((d.quantile(0.5) - 2.0).abs() < 0.02);
    }
}
