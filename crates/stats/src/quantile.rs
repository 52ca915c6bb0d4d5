//! Exact quantiles on finite samples.
//!
//! The analysis pipeline aggregates at most a few thousand sessions per
//! (user group, window) aggregation, so exact order statistics are cheap;
//! t-digests are reserved for the global, streaming figures.

/// Linear-interpolated quantile of an already **sorted** slice.
///
/// Uses the common "type 7" (R default) definition: the quantile at rank
/// `q * (n - 1)` with linear interpolation between neighbours.
///
/// # Panics
/// Panics if `sorted` is empty or `q` is outside [0, 1].
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty slice");
    assert!((0.0..=1.0).contains(&q), "quantile q must be in [0,1], got {q}");
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let pos = q * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Quantile of an unsorted slice.
///
/// Copies the input, then selects the one or two order statistics the
/// type-7 definition needs via `select_nth_unstable_by` — O(n) expected
/// instead of a full O(n log n) sort. NaN inputs order last under
/// `total_cmp` rather than panicking.
pub fn quantile_unsorted(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of empty slice");
    assert!((0.0..=1.0).contains(&q), "quantile q must be in [0,1], got {q}");
    let n = values.len();
    if n == 1 {
        return values[0];
    }
    let pos = q * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let frac = pos - lo as f64;
    let mut v = values.to_vec();
    let (_, &mut lo_val, above) = v.select_nth_unstable_by(lo, f64::total_cmp);
    if frac == 0.0 {
        return lo_val;
    }
    // The rank-(lo+1) statistic is the minimum of the right partition.
    let hi_val = above.iter().copied().min_by(f64::total_cmp).expect("rank lo+1 in bounds");
    lo_val * (1.0 - frac) + hi_val * frac
}

/// Median convenience wrapper.
pub fn median_sorted(sorted: &[f64]) -> f64 {
    quantile_sorted(sorted, 0.5)
}

/// What [`keyed_quantiles_in_place`] reads of one set of samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Ranks {
    /// Samples in the set.
    pub n: u64,
    /// One value a `q` asked for, in the order asked.
    pub quantiles: Vec<f64>,
}

/// `v`'s bits as a key that ascends as `total_cmp` does: a negative's bits
/// all flipped, a positive's sign bit alone.
fn order_key(v: f64) -> u64 {
    let bits = v.to_bits();
    bits ^ ((bits as i64 >> 63) as u64 | 1 << 63)
}

/// Bits of the order key each walk histograms: the first walk the sign
/// and exponent, the second the next twelve, the mantissa's top.
const WALK_BITS: u32 = 12;
const BUCKETS: usize = 1 << WALK_BITS;

/// The bucket of `key` that a walk reading `prefix` bits of it sees.
fn bucket(key: u64, prefix: u32) -> usize {
    ((key >> (64 - prefix)) & (BUCKETS as u64 - 1)) as usize
}

/// Exact unweighted quantiles of a sample source that can be walked three
/// times, read in place, of every sample and of each key's: for each `q`
/// the bits a [`crate::cdf::CdfBuilder`] fed the set answers
/// `build().quantile(q)` with — the k-th smallest, k the least integer
/// with `k as f64 ≥ q · n as f64` and at least 1 — without that CDF's 16 B
/// a sample. Walk one histograms the top 12 bits (sign and exponent) of
/// each sample's `total_cmp` key, a 4,096-counter histogram a key; walk
/// two histograms the next 12 bits inside each bucket a wanted rank fell
/// in, one histogram a (set, bucket); walk three keeps only the samples
/// of the sub-buckets a wanted rank fell in, 8 B each, and selects there.
/// Counters are `u64` sums of 32 KiB a histogram, so the transient is
/// 32 KiB a key, then 32 KiB a wanted (set, bucket), then the wanted
/// sub-buckets' samples — each a 4,096th of an octave. With one key the
/// overall set is the key's and is read once. `samples()` must yield the
/// same multiset on every call.
///
/// # Panics
/// Panics on no samples, a non-finite sample, or a `q` outside [0, 1].
pub fn keyed_quantiles_in_place<I: Iterator<Item = (u8, f64)>>(
    samples: impl Fn() -> I,
    qs: &[f64],
) -> (Ranks, std::collections::BTreeMap<u8, Ranks>) {
    for &q in qs {
        assert!((0.0..=1.0).contains(&q), "quantile q must be in [0,1], got {q}");
    }
    // Walk one: a top-bucket histogram a key, grown on first sight.
    let mut coarse: Vec<Vec<u64>> = Vec::new();
    let mut negative_zero: Vec<bool> = Vec::new();
    samples().for_each(|(key, v)| {
        assert!(v.is_finite(), "bad quantile sample {v}");
        let k = key as usize;
        if coarse.len() <= k {
            coarse.resize(k + 1, Vec::new());
            negative_zero.resize(k + 1, false);
        }
        if coarse[k].is_empty() {
            coarse[k] = vec![0; BUCKETS];
        }
        coarse[k][bucket(order_key(v), WALK_BITS)] += 1;
        negative_zero[k] |= v.to_bits() == (-0.0f64).to_bits();
    });
    let keys: Vec<u8> =
        (0..coarse.len()).filter(|&k| !coarse[k].is_empty()).map(|k| k as u8).collect();
    assert!(!keys.is_empty(), "quantile of no samples");
    // Set 0 is every sample, set `1 + i` key `keys[i]`'s; a lone key's set
    // is set 0.
    let sets = if keys.len() == 1 { 1 } else { 1 + keys.len() };
    let in_set = |set: usize, key: u8| set == 0 || keys[set - 1] == key;
    let coarse_count = |set: usize, b: usize| -> u64 {
        if set == 0 {
            keys.iter().map(|&k| coarse[k as usize][b]).sum()
        } else {
            coarse[keys[set - 1] as usize][b]
        }
    };
    let n_of: Vec<u64> =
        (0..sets).map(|set| (0..BUCKETS).map(|b| coarse_count(set, b)).sum()).collect();
    // Where rank `rank` of `counts` lies: its bucket, and its rank there.
    let locate = |mut rank: u64, counts: &dyn Fn(usize) -> u64| -> (usize, u64) {
        for b in 0..BUCKETS {
            let c = counts(b);
            if rank < c {
                return (b, rank);
            }
            rank -= c;
        }
        panic!("the second pass saw other samples than the first");
    };
    // Each wanted rank as (set, top bucket, its 0-based rank within).
    let wanted: Vec<(usize, usize, u64)> = (0..sets)
        .flat_map(|set| qs.iter().map(move |&q| (set, q)))
        .map(|(set, q)| {
            let rank = ((q * n_of[set] as f64).ceil() as u64).max(1) - 1;
            let (b, within) = locate(rank, &|b| coarse_count(set, b));
            (set, b, within)
        })
        .collect();
    drop(coarse);

    // Walk two: a sub-bucket histogram a wanted (set, top bucket).
    let mut tops: Vec<(usize, usize)> = wanted.iter().map(|&(set, b, _)| (set, b)).collect();
    tops.sort_unstable();
    tops.dedup();
    let mut fine: Vec<Vec<u64>> = vec![vec![0; BUCKETS]; tops.len()];
    samples().for_each(|(key, v)| {
        let k = order_key(v);
        let top = bucket(k, WALK_BITS);
        for (i, &(set, b)) in tops.iter().enumerate() {
            if b == top && in_set(set, key) {
                fine[i][bucket(k, 2 * WALK_BITS)] += 1;
            }
        }
    });
    // Each wanted rank as (set, 24-bit sub-bucket, its rank within).
    let wanted: Vec<(usize, usize, u64)> = wanted
        .iter()
        .map(|&(set, b, within)| {
            let counts = &fine[tops.binary_search(&(set, b)).expect("every top is histogrammed")];
            let (sub, rank) = locate(within, &|s| counts[s]);
            (set, b << WALK_BITS | sub, rank)
        })
        .collect();

    // Walk three: the samples of each wanted (set, sub-bucket).
    let mut subs: Vec<(usize, usize)> = wanted.iter().map(|&(set, s, _)| (set, s)).collect();
    subs.sort_unstable();
    subs.dedup();
    let mut kept: Vec<Vec<f64>> = subs
        .iter()
        .map(|&(set, s)| {
            let counts = &fine[tops.binary_search(&(set, s >> WALK_BITS)).expect("histogrammed")];
            Vec::with_capacity(counts[s & (BUCKETS - 1)] as usize)
        })
        .collect();
    drop(fine);
    samples().for_each(|(key, v)| {
        let sub = (order_key(v) >> (64 - 2 * WALK_BITS)) as usize;
        for (i, &(set, s)) in subs.iter().enumerate() {
            if s == sub && in_set(set, key) {
                kept[i].push(v);
            }
        }
    });
    let mut select = |&(set, s, rank): &(usize, usize, u64)| {
        let held =
            &mut kept[subs.binary_search(&(set, s)).expect("every wanted sub-bucket is kept")];
        assert!((rank as usize) < held.len(), "the third pass saw other samples than the first");
        let v = *held.select_nth_unstable_by(rank as usize, f64::total_cmp).1;
        // A CDF point is the first of a run of `==` values, and -0.0
        // orders just before the 0.0 it equals.
        let any_negative_zero = match set {
            0 => negative_zero.iter().any(|&z| z),
            _ => negative_zero[keys[set - 1] as usize],
        };
        if v.to_bits() == 0 && any_negative_zero {
            -0.0
        } else {
            v
        }
    };
    let mut answers = wanted.iter().map(&mut select).collect::<Vec<f64>>().into_iter();
    let mut ranks: Vec<Ranks> = n_of
        .iter()
        .map(|&n| Ranks { n, quantiles: answers.by_ref().take(qs.len()).collect() })
        .collect();
    let overall = ranks.remove(0);
    let by_key = match ranks.is_empty() {
        true => std::iter::once((keys[0], overall.clone())).collect(),
        false => keys.iter().copied().zip(ranks).collect(),
    };
    (overall, by_key)
}

/// [`keyed_quantiles_in_place`] of one set: the ranks `qs` of every sample
/// `samples()` yields.
///
/// # Panics
/// Panics on no samples, a non-finite sample, or a `q` outside [0, 1].
pub fn quantiles_in_place<I: Iterator<Item = f64>>(
    samples: impl Fn() -> I,
    qs: &[f64],
) -> Vec<f64> {
    keyed_quantiles_in_place(|| samples().map(|v| (0, v)), qs).0.quantiles
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_element() {
        assert_eq!(quantile_sorted(&[42.0], 0.0), 42.0);
        assert_eq!(quantile_sorted(&[42.0], 0.5), 42.0);
        assert_eq!(quantile_sorted(&[42.0], 1.0), 42.0);
    }

    #[test]
    fn interpolates_between_points() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert!((quantile_sorted(&v, 0.5) - 2.5).abs() < 1e-12);
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&v, 1.0), 4.0);
    }

    #[test]
    fn median_odd_is_middle() {
        assert_eq!(median_sorted(&[1.0, 5.0, 9.0]), 5.0);
    }

    #[test]
    fn unsorted_matches_sorted() {
        let v = [3.0, 1.0, 2.0];
        assert_eq!(quantile_unsorted(&v, 0.5), 2.0);
    }

    #[test]
    fn selection_path_matches_full_sort() {
        // Deterministic scramble with duplicates; the select-based path
        // must agree bit-for-bit with sort + interpolate at every rank.
        let vals: Vec<f64> =
            (0..257).map(|i| (((i * 7919) % 997) as f64 / 31.0).floor() * 0.5).collect();
        let mut sorted = vals.clone();
        sorted.sort_unstable_by(f64::total_cmp);
        for i in 0..=100 {
            let q = i as f64 / 100.0;
            assert_eq!(
                quantile_unsorted(&vals, q).to_bits(),
                quantile_sorted(&sorted, q).to_bits(),
                "q={q}"
            );
        }
    }

    #[test]
    #[should_panic]
    fn empty_input_panics() {
        quantile_sorted(&[], 0.5);
    }
}
