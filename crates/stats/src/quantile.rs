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

/// Exact unweighted quantiles of a sample source that can be walked twice,
/// read in place: for each `q` the bits a [`crate::cdf::CdfBuilder`] fed
/// every sample answers `build().quantile(q)` with — the k-th smallest,
/// k the least integer with `k as f64 ≥ q · n as f64` and at least 1 —
/// without that CDF's 16 B a sample. Pass one histograms the top 16 bits of
/// each sample's `total_cmp` key (65,536 counters); pass two keeps only the
/// samples of the buckets a wanted rank falls in, 8 B each, and selects
/// there. `samples()` must yield the same multiset on every call.
///
/// # Panics
/// Panics on no samples, a non-finite sample, or a `q` outside [0, 1].
pub fn quantiles_in_place<I: Iterator<Item = f64>>(
    samples: impl Fn() -> I,
    qs: &[f64],
) -> Vec<f64> {
    // Sign, exponent and four mantissa bits, ascending as `total_cmp`
    // does: a negative's bits all flipped, a positive's sign bit alone.
    let bucket = |v: f64| {
        let bits = v.to_bits();
        ((bits ^ ((bits as i64 >> 63) as u64 | 1 << 63)) >> 48) as usize
    };
    let mut counts = vec![0usize; 1 << 16];
    let mut negative_zero = false;
    samples().for_each(|v| {
        assert!(v.is_finite(), "bad quantile sample {v}");
        counts[bucket(v)] += 1;
        negative_zero |= v.to_bits() == (-0.0f64).to_bits();
    });
    let n: usize = counts.iter().sum();
    assert!(n > 0, "quantile of no samples");
    // Each wanted rank as (its bucket, its 0-based rank within the bucket).
    let wanted = qs.iter().map(|&q| {
        assert!((0.0..=1.0).contains(&q), "quantile q must be in [0,1], got {q}");
        let mut rank = ((q * n as f64).ceil() as usize).max(1) - 1;
        let bucket = counts.iter().position(|&c| {
            let here = rank < c;
            rank -= if here { 0 } else { c };
            here
        });
        (bucket.expect("the rank is below n"), rank)
    });
    let wanted: Vec<(usize, usize)> = wanted.collect();
    let mut buckets: Vec<usize> = wanted.iter().map(|w| w.0).collect();
    buckets.sort_unstable();
    buckets.dedup();
    let mut kept: Vec<Vec<f64>> = buckets.iter().map(|&b| Vec::with_capacity(counts[b])).collect();
    drop(counts);
    samples().for_each(|v| {
        if let Ok(i) = buckets.binary_search(&bucket(v)) {
            kept[i].push(v);
        }
    });
    let select = |&(b, rank): &(usize, usize)| {
        let held = &mut kept[buckets.binary_search(&b).expect("every wanted bucket is kept")];
        assert!(rank < held.len(), "the second pass saw other samples than the first");
        let v = *held.select_nth_unstable_by(rank, f64::total_cmp).1;
        // A CDF point is the first of a run of `==` values, and -0.0
        // orders just before the 0.0 it equals.
        if v.to_bits() == 0 && negative_zero {
            -0.0
        } else {
            v
        }
    };
    wanted.iter().map(select).collect()
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
