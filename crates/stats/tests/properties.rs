//! Property tests over the statistics crate's public API.

use edgeperf_stats::cdf::CdfBuilder;
use edgeperf_stats::{keyed_quantiles_in_place, quantile_sorted, quantiles_in_place, TDigest};
use proptest::prelude::*;

proptest! {
    /// t-digest quantiles stay within the true order-statistic envelope
    /// (± a small rank tolerance) for arbitrary inputs.
    #[test]
    fn tdigest_quantiles_are_rank_accurate(
        mut values in prop::collection::vec(-1.0e6f64..1.0e6, 100..2_000),
        q in 0.05f64..0.95,
    ) {
        let mut d = TDigest::new(100.0);
        for &v in &values {
            d.insert(v);
        }
        let est = d.quantile(q);
        values.sort_unstable_by(f64::total_cmp);
        // The estimate must sit between the order statistics 5% of rank
        // on either side of q.
        let n = values.len();
        let lo_idx = ((q - 0.05) * n as f64).floor().max(0.0) as usize;
        let hi_idx = (((q + 0.05) * n as f64).ceil() as usize).min(n - 1);
        prop_assert!(est >= values[lo_idx], "q={q}: {est} < {}", values[lo_idx]);
        prop_assert!(est <= values[hi_idx], "q={q}: {est} > {}", values[hi_idx]);
    }

    /// CDF quantile and fraction_leq are mutually consistent:
    /// fraction_leq(quantile(q)) ≥ q.
    #[test]
    fn cdf_quantile_fraction_consistency(
        values in prop::collection::vec(-50.0f64..50.0, 2..300),
        q in 0.0f64..=1.0,
    ) {
        let mut b = CdfBuilder::new();
        for &v in &values {
            b.push(v);
        }
        let cdf = b.build();
        let x = cdf.quantile(q);
        prop_assert!(cdf.fraction_leq(x) >= q - 1e-9);
    }

    /// Querying a digest with a dirty insert buffer gives the same answer
    /// as flushing that digest first, across arbitrary interleavings of
    /// inserts, merges, and queries — and the query itself never mutates
    /// observable state. The lazy view compresses through the same
    /// routine as `flush`, so the match is exact; 1e-9 is safety margin.
    #[test]
    fn buffered_tdigest_queries_match_flushed(
        ops in prop::collection::vec(
            (0u8..3, -1.0e4f64..1.0e4, 0.01f64..0.99),
            1..120,
        ),
    ) {
        let mut d = TDigest::new(100.0);
        for &(op, v, q) in &ops {
            match op {
                0 => d.insert(v),
                1 => {
                    // Merge a small digest with its own dirty buffer.
                    let mut other = TDigest::new(100.0);
                    for i in 0..7 {
                        other.insert(v + i as f64);
                    }
                    d.merge(&other);
                }
                _ if d.is_empty() => {} // quantile of an empty digest panics
                _ => {
                    // Query through the buffered view, then flush a copy
                    // and re-query: identical answers required.
                    let dirty_q = d.quantile(q);
                    let mut flushed = d.clone();
                    flushed.flush();
                    let fq = flushed.quantile(q);
                    prop_assert!(
                        (dirty_q - fq).abs() <= 1e-9 || (dirty_q.is_nan() && fq.is_nan()),
                        "quantile({q}): dirty {dirty_q} vs flushed {fq}"
                    );
                    // The dirty query must not have changed the answer a
                    // later identical query sees.
                    let again = d.quantile(q);
                    prop_assert!(
                        again.to_bits() == dirty_q.to_bits()
                            || (again.is_nan() && dirty_q.is_nan()),
                        "query mutated state: {dirty_q} then {again}"
                    );
                }
            }
        }
        // Settle and spot-check the full quantile range one last time.
        if !d.is_empty() {
            let mut flushed = d.clone();
            flushed.flush();
            for q in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
                let (a, b) = (d.quantile(q), flushed.quantile(q));
                prop_assert!(
                    (a - b).abs() <= 1e-9 || (a.is_nan() && b.is_nan()),
                    "final quantile({q}): {a} vs {b}"
                );
            }
        }
    }

    /// quantile_sorted is monotone in q.
    #[test]
    fn quantile_monotone_in_q(
        mut values in prop::collection::vec(-1.0e3f64..1.0e3, 2..100),
        q1 in 0.0f64..=1.0,
        q2 in 0.0f64..=1.0,
    ) {
        values.sort_unstable_by(f64::total_cmp);
        let (qa, qb) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        prop_assert!(quantile_sorted(&values, qa) <= quantile_sorted(&values, qb) + 1e-12);
    }
}

/// The ranks `quantiles_in_place` reads against the CDF it replaces, bit
/// for bit: every `q` alone and all of them in one call.
fn assert_reads_the_cdfs_ranks(what: &str, values: &[f64]) {
    let mut b = CdfBuilder::new();
    values.iter().for_each(|&v| b.push(v));
    let cdf = b.build();
    let n = values.len() as f64;
    let qs = [0.0, 1.0 / n, 0.25, 0.5, 0.8, 1.0 - 1.0 / n, 1.0];
    let want: Vec<u64> = qs.iter().map(|&q| cdf.quantile(q).to_bits()).collect();
    let bits = |qs: &[f64]| -> Vec<u64> {
        quantiles_in_place(|| values.iter().copied(), qs).iter().map(|v| v.to_bits()).collect()
    };
    assert_eq!(bits(&qs), want, "{what}: every rank in one call");
    for (q, want) in qs.iter().zip(&want) {
        assert_eq!(bits(&[*q]), [*want], "{what}: q = {q}");
    }
}

#[test]
fn ranks_read_in_place_are_the_cdfs_bit_for_bit() {
    // A seeded generator: the multisets are the same on every run.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut unit = move || {
        state =
            state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut draw =
        |n: usize, f: &dyn Fn(f64) -> f64| -> Vec<f64> { (0..n).map(|_| f(unit())).collect() };
    // 1.0625 opened a 16-bit bucket of the two-walk reading; 2.0 opens a
    // top bucket (an octave) and 1 + 2⁻¹² a sub-bucket of the three-walk one.
    let edge = 1.0625;
    let (octave, sub) = (2.0, 1.0 + 1.0 / 4096.0);
    let cases: Vec<(&str, Vec<f64>)> = vec![
        ("n = 1", vec![42.5]),
        ("one value only", vec![7.25; 1_000]),
        ("heavy duplicates", draw(20_000, &|u| (u * 12.0).floor() / 4.0)),
        ("point masses at 0 and 1", draw(20_000, &|u| (u * 1.6 - 0.3).clamp(0.0, 1.0))),
        ("all in one bucket", draw(5_000, &|u| 1.0 + u * 0.0624)),
        ("straddling a bucket edge", draw(5_001, &|u| edge + (u - 0.5) * 1e-9)),
        ("two samples either side of an edge", vec![edge, f64::from_bits(edge.to_bits() - 1)]),
        ("straddling an octave", draw(5_001, &|u| octave + (u - 0.5) * 1e-9)),
        ("straddling a sub-bucket", draw(5_001, &|u| sub + (u - 0.5) * 1e-12)),
        ("either side of a sub-bucket edge", vec![sub, f64::from_bits(sub.to_bits() - 1)]),
        ("negatives", draw(10_000, &|u| -1_000.0 * u)),
        ("both signs", draw(10_001, &|u| (u - 0.5) * 1e6)),
        ("-0.0 beside 0.0", vec![0.0, -0.0, 0.0, -0.0, 0.0]),
        ("-0.0 below zeros and positives", vec![3.0, 0.0, 0.0, -0.0, 0.0, 0.0, 5.0, 0.0]),
        ("zeros with no -0.0", vec![0.0, 0.0, 1.0, 0.0]),
        ("-0.0 alone among negatives", vec![-1.0, -0.0, -2.0]),
        ("subnormals", draw(4_000, &|u| (u - 0.5) * 1e-310)),
        ("across magnitudes", draw(50_000, &|u| (u * 600.0 - 300.0).exp2())),
        ("3 M uniform", draw(3_000_000, &|u| 1.0 + 399.0 * u)),
    ];
    for (what, values) in &cases {
        assert_reads_the_cdfs_ranks(what, values);
    }
}

/// The ranks `keyed_quantiles_in_place` reads against the CDFs it
/// replaces, bit for bit: of every sample, and of each key's.
fn assert_reads_each_keys_cdf(what: &str, samples: &[(u8, f64)]) {
    let qs = [0.0, 0.25, 0.5, 0.8, 1.0];
    let cdf_ranks = |key: Option<u8>| -> (u64, Vec<u64>) {
        let mut b = CdfBuilder::new();
        let of = samples.iter().filter(|(k, _)| key.is_none_or(|key| key == *k));
        of.clone().for_each(|&(_, v)| b.push(v));
        let cdf = b.build();
        (of.count() as u64, qs.iter().map(|&q| cdf.quantile(q).to_bits()).collect())
    };
    let bits = |r: &edgeperf_stats::Ranks| (r.n, r.quantiles.iter().map(|v| v.to_bits()).collect());
    let (overall, by_key) = keyed_quantiles_in_place(|| samples.iter().copied(), &qs);
    assert_eq!(bits(&overall), cdf_ranks(None), "{what}: every sample");
    let mut keys: Vec<u8> = samples.iter().map(|&(k, _)| k).collect();
    keys.sort_unstable();
    keys.dedup();
    assert_eq!(by_key.keys().copied().collect::<Vec<_>>(), keys, "{what}: the keys present");
    for (key, ranks) in &by_key {
        assert_eq!(bits(ranks), cdf_ranks(Some(*key)), "{what}: key {key}");
    }
}

#[test]
fn each_keys_ranks_read_in_place_are_its_cdfs_bit_for_bit() {
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut unit = move || {
        state =
            state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    // Continents' MinRTTs: each key its own spread, some keys rare.
    let continents: Vec<(u8, f64)> = (0..60_000)
        .map(|i| {
            let key = [0u8, 1, 2, 3, 4, 5, 5, 5][i % 8] + u8::from(i % 997 == 0);
            (key, 5.0 + 20.0 * f64::from(key) + 200.0 * unit() * unit())
        })
        .collect();
    let cases: Vec<(&str, Vec<(u8, f64)>)> = vec![
        ("one key", (0..1_000).map(|i| (3, f64::from(i % 17))).collect()),
        ("one sample a key", vec![(0, 1.5), (9, -2.0), (255, 0.0)]),
        ("keys sharing every bucket", (0..20_000).map(|i| ((i % 3) as u8, unit())).collect()),
        ("-0.0 under one key only", vec![(1, -0.0), (1, 0.0), (2, 0.0), (2, 0.0), (1, 0.0)]),
        ("continents", continents),
    ];
    for (what, samples) in &cases {
        assert_reads_each_keys_cdf(what, samples);
    }
}

#[test]
#[should_panic(expected = "quantile of no samples")]
fn ranks_of_no_samples_do_not_exist() {
    quantiles_in_place(std::iter::empty::<f64>, &[0.5]);
}
