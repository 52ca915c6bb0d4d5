//! Distribution helpers: standard normal CDF/inverse-CDF and binomial tails.
//!
//! These are the primitives the distribution-free median confidence
//! intervals (Price & Bonett 2002) are built from. They are implemented
//! here rather than pulled from a crate to keep the workspace dependency
//! surface small; accuracy is more than sufficient for CI construction
//! (|error| < 1.1e-7 for the inverse normal over (0, 1), set by `erfc`).

use std::sync::LazyLock;

/// Standard normal cumulative distribution function Φ(x).
///
/// Uses the relation Φ(x) = erfc(-x/√2)/2 with a high-accuracy rational
/// `erfc` approximation (from Numerical Recipes; relative error < 1.2e-7,
/// which is far below what order-statistic CIs can resolve).
pub(crate) fn norm_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / std::f64::consts::SQRT_2)
}

/// Complementary error function.
fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let ans = t
        * (-z * z - 1.26551223
            + t * (1.00002368
                + t * (0.37409196
                    + t * (0.09678418
                        + t * (-0.18628806
                            + t * (0.27886807
                                + t * (-1.13520398
                                    + t * (1.48851587 + t * (-0.82215223 + t * 0.17087277)))))))))
            .exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// Inverse of the standard normal CDF (quantile function), Φ⁻¹(p).
///
/// Acklam's rational approximation with one Halley step against
/// `norm_cdf`, whose `erfc` is good to 1.2e-7: measured absolute error up
/// to 1.05e-7 across (0, 1), largest near p = 0.478 and p = 0.522.
///
/// # Panics
/// Panics if `p` is not in the open interval (0, 1).
#[allow(clippy::excessive_precision)] // Acklam's published coefficients, kept verbatim
pub fn norm_inv_cdf(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "norm_inv_cdf requires p in (0,1), got {p}");

    // Coefficients for Acklam's approximation.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383577518672690e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One Halley refinement step against the forward CDF.
    let e = norm_cdf(x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (x * x / 2.0).exp();
    x - u / (1.0 + x * u / 2.0)
}

/// ln C(n, k) via ln-gamma, stable for large n.
pub(crate) fn ln_choose(n: u64, k: u64) -> f64 {
    assert!(k <= n);
    ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k)
}

/// ln(n!) for n < 32: the left fold of `ln(2..=n)` kept as its partial
/// sums, so each entry has the bits summing that range gives.
static SMALL_LN_FACTORIAL: LazyLock<[f64; 32]> = LazyLock::new(|| {
    let mut table = [0.0; 32];
    for m in 2..32 {
        table[m] = table[m - 1] + (m as f64).ln();
    }
    table
});

/// ln(n!) using Stirling's series for large n and a small lookup otherwise.
pub(crate) fn ln_factorial(n: u64) -> f64 {
    if n < 32 {
        return SMALL_LN_FACTORIAL[n as usize];
    }
    let x = n as f64 + 1.0;
    // Stirling series for ln Γ(x).
    (x - 0.5) * x.ln() - x + 0.5 * (2.0 * std::f64::consts::PI).ln() + 1.0 / (12.0 * x)
        - 1.0 / (360.0 * x * x * x)
}

/// P[Bin(n, 1/2) ≤ k]: the lower tail of a fair binomial.
///
/// Order-statistic confidence intervals for medians need exactly this tail.
/// The sum starts at [`first_term`]: `exp` rounds every term before it to
/// exactly `+0.0`, so skipping them changes no bit.
pub(crate) fn binom_half_cdf(n: u64, k: u64) -> f64 {
    if k >= n {
        return 1.0;
    }
    let ln_half_n = -(n as f64) * std::f64::consts::LN_2;
    let mut acc = 0.0;
    for i in first_term(n)..=k {
        acc += (ln_choose(n, i) + ln_half_n).exp();
    }
    acc.min(1.0)
}

/// The tail's first term i₀ = ⌊n/2 − √(400n)⌋. By Hoeffding C(n, i)/2ⁿ ≤
/// exp(−2(n/2 − i)²/n): a term below i₀ has a true log under −800, and for
/// n < 2³² Stirling's error and rounding stay far inside the 55 nats above
/// where `exp` underflows.
fn first_term(n: u64) -> u64 {
    if n >= 1 << 32 {
        return 0;
    }
    (n as f64 / 2.0 - (400.0 * n as f64).sqrt()) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norm_cdf_known_points() {
        assert!((norm_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((norm_cdf(1.959963985) - 0.975).abs() < 1e-6);
        assert!((norm_cdf(-1.959963985) - 0.025).abs() < 1e-6);
        assert!((norm_cdf(3.0) - 0.9986501).abs() < 1e-6);
    }

    #[test]
    fn norm_inv_cdf_round_trips() {
        for &p in &[0.001, 0.01, 0.025, 0.1, 0.25, 0.5, 0.75, 0.9, 0.975, 0.99, 0.999] {
            let x = norm_inv_cdf(p);
            assert!((norm_cdf(x) - p).abs() < 1e-7, "p={p} x={x}");
        }
    }

    #[test]
    fn norm_inv_cdf_median_is_zero() {
        assert!(norm_inv_cdf(0.5).abs() < 1e-6);
    }

    #[test]
    #[should_panic]
    fn norm_inv_cdf_rejects_zero() {
        norm_inv_cdf(0.0);
    }

    #[test]
    fn norm_inv_cdf_meets_reference_quantiles() {
        // Quantiles from Python's `statistics.NormalDist().inv_cdf`.
        for (p, want) in [
            (0.5, 0.0),
            (0.75, 0.6744897501960817),
            (0.975, 1.9599639845400536),
            (0.999, 3.090232306167813),
            (1e-9, -5.9978070150076865),
        ] {
            let got = norm_inv_cdf(p);
            assert!((got - want).abs() < 1e-7, "p={p}: {got} vs {want}");
        }
    }

    /// `ln(n!)` as it was summed on every call below 32.
    fn ln_factorial_fold(n: u64) -> f64 {
        if n < 2 {
            return 0.0;
        }
        if n < 32 {
            return (2..=n).map(|i| (i as f64).ln()).sum();
        }
        ln_factorial(n)
    }

    /// The tail as it was summed from its first term, over the fold.
    fn binom_half_cdf_full(n: u64, k: u64) -> f64 {
        if k >= n {
            return 1.0;
        }
        let ln_half_n = -(n as f64) * std::f64::consts::LN_2;
        let mut acc = 0.0;
        for i in 0..=k {
            acc += (term_ln(n, i) + ln_half_n).exp();
        }
        acc.min(1.0)
    }

    fn term_ln(n: u64, i: u64) -> f64 {
        ln_factorial_fold(n) - ln_factorial_fold(i) - ln_factorial_fold(n - i)
    }

    #[test]
    fn the_small_factorial_table_is_the_fold() {
        for n in 0..32 {
            assert_eq!(ln_factorial(n).to_bits(), ln_factorial_fold(n).to_bits(), "n = {n}");
        }
    }

    #[test]
    fn the_tail_from_its_first_nonzero_term_is_the_full_sum() {
        let order_stat_c = |n: u64| crate::median_ci::order_stat_c(n as usize) as u64;
        let same = |n: u64, k: u64| {
            let (got, want) = (binom_half_cdf(n, k), binom_half_cdf_full(n, k));
            assert_eq!(got.to_bits(), want.to_bits(), "n = {n}, k = {k}: {got} vs {want}");
        };
        let mut state = 0x9e37_79b9_7f4a_7c15_u64; // splitmix64, a fixed seed
        let mut random = |below: u64| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % below
        };
        for n in 1..=4_096 {
            same(n, order_stat_c(n) - 1);
            same(n, random(n + 1));
        }
        for n in [28_000, 100_000, 1_000_000] {
            let start = first_term(n);
            assert!(start > 0, "n = {n} skips nothing");
            let ln_half_n = -(n as f64) * std::f64::consts::LN_2;
            for i in 0..start {
                let term = (term_ln(n, i) + ln_half_n).exp();
                assert_eq!(term.to_bits(), 0, "n = {n}: term {i} is {term}, not +0.0");
            }
            same(n, order_stat_c(n) - 1);
            same(n, random(n / 2));
        }
    }

    #[test]
    fn ln_factorial_matches_direct() {
        let direct: f64 = (2..=40u64).map(|i| (i as f64).ln()).sum();
        assert!((ln_factorial(40) - direct).abs() < 1e-8);
        assert_eq!(ln_factorial(0), 0.0);
        assert_eq!(ln_factorial(1), 0.0);
    }

    #[test]
    fn ln_choose_small_values() {
        assert!((ln_choose(5, 2) - (10f64).ln()).abs() < 1e-9);
        assert!((ln_choose(10, 5) - (252f64).ln()).abs() < 1e-9);
        assert_eq!(ln_choose(7, 0), 0.0);
    }

    #[test]
    fn binom_half_cdf_symmetry_and_bounds() {
        // P[Bin(10, 1/2) <= 4] + P[Bin(10, 1/2) <= 5] = 1 + P[X == 5]... use
        // direct known values instead: P[Bin(4,1/2) <= 1] = (1+4)/16.
        assert!((binom_half_cdf(4, 1) - 5.0 / 16.0).abs() < 1e-9);
        assert!((binom_half_cdf(4, 4) - 1.0).abs() < 1e-12);
        // Large n stays within [0,1].
        let v = binom_half_cdf(10_000, 4_900);
        assert!(v > 0.0 && v < 0.5);
    }
}
