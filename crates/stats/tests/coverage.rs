//! Coverage of the Price–Bonett CI for a difference of medians at the
//! study's sample sizes (paper §3.4; ROADMAP item 17(a)). Both samples of a
//! trial come from one distribution, so the true difference is 0, and the
//! share of trials whose 95 % CI holds 0 is the CI's coverage; one minus it
//! is the two-sided false-event rate of a comparison between windows that
//! did not change.
//!
//! Three families, each at n ∈ {30, 60, 120, 240} sessions a side:
//! - MinRTT: a skewed continuous shape, a 20 ms floor plus a log-normal
//!   queueing delay of median 10 ms.
//! - HDratio: the point masses at 0 and 1 beside a continuous part, with
//!   P(0) ∈ {0.1, 0.2, 0.3} and P(1) from 0.3 to 0.8.
//! - Digest: the HDratio mixtures read the way the streaming and live
//!   tiers read a cell: a t-digest (compression 100) built from the
//!   session values, its median, and its quantiles at the ranks
//!   `order_stat_c` gives, fed to the shared variance inversion.
//!
//! And at the paper's volumes (ROADMAP item 28(a)), n ∈ {1,000, 4,000,
//! 16,000} a side, the exact form only, the HDratio mixtures' coverage
//! beside the share of null comparisons the paper's strict validity rule
//! (a CI narrower than 0.1) would accept. n = 16,000 runs in a release
//! build only — where `scripts/gates.sh release_stats` runs this suite.
//!
//! Draws are deterministic: a Weyl sequence through the SplitMix64 mixer.
//! `cargo test -p edgeperf-stats --test coverage -- --nocapture` prints the
//! tables EXPERIMENTS.md quotes.

use edgeperf_stats::dist::norm_inv_cdf;
use edgeperf_stats::{diff_of_medians_ci, median_variance_from_order_stats, order_stat_c, TDigest};

const SIZES: [usize; 4] = [30, 60, 120, 240];
const TRIALS: usize = 200;
const CONFIDENCE: f64 = 0.95;

/// The paper's sample sizes, and the strict rule's HDratio width cap.
const PAPERS_SIZES: [usize; 3] = [1_000, 4_000, 16_000];
const STRICT_WIDTH: f64 = 0.1;

/// Uniforms in (0, 1): a Weyl sequence (the golden-ratio increment)
/// through the SplitMix64 finalizer.
struct Weyl(u64);

impl Weyl {
    fn next(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        ((z >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }
}

/// One family member: a sampler from uniforms.
type Shape = Box<dyn Fn(&mut Weyl) -> f64>;

fn minrtt() -> Shape {
    Box::new(|w| 20.0 + 10.0 * (0.8 * norm_inv_cdf(w.next())).exp())
}

fn hdratio(p0: f64, p1: f64) -> Shape {
    Box::new(move |w| {
        let u = w.next();
        if u < p0 {
            0.0
        } else if u < p0 + p1 {
            1.0
        } else {
            w.next()
        }
    })
}

/// The difference CI as the digest tiers compute it.
fn digest_ci(a: Vec<f64>, b: Vec<f64>) -> (f64, f64) {
    let side = |xs: Vec<f64>| {
        let n = xs.len();
        let mut d = TDigest::from_unit_samples(100.0, xs);
        d.flush();
        let c = order_stat_c(n);
        let y_lo = d.quantile((c as f64 - 0.5) / n as f64);
        let y_hi = d.quantile((n as f64 - c as f64 + 0.5) / n as f64);
        (d.quantile(0.5), median_variance_from_order_stats(n, y_lo, y_hi))
    };
    let ((ma, va), (mb, vb)) = (side(a), side(b));
    let half = norm_inv_cdf(0.5 + CONFIDENCE / 2.0) * (va + vb).sqrt();
    (ma - mb - half, ma - mb + half)
}

/// Share of `TRIALS` null comparisons at `n` a side whose CI holds 0.
fn coverage(shape: &Shape, n: usize, digest: bool, seed: u64) -> f64 {
    coverage_and_validity(shape, n, digest, seed).0
}

/// Of `TRIALS` null comparisons at `n` a side, the shares whose CI holds
/// 0 and whose CI is narrower than [`STRICT_WIDTH`].
fn coverage_and_validity(shape: &Shape, n: usize, digest: bool, seed: u64) -> (f64, f64) {
    let mut w = Weyl(seed);
    let (mut covered, mut valid) = (0, 0);
    for _ in 0..TRIALS {
        let a: Vec<f64> = (0..n).map(|_| shape(&mut w)).collect();
        let b: Vec<f64> = (0..n).map(|_| shape(&mut w)).collect();
        let (lo, hi) = if digest {
            digest_ci(a, b)
        } else {
            let ci = diff_of_medians_ci(&a, &b, CONFIDENCE);
            (ci.lo, ci.hi)
        };
        covered += usize::from(lo <= 0.0 && 0.0 <= hi);
        valid += usize::from(hi - lo < STRICT_WIDTH);
    }
    (covered as f64 / TRIALS as f64, valid as f64 / TRIALS as f64)
}

/// The family's rows: label and coverage at each of `SIZES`.
fn family(members: &[(String, Shape)], digest: bool) -> Vec<(String, [f64; 4])> {
    members
        .iter()
        .enumerate()
        .map(|(m, (label, shape))| {
            let seed = |s: usize| (m * SIZES.len() + s) as u64 * 0x1_0000_0001;
            let row = std::array::from_fn(|s| coverage(shape, SIZES[s], digest, seed(s)));
            (label.clone(), row)
        })
        .collect()
}

fn mixtures() -> Vec<(String, Shape)> {
    let mut members = Vec::new();
    for p0 in [0.1, 0.2, 0.3] {
        for p1 in [0.3, 0.4, 0.45, 0.5, 0.55, 0.6, 0.7, 0.8] {
            if p0 + p1 <= 1.0 {
                members.push((format!("P(0) {p0:.1}, P(1) {p1:.2}"), hdratio(p0, p1)));
            }
        }
    }
    members
}

/// Lowest and mean coverage over a family's rows and sizes.
fn low_and_mean(rows: &[(String, [f64; 4])]) -> (f64, f64) {
    let all: Vec<f64> = rows.iter().flat_map(|(_, row)| row.iter().copied()).collect();
    (all.iter().copied().fold(1.0, f64::min), all.iter().sum::<f64>() / all.len() as f64)
}

#[test]
fn difference_of_medians_coverage_at_the_studys_sample_sizes() {
    let families = [
        ("MinRTT", family(&[("20 ms + LogNormal(ln 10, 0.8)".into(), minrtt())], false)),
        ("HDratio", family(&mixtures(), false)),
        ("Digest", family(&mixtures(), true)),
    ];
    println!("coverage of the 95 % CI of a difference of medians, {TRIALS} null trials a cell");
    println!("{:<8} {:<30} {:>6} {:>6} {:>6} {:>6}", "family", "shape", 30, 60, 120, 240);
    for (name, rows) in &families {
        for (label, row) in rows {
            let [a, b, c, d] = row;
            println!("{name:<8} {label:<30} {a:>6.3} {b:>6.3} {c:>6.3} {d:>6.3}");
        }
    }

    // Pinned at what each family measures: the lowest cell exactly (a
    // share of 200 trials), the mean to ±0.0005. A change to the CI, the
    // digest or the variance inversion that moves coverage fails here, and
    // re-records this pin and EXPERIMENTS.md's table together.
    let pinned =
        [("MinRTT", 0.940, 0.95125), ("HDratio", 0.840, 0.95668), ("Digest", 0.840, 0.95772)];
    for ((name, rows), (pinned_name, low, mean)) in families.iter().zip(pinned) {
        assert_eq!(*name, pinned_name);
        let (got_low, got_mean) = low_and_mean(rows);
        println!("{name}: lowest {got_low:.3}, mean {got_mean:.5}");
        assert!((got_low - low).abs() < 1e-9, "{name}: lowest coverage {got_low:.3}, pinned {low}");
        assert!(
            (got_mean - mean).abs() <= 0.0005,
            "{name}: mean coverage {got_mean:.5}, pinned {mean}"
        );
    }
}

#[test]
fn coverage_and_the_strict_rule_at_the_papers_sample_sizes() {
    let sizes = if cfg!(debug_assertions) { &PAPERS_SIZES[..2] } else { &PAPERS_SIZES[..] };
    let members = mixtures();
    // (coverage, validity) a member, at each size.
    let cells: Vec<Vec<(f64, f64)>> = members
        .iter()
        .enumerate()
        .map(|(m, (_, shape))| {
            let seed = |s: usize| (m * PAPERS_SIZES.len() + s) as u64 * 0x2_0000_0003 + 1;
            (0..sizes.len())
                .map(|s| coverage_and_validity(shape, sizes[s], false, seed(s)))
                .collect()
        })
        .collect();
    // A share of `TRIALS` trials has standard error sqrt(p (1 - p) / TRIALS).
    let se = |p: f64| (p * (1.0 - p) / TRIALS as f64).sqrt();
    println!("coverage (± s.e.) and strict-rule validity (CI width < {STRICT_WIDTH}), {TRIALS} null trials a cell");
    for (s, n) in sizes.iter().enumerate() {
        for ((label, _), row) in members.iter().zip(&cells) {
            let (c, v) = row[s];
            println!("n {n:>6} {label:<24} coverage {c:.3} ± {:.3}  valid {v:.3}", se(c));
        }
    }

    // Pinned a size: the lowest and mean coverage, the mean validity, and
    // the validity of the lightest-massed mixtures (P(0) + P(1) ≤ 0.5),
    // each lowest exactly (a share of 200 trials), each mean to ±0.0005.
    let pinned = [
        (1_000, 0.915, 0.97370, 0.49783, 0.000),
        (4_000, 0.910, 0.97000, 0.74000, 0.965),
        (16_000, 0.930, 0.97630, 1.00000, 1.000),
    ];
    let light: Vec<bool> = members.iter().map(|(label, _)| light_masses(label)).collect();
    for (s, &(n, low, mean, valid, light_valid)) in pinned.iter().take(sizes.len()).enumerate() {
        assert_eq!(n, sizes[s]);
        let column: Vec<(f64, f64)> = cells.iter().map(|row| row[s]).collect();
        let got_low = column.iter().map(|c| c.0).fold(1.0, f64::min);
        let got_mean = column.iter().map(|c| c.0).sum::<f64>() / column.len() as f64;
        let got_valid = column.iter().map(|c| c.1).sum::<f64>() / column.len() as f64;
        let lightest = column.iter().zip(&light).filter(|(_, &l)| l).map(|(c, _)| c.1);
        let got_light_valid = lightest.fold(1.0, f64::min);
        println!(
            "n {n}: coverage lowest {got_low:.3}, mean {got_mean:.5}; validity mean {got_valid:.5}, lowest where P(0) + P(1) <= 0.5 {got_light_valid:.3}"
        );
        assert!((got_low - low).abs() < 1e-9, "n {n}: lowest coverage {got_low:.3}, pinned {low}");
        assert!(
            (got_mean - mean).abs() <= 0.0005,
            "n {n}: mean coverage {got_mean:.5}, pinned {mean}"
        );
        assert!(
            (got_valid - valid).abs() <= 0.0005,
            "n {n}: mean validity {got_valid:.5}, pinned {valid}"
        );
        assert!(
            (got_light_valid - light_valid).abs() < 1e-9,
            "n {n}: lightest mixtures' validity {got_light_valid:.3}, pinned {light_valid}"
        );
    }
}

/// Whether a mixture's label names point masses of at most 0.5 in all.
fn light_masses(label: &str) -> bool {
    let masses: Vec<f64> = label.split(&[' ', ','][..]).filter_map(|w| w.parse().ok()).collect();
    masses.iter().sum::<f64>() <= 0.5 + 1e-9
}
