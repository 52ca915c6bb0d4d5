//! Parametric distributions for workload synthesis.
//!
//! Implemented locally (Box–Muller normal, inverse-CDF Pareto and
//! exponential) to keep the dependency surface at `rand` itself.

use rand::Rng;

/// Log-normal distribution parameterized by its *median* and the σ of the
/// underlying normal — the natural way to express "median response size
/// 19 kB with a heavy tail".
#[derive(Debug, Clone, Copy)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// From the distribution median (`exp(μ)`) and shape σ.
    pub fn from_median(median: f64, sigma: f64) -> Self {
        assert!(median > 0.0 && sigma >= 0.0);
        LogNormal { mu: median.ln(), sigma }
    }

    /// Draw one sample.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> f64 {
        (self.mu + self.sigma * standard_normal(rng)).exp()
    }

    /// The distribution median.
    pub fn median(&self) -> f64 {
        self.mu.exp()
    }
}

/// Pareto (power-law) distribution with scale `xm` and shape `alpha` —
/// used for heavy-tailed object sizes and transaction counts.
#[derive(Debug, Clone, Copy)]
pub struct Pareto {
    xm: f64,
    alpha: f64,
}

impl Pareto {
    /// Scale (minimum value) and shape (smaller α ⇒ heavier tail).
    pub fn new(xm: f64, alpha: f64) -> Self {
        assert!(xm > 0.0 && alpha > 0.0);
        Pareto { xm, alpha }
    }

    /// Draw one sample via inverse CDF.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        self.xm / u.powf(1.0 / self.alpha)
    }
}

/// Exponential sample with the given mean.
pub(crate) fn exponential<R: Rng>(rng: &mut R, mean: f64) -> f64 {
    assert!(mean > 0.0);
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    -mean * u.ln()
}

/// Standard normal via Box–Muller.
pub fn standard_normal<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    fn rng() -> ChaCha12Rng {
        ChaCha12Rng::seed_from_u64(11)
    }

    #[test]
    fn lognormal_median_is_respected() {
        let d = LogNormal::from_median(19_000.0, 1.2);
        let mut r = rng();
        let mut v: Vec<f64> = (0..20_000).map(|_| d.sample(&mut r)).collect();
        v.sort_unstable_by(f64::total_cmp);
        let med = v[v.len() / 2];
        assert!((med / 19_000.0 - 1.0).abs() < 0.05, "median = {med}");
    }

    #[test]
    fn lognormal_zero_sigma_is_constant() {
        let d = LogNormal::from_median(100.0, 0.0);
        let mut r = rng();
        for _ in 0..10 {
            assert!((d.sample(&mut r) - 100.0).abs() < 1e-9);
        }
    }

    #[test]
    fn pareto_respects_scale_and_tail() {
        let d = Pareto::new(10.0, 1.5);
        let mut r = rng();
        let samples: Vec<f64> = (0..50_000).map(|_| d.sample(&mut r)).collect();
        assert!(samples.iter().all(|&x| x >= 10.0));
        // Median of Pareto = xm * 2^(1/alpha).
        let mut v = samples.clone();
        v.sort_unstable_by(f64::total_cmp);
        let med = v[v.len() / 2];
        let expect = 10.0 * 2f64.powf(1.0 / 1.5);
        assert!((med / expect - 1.0).abs() < 0.05, "median = {med}");
        // Tail: some samples far above the median.
        assert!(v.last().unwrap() > &200.0);
    }

    #[test]
    fn exponential_mean() {
        let mut r = rng();
        let mean: f64 = (0..50_000).map(|_| exponential(&mut r, 7.0)).sum::<f64>() / 50_000.0;
        assert!((mean - 7.0).abs() < 0.2, "mean = {mean}");
    }

    #[test]
    fn standard_normal_moments() {
        let mut r = rng();
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut r)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.03, "var = {var}");
    }
}
