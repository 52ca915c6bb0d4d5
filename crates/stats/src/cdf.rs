//! Traffic-weighted empirical CDFs.
//!
//! Every distribution figure in the paper ("Cumulative Fraction of
//! Sessions", "Cum. Fraction of Traffic") is a weighted empirical CDF; this
//! module builds them and renders evenly spaced series suitable for
//! plotting or table output.

/// A finalized weighted empirical CDF.
#[derive(Debug, Clone)]
pub struct WeightedCdf {
    /// (value, cumulative weight through this value), sorted by value.
    points: Vec<(f64, f64)>,
    total: f64,
}

/// Builder: accumulate (value, weight) pairs, then [`CdfBuilder::build`].
#[derive(Debug, Clone, Default)]
pub struct CdfBuilder {
    items: Vec<(f64, f64)>,
}

impl CdfBuilder {
    /// Empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty builder with room for `samples` samples, so that one known
    /// not to exceed it never grows by doubling.
    pub fn with_capacity(samples: usize) -> Self {
        CdfBuilder { items: Vec::with_capacity(samples) }
    }

    /// Add a sample with weight 1.
    pub fn push(&mut self, value: f64) {
        self.push_weighted(value, 1.0);
    }

    /// Add a sample with a traffic weight.
    pub fn push_weighted(&mut self, value: f64, weight: f64) {
        assert!(value.is_finite() && weight >= 0.0, "bad cdf point ({value}, {weight})");
        if weight > 0.0 {
            self.items.push((value, weight));
        }
    }

    /// Number of samples added so far.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when no samples were added.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Sort and accumulate into a queryable CDF.
    ///
    /// # Panics
    /// Panics if no samples were added.
    pub fn build(self) -> WeightedCdf {
        assert!(!self.items.is_empty(), "CDF of no samples");
        let mut points = self.items;
        points.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        // Accumulate in place: `points[..kept]` is the finished prefix, and
        // duplicate values collapse to the last cumulative weight.
        let (mut acc, mut kept) = (0.0, 0);
        for i in 0..points.len() {
            let (v, w) = points[i];
            acc += w;
            if kept > 0 && points[kept - 1].0 == v {
                points[kept - 1].1 = acc;
            } else {
                points[kept] = (v, acc);
                kept += 1;
            }
        }
        points.truncate(kept);
        // Hand back slack of more than a quarter, and do not pay a realloc
        // for less (as `TDigest::flush` does).
        if points.capacity() > kept + kept / 4 {
            points.shrink_to_fit();
        }
        WeightedCdf { total: acc, points }
    }
}

impl WeightedCdf {
    /// Fraction of weight at values ≤ `x`.
    pub fn fraction_leq(&self, x: f64) -> f64 {
        match self.points.binary_search_by(|p| p.0.total_cmp(&x)) {
            Ok(i) => self.points[i].1 / self.total,
            Err(0) => 0.0,
            Err(i) => self.points[i - 1].1 / self.total,
        }
    }

    /// Smallest value whose cumulative fraction reaches `q`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q));
        let target = q * self.total;
        let idx = self.points.partition_point(|p| p.1 < target);
        self.points[idx.min(self.points.len() - 1)].0
    }

    /// Total weight.
    pub fn total_weight(&self) -> f64 {
        self.total
    }

    /// Render `n` evenly spaced (value, fraction) pairs across the value
    /// range — the series a figure plots.
    pub fn series(&self, n: usize) -> Vec<(f64, f64)> {
        assert!(n >= 2);
        let lo = self.points.first().unwrap().0;
        let hi = self.points.last().unwrap().0;
        (0..n)
            .map(|i| {
                let x = lo + (hi - lo) * i as f64 / (n - 1) as f64;
                (x, self.fraction_leq(x))
            })
            .collect()
    }

    /// Render (quantile value) pairs at the given cumulative fractions —
    /// useful for "p50/p80/p99" style table rows.
    pub fn quantiles(&self, qs: &[f64]) -> Vec<(f64, f64)> {
        qs.iter().map(|&q| (q, self.quantile(q))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple() -> WeightedCdf {
        let mut b = CdfBuilder::new();
        for v in [1.0, 2.0, 3.0, 4.0] {
            b.push(v);
        }
        b.build()
    }

    #[test]
    fn fraction_leq_basic() {
        let c = simple();
        assert_eq!(c.fraction_leq(0.5), 0.0);
        assert_eq!(c.fraction_leq(1.0), 0.25);
        assert_eq!(c.fraction_leq(2.5), 0.5);
        assert_eq!(c.fraction_leq(4.0), 1.0);
        assert_eq!(c.fraction_leq(99.0), 1.0);
    }

    #[test]
    fn quantile_is_left_continuous_inverse() {
        let c = simple();
        assert_eq!(c.quantile(0.25), 1.0);
        assert_eq!(c.quantile(0.26), 2.0);
        assert_eq!(c.quantile(1.0), 4.0);
        assert_eq!(c.quantile(0.0), 1.0);
    }

    #[test]
    fn weights_shift_mass() {
        let mut b = CdfBuilder::new();
        b.push_weighted(1.0, 99.0);
        b.push_weighted(100.0, 1.0);
        let c = b.build();
        assert_eq!(c.quantile(0.5), 1.0);
        assert!((c.fraction_leq(1.0) - 0.99).abs() < 1e-12);
    }

    #[test]
    fn duplicate_values_collapse() {
        let mut b = CdfBuilder::new();
        for _ in 0..10 {
            b.push(5.0);
        }
        b.push(6.0);
        let c = b.build();
        assert!((c.fraction_leq(5.0) - 10.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn in_place_build_matches_a_second_vector() {
        // The accumulate-into-a-fresh-Vec build, as it was written before.
        let reference = |mut items: Vec<(f64, f64)>| {
            items.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
            let mut points: Vec<(f64, f64)> = Vec::new();
            let mut acc = 0.0;
            for (v, w) in items {
                acc += w;
                match points.last_mut() {
                    Some((pv, pw)) if *pv == v => *pw = acc,
                    _ => points.push((v, acc)),
                }
            }
            points
        };
        // Runs of duplicates (also at both ends, and -0.0 beside 0.0),
        // uneven weights.
        let items: Vec<(f64, f64)> = (0..5_000)
            .map(|i| {
                let u = (i as f64 * 0.618_033_988_749).fract();
                ((u * 40.0).floor() / 8.0 - 1.0, 0.1 + u)
            })
            .chain([(-0.0, 1.0), (0.0, 2.0), (-1.0, 0.5), (4.0, 0.25), (4.0, 0.75)])
            .collect();
        let mut b = CdfBuilder::new();
        items.iter().for_each(|&(v, w)| b.push_weighted(v, w));
        let cdf = b.build();
        let bits = |ps: &[(f64, f64)]| -> Vec<(u64, u64)> {
            ps.iter().map(|p| (p.0.to_bits(), p.1.to_bits())).collect()
        };
        assert_eq!(bits(&cdf.points), bits(&reference(items.clone())));
        assert_eq!(cdf.total.to_bits(), cdf.points.last().unwrap().1.to_bits());
        assert!(cdf.points.capacity() <= cdf.points.len() + cdf.points.len() / 4);
    }

    #[test]
    fn a_presized_builder_builds_the_bits_a_grown_one_does() {
        let items: Vec<(f64, f64)> = (0..3_000)
            .map(|i| {
                let u = (i as f64 * 0.618_033_988_749).fract();
                ((u * 64.0).floor() - 20.0, if i % 7 == 0 { 0.0 } else { 1.0 + u })
            })
            .collect();
        let bits = |cdf: &WeightedCdf| -> (Vec<(u64, u64)>, u64) {
            (
                cdf.points.iter().map(|p| (p.0.to_bits(), p.1.to_bits())).collect(),
                cdf.total.to_bits(),
            )
        };
        let mut grown = CdfBuilder::new();
        items.iter().for_each(|&(v, w)| grown.push_weighted(v, w));
        let grown = grown.build();
        // Room for exactly the samples, and for far more than them.
        for room in [items.len(), 4 * items.len()] {
            let mut sized = CdfBuilder::with_capacity(room);
            items.iter().for_each(|&(v, w)| sized.push_weighted(v, w));
            assert_eq!(sized.items.capacity(), room, "a presized builder grew");
            let sized = sized.build();
            assert_eq!(bits(&sized), bits(&grown));
            assert!(sized.points.capacity() <= sized.points.len() + sized.points.len() / 4);
        }
    }

    #[test]
    fn series_is_monotone() {
        let mut b = CdfBuilder::new();
        for i in 0..100 {
            b.push((i as f64 * 0.37).sin() * 10.0);
        }
        let s = b.build().series(50);
        for w in s.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
        assert_eq!(s.first().unwrap().1, s[0].1);
        assert!((s.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_weight_points_are_dropped() {
        let mut b = CdfBuilder::new();
        b.push_weighted(1.0, 0.0);
        b.push(2.0);
        let c = b.build();
        assert_eq!(c.total_weight(), 1.0);
        assert_eq!(c.fraction_leq(1.5), 0.0);
    }
}
