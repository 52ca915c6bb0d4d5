//! §4's methodology ablation: the model-based achieved rule vs the naive
//! `Btotal/Ttotal` goodput rule. The paper reports the naive rule drags
//! the median session HDratio down to 0.69 by penalizing transfers for
//! their own slow-start time.

use edgeperf_core::hdratio::session_hdratio_with_rule;
use edgeperf_core::{AchievedRule, HD_GOODPUT_BPS, MILLISECOND};
use edgeperf_netsim::PathState;
use edgeperf_world::runner::simulate_session;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use serde::Serialize;

/// Result of the ablation.
#[derive(Debug, Clone, Serialize)]
pub struct NaiveComparison {
    /// Sessions that tested for HD goodput.
    pub sessions: usize,
    /// Median session HDratio under the paper's model rule.
    pub model_median: f64,
    /// Median under the naive rule (paper: 0.69).
    pub naive_median: f64,
    /// Mean HDratio under each rule.
    pub model_mean: f64,
    /// Mean under the naive rule.
    pub naive_mean: f64,
}

/// Run the comparison over `n` sessions on a population of paths good
/// enough to sustain HD (so the difference isolates the estimator, not
/// the network).
pub fn run(seed: u64, n: usize) -> NaiveComparison {
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    let mut model = Vec::new();
    let mut naive = Vec::new();

    while model.len() < n {
        // Paths mostly HD-capable, varied RTT.
        let rtt_ms = rng.gen_range(30.0..120.0);
        let bw = rng.gen_range(4.0e6..40.0e6);
        let state = PathState {
            base_rtt: (rtt_ms * MILLISECOND as f64) as u64,
            standing_queue: 0,
            jitter_max: 2 * MILLISECOND,
            bottleneck_bps: bw as u64,
            loss: 0.0005,
        };
        // Mid-size responses (tens of kB): the regime where the transfer
        // spends a meaningful share of its life in slow start — exactly
        // what the naive Btotal/Ttotal rule wrongly charges against the
        // network (§3.2.3's motivation). Production traffic is full of
        // these (Figure 2).
        let d = edgeperf_workload::distributions::LogNormal::from_median(30_000.0, 0.6);
        let n_txns = rng.gen_range(2..=6);
        let transactions: Vec<edgeperf_workload::TxnPlan> = (0..n_txns)
            .map(|k| edgeperf_workload::TxnPlan {
                offset: k * 3 * edgeperf_core::SECOND,
                bytes: (d.sample(&mut rng) as u64).clamp(8_000, 300_000),
            })
            .collect();
        let plan = edgeperf_workload::SessionPlan {
            http: edgeperf_core::HttpVersion::H2,
            endpoint: edgeperf_workload::EndpointKind::Api,
            duration: (n_txns + 1) * 3 * edgeperf_core::SECOND,
            transactions,
        };
        let obs = simulate_session(&plan, &state, &mut rng);
        let m = session_hdratio_with_rule(&obs, HD_GOODPUT_BPS, AchievedRule::Model)
            .and_then(|v| v.hdratio());
        let nv = session_hdratio_with_rule(&obs, HD_GOODPUT_BPS, AchievedRule::Naive)
            .and_then(|v| v.hdratio());
        if let (Some(m), Some(nv)) = (m, nv) {
            model.push(m);
            naive.push(nv);
        }
    }
    let med = |v: &mut Vec<f64>| {
        v.sort_unstable_by(f64::total_cmp);
        edgeperf_stats::quantile::median_sorted(v)
    };
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    NaiveComparison {
        sessions: n,
        model_mean: mean(&model),
        naive_mean: mean(&naive),
        model_median: med(&mut model),
        naive_median: med(&mut naive),
    }
}

impl std::fmt::Display for NaiveComparison {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "== Naive vs model achieved-rule (§4 ablation) ==")?;
        writeln!(f, "sessions tested: {}", self.sessions)?;
        writeln!(
            f,
            "median HDratio: model = {:.2}, naive = {:.2} (paper: naive drops the median to 0.69)",
            self.model_median, self.naive_median
        )?;
        writeln!(
            f,
            "mean HDratio:   model = {:.2}, naive = {:.2}",
            self.model_mean, self.naive_mean
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_rule_underestimates_hd_capability() {
        let r = run(5, 400);
        assert!(
            r.model_median > r.naive_median,
            "model {} vs naive {}",
            r.model_median,
            r.naive_median
        );
        assert!(r.model_mean > r.naive_mean + 0.05, "means too close: {r:?}");
        // On HD-capable paths the model rule should find most sessions HD.
        assert!(r.model_median > 0.8, "model median = {}", r.model_median);
        // And the naive rule should visibly drag it down (paper: 0.69).
        assert!(r.naive_median < 0.95, "naive median = {}", r.naive_median);
    }
}
