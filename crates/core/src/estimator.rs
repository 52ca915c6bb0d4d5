//! The per-transaction estimator: can it test the target rate, and did it
//! achieve it (§§3.2.2–3.2.3), plus the naive baseline the paper compares
//! against in §4.

use crate::gtestable::{gtestable_bps, next_wstart};
use crate::instrument::Transaction;
use crate::tmodel::achieved;
use crate::types::{Nanos, SECOND};

/// How "achieved" is decided for a capable transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AchievedRule {
    /// The paper's model-based rule: `Ttotal ≤ Tmodel(target)`.
    Model,
    /// The naive baseline: raw goodput `Btotal/Ttotal ≥ target` (still
    /// with Gtestable gating and the delayed-ACK correction). The paper
    /// shows this underestimates, dropping the median HDratio to 0.69.
    Naive,
}

/// Verdict for one transaction.
#[derive(Debug, Clone, Copy)]
pub struct TxnOutcome {
    /// The transaction could test for the target rate.
    pub testable: bool,
    /// The transaction achieved the target (only meaningful if testable).
    pub achieved: bool,
    /// Maximum goodput this transaction could have tested (bits/second).
    pub gtestable_bps: f64,
    /// The `Wstart` used (ideal carry-forward, §3.2.2).
    pub wstart: u64,
}

/// Estimator behaviour knobs for the methodology ablations. Production
/// defaults: model rule, carry-forward on, gating on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EstimatorOptions {
    /// How "achieved" is decided.
    pub rule: AchievedRule,
    /// Carry the ideal `Wstart` forward across transactions (§3.2.2,
    /// footnote 4). Off = use the raw measured `Wnic` (the ablation shows
    /// how collapsed windows then mask poor performance).
    pub carry_forward: bool,
    /// Gate on `Gtestable ≥ target` before judging achievement. Off =
    /// every eligible transaction is judged (the ablation shows small
    /// responses then read as failures).
    pub gate_on_testable: bool,
}

impl Default for EstimatorOptions {
    fn default() -> Self {
        EstimatorOptions { rule: AchievedRule::Model, carry_forward: true, gate_on_testable: true }
    }
}

/// Stateful per-session estimator: carries the ideal `Wstart` forward
/// across the session's transactions.
#[derive(Debug, Clone)]
pub struct Estimator {
    target_bps: f64,
    opts: EstimatorOptions,
    /// Ideal window at the end of the previous transaction, if any.
    carry: Option<u64>,
}

impl Estimator {
    /// Estimator for the given target goodput using the paper's model rule.
    pub fn new(target_bps: f64) -> Self {
        Self::with_rule(target_bps, AchievedRule::Model)
    }

    /// Estimator with an explicit achieved-rule (for the naive ablation).
    pub(crate) fn with_rule(target_bps: f64, rule: AchievedRule) -> Self {
        Self::with_options(target_bps, EstimatorOptions { rule, ..Default::default() })
    }

    /// Estimator with full ablation options.
    pub(crate) fn with_options(target_bps: f64, opts: EstimatorOptions) -> Self {
        assert!(target_bps > 0.0);
        Estimator { target_bps, opts, carry: None }
    }

    /// Evaluate the next transaction of the session (in order). Advances
    /// the ideal-`Wstart` carry-forward even for ineligible transactions,
    /// since their bytes still grew the window under ideal conditions.
    pub fn evaluate(&mut self, txn: &Transaction, min_rtt: Nanos) -> TxnOutcome {
        assert!(min_rtt > 0, "MinRTT required");
        let wnic = txn.wnic.max(1);
        let wstart = if self.opts.carry_forward {
            match self.carry {
                None => wnic,
                Some(c) => c.max(wnic),
            }
        } else {
            wnic
        };

        // Carry forward the ideal end-of-transaction window.
        if txn.bytes_full > 0 {
            self.carry = Some(next_wstart(wstart, txn.bytes_full, wnic));
        }

        if !txn.eligible || txn.bytes_measured == 0 || txn.ttotal == 0 {
            return TxnOutcome { testable: false, achieved: false, gtestable_bps: 0.0, wstart };
        }

        let g = gtestable_bps(txn.bytes_measured, wstart, min_rtt);
        let testable = g >= self.target_bps || !self.opts.gate_on_testable;
        let ach = testable
            && match self.opts.rule {
                AchievedRule::Model => {
                    achieved(txn.bytes_measured, wstart, min_rtt, txn.ttotal, self.target_bps)
                }
                AchievedRule::Naive => {
                    let goodput =
                        txn.bytes_measured as f64 * 8.0 * SECOND as f64 / txn.ttotal as f64;
                    goodput >= self.target_bps
                }
            };
        TxnOutcome { testable, achieved: ach, gtestable_bps: g, wstart }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{HD_GOODPUT_BPS, MILLISECOND};

    fn txn(bytes: u64, ttotal_ms: u64, wnic: u64) -> Transaction {
        let last_pkt = (bytes - 1) % 1460 + 1;
        Transaction {
            bytes_full: bytes,
            bytes_measured: bytes - last_pkt,
            ttotal: ttotal_ms * MILLISECOND,
            wnic,
            eligible: true,
            coalesced: 1,
        }
    }

    #[test]
    fn small_response_cannot_test_hd() {
        let mut e = Estimator::new(HD_GOODPUT_BPS);
        // 3 kB at 60 ms MinRTT can test at most ~0.2 Mbps (measured part).
        let o = e.evaluate(&txn(3_000, 70, 14_600), 60 * MILLISECOND);
        assert!(!o.testable);
        assert!(o.gtestable_bps < HD_GOODPUT_BPS);
    }

    #[test]
    fn large_fast_response_achieves_hd() {
        let mut e = Estimator::new(HD_GOODPUT_BPS);
        // 100 kB in ~190 ms at 60 ms MinRTT: fast.
        let o = e.evaluate(&txn(100_000, 190, 14_600), 60 * MILLISECOND);
        assert!(o.testable, "gtestable = {}", o.gtestable_bps);
        assert!(o.achieved);
    }

    #[test]
    fn large_slow_response_fails_hd() {
        let mut e = Estimator::new(HD_GOODPUT_BPS);
        // Same size, but took 2 s.
        let o = e.evaluate(&txn(100_000, 2_000, 14_600), 60 * MILLISECOND);
        assert!(o.testable);
        assert!(!o.achieved);
    }

    #[test]
    fn carry_forward_raises_wstart() {
        let mut e = Estimator::new(HD_GOODPUT_BPS);
        let o1 = e.evaluate(&txn(36_000, 130, 15_000), 60 * MILLISECOND);
        assert_eq!(o1.wstart, 15_000);
        // Second transaction starts from the modeled grown window even if
        // the kernel's actual window collapsed (wnic small).
        let o2 = e.evaluate(&txn(21_000, 70, 1_500), 60 * MILLISECOND);
        assert!(o2.wstart >= 30_000, "wstart = {}", o2.wstart);
    }

    #[test]
    fn collapsed_cwnd_does_not_mask_poor_performance() {
        // §3.2.2's motivating scenario: the third transaction *can* test
        // HD because ideal growth says the window should be large; using
        // the real collapsed window would wrongly mark it untestable.
        let mut e = Estimator::new(HD_GOODPUT_BPS);
        e.evaluate(&txn(36_000, 130, 15_000), 60 * MILLISECOND);
        let slow_third = txn(21_000, 700, 1_500); // took 700 ms — bad
        let o = e.evaluate(&slow_third, 60 * MILLISECOND);
        assert!(o.testable, "must still test (ideal wstart)");
        assert!(!o.achieved, "and must record the poor performance");
    }

    #[test]
    fn ineligible_transactions_still_advance_carry() {
        let mut e = Estimator::new(HD_GOODPUT_BPS);
        let mut t1 = txn(36_000, 130, 15_000);
        t1.eligible = false;
        let o1 = e.evaluate(&t1, 60 * MILLISECOND);
        assert!(!o1.testable);
        let o2 = e.evaluate(&txn(21_000, 70, 1_500), 60 * MILLISECOND);
        assert!(o2.wstart >= 30_000);
    }

    #[test]
    fn naive_rule_underestimates() {
        // A transfer whose raw goodput is below target but whose per-model
        // delivery rate is above it: model says achieved, naive says no.
        let b = 36_000u64; // measured ≈ 34.8 kB
        let t = txn(b, 150, 15_000);
        let mut model = Estimator::new(HD_GOODPUT_BPS);
        let mut naive = Estimator::with_rule(HD_GOODPUT_BPS, AchievedRule::Naive);
        let om = model.evaluate(&t, 60 * MILLISECOND);
        let on = naive.evaluate(&t, 60 * MILLISECOND);
        assert!(om.testable && on.testable);
        assert!(om.achieved);
        // Raw goodput = 34 760·8/0.15 ≈ 1.85 Mbps < 2.5 Mbps.
        assert!(!on.achieved, "naive should be pessimistic here");
    }

    #[test]
    fn zero_measured_bytes_is_untestable() {
        let mut e = Estimator::new(HD_GOODPUT_BPS);
        let t = Transaction {
            bytes_full: 800,
            bytes_measured: 0,
            ttotal: 0,
            wnic: 14_600,
            eligible: false,
            coalesced: 1,
        };
        let o = e.evaluate(&t, 60 * MILLISECOND);
        assert!(!o.testable && !o.achieved);
    }

    #[test]
    fn custom_target_rates_work() {
        let mut e = Estimator::new(10_000_000.0); // 10 Mbps target
        let o = e.evaluate(&txn(100_000, 190, 14_600), 60 * MILLISECOND);
        // 100 kB at 60 ms: max one-round bytes ≈ 70 kB → ~9.3 Mbps < 10.
        assert!(!o.testable);
    }
}
