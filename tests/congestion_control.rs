//! Congestion-control comparison: Reno vs CUBIC vs BBR-lite through the
//! packet-level simulator, and what an idle restart would cost. These
//! behaviours are what make goodput depend on more than bandwidth — the
//! paper's §3.2 premise.

use edgeperf::core::{MILLISECOND, SECOND};
use edgeperf::netsim::{FlowSim, LossModel, PathConfig};
use edgeperf::tcp::{CcAlgorithm, TcpConfig};

fn transfer_time(cc: CcAlgorithm, loss: f64, bytes: u64, seed: u64) -> u64 {
    let tcp = TcpConfig { cc, delayed_ack_disabled: true, ..Default::default() };
    let mut path = PathConfig::ideal(10_000_000, 60 * MILLISECOND);
    path.loss = LossModel::bernoulli(loss);
    let mut sim = FlowSim::new(tcp, path, seed);
    sim.schedule_write(0, bytes);
    let res = sim.run(600 * SECOND);
    res.writes[0].t_full_ack.expect("transfer completes")
}

#[test]
fn all_algorithms_complete_clean_transfers_similarly() {
    let bytes = 500_000;
    let reno = transfer_time(CcAlgorithm::Reno, 0.0, bytes, 1);
    let cubic = transfer_time(CcAlgorithm::Cubic, 0.0, bytes, 1);
    let bbr = transfer_time(CcAlgorithm::BbrLite, 0.0, bytes, 1);
    // No loss: all three are slow-start dominated and land close together.
    for (name, t) in [("cubic", cubic), ("bbr", bbr)] {
        let ratio = t as f64 / reno as f64;
        assert!((0.6..1.7).contains(&ratio), "{name}: {t} vs reno {reno}");
    }
}

#[test]
fn bbr_outperforms_reno_under_loss() {
    // 1% random loss: loss-based CC keeps halving; BBR keeps its model.
    let bytes = 800_000;
    let mut reno_total = 0u64;
    let mut bbr_total = 0u64;
    for seed in 0..8 {
        reno_total += transfer_time(CcAlgorithm::Reno, 0.01, bytes, seed);
        bbr_total += transfer_time(CcAlgorithm::BbrLite, 0.01, bytes, seed);
    }
    assert!(
        bbr_total < reno_total,
        "BBR should finish faster under loss: bbr {bbr_total} vs reno {reno_total}"
    );
}

#[test]
fn cubic_recovers_faster_than_reno_after_loss() {
    // A long transfer with sparse loss: CUBIC's concave recovery should
    // not be (much) slower than Reno's linear one.
    let bytes = 2_000_000;
    let mut reno_total = 0u64;
    let mut cubic_total = 0u64;
    for seed in 10..16 {
        reno_total += transfer_time(CcAlgorithm::Reno, 0.003, bytes, seed);
        cubic_total += transfer_time(CcAlgorithm::Cubic, 0.003, bytes, seed);
    }
    assert!(
        (cubic_total as f64) < reno_total as f64 * 1.2,
        "cubic {cubic_total} vs reno {reno_total}"
    );
}

#[test]
fn idle_restart_degrades_measured_goodput_capability() {
    // With idle restart, the second transaction starts from IW10 again —
    // the Figure-4 carry-forward world no longer applies, and Gtestable
    // (computed from the real Wnic) is lower.
    use edgeperf::core::gtestable::gtestable_bps;
    let g_grown = gtestable_bps(40_000, 20 * 14_600, 60 * MILLISECOND);
    let g_collapsed = gtestable_bps(40_000, 14_600, 60 * MILLISECOND);
    assert!(g_grown > g_collapsed);
}
