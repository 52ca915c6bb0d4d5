//! §3.2.3 validation: the NS3-style simulation sweep.
//!
//! 15,840 configurations — bottleneck 0.5–5 Mbps, RTT 20–200 ms, initial
//! cwnd 1–50 segments, transfer size 1–500 packets — each run through the
//! packet-level simulator under ideal conditions (no loss, no jitter,
//! deep queue, delayed ACKs disabled). For configurations whose transfer
//! can test the bottleneck rate (`Gtestable > Gbottleneck`) the estimated
//! goodput must never overestimate the bottleneck and should usually be
//! close (the paper reports a 99th-percentile relative error of 0.066).

use edgeperf_core::gtestable::gtestable_bps;
use edgeperf_core::tmodel::delivery_rate;
use edgeperf_core::MILLISECOND;
use edgeperf_netsim::{FlowSim, PathConfig};
use edgeperf_tcp::{TcpConfig, SECOND};
use serde::Serialize;

/// Result of the sweep.
#[derive(Debug, Clone, Serialize)]
pub struct ValidationResult {
    /// Configurations simulated.
    pub configs: usize,
    /// Configurations capable of testing their bottleneck rate.
    pub capable: usize,
    /// Of the capable, how many overestimated the bottleneck (paper: 0).
    pub overestimates: usize,
    /// Quantiles of the relative error (Gbottleneck − G)/Gbottleneck.
    pub err_p50: f64,
    /// 90th percentile relative error.
    pub err_p90: f64,
    /// 99th percentile relative error (paper: 0.066).
    pub err_p99: f64,
    /// Worst relative error.
    pub err_max: f64,
}

/// Grid axes. `fraction` thins every axis (test-scale knob); 1.0 gives
/// the full 10 × 9 × 11 × 16 = 15,840-point grid.
pub(crate) fn grid(fraction: f64) -> Vec<(u64, u64, u32, u64)> {
    let thin = |v: Vec<f64>| -> Vec<f64> {
        let keep = ((v.len() as f64 * fraction).ceil() as usize).clamp(2, v.len());
        let step = v.len() as f64 / keep as f64;
        (0..keep).map(|i| v[(i as f64 * step) as usize]).collect()
    };
    let bws = thin((1..=10).map(|i| i as f64 * 0.5e6).collect()); // 0.5–5 Mbps
    let rtts = thin((0..9).map(|i| 20.0 + 22.5 * i as f64).collect()); // 20–200 ms
    let iws = thin(vec![1.0, 2.0, 3.0, 4.0, 5.0, 8.0, 10.0, 16.0, 24.0, 32.0, 50.0]);
    let sizes = thin(
        (0..16)
            .map(|i| (500.0f64 / 1.0).powf(i as f64 / 15.0)) // log-spaced 1–500
            .collect(),
    );
    let mut out = Vec::new();
    for &bw in &bws {
        for &rtt in &rtts {
            for &iw in &iws {
                for &size in &sizes {
                    out.push((
                        bw as u64,
                        (rtt * MILLISECOND as f64) as u64,
                        iw as u32,
                        (size.round() as u64).max(1),
                    ));
                }
            }
        }
    }
    out
}

/// Run one grid point; returns `(capable, relative_error)` —
/// `None` if the transfer could not test the bottleneck rate.
pub(crate) fn run_config(bw_bps: u64, rtt: u64, iw: u32, size_pkts: u64) -> Option<f64> {
    const MSS: u64 = 1_460;
    let tcp = TcpConfig::ns3_validation(iw);
    let mut sim = FlowSim::new(tcp, PathConfig::ideal(bw_bps, rtt), 42);
    let bytes = size_pkts * MSS;
    sim.schedule_write(0, bytes);
    let res = sim.run(3_600 * SECOND);
    let w = res.writes[0];
    let (t0, wnic) = w.first_tx?;
    let t2 = w.t_second_last_ack?;
    let min_rtt = res.info.min_rtt?;
    let measured_bytes = bytes.checked_sub(w.last_packet_bytes? as u64)?;
    if measured_bytes == 0 || t2 <= t0 {
        return None;
    }

    // Capability gate: can this transfer even test the bottleneck rate?
    let g_testable = gtestable_bps(measured_bytes, wnic as u64, min_rtt);
    if g_testable <= bw_bps as f64 {
        return None;
    }
    let g = delivery_rate(measured_bytes, wnic as u64, min_rtt, t2 - t0)
        .unwrap_or(f64::INFINITY)
        .min(g_testable);
    Some((bw_bps as f64 - g) / bw_bps as f64)
}

/// Run the sweep at the given grid fraction.
pub fn run(fraction: f64) -> ValidationResult {
    let grid = grid(fraction);
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
    let chunk = grid.len().div_ceil(threads);
    let mut errors: Vec<f64> = Vec::new();
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for c in grid.chunks(chunk) {
            handles.push(s.spawn(move || {
                c.iter()
                    .filter_map(|&(bw, rtt, iw, size)| run_config(bw, rtt, iw, size))
                    .collect::<Vec<f64>>()
            }));
        }
        for h in handles {
            errors.extend(h.join().expect("validation worker panicked"));
        }
    });
    errors.sort_unstable_by(f64::total_cmp);
    let q = |p: f64| {
        if errors.is_empty() {
            f64::NAN
        } else {
            edgeperf_stats::quantile::quantile_sorted(&errors, p)
        }
    };
    ValidationResult {
        configs: grid.len(),
        capable: errors.len(),
        overestimates: errors.iter().filter(|&&e| e < -1e-9).count(),
        err_p50: q(0.5),
        err_p90: q(0.9),
        err_p99: q(0.99),
        err_max: errors.last().copied().unwrap_or(f64::NAN),
    }
}

impl std::fmt::Display for ValidationResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "== §3.2.3 validation sweep ==")?;
        writeln!(
            f,
            "configurations: {}   capable of testing bottleneck: {}",
            self.configs, self.capable
        )?;
        writeln!(f, "overestimates of bottleneck rate: {} (paper: 0)", self.overestimates)?;
        writeln!(f, "relative error (bottleneck - estimate)/bottleneck:")?;
        writeln!(
            f,
            "  p50 = {:.3}   p90 = {:.3}   p99 = {:.3} (paper p99: 0.066)   max = {:.3}",
            self.err_p50, self.err_p90, self.err_p99, self.err_max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_grid_has_paper_size() {
        assert_eq!(grid(1.0).len(), 15_840);
    }

    #[test]
    fn thinned_grid_is_smaller_but_valid() {
        let g = grid(0.25);
        assert!(g.len() < 2_000 && g.len() > 16, "len = {}", g.len());
        for (bw, rtt, iw, size) in g {
            assert!((500_000..=5_000_000).contains(&bw));
            assert!((20 * MILLISECOND..=200 * MILLISECOND).contains(&rtt));
            assert!((1..=50).contains(&iw));
            assert!((1..=500).contains(&size));
        }
    }

    #[test]
    fn large_transfer_estimates_bottleneck_accurately() {
        // 500 packets at 2 Mbps, 60 ms, IW10: definitely capable.
        let err = run_config(2_000_000, 60 * MILLISECOND, 10, 500).expect("capable");
        assert!(err >= -1e-9, "overestimate: {err}");
        assert!(err < 0.15, "error too large: {err}");
    }

    #[test]
    fn tiny_transfer_cannot_test() {
        // 1 packet can never test 5 Mbps at 200 ms.
        assert!(run_config(5_000_000, 200 * MILLISECOND, 10, 1).is_none());
    }

    #[test]
    fn mini_sweep_never_overestimates() {
        let r = run(0.4);
        assert!(r.capable > 50, "too few capable configs: {}", r.capable);
        assert_eq!(r.overestimates, 0, "estimator must never overestimate");
        assert!(r.err_p99 < 0.25, "p99 error = {}", r.err_p99);
        assert!(r.err_p50 < 0.12, "p50 error = {}", r.err_p50);
    }
}
