//! Figure 4: the paper's worked example — three back-to-back HTTP
//! transactions on a 60 ms connection with IW10 and 1500-byte packets.
//!
//! Reproduces the sequence-diagram arithmetic (per-transaction goodput,
//! `Wstart` carry-forward, `Gtestable`) and cross-checks it against a
//! packet-level simulation of the same scenario.

use edgeperf_core::gtestable::{gtestable_bps, next_wstart, rounds};
use edgeperf_core::{MILLISECOND, SECOND};
use serde::Serialize;

/// One row of the Figure-4 example.
#[derive(Debug, Clone, Serialize)]
pub struct Fig4Row {
    /// Transaction number (1–3).
    pub txn: u32,
    /// Packets in the response.
    pub packets: u64,
    /// `Wstart` in packets (after carry-forward).
    pub wstart_packets: u64,
    /// Ideal round trips `m`.
    pub rounds: u32,
    /// Raw transaction goodput under the ideal schedule, Mbps.
    pub goodput_mbps: f64,
    /// Maximum testable goodput, Mbps.
    pub gtestable_mbps: f64,
    /// The paper's quoted values (goodput, Gtestable), Mbps.
    pub paper: (f64, f64),
}

/// Reproduce the Figure-4 table.
pub fn run() -> Vec<Fig4Row> {
    const MSS: u64 = 1_500;
    const RTT: u64 = 60 * MILLISECOND;
    let rtt_s = RTT as f64 / SECOND as f64;
    let mbps = |bits: f64| bits / 1e6;

    // (packets, ideal RTT count for the naive goodput quoted in the text)
    let txns: [(u64, f64); 3] = [(2, 1.0), (24, 2.0), (14, 1.0)];
    let mut wstart = 10 * MSS;
    let paper = [(0.4, 0.4), (2.4, 2.8), (2.8, 2.8)];

    let mut rows = Vec::new();
    for (i, &(pkts, rtts)) in txns.iter().enumerate() {
        let bytes = pkts * MSS;
        let goodput = mbps(bytes as f64 * 8.0 / (rtts * rtt_s));
        let g = mbps(gtestable_bps(bytes, wstart, RTT));
        rows.push(Fig4Row {
            txn: i as u32 + 1,
            packets: pkts,
            wstart_packets: wstart / MSS,
            rounds: rounds(bytes, wstart),
            goodput_mbps: goodput,
            gtestable_mbps: g,
            paper: paper[i],
        });
        // Carry forward assuming Wnic equals the previous ideal window.
        wstart = next_wstart(wstart, bytes, wstart);
    }
    rows
}

/// Render the rows.
pub fn render(rows: &[Fig4Row]) -> String {
    let mut s = String::from("== Figure 4: worked example (60 ms RTT, IW10, 1500 B packets) ==\n");
    s.push_str("txn  pkts  Wstart  m  goodput(Mbps)  Gtestable(Mbps)  paper(goodput, Gtestable)\n");
    for r in rows {
        s.push_str(&format!(
            "{:>3} {:>5} {:>7} {:>2} {:>14.2} {:>16.2}  ({:.1}, {:.1})\n",
            r.txn,
            r.packets,
            r.wstart_packets,
            r.rounds,
            r.goodput_mbps,
            r.gtestable_mbps,
            r.paper.0,
            r.paper.1
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_paper_exactly() {
        let rows = run();
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(
                (r.goodput_mbps - r.paper.0).abs() < 0.05,
                "txn {} goodput {} vs paper {}",
                r.txn,
                r.goodput_mbps,
                r.paper.0
            );
            assert!(
                (r.gtestable_mbps - r.paper.1).abs() < 0.05,
                "txn {} gtestable {} vs paper {}",
                r.txn,
                r.gtestable_mbps,
                r.paper.1
            );
        }
        // The carry-forward chain: Wstart 10 → 10 → 20 packets.
        assert_eq!(rows[0].wstart_packets, 10);
        assert_eq!(rows[1].wstart_packets, 10);
        assert_eq!(rows[2].wstart_packets, 20);
    }

    /// The same scenario through the packet-level simulator: transaction
    /// timings must land within one serialization of the ideal schedule.
    #[test]
    fn packet_level_simulation_agrees() {
        use edgeperf_netsim::{FlowSim, PathConfig};
        use edgeperf_tcp::{CcAlgorithm, TcpConfig};

        // The paper's idealized example: 1500-byte packets, IW10,
        // Reno-style growth, no delayed ACKs. A fat pipe ⇒ negligible
        // serialization, like the paper's diagram.
        let tcp = TcpConfig {
            mss: 1500,
            cc: CcAlgorithm::Reno,
            delayed_ack_disabled: true,
            ..Default::default()
        };
        let mut sim = FlowSim::new(tcp, PathConfig::ideal(1_000_000_000, 60 * MILLISECOND), 1);
        sim.schedule_write(0, 2 * 1_500);
        sim.schedule_write(200 * MILLISECOND, 24 * 1_500);
        sim.schedule_write(500 * MILLISECOND, 14 * 1_500);
        let res = sim.run(10 * SECOND);

        // Txn 1: one RTT.
        let t1 = res.writes[0].t_full_ack.unwrap() - res.writes[0].first_tx.unwrap().0;
        assert!((t1 as i64 - 60 * MILLISECOND as i64).abs() < MILLISECOND as i64, "t1 = {t1}");
        // Txn 2: two RTTs (cwnd 10 → 20).
        let t2 = res.writes[1].t_full_ack.unwrap() - res.writes[1].first_tx.unwrap().0;
        assert!((t2 as i64 - 120 * MILLISECOND as i64).abs() < 2 * MILLISECOND as i64, "t2 = {t2}");
        // Txn 3: one RTT thanks to the grown window.
        let t3 = res.writes[2].t_full_ack.unwrap() - res.writes[2].first_tx.unwrap().0;
        assert!((t3 as i64 - 60 * MILLISECOND as i64).abs() < 2 * MILLISECOND as i64, "t3 = {t3}");
        // And the observed Wnic of txn 3 reflects the growth.
        assert!(res.writes[2].first_tx.unwrap().1 >= 20 * 1_500);
    }
}
