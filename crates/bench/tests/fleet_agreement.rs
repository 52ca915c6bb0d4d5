//! Fleet agreement: the merged multi-PoP view is f64-bit-identical to one
//! serial pass over the same records (`edgeperf_live::serial_cells`) —
//! at any PoP count, any worker count, and across a mid-run PoP failover.
//!
//! This is the DESIGN.md §11 worker-sharding invariant generalized
//! worker → node: the catchment homes each group's full insertion
//! sequence on exactly one PoP at a time, so the fleet merge is a
//! disjoint union and no t-digest approximation can creep in.
//!
//! Geometry note: the comparison covers the settled horizon
//! (`loadgen::settled_horizon`): 6 windows of 1 s under 2.1 s of lateness
//! settle windows 0..=2 on every worker of every PoP.

use edgeperf_bench::fleet_run::{run_fleet, FleetRunOpts};
use edgeperf_bench::loadgen::LoadgenConfig;
use edgeperf_fleet::FleetChaosPlan;

fn agreement_cfg() -> LoadgenConfig {
    LoadgenConfig {
        sessions: 3_000,
        groups: 16,
        windows: 6,
        window_ms: 1_000.0,
        lateness_ms: 2_100.0,
        ..LoadgenConfig::default()
    }
}

#[test]
fn fleet_merge_is_bit_identical_across_pop_and_worker_counts() {
    let cfg = agreement_cfg();
    for pops in [2u16, 4] {
        for workers in [1usize, 4] {
            let opts = FleetRunOpts { pops, workers, plan: FleetChaosPlan::default() };
            let report = run_fleet(&cfg, &opts)
                .unwrap_or_else(|e| panic!("fleet run pops={pops} workers={workers}: {e}"));
            assert_eq!(report.verdict(0), Ok(()), "pops={pops} workers={workers}: {report:?}");
            assert_eq!((report.sessions, report.settled_until), (3_000, 2));
            assert_eq!(report.kills, 0);
            assert!(report.fleet_cells > 0, "closed windows should have produced cells");
            // Fan-out reuse: a handful of query rounds over `pops`
            // nodes must not open more than one link per node per
            // round even without reuse — with reuse it is exactly one
            // connect per alive PoP.
            assert_eq!(report.fanout_connects, u64::from(pops), "pops={pops} workers={workers}");
            assert_eq!(report.fanout_reconnects, 0);
        }
    }
}

#[test]
fn failover_preserves_bit_identity_and_exactly_once_accounting() {
    let cfg = agreement_cfg();
    // Kill PoP 0 after 400 records (event time 800 ms <= lateness/2 =
    // 1050 ms, inside the failover budget).
    let opts = FleetRunOpts {
        pops: 3,
        workers: 2,
        plan: FleetChaosPlan::parse("kill:0@400").expect("plan parses"),
    };
    let report = run_fleet(&cfg, &opts).expect("failover fleet run");
    assert_eq!(report.kills, 1, "the planned kill must fire");
    assert!(report.rehomed_groups > 0, "the dead PoP owned no groups — catchment degenerate");
    assert_eq!(report.alive_pops, 2);
    // Exactly-once fleet-wide: every record acked once on a live
    // session, every record folded into windows once, nothing late,
    // nothing lost — even though the dead PoP's partial state was
    // discarded and its groups replayed from record zero elsewhere —
    // and the merged view still matches the serial oracle bit for bit.
    assert_eq!(report.verdict(1), Ok(()), "{report:?}");
    assert_eq!((report.sessions, report.settled_until), (3_000, 2));
    // The failover opened at least one catch-up stream beyond the
    // initial per-PoP ones.
    assert!(report.streams > 3, "expected catch-up streams, got {}", report.streams);
}
