//! Performance-aware routing in one prefix: build a RIB with the paper's
//! §6.1 policy, measure the preferred route and an alternate while the
//! preferred interconnect suffers a congestion episode, and let the
//! opportunity analysis (with its statistical guardrails) decide whether
//! shifting traffic is justified.
//!
//! Run with: `cargo run --release --example route_selection`

use edgeperf::analysis::degradation::WindowStatus;
use edgeperf::analysis::{
    opportunity_events, AnalysisConfig, Dataset, GroupKey, OpportunityMetric, SessionRecord,
};
use edgeperf::core::{session_hdratio, HD_GOODPUT_BPS, MILLISECOND};
use edgeperf::netsim::PathState;
use edgeperf::routing::{AsPath, Asn, PopId, Prefix, Relationship, Rib, Route, RouteId};
use edgeperf::workload::WorkloadConfig;
use edgeperf::world::runner::simulate_session;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;

fn main() {
    // ── The routing table ────────────────────────────────────────────
    let prefix = Prefix::new(0xC633_0000, 16); // 198.51.0.0/16
    let dest = Asn(64496);
    let mut rib = Rib::new();
    rib.insert(Route {
        id: RouteId(1),
        prefix,
        as_path: AsPath(vec![dest]),
        relationship: Relationship::PrivatePeer,
        capacity_bps: 40_000_000_000,
    });
    rib.insert(Route {
        id: RouteId(2),
        prefix,
        as_path: AsPath(vec![Asn(3356), dest]),
        relationship: Relationship::Transit,
        capacity_bps: 100_000_000_000,
    });
    let ranked = rib.ranked(&prefix);
    println!("policy ranking for {prefix}:");
    for (i, r) in ranked.iter().enumerate() {
        println!("  rank {i}: {} via AS-path of {}", r.relationship.label(), r.as_path.len());
    }

    // ── Measure both routes over 12 windows; the peer link congests in
    //    windows 4–7 (loss + standing queue) ────────────────────────────
    let group = GroupKey { pop: PopId(0), prefix, country: 0, continent: 2 };
    let mut rng = ChaCha12Rng::seed_from_u64(99);
    let workload = WorkloadConfig::default();
    let mut records: Vec<SessionRecord> = Vec::new();
    for window in 0..12u32 {
        let congested = (4..8).contains(&window);
        for rank in 0..2u8 {
            let (extra_queue, loss) = if rank == 0 && congested {
                (22.0 * MILLISECOND as f64, 0.02)
            } else {
                (0.0, 0.001)
            };
            let base = if rank == 0 { 20.0 } else { 26.0 }; // transit detours
            for _ in 0..60 {
                let state = PathState {
                    base_rtt: (base * MILLISECOND as f64) as u64,
                    standing_queue: extra_queue as u64,
                    jitter_max: 2 * MILLISECOND,
                    bottleneck_bps: rng.gen_range(8_000_000..40_000_000),
                    loss,
                };
                let plan = workload.generate(&mut rng);
                let obs = simulate_session(&plan, &state, &mut rng);
                let Some(min_rtt) = obs.min_rtt else { continue };
                records.push(SessionRecord {
                    group,
                    window,
                    route_rank: rank,
                    relationship: ranked[rank as usize].relationship,
                    longer_path: rank == 1,
                    more_prepended: false,
                    min_rtt_ns: u32::try_from(min_rtt).expect("a MinRTT under 4.29 s"),
                    hdratio: session_hdratio(&obs, HD_GOODPUT_BPS).and_then(|v| v.hdratio()),
                    bytes: obs.total_bytes(),
                });
            }
        }
    }

    // ── The opportunity analysis decides ─────────────────────────────
    let ds = Dataset::from_records(&records, 12).summarize();
    let cfg = AnalysisConfig::default();
    let g = &ds.groups[0].1;
    println!("\nper-window verdicts (threshold: 5 ms, CI-backed):");
    for (w, a) in opportunity_events(&cfg, g, OpportunityMetric::MinRtt, 5.0).iter().enumerate() {
        let verdict = match a.status {
            WindowStatus::Event => "SHIFT to alternate",
            WindowStatus::Quiet => "keep preferred",
            WindowStatus::Invalid => "insufficient data",
            WindowStatus::NoTraffic => "no traffic",
        };
        let diff = a
            .diff
            .map(|(d, lo, hi)| format!("{d:+.1} ms [{lo:+.1}, {hi:+.1}]"))
            .unwrap_or_default();
        println!("  window {w:>2}: {verdict:<20} {diff}");
    }
    println!("\nCongestion windows 4–7 should be the only SHIFT verdicts: the");
    println!("alternate is 6 ms slower in steady state, so the analysis must");
    println!("not chase noise — exactly the paper's §6 conclusion.");
}
