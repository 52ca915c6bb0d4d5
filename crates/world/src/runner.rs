//! The fleet study runner: ground truth → simulated transfers →
//! production-style measurement → analysis records.
//!
//! For every (prefix, 15-minute window) the runner samples sessions,
//! pins each to the preferred route or an alternate (Edge-Fabric style,
//! §2.2.3), synthesizes the session's HTTP workload, simulates its
//! transfers through the route's current ground-truth condition with the
//! round-based TCP model, and then measures the result exactly as the
//! paper's load-balancer instrumentation would: windowed MinRTT plus
//! HDratio via `Gtestable`/`Tmodel`. Only the measurement outputs reach
//! the analysis — ground truth is never copied through.

use crate::dynamics::{diurnal_factor, local_hour, pick_cluster, route_condition};
use crate::geo::propagation_rtt_ms;
use crate::supervisor::{run_study_supervised, StudyReport, SupervisorConfig};
use crate::topology::World;
use edgeperf_analysis::{GroupKey, RecordShard, RecordSink, SessionRecord};
use edgeperf_core::{session_hdratio, splitmix64, ResponseObs, SessionObs, HD_GOODPUT_BPS};
use edgeperf_netsim::{FastFlow, PathState};
use edgeperf_obs::Metrics;
use edgeperf_routing::pin_sampled;
use edgeperf_tcp::{TcpConfig, MILLISECOND};
use edgeperf_workload::{SessionPlan, WorkloadConfig};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

/// Study parameters.
#[derive(Debug, Clone, Copy)]
pub struct StudyConfig {
    /// Seed for everything (sessions, dynamics draw through the world
    /// seed separately).
    pub seed: u64,
    /// Number of simulated days (the paper's study: 10).
    pub days: u32,
    /// Target sampled sessions per (group, window) at weight 1.0.
    pub sessions_per_group_window: u32,
    /// Worker threads (0 = all available cores).
    pub parallelism: usize,
    /// Workload shape.
    pub workload: WorkloadConfig,
}

impl Default for StudyConfig {
    fn default() -> Self {
        StudyConfig {
            seed: 7,
            days: 10,
            sessions_per_group_window: 240,
            parallelism: 0,
            workload: WorkloadConfig::default(),
        }
    }
}

impl StudyConfig {
    /// Total windows in the study.
    pub fn n_windows(&self) -> u32 {
        self.days * crate::dynamics::WINDOWS_PER_DAY
    }
}

pub(crate) fn thread_count(cfg: &StudyConfig) -> usize {
    if cfg.parallelism == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
    } else {
        cfg.parallelism
    }
}

/// Run the study over `world`, producing one record per sampled session.
///
/// Collects everything into a `Vec` — the exact-analysis path. For the
/// bounded-memory path, pass an
/// [`edgeperf_analysis::StreamingDataset`] to [`run_study_into`].
pub fn run_study(world: &World, cfg: &StudyConfig) -> Vec<SessionRecord> {
    let mut records = Vec::new();
    run_study_into(world, cfg, &mut records);
    records
}

/// Run the study into any [`RecordSink`], returning its [`StudyReport`]:
/// [`run_study_supervised`] under its default configuration, with no
/// faults planned and no metrics recorded. Prefixes are distributed by
/// work stealing, each computed into its own shard, [sealed] when the
/// prefix is done and merged into `sink` in prefix order — so what the sink
/// ends up holding is independent of the parallelism level.
///
/// # Panics
///
/// When a prefix panicked on every attempt the retry budget allows — with
/// the supervisor's reasons.
///
/// [sealed]: edgeperf_analysis::RecordShard::seal
pub fn run_study_into<S: RecordSink>(
    world: &World,
    cfg: &StudyConfig,
    sink: &mut S,
) -> StudyReport {
    let (sup, metrics) = (SupervisorConfig::default(), Metrics::disabled());
    let report = run_study_supervised(world, cfg, &sup, sink, &metrics)
        .expect("the empty plan injects no crash");
    assert!(report.quarantined.is_empty(), "runner thread panicked: {:?}", report.quarantined);
    report
}

/// Simulate and measure every session of prefix `idx`, window by window,
/// polling `cancelled` once per window.
///
/// The supervisor's watchdog aborts a stuck prefix by flipping its
/// cancellation flag; the sim loop honours it at window granularity (the
/// finest point where abandoning work keeps the per-session RNG stream
/// untouched for a future retry). Returns the sessions simulated — every
/// one either pushed into `out` or dropped for want of a MinRTT sample —
/// or `None` if the prefix was abandoned mid-flight: the shard then holds
/// a partial fragment the caller must discard.
pub(crate) fn run_prefix_cancellable<S: RecordShard>(
    world: &World,
    cfg: &StudyConfig,
    idx: usize,
    out: &mut S,
    cancelled: &dyn Fn() -> bool,
) -> Option<u64> {
    let site = &world.prefixes[idx];
    let pop = world.pop(site.pop);
    let group = GroupKey {
        pop: site.pop,
        prefix: site.prefix,
        country: site.country,
        continent: site.continent as u8,
    };
    // One scratch per prefix: every session on this worker reuses the
    // same coalescing buffers instead of allocating per session.
    let mut scratch = SessionScratch::default();
    let mut simulated = 0;

    for window in 0..cfg.n_windows() {
        if cancelled() {
            return None;
        }
        // Sampled-session counts are stratified per group (the statistics
        // need ≥30 samples per route per window); the group's true traffic
        // volume enters the analysis through the records' byte weights.
        // Volume still follows the destination's diurnal activity.
        let activity = 0.7 + 0.6 * diurnal_factor(local_hour(window, site.clusters[0].utc_offset));
        let n_sessions = ((cfg.sessions_per_group_window as f64) * activity) as u32;
        for i in 0..n_sessions.max(1) {
            let session_id =
                splitmix64(cfg.seed ^ (idx as u64) << 40 ^ (window as u64) << 16 ^ i as u64);
            let mut rng = ChaCha12Rng::seed_from_u64(session_id);

            let rank = pin_sampled(session_id, site.routes.len());
            let gt = &site.routes[rank];
            let cond = route_condition(world.config.seed, site, rank, window);
            let cluster_idx = pick_cluster(site, window, rng.gen::<f64>());
            let cluster = site.clusters[cluster_idx];

            let geo_rtt = propagation_rtt_ms(pop.loc, cluster.loc);
            let mut base_rtt_ms = (geo_rtt + gt.penalty_ms + site.last_mile_ms).max(1.0);
            // A PEP splits the connection: the server only measures its
            // own segment (shorter RTT, last-mile loss shielded by the
            // proxy's local retransmission) — the §2.2.1 caveat, faithfully
            // reproduced rather than corrected.
            let pep_shield = if let Some(frac) = site.pep_rtt_fraction {
                base_rtt_ms *= frac;
                0.3
            } else {
                1.0
            };

            // Client access bandwidth draw (log-normal).
            let z = edgeperf_workload::distributions::standard_normal(&mut rng);
            let access_bps =
                (site.access_bw_median_bps * (site.access_bw_sigma * z).exp()).clamp(2.0e5, 5.0e8);

            // Last-link (wireless/cellular) loss varies per client: a
            // sizeable minority of sessions see link-layer loss the route
            // cannot explain (§3.1's wireless/cellular point). This is
            // what creates partial (0 < HDratio < 1) sessions.
            let extra_loss = if rng.gen::<f64>() < 0.3 { rng.gen_range(0.001..0.02) } else { 0.0 };
            // Traffic policing near video bitrates (§4: "the largest
            // barrier to these clients achieving HD goodput is likely the
            // impact of loss and traffic policing"). More prevalent where
            // mobile plans dominate.
            let police_p = match site.continent {
                crate::geo::Continent::Africa => 0.22,
                crate::geo::Continent::Asia => 0.18,
                crate::geo::Continent::SouthAmerica => 0.15,
                _ => 0.06,
            };
            let bottleneck = if rng.gen::<f64>() < police_p {
                let z = edgeperf_workload::distributions::standard_normal(&mut rng);
                access_bps.min(3.5e6 * (0.5 * z).exp())
            } else {
                access_bps
            } * cond.bw_factor;
            let state = PathState {
                base_rtt: (base_rtt_ms * MILLISECOND as f64) as u64,
                standing_queue: (cond.standing_queue_ms * MILLISECOND as f64) as u64,
                jitter_max: (site.jitter_max_ms * MILLISECOND as f64) as u64,
                bottleneck_bps: bottleneck as u64,
                loss: ((cond.loss + extra_loss) * pep_shield).min(0.5),
            };

            let plan = cfg.workload.generate(&mut rng);
            simulated += 1;
            let session = simulate_session_scratch(
                &plan,
                &state,
                TcpConfig::default(),
                &mut rng,
                &mut scratch,
            );
            let Some(min_rtt) = session.min_rtt else { continue };
            let verdict = session_hdratio(&session, HD_GOODPUT_BPS);

            out.push(SessionRecord {
                group,
                window,
                route_rank: rank as u8,
                relationship: gt.route.relationship,
                longer_path: gt.longer_path,
                more_prepended: gt.more_prepended,
                // A `u32` counts 4.29 s; one past it panics, and the
                // supervisor quarantines the prefix and says so.
                min_rtt_ns: u32::try_from(min_rtt).expect("a MinRTT under 4.29 s (2^32 ns)"),
                hdratio: verdict.and_then(|v| v.hdratio()),
                // Weight the sampled session by its group's traffic share.
                bytes: (session.total_bytes() as f64 * site.weight).max(1.0) as u64,
            });
        }
    }
    Some(simulated)
}

/// Execute a session plan over a path condition with the fast TCP model,
/// producing the observation stream the load balancer would capture.
///
/// Writes that arrive while the previous response is still transferring
/// are merged into one transfer (the transport serializes them anyway);
/// the instrumentation sees them as back-to-back responses and coalesces
/// them, mirroring production HTTP/2 behaviour.
/// Log-sigma of the per-transfer throughput variation in
/// [`simulate_session`].
const TXN_BW_SIGMA: f64 = 0.55;

pub fn simulate_session(
    plan: &SessionPlan,
    state: &PathState,
    rng: &mut ChaCha12Rng,
) -> SessionObs {
    simulate_session_with(plan, state, TcpConfig::default(), rng)
}

/// As [`simulate_session`] with an explicit TCP configuration (used by
/// the congestion-control comparison experiment).
pub fn simulate_session_with(
    plan: &SessionPlan,
    state: &PathState,
    tcp: TcpConfig,
    rng: &mut ChaCha12Rng,
) -> SessionObs {
    simulate_session_scratch(plan, state, tcp, rng, &mut SessionScratch::default())
}

/// Reusable per-worker buffers for `simulate_session_scratch`: the
/// write-coalescing member list would otherwise be reallocated for every
/// back-to-back group of every session.
#[derive(Debug, Default)]
pub(crate) struct SessionScratch {
    members: Vec<u64>,
}

/// As [`simulate_session_with`], reusing caller-owned scratch buffers
/// across calls. The hot path: the runner keeps one scratch per prefix.
pub(crate) fn simulate_session_scratch(
    plan: &SessionPlan,
    state: &PathState,
    tcp: TcpConfig,
    rng: &mut ChaCha12Rng,
    scratch: &mut SessionScratch,
) -> SessionObs {
    let mut flow = FastFlow::new(tcp);
    let mut responses: Vec<ResponseObs> = Vec::with_capacity(plan.transactions.len());
    let mut busy_until: u64 = 0;

    let mut i = 0;
    while i < plan.transactions.len() {
        // Collect the back-to-back group starting at i: responses written
        // before the group's transfer would complete join the group. The
        // completion time is probed on clones so the committed transfer
        // consumes the connection's congestion state exactly once.
        let start = plan.transactions[i].offset.max(busy_until);
        let mut group_bytes = plan.transactions[i].bytes;
        let members = &mut scratch.members;
        members.clear();
        members.push(plan.transactions[i].bytes);
        let mut j = i + 1;
        while j < plan.transactions.len() {
            let mut probe_flow = flow.clone();
            let mut probe_rng = rng.clone();
            let end = start + probe_flow.transfer(group_bytes, state, &mut probe_rng).ttotal;
            if plan.transactions[j].offset > end {
                break;
            }
            group_bytes += plan.transactions[j].bytes;
            members.push(plan.transactions[j].bytes);
            j += 1;
        }

        // Effective throughput varies transfer-to-transfer (cross-traffic
        // on the shared last mile, wifi quality): draw a log-normal factor
        // per group. This is what makes marginal sessions *partial*
        // (0 < HDratio < 1) rather than all-or-nothing.
        let z = edgeperf_workload::distributions::standard_normal(rng);
        let varied = PathState {
            bottleneck_bps: ((state.bottleneck_bps as f64 * (TXN_BW_SIGMA * z).exp()).max(1.5e5))
                as u64,
            ..*state
        };
        let tr = flow.transfer(group_bytes, &varied, rng);
        let t0 = start;
        // Emit one observation per original response; the group's
        // endpoints live on the first/last members (see instrument.rs).
        for (k, &bytes) in members.iter().enumerate() {
            let first = k == 0;
            let last = k == members.len() - 1;
            responses.push(ResponseObs {
                bytes,
                issued_at: t0,
                first_tx: if first { Some((t0, tr.wnic)) } else { None },
                t_second_last_ack: if last { Some(t0 + tr.ttotal_second_last) } else { None },
                t_full_ack: if last { Some(t0 + tr.ttotal) } else { None },
                last_packet_bytes: if last { Some(tr.last_packet_bytes) } else { None },
                bytes_in_flight_at_write: if first { 0 } else { 1 },
                prev_unsent_at_write: !first,
            });
        }
        busy_until = t0 + tr.ttotal;
        i = j;
    }

    SessionObs {
        responses,
        min_rtt: flow.min_rtt(),
        http: plan.http,
        duration: plan.duration.max(busy_until),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geo::Continent;
    use crate::topology::WorldConfig;
    use edgeperf_core::{MILLISECOND as NS_MS, SECOND};

    fn min_rtt_ms(r: &SessionRecord) -> f64 {
        f64::from(r.min_rtt_ns) / 1e6
    }

    fn tiny_study() -> (World, StudyConfig) {
        let world = World::generate(WorldConfig::default());
        let cfg = StudyConfig {
            seed: 3,
            days: 1,
            sessions_per_group_window: 2,
            parallelism: 2,
            workload: WorkloadConfig::default(),
        };
        (world, cfg)
    }

    #[test]
    fn study_produces_records_for_all_ranks() {
        let (world, cfg) = tiny_study();
        let records = run_study(&world, &cfg);
        assert!(!records.is_empty());
        let ranks: std::collections::HashSet<u8> = records.iter().map(|r| r.route_rank).collect();
        assert!(ranks.contains(&0));
        assert!(ranks.len() >= 2, "alternates must be measured: {ranks:?}");
    }

    #[test]
    fn records_have_plausible_min_rtt() {
        let (world, cfg) = tiny_study();
        let records = run_study(&world, &cfg);
        for r in &records {
            assert!(r.min_rtt_ns > 1_000_000 && r.min_rtt_ns < 600_000_000, "{} ns", r.min_rtt_ns);
        }
        // Global median in a plausible band (paper: < 40 ms; our world is
        // similar but not identical — allow a generous band).
        let mut rtts: Vec<f64> = records.iter().map(min_rtt_ms).collect();
        rtts.sort_unstable_by(f64::total_cmp);
        let med = rtts[rtts.len() / 2];
        assert!(med > 10.0 && med < 80.0, "median min_rtt = {med}");
    }

    #[test]
    fn many_sessions_have_hdratio() {
        let (world, cfg) = tiny_study();
        let records = run_study(&world, &cfg);
        let with = records.iter().filter(|r| r.hdratio.is_some()).count();
        let frac = with as f64 / records.len() as f64;
        assert!(frac > 0.3, "HDratio coverage = {frac}");
        for r in records.iter().filter_map(|r| r.hdratio) {
            assert!((0.0..=1.0).contains(&r));
        }
    }

    #[test]
    fn study_is_deterministic() {
        let (world, cfg) = tiny_study();
        let mut a = run_study(&world, &cfg);
        let mut b = run_study(&world, &cfg);
        let key = |r: &SessionRecord| (r.group.prefix.base, r.window, r.route_rank, r.min_rtt_ns);
        a.sort_by_key(key);
        b.sort_by_key(key);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(key(x), key(y));
            assert_eq!(x.hdratio.map(f64::to_bits), y.hdratio.map(f64::to_bits));
        }
    }

    #[test]
    fn counters_balance_across_parallelism() {
        let (world, cfg) = tiny_study();
        let reports: Vec<StudyReport> = [1usize, 4]
            .iter()
            .map(|&p| {
                let mut records: Vec<SessionRecord> = Vec::new();
                let report =
                    run_study_into(&world, &StudyConfig { parallelism: p, ..cfg }, &mut records);
                assert_eq!(report.records_emitted, records.len() as u64);
                assert_eq!(
                    report.sessions_simulated,
                    report.records_emitted + report.sessions_dropped_no_minrtt,
                    "every simulated session is either emitted or dropped"
                );
                assert_eq!(report.completed, world.prefixes.len());
                report
            })
            .collect();
        assert_eq!(reports[0], reports[1]);
    }

    #[test]
    fn observed_run_matches_sink_at_parallelism_1_and_4() {
        // The end-to-end contract: for a fixed seed, the metrics
        // snapshot's emitted-record counter equals the sink's record
        // count — and both are invariant under parallelism.
        let (world, cfg) = tiny_study();
        let mut emitted = Vec::new();
        for p in [1usize, 4] {
            let metrics = Metrics::enabled();
            let mut records: Vec<SessionRecord> = Vec::new();
            run_study_supervised(
                &world,
                &StudyConfig { parallelism: p, ..cfg },
                &SupervisorConfig::default(),
                &mut records,
                &metrics,
            )
            .unwrap();
            let snap = metrics.snapshot();
            assert_eq!(
                snap.counters["runner.records_emitted"],
                records.len() as u64,
                "parallelism {p}"
            );
            assert_eq!(
                snap.counters["runner.sessions_simulated"],
                snap.counters["runner.records_emitted"] + snap.counters["runner.drop.no_minrtt"]
            );
            assert_eq!(snap.counters["runner.prefixes"], world.prefixes.len() as u64);
            // The sink-stats gauges agree with the runner counters.
            assert_eq!(snap.gauges["sink.vec.records"] as u64, records.len() as u64);
            // Per-worker scheduler gauges: one triple per worker, steals
            // summing to the prefix count.
            let steals: f64 =
                (0..p).map(|w| snap.gauges[&format!("scheduler.worker.{w}.steals")]).sum();
            assert_eq!(steals as u64, world.prefixes.len() as u64);
            assert_eq!(snap.histograms["scheduler.queue_depth"].count, world.prefixes.len() as u64);
            // One fragment a prefix, merged in prefix order.
            assert_eq!(snap.histograms["sink.merge_ns"].count, world.prefixes.len() as u64);
            // Span taxonomy is present and nested.
            let names: Vec<&str> = snap.spans.iter().map(|s| s.name.as_str()).collect();
            for want in ["study", "study.run", "study.run.merge", "study.finalize"] {
                assert!(names.contains(&want), "missing span {want} in {names:?}");
            }
            emitted.push(records.len());
        }
        assert_eq!(emitted[0], emitted[1], "record count is parallelism-invariant");
    }

    #[test]
    fn africa_is_slower_than_europe() {
        let world = World::generate(WorldConfig::default());
        let cfg = StudyConfig {
            seed: 5,
            days: 1,
            sessions_per_group_window: 4,
            parallelism: 0,
            workload: WorkloadConfig::default(),
        };
        let records = run_study(&world, &cfg);
        let med = |cont: Continent| {
            let mut v: Vec<f64> = records
                .iter()
                .filter(|r| r.group.continent == cont as u8 && r.route_rank == 0)
                .map(min_rtt_ms)
                .collect();
            v.sort_unstable_by(f64::total_cmp);
            v[v.len() / 2]
        };
        assert!(med(Continent::Africa) > med(Continent::Europe));
    }

    #[test]
    fn simulate_session_coalesces_overlapping_writes() {
        let state = PathState {
            base_rtt: 100 * NS_MS,
            standing_queue: 0,
            jitter_max: 0,
            bottleneck_bps: 1_000_000, // slow: writes will overlap
            loss: 0.0,
        };
        let plan = SessionPlan {
            http: edgeperf_core::HttpVersion::H2,
            endpoint: edgeperf_workload::EndpointKind::Api,
            transactions: vec![
                edgeperf_workload::TxnPlan { offset: 0, bytes: 200_000 },
                edgeperf_workload::TxnPlan { offset: 10 * NS_MS, bytes: 5_000 },
            ],
            duration: 10 * SECOND,
        };
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        let obs = simulate_session(&plan, &state, &mut rng);
        assert_eq!(obs.responses.len(), 2);
        assert!(obs.responses[1].prev_unsent_at_write);
        assert!(obs.responses[0].first_tx.is_some());
        assert!(obs.responses[1].t_full_ack.is_some());
        // Instrumentation must coalesce them into one transaction.
        let txns = edgeperf_core::assemble_transactions(&obs.responses);
        assert_eq!(txns.len(), 1);
        assert_eq!(txns[0].bytes_full, 205_000);
    }

    #[test]
    fn simulate_session_separates_spaced_writes() {
        let state = PathState {
            base_rtt: 40 * NS_MS,
            standing_queue: 0,
            jitter_max: 0,
            bottleneck_bps: 50_000_000,
            loss: 0.0,
        };
        let plan = SessionPlan {
            http: edgeperf_core::HttpVersion::H2,
            endpoint: edgeperf_workload::EndpointKind::Api,
            transactions: vec![
                edgeperf_workload::TxnPlan { offset: 0, bytes: 30_000 },
                edgeperf_workload::TxnPlan { offset: 5 * SECOND, bytes: 30_000 },
            ],
            duration: 30 * SECOND,
        };
        let mut rng = ChaCha12Rng::seed_from_u64(2);
        let obs = simulate_session(&plan, &state, &mut rng);
        let txns = edgeperf_core::assemble_transactions(&obs.responses);
        assert_eq!(txns.len(), 2);
        assert!(txns.iter().all(|t| t.eligible));
    }

    #[test]
    fn good_path_yields_high_hdratio() {
        let state = PathState {
            base_rtt: 30 * NS_MS,
            standing_queue: 0,
            jitter_max: 2 * NS_MS,
            bottleneck_bps: 25_000_000,
            loss: 0.0,
        };
        let mut rng = ChaCha12Rng::seed_from_u64(3);
        let mut tested = 0;
        let mut sum = 0.0;
        for _ in 0..200 {
            let plan = WorkloadConfig::default().generate(&mut rng);
            let obs = simulate_session(&plan, &state, &mut rng);
            if let Some(v) = session_hdratio(&obs, HD_GOODPUT_BPS) {
                if let Some(h) = v.hdratio() {
                    tested += 1;
                    sum += h;
                }
            }
        }
        assert!(tested > 20, "tested = {tested}");
        let mean = sum / tested as f64;
        assert!(mean > 0.8, "mean HDratio on a 25 Mbps clean path = {mean}");
    }

    #[test]
    fn slow_path_yields_low_hdratio() {
        let state = PathState {
            base_rtt: 30 * NS_MS,
            standing_queue: 0,
            jitter_max: 2 * NS_MS,
            bottleneck_bps: 1_000_000, // below HD rate
            loss: 0.0,
        };
        let mut rng = ChaCha12Rng::seed_from_u64(4);
        let mut tested = 0;
        let mut sum = 0.0;
        for _ in 0..200 {
            let plan = WorkloadConfig::default().generate(&mut rng);
            let obs = simulate_session(&plan, &state, &mut rng);
            if let Some(v) = session_hdratio(&obs, HD_GOODPUT_BPS) {
                if let Some(h) = v.hdratio() {
                    tested += 1;
                    sum += h;
                }
            }
        }
        if tested > 0 {
            let mean = sum / tested as f64;
            assert!(mean < 0.3, "mean HDratio on a 1 Mbps path = {mean}");
        }
    }
}

#[cfg(test)]
mod pep_runner_tests {
    use super::*;
    use crate::topology::{World, WorldConfig};

    /// The §2.2.1 caveat, observable end to end: a PEP'd prefix measures
    /// lower MinRTT than the same prefix without its PEP.
    #[test]
    fn pep_lowers_measured_min_rtt() {
        let mut world = World::generate(WorldConfig::default());
        let idx = world
            .prefixes
            .iter()
            .position(|p| p.pep_rtt_fraction.is_some())
            .expect("a PEP prefix exists");
        let cfg = StudyConfig {
            seed: 11,
            days: 1,
            sessions_per_group_window: 3,
            parallelism: 1,
            ..Default::default()
        };
        // Run the PEP'd prefix, then the identical prefix with PEP removed.
        let median = |world: &World| {
            let mut out = Vec::new();
            assert!(run_prefix_cancellable(world, &cfg, idx, &mut out, &|| false).is_some());
            let mut v: Vec<f64> = out
                .iter()
                .filter(|r| r.route_rank == 0)
                .map(|r| f64::from(r.min_rtt_ns) / 1e6)
                .collect();
            v.sort_unstable_by(f64::total_cmp);
            v[v.len() / 2]
        };
        let with_pep = median(&world);
        world.prefixes[idx].pep_rtt_fraction = None;
        let without = median(&world);
        assert!(
            with_pep < without * 0.8,
            "PEP must shorten the measured segment: {with_pep} vs {without}"
        );
    }
}
