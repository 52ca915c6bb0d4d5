//! The study driver: the one scheduler every study runs under.
//!
//! The paper's pipeline ran continuously for 10 days over every PoP
//! (§3.3); at that scale a bad prefix, a wedged worker, or a mid-run
//! machine loss must not discard hours of work. [`run_study_supervised`]
//! is the work-stealing runner *and* its supervisor — `run_study` and
//! `run_study_into` are this loop under the default configuration — and
//! it guarantees the study *always completes with an exact account of
//! what is missing*, into whichever [`RecordSink`] the caller reports from:
//!
//! - **One fragment per attempt.** Each (prefix, attempt) computes into a
//!   fresh shard the sink's owner made ([`RecordSink::new_shard`]) and
//!   shipped with the work item; a worker [seals](RecordShard::seal) it
//!   when the prefix is done. A failed attempt's fragment is
//!   dropped, so nothing poisoned ever reaches the sink.
//! - **Panic isolation.** Each attempt runs under `catch_unwind`. A
//!   panicking prefix is requeued with a bounded retry budget and
//!   exponential backoff; once the budget is spent it is **quarantined**
//!   into [`StudyReport::quarantined`] with the panic payload, and the
//!   rest of the study is unaffected.
//! - **Watchdog deadlines.** A per-worker [`HeartbeatBoard`] exposes what
//!   every worker is running and for how long. Tasks past half their
//!   deadline are marked slow (`supervisor.watchdog.slow`); tasks past
//!   the full deadline are cooperatively cancelled (the sim loop checks
//!   once per window), aborted (`supervisor.watchdog.aborts`), and
//!   requeued under the same retry budget. Deadlines double per attempt.
//! - **Deterministic in-order merge.** Fragments arrive in any order but
//!   merge into the sink strictly by prefix index; out-of-order arrivals
//!   park in their slot until the cursor reaches them. Sink state after
//!   prefix *k* therefore never depends on scheduling — why every sink's
//!   output is the same bytes at any worker count, and the foundation of
//!   bit-identical resume ([`crate::checkpoint`] hooks this merge).
//! - **Fault injection.** Every failure mode above is exercised through a
//!   [`FaultPlan`] — deterministic, spec-string-driven, honoured by unit
//!   tests and the CI chaos job alike.
//!
//! The [`StudyReport`] is the study's one account: what merged, what was
//! simulated, emitted and dropped, and every recovery decision, cumulative
//! across resume. The run records what the runner always has — spans
//! `study` → `study.run` (with `study.run.merge` as the merge share) and
//! `study.finalize`, per-worker gauges
//! `scheduler.worker.<i>.{steals,busy_sec,idle_sec}`, the
//! `scheduler.queue_depth` and `sink.merge_ns` histograms, post-run
//! `sink.<name>.*` gauges — and, once the run ends, this process's share
//! of the report as the `runner.*` and `supervisor.*` counters.
//! Granularity is per prefix and per worker, never per record.
//!
//! What the supervisor cannot do: preemptively kill a truly wedged
//! computation. Cancellation is cooperative (checked at window
//! granularity inside the sim loop), so a loop that never reaches the
//! check can only be marked stuck in metrics, not reclaimed. In-process
//! isolation is the deliberate trade: fragments stay cheap (no
//! serialization per prefix) and determinism is easy to prove.
//!
//! [`HeartbeatBoard`]: edgeperf_obs::HeartbeatBoard

use crate::runner::{run_prefix_cancellable, thread_count, StudyConfig};
use crate::topology::World;
use edgeperf_analysis::{RecordShard, RecordSink, SessionRecord, SinkStats};
use edgeperf_core::plan::{clauses, write_clauses, Clause, PlanError};
use edgeperf_obs::{HeartbeatBoard, Metrics};
use serde::{Deserialize, Serialize};
use std::collections::{HashSet, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One prefix-targeted fault clause: fires while `attempt < attempts`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefixFault {
    /// Target prefix index.
    pub prefix: usize,
    /// How many attempts are affected (1 = first attempt only).
    pub attempts: u32,
}

/// One worker-targeted delay clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerDelay {
    /// Target worker index.
    pub worker: usize,
    /// Milliseconds to sleep (cancel-aware) before each claimed prefix.
    pub delay_ms: u64,
}

/// A deterministic fault-injection plan, carried by
/// [`SupervisorConfig::fault_plan`] (`repro --fault-plan`) down to the
/// workers.
///
/// Spec strings are `;`-separated clauses:
///
/// | clause | effect |
/// |---|---|
/// | `panic:K` or `panic:K@A` | prefix `K` panics on its first `A` attempts (default 1) |
/// | `stall:K` or `stall:K@A` | prefix `K` stalls (cancel-aware) on its first `A` attempts |
/// | `delay:W:MS` | worker `W` sleeps `MS` ms before every prefix it claims |
/// | `malformed:N` | every `N`-th record of every prefix is corrupted (NaN HDratio) before validation |
/// | `mergefail:K` or `mergefail:K@A` | merging prefix `K` into the sink fails on the first `A` tries |
/// | `crash:K` | the supervisor aborts right after merging (and journalling) prefix `K` |
///
/// Every clause is a pure function of (prefix, attempt) or (worker), so a
/// faulty run is exactly reproducible.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Prefixes that panic.
    pub panics: Vec<PrefixFault>,
    /// Prefixes that stall until cancelled (or a 60 s safety cap).
    pub stalls: Vec<PrefixFault>,
    /// Per-worker claim delays.
    pub delays: Vec<WorkerDelay>,
    /// Corrupt every N-th record of each prefix before sink validation.
    pub malformed_every: Option<u64>,
    /// Prefixes whose sink merge fails.
    pub merge_failures: Vec<PrefixFault>,
    /// Simulate a hard crash right after this prefix merges.
    pub crash_after: Option<usize>,
}

impl FaultPlan {
    /// Parse a spec string (see the type docs; the grammar is
    /// [`edgeperf_core::plan`]'s). Empty input is the empty plan.
    pub fn parse(spec: &str) -> Result<FaultPlan, PlanError> {
        let prefix_fault = |clause: &Clause<'_>| -> Result<PrefixFault, PlanError> {
            let [prefix, attempts] = clause.args([None, Some(1)])?;
            Ok(PrefixFault { prefix: clause.fit(prefix)?, attempts: clause.fit(attempts)? })
        };
        let mut plan = FaultPlan::default();
        for clause in clauses("fault plan", spec) {
            let clause = clause?;
            match clause.kind {
                "panic" => plan.panics.push(prefix_fault(&clause)?),
                "stall" => plan.stalls.push(prefix_fault(&clause)?),
                "mergefail" => plan.merge_failures.push(prefix_fault(&clause)?),
                "delay" => {
                    let [worker, delay_ms] = clause.args([None, None])?;
                    plan.delays.push(WorkerDelay { worker: clause.fit(worker)?, delay_ms });
                }
                "malformed" => {
                    let [n] = clause.args([None])?;
                    if n == 0 {
                        return Err(clause.error("period must be ≥ 1"));
                    }
                    plan.malformed_every = Some(n);
                }
                "crash" => plan.crash_after = Some(clause.fit(clause.args([None])?[0])?),
                _ => return Err(clause.error("unknown clause kind")),
            }
        }
        Ok(plan)
    }

    /// True when no clause is present.
    pub fn is_empty(&self) -> bool {
        *self == FaultPlan::default()
    }

    /// Does a clause of `faults` cover this try (attempt or merge) of `prefix`?
    fn fires(faults: &[PrefixFault], prefix: usize, attempt: u32) -> bool {
        faults.iter().any(|f| f.prefix == prefix && attempt < f.attempts)
    }

    fn delay_ms(&self, worker: usize) -> Option<u64> {
        self.delays.iter().find(|d| d.worker == worker).map(|d| d.delay_ms)
    }
}

impl fmt::Display for FaultPlan {
    /// Canonical spec string (round-trips through [`FaultPlan::parse`]).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let prefix_faults = |kind: &str, faults: &[PrefixFault]| -> Vec<String> {
            faults.iter().map(|p| format!("{kind}:{}@{}", p.prefix, p.attempts)).collect()
        };
        let mut clauses = prefix_faults("panic", &self.panics);
        clauses.extend(prefix_faults("stall", &self.stalls));
        clauses.extend(self.delays.iter().map(|d| format!("delay:{}:{}", d.worker, d.delay_ms)));
        clauses.extend(self.malformed_every.map(|n| format!("malformed:{n}")));
        clauses.extend(prefix_faults("mergefail", &self.merge_failures));
        clauses.extend(self.crash_after.map(|k| format!("crash:{k}")));
        write_clauses(f, &clauses)
    }
}

/// Retries per prefix before quarantine (attempts = budget + 1).
pub const RETRY_BUDGET: u32 = 2;
/// Base requeue backoff after a failure; doubles on every retry.
const BACKOFF: Duration = Duration::from_millis(10);
/// Supervisor wake-up period (watchdog scan).
const TICK: Duration = Duration::from_millis(20);

/// What a study's supervisor is told. The default suits real studies;
/// the watchdog tests shrink the deadline.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Base wall-clock budget per prefix; doubles on every retry.
    pub deadline: Duration,
    /// Faults to inject (empty in production).
    pub fault_plan: FaultPlan,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig { deadline: Duration::from_secs(30), fault_plan: FaultPlan::default() }
    }
}

/// A prefix the supervisor gave up on, with the evidence.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuarantinedPrefix {
    /// Prefix index in `world.prefixes`.
    pub prefix: usize,
    /// Attempts consumed (retry budget + 1 on quarantine).
    pub attempts: u32,
    /// The final failure: panic payload or watchdog/merge diagnosis.
    pub reason: String,
}

/// What the study did: completion, quarantine, every recovery decision,
/// and cumulative throughput counters (carried across resume). Serialized
/// as is into `study_report.json` and the checkpoint manifest.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StudyReport {
    /// Prefixes in the study.
    pub n_prefixes: usize,
    /// Prefixes merged into the sink (including before a resume).
    pub completed: usize,
    /// Prefixes abandoned after exhausting their retry budget.
    pub quarantined: Vec<QuarantinedPrefix>,
    /// Requeues after a failure (panic, watchdog abort, merge failure).
    pub retries: u64,
    /// Tasks that crossed half their deadline.
    pub watchdog_slow: u64,
    /// Tasks aborted for exceeding their deadline.
    pub watchdog_aborts: u64,
    /// Injected/real sink-merge failures observed.
    pub merge_failures: u64,
    /// Records dropped by sink-side validation (non-finite fields).
    pub malformed_dropped: u64,
    /// Messages for already-resolved (prefix, attempt) pairs, dropped.
    pub stale_results: u64,
    /// Checkpoints the process that made this report had written by then
    /// (in a manifest: that manifest included).
    pub checkpoints_written: u64,
    /// Merge-cursor position restored from a checkpoint, if any.
    pub resumed_at: Option<usize>,
    /// Sessions simulated across merged prefixes (cumulative).
    pub sessions_simulated: u64,
    /// Records emitted across merged prefixes (cumulative, pre-validation).
    pub records_emitted: u64,
    /// Sessions dropped for lack of a MinRTT sample (cumulative).
    pub sessions_dropped_no_minrtt: u64,
}

impl StudyReport {
    /// Human-readable summary for the CLI.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "supervisor: {}/{} prefixes merged, {} quarantined, {} retries\n",
            self.completed,
            self.n_prefixes,
            self.quarantined.len(),
            self.retries
        ));
        out.push_str(&format!(
            "  sessions: {} simulated, {} records emitted, {} dropped (no MinRTT)\n",
            self.sessions_simulated, self.records_emitted, self.sessions_dropped_no_minrtt
        ));
        out.push_str(&format!(
            "  watchdog: {} slow, {} aborted | merge failures: {} | malformed dropped: {} | \
             stale results: {}\n",
            self.watchdog_slow,
            self.watchdog_aborts,
            self.merge_failures,
            self.malformed_dropped,
            self.stale_results
        ));
        if let Some(at) = self.resumed_at {
            out.push_str(&format!(
                "  resumed from checkpoint at prefix {at}; {} checkpoints written since\n",
                self.checkpoints_written
            ));
        } else if self.checkpoints_written > 0 {
            out.push_str(&format!("  checkpoints written: {}\n", self.checkpoints_written));
        }
        for q in &self.quarantined {
            out.push_str(&format!(
                "  quarantined prefix {} after {} attempts: {}\n",
                q.prefix, q.attempts, q.reason
            ));
        }
        out
    }
}

/// Errors the supervised path can surface. Worker failures never reach
/// here (they end in quarantine); these are checkpoint-layer problems
/// plus the injected crash.
#[derive(Debug)]
pub enum SupervisorError {
    /// A checkpoint file could not be read, written, or parsed.
    Checkpoint {
        /// The file involved.
        path: PathBuf,
        /// What went wrong.
        message: String,
    },
    /// A checkpoint exists but belongs to a different study shape.
    Mismatch {
        /// The fingerprint field that differs.
        field: String,
        /// Value the current run expects.
        expected: String,
        /// Value stored in the checkpoint.
        found: String,
    },
    /// The fault plan's `crash:K` clause fired: the study stopped after
    /// checkpointing prefix `K`, simulating a hard kill.
    InjectedCrash {
        /// Prefix after which the crash fired.
        after_prefix: usize,
    },
}

impl fmt::Display for SupervisorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SupervisorError::Checkpoint { path, message } => {
                write!(f, "checkpoint {}: {message}", path.display())
            }
            SupervisorError::Mismatch { field, expected, found } => write!(
                f,
                "checkpoint belongs to a different study: {field} is {found}, this run has \
                 {expected}"
            ),
            SupervisorError::InjectedCrash { after_prefix } => {
                write!(f, "injected crash after merging prefix {after_prefix}")
            }
        }
    }
}

impl std::error::Error for SupervisorError {}

/// Work queue entry: one (prefix, attempt) to compute into `fragment`,
/// possibly embargoed until its backoff expires. The fragment is made by
/// the sink's owner, so a worker never touches the sink itself.
struct Work<Sh> {
    prefix: usize,
    attempt: u32,
    not_before: Option<Instant>,
    fragment: Sh,
}

/// The first ready item and how many were queued when it was taken.
fn pop_ready<Sh>(queue: &Mutex<VecDeque<Work<Sh>>>) -> Option<(Work<Sh>, usize)> {
    let mut q = queue.lock().expect("no panic under the queue lock");
    let (now, depth) = (Instant::now(), q.len());
    let idx = q.iter().position(|w| w.not_before.is_none_or(|t| t <= now))?;
    q.remove(idx).map(|work| (work, depth))
}

/// Sink-side validation plus fault injection, wrapped around a worker's
/// fragment. Validation is always on: a record with a non-finite HDratio
/// is dropped and counted rather than poisoning a digest or a figure (a
/// MinRTT is a whole count of nanoseconds, finite by type). The injector corrupts every N-th record *before* validation,
/// so the chaos tests exercise the same path a buggy instrumentation
/// change would hit.
struct GuardShard<'a, S: RecordShard> {
    inner: &'a mut S,
    malformed_every: Option<u64>,
    /// Records pushed: the prefix's emitted count.
    seen: u64,
    dropped: u64,
}

impl<S: RecordShard> RecordShard for GuardShard<'_, S> {
    fn push(&mut self, mut record: SessionRecord) {
        self.seen += 1;
        if let Some(n) = self.malformed_every {
            if self.seen.is_multiple_of(n) {
                record.hdratio = Some(f64::NAN);
            }
        }
        if record.hdratio.is_some_and(|h| !h.is_finite()) {
            self.dropped += 1;
            return;
        }
        self.inner.push(record);
    }

    fn seal(&mut self) {
        self.inner.seal();
    }
}

/// One finished attempt: its fragment and what filling it counted.
struct Computed<Sh> {
    fragment: Sh,
    sessions_simulated: u64,
    records_emitted: u64,
    malformed_dropped: u64,
}

/// What a worker reports: the attempt's result, or its panic payload. A
/// cancelled attempt reports nothing — the watchdog accounted for it when
/// it decided.
struct Msg<Sh> {
    prefix: usize,
    attempt: u32,
    outcome: Result<Computed<Sh>, String>,
}

enum Slot<Sh> {
    /// Unresolved: queued, in flight, or awaiting retry.
    Pending,
    /// Computed, parked until the merge cursor arrives.
    Ready(Computed<Sh>),
    Merged,
    Quarantined,
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    let text = payload.downcast_ref::<&str>().map(|s| (*s).to_string());
    text.or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

fn sleep_cancellable(ms: u64, cancelled: &dyn Fn() -> bool) {
    let t0 = Instant::now();
    while t0.elapsed() < Duration::from_millis(ms) && !cancelled() {
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Exponential scaling capped so the shift cannot overflow.
fn scaled(base: Duration, attempt: u32) -> Duration {
    base.saturating_mul(1u32 << attempt.min(10))
}

/// What [`crate::checkpoint`] hangs on the merge: called with the merge
/// cursor and the report as they stand once `(prefix, fragment)` is in —
/// just before it is — and once more, with `None`, when the study is over.
pub(crate) type Journal<'a, Sh> =
    dyn FnMut(usize, Option<(usize, &Sh)>, &StudyReport) -> Result<(), SupervisorError> + 'a;

/// Run the study into any [`RecordSink`] under the supervisor. See the
/// module docs for the guarantees and for what an enabled [`Metrics`]
/// handle records; on success returns the [`StudyReport`].
///
/// # Errors
///
/// Only the fault plan's injected crash: worker failures are handled
/// (retried or quarantined) and reported in the [`StudyReport`].
pub fn run_study_supervised<S: RecordSink>(
    world: &World,
    cfg: &StudyConfig,
    sup: &SupervisorConfig,
    sink: &mut S,
    metrics: &Metrics,
) -> Result<StudyReport, SupervisorError> {
    drive(world, cfg, sup, sink, metrics, None, &mut |_, _, _| Ok(()))
}

/// The loop behind [`run_study_supervised`]: optionally picking up at a
/// `resumed` (cursor, report) whose prefixes the caller already merged
/// into `sink`, and telling `journal` about every merge.
pub(crate) fn drive<S: RecordSink>(
    world: &World,
    cfg: &StudyConfig,
    sup: &SupervisorConfig,
    sink: &mut S,
    metrics: &Metrics,
    resumed: Option<(usize, StudyReport)>,
    journal: &mut Journal<'_, S::Shard>,
) -> Result<StudyReport, SupervisorError> {
    let _study = metrics.span("study");
    let n = world.prefixes.len();
    let threads = thread_count(cfg).max(1);
    let plan = &sup.fault_plan;

    let (mut cursor, mut report) =
        resumed.unwrap_or((0, StudyReport { n_prefixes: n, ..StudyReport::default() }));
    let start = report.clone();
    let mut slots: Vec<Slot<S::Shard>> =
        (0..n).map(|p| if p < cursor { Slot::Merged } else { Slot::Pending }).collect();
    for q in &report.quarantined {
        slots[q.prefix] = Slot::Quarantined;
    }

    let queue: Mutex<VecDeque<Work<S::Shard>>> = Mutex::new(
        (cursor..n)
            .filter(|&p| matches!(slots[p], Slot::Pending))
            .map(|prefix| Work { prefix, attempt: 0, not_before: None, fragment: sink.new_shard() })
            .collect(),
    );
    let mut attempts: Vec<u32> = vec![0; n];
    let done = AtomicBool::new(false);
    let board = HeartbeatBoard::new(threads);
    let (tx, rx) = mpsc::channel::<Msg<S::Shard>>();

    let mut crash: Option<SupervisorError> = None;

    let merge_ns = metrics.histogram("sink.merge_ns");

    let run = metrics.span("study.run");
    std::thread::scope(|scope| {
        let queue = &queue;
        let done = &done;
        let board = &board;
        for w in 0..threads {
            let tx = tx.clone();
            let metrics = metrics.clone();
            scope.spawn(move || {
                let queue_depth = metrics.histogram("scheduler.queue_depth");
                let started = Instant::now();
                // `worked_until`: when this worker's last task ended — what
                // it waits after that is the supervisor's tail, not idleness.
                let (mut busy, mut steals, mut worked_until) = (Duration::ZERO, 0u64, started);
                while !done.load(Ordering::Relaxed) {
                    let Some((work, depth)) = pop_ready(queue) else {
                        std::thread::sleep(Duration::from_micros(200));
                        continue;
                    };
                    queue_depth.record(depth as u64);
                    steals += 1;
                    let t0 = Instant::now();
                    let Work { prefix, attempt, mut fragment, .. } = work;
                    let token = board.begin(w, prefix);
                    let cancelled = || board.cancelled(w, token);
                    if let Some(ms) = plan.delay_ms(w) {
                        sleep_cancellable(ms, &cancelled);
                    }
                    let result = catch_unwind(AssertUnwindSafe(|| {
                        if FaultPlan::fires(&plan.panics, prefix, attempt) {
                            panic!(
                                "fault-plan: injected panic on prefix {prefix} attempt {attempt}"
                            );
                        }
                        if FaultPlan::fires(&plan.stalls, prefix, attempt) {
                            // Stall until the watchdog cancels us (or a safety
                            // cap, after which the task proceeds as merely
                            // slow — keeps watchdog-less runs finite).
                            sleep_cancellable(60_000, &cancelled);
                        }
                        let mut guard = GuardShard {
                            inner: &mut fragment,
                            malformed_every: plan.malformed_every,
                            seen: 0,
                            dropped: 0,
                        };
                        let sessions_simulated =
                            run_prefix_cancellable(world, cfg, prefix, &mut guard, &cancelled)?;
                        // The prefix is this fragment's alone and is done:
                        // the shard may settle it now.
                        guard.seal();
                        let (records_emitted, malformed_dropped) = (guard.seen, guard.dropped);
                        Some(Computed {
                            fragment,
                            sessions_simulated,
                            records_emitted,
                            malformed_dropped,
                        })
                    }));
                    board.finish(w);
                    worked_until = Instant::now();
                    busy += worked_until - t0;
                    let outcome = match result {
                        Ok(Some(computed)) => Ok(computed),
                        Ok(None) => continue,
                        Err(payload) => Err(panic_message(payload)),
                    };
                    if tx.send(Msg { prefix, attempt, outcome }).is_err() {
                        break;
                    }
                }
                if metrics.is_enabled() {
                    let pre = format!("scheduler.worker.{w}");
                    let idle = (worked_until - started).saturating_sub(busy);
                    metrics.gauge(&format!("{pre}.steals")).set(steals as f64);
                    metrics.gauge(&format!("{pre}.busy_sec")).set(busy.as_secs_f64());
                    metrics.gauge(&format!("{pre}.idle_sec")).set(idle.as_secs_f64());
                }
            });
        }
        drop(tx);

        // ---- supervisor loop (runs on the scope's owning thread) ----
        let mut merge_tries: Vec<u32> = vec![0; n];
        let mut aborted: HashSet<(usize, u64)> = HashSet::new();
        let mut slow_marked: HashSet<(usize, u64)> = HashSet::new();

        // Requeue (within budget) or quarantine the current attempt of
        // `prefix`; shared by panic, watchdog-abort, and merge-failure
        // handling.
        macro_rules! fail_attempt {
            ($prefix:expr, $reason:expr) => {{
                let p: usize = $prefix;
                let a = attempts[p];
                if a < RETRY_BUDGET {
                    attempts[p] = a + 1;
                    report.retries += 1;
                    slots[p] = Slot::Pending;
                    queue.lock().expect("no panic under the queue lock").push_back(Work {
                        prefix: p,
                        attempt: a + 1,
                        not_before: Some(Instant::now() + scaled(BACKOFF, a)),
                        fragment: sink.new_shard(),
                    });
                } else {
                    slots[p] = Slot::Quarantined;
                    report.quarantined.push(QuarantinedPrefix {
                        prefix: p,
                        attempts: a + 1,
                        reason: $reason,
                    });
                }
            }};
        }

        loop {
            let first = match rx.recv_timeout(TICK) {
                Ok(msg) => Some(msg),
                Err(RecvTimeoutError::Timeout) => None,
                Err(RecvTimeoutError::Disconnected) => break,
            };
            for msg in first.into_iter().chain(rx.try_iter()) {
                let actionable = matches!(slots[msg.prefix], Slot::Pending)
                    && msg.attempt == attempts[msg.prefix];
                match msg.outcome {
                    _ if !actionable => report.stale_results += 1,
                    Ok(computed) => {
                        slots[msg.prefix] = Slot::Ready(computed);
                        // A retry may still be queued from a watchdog
                        // abort whose original attempt then finished;
                        // it is no longer needed.
                        queue
                            .lock()
                            .expect("no panic under the queue lock")
                            .retain(|w| w.prefix != msg.prefix);
                    }
                    Err(payload) => fail_attempt!(msg.prefix, format!("panic: {payload}")),
                }
            }

            // Advance the in-order merge cursor over everything resolved.
            while cursor < n {
                match &slots[cursor] {
                    Slot::Pending => break,
                    Slot::Merged | Slot::Quarantined => {
                        cursor += 1;
                        continue;
                    }
                    Slot::Ready(_) => {}
                }
                merge_tries[cursor] += 1;
                if FaultPlan::fires(&plan.merge_failures, cursor, merge_tries[cursor] - 1) {
                    report.merge_failures += 1;
                    fail_attempt!(cursor, "sink merge failure (injected)".to_string());
                    continue;
                }
                let Slot::Ready(computed) = std::mem::replace(&mut slots[cursor], Slot::Merged)
                else {
                    unreachable!("checked above");
                };
                let Computed { fragment, sessions_simulated, records_emitted, malformed_dropped } =
                    computed;
                report.completed += 1;
                report.sessions_simulated += sessions_simulated;
                report.records_emitted += records_emitted;
                // A simulated session not emitted had no MinRTT sample.
                report.sessions_dropped_no_minrtt += sessions_simulated - records_emitted;
                report.malformed_dropped += malformed_dropped;
                let merged_prefix = cursor;
                cursor += 1;
                if let Err(e) = journal(cursor, Some((merged_prefix, &fragment)), &report) {
                    crash = Some(e);
                    break;
                }
                {
                    let _merge = metrics.span("study.run.merge");
                    merge_ns.time(|| sink.merge_shard(fragment));
                }
                if plan.crash_after == Some(merged_prefix) {
                    crash = Some(SupervisorError::InjectedCrash { after_prefix: merged_prefix });
                    break;
                }
            }
            if crash.is_some() {
                break;
            }

            // Watchdog: scan in-flight tasks against their deadlines.
            for t in board.active() {
                if aborted.contains(&(t.worker, t.token)) || t.prefix >= n {
                    continue;
                }
                if matches!(slots[t.prefix], Slot::Pending) {
                    let deadline = scaled(sup.deadline, attempts[t.prefix]);
                    let elapsed = Duration::from_micros(t.elapsed_us);
                    if elapsed > deadline {
                        board.request_cancel(t.worker, t.token);
                        aborted.insert((t.worker, t.token));
                        report.watchdog_aborts += 1;
                        fail_attempt!(
                            t.prefix,
                            format!(
                                "watchdog: exceeded {:.1}s deadline ({:.1}s elapsed)",
                                deadline.as_secs_f64(),
                                elapsed.as_secs_f64()
                            )
                        );
                    } else if elapsed * 2 > deadline && !slow_marked.contains(&(t.worker, t.token))
                    {
                        slow_marked.insert((t.worker, t.token));
                        report.watchdog_slow += 1;
                    }
                } else {
                    // A zombie attempt of an already-resolved prefix —
                    // reclaim the worker.
                    board.request_cancel(t.worker, t.token);
                    aborted.insert((t.worker, t.token));
                }
            }

            if cursor == n {
                break;
            }
        }
        done.store(true, Ordering::Relaxed);
    });
    drop(run);
    publish_decisions(metrics, &report, &start);

    if let Some(e) = crash {
        return Err(e);
    }
    // The last word: trailing quarantines are on record, and a rerun
    // against the same journal is a no-op resume.
    journal(cursor, None, &report)?;
    {
        // Let the sink settle deferred state (e.g. the exact sink's spare
        // buffer) so post-run queries borrow `&self` without hidden work.
        let _finalize = metrics.span("study.finalize");
        sink.finalize();
    }
    if metrics.is_enabled() {
        let s: SinkStats = sink.stats().into();
        let label = sink.name();
        metrics.gauge(&format!("sink.{label}.records")).set(s.records as f64);
        metrics.gauge(&format!("sink.{label}.cells")).set(s.cells as f64);
        metrics.gauge(&format!("sink.{label}.digest_centroids")).set(s.digest_centroids as f64);
        metrics
            .gauge(&format!("sink.{label}.digest_compressions"))
            .set(s.digest_compressions as f64);
    }
    Ok(report)
}

/// Publish this process's share of `report` — the report minus `start`,
/// the one it resumed from — as the `runner.*` and `supervisor.*`
/// counters.
fn publish_decisions(metrics: &Metrics, report: &StudyReport, start: &StudyReport) {
    let decisions = |r: &StudyReport| {
        [
            ("runner.prefixes", r.completed as u64),
            ("runner.sessions_simulated", r.sessions_simulated),
            ("runner.records_emitted", r.records_emitted),
            ("runner.drop.no_minrtt", r.sessions_dropped_no_minrtt),
            ("supervisor.retries", r.retries),
            ("supervisor.quarantined", r.quarantined.len() as u64),
            ("supervisor.watchdog.slow", r.watchdog_slow),
            ("supervisor.watchdog.aborts", r.watchdog_aborts),
            ("supervisor.merge_failures", r.merge_failures),
            ("supervisor.malformed_dropped", r.malformed_dropped),
            ("supervisor.stale_results", r.stale_results),
            ("supervisor.prefixes_merged", r.completed as u64),
        ]
    };
    for ((name, now), (_, then)) in decisions(report).into_iter().zip(decisions(start)) {
        metrics.counter(name).add(now - then);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Plans generated from the struct side (`malformed:0` is not a plan).
    fn plans() -> impl Strategy<Value = FaultPlan> {
        let faults = || {
            prop::collection::vec((0usize..1 << 20, any::<u32>()), 0..3).prop_map(|v| {
                v.into_iter().map(|(prefix, attempts)| PrefixFault { prefix, attempts }).collect()
            })
        };
        (
            (faults(), faults(), faults()),
            prop::collection::vec((0usize..64, any::<u64>()), 0..3),
            prop::option::of(1..=u64::MAX),
            prop::option::of(0usize..1 << 20),
        )
            .prop_map(
                |((panics, stalls, merge_failures), delays, malformed_every, crash_after)| {
                    FaultPlan {
                        panics,
                        stalls,
                        delays: delays
                            .into_iter()
                            .map(|(worker, delay_ms)| WorkerDelay { worker, delay_ms })
                            .collect(),
                        malformed_every,
                        merge_failures,
                        crash_after,
                    }
                },
            )
    }

    proptest! {
        #[test]
        fn every_plan_round_trips_through_its_spec(plan in plans()) {
            prop_assert_eq!(FaultPlan::parse(&plan.to_string()), Ok(plan));
        }
    }

    #[test]
    fn fault_plan_parses_every_clause_kind() {
        let plan =
            FaultPlan::parse("panic:3;stall:5@2;delay:1:40;malformed:100;mergefail:2;crash:7")
                .unwrap();
        assert_eq!(plan.panics, vec![PrefixFault { prefix: 3, attempts: 1 }]);
        assert_eq!(plan.stalls, vec![PrefixFault { prefix: 5, attempts: 2 }]);
        assert_eq!(plan.delays, vec![WorkerDelay { worker: 1, delay_ms: 40 }]);
        assert_eq!(plan.malformed_every, Some(100));
        assert_eq!(plan.merge_failures, vec![PrefixFault { prefix: 2, attempts: 1 }]);
        assert_eq!(plan.crash_after, Some(7));
        // Canonical rendering round-trips.
        assert_eq!(FaultPlan::parse(&plan.to_string()).unwrap(), plan);
    }

    #[test]
    fn fault_plan_rejects_garbage() {
        assert!(FaultPlan::parse("panic").is_err());
        assert!(FaultPlan::parse("panic:x").is_err());
        assert!(FaultPlan::parse("panic:1@y").is_err());
        assert!(FaultPlan::parse("delay:1").is_err());
        assert!(FaultPlan::parse("malformed:0").is_err());
        assert!(FaultPlan::parse("explode:3").is_err());
    }

    #[test]
    fn empty_spec_is_empty_plan() {
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::parse("  ;  ").unwrap().is_empty());
        assert!(!FaultPlan::parse("panic:0").unwrap().is_empty());
    }

    #[test]
    fn fault_clauses_are_attempt_scoped() {
        let plan = FaultPlan::parse("panic:4@2").unwrap();
        let fires = |prefix, attempt| FaultPlan::fires(&plan.panics, prefix, attempt);
        assert!(fires(4, 0) && fires(4, 1));
        assert!(!fires(4, 2) && !fires(5, 0));
    }

    #[test]
    fn report_renders_and_serializes() {
        let report = StudyReport {
            n_prefixes: 10,
            completed: 9,
            quarantined: vec![QuarantinedPrefix {
                prefix: 4,
                attempts: 3,
                reason: "panic: boom".into(),
            }],
            retries: 2,
            resumed_at: Some(5),
            sessions_simulated: 12,
            records_emitted: 10,
            sessions_dropped_no_minrtt: 2,
            ..StudyReport::default()
        };
        let text = report.render();
        assert!(text.contains("9/10 prefixes merged"));
        assert!(text.contains("sessions: 12 simulated, 10 records emitted, 2 dropped (no MinRTT)"));
        assert!(text.contains("quarantined prefix 4 after 3 attempts: panic: boom"));
        // `study_report.json` is the derive's tree, and reads back whole.
        let v = report.to_value();
        assert_eq!(v.get("completed"), Some(&serde::Value::Num(9.0)));
        assert_eq!(v.get("resumed_at"), Some(&serde::Value::Num(5.0)));
        assert_eq!(StudyReport::from_value(&v), Ok(report));
    }

    #[test]
    fn scaled_durations_double_and_saturate() {
        let base = Duration::from_millis(10);
        assert_eq!(scaled(base, 0), base);
        assert_eq!(scaled(base, 1), base * 2);
        assert_eq!(scaled(base, 3), base * 8);
        // Huge attempts must not overflow the shift.
        assert_eq!(scaled(base, 40), base * 1024);
    }
}
