//! The fault-tolerant study driver.
//!
//! The paper's pipeline ran continuously for 10 days over every PoP
//! (§3.3); at that scale a bad prefix, a wedged worker, or a mid-run
//! machine loss must not discard hours of work. [`run_study_supervised`]
//! wraps the work-stealing runner in a supervisor that guarantees the
//! study *always completes with an exact account of what is missing*:
//!
//! - **Panic isolation.** Each prefix computes into its own fragment
//!   under `catch_unwind`. A panicking prefix is requeued with a bounded
//!   retry budget and exponential backoff; once the budget is spent it is
//!   **quarantined** into [`StudyReport::quarantined`] with the panic
//!   payload, and the rest of the study is unaffected.
//! - **Watchdog deadlines.** A per-worker [`HeartbeatBoard`] exposes what
//!   every worker is running and for how long. Tasks past half their
//!   deadline are marked slow (`supervisor.watchdog.slow`); tasks past
//!   the full deadline are cooperatively cancelled (the sim loop checks
//!   once per window), aborted (`supervisor.watchdog.aborts`), and
//!   requeued under the same retry budget. Deadlines double per attempt.
//! - **Deterministic in-order merge.** Fragments arrive in any order but
//!   merge into the sink strictly by prefix index; out-of-order arrivals
//!   park in their slot until the cursor reaches them. Sink state after
//!   prefix *k* therefore never depends on scheduling — the foundation of
//!   bit-identical resume.
//! - **Checkpoint/resume.** With a checkpoint directory configured, the
//!   supervisor periodically writes the merge cursor, quarantine list,
//!   counters, and the full sink state ([`PersistentSink`]) to
//!   `checkpoint.json` (atomic tmp+rename). A rerun pointed at the same
//!   directory resumes after the last merged prefix; for the exact
//!   `Vec<SessionRecord>` sink the final output is bit-identical to an
//!   uninterrupted run (see DESIGN.md §10 for the argument).
//! - **Fault injection.** Every failure mode above is exercised through a
//!   [`FaultPlan`] — deterministic, spec-string-driven, honoured by unit
//!   tests and the CI chaos job alike.
//!
//! Supervisor decisions surface as `supervisor.*` counters and spans on
//! the existing metrics registry.
//!
//! What the supervisor cannot do: preemptively kill a truly wedged
//! computation. Cancellation is cooperative (checked at window
//! granularity inside the sim loop), so a loop that never reaches the
//! check can only be marked stuck in metrics, not reclaimed. In-process
//! isolation is the deliberate trade: fragments stay cheap (no
//! serialization per prefix) and determinism is easy to prove.
//!
//! [`HeartbeatBoard`]: edgeperf_obs::HeartbeatBoard
//! [`PersistentSink`]: edgeperf_analysis::PersistentSink

use crate::runner::{
    run_prefix_cancellable, thread_count, StudyConfig, StudyStats, WorkerCounters,
};
use crate::topology::World;
use edgeperf_analysis::checkpoint::PersistentSink;
use edgeperf_analysis::{RecordShard, SessionRecord};
use edgeperf_core::plan::{clauses, write_clauses, Clause, PlanError};
use edgeperf_obs::{HeartbeatBoard, Metrics};
use serde::Value;
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
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

/// A deterministic fault-injection plan, threaded from `StudyBuilder` /
/// `repro --fault-plan` / `EDGEPERF_FAULT_PLAN` down to the workers.
///
/// Spec strings are `;`-separated clauses:
///
/// | clause | effect |
/// |---|---|
/// | `panic:K` or `panic:K@A` | prefix `K` panics on its first `A` attempts (default 1) |
/// | `stall:K` or `stall:K@A` | prefix `K` stalls (cancel-aware) on its first `A` attempts |
/// | `delay:W:MS` | worker `W` sleeps `MS` ms before every prefix it claims |
/// | `malformed:N` | every `N`-th record of every prefix is corrupted (NaN MinRTT) before validation |
/// | `mergefail:K` or `mergefail:K@A` | merging prefix `K` into the sink fails on the first `A` tries |
/// | `crash:K` | the supervisor checkpoints and aborts right after merging prefix `K` |
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

    /// The plan from `EDGEPERF_FAULT_PLAN`, or the empty plan when unset.
    pub fn from_env() -> Result<FaultPlan, PlanError> {
        match std::env::var("EDGEPERF_FAULT_PLAN") {
            Ok(spec) => FaultPlan::parse(&spec),
            Err(_) => Ok(FaultPlan::default()),
        }
    }

    /// True when no clause is present.
    pub fn is_empty(&self) -> bool {
        *self == FaultPlan::default()
    }

    fn fires(faults: &[PrefixFault], prefix: usize, attempt: u32) -> bool {
        faults.iter().any(|f| f.prefix == prefix && attempt < f.attempts)
    }

    fn panics(&self, prefix: usize, attempt: u32) -> bool {
        Self::fires(&self.panics, prefix, attempt)
    }

    fn stalls(&self, prefix: usize, attempt: u32) -> bool {
        Self::fires(&self.stalls, prefix, attempt)
    }

    fn merge_fails(&self, prefix: usize, merge_try: u32) -> bool {
        Self::fires(&self.merge_failures, prefix, merge_try)
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

/// Supervisor tuning knobs. The defaults suit real studies; tests shrink
/// the deadlines.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Retries per prefix before quarantine (attempts = budget + 1).
    pub retry_budget: u32,
    /// Base wall-clock budget per prefix; doubles on every retry.
    pub deadline: Duration,
    /// Base requeue backoff after a failure; doubles on every retry.
    pub backoff: Duration,
    /// Supervisor wake-up period (watchdog scan + checkpoint check).
    pub tick: Duration,
    /// Directory for `checkpoint.json`; `None` disables checkpointing.
    /// If the directory already holds a compatible checkpoint, the run
    /// resumes from it.
    pub checkpoint_dir: Option<PathBuf>,
    /// Minimum interval between checkpoint writes.
    pub checkpoint_every: Duration,
    /// Caller-provided fingerprint pairs stored in the checkpoint and
    /// required to match on resume (e.g. builder-level scale settings the
    /// [`StudyConfig`] cannot express).
    pub meta: Vec<(String, String)>,
    /// Faults to inject (empty in production).
    pub fault_plan: FaultPlan,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            retry_budget: 2,
            deadline: Duration::from_secs(30),
            backoff: Duration::from_millis(10),
            tick: Duration::from_millis(20),
            checkpoint_dir: None,
            checkpoint_every: Duration::from_secs(2),
            meta: Vec::new(),
            fault_plan: FaultPlan::default(),
        }
    }
}

/// A prefix the supervisor gave up on, with the evidence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedPrefix {
    /// Prefix index in `world.prefixes`.
    pub prefix: usize,
    /// Attempts consumed (retry budget + 1 on quarantine).
    pub attempts: u32,
    /// The final failure: panic payload or watchdog/merge diagnosis.
    pub reason: String,
}

/// What the supervised study did: completion, quarantine, every recovery
/// decision, and cumulative throughput counters (carried across resume).
#[derive(Debug, Clone, Default, PartialEq)]
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
    /// Checkpoints written this process.
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
    /// JSON value tree (the shape written to `study_report.json`).
    pub fn to_value(&self) -> Value {
        let quarantined = self
            .quarantined
            .iter()
            .map(|q| {
                Value::Object(vec![
                    ("prefix".into(), Value::Num(q.prefix as f64)),
                    ("attempts".into(), Value::Num(q.attempts as f64)),
                    ("reason".into(), Value::Str(q.reason.clone())),
                ])
            })
            .collect();
        Value::Object(vec![
            ("n_prefixes".into(), Value::Num(self.n_prefixes as f64)),
            ("completed".into(), Value::Num(self.completed as f64)),
            ("quarantined".into(), Value::Array(quarantined)),
            ("retries".into(), Value::Num(self.retries as f64)),
            ("watchdog_slow".into(), Value::Num(self.watchdog_slow as f64)),
            ("watchdog_aborts".into(), Value::Num(self.watchdog_aborts as f64)),
            ("merge_failures".into(), Value::Num(self.merge_failures as f64)),
            ("malformed_dropped".into(), Value::Num(self.malformed_dropped as f64)),
            ("stale_results".into(), Value::Num(self.stale_results as f64)),
            ("checkpoints_written".into(), Value::Num(self.checkpoints_written as f64)),
            ("resumed_at".into(), self.resumed_at.map_or(Value::Null, |c| Value::Num(c as f64))),
            ("sessions_simulated".into(), Value::Num(self.sessions_simulated as f64)),
            ("records_emitted".into(), Value::Num(self.records_emitted as f64)),
            (
                "sessions_dropped_no_minrtt".into(),
                Value::Num(self.sessions_dropped_no_minrtt as f64),
            ),
        ])
    }

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

/// Work queue entry: one (prefix, attempt) to compute, possibly embargoed
/// until its backoff expires.
#[derive(Debug, Clone, Copy)]
struct Work {
    prefix: usize,
    attempt: u32,
    not_before: Option<Instant>,
}

fn pop_ready(queue: &Mutex<VecDeque<Work>>) -> Option<Work> {
    let mut q = queue.lock().unwrap();
    let now = Instant::now();
    let idx = q.iter().position(|w| w.not_before.is_none_or(|t| t <= now))?;
    q.remove(idx)
}

/// Sink-side validation plus fault injection, wrapped around a worker's
/// fragment. Validation is always on in supervised runs: a record with a
/// non-finite MinRTT or HDratio is dropped and counted rather than
/// poisoning a digest or a figure. The injector corrupts every N-th
/// record *before* validation, so the chaos tests exercise the same path
/// a buggy instrumentation change would hit.
struct GuardShard<'a, S: RecordShard> {
    inner: &'a mut S,
    malformed_every: Option<u64>,
    seen: u64,
    dropped: u64,
}

impl<S: RecordShard> RecordShard for GuardShard<'_, S> {
    fn push(&mut self, mut record: SessionRecord) {
        self.seen += 1;
        if let Some(n) = self.malformed_every {
            if self.seen.is_multiple_of(n) {
                record.min_rtt_ms = f64::NAN;
            }
        }
        let bad = !record.min_rtt_ms.is_finite() || record.hdratio.is_some_and(|h| !h.is_finite());
        if bad {
            self.dropped += 1;
            return;
        }
        self.inner.push(record);
    }
}

enum Outcome<Sh> {
    Done { fragment: Sh, counters: WorkerCounters, malformed_dropped: u64 },
    Panicked { payload: String },
    Cancelled,
}

struct Msg<Sh> {
    prefix: usize,
    attempt: u32,
    worker: usize,
    outcome: Outcome<Sh>,
}

enum Slot<Sh> {
    /// Unresolved: queued, in flight, or awaiting retry.
    Pending,
    /// Computed, parked until the merge cursor arrives.
    Ready {
        worker: usize,
        fragment: Sh,
        counters: WorkerCounters,
        malformed_dropped: u64,
    },
    Merged,
    Quarantined,
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
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

const CHECKPOINT_VERSION: f64 = 1.0;

fn checkpoint_path(dir: &Path) -> PathBuf {
    dir.join("checkpoint.json")
}

fn fingerprint(cfg: &StudyConfig, n_prefixes: usize) -> Vec<(&'static str, f64)> {
    vec![
        ("seed", cfg.seed as f64),
        ("days", cfg.days as f64),
        ("sessions_per_group_window", cfg.sessions_per_group_window as f64),
        ("n_prefixes", n_prefixes as f64),
    ]
}

struct ResumedState<S> {
    cursor: usize,
    quarantined: Vec<QuarantinedPrefix>,
    report: StudyReport,
    sink: S,
}

fn ck_num(v: &Value, path: &Path, what: &str) -> Result<f64, SupervisorError> {
    match v {
        Value::Num(n) => Ok(*n),
        _ => Err(SupervisorError::Checkpoint {
            path: path.to_path_buf(),
            message: format!("{what}: expected a number"),
        }),
    }
}

fn ck_field<'v>(v: &'v Value, path: &Path, name: &str) -> Result<&'v Value, SupervisorError> {
    v.get(name).ok_or_else(|| SupervisorError::Checkpoint {
        path: path.to_path_buf(),
        message: format!("missing field {name}"),
    })
}

fn load_checkpoint<S: PersistentSink>(
    path: &PathBuf,
    cfg: &StudyConfig,
    n_prefixes: usize,
    meta: &[(String, String)],
) -> Result<ResumedState<S>, SupervisorError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| SupervisorError::Checkpoint { path: path.clone(), message: e.to_string() })?;
    let root = serde_json::parse(&text)
        .map_err(|e| SupervisorError::Checkpoint { path: path.clone(), message: e.to_string() })?;

    let version = ck_num(ck_field(&root, path, "version")?, path, "version")?;
    if version != CHECKPOINT_VERSION {
        return Err(SupervisorError::Mismatch {
            field: "version".into(),
            expected: CHECKPOINT_VERSION.to_string(),
            found: version.to_string(),
        });
    }
    let kind = match ck_field(&root, path, "kind")? {
        Value::Str(s) => s.clone(),
        _ => String::new(),
    };
    if kind != S::kind() {
        return Err(SupervisorError::Mismatch {
            field: "sink kind".into(),
            expected: S::kind().into(),
            found: kind,
        });
    }
    let study = ck_field(&root, path, "study")?;
    for (name, expected) in fingerprint(cfg, n_prefixes) {
        let found = ck_num(ck_field(study, path, name)?, path, name)?;
        if found != expected {
            return Err(SupervisorError::Mismatch {
                field: name.into(),
                expected: expected.to_string(),
                found: found.to_string(),
            });
        }
    }
    let stored_meta = ck_field(&root, path, "meta")?;
    for (k, expected) in meta {
        let found = match stored_meta.get(k) {
            Some(Value::Str(s)) => s.clone(),
            _ => String::new(),
        };
        if &found != expected {
            return Err(SupervisorError::Mismatch {
                field: k.clone(),
                expected: expected.clone(),
                found,
            });
        }
    }

    let cursor = ck_num(ck_field(&root, path, "cursor")?, path, "cursor")? as usize;
    let mut quarantined = Vec::new();
    if let Value::Array(items) = ck_field(&root, path, "quarantined")? {
        for q in items {
            quarantined.push(QuarantinedPrefix {
                prefix: ck_num(ck_field(q, path, "prefix")?, path, "prefix")? as usize,
                attempts: ck_num(ck_field(q, path, "attempts")?, path, "attempts")? as u32,
                reason: match q.get("reason") {
                    Some(Value::Str(s)) => s.clone(),
                    _ => String::new(),
                },
            });
        }
    }
    let rv = ck_field(&root, path, "report")?;
    let count = |name: &str| -> Result<u64, SupervisorError> {
        Ok(ck_num(ck_field(rv, path, name)?, path, name)? as u64)
    };
    let report = StudyReport {
        n_prefixes,
        completed: count("completed")? as usize,
        quarantined: quarantined.clone(),
        retries: count("retries")?,
        watchdog_slow: count("watchdog_slow")?,
        watchdog_aborts: count("watchdog_aborts")?,
        merge_failures: count("merge_failures")?,
        malformed_dropped: count("malformed_dropped")?,
        stale_results: count("stale_results")?,
        checkpoints_written: 0,
        resumed_at: Some(cursor),
        sessions_simulated: count("sessions_simulated")?,
        records_emitted: count("records_emitted")?,
        sessions_dropped_no_minrtt: count("sessions_dropped_no_minrtt")?,
    };
    let sink = S::load(ck_field(&root, path, "sink")?).map_err(|e| {
        SupervisorError::Checkpoint { path: path.clone(), message: format!("sink state: {}", e.0) }
    })?;
    Ok(ResumedState { cursor, quarantined, report, sink })
}

fn write_checkpoint<S: PersistentSink>(
    dir: &Path,
    cfg: &StudyConfig,
    n_prefixes: usize,
    meta: &[(String, String)],
    cursor: usize,
    report: &StudyReport,
    sink: &S,
) -> Result<(), SupervisorError> {
    let path = checkpoint_path(dir);
    let fail = |message: String| SupervisorError::Checkpoint { path: path.clone(), message };
    let study = Value::Object(
        fingerprint(cfg, n_prefixes)
            .into_iter()
            .map(|(k, v)| (k.to_string(), Value::Num(v)))
            .collect(),
    );
    let meta_v =
        Value::Object(meta.iter().map(|(k, v)| (k.clone(), Value::Str(v.clone()))).collect());
    let root = Value::Object(vec![
        ("version".into(), Value::Num(CHECKPOINT_VERSION)),
        ("kind".into(), Value::Str(S::kind().into())),
        ("study".into(), study),
        ("meta".into(), meta_v),
        ("cursor".into(), Value::Num(cursor as f64)),
        (
            "quarantined".into(),
            Value::Array(
                report
                    .quarantined
                    .iter()
                    .map(|q| {
                        Value::Object(vec![
                            ("prefix".into(), Value::Num(q.prefix as f64)),
                            ("attempts".into(), Value::Num(q.attempts as f64)),
                            ("reason".into(), Value::Str(q.reason.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("report".into(), report.to_value()),
        ("sink".into(), sink.save()),
    ]);
    let text = serde_json::to_string(&root).map_err(|e| fail(e.to_string()))?;
    std::fs::create_dir_all(dir).map_err(|e| fail(e.to_string()))?;
    // Shared tmp + rename discipline (edgeperf_analysis::segment): a
    // crash mid-write leaves an orphan `.tmp`, never a torn checkpoint.
    edgeperf_analysis::segment::atomic_write(&path, text.as_bytes())
        .map_err(|e| fail(e.to_string()))?;
    Ok(())
}

/// Run the study under the supervisor. See the module docs for the
/// guarantees; on success returns the per-worker scheduler counters of
/// *this process* plus the cumulative [`StudyReport`].
///
/// The sink must be a [`PersistentSink`] whose shards are `Clone` (each
/// prefix computes into a clone of an empty prototype shard, so a
/// poisoned fragment can be discarded without touching the sink).
///
/// # Errors
///
/// Only checkpoint-layer failures (I/O, parse, fingerprint mismatch) and
/// the fault plan's injected crash return `Err`; worker failures are
/// handled (retried or quarantined) and reported in the
/// [`StudyReport`].
pub fn run_study_supervised<S>(
    world: &World,
    cfg: &StudyConfig,
    sup: &SupervisorConfig,
    sink: &mut S,
    metrics: &Metrics,
) -> Result<(StudyStats, StudyReport), SupervisorError>
where
    S: PersistentSink,
    S::Shard: Clone + Send,
{
    let _span = metrics.span("supervisor");
    let n = world.prefixes.len();
    let threads = thread_count(cfg).max(1);
    let plan = &sup.fault_plan;

    // Resume if the checkpoint directory already holds a matching study.
    let mut cursor = 0usize;
    let mut report = StudyReport { n_prefixes: n, ..StudyReport::default() };
    let mut slots: Vec<Slot<S::Shard>> = (0..n).map(|_| Slot::Pending).collect();
    if let Some(dir) = &sup.checkpoint_dir {
        let path = checkpoint_path(dir);
        if path.exists() {
            let resumed: ResumedState<S> = load_checkpoint(&path, cfg, n, &sup.meta)?;
            cursor = resumed.cursor;
            report = resumed.report;
            *sink = resumed.sink;
            for slot in slots.iter_mut().take(cursor) {
                *slot = Slot::Merged;
            }
            for q in &resumed.quarantined {
                if q.prefix < n {
                    slots[q.prefix] = Slot::Quarantined;
                }
            }
            metrics.gauge("supervisor.resumed_at").set(cursor as f64);
        }
    }

    let queue: Mutex<VecDeque<Work>> = Mutex::new(
        (cursor..n).map(|prefix| Work { prefix, attempt: 0, not_before: None }).collect(),
    );
    let mut attempts: Vec<u32> = vec![0; n];
    let done = AtomicBool::new(false);
    let board = HeartbeatBoard::new(threads);
    let (tx, rx) = mpsc::channel::<Msg<S::Shard>>();
    let proto = sink.new_shard();

    let mut stats = StudyStats { workers: vec![WorkerCounters::default(); threads] };
    let mut crash: Option<SupervisorError> = None;

    let retries_c = metrics.counter("supervisor.retries");
    let quarantined_c = metrics.counter("supervisor.quarantined");
    let slow_c = metrics.counter("supervisor.watchdog.slow");
    let aborts_c = metrics.counter("supervisor.watchdog.aborts");
    let mergefail_c = metrics.counter("supervisor.merge_failures");
    let malformed_c = metrics.counter("supervisor.malformed_dropped");
    let stale_c = metrics.counter("supervisor.stale_results");
    let checkpoints_c = metrics.counter("supervisor.checkpoints");
    let merged_c = metrics.counter("supervisor.prefixes_merged");

    std::thread::scope(|scope| {
        let queue = &queue;
        let done = &done;
        let board = &board;
        for w in 0..threads {
            let tx = tx.clone();
            let proto = proto.clone();
            scope.spawn(move || loop {
                if done.load(Ordering::Relaxed) {
                    break;
                }
                let Some(work) = pop_ready(queue) else {
                    std::thread::sleep(Duration::from_micros(200));
                    continue;
                };
                let token = board.begin(w, work.prefix);
                let cancelled = || board.cancelled(w, token);
                if let Some(ms) = plan.delay_ms(w) {
                    sleep_cancellable(ms, &cancelled);
                }
                let result = catch_unwind(AssertUnwindSafe(|| {
                    if plan.panics(work.prefix, work.attempt) {
                        panic!(
                            "fault-plan: injected panic on prefix {} attempt {}",
                            work.prefix, work.attempt
                        );
                    }
                    if plan.stalls(work.prefix, work.attempt) {
                        // Stall until the watchdog cancels us (or a safety
                        // cap, after which the task proceeds as merely
                        // slow — keeps watchdog-less runs finite).
                        sleep_cancellable(60_000, &cancelled);
                    }
                    let mut fragment = proto.clone();
                    let mut counters = WorkerCounters::default();
                    let mut guard = GuardShard {
                        inner: &mut fragment,
                        malformed_every: plan.malformed_every,
                        seen: 0,
                        dropped: 0,
                    };
                    let completed = run_prefix_cancellable(
                        world,
                        cfg,
                        work.prefix,
                        &mut guard,
                        &mut counters,
                        &cancelled,
                    );
                    counters.prefixes += 1;
                    let dropped = guard.dropped;
                    (fragment, counters, dropped, completed)
                }));
                board.finish(w);
                let outcome = match result {
                    Ok((fragment, counters, malformed_dropped, true)) => {
                        Outcome::Done { fragment, counters, malformed_dropped }
                    }
                    Ok((_, _, _, false)) => Outcome::Cancelled,
                    Err(payload) => Outcome::Panicked { payload: panic_message(payload) },
                };
                if tx
                    .send(Msg { prefix: work.prefix, attempt: work.attempt, worker: w, outcome })
                    .is_err()
                {
                    break;
                }
            });
        }
        drop(tx);

        // ---- supervisor loop (runs on the scope's owning thread) ----
        let mut merge_tries: HashMap<usize, u32> = HashMap::new();
        let mut aborted: HashSet<(usize, u64)> = HashSet::new();
        let mut slow_marked: HashSet<(usize, u64)> = HashSet::new();
        let mut last_checkpoint = Instant::now();
        let mut dirty = false;

        // Requeue (within budget) or quarantine the current attempt of
        // `prefix`; shared by panic, watchdog-abort, and merge-failure
        // handling.
        macro_rules! fail_attempt {
            ($prefix:expr, $reason:expr) => {{
                let p: usize = $prefix;
                let a = attempts[p];
                if a < sup.retry_budget {
                    attempts[p] = a + 1;
                    report.retries += 1;
                    retries_c.inc();
                    slots[p] = Slot::Pending;
                    queue.lock().unwrap().push_back(Work {
                        prefix: p,
                        attempt: a + 1,
                        not_before: Some(Instant::now() + scaled(sup.backoff, a)),
                    });
                } else {
                    slots[p] = Slot::Quarantined;
                    report.quarantined.push(QuarantinedPrefix {
                        prefix: p,
                        attempts: a + 1,
                        reason: $reason,
                    });
                    quarantined_c.inc();
                }
            }};
        }

        loop {
            let mut pending_msgs: Vec<Msg<S::Shard>> = Vec::new();
            match rx.recv_timeout(sup.tick) {
                Ok(msg) => {
                    pending_msgs.push(msg);
                    while let Ok(m) = rx.try_recv() {
                        pending_msgs.push(m);
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }

            for msg in pending_msgs {
                let actionable = matches!(slots[msg.prefix], Slot::Pending)
                    && msg.attempt == attempts[msg.prefix];
                match msg.outcome {
                    Outcome::Done { fragment, counters, malformed_dropped } => {
                        if actionable {
                            slots[msg.prefix] = Slot::Ready {
                                worker: msg.worker,
                                fragment,
                                counters,
                                malformed_dropped,
                            };
                            // A retry may still be queued from a watchdog
                            // abort whose original attempt then finished;
                            // it is no longer needed.
                            queue.lock().unwrap().retain(|w| w.prefix != msg.prefix);
                        } else {
                            report.stale_results += 1;
                            stale_c.inc();
                        }
                    }
                    Outcome::Panicked { payload } => {
                        if actionable {
                            fail_attempt!(msg.prefix, format!("panic: {payload}"));
                        } else {
                            report.stale_results += 1;
                            stale_c.inc();
                        }
                    }
                    // The abort was accounted when the watchdog decided;
                    // the cancellation notice itself carries no news.
                    Outcome::Cancelled => {}
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
                    Slot::Ready { .. } => {}
                }
                let tries = merge_tries.entry(cursor).or_insert(0);
                let this_try = *tries;
                *tries += 1;
                if plan.merge_fails(cursor, this_try) {
                    report.merge_failures += 1;
                    mergefail_c.inc();
                    fail_attempt!(cursor, "sink merge failure (injected)".to_string());
                    continue;
                }
                let Slot::Ready { worker, fragment, counters, malformed_dropped } =
                    std::mem::replace(&mut slots[cursor], Slot::Merged)
                else {
                    unreachable!("checked above");
                };
                {
                    let _merge = metrics.span("supervisor.merge");
                    sink.merge_shard(fragment);
                }
                stats.workers[worker].absorb(&counters);
                report.completed += 1;
                report.sessions_simulated += counters.sessions_simulated;
                report.records_emitted += counters.records_emitted;
                report.sessions_dropped_no_minrtt += counters.sessions_dropped_no_minrtt;
                report.malformed_dropped += malformed_dropped;
                malformed_c.add(malformed_dropped);
                merged_c.inc();
                dirty = true;
                let merged_prefix = cursor;
                cursor += 1;
                if plan.crash_after == Some(merged_prefix) {
                    if let Some(dir) = &sup.checkpoint_dir {
                        let _ck = metrics.span("supervisor.checkpoint");
                        if let Err(e) =
                            write_checkpoint(dir, cfg, n, &sup.meta, cursor, &report, sink)
                        {
                            crash = Some(e);
                            break;
                        }
                        report.checkpoints_written += 1;
                        checkpoints_c.inc();
                    }
                    crash = Some(SupervisorError::InjectedCrash { after_prefix: merged_prefix });
                    break;
                }
            }
            if crash.is_some() {
                break;
            }

            // Watchdog: scan in-flight tasks against their deadlines.
            for t in board.active() {
                if aborted.contains(&(t.worker, t.token)) {
                    continue;
                }
                if t.prefix >= n {
                    continue;
                }
                if matches!(slots[t.prefix], Slot::Pending) {
                    let deadline = scaled(sup.deadline, attempts[t.prefix]);
                    let elapsed = Duration::from_micros(t.elapsed_us);
                    if elapsed > deadline {
                        board.request_cancel(t.worker, t.token);
                        aborted.insert((t.worker, t.token));
                        report.watchdog_aborts += 1;
                        aborts_c.inc();
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
                        slow_c.inc();
                    }
                } else {
                    // A zombie attempt of an already-resolved prefix —
                    // reclaim the worker.
                    board.request_cancel(t.worker, t.token);
                    aborted.insert((t.worker, t.token));
                }
            }

            // Periodic checkpoint after progress.
            if let Some(dir) = &sup.checkpoint_dir {
                if dirty && last_checkpoint.elapsed() >= sup.checkpoint_every {
                    let _ck = metrics.span("supervisor.checkpoint");
                    match write_checkpoint(dir, cfg, n, &sup.meta, cursor, &report, sink) {
                        Ok(()) => {
                            report.checkpoints_written += 1;
                            checkpoints_c.inc();
                            dirty = false;
                            last_checkpoint = Instant::now();
                        }
                        Err(e) => {
                            crash = Some(e);
                            break;
                        }
                    }
                }
            }

            if cursor == n {
                break;
            }
        }
        done.store(true, Ordering::Relaxed);
    });

    if let Some(e) = crash {
        return Err(e);
    }

    // Final checkpoint so a rerun against the same directory is a no-op
    // resume, then settle the sink.
    if let Some(dir) = &sup.checkpoint_dir {
        let _ck = metrics.span("supervisor.checkpoint");
        write_checkpoint(dir, cfg, n, &sup.meta, cursor, &report, sink)?;
        report.checkpoints_written += 1;
        checkpoints_c.inc();
    }
    sink.finalize();
    Ok((stats, report))
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
        assert!(plan.panics(4, 0));
        assert!(plan.panics(4, 1));
        assert!(!plan.panics(4, 2));
        assert!(!plan.panics(5, 0));
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
            ..StudyReport::default()
        };
        let text = report.render();
        assert!(text.contains("9/10 prefixes merged"));
        assert!(text.contains("quarantined prefix 4 after 3 attempts: panic: boom"));
        let v = report.to_value();
        assert_eq!(v.get("completed"), Some(&Value::Num(9.0)));
        assert_eq!(v.get("resumed_at"), Some(&Value::Num(5.0)));
        match v.get("quarantined") {
            Some(Value::Array(items)) => assert_eq!(items.len(), 1),
            other => panic!("bad quarantined field: {other:?}"),
        }
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
