//! Deterministic chaos injection for the live tier.
//!
//! [`ChaosPlan`] is the network-tier sibling of the offline
//! supervisor's `FaultPlan` (`edgeperf_world::supervisor`): a fully
//! deterministic schedule of faults parsed from a compact spec
//! string (the grammar is [`edgeperf_core::plan`]'s, shared with that
//! plan and the fleet's), so a chaos run is exactly reproducible and CI
//! can assert on its outcome. One plan describes faults on both sides
//! of the wire; each side applies only the clauses that concern it:
//!
//! - **client side** (loadgen `--chaos`, [`WireChaos`]): `disconnect`
//!   (drop the data connection at a record boundary), `torn` (send a
//!   partial frame/line — a mid-frame disconnect — then drop), `stall`
//!   (slow-loris pause before a record, long enough to trip the
//!   server's idle eviction when one is configured).
//! - **server side** (`LiveConfig::chaos`, `serve --chaos`): `panic`
//!   (a worker thread panics at a batch boundary, exercising
//!   catch_unwind recovery), `spillfail`/`compactfail` (ENOSPC/EIO-
//!   style errors injected into the tiered store's disk operations,
//!   exercising degraded mode), `spilldelay` (a delayed segment
//!   write).
//!
//! Record and op indices are 0-based positions in a deterministic
//! sequence (the client's send order; the store's spill/compaction op
//! order), so a clause fires at the same logical point on every run:
//! the schedule needs no randomness and the plan no seed (the client's
//! backoff jitter is keyed by the replay's session id, which the
//! replay's own seed determines).

use edgeperf_core::plan::{clauses, write_clauses, PlanError};
use std::fmt;
use std::time::Duration;

/// One client-side stall: pause before sending record `record`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosStall {
    /// 0-based global record index the pause precedes.
    pub record: u64,
    /// Pause length in milliseconds.
    pub millis: u64,
}

/// One injected worker panic: worker `worker` panics at the first batch
/// boundary after `after_records` records have been applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerPanic {
    /// Worker index (the shard the panic lands on).
    pub worker: usize,
    /// Applied-record threshold that arms the panic.
    pub after_records: u64,
}

/// A run of injected failures on a disk-operation sequence: ops
/// `op .. op + count` fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpFault {
    /// 0-based index of the first failing operation.
    pub op: u64,
    /// Consecutive operations that fail (`K@A` spec; default 1).
    pub count: u64,
}

impl OpFault {
    fn covers(&self, op: u64) -> bool {
        op >= self.op && op < self.op.saturating_add(self.count)
    }
}

/// One delayed disk operation: op `op` sleeps `millis` before running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpDelay {
    /// 0-based index of the delayed operation.
    pub op: u64,
    /// Delay in milliseconds.
    pub millis: u64,
}

/// A deterministic chaos schedule for the live tier (see module docs).
///
/// Parsed from a `;`-separated spec, e.g.
/// `disconnect:500;torn:1200;stall:2000@1500;panic:0@800;spillfail:0@3`.
/// [`fmt::Display`] renders the canonical form, which re-parses to an
/// equal plan.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChaosPlan {
    /// Client: close the data connection after sending these records.
    pub disconnects: Vec<u64>,
    /// Client: send a partial payload for these records, then close
    /// (a mid-frame disconnect).
    pub torn: Vec<u64>,
    /// Client: slow-loris pauses.
    pub stalls: Vec<ChaosStall>,
    /// Server: injected worker panics.
    pub worker_panics: Vec<WorkerPanic>,
    /// Store: spill ops that fail (injected ENOSPC).
    pub spill_failures: Vec<OpFault>,
    /// Store: compaction ops that fail (injected EIO).
    pub compact_failures: Vec<OpFault>,
    /// Store: delayed spill writes.
    pub spill_delays: Vec<OpDelay>,
}

impl ChaosPlan {
    /// Parse a spec string (the grammar is [`edgeperf_core::plan`]'s).
    /// Empty (or all-whitespace) spec = empty plan.
    pub fn parse(spec: &str) -> Result<ChaosPlan, PlanError> {
        let mut plan = ChaosPlan::default();
        for clause in clauses("chaos plan", spec) {
            let clause = clause?;
            match clause.kind {
                "disconnect" => plan.disconnects.push(clause.args([None])?[0]),
                "torn" => plan.torn.push(clause.args([None])?[0]),
                "stall" => {
                    let [record, millis] = clause.args([None, Some(0)])?;
                    if millis == 0 {
                        return Err(clause.error("needs `record@millis`"));
                    }
                    plan.stalls.push(ChaosStall { record, millis });
                }
                "panic" => {
                    let [worker, after_records] = clause.args([None, Some(0)])?;
                    plan.worker_panics
                        .push(WorkerPanic { worker: clause.fit(worker)?, after_records });
                }
                "spillfail" => {
                    let [op, count] = clause.args([None, Some(1)])?;
                    plan.spill_failures.push(OpFault { op, count: count.max(1) });
                }
                "compactfail" => {
                    let [op, count] = clause.args([None, Some(1)])?;
                    plan.compact_failures.push(OpFault { op, count: count.max(1) });
                }
                "spilldelay" => {
                    let [op, millis] = clause.args([None, Some(0)])?;
                    if millis == 0 {
                        return Err(clause.error("needs `op@millis`"));
                    }
                    plan.spill_delays.push(OpDelay { op, millis });
                }
                _ => return Err(clause.error("unknown clause kind")),
            }
        }
        Ok(plan)
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        *self == ChaosPlan::default()
    }

    /// Applied-record panic thresholds armed for `worker`, ascending.
    pub(crate) fn panics_for(&self, worker: usize) -> Vec<u64> {
        let mut thresholds: Vec<u64> = self
            .worker_panics
            .iter()
            .filter(|p| p.worker == worker)
            .map(|p| p.after_records)
            .collect();
        thresholds.sort_unstable();
        thresholds
    }

    /// Does spill op `op` (0-based) fail?
    pub(crate) fn spill_fails(&self, op: u64) -> bool {
        self.spill_failures.iter().any(|f| f.covers(op))
    }

    /// Does compaction op `op` (0-based) fail?
    pub(crate) fn compact_fails(&self, op: u64) -> bool {
        self.compact_failures.iter().any(|f| f.covers(op))
    }

    /// Injected delay before spill op `op`, if any.
    pub(crate) fn spill_delay(&self, op: u64) -> Option<Duration> {
        self.spill_delays.iter().find(|d| d.op == op).map(|d| Duration::from_millis(d.millis))
    }
}

impl fmt::Display for ChaosPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let op_faults = |kind: &str, faults: &[OpFault]| -> Vec<String> {
            faults.iter().map(|o| format!("{kind}:{}@{}", o.op, o.count)).collect()
        };
        let mut clauses: Vec<String> = Vec::new();
        clauses.extend(self.disconnects.iter().map(|r| format!("disconnect:{r}")));
        clauses.extend(self.torn.iter().map(|r| format!("torn:{r}")));
        clauses.extend(self.stalls.iter().map(|s| format!("stall:{}@{}", s.record, s.millis)));
        clauses.extend(
            self.worker_panics.iter().map(|p| format!("panic:{}@{}", p.worker, p.after_records)),
        );
        clauses.extend(op_faults("spillfail", &self.spill_failures));
        clauses.extend(op_faults("compactfail", &self.compact_failures));
        clauses
            .extend(self.spill_delays.iter().map(|d| format!("spilldelay:{}@{}", d.op, d.millis)));
        write_clauses(f, &clauses)
    }
}

/// What a client-side chaos event does to the in-flight send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFault {
    /// Close the connection at this record boundary, before sending it.
    Disconnect,
    /// Send a partial payload for this record, then close (mid-frame).
    Torn,
    /// Pause this long before sending the record, then continue.
    Stall(Duration),
}

/// Per-connection applier of the plan's client-side clauses.
///
/// Each clause fires exactly once per applier, even when a resume
/// restarts the send below the clause's record index (the fired flag
/// persists across reconnects — otherwise a `disconnect:100` would
/// re-fire on every pass over record 100 and the replay would never
/// finish). The default applier injects nothing.
#[derive(Debug, Default)]
pub struct WireChaos {
    events: Vec<(u64, WireFault, bool)>,
}

impl WireChaos {
    /// Applier over `plan`'s wire clauses.
    pub fn new(plan: &ChaosPlan) -> WireChaos {
        let mut events: Vec<(u64, WireFault, bool)> = Vec::new();
        events.extend(plan.disconnects.iter().map(|&r| (r, WireFault::Disconnect, false)));
        events.extend(plan.torn.iter().map(|&r| (r, WireFault::Torn, false)));
        events.extend(
            plan.stalls
                .iter()
                .map(|s| (s.record, WireFault::Stall(Duration::from_millis(s.millis)), false)),
        );
        events.sort_by_key(|(r, _, _)| *r);
        WireChaos { events }
    }

    /// The fault to apply before sending record `index`, if any.
    /// Marks the returned event fired. At most one event fires per
    /// call; a disconnect and a stall armed at the same index fire on
    /// consecutive attempts to send it.
    pub(crate) fn before_record(&mut self, index: u64) -> Option<WireFault> {
        for (record, fault, fired) in self.events.iter_mut() {
            if !*fired && *record <= index {
                *fired = true;
                return Some(*fault);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Plans generated from the struct side, in the canonical form
    /// `parse` produces (a stall or delay of 0 ms and a fault run of 0
    /// ops are not plans).
    fn plans() -> impl Strategy<Value = ChaosPlan> {
        let records = || prop::collection::vec(any::<u64>(), 0..3);
        let pairs = || prop::collection::vec((any::<u64>(), 1..=u64::MAX), 0..3);
        let op_faults =
            |v: Vec<(u64, u64)>| v.into_iter().map(|(op, count)| OpFault { op, count }).collect();
        (
            (records(), records(), pairs()),
            prop::collection::vec((0usize..64, any::<u64>()), 0..3),
            (pairs(), pairs(), pairs()),
        )
            .prop_map(
                move |((disconnects, torn, stalls), panics, (spill, compact, delays))| ChaosPlan {
                    disconnects,
                    torn,
                    stalls: stalls
                        .into_iter()
                        .map(|(record, millis)| ChaosStall { record, millis })
                        .collect(),
                    worker_panics: panics
                        .into_iter()
                        .map(|(worker, after_records)| WorkerPanic { worker, after_records })
                        .collect(),
                    spill_failures: op_faults(spill),
                    compact_failures: op_faults(compact),
                    spill_delays: delays
                        .into_iter()
                        .map(|(op, millis)| OpDelay { op, millis })
                        .collect(),
                },
            )
    }

    proptest! {
        #[test]
        fn every_plan_round_trips_through_its_spec(plan in plans()) {
            prop_assert_eq!(ChaosPlan::parse(&plan.to_string()), Ok(plan));
        }
    }

    #[test]
    fn empty_specs_parse_to_the_empty_plan() {
        for spec in ["", "   ", ";;", " ; ; "] {
            let plan = ChaosPlan::parse(spec).expect("empty spec parses");
            assert!(plan.is_empty(), "{spec:?} -> {plan:?}");
        }
    }

    #[test]
    fn full_spec_round_trips_through_display() {
        let spec = "disconnect:500;torn:1200;stall:2000@1500;panic:0@800;panic:2@100;\
                    spillfail:0@3;compactfail:1@1;spilldelay:4@50";
        let plan = ChaosPlan::parse(spec).expect("spec parses");
        assert_eq!(plan.disconnects, vec![500]);
        assert_eq!(plan.torn, vec![1200]);
        assert_eq!(plan.stalls, vec![ChaosStall { record: 2000, millis: 1500 }]);
        assert_eq!(plan.worker_panics.len(), 2);
        let canonical = plan.to_string();
        let reparsed = ChaosPlan::parse(&canonical).expect("canonical form reparses");
        assert_eq!(plan, reparsed, "display must round-trip: {canonical}");
    }

    #[test]
    fn defaults_fill_in_for_single_number_clauses() {
        let plan = ChaosPlan::parse("spillfail:3;panic:1").expect("defaults parse");
        assert_eq!(plan.spill_failures, vec![OpFault { op: 3, count: 1 }]);
        assert_eq!(plan.worker_panics, vec![WorkerPanic { worker: 1, after_records: 0 }]);
    }

    #[test]
    fn malformed_specs_are_typed_errors() {
        for spec in
            ["bogus:1", "disconnect", "disconnect:x", "stall:5", "spilldelay:1@0", "panic:a@b"]
        {
            let err = ChaosPlan::parse(spec).expect_err(spec);
            assert!(err.to_string().starts_with("invalid chaos plan: "), "{err}");
        }
    }

    /// Nothing read a plan seed: the schedule is deterministic without
    /// one, and the client's jitter is keyed by its session id.
    #[test]
    fn a_seed_clause_is_an_unknown_clause() {
        let err = ChaosPlan::parse("disconnect:5;seed:7").expect_err("no seed clause");
        assert!(err.to_string().contains("`seed:7`: unknown clause kind"), "{err}");
    }

    #[test]
    fn op_fault_windows_cover_exactly_their_run() {
        let plan = ChaosPlan::parse("spillfail:2@3").expect("parses");
        let fails: Vec<bool> = (0..7).map(|op| plan.spill_fails(op)).collect();
        assert_eq!(fails, vec![false, false, true, true, true, false, false]);
        assert!(!plan.compact_fails(2));
        assert_eq!(plan.spill_delay(2), None);
    }

    #[test]
    fn panics_for_filters_and_sorts_per_worker() {
        let plan = ChaosPlan::parse("panic:1@500;panic:0@900;panic:1@100").expect("parses");
        assert_eq!(plan.panics_for(1), vec![100, 500]);
        assert_eq!(plan.panics_for(0), vec![900]);
        assert_eq!(plan.panics_for(3), Vec::<u64>::new());
    }

    #[test]
    fn wire_chaos_fires_each_event_once_even_after_resume() {
        let plan = ChaosPlan::parse("disconnect:10;stall:10@250;torn:20").expect("parses");
        let mut wire = WireChaos::new(&plan);
        assert_eq!(wire.before_record(5), None);
        // Both events armed at 10 fire on consecutive attempts, in
        // record order (disconnect sorts first only by stable order of
        // insertion at equal keys — any one-at-a-time order is fine).
        let first = wire.before_record(10).expect("first event at 10");
        let second = wire.before_record(10).expect("second event at 10");
        assert_ne!(first, second);
        assert_eq!(wire.before_record(10), None, "events at 10 are spent");
        // A resume that restarts below 20 does not re-fire anything
        // until the replay reaches the torn record.
        assert_eq!(wire.before_record(15), None);
        assert_eq!(wire.before_record(25), Some(WireFault::Torn), "torn fires past 20");
    }
}
