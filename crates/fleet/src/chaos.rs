//! Fleet-level fault plans: PoP kills at deterministic points.
//!
//! The live tier's `ChaosPlan` injects wire/disk faults inside one
//! node; a [`FleetChaosPlan`] operates one level up — it removes whole
//! PoPs from the fleet at a deterministic record count, forcing the
//! coordinator to re-home the dead PoP's catchment and the clients to
//! resume on survivors. Same spec grammar as `ChaosPlan`
//! ([`edgeperf_core::plan`]) so runs are reproducible from a single CLI
//! flag.

use edgeperf_core::plan::{clauses, write_clauses, PlanError};
use std::fmt;

/// Kill one PoP after the fleet has ingested a number of records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetKill {
    /// The PoP to remove from the fleet.
    pub pop: u16,
    /// Fire once at least this many records have been replayed
    /// fleet-wide (and quiesced — kills land on chunk barriers).
    pub after_records: u64,
}

/// A deterministic fleet fault plan, parsed from a spec string.
///
/// Grammar (clauses separated by `;`):
///
/// - `kill:POP@RECORDS` — kill PoP `POP` once `RECORDS` records have
///   been replayed; repeatable.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetChaosPlan {
    /// PoP kills, in spec order.
    pub kills: Vec<FleetKill>,
}

impl FleetChaosPlan {
    /// Parse a spec string (the grammar is [`edgeperf_core::plan`]'s);
    /// the empty string is the empty plan.
    pub fn parse(spec: &str) -> Result<FleetChaosPlan, PlanError> {
        let mut plan = FleetChaosPlan::default();
        for clause in clauses("fleet chaos plan", spec) {
            let clause = clause?;
            match clause.kind {
                "kill" => {
                    let [pop, after_records] = clause.args([None, None])?;
                    plan.kills.push(FleetKill { pop: clause.fit(pop)?, after_records });
                }
                _ => return Err(clause.error("unknown clause kind")),
            }
        }
        Ok(plan)
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.kills.is_empty()
    }

    /// Kills ordered by firing point (stable on ties).
    pub fn kills_sorted(&self) -> Vec<FleetKill> {
        let mut kills = self.kills.clone();
        kills.sort_by_key(|k| (k.after_records, k.pop));
        kills
    }
}

impl fmt::Display for FleetChaosPlan {
    /// Canonical spec form — `parse(plan.to_string())` round-trips.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let clauses: Vec<String> =
            self.kills.iter().map(|k| format!("kill:{}@{}", k.pop, k.after_records)).collect();
        write_clauses(f, &clauses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Plans generated from the struct side.
    fn plans() -> impl Strategy<Value = FleetChaosPlan> {
        prop::collection::vec((any::<u16>(), any::<u64>()), 0..4).prop_map(|kills| FleetChaosPlan {
            kills: kills
                .into_iter()
                .map(|(pop, after_records)| FleetKill { pop, after_records })
                .collect(),
        })
    }

    proptest! {
        #[test]
        fn every_plan_round_trips_through_its_spec(plan in plans()) {
            prop_assert_eq!(FleetChaosPlan::parse(&plan.to_string()), Ok(plan));
        }
    }

    #[test]
    fn empty_spec_is_the_empty_plan() {
        let plan = FleetChaosPlan::parse("").unwrap();
        assert!(plan.is_empty());
        assert_eq!(plan, FleetChaosPlan::default());
        assert_eq!(plan.to_string(), "");
    }

    #[test]
    fn full_spec_round_trips() {
        let spec = "kill:1@5000;kill:3@2000";
        let plan = FleetChaosPlan::parse(spec).unwrap();
        assert_eq!(
            plan.kills,
            vec![
                FleetKill { pop: 1, after_records: 5000 },
                FleetKill { pop: 3, after_records: 2000 }
            ]
        );
        assert_eq!(plan.to_string(), spec);
        assert_eq!(FleetChaosPlan::parse(&plan.to_string()).unwrap(), plan);
        assert_eq!(
            plan.kills_sorted(),
            vec![
                FleetKill { pop: 3, after_records: 2000 },
                FleetKill { pop: 1, after_records: 5000 }
            ]
        );
    }

    #[test]
    fn malformed_specs_are_typed_errors() {
        for bad in ["kill", "kill:1", "kill:x@5", "kill:1@y", "kill:99999@1", "bogus:1", "seed:x"] {
            let err = FleetChaosPlan::parse(bad).unwrap_err();
            assert!(err.to_string().starts_with("invalid fleet chaos plan: "), "{err}");
        }
    }

    /// The plan seed was reserved for a randomized placement that never
    /// came; nothing read it.
    #[test]
    fn a_seed_clause_is_an_unknown_clause() {
        let err = FleetChaosPlan::parse("kill:1@1000;seed:7").expect_err("no seed clause");
        assert!(err.to_string().contains("`seed:7`: unknown clause kind"), "{err}");
    }
}
