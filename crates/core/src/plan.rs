//! The one fault-plan grammar.
//!
//! The offline supervisor's `FaultPlan`, the live tier's `ChaosPlan` and
//! the fleet's `FleetChaosPlan` are written in the same language: a
//! `;`-separated list of `kind:arg@arg` clauses whose arguments are
//! unsigned integers (`panic:1@800;spillfail:3`; `:` separates
//! arguments too, for the supervisor's `delay:W:MS`). This module is that
//! language — [`clauses`] splits a spec, [`Clause::args`] reads a
//! clause's numbers, [`write_clauses`] renders the canonical form — and
//! each tier keeps only what differs: its plan struct and the `match`
//! from clause kinds to fields.

use std::fmt;

/// A malformed plan spec: which plan (`"chaos plan"`, `"fault plan"`,
/// `"fleet chaos plan"`) and what is wrong with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanError {
    /// The plan the spec was parsed as.
    pub plan: &'static str,
    /// The offending clause and the reason.
    pub message: String,
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid {}: {}", self.plan, self.message)
    }
}

impl std::error::Error for PlanError {}

/// One `kind:args` clause of a spec.
#[derive(Debug)]
pub struct Clause<'a> {
    plan: &'static str,
    text: &'a str,
    /// The clause kind, trimmed (`panic`, `seed`, …).
    pub kind: &'a str,
    body: &'a str,
}

/// Split `spec` into its clauses: `;`-separated, trimmed, empty ones
/// skipped (so `""`, `"  "` and `";;"` are the empty plan); a clause
/// without a `:` is an error. `plan` names the plan in every error.
pub fn clauses<'a>(
    plan: &'static str,
    spec: &'a str,
) -> impl Iterator<Item = Result<Clause<'a>, PlanError>> {
    spec.split(';').map(str::trim).filter(|c| !c.is_empty()).map(move |text| {
        match text.split_once(':') {
            Some((kind, body)) => Ok(Clause { plan, text, kind: kind.trim(), body }),
            None => Err(PlanError { plan, message: format!("`{text}`: expected `kind:args`") }),
        }
    })
}

impl Clause<'_> {
    /// An error about this clause (`unknown clause kind`, say).
    pub fn error(&self, message: impl fmt::Display) -> PlanError {
        PlanError { plan: self.plan, message: format!("`{}`: {message}", self.text) }
    }

    /// The clause's `N` numeric arguments. `defaults[i]` stands in for an
    /// absent argument `i` (`spillfail:3` = `spillfail:3@1`); `None`
    /// there makes it required. A missing required argument, one that is
    /// not an unsigned integer and one argument too many are all errors.
    pub fn args<const N: usize>(&self, defaults: [Option<u64>; N]) -> Result<[u64; N], PlanError> {
        let mut parts = self.body.split(['@', ':']).map(str::trim);
        let mut out = [0u64; N];
        for (slot, default) in out.iter_mut().zip(defaults) {
            *slot = match (parts.next(), default) {
                (Some(part), _) => {
                    part.parse().map_err(|_| self.error(format!("bad number `{part}`")))?
                }
                (None, Some(default)) => default,
                (None, None) => return Err(self.error(format!("expected {N} arguments"))),
            };
        }
        match parts.next() {
            Some(_) => Err(self.error(format!("expected at most {N} arguments"))),
            None => Ok(out),
        }
    }

    /// Narrow an argument to the type of the field it sets; out of range
    /// is an error, never a truncation.
    pub fn fit<T: TryFrom<u64>>(&self, value: u64) -> Result<T, PlanError> {
        T::try_from(value).map_err(|_| self.error(format!("{value} is out of range")))
    }
}

/// Write `clauses` joined by `;` — the canonical spec every plan's
/// `Display` produces and its `parse` reads back to an equal plan.
pub fn write_clauses(f: &mut fmt::Formatter<'_>, clauses: &[String]) -> fmt::Result {
    f.write_str(&clauses.join(";"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-kind plan, the least that exercises the grammar: `hit:A@B`
    /// (B defaults to 1, A narrows to `u16`) and `seed:S`.
    fn parse(spec: &str) -> Result<Vec<(u16, u64)>, PlanError> {
        let mut out = Vec::new();
        for clause in clauses("test plan", spec) {
            let clause = clause?;
            match clause.kind {
                "hit" => {
                    let [a, b] = clause.args([None, Some(1)])?;
                    out.push((clause.fit(a)?, b));
                }
                "seed" => out.push((0, clause.args([None])?[0])),
                _ => return Err(clause.error("unknown clause kind")),
            }
        }
        Ok(out)
    }

    #[test]
    fn the_grammar_as_a_table() {
        let ok: [(&str, &[(u16, u64)]); 8] = [
            ("", &[]),
            ("   ", &[]),
            (";;", &[]),
            (" ; ; ", &[]),
            ("hit:3", &[(3, 1)]),
            ("hit:3@9", &[(3, 9)]),
            (" hit : 3 @ 9 ;; seed:7 ;", &[(3, 9), (0, 7)]),
            ("hit:3:9", &[(3, 9)]),
        ];
        for (spec, want) in ok {
            assert_eq!(parse(spec).as_deref(), Ok(want), "{spec:?}");
        }
        let bad = [
            ("hit", "`hit`: expected `kind:args`"),
            ("hit:3;seed", "`seed`: expected `kind:args`"),
            ("hit:x", "`hit:x`: bad number `x`"),
            ("hit:3@", "`hit:3@`: bad number ``"),
            ("hit:-1", "`hit:-1`: bad number `-1`"),
            ("hit:1.5", "`hit:1.5`: bad number `1.5`"),
            ("hit:", "`hit:`: bad number ``"),
            ("hit:1@2@3", "`hit:1@2@3`: expected at most 2 arguments"),
            ("hit:70000", "`hit:70000`: 70000 is out of range"),
            ("boom:1", "`boom:1`: unknown clause kind"),
        ];
        for (spec, message) in bad {
            let err = parse(spec).expect_err(spec);
            assert_eq!(err, PlanError { plan: "test plan", message: message.to_string() });
            assert_eq!(err.to_string(), format!("invalid test plan: {message}"));
        }
    }
}
