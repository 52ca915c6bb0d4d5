//! Reproduction harness: one entry point per table/figure of the paper,
//! plus the Criterion performance benches in `benches/`.
//!
//! The `repro` binary (`cargo run -p edgeperf-bench --release --bin
//! repro -- <experiment>`) prints each experiment's series/rows in a
//! paper-comparable form and can emit machine-readable JSON. See
//! EXPERIMENTS.md for the paper-vs-measured record.

pub mod ablations;
pub mod cc_compare;
pub mod detector;
pub mod fig4;
pub mod fig5;
pub mod fleet_run;
pub mod loadgen;
pub mod naive;
pub mod study;
pub mod validation;
pub mod workload_figs;

/// Scale knob shared by the heavy experiments: multiplies session counts
/// and divides the study length so CI runs in seconds and full runs in
/// minutes. Read from `--scale` or the `EDGEPERF_SCALE` env var.
pub fn env_scale(default: f64) -> f64 {
    std::env::var("EDGEPERF_SCALE").ok().and_then(|s| s.parse().ok()).unwrap_or(default)
}

/// The value following `flag` on a command line, parsed as the type of
/// the field it sets: `Err("--seed needs an integer")` when the line ends
/// before it or it does not parse — so an integer flag rejects `1.5`, a
/// sign on an unsigned type and anything out of range. Shared by the
/// `repro` and `loadgen` binaries.
pub fn flag_value<T: std::str::FromStr>(
    it: &mut impl Iterator<Item = impl AsRef<str>>,
    flag: &str,
    what: &str,
) -> Result<T, String> {
    it.next().and_then(|s| s.as_ref().parse().ok()).ok_or_else(|| format!("{flag} needs {what}"))
}
