//! Reproduction harness: one entry point per table/figure of the paper.
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
