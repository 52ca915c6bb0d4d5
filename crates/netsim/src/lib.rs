//! Deterministic discrete-event network simulation for edgeperf.
//!
//! This crate plays the role NS3 plays in the paper's §3.2.3 validation and
//! the role the production Internet plays for the fleet-scale studies:
//!
//! - [`engine`]: a minimal, deterministic event queue (integer-nanosecond
//!   timestamps, stable FIFO tie-breaking).
//! - [`path`]: a one-bottleneck network path — FIFO drop-tail queue at a
//!   configurable rate, propagation delay, random loss, jitter, and an
//!   optional token-bucket policer (the paper cites policing as a major
//!   cause of failing to sustain goodput at high RTT).
//! - [`fault`]: the Bernoulli loss process and the token-bucket policer.
//! - [`flow`]: packet-level simulation of one TCP connection carrying a
//!   sequence of application writes (HTTP responses), built on
//!   `edgeperf-tcp`. Produces the per-write instrumentation records the
//!   estimator consumes.
//! - [`fastsim`]: a round-based approximation of the same transfer used
//!   for fleet-scale studies (millions of sessions); an ablation bench
//!   compares its agreement with the packet-level mode.
//!
//! Determinism: all randomness flows through a caller-provided seeded RNG;
//! no wall-clock time is read anywhere.

pub mod engine;
pub mod fastsim;
pub mod fault;
pub mod flow;
pub mod path;
pub mod trace;

pub use engine::EventQueue;
pub use fastsim::{FastFlow, FastTransfer, PathState};
pub use fault::LossModel;
pub use flow::{FlowResult, FlowSim, WriteRecord};
pub use path::{Path, PathConfig};
pub use trace::{FlowTrace, TraceEvent};
