//! # edgeperf-core — server-side passive performance estimation
//!
//! The primary contribution of *"Internet Performance from Facebook's
//! Edge"* (IMC 2019), as a reusable library: estimate, purely from
//! server-side TCP state of production traffic, whether a user's network
//! path can sustain a target goodput (**HDratio**, §3.2 of the paper) and
//! what the path's latency floor is (**MinRTT**, §3.1).
//!
//! The crate is substrate-agnostic: feed it [`ResponseObs`] records
//! captured from real sockets (`TCP_INFO` + socket timestamps) or from the
//! simulators in `edgeperf-netsim`. It has no dependencies.
//!
//! Pipeline:
//!
//! 1. [`instrument`]: coalesce multiplexed / preempted / back-to-back
//!    responses into transactions and apply the eligibility rules
//!    (§§3.2.5): delayed-ACK correction, bytes-in-flight exclusion.
//! 2. [`gtestable`]: decide the maximum goodput each transaction *can
//!    test* under ideal conditions (eqs. 1–3), with `Wstart` carried
//!    forward across transactions under ideal cwnd growth.
//! 3. [`tmodel`]: decide whether a capable transaction *achieved* the
//!    target by comparing its measured transfer time against a best-case
//!    model transaction through a bottleneck at the target rate.
//! 4. [`hdratio`]: summarize per session.
//!
//! [`minrtt`] provides the kernel-style windowed MinRTT tracker and
//! [`sampler`] the stateless mixer ([`splitmix64`]) every seeded draw
//! of the workspace hashes through.
//! [`plan`] is the `kind:arg@arg` grammar the fault plans of the world,
//! live and fleet tiers are all written in.

pub mod error;
pub mod estimator;
pub mod gtestable;
pub mod hdratio;
pub mod instrument;
pub mod minrtt;
pub mod plan;
pub mod sampler;
pub mod tmodel;
pub mod types;

pub use error::{EdgeperfError, LineError};
pub use estimator::{AchievedRule, Estimator, EstimatorOptions, TxnOutcome};
pub use hdratio::{session_hdratio, SessionVerdict};
pub use instrument::{assemble_transactions, InstrumentOptions, Transaction};
pub use minrtt::MinRttTracker;
pub use sampler::splitmix64;
pub use types::{HttpVersion, Nanos, ResponseObs, SessionObs, HD_GOODPUT_BPS, MILLISECOND, SECOND};
