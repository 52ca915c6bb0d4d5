//! # edgeperf
//!
//! An open-source reproduction of the measurement system behind
//! *"Internet Performance from Facebook's Edge"* (IMC 2019): server-side
//! passive estimation of user latency (MinRTT) and achievable goodput
//! (HDratio), an aggregation/comparison pipeline with distribution-free
//! statistics, and a synthetic-Internet substrate to exercise all of it.
//!
//! This umbrella crate re-exports the workspace's public API:
//!
//! - [`core`] — the paper's contribution: `Gtestable`, `Tmodel`, HDratio,
//!   MinRTT tracking, and the load-balancer instrumentation model.
//! - [`stats`] — t-digest, Price–Bonett median CIs, weighted CDFs.
//! - [`tcp`] — the TCP sender/receiver model (Reno, CUBIC, delayed ACKs).
//! - [`netsim`] — deterministic discrete-event packet simulator and the
//!   round-based "fastsim" used for fleet-scale studies.
//! - [`routing`] — prefixes, AS paths, the 4-tiebreaker egress policy,
//!   and the Edge-Fabric-style route pinning used for alternate-route
//!   measurement.
//! - [`workload`] — synthetic HTTP session/transaction generators matched
//!   to the paper's published traffic distributions.
//! - [`world`] — a seeded synthetic Internet (PoPs, ASes, prefixes, path
//!   ground truth with diurnal/episodic dynamics).
//! - [`analysis`] — user groups, 15-minute windows, degradation and
//!   routing-opportunity detection, temporal classification.
//! - [`obs`] — pipeline observability: the lock-light metrics registry,
//!   phase spans, and JSON-serializable snapshots behind `--metrics-json`.
//! - [`live`] — the streaming session-ingest server (`edgeperf serve`):
//!   sliding event-time windows over the same estimator and statistics,
//!   with online degradation detection. The wire format lives in
//!   [`serve`].
//! - [`fleet`] — the multi-PoP tier (`edgeperf fleet`): N live servers
//!   behind an anycast catchment coordinator, with bit-faithful global
//!   merge and mid-run PoP failover.
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs`; the one-paragraph version:
//!
//! ```
//! use edgeperf::core::{Estimator, HD_GOODPUT_BPS, MILLISECOND};
//! use edgeperf::core::instrument::Transaction;
//!
//! // One measured transaction: ~36 kB response, Wnic = 10 segments,
//! // MinRTT 60 ms, measured transfer time 135 ms (delayed-ACK corrected).
//! let txn = Transaction {
//!     bytes_full: 36_000,
//!     bytes_measured: 34_760, // minus the final packet (§3.2.5)
//!     ttotal: 135 * MILLISECOND,
//!     wnic: 14_600,
//!     eligible: true,
//!     coalesced: 1,
//! };
//! let mut est = Estimator::new(HD_GOODPUT_BPS);
//! let outcome = est.evaluate(&txn, 60 * MILLISECOND);
//! assert!(outcome.testable); // big enough to exercise 2.5 Mbps
//! assert!(outcome.achieved); // and it did
//! ```

pub mod ingest;
pub mod serve;

pub use edgeperf_analysis as analysis;
pub use edgeperf_core as core;
pub use edgeperf_fleet as fleet;
pub use edgeperf_live as live;
pub use edgeperf_netsim as netsim;
pub use edgeperf_obs as obs;
pub use edgeperf_routing as routing;
pub use edgeperf_stats as stats;
pub use edgeperf_tcp as tcp;
pub use edgeperf_workload as workload;
pub use edgeperf_world as world;

/// The value following `flag` on a command line, parsed as the type of
/// the field it sets: `Err("--seed needs an integer")` when the line ends
/// before it or it does not parse — so an integer flag rejects `1.5`, a
/// sign on an unsigned type and anything out of range. Shared by the
/// `edgeperf`, `repro` and `loadgen` binaries.
pub fn flag_value<T: std::str::FromStr>(
    it: &mut impl Iterator<Item = impl AsRef<str>>,
    flag: &str,
    what: &str,
) -> Result<T, String> {
    it.next().and_then(|s| s.as_ref().parse().ok()).ok_or_else(|| format!("{flag} needs {what}"))
}
