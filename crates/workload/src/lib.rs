//! Synthetic HTTP workload generation, parameterized to match the traffic
//! characterization in §2.3 of the paper (Figures 1–3):
//!
//! - most objects are small (50% of responses under ~6 kB; media
//!   endpoints' median ≈ 19 kB with a heavy tail),
//! - sessions are mostly idle and mostly short-lived (≈ a third end
//!   within a minute; HTTP/2 sessions live longer than HTTP/1.1),
//! - most sessions have few transactions (over 80% fewer than 5), but
//!   sessions with ≥ 50 transactions carry more than half of the bytes.
//!
//! Generation is deterministic per seed. The output is a [`SessionPlan`] —
//! a timed schedule of response writes — executed against a simulated (or
//! real) connection by the caller.

pub mod distributions;
pub mod sessions;

pub use distributions::{LogNormal, Pareto};
pub use sessions::{EndpointKind, SessionPlan, TxnPlan, WorkloadConfig};
