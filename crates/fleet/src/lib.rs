//! `edgeperf-fleet`: the multi-PoP fleet tier — a simulated global edge
//! behind one coordinator.
//!
//! The paper measures performance *from Facebook's edge*: many PoPs,
//! each serving the clients whose anycast catchment lands there. The
//! live tier (`edgeperf-live`) is one such PoP; this crate runs N of
//! them behind a coordinator that owns the catchment, fans fleet
//! queries out over the typed protocol, and merges per-PoP views into a
//! global one that is f64-bit-identical to a single-node run over the
//! same records.
//!
//! Module map:
//!
//! - [`catchment`]: [`CatchmentModel`] — the deterministic seeded
//!   anycast model (client prefix → PoP by continent ring distance,
//!   capacity weight, and seeded tie-break jitter).
//! - [`merge`]: `merge_cells` / `merge_snapshots` — the
//!   disjoint-union fleet merge with cross-PoP duplicate-cell
//!   detection (a duplicate means a catchment violation, not data).
//! - [`chaos`]: [`FleetChaosPlan`] — seeded PoP kills at deterministic
//!   record counts, the fleet-level sibling of the live tier's
//!   `ChaosPlan`.
//! - [`coordinator`]: [`Fleet`] / [`FleetHandle`] — hosts the PoPs,
//!   answers the live protocol's verbs fleet-wide plus `pops` / `home` /
//!   `kill`, re-homes catchments on a kill; [`FleetClient`] is a
//!   `LiveClient` with those three verbs added.
//!
//! The cross-cutting invariant (DESIGN.md §16): a prefix is homed on
//! exactly one PoP at a time, so every (group, rank, window) cell lives
//! on exactly one node and the fleet merge is a concatenation + sort —
//! no t-digest re-merge, no approximation, bit-identical to the
//! single-node control even across a mid-run PoP failover.

pub mod catchment;
pub mod chaos;
pub mod coordinator;
pub mod merge;

use std::fmt;
use std::io;

use edgeperf_live::ProtocolError;

pub use catchment::{CatchmentModel, ClientKey, PopSite};
pub use chaos::{FleetChaosPlan, FleetKill};
pub use coordinator::{Fleet, FleetClient, FleetConfig, FleetHandle, FleetPopInfo, KillReport};
pub use edgeperf_core::plan::PlanError;

/// Typed coordinator/fleet errors (no stringly `Result<_, String>`).
#[derive(Debug)]
pub enum FleetError {
    /// Every PoP is dead; no catchment exists.
    NoPopsAlive,
    /// A request named a PoP outside the fleet.
    UnknownPop {
        /// The offending PoP id.
        pop: u16,
    },
    /// A request named a PoP that was already killed.
    PopDead {
        /// The dead PoP.
        pop: u16,
    },
    /// Refused to kill the last alive PoP.
    LastPop {
        /// The PoP that would have emptied the fleet.
        pop: u16,
    },
    /// Two PoPs served the same cell — the catchment homed one group on
    /// two nodes, so the merge would double-count.
    DuplicateCell {
        /// Window index of the colliding cell.
        window: u32,
        /// PoP field recorded in the cell itself.
        pop: u16,
        /// Colliding prefix base.
        prefix_base: u32,
        /// Colliding prefix length.
        prefix_len: u8,
        /// Colliding route rank.
        rank: u8,
        /// Node that served the cell first.
        first_node: u16,
        /// Node that served it again.
        second_node: u16,
    },
    /// An I/O failure talking to one specific PoP.
    Pop {
        /// The PoP the fan-out failed against.
        pop: u16,
        /// The underlying transport error.
        source: io::Error,
    },
    /// A protocol-layer failure (malformed reply, version mismatch).
    Protocol(ProtocolError),
    /// An I/O failure not attributable to a single PoP.
    Io(io::Error),
    /// An invalid fleet configuration.
    Config(String),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::NoPopsAlive => write!(f, "no PoPs alive"),
            FleetError::UnknownPop { pop } => write!(f, "unknown PoP {pop}"),
            FleetError::PopDead { pop } => write!(f, "PoP {pop} is dead"),
            FleetError::LastPop { pop } => {
                write!(f, "refusing to kill PoP {pop}: it is the last alive PoP")
            }
            FleetError::DuplicateCell {
                window,
                pop,
                prefix_base,
                prefix_len,
                rank,
                first_node,
                second_node,
            } => write!(
                f,
                "catchment violation: cell (window {window}, pop {pop}, \
                 {prefix_base}/{prefix_len}, rank {rank}) served by both \
                 node {first_node} and node {second_node}"
            ),
            FleetError::Pop { pop, source } => write!(f, "PoP {pop}: {source}"),
            FleetError::Protocol(err) => write!(f, "protocol: {err}"),
            FleetError::Io(err) => write!(f, "io: {err}"),
            FleetError::Config(msg) => write!(f, "config: {msg}"),
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Pop { source, .. } => Some(source),
            FleetError::Protocol(err) => Some(err),
            FleetError::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<io::Error> for FleetError {
    fn from(err: io::Error) -> Self {
        FleetError::Io(err)
    }
}

impl From<ProtocolError> for FleetError {
    fn from(err: ProtocolError) -> Self {
        FleetError::Protocol(err)
    }
}

impl FleetError {
    /// Render as a single-line error reply on the coordinator wire,
    /// shaped like the live protocol's error replies.
    pub fn render(&self) -> String {
        format!("{{\"error\":\"fleet: {}\"}}", self.to_string().replace('"', "'"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_as_wire_replies() {
        let err = FleetError::LastPop { pop: 3 };
        assert_eq!(
            err.render(),
            "{\"error\":\"fleet: refusing to kill PoP 3: it is the last alive PoP\"}"
        );
        let io_err = FleetError::from(io::Error::other("boom"));
        assert!(io_err.render().starts_with("{\"error\":\"fleet: io:"));
    }
}
