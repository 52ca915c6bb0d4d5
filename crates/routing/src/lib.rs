//! BGP-style egress routing substrate (paper §§2.1, 2.2.3 and 6.1).
//!
//! Models the routing machinery the paper's opportunity analysis sits on:
//!
//! - [`types`]: prefixes, AS paths, peering relationship types.
//! - [`rib`]: a per-PoP routing table ranking each prefix's routes by the
//!   paper's four-tiebreaker preference order: (1) longest matching
//!   prefix, (2) prefer peer routes, (3) prefer shorter AS paths,
//!   (4) prefer private interconnects (PNI) over public exchanges.
//! - [`prepend`]: AS-path prepending detection (§6.2.2 — prepended
//!   alternates signal ingress traffic engineering and are deprioritized).
//! - [`edge_fabric`]: the egress controller's measurement half —
//!   deterministic route *pinning* for sampled sessions, so measurements
//!   continuously cover the preferred route and the best alternates
//!   regardless of the controller's shifts (§2.2.3).
//!
//! Route sets are static for a study: nothing announces or withdraws a
//! route once the world is generated.

pub mod edge_fabric;
pub mod prepend;
pub mod rib;
pub mod types;

pub use edge_fabric::pin_sampled;
pub use prepend::prepended_more;
pub use rib::Rib;
pub use types::{AsPath, Asn, PopId, Prefix, Relationship, Route, RouteId};
