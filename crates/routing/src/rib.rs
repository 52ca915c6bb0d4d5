//! Per-PoP routing table with the paper's policy tiebreakers (§6.1).
//!
//! When a PoP has multiple routes to a user it decides among them by, in
//! order: (1) prefer the longest matching prefix, (2) prefer peer routes
//! over transit, (3) prefer shorter AS paths, (4) prefer routes via a
//! private network interconnect (PNI) over public exchanges. Any
//! remaining tie breaks deterministically on route id (the stand-in for
//! BGP's router-id tiebreakers). Every user the world samples sits in one
//! announced prefix, so tiebreaker 1 is that prefix itself and a RIB
//! ranks the routes of an exact prefix ([`Rib::ranked`]).

use crate::types::{Prefix, Relationship, Route};
use std::cmp::Ordering;
use std::collections::HashMap;

/// # Example
///
/// ```
/// use edgeperf_routing::{AsPath, Asn, Prefix, Relationship, Rib, Route, RouteId};
/// let prefix = Prefix::new(0xC0A8_0000, 16);
/// let mut rib = Rib::new();
/// rib.insert(Route { id: RouteId(1), prefix, relationship: Relationship::Transit,
///     as_path: AsPath(vec![Asn(3356), Asn(64500)]), capacity_bps: 1 });
/// rib.insert(Route { id: RouteId(2), prefix, relationship: Relationship::PrivatePeer,
///     as_path: AsPath(vec![Asn(64500)]), capacity_bps: 1 });
/// // The §6.1 policy prefers the private peer.
/// assert_eq!(rib.ranked(&prefix)[0].id, RouteId(2));
/// ```
/// A PoP's routing information base.
#[derive(Debug, Default, Clone)]
pub struct Rib {
    routes: HashMap<Prefix, Vec<Route>>,
}

impl Rib {
    /// Empty RIB.
    pub fn new() -> Self {
        Self::default()
    }

    /// Install an announced route.
    pub fn insert(&mut self, route: Route) {
        self.routes.entry(route.prefix).or_default().push(route);
    }

    /// Routes for an exact prefix, ranked best-first by policy
    /// (tiebreakers 2–4; tiebreaker 1 is the prefix choice itself).
    pub fn ranked(&self, prefix: &Prefix) -> Vec<&Route> {
        let mut rs: Vec<&Route> = match self.routes.get(prefix) {
            None => return Vec::new(),
            Some(v) => v.iter().collect(),
        };
        rs.sort_by(|a, b| Self::policy_cmp(a, b));
        rs
    }

    /// The policy comparison: `Less` means `a` is preferred.
    pub fn policy_cmp(a: &Route, b: &Route) -> Ordering {
        // (2) Prefer peer routes over transit.
        let peer = b.relationship.is_peer().cmp(&a.relationship.is_peer());
        if peer != Ordering::Equal {
            return peer;
        }
        // (3) Prefer shorter AS paths (announced length, prepends count).
        let len = a.as_path.len().cmp(&b.as_path.len());
        if len != Ordering::Equal {
            return len;
        }
        // (4) Prefer PNI over public exchange.
        let pni = (a.relationship == Relationship::PublicPeer)
            .cmp(&(b.relationship == Relationship::PublicPeer));
        if pni != Ordering::Equal {
            return pni;
        }
        // Deterministic final tiebreak.
        a.id.cmp(&b.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{AsPath, Asn, RouteId};

    fn route(id: u32, prefix: Prefix, rel: Relationship, path: &[u32]) -> Route {
        Route {
            id: RouteId(id),
            prefix,
            as_path: AsPath(path.iter().map(|&a| Asn(a)).collect()),
            relationship: rel,
            capacity_bps: 10_000_000_000,
        }
    }

    fn p(base: u32, len: u8) -> Prefix {
        Prefix::new(base, len)
    }

    #[test]
    fn peer_beats_transit() {
        let mut rib = Rib::new();
        let pre = p(0x0A0B_0000, 16);
        rib.insert(route(1, pre, Relationship::Transit, &[3356, 7018]));
        rib.insert(route(2, pre, Relationship::PublicPeer, &[7018, 7018, 7018]));
        // Peer wins even with a longer (prepended) path: tiebreaker 2
        // applies before 3.
        let rs = rib.ranked(&pre);
        assert_eq!(rs[0].id, RouteId(2));
    }

    #[test]
    fn shorter_as_path_among_peers() {
        let mut rib = Rib::new();
        let pre = p(0x0A0B_0000, 16);
        rib.insert(route(1, pre, Relationship::PublicPeer, &[64511, 7018]));
        rib.insert(route(2, pre, Relationship::PublicPeer, &[7018]));
        let rs = rib.ranked(&pre);
        assert_eq!(rs[0].id, RouteId(2));
    }

    #[test]
    fn pni_beats_public_at_equal_length() {
        let mut rib = Rib::new();
        let pre = p(0x0A0B_0000, 16);
        rib.insert(route(1, pre, Relationship::PublicPeer, &[7018]));
        rib.insert(route(2, pre, Relationship::PrivatePeer, &[7018]));
        let rs = rib.ranked(&pre);
        assert_eq!(rs[0].id, RouteId(2));
    }

    #[test]
    fn transit_ranked_by_path_length() {
        let mut rib = Rib::new();
        let pre = p(0x0A0B_0000, 16);
        rib.insert(route(1, pre, Relationship::Transit, &[3356, 64512, 7018]));
        rib.insert(route(2, pre, Relationship::Transit, &[1299, 7018]));
        let rs = rib.ranked(&pre);
        assert_eq!(rs[0].id, RouteId(2));
        assert_eq!(rs[1].id, RouteId(1));
    }

    #[test]
    fn deterministic_tiebreak_on_id() {
        let mut rib = Rib::new();
        let pre = p(0x0A0B_0000, 16);
        rib.insert(route(9, pre, Relationship::Transit, &[1299, 7018]));
        rib.insert(route(3, pre, Relationship::Transit, &[3356, 7018]));
        let rs = rib.ranked(&pre);
        assert_eq!(rs[0].id, RouteId(3));
    }

    #[test]
    fn full_policy_order_end_to_end() {
        // A realistic candidate set for one prefix, checked end to end.
        let mut rib = Rib::new();
        let pre = p(0xC0A8_0000, 16);
        rib.insert(route(1, pre, Relationship::Transit, &[3356, 7018])); // transit, len 2
        rib.insert(route(2, pre, Relationship::Transit, &[1299, 64500, 7018])); // transit, len 3
        rib.insert(route(3, pre, Relationship::PublicPeer, &[7018])); // public, len 1
        rib.insert(route(4, pre, Relationship::PrivatePeer, &[7018])); // PNI, len 1
        rib.insert(route(5, pre, Relationship::PrivatePeer, &[7018, 7018])); // PNI prepended
        let ids: Vec<u32> = rib.ranked(&pre).iter().map(|r| r.id.0).collect();
        assert_eq!(ids, vec![4, 3, 5, 1, 2]);
    }
}

#[cfg(test)]
mod policy_order_properties {
    use super::*;
    use crate::types::{AsPath, Asn, RouteId};
    use proptest::prelude::*;

    fn arb_route() -> impl Strategy<Value = Route> {
        (
            0u32..64,
            prop::sample::select(vec![
                Relationship::PrivatePeer,
                Relationship::PublicPeer,
                Relationship::Transit,
            ]),
            1usize..5,
        )
            .prop_map(|(id, rel, len)| Route {
                id: RouteId(id),
                prefix: Prefix::new(0x0A000000, 16),
                as_path: AsPath((0..len).map(|i| Asn(7000 + i as u32)).collect()),
                relationship: rel,
                capacity_bps: 1,
            })
    }

    proptest! {
        /// The policy comparison is a strict weak ordering: antisymmetric
        /// and transitive (required for `sort_by` to be meaningful).
        #[test]
        fn policy_cmp_is_consistent(routes in prop::collection::vec(arb_route(), 3)) {
            use std::cmp::Ordering;
            let (a, b, c) = (&routes[0], &routes[1], &routes[2]);
            // Antisymmetry.
            prop_assert_eq!(Rib::policy_cmp(a, b), Rib::policy_cmp(b, a).reverse());
            // Transitivity of ≤.
            if Rib::policy_cmp(a, b) != Ordering::Greater
                && Rib::policy_cmp(b, c) != Ordering::Greater
            {
                prop_assert_ne!(Rib::policy_cmp(a, c), Ordering::Greater);
            }
        }

        /// Ranking is insertion-order independent.
        #[test]
        fn ranking_is_order_independent(mut routes in prop::collection::vec(arb_route(), 1..8)) {
            // De-duplicate ids (a RIB never holds two announcements with
            // the same id for one prefix).
            routes.sort_by_key(|r| r.id);
            routes.dedup_by_key(|r| r.id);
            let prefix = Prefix::new(0x0A000000, 16);
            let mut rib1 = Rib::new();
            for r in &routes {
                rib1.insert(r.clone());
            }
            let mut rib2 = Rib::new();
            for r in routes.iter().rev() {
                rib2.insert(r.clone());
            }
            let ids1: Vec<_> = rib1.ranked(&prefix).iter().map(|r| r.id).collect();
            let ids2: Vec<_> = rib2.ranked(&prefix).iter().map(|r| r.id).collect();
            prop_assert_eq!(ids1, ids2);
        }
    }
}
