//! Routing primitives: prefixes, AS paths, relationships, routes.

use std::fmt;

/// An autonomous system number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Asn(pub u32);

/// A PoP identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PopId(pub u16);

/// A route identifier, unique within a PoP's RIB.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RouteId(pub u32);

/// An IPv4-style CIDR prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Prefix {
    /// Network base address (host bits zero).
    pub base: u32,
    /// Prefix length, 0–32.
    pub len: u8,
}

impl Prefix {
    /// Construct a prefix, masking host bits off `base`.
    pub fn new(base: u32, len: u8) -> Self {
        assert!(len <= 32, "prefix length {len}");
        Prefix { base: base & Self::mask(len), len }
    }

    fn mask(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len)
        }
    }

    /// Number of addresses in the prefix.
    pub fn size(&self) -> u64 {
        1u64 << (32 - self.len)
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.base;
        write!(
            f,
            "{}.{}.{}.{}/{}",
            (b >> 24) & 0xff,
            (b >> 16) & 0xff,
            (b >> 8) & 0xff,
            b & 0xff,
            self.len
        )
    }
}

/// An AS path as announced via BGP (may contain prepending).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AsPath(pub Vec<Asn>);

impl AsPath {
    /// Announced length (prepends included) — what BGP compares.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True for the empty path.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// Interconnection relationship of a route's next hop (§6.1).
///
/// Ordering encodes the policy preference *within* the peer class:
/// `PrivatePeer` (PNI) is preferred over `PublicPeer` (IXP); `Transit` is
/// its own class, less preferred than both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Relationship {
    /// Private network interconnect with a peer (capacity monitorable).
    PrivatePeer,
    /// Peering across a public Internet exchange.
    PublicPeer,
    /// A transit provider.
    Transit,
}

impl Relationship {
    /// Is this a peer (vs transit) route?
    pub fn is_peer(&self) -> bool {
        !matches!(self, Relationship::Transit)
    }

    /// Short label used in tables.
    pub fn label(&self) -> &'static str {
        match self {
            Relationship::PrivatePeer => "private",
            Relationship::PublicPeer => "public",
            Relationship::Transit => "transit",
        }
    }
}

/// One egress route available at a PoP.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    /// Identifier within the PoP.
    pub id: RouteId,
    /// Destination prefix the route was announced for.
    pub prefix: Prefix,
    /// Announced AS path.
    pub as_path: AsPath,
    /// Interconnect relationship.
    pub relationship: Relationship,
    /// Egress interface capacity in bits/second (for Edge Fabric).
    pub capacity_bps: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_masks_host_bits() {
        let p = Prefix::new(0x0A0B_0C0D, 16);
        assert_eq!(p.base, 0x0A0B_0000);
        assert_eq!(p.to_string(), "10.11.0.0/16");
    }

    #[test]
    fn zero_length_prefix_is_default_route() {
        let p = Prefix::new(0xFFFF_FFFF, 0);
        assert_eq!(p.base, 0, "a /0 masks every bit off");
        assert_eq!(p.size(), 1 << 32);
    }

    #[test]
    fn as_path_basics() {
        let p = AsPath(vec![Asn(64500), Asn(64501), Asn(64501), Asn(7018)]);
        assert_eq!(p.len(), 4);
        assert_eq!(p.0.last(), Some(&Asn(7018)));
        assert!(!p.is_empty());
    }

    #[test]
    fn relationship_ordering_matches_policy() {
        assert!(Relationship::PrivatePeer < Relationship::PublicPeer);
        assert!(Relationship::PublicPeer < Relationship::Transit);
        assert!(Relationship::PrivatePeer.is_peer());
        assert!(Relationship::PublicPeer.is_peer());
        assert!(!Relationship::Transit.is_peer());
    }

    #[test]
    fn prefix_size() {
        assert_eq!(Prefix::new(0, 24).size(), 256);
        assert_eq!(Prefix::new(0, 32).size(), 1);
    }
}
