//! Measurement records: the interface between data collection and
//! analysis.

use edgeperf_routing::{PopId, Prefix, Relationship};

/// A user group: clients likely to share fate — same serving PoP, same
/// BGP prefix (hence same route options), same country (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupKey {
    /// Serving PoP.
    pub pop: PopId,
    /// Client BGP prefix.
    pub prefix: Prefix,
    /// Client country (opaque id; the world model provides names).
    pub country: u16,
    /// Client continent (opaque id; 0..6 in the world model).
    pub continent: u8,
}

/// One sampled HTTP session's measurements, annotated with its routing.
#[derive(Debug, Clone, Copy)]
pub struct SessionRecord {
    /// The user group the session belongs to.
    pub group: GroupKey,
    /// 15-minute window index since the start of the study.
    pub window: u32,
    /// Rank of the pinned egress route (0 = policy-preferred).
    pub route_rank: u8,
    /// Relationship type of the pinned route.
    pub relationship: Relationship,
    /// The pinned route's AS path is longer than the preferred route's.
    pub longer_path: bool,
    /// The pinned route is prepended more than the preferred route.
    pub more_prepended: bool,
    /// Session MinRTT in whole nanoseconds, as the transport counts it (a
    /// `u32` holds up to 4.29 s).
    pub min_rtt_ns: u32,
    /// Session HDratio, if any transaction could test for HD goodput.
    pub hdratio: Option<f64>,
    /// Response bytes carried (the session's traffic weight).
    pub bytes: u64,
}

impl SessionRecord {
    /// Session MinRTT in milliseconds.
    pub(crate) fn min_rtt_ms(&self) -> f64 {
        ms(self.min_rtt_ns)
    }
}

/// A MinRTT of `nanos` nanoseconds, in milliseconds: every reader of a
/// study's MinRTTs sees the one `f64` a count gives.
pub(crate) fn ms(nanos: u32) -> f64 {
    f64::from(nanos) / 1e6
}

/// `ms` as the nearest whole count of nanoseconds: a test's MinRTT, thought
/// of in milliseconds.
#[cfg(test)]
pub(crate) fn ns(ms: f64) -> u32 {
    (ms * 1e6).round() as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_key_equality_and_hash() {
        use std::collections::HashSet;
        let k1 = GroupKey {
            pop: PopId(1),
            prefix: Prefix::new(0x0A000000, 16),
            country: 3,
            continent: 2,
        };
        let k2 = GroupKey {
            pop: PopId(1),
            prefix: Prefix::new(0x0A000000, 16),
            country: 3,
            continent: 2,
        };
        let k3 = GroupKey { pop: PopId(2), ..k1 };
        let mut set = HashSet::new();
        set.insert(k1);
        assert!(set.contains(&k2));
        assert!(!set.contains(&k3));
    }

    fn record(min_rtt_ns: u32) -> SessionRecord {
        SessionRecord {
            group: GroupKey { pop: PopId(0), prefix: Prefix::new(0, 8), country: 0, continent: 0 },
            window: 0,
            route_rank: 0,
            relationship: Relationship::PrivatePeer,
            longer_path: false,
            more_prepended: false,
            min_rtt_ns,
            hdratio: None,
            bytes: 1,
        }
    }

    /// What the runner's `u64` count over `MILLISECOND` gave, as bits.
    fn counted_ms(n: u32) -> u64 {
        use edgeperf_core::MILLISECOND;
        (u64::from(n) as f64 / MILLISECOND as f64).to_bits()
    }

    #[test]
    fn min_rtt_ms_is_the_nanosecond_count_over_a_million() {
        for n in [0, 1, 999_999, 1_000_000, 1 << 31, u32::MAX] {
            assert_eq!(record(n).min_rtt_ms().to_bits(), counted_ms(n), "{n} ns");
        }
    }

    use proptest::prelude::*;

    proptest! {
        #[test]
        fn prop_min_rtt_ms_is_the_nanosecond_count_over_a_million(n in any::<u32>()) {
            prop_assert_eq!(record(n).min_rtt_ms().to_bits(), counted_ms(n));
        }
    }
}
