//! Property tests over the core estimator's public API.

use edgeperf_core::minrtt::MinRttTracker;
use edgeperf_core::MILLISECOND;
use proptest::prelude::*;

proptest! {
    /// The windowed-min tracker agrees with a naive recomputation at
    /// every query point.
    #[test]
    fn minrtt_tracker_matches_naive(
        samples in prop::collection::vec((0u64..600, 1u64..500), 1..80),
        window_s in 1u64..400,
    ) {
        let window = window_s * 1_000 * MILLISECOND;
        // Sort sample times (tracker requires monotone time).
        let mut s: Vec<(u64, u64)> = samples
            .iter()
            .map(|&(t, r)| (t * 1_000 * MILLISECOND, r * MILLISECOND))
            .collect();
        s.sort_by_key(|&(t, _)| t);

        let mut tracker = MinRttTracker::new(window);
        for (i, &(t, rtt)) in s.iter().enumerate() {
            tracker.on_sample(t, rtt);
            // Naive: min over samples within [t - window, t].
            let cutoff = t.saturating_sub(window);
            let naive = s[..=i]
                .iter()
                .filter(|&&(ts, _)| ts >= cutoff)
                .map(|&(_, r)| r)
                .min();
            prop_assert_eq!(tracker.current(t), naive, "at t={}", t);
        }
    }
}

mod robustness {
    use edgeperf_core::{
        assemble_transactions, session_hdratio, HttpVersion, ResponseObs, SessionObs,
        HD_GOODPUT_BPS,
    };
    use proptest::prelude::*;

    fn arb_response() -> impl Strategy<Value = ResponseObs> {
        (
            1u64..10_000_000,                                              // bytes
            0u64..1_000_000_000_000,                                       // issued_at
            prop::option::of((0u64..1_000_000_000_000, 0u32..10_000_000)), // first_tx
            prop::option::of(0u64..1_000_000_000_000),                     // t_second_last_ack
            prop::option::of(0u64..1_000_000_000_000),                     // t_full_ack
            prop::option::of(0u32..100_000),                               // last_packet_bytes
            0u64..1_000_000,                                               // bytes_in_flight
            any::<bool>(),                                                 // prev_unsent
        )
            .prop_map(|(bytes, issued_at, first_tx, t2, tf, last, inflight, prev)| {
                ResponseObs {
                    bytes,
                    issued_at,
                    first_tx,
                    t_second_last_ack: t2,
                    t_full_ack: tf,
                    last_packet_bytes: last,
                    bytes_in_flight_at_write: inflight,
                    prev_unsent_at_write: prev,
                }
            })
    }

    proptest! {
        /// The instrumentation and estimator are total over arbitrary
        /// (possibly nonsensical) observation streams: no panics, and any
        /// verdict stays in range. This is the "hostile telemetry" fuzz —
        /// production instrumentation sees clock skew, truncated records,
        /// and reordered writes.
        #[test]
        fn estimator_never_panics_on_arbitrary_observations(
            responses in prop::collection::vec(arb_response(), 0..20),
            min_rtt in prop::option::of(1u64..10_000_000_000u64),
        ) {
            let txns = assemble_transactions(&responses);
            prop_assert!(txns.len() <= responses.len().max(1));
            for t in &txns {
                prop_assert!(t.bytes_measured <= t.bytes_full);
            }
            let session = SessionObs {
                responses,
                min_rtt,
                http: HttpVersion::H2,
                duration: 1,
            };
            if let Some(v) = session_hdratio(&session, HD_GOODPUT_BPS) {
                prop_assert!(v.achieved <= v.tested);
                if let Some(h) = v.hdratio() {
                    prop_assert!((0.0..=1.0).contains(&h));
                }
            }
        }
    }
}
