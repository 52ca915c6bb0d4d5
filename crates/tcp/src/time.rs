//! Virtual time for the deterministic simulation stack.
//!
//! All simulation time is integer nanoseconds (`u64`), which removes
//! floating-point drift from event ordering and makes runs bit-for-bit
//! reproducible. Rates convert at the boundary: bits/second in the public
//! API, bytes+nanoseconds internally.

/// Virtual time or duration in nanoseconds.
pub type Nanos = u64;

/// One millisecond in [`Nanos`].
pub const MILLISECOND: Nanos = 1_000_000;
/// One second in [`Nanos`].
pub const SECOND: Nanos = 1_000_000_000;

/// Transmission time of `bytes` at `rate_bps` bits per second.
///
/// # Panics
/// Panics if `rate_bps` is zero.
pub fn transmission_time(bytes: u64, rate_bps: u64) -> Nanos {
    assert!(rate_bps > 0, "zero link rate");
    // bytes * 8 * 1e9 / rate, computed in u128 to avoid overflow.
    ((bytes as u128 * 8 * SECOND as u128) / rate_bps as u128) as Nanos
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transmission_time_examples() {
        // 1500 B at 3 Mbps = 4 ms.
        assert_eq!(transmission_time(1500, 3_000_000), 4 * MILLISECOND);
        // 1 B at 8 bps = 1 s.
        assert_eq!(transmission_time(1, 8), SECOND);
    }

    #[test]
    fn transmission_time_no_overflow_at_scale() {
        // 10 GB at 1 kbps — enormous duration but must not overflow u128 math.
        let t = transmission_time(10_000_000_000, 1_000);
        assert_eq!(t, 80_000_000 * SECOND);
    }

    #[test]
    fn transmission_time_at_10_mbps() {
        // 125 kB at 10 Mbps = 100 ms.
        assert_eq!(transmission_time(125_000, 10_000_000), 100 * MILLISECOND);
    }
}
