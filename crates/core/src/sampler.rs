//! The workspace's one stateless mixer.
//!
//! Every seeded draw that must not depend on call order — a session id
//! from (seed, prefix, window, index), a route pin, a dynamics episode, a
//! catchment, a retry jitter — hashes its inputs through [`splitmix64`]
//! rather than advancing an RNG. Sampling *which* sessions to measure
//! (paper §2.2.2) is not modelled: the study runner draws a fixed number of
//! sessions per group and window.

/// SplitMix64 finalizer: a fast, well-mixed 64-bit hash. The one mixer
/// every seeded, stateless draw in the workspace goes through.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}
