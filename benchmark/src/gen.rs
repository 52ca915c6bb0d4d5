//! Seeded input generation: one *lap* is one 15-minute window of
//! [`LiveRecord`]s, replayed lap after lap with the timestamps shifted by
//! whole windows.
//!
//! Because every lap is the same records shifted by a multiple of the
//! window length, one serial pass over a single lap ([`crate::oracle`])
//! predicts the cells of every full window the server ever reports.
//!
//! The generator carries its own SplitMix64 so that the inputs of a seed
//! never change when the repository's `rand` stand-ins do.

use edgeperf::analysis::GroupKey;
use edgeperf::live::LiveRecord;
use edgeperf::routing::{PopId, Prefix, Relationship};

/// Window length every workload runs the server with (the paper's 15 min).
pub const WINDOW_MS: f64 = 900_000.0;

/// One records-per-window × groups operating point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Label used in result files.
    pub name: &'static str,
    /// Distinct user groups, chosen uniformly per record.
    pub groups: u32,
    /// Records in one lap (= one window).
    pub records_per_window: u32,
}

/// 64 groups, 2 M records per window: ~28,000 records per rank-0 cell. The
/// shape of every committed `BENCH_live.json` number; cells stay hot.
pub const DENSE: Shape = Shape { name: "dense", groups: 64, records_per_window: 2_000_000 };

/// 4,096 groups, 125 k records per window: ~28 per rank-0 cell and ~3 per
/// rank-1 cell, the paper's minimum-sample regime (`min_samples = 30`).
pub const WIDE: Shape = Shape { name: "wide", groups: 4_096, records_per_window: 125_000 };

/// SplitMix64: the standard 64-bit mixer, one multiply-xorshift chain per
/// draw.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias at these `n` is below
    /// 2⁻⁴⁰ and irrelevant to a load shape.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Group number `g` of a shape: a unique /24 per group (so `pop=` +
/// `prefix=` selects exactly one group), spread over 4 PoPs and 50
/// countries.
pub fn group(g: u32) -> GroupKey {
    let country = u16::try_from((g / 4) % 50).expect("below 50");
    GroupKey {
        pop: PopId(u16::try_from(g % 4).expect("below 4")),
        prefix: Prefix::new(0x0A00_0000 + (g << 8), 24),
        country,
        continent: u8::try_from(country % 6).expect("below 6"),
    }
}

/// One window of records in send order.
pub struct Lap {
    pub shape: Shape,
    pub records: Vec<LiveRecord>,
}

impl Lap {
    /// Generate the lap of `shape` for `seed`. Timestamps are spread evenly
    /// through the window; group choice is uniform; 1 in 11 records rides
    /// the rank-1 (transit) route; 1 in 5 carries no HDratio.
    pub fn generate(shape: Shape, seed: u64) -> Lap {
        let mut rng =
            SplitMix64::new(seed ^ u64::from(shape.groups).wrapping_mul(0xA24B_AED4_963E_E407));
        let n = shape.records_per_window;
        let step = WINDOW_MS / f64::from(n);
        let mut records = Vec::with_capacity(n as usize);
        for i in 0..n {
            let g = u32::try_from(rng.below(u64::from(shape.groups))).expect("below groups");
            let alternate = rng.below(11) == 0;
            let u = rng.next_f64();
            let v = rng.next_f64();
            records.push(LiveRecord {
                ts_ms: f64::from(i) * step,
                group: group(g),
                route_rank: u8::from(alternate),
                relationship: match (alternate, g % 2) {
                    (true, _) => Relationship::Transit,
                    (false, 0) => Relationship::PrivatePeer,
                    (false, _) => Relationship::PublicPeer,
                },
                longer_path: alternate,
                more_prepended: alternate && g % 4 == 0,
                min_rtt_ms: 15.0
                    + f64::from(g % 97)
                    + 40.0 * u * u
                    + if alternate { 6.0 } else { 0.0 },
                hdratio: (rng.below(5) != 0).then_some((1.0 - v * v).clamp(0.0, 1.0)),
                bytes: 2_000 + rng.below(1_000_000),
            });
        }
        Lap { shape, records }
    }

    /// Records in one lap.
    pub fn len(&self) -> u64 {
        self.records.len() as u64
    }

    /// Record number `i` of the endless replay: record `i mod len` of the
    /// lap, shifted `i div len` windows forward.
    pub fn record_at(&self, i: u64) -> LiveRecord {
        let n = self.len();
        let mut rec = self.records[(i % n) as usize];
        rec.ts_ms += (i / n) as f64 * WINDOW_MS;
        rec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgeperf::live::encode_frame;

    fn small(shape: Shape) -> Shape {
        Shape { records_per_window: 5_000, ..shape }
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let wire = |seed| -> Vec<u8> {
            Lap::generate(small(WIDE), seed).records.iter().flat_map(encode_frame).collect()
        };
        assert_eq!(wire(7), wire(7));
        assert_ne!(wire(7), wire(8));
    }

    #[test]
    fn lap_stays_inside_its_window_and_replays_shifted() {
        let lap = Lap::generate(small(DENSE), 3);
        assert!(lap.records.iter().all(|r| (0.0..WINDOW_MS).contains(&r.ts_ms)));
        assert!(lap.records.windows(2).all(|w| w[0].ts_ms < w[1].ts_ms));
        let n = lap.len();
        for i in [0, 1, n - 1] {
            let shifted = lap.record_at(3 * n + i);
            assert_eq!((shifted.ts_ms / WINDOW_MS) as u64, 3);
            assert_eq!(shifted.group, lap.records[i as usize].group);
            assert_eq!(shifted.min_rtt_ms.to_bits(), lap.records[i as usize].min_rtt_ms.to_bits());
        }
    }

    #[test]
    fn shape_fractions_are_as_documented() {
        let lap = Lap::generate(Shape { records_per_window: 110_000, ..WIDE }, 11);
        let n = lap.len() as f64;
        let alternate = lap.records.iter().filter(|r| r.route_rank == 1).count() as f64;
        let untested = lap.records.iter().filter(|r| r.hdratio.is_none()).count() as f64;
        assert!((alternate / n - 1.0 / 11.0).abs() < 0.005, "rank-1 share {}", alternate / n);
        assert!((untested / n - 0.2).abs() < 0.01, "untested share {}", untested / n);
        let distinct: std::collections::HashSet<_> = lap.records.iter().map(|r| r.group).collect();
        assert_eq!(distinct.len(), WIDE.groups as usize);
    }

    #[test]
    fn groups_are_selected_by_pop_and_prefix() {
        let keys: std::collections::HashSet<_> =
            (0..WIDE.groups).map(|g| (group(g).pop, group(g).prefix)).collect();
        assert_eq!(keys.len(), WIDE.groups as usize);
    }
}
