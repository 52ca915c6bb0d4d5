//! Golden bits for [`TDigest`]: how a digest buffers its samples is free
//! to change, what it answers is not. Every value below was recorded at
//! the commit before the insert buffer became content-sized (an eager
//! `Vec<Centroid>` of 512 slots), through the public API only.

use edgeperf_stats::TDigest;

/// SplitMix64, the workspace's usual seeded stream.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A MinRTT-like sample on a 0.25 ms grid: ties are common, so the order
/// in which equal means reach the sort is part of what is pinned.
fn sample(state: &mut u64) -> f64 {
    5.0 + (next(state) % 1_200) as f64 * 0.25
}

/// A weight that is never 1.
fn weight(state: &mut u64) -> f64 {
    1.5 + (next(state) % 7) as f64 * 0.5
}

/// `[FxHash of to_parts(), quantile(0.5) bits, count() bits]`.
fn fingerprint(d: &TDigest) -> [u64; 3] {
    let parts = d.to_parts();
    let mut h = 0u64;
    let mut mix = |word: u64| h = (h.rotate_left(5) ^ word).wrapping_mul(0x51_7C_C1_B7_27_22_0A_95);
    mix(parts.compression.to_bits());
    mix(parts.min.to_bits());
    mix(parts.max.to_bits());
    mix(parts.compressions);
    mix(parts.centroids.len() as u64);
    for c in &parts.centroids {
        mix(c.mean.to_bits());
        mix(c.weight.to_bits());
    }
    [h, d.quantile(0.5).to_bits(), d.count().to_bits()]
}

/// The digest as it stands (dirty buffer and all), then explicitly flushed.
fn dirty_and_flushed(mut d: TDigest) -> [[u64; 3]; 2] {
    let dirty = fingerprint(&d);
    d.flush();
    [dirty, fingerprint(&d)]
}

fn unit_inserts(n: usize) -> TDigest {
    let mut state = n as u64;
    let mut d = TDigest::new(100.0);
    for _ in 0..n {
        d.insert(sample(&mut state));
    }
    d
}

/// Unit inserts, weighted inserts and explicit flushes taking turns.
fn interleaved() -> TDigest {
    let mut state = 0xED6E;
    let mut d = TDigest::new(100.0);
    for i in 0..3_000 {
        match next(&mut state) % 8 {
            0..=4 => d.insert(sample(&mut state)),
            5 | 6 => {
                let (v, w) = (sample(&mut state), weight(&mut state));
                d.insert_weighted(v, w);
            }
            _ if i % 97 == 0 => d.flush(),
            _ => d.insert(sample(&mut state)),
        }
    }
    d
}

/// A digest with a dirty buffer (weighted samples among it) merged into
/// another digest with a dirty buffer.
fn dirty_merge() -> TDigest {
    let mut state = 0x3E46E;
    let mut a = TDigest::new(100.0);
    for _ in 0..700 {
        a.insert(sample(&mut state));
    }
    let mut b = TDigest::new(100.0);
    for i in 0..900 {
        if i % 5 == 0 {
            let (v, w) = (sample(&mut state), weight(&mut state));
            b.insert_weighted(v, w);
        } else {
            b.insert(sample(&mut state));
        }
    }
    a.merge(&b);
    a
}

fn observed() -> Vec<(&'static str, [[u64; 3]; 2])> {
    vec![
        ("unit_4", dirty_and_flushed(unit_inserts(4))),
        ("unit_5", dirty_and_flushed(unit_inserts(5))),
        ("unit_30", dirty_and_flushed(unit_inserts(30))),
        ("unit_511", dirty_and_flushed(unit_inserts(511))),
        ("unit_512", dirty_and_flushed(unit_inserts(512))),
        ("unit_513", dirty_and_flushed(unit_inserts(513))),
        ("unit_50000", dirty_and_flushed(unit_inserts(50_000))),
        ("interleaved", dirty_and_flushed(interleaved())),
        ("dirty_merge", dirty_and_flushed(dirty_merge())),
    ]
}

const GOLDEN: &[(&str, [[u64; 3]; 2])] = &[
    (
        "unit_4",
        [
            [0xb50b9765d3d7d990, 0x4063c40000000000, 0x4010000000000000],
            [0xbc667523a4e03360, 0x4063c40000000000, 0x4010000000000000],
        ],
    ),
    (
        "unit_5",
        [
            [0xef8411c48bb1122b, 0x4065480000000000, 0x4014000000000000],
            [0x7ab390e014964357, 0x4065480000000000, 0x4014000000000000],
        ],
    ),
    (
        "unit_30",
        [
            [0x181f9284293dd85b, 0x405f780000000000, 0x403e000000000000],
            [0x0bb1d8daed4d3a13, 0x405f780000000000, 0x403e000000000000],
        ],
    ),
    (
        "unit_511",
        [
            [0x62751997c6fea2be, 0x40637ff800000000, 0x407ff00000000000],
            [0xf84dd73b3025276d, 0x40637ff800000000, 0x407ff00000000000],
        ],
    ),
    (
        "unit_512",
        [
            [0xa4a6641cbf09cda1, 0x40636b6000000000, 0x4080000000000000],
            [0xa4a6641cbf09cda1, 0x40636b6000000000, 0x4080000000000000],
        ],
    ),
    (
        "unit_513",
        [
            [0x41d95bc1825b6373, 0x40622e17ffffffff, 0x4080080000000000],
            [0xce70a9e56cc24eef, 0x40622e17ffffffff, 0x4080080000000000],
        ],
    ),
    (
        "unit_50000",
        [
            [0xd609cd623648701c, 0x40633910c861e303, 0x40e86a0000000000],
            [0xe1f537856057398c, 0x40633910c861e303, 0x40e86a0000000000],
        ],
    ),
    (
        "interleaved",
        [
            [0x46ce7ec73d2eb127, 0x406323bf15bf629d, 0x40b1958000000000],
            [0x4c4bea0606ad3c5f, 0x406323bf15bf629d, 0x40b1958000000000],
        ],
    ),
    (
        "dirty_merge",
        [
            [0xb038c38ba76ae3f7, 0x4062cc2da2f7b8cb, 0x409ed40000000000],
            [0x7517945df66c84f2, 0x4062cc2da2f7b8cb, 0x409ed40000000000],
        ],
    ),
];

#[test]
fn digests_are_bit_identical_to_the_recorded_parent() {
    let observed = observed();
    assert!(
        observed == GOLDEN,
        "t-digest bits moved; observed:\n{}",
        observed
            .iter()
            .map(|(name, v)| format!("    ({name:?}, {v:#018x?}),\n"))
            .collect::<String>()
    );
}
