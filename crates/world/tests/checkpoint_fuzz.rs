//! The checkpoint journal against hostile bytes (ROADMAP: "every decoder
//! that reads bytes off disk is fuzzed"). Whatever a rerun finds where a
//! journalled shard or `checkpoint.json` should be — arbitrary bytes, the
//! real file cut at any offset or with any one bit flipped — the answer is
//! the typed `SupervisorError::Checkpoint` naming the file: never a panic,
//! never a study resumed from something else, and never an allocation
//! sized by anything but bytes that are really there. Runs under the
//! counting allocator of `crates/analysis/tests/counting/`, hence one
//! `#[test]`; same shape as `crates/analysis/tests/segment_fuzz.rs`.

#[path = "../../analysis/tests/counting/mod.rs"]
mod counting;

use counting::{count_every_thread, largest_request};
use edgeperf_analysis::segment::checksum;
use edgeperf_analysis::{atomic_write, ColumnarSink, RecordSink};
use edgeperf_obs::Metrics;
use edgeperf_world::{
    run_study_checkpointed, StudyConfig, SupervisorConfig, SupervisorError, World, WorldConfig,
};
use std::path::Path;

/// The most a reader may ask the allocator for at once, given a file of
/// `len` bytes: a copy of it, or what its records decode to in memory (a
/// row of 49 bytes or more in a segment is 64 there), and an error
/// message.
fn allowance(len: usize) -> usize {
    2 * len + 1024
}

#[test]
fn a_damaged_journal_is_refused_without_a_panic_or_an_oversized_allocation() {
    // The study allocates on worker threads what this one frees.
    count_every_thread();
    let world =
        World::generate(WorldConfig { seed: 42, country_fraction: 0.12, ..Default::default() });
    let cfg = StudyConfig {
        seed: 11,
        days: 1,
        sessions_per_group_window: 1,
        parallelism: 1,
        ..Default::default()
    };
    let dir = &std::env::temp_dir().join(format!("edgeperf-ckfuzz-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(dir);
    let resume = || {
        let mut sink = ColumnarSink::new(cfg.n_windows() as usize);
        let sup = SupervisorConfig::default();
        run_study_checkpointed(&world, &cfg, &sup, dir, &mut sink, &Metrics::disabled())
            .map(|report| (sink.stats().records, report.resumed_at))
    };
    let (records, resumed_at) = resume().expect("the study runs");
    assert_eq!(resumed_at, None);
    assert_eq!(resume().expect("and reads back"), (records, Some(world.prefixes.len())));

    // `bytes` where `file` should be must be refused, naming the file,
    // within the allocation allowance of the largest file the resume reads:
    // a damaged shard is read after the whole manifest, a damaged manifest
    // alone.
    let manifest = dir.join("checkpoint.json");
    let manifest_len = std::fs::read(&manifest).expect("journalled").len();
    let refused = |file: &Path, bytes: &[u8], what: &str| {
        atomic_write(file, bytes).expect("scratch file");
        let (result, largest) = largest_request(resume);
        match result {
            Err(SupervisorError::Checkpoint { path, .. }) => assert_eq!(path, file, "{what}"),
            Err(other) => panic!("{what}: refused, but as: {other}"),
            Ok(_) => panic!("{what}: resumed"),
        }
        let read = if file == manifest { bytes.len() } else { bytes.len().max(manifest_len) };
        assert!(largest <= allowance(read), "{what}: asked for {largest} B");
    };
    // The shard decoder alone, which costs no file: every bit gets this.
    let sink = ColumnarSink::new(cfg.n_windows() as usize);
    let undecodable = |bytes: &[u8], what: &str| {
        let (decoded, largest) = largest_request(|| sink.decode_shard(bytes));
        let err = decoded.err().unwrap_or_else(|| panic!("{what}: decoded"));
        assert_eq!(err.reason(), "segment", "{what}: {err}");
        assert!(largest <= allowance(bytes.len()), "{what}: asked for {largest} B");
    };

    let mut state = 0x5eed_u64;
    let mut next = move || {
        state =
            state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) as usize
    };
    // The first shard a rerun reads, and the manifest it reads before it.
    for name in ["shard-000000.bin", "checkpoint.json"] {
        let file = &dir.join(name);
        let image = std::fs::read(file).expect("journalled");
        let is_shard = name.ends_with(".bin");
        assert!(image.len() > 200 && image.len() < 16_000, "{name}: {} B", image.len());
        if is_shard {
            assert!(sink.decode_shard(&image).is_ok());
        }

        // Cut anywhere, and any one bit, anywhere. A rerun costs a file
        // each: it takes every cut and every bit of the manifest, and of a
        // shard every eighth cut, the last 32, and one bit a byte.
        for len in 0..image.len() {
            let what = format!("{name} cut to {len} bytes");
            if is_shard {
                undecodable(&image[..len], &what);
            }
            if !is_shard || len % 8 == 0 || len + 32 > image.len() {
                refused(file, &image[..len], &what);
            }
        }
        let mut bad = image.clone();
        for bit in 0..image.len() * 8 {
            let (byte, mask) = (bit / 8, 1 << (bit % 8));
            bad[byte] ^= mask;
            let what = format!("{name} with bit {bit} flipped");
            if is_shard {
                undecodable(&bad, &what);
            }
            if !is_shard || bit % 8 == byte % 8 {
                refused(file, &bad, &what);
            }
            bad[byte] ^= mask;
        }
        // And bytes glued on the end.
        bad.extend_from_slice(&[0; 16]);
        refused(file, &bad, &format!("{name} with 16 bytes appended"));

        if is_shard {
            // A shard's header counts forged and the checksum recomputed:
            // the length arithmetic, not the checksum, refuses them, and a
            // version-1 or version-2 image is refused as one.
            let forged = |at: usize, value: &[u8]| {
                let mut bad = image.clone();
                bad[at..at + value.len()].copy_from_slice(value);
                let body = bad.len() - 8;
                let sum = checksum(&bad[..body]).to_le_bytes();
                bad[body..].copy_from_slice(&sum);
                bad
            };
            // Segment bytes, kept words, continents, entries.
            for (at, width) in [(6, 4), (10, 4), (14, 2), (16, 4)] {
                let mut field = [0; 8];
                field[..width].copy_from_slice(&image[at..at + width]);
                let count = u64::from_le_bytes(field);
                let most = u64::MAX >> (64 - 8 * width);
                for value in [0, 1, count.wrapping_sub(1) & most, (count + 1) & most, most] {
                    if value == count {
                        continue;
                    }
                    let bad = forged(at, &value.to_le_bytes()[..width]);
                    let what = format!("{name} with the count at byte {at} forged to {value}");
                    undecodable(&bad, &what);
                    if value == most {
                        refused(file, &bad, &what);
                    }
                }
            }
            for version in [1, 2] {
                let old = forged(4, &[version]);
                let err = sink.decode_shard(&old).expect_err("an older image is refused");
                let want = format!("unsupported shard version {version}");
                assert!(err.to_string().contains(&want), "{err}");
                refused(file, &old, &format!("a version-{version} shard"));
            }
        }

        // Arbitrary bytes, bare and behind a plausible opening.
        for round in 0..1_000 {
            let mut bytes: Vec<u8> = (0..next() % 300).map(|_| next() as u8).collect();
            let opening: &[u8] = if is_shard { b"EPSH\x03" } else { b"{\"version\":2," };
            if round % 2 == 1 && bytes.len() >= opening.len() {
                bytes[..opening.len()].copy_from_slice(opening);
            }
            let what = format!("arbitrary bytes for {name}, round {round}");
            if is_shard {
                undecodable(&bytes, &what);
            }
            if round % 4 < 2 {
                refused(file, &bytes, &what);
            }
        }

        // The real file back in place, the journal is whole again.
        atomic_write(file, &image).expect("restore");
        assert_eq!(resume().expect("restored"), (records, Some(world.prefixes.len())));
    }
    std::fs::remove_dir_all(dir).expect("cleanup");
}
