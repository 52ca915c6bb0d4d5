//! Checkpoint/resume for the exact study: a journal of merged fragments.
//!
//! [`run_study_checkpointed`] is [`run_study_supervised`] over a
//! [`ColumnarSink`] with two things hung on its in-order merge
//! (DESIGN.md §10):
//!
//! - each fragment, just before it merges, is written to
//!   `shard-<prefix>.bin` ([`ColumnarShard::encode`]: the cells its
//!   worker closed — a row a cell, the preferred sessions' Rice-coded
//!   MinRTTs and the HDratio tally), and then
//! - `checkpoint.json` — format version, the study's fingerprint, the
//!   merge cursor and the [`StudyReport`], closed by a checksum member —
//!   is rewritten to say so.
//!
//! Both go through [`atomic_write`], manifest last, so the manifest never
//! names a fragment that is not wholly on disk; a shard file beyond the
//! cursor (a crash between the two writes) is ignored and overwritten. A
//! rerun pointed at the same directory decodes the journalled shards into
//! the sink in prefix order and hands the loop the cursor: the sink is
//! then exactly what it was when prefix `cursor - 1` merged, so the final
//! output is bit-identical to an uninterrupted run at any parallelism.
//!
//! A checkpoint is one study's transient, not an archive: a manifest of
//! another format version is refused ([`SupervisorError::Mismatch`]), not
//! migrated. Everything read back is outside input — a file that is
//! missing, cut, flipped or forged is a [`SupervisorError::Checkpoint`]
//! naming it, never a panic and never a different study.
//!
//! [`run_study_supervised`]: crate::run_study_supervised

use crate::runner::StudyConfig;
use crate::supervisor::{drive, StudyReport, SupervisorConfig, SupervisorError};
use crate::topology::{World, WorldConfig};
use edgeperf_analysis::segment::{atomic_write, checksum};
use edgeperf_analysis::{ColumnarShard, ColumnarSink, RecordSink};
use edgeperf_obs::Metrics;
use edgeperf_workload::WorkloadConfig;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

const CHECKPOINT_VERSION: u32 = 2;

/// What opens the checksum member [`seal`] closes a manifest with.
const CHECKSUM_MEMBER: &str = ",\"checksum\":\"";

#[derive(Serialize, Deserialize)]
struct Manifest {
    version: u32,
    /// (name, value) pairs that must match on resume: the study's shape,
    /// then the world's.
    study: Vec<(String, String)>,
    /// Prefixes below this are merged (their shards journalled) or
    /// quarantined.
    cursor: usize,
    report: StudyReport,
}

fn failed(path: &Path, why: impl std::fmt::Display) -> SupervisorError {
    SupervisorError::Checkpoint { path: path.to_path_buf(), message: why.to_string() }
}

fn mismatch(field: &str, expected: impl ToString, found: impl ToString) -> SupervisorError {
    let (expected, found) = (expected.to_string(), found.to_string());
    SupervisorError::Mismatch { field: field.to_string(), expected, found }
}

fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("checkpoint.json")
}

fn shard_path(dir: &Path, prefix: usize) -> PathBuf {
    dir.join(format!("shard-{prefix:06}.bin"))
}

fn fingerprint(world: &World, cfg: &StudyConfig) -> Vec<(String, String)> {
    // No `..`: a field added later does not compile until it is
    // fingerprinted or named here beside `parallelism`, the one field
    // that leaves the output unchanged (a resume may use another count).
    let StudyConfig { seed, days, sessions_per_group_window, parallelism: _, workload } = *cfg;
    let WorkloadConfig { h2_fraction, api_median_bytes, media_median_bytes } = workload;
    let WorldConfig { seed: world_seed, country_fraction, max_ases_per_country } = world.config;
    let pairs = [
        ("seed", seed.to_string()),
        ("days", days.to_string()),
        ("sessions_per_group_window", sessions_per_group_window.to_string()),
        ("h2_fraction", h2_fraction.to_string()),
        ("api_median_bytes", api_median_bytes.to_string()),
        ("media_median_bytes", media_median_bytes.to_string()),
        ("world_seed", world_seed.to_string()),
        ("country_fraction", country_fraction.to_string()),
        ("max_ases_per_country", max_ases_per_country.to_string()),
        ("n_prefixes", world.prefixes.len().to_string()),
    ];
    pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
}

/// `json` (an object) with its checksum appended as a last member.
fn seal(mut json: String) -> String {
    let sum = checksum(json.as_bytes());
    json.pop();
    let _ = write!(json, "{CHECKSUM_MEMBER}{sum}\"}}");
    json
}

/// Read and verify `dir`'s manifest; `None` when there is none.
fn read_manifest(dir: &Path) -> Result<Option<Manifest>, SupervisorError> {
    let path = manifest_path(dir);
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(failed(&path, e)),
    };
    let sealed = text.strip_suffix("\"}").and_then(|t| t.rsplit_once(CHECKSUM_MEMBER));
    let Some((head, sum)) = sealed else {
        // Version 1 was not sealed: let such a file say what it is.
        let version = serde_json::parse(&text).ok().and_then(|v| match v.get("version") {
            Some(serde_json::Value::Num(n)) => Some(*n),
            _ => None,
        });
        return Err(match version {
            Some(v) if v != f64::from(CHECKPOINT_VERSION) => {
                mismatch("version", CHECKPOINT_VERSION, v)
            }
            _ => failed(&path, "not closed by a checksum"),
        });
    };
    // Not `format!`: its string would grow to twice the manifest.
    let body = [head, "}"].concat();
    if sum.parse() != Ok(checksum(body.as_bytes())) {
        return Err(failed(&path, "checksum mismatch"));
    }
    let manifest: Manifest = serde_json::from_str(&body).map_err(|e| failed(&path, e))?;
    if manifest.version != CHECKPOINT_VERSION {
        return Err(mismatch("version", CHECKPOINT_VERSION, manifest.version));
    }
    Ok(Some(manifest))
}

/// [`run_study_supervised`](crate::run_study_supervised) into the exact
/// sink, journalled under `dir` (see the module docs). If `dir` already
/// holds a checkpoint of this study — the same [`StudyConfig`] but for
/// its parallelism, over a world generated from the same
/// [`WorldConfig`] — the run resumes after its last merged prefix;
/// parallelism is free to differ.
///
/// # Errors
///
/// Checkpoint I/O and verification failures, a checkpoint of a different
/// study or format version, and the fault plan's injected crash.
pub fn run_study_checkpointed(
    world: &World,
    cfg: &StudyConfig,
    sup: &SupervisorConfig,
    dir: &Path,
    sink: &mut ColumnarSink,
    metrics: &Metrics,
) -> Result<StudyReport, SupervisorError> {
    let n = world.prefixes.len();
    let study = fingerprint(world, cfg);
    std::fs::create_dir_all(dir).map_err(|e| failed(dir, e))?;

    let mut resumed = None;
    if let Some(Manifest { study: stored, cursor, mut report, .. }) = read_manifest(dir)? {
        for (name, expected) in &study {
            let found = stored.iter().find(|(k, _)| k == name).map_or("", |(_, v)| v.as_str());
            if found != expected {
                return Err(mismatch(name, expected, found));
            }
        }
        if cursor > n || report.quarantined.iter().any(|q| q.prefix >= n) {
            return Err(failed(&manifest_path(dir), "a prefix index beyond the study's last"));
        }
        let _ck = metrics.span("supervisor.checkpoint");
        for prefix in 0..cursor {
            if report.quarantined.iter().any(|q| q.prefix == prefix) {
                continue;
            }
            let path = shard_path(dir, prefix);
            let image = std::fs::read(&path).map_err(|e| failed(&path, e))?;
            sink.merge_shard(sink.decode_shard(&image).map_err(|e| failed(&path, e))?);
        }
        report.n_prefixes = n;
        report.resumed_at = Some(cursor);
        metrics.gauge("supervisor.resumed_at").set(cursor as f64);
        resumed = Some((cursor, report));
    }

    let (mut image, mut written) = (Vec::new(), 0);
    let mut journal = |cursor: usize,
                       merging: Option<(usize, &ColumnarShard)>,
                       report: &StudyReport|
     -> Result<(), SupervisorError> {
        let _ck = metrics.span("supervisor.checkpoint");
        if let Some((prefix, fragment)) = merging {
            image.clear();
            fragment.encode(&mut image);
            let path = shard_path(dir, prefix);
            atomic_write(&path, &image).map_err(|e| failed(&path, e))?;
        }
        // The manifest's report counts the checkpoint it is.
        written += 1;
        let report = StudyReport { checkpoints_written: written, ..report.clone() };
        let manifest =
            Manifest { version: CHECKPOINT_VERSION, study: study.clone(), cursor, report };
        let text = serde_json::to_string(&manifest).expect("a manifest serializes");
        let path = manifest_path(dir);
        atomic_write(&path, seal(text).as_bytes()).map_err(|e| failed(&path, e))?;
        metrics.counter("supervisor.checkpoints").inc();
        Ok(())
    };
    let report = drive(world, cfg, sup, sink, metrics, resumed, &mut journal)?;
    Ok(StudyReport { checkpoints_written: written, ..report })
}
