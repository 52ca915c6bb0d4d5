//! Sink persistence for checkpoint/resume.
//!
//! The study supervisor periodically snapshots its sink to disk so a
//! killed study can restart without recomputing merged prefixes. A sink
//! opts in by implementing [`PersistentSink`]: flatten the complete sink
//! state into a [`Value`] tree (encoded by the caller with the in-repo
//! `serde_json`) and rebuild it bit-for-bit from that tree.
//!
//! Round-trip contracts, each proven by tests here:
//!
//! - `Vec<SessionRecord>` — exact: every field of every record survives,
//!   including the `f64` bit patterns (the JSON layer prints shortest
//!   round-trip representations). This is the sink the supervised study
//!   path uses, and the basis of its bit-identical-resume guarantee.
//! - [`StreamingDataset`] — exact *state* round-trip: cells are stored as
//!   compressed digest centroids ([`TDigest::to_parts`]), so
//!   `load(save(ds))` equals `ds` post-flush — the same state every query
//!   already observes. Note the digest's *future* is path-dependent
//!   (compression points shift), so resuming a streaming study is
//!   statistically equivalent, not bit-identical; see DESIGN.md §10.
//!
//! [`TDigest::to_parts`]: edgeperf_stats::TDigest::to_parts

use crate::dataset::GroupData;
use crate::record::{GroupKey, SessionRecord};
use crate::sink::{RecordSink, StreamingCell, StreamingDataset};
use crate::streaming::StreamingAggregation;
use edgeperf_routing::{PopId, Prefix, Relationship};
use edgeperf_stats::{Centroid, DigestParts};
use serde::{DeError, Value};

/// A [`RecordSink`] whose complete state can be written to and rebuilt
/// from a JSON value tree.
pub trait PersistentSink: RecordSink {
    /// Stable label stored in the checkpoint and checked on load, so a
    /// checkpoint written by one sink kind cannot restore another.
    fn kind() -> &'static str;

    /// Flatten the sink into a JSON value tree.
    fn save(&self) -> Value;

    /// Rebuild a sink from [`save`] output.
    ///
    /// [`save`]: PersistentSink::save
    fn load(value: &Value) -> Result<Self, DeError>
    where
        Self: Sized;
}

fn num(v: &Value, what: &str) -> Result<f64, DeError> {
    match v {
        Value::Num(n) => Ok(*n),
        other => Err(DeError::expected(what, other)),
    }
}

fn int(v: &Value, what: &str) -> Result<u64, DeError> {
    let n = num(v, what)?;
    if n < 0.0 || n.fract() != 0.0 {
        return Err(DeError(format!("{what}: expected non-negative integer, got {n}")));
    }
    Ok(n as u64)
}

fn boolean(v: &Value, what: &str) -> Result<bool, DeError> {
    match v {
        Value::Bool(b) => Ok(*b),
        other => Err(DeError::expected(what, other)),
    }
}

fn array<'v>(v: &'v Value, what: &str) -> Result<&'v [Value], DeError> {
    match v {
        Value::Array(items) => Ok(items),
        other => Err(DeError::expected(what, other)),
    }
}

fn field<'v>(v: &'v Value, name: &str) -> Result<&'v Value, DeError> {
    v.get(name).ok_or_else(|| DeError::missing(name))
}

fn rel_code(r: Relationship) -> f64 {
    match r {
        Relationship::PrivatePeer => 0.0,
        Relationship::PublicPeer => 1.0,
        Relationship::Transit => 2.0,
    }
}

fn rel_from_code(code: u64) -> Result<Relationship, DeError> {
    match code {
        0 => Ok(Relationship::PrivatePeer),
        1 => Ok(Relationship::PublicPeer),
        2 => Ok(Relationship::Transit),
        other => Err(DeError(format!("unknown relationship code {other}"))),
    }
}

fn key_value(k: &GroupKey) -> Value {
    Value::Array(vec![
        Value::Num(k.pop.0 as f64),
        Value::Num(k.prefix.base as f64),
        Value::Num(k.prefix.len as f64),
        Value::Num(k.country as f64),
        Value::Num(k.continent as f64),
    ])
}

fn key_from_value(v: &Value) -> Result<GroupKey, DeError> {
    let items = array(v, "group key")?;
    if items.len() != 5 {
        return Err(DeError(format!("group key: expected 5 fields, got {}", items.len())));
    }
    Ok(GroupKey {
        pop: PopId(int(&items[0], "pop")? as u16),
        prefix: Prefix::new(
            int(&items[1], "prefix.base")? as u32,
            int(&items[2], "prefix.len")? as u8,
        ),
        country: int(&items[3], "country")? as u16,
        continent: int(&items[4], "continent")? as u8,
    })
}

/// Exact record persistence, stored column-wise: one array per field,
/// index-aligned. `f64` columns round-trip bit-exactly through the JSON
/// layer's shortest-repr printing; `hdratio` uses `null` for untested
/// sessions.
impl PersistentSink for Vec<SessionRecord> {
    fn kind() -> &'static str {
        "records"
    }

    fn save(&self) -> Value {
        let col = |f: &dyn Fn(&SessionRecord) -> Value| Value::Array(self.iter().map(f).collect());
        Value::Object(vec![
            ("pop".into(), col(&|r| Value::Num(r.group.pop.0 as f64))),
            ("base".into(), col(&|r| Value::Num(r.group.prefix.base as f64))),
            ("plen".into(), col(&|r| Value::Num(r.group.prefix.len as f64))),
            ("country".into(), col(&|r| Value::Num(r.group.country as f64))),
            ("continent".into(), col(&|r| Value::Num(r.group.continent as f64))),
            ("window".into(), col(&|r| Value::Num(r.window as f64))),
            ("rank".into(), col(&|r| Value::Num(r.route_rank as f64))),
            ("rel".into(), col(&|r| Value::Num(rel_code(r.relationship)))),
            ("longer".into(), col(&|r| Value::Bool(r.longer_path))),
            ("prepended".into(), col(&|r| Value::Bool(r.more_prepended))),
            ("min_rtt".into(), col(&|r| Value::Num(r.min_rtt_ms))),
            ("hdratio".into(), col(&|r| r.hdratio.map_or(Value::Null, Value::Num))),
            ("bytes".into(), col(&|r| Value::Num(r.bytes as f64))),
        ])
    }

    fn load(value: &Value) -> Result<Self, DeError> {
        let col = |name: &str| -> Result<&[Value], DeError> { array(field(value, name)?, name) };
        let pop = col("pop")?;
        let base = col("base")?;
        let plen = col("plen")?;
        let country = col("country")?;
        let continent = col("continent")?;
        let window = col("window")?;
        let rank = col("rank")?;
        let rel = col("rel")?;
        let longer = col("longer")?;
        let prepended = col("prepended")?;
        let min_rtt = col("min_rtt")?;
        let hdratio = col("hdratio")?;
        let bytes = col("bytes")?;
        let n = pop.len();
        for (name, c) in [
            ("base", base),
            ("plen", plen),
            ("country", country),
            ("continent", continent),
            ("window", window),
            ("rank", rank),
            ("rel", rel),
            ("longer", longer),
            ("prepended", prepended),
            ("min_rtt", min_rtt),
            ("hdratio", hdratio),
            ("bytes", bytes),
        ] {
            if c.len() != n {
                return Err(DeError(format!("column {name}: length {} != {n}", c.len())));
            }
        }
        (0..n)
            .map(|i| {
                Ok(SessionRecord {
                    group: GroupKey {
                        pop: PopId(int(&pop[i], "pop")? as u16),
                        prefix: Prefix::new(
                            int(&base[i], "base")? as u32,
                            int(&plen[i], "plen")? as u8,
                        ),
                        country: int(&country[i], "country")? as u16,
                        continent: int(&continent[i], "continent")? as u8,
                    },
                    window: int(&window[i], "window")? as u32,
                    route_rank: int(&rank[i], "rank")? as u8,
                    relationship: rel_from_code(int(&rel[i], "rel")?)?,
                    longer_path: boolean(&longer[i], "longer")?,
                    more_prepended: boolean(&prepended[i], "prepended")?,
                    min_rtt_ms: num(&min_rtt[i], "min_rtt")?,
                    hdratio: match &hdratio[i] {
                        Value::Null => None,
                        v => Some(num(v, "hdratio")?),
                    },
                    bytes: int(&bytes[i], "bytes")?,
                })
            })
            .collect()
    }
}

fn digest_value(parts: &DigestParts) -> Value {
    Value::Object(vec![
        ("compression".into(), Value::Num(parts.compression)),
        ("min".into(), Value::Num(if parts.centroids.is_empty() { 0.0 } else { parts.min })),
        ("max".into(), Value::Num(if parts.centroids.is_empty() { 0.0 } else { parts.max })),
        ("compressions".into(), Value::Num(parts.compressions as f64)),
        (
            "c".into(),
            Value::Array(
                parts
                    .centroids
                    .iter()
                    .flat_map(|c| [Value::Num(c.mean), Value::Num(c.weight)])
                    .collect(),
            ),
        ),
    ])
}

fn digest_from_value(v: &Value) -> Result<DigestParts, DeError> {
    let flat = array(field(v, "c")?, "centroids")?;
    if flat.len() % 2 != 0 {
        return Err(DeError(format!("centroid array has odd length {}", flat.len())));
    }
    let centroids = flat
        .chunks(2)
        .map(|pair| Ok(Centroid { mean: num(&pair[0], "mean")?, weight: num(&pair[1], "weight")? }))
        .collect::<Result<Vec<_>, DeError>>()?;
    let (min, max) = if centroids.is_empty() {
        (f64::INFINITY, f64::NEG_INFINITY)
    } else {
        (num(field(v, "min")?, "min")?, num(field(v, "max")?, "max")?)
    };
    Ok(DigestParts {
        compression: num(field(v, "compression")?, "compression")?,
        min,
        max,
        compressions: int(field(v, "compressions")?, "compressions")?,
        centroids,
    })
}

fn cell_value(cell: &StreamingCell) -> Value {
    let (minrtt, hdratio, bytes) = cell.agg.to_parts();
    Value::Object(vec![
        ("rel".into(), Value::Num(rel_code(cell.relationship))),
        ("longer".into(), Value::Bool(cell.longer_path)),
        ("prepended".into(), Value::Bool(cell.more_prepended)),
        ("bytes".into(), Value::Num(bytes as f64)),
        ("minrtt".into(), digest_value(&minrtt)),
        ("hdratio".into(), digest_value(&hdratio)),
    ])
}

fn cell_from_value(v: &Value) -> Result<StreamingCell, DeError> {
    Ok(StreamingCell {
        agg: StreamingAggregation::from_parts(
            digest_from_value(field(v, "minrtt")?)?,
            digest_from_value(field(v, "hdratio")?)?,
            int(field(v, "bytes")?, "bytes")?,
        ),
        relationship: rel_from_code(int(field(v, "rel")?, "rel")?)?,
        longer_path: boolean(field(v, "longer")?, "longer")?,
        more_prepended: boolean(field(v, "prepended")?, "prepended")?,
    })
}

/// Bounded-memory persistence: groups in insertion order, each cell as
/// its compressed digest parts. See the module docs for the exact
/// round-trip contract.
impl PersistentSink for StreamingDataset {
    fn kind() -> &'static str {
        "streaming"
    }

    fn save(&self) -> Value {
        let groups = self
            .iter()
            .map(|(key, g)| {
                let ranks = g
                    .ranks
                    .iter()
                    .map(|ws| {
                        Value::Array(
                            ws.iter()
                                .map(|cell| cell.as_ref().map_or(Value::Null, cell_value))
                                .collect(),
                        )
                    })
                    .collect();
                Value::Object(vec![
                    ("key".into(), key_value(key)),
                    ("total_bytes".into(), Value::Num(g.total_bytes as f64)),
                    ("ranks".into(), Value::Array(ranks)),
                ])
            })
            .collect();
        Value::Object(vec![
            ("n_windows".into(), Value::Num(self.n_windows() as f64)),
            ("groups".into(), Value::Array(groups)),
        ])
    }

    fn load(value: &Value) -> Result<Self, DeError> {
        let n_windows = int(field(value, "n_windows")?, "n_windows")? as usize;
        let mut ds = StreamingDataset::new(n_windows);
        for gv in array(field(value, "groups")?, "groups")? {
            let key = key_from_value(field(gv, "key")?)?;
            let mut group = GroupData {
                ranks: Vec::new(),
                total_bytes: int(field(gv, "total_bytes")?, "total_bytes")?,
            };
            for rv in array(field(gv, "ranks")?, "ranks")? {
                let ws = array(rv, "windows")?;
                if ws.len() != n_windows {
                    return Err(DeError(format!(
                        "rank has {} windows, dataset has {n_windows}",
                        ws.len()
                    )));
                }
                group.ranks.push(
                    ws.iter()
                        .map(
                            |cv| {
                                if cv.is_null() {
                                    Ok(None)
                                } else {
                                    cell_from_value(cv).map(Some)
                                }
                            },
                        )
                        .collect::<Result<Vec<_>, DeError>>()?,
                );
            }
            ds.grid.insert_group(key, group);
        }
        Ok(ds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::RecordShard;

    fn rec(prefix: u32, window: u32, rank: u8, rtt: f64, hdr: Option<f64>) -> SessionRecord {
        SessionRecord {
            group: GroupKey {
                pop: PopId((prefix % 3) as u16),
                prefix: Prefix::new(prefix << 16, 16),
                country: (prefix % 7) as u16,
                continent: (prefix % 5) as u8,
            },
            window,
            route_rank: rank,
            relationship: match prefix % 3 {
                0 => Relationship::PrivatePeer,
                1 => Relationship::PublicPeer,
                _ => Relationship::Transit,
            },
            longer_path: rank > 0,
            more_prepended: prefix.is_multiple_of(2),
            min_rtt_ms: rtt,
            hdratio: hdr,
            bytes: 100 + prefix as u64,
        }
    }

    fn synthetic(n: usize) -> Vec<SessionRecord> {
        (0..n)
            .map(|i| {
                let u = (i as f64 * 0.618_033_988_749).fract();
                rec(
                    (i % 13) as u32,
                    (i % 4) as u32,
                    (i % 2) as u8,
                    20.0 + 60.0 * u,
                    (i % 3 != 0).then_some(u),
                )
            })
            .collect()
    }

    #[test]
    fn vec_round_trip_is_bit_identical_through_json_text() {
        let records = synthetic(1_500);
        let text = serde_json::to_string(&records.save()).unwrap();
        let restored = <Vec<SessionRecord>>::load(&serde_json::parse(&text).unwrap()).unwrap();
        assert_eq!(restored.len(), records.len());
        for (a, b) in records.iter().zip(&restored) {
            assert_eq!(a.group, b.group);
            assert_eq!(a.window, b.window);
            assert_eq!(a.route_rank, b.route_rank);
            assert_eq!(a.relationship, b.relationship);
            assert_eq!(a.longer_path, b.longer_path);
            assert_eq!(a.more_prepended, b.more_prepended);
            assert_eq!(a.min_rtt_ms.to_bits(), b.min_rtt_ms.to_bits());
            assert_eq!(a.hdratio.map(f64::to_bits), b.hdratio.map(f64::to_bits));
            assert_eq!(a.bytes, b.bytes);
        }
    }

    #[test]
    fn empty_vec_round_trips() {
        let empty: Vec<SessionRecord> = Vec::new();
        let restored = <Vec<SessionRecord>>::load(&empty.save()).unwrap();
        assert!(restored.is_empty());
    }

    #[test]
    fn streaming_round_trip_preserves_query_state() {
        let mut ds = StreamingDataset::new(4);
        for r in synthetic(3_000) {
            RecordShard::push(&mut ds, r);
        }
        ds.flush();
        let text = serde_json::to_string(&ds.save()).unwrap();
        let restored = StreamingDataset::load(&serde_json::parse(&text).unwrap()).unwrap();
        assert_eq!(restored.len(), ds.len());
        assert_eq!(restored.n_windows(), ds.n_windows());
        assert_eq!(restored.total_bytes(), ds.total_bytes());
        assert_eq!(restored.cell_count(), ds.cell_count());
        assert_eq!(restored.record_count(), ds.record_count());
        for ((ka, ga), (kb, gb)) in ds.iter().zip(restored.iter()) {
            assert_eq!(ka, kb, "group order preserved");
            assert_eq!(ga.total_bytes, gb.total_bytes);
            for (rank, ws) in ga.ranks.iter().enumerate() {
                for (w, cell) in ws.iter().enumerate() {
                    let (Some(a), Some(b)) = (cell.as_ref(), gb.cell(rank, w)) else {
                        assert!(cell.is_none() && gb.cell(rank, w).is_none());
                        continue;
                    };
                    assert_eq!(a.relationship, b.relationship);
                    assert_eq!(a.agg.n(), b.agg.n());
                    assert_eq!(a.agg.bytes(), b.agg.bytes());
                    for &q in &[0.0, 0.1, 0.5, 0.9, 1.0] {
                        assert_eq!(
                            a.agg.min_rtt_quantile(q).to_bits(),
                            b.agg.min_rtt_quantile(q).to_bits(),
                            "rank {rank} window {w} q {q}"
                        );
                    }
                    assert_eq!(
                        a.agg.hdratio_quantile(0.5).map(f64::to_bits),
                        b.agg.hdratio_quantile(0.5).map(f64::to_bits)
                    );
                }
            }
        }
    }

    #[test]
    fn restored_streaming_sink_accepts_further_pushes() {
        let records = synthetic(2_000);
        let mut ds = StreamingDataset::new(4);
        for r in &records[..1_000] {
            RecordShard::push(&mut ds, *r);
        }
        ds.flush();
        let mut restored = StreamingDataset::load(&ds.save()).unwrap();
        for r in &records[1_000..] {
            RecordShard::push(&mut ds, *r);
            RecordShard::push(&mut restored, *r);
        }
        ds.flush();
        restored.flush();
        assert_eq!(restored.record_count(), ds.record_count());
        assert_eq!(restored.total_bytes(), ds.total_bytes());
    }

    #[test]
    fn load_rejects_malformed_trees() {
        assert!(<Vec<SessionRecord>>::load(&Value::Null).is_err());
        assert!(StreamingDataset::load(&Value::Object(vec![])).is_err());
        // Mismatched column lengths.
        let mut v = synthetic(10).save();
        if let Value::Object(members) = &mut v {
            for (k, col) in members.iter_mut() {
                if k == "window" {
                    *col = Value::Array(vec![]);
                }
            }
        }
        assert!(<Vec<SessionRecord>>::load(&v).is_err());
        // Unknown relationship code.
        let mut v = synthetic(3).save();
        if let Value::Object(members) = &mut v {
            for (k, col) in members.iter_mut() {
                if k == "rel" {
                    *col = Value::Array(vec![Value::Num(9.0); 3]);
                }
            }
        }
        assert!(<Vec<SessionRecord>>::load(&v).is_err());
    }
}
