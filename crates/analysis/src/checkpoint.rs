//! Sink persistence for checkpoint/resume.
//!
//! The study supervisor periodically snapshots its sink to disk so a
//! killed study can restart without recomputing merged prefixes. A sink
//! opts in by implementing [`PersistentSink`]: flatten the complete sink
//! state into a [`Value`] tree (encoded by the caller with the in-repo
//! `serde_json`) and rebuild it bit-for-bit from that tree.
//!
//! The round-trip contract, proven by tests here: `Vec<SessionRecord>` is
//! exact — every field of every record survives, including the `f64` bit
//! patterns (the JSON layer prints shortest round-trip representations).
//! It is the one sink the supervised study path uses, and the basis of
//! its bit-identical-resume guarantee. The streaming sink is not
//! persistent: the supervisor is never handed one, and its sealed state
//! would need an on-disk format of its own.

use crate::record::{GroupKey, SessionRecord};
use crate::sink::RecordSink;
use edgeperf_routing::{PopId, Prefix, Relationship};
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
    // `u64::MAX as f64` is 2^64: the first value `as u64` would saturate.
    if n < 0.0 || n.fract() != 0.0 || n >= u64::MAX as f64 {
        return Err(DeError(format!("{what}: expected non-negative integer, got {n}")));
    }
    Ok(n as u64)
}

/// [`int`], narrowed to the field's own type: a checkpoint is outside
/// input, so a value its column cannot hold is an error, not a wrap.
fn narrow<T: TryFrom<u64>>(v: &Value, what: &str) -> Result<T, DeError> {
    let n = int(v, what)?;
    T::try_from(n).map_err(|_| DeError(format!("column {what}: {n} is out of range")))
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
                        pop: PopId(narrow(&pop[i], "pop")?),
                        prefix: Prefix::new(narrow(&base[i], "base")?, narrow(&plen[i], "plen")?),
                        country: narrow(&country[i], "country")?,
                        continent: narrow(&continent[i], "continent")?,
                    },
                    window: narrow(&window[i], "window")?,
                    route_rank: narrow(&rank[i], "rank")?,
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

#[cfg(test)]
mod tests {
    use super::*;

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
    fn a_value_its_column_cannot_hold_is_an_error_not_another_record() {
        for (column, value) in
            [("pop", 65_536.0), ("plen", 256.0), ("rank", 256.0), ("window", 4_294_967_296.0)]
        {
            let mut v = synthetic(3).save();
            if let Value::Object(members) = &mut v {
                let (_, col) = members.iter_mut().find(|(k, _)| k == column).unwrap();
                *col = Value::Array(vec![Value::Num(0.0), Value::Num(value), Value::Num(0.0)]);
            }
            let err = <Vec<SessionRecord>>::load(&v).expect_err(column);
            assert_eq!(err.0, format!("column {column}: {value} is out of range"));
        }
    }

    #[test]
    fn load_rejects_malformed_trees() {
        assert!(<Vec<SessionRecord>>::load(&Value::Null).is_err());
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
