//! The byte form of one exact fragment: what the study driver's
//! checkpoint journal writes for each prefix it merges.
//!
//! ```text
//! "EPSH" | version = 1 | cells: u32 | rows: u32                 13 bytes
//! cell*   pop: u16 | base: u32 | len: u8 | country: u16 | continent: u8
//!         | window: u32 | rank: u8 | relationship: u8 | flags: u8
//!         | bytes: u64                                          25 bytes
//! column  cell id: u32 per row
//! column  MinRTT bits: u64 per row
//! column  HDratio bits: u64 per row (`f64::NAN` = untested)
//! FxHash of everything above: u64
//! ```
//!
//! Rows are the shard's three aligned columns as they lie, floats as raw
//! bit patterns, so a decoded fragment merges to the same bits as the one
//! a worker filled. Per-cell sample counts are not stored: the decoder
//! recounts them from the rows, so they cannot disagree.
//!
//! A journal file is outside input. Every record has a fixed size, so the
//! two counts must account for the image's length *exactly* before
//! anything is sized by them; a row must name a cell the image holds, a
//! cell a rank and a window its sink has. Problems are the typed
//! [`EdgeperfError::Segment`] — the checksum is `segment.rs`'s.

use crate::columnar::{CellKey, ColumnarShard, ColumnarSink};
use crate::record::GroupKey;
use crate::segment::{
    checked_body, checksum, corrupt, rel_code, rel_from_code, Reader, FLAG_LONGER_PATH,
    FLAG_MORE_PREPENDED,
};
use crate::sink::RecordSink;
use edgeperf_core::EdgeperfError;
use edgeperf_routing::{PopId, Prefix};

/// Magic bytes opening every encoded shard.
pub(crate) const SHARD_MAGIC: [u8; 4] = *b"EPSH";

/// Current shard format version.
pub(crate) const SHARD_VERSION: u8 = 1;

/// Magic, version, cell count, row count.
const HEADER_LEN: usize = SHARD_MAGIC.len() + 1 + 4 + 4;

/// One cell's metadata: 2+4+1+2+1 + 4+1 + 1+1 + 8.
const CELL_BYTES: usize = 25;

/// One row: cell id, MinRTT, HDratio.
const ROW_BYTES: usize = 4 + 8 + 8;

impl ColumnarShard {
    /// Append this shard's byte form (see the module docs) to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let start = out.len();
        let count = |n: usize| u32::try_from(n).expect("a shard's counts fit u32").to_le_bytes();
        out.reserve(HEADER_LEN + self.cells.len() * CELL_BYTES + self.cell.len() * ROW_BYTES + 8);
        out.extend_from_slice(&SHARD_MAGIC);
        out.push(SHARD_VERSION);
        out.extend_from_slice(&count(self.cells.len()));
        out.extend_from_slice(&count(self.cell.len()));
        for c in &self.cells {
            let CellKey { group, window, rank } = c.key;
            out.extend_from_slice(&group.pop.0.to_le_bytes());
            out.extend_from_slice(&group.prefix.base.to_le_bytes());
            out.push(group.prefix.len);
            out.extend_from_slice(&group.country.to_le_bytes());
            out.push(group.continent);
            out.extend_from_slice(&window.to_le_bytes());
            let flags = u8::from(c.longer_path) * FLAG_LONGER_PATH
                + u8::from(c.more_prepended) * FLAG_MORE_PREPENDED;
            out.extend_from_slice(&[rank, rel_code(c.relationship), flags]);
            out.extend_from_slice(&c.bytes.to_le_bytes());
        }
        self.cell.iter().for_each(|ci| out.extend_from_slice(&ci.to_le_bytes()));
        for column in [&self.min_rtt, &self.hdratio] {
            column.iter().for_each(|v| out.extend_from_slice(&v.to_bits().to_le_bytes()));
        }
        let sum = checksum(&out[start..]);
        out.extend_from_slice(&sum.to_le_bytes());
    }
}

impl ColumnarSink {
    /// Rebuild a shard of this sink from [`ColumnarShard::encode`]'s
    /// bytes, ready to [merge](crate::RecordSink::merge_shard).
    pub fn decode_shard(&self, bytes: &[u8]) -> Result<ColumnarShard, EdgeperfError> {
        let mut r = Reader { bytes: checked_body(bytes)?, at: 0 };
        if r.take(SHARD_MAGIC.len())? != SHARD_MAGIC {
            return Err(corrupt("not an encoded shard (bad magic)".into()));
        }
        let version = r.u8()?;
        if version != SHARD_VERSION {
            return Err(corrupt(format!("unsupported shard version {version}")));
        }
        let (n_cells, n_rows) = (r.u32()? as usize, r.u32()? as usize);
        // Length arithmetic before any allocation: fixed-size records, so
        // the counts either account for every byte left or are forged.
        if n_cells as u64 * CELL_BYTES as u64 + n_rows as u64 * ROW_BYTES as u64
            != r.remaining() as u64
        {
            return Err(corrupt(format!(
                "{n_cells} cells and {n_rows} rows cannot be {} bytes",
                r.remaining()
            )));
        }
        let mut shard = self.new_shard();
        for i in 0..n_cells {
            let group = GroupKey {
                pop: PopId(r.u16()?),
                prefix: Prefix { base: r.u32()?, len: r.u8()? },
                country: r.u16()?,
                continent: r.u8()?,
            };
            let key = CellKey { group, window: r.u32()?, rank: r.u8()? };
            // The two bounds `cell_id` and `summarize` would panic on.
            if key.rank >= 8 || key.window as usize >= self.n_windows {
                return Err(corrupt(format!(
                    "cell {i} at rank {} window {} is outside the sink",
                    key.rank, key.window
                )));
            }
            let (relationship, flags) = (rel_from_code(r.u8()?)?, r.u8()?);
            if flags & !(FLAG_LONGER_PATH | FLAG_MORE_PREPENDED) != 0 {
                return Err(corrupt(format!("unknown flag bits {flags:#04x}")));
            }
            if shard.cell_id(key, relationship) != i {
                return Err(corrupt(format!("cell {i} repeats an earlier cell's key")));
            }
            let cell = &mut shard.cells[i];
            cell.longer_path = flags & FLAG_LONGER_PATH != 0;
            cell.more_prepended = flags & FLAG_MORE_PREPENDED != 0;
            cell.bytes = r.u64()?;
        }
        shard.cell.reserve_exact(n_rows);
        for row in 0..n_rows {
            let ci = r.u32()?;
            if ci as usize >= n_cells {
                return Err(corrupt(format!("row {row} names cell {ci} of {n_cells}")));
            }
            shard.cell.push(ci);
        }
        for column in [&mut shard.min_rtt, &mut shard.hdratio] {
            column.reserve_exact(n_rows);
            for _ in 0..n_rows {
                column.push(f64::from_bits(r.u64()?));
            }
        }
        for (row, &ci) in shard.cell.iter().enumerate() {
            if shard.min_rtt[row].is_nan() {
                return Err(corrupt(format!("row {row} has a NaN MinRTT")));
            }
            // Untested is one NaN, `f64::NAN`: it sorts after every sample.
            let hd = shard.hdratio[row];
            if hd.is_nan() && hd.to_bits() != f64::NAN.to_bits() {
                return Err(corrupt(format!("row {row} has a NaN HDratio that is not the mark")));
            }
            let cell = &mut shard.cells[ci as usize];
            cell.n_rtt += 1;
            cell.n_hd += u32::from(!hd.is_nan());
        }
        Ok(shard)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columnar::tests::{rec, synthetic};
    use crate::sink::RecordShard;

    /// 13 prefixes × 4 windows = 52 cells; a third of the rows untested.
    fn shard_of(sink: &ColumnarSink, n: usize) -> ColumnarShard {
        let mut shard = sink.new_shard();
        synthetic(n).into_iter().for_each(|r| shard.push(r));
        shard
    }

    /// Everything a sink holding just `shard` can be asked, as bits.
    fn bits(mut sink: ColumnarSink, shard: ColumnarShard) -> (Vec<String>, String, String) {
        sink.merge_shard(shard);
        let rows = sink.rows().map(|(k, rtt)| format!("{k:?} {rtt:?}")).collect();
        let hdratio = format!("{:?}", (sink.hdratio_rollup(), sink.hdratio().fig7()));
        (rows, format!("{:?}", sink.summarize().groups), hdratio)
    }

    #[test]
    fn a_shard_round_trips_to_the_same_rows_and_summaries() {
        let sink = || ColumnarSink::new(4);
        let mut image = Vec::new();
        shard_of(&sink(), 1_500).encode(&mut image);
        assert_eq!(image.len(), HEADER_LEN + 13 * 4 * CELL_BYTES + 1_500 * ROW_BYTES + 8);
        let decoded = sink().decode_shard(&image).expect("decodes");
        // A third of the rows tested nothing: NaN in the column, `None` out.
        assert_eq!(decoded.hdratio.iter().filter(|h| h.is_nan()).count(), 500);
        assert_eq!(bits(sink(), decoded), bits(sink(), shard_of(&sink(), 1_500)));

        // A decoded shard is a working shard: pushed to and encoded again,
        // it is the bytes of the shard that was pushed to all along.
        let mut resumed = sink().decode_shard(&image).unwrap();
        let mut whole = shard_of(&sink(), 1_500);
        for shard in [&mut resumed, &mut whole] {
            shard.push(rec(1, 3, 0, 41.5, None));
            shard.push(rec(40, 0, 1, 7.25, Some(0.5)));
        }
        let (mut a, mut b) = (Vec::new(), Vec::new());
        resumed.encode(&mut a);
        whole.encode(&mut b);
        assert_eq!(a, b);

        let mut empty = Vec::new();
        sink().new_shard().encode(&mut empty);
        assert_eq!(empty.len(), HEADER_LEN + 8);
        assert_eq!(sink().decode_shard(&empty).expect("an empty shard decodes").sample_count(), 0);
    }

    #[test]
    fn what_the_checksum_cannot_stop_the_arithmetic_and_the_bounds_do() {
        let sink = ColumnarSink::new(4);
        let mut image = Vec::new();
        shard_of(&sink, 60).encode(&mut image);
        // Forge one field, recompute the checksum, expect the message.
        let forged = |at: usize, bytes: &[u8], want: &str| {
            let mut bad = image.clone();
            bad[at..at + bytes.len()].copy_from_slice(bytes);
            let body = bad.len() - 8;
            let sum = checksum(&bad[..body]).to_le_bytes();
            bad[body..].copy_from_slice(&sum);
            let err = sink.decode_shard(&bad).expect_err(want);
            assert!(err.to_string().contains(want), "{want}: {err}");
        };
        forged(0, b"EPSG", "bad magic");
        forged(4, &[9], "unsupported shard version 9");
        forged(5, &u32::MAX.to_le_bytes(), "cells and 60 rows cannot be");
        forged(9, &u32::MAX.to_le_bytes(), "rows cannot be");
        let cell0 = HEADER_LEN;
        forged(cell0 + 10, &4u32.to_le_bytes(), "window 4 is outside the sink");
        forged(cell0 + 14, &[8], "rank 8");
        forged(cell0 + 15, &[3], "unknown relationship code 3");
        forged(cell0 + 16, &[4], "unknown flag bits");
        let cell1: Vec<u8> = image[cell0 + CELL_BYTES..cell0 + 2 * CELL_BYTES].to_vec();
        forged(cell0, &cell1, "cell 1 repeats an earlier cell's key");
        let rows = HEADER_LEN + 13 * 4 * CELL_BYTES;
        forged(rows, &52u32.to_le_bytes(), "row 0 names cell 52 of 52");
        forged(rows + 60 * 4, &f64::NAN.to_bits().to_le_bytes(), "row 0 has a NaN MinRTT");
        forged(
            rows + 60 * 12,
            &(-f64::NAN).to_bits().to_le_bytes(),
            "row 0 has a NaN HDratio that",
        );
    }
}
