//! The byte form of one exact fragment: what the study driver's
//! checkpoint journal writes for each prefix it merges.
//!
//! A fragment is journalled sealed, so it is what its worker closed: a
//! [`WindowCell`] row a cell, each kept group's sorted MinRTTs and the
//! HDratio tally.
//!
//! ```text
//! "EPSH" | version = 3 | form = 0 | segment: u32 | kept: u32
//!        | continents: u16 | entries: u32                       20 bytes
//! segment   the rows in closing order: `encode_segment`'s image
//! kept      u64 words: the Rice-coded stream of the preferred rows'
//!           MinRTTs, whole nanoseconds, one sorted run a group — groups
//!           in the order the rows first name them, a group's run the sum
//!           of its preferred rows' `n` — then a zero word (no word at
//!           all without a preferred row)
//! continent tested: u64 | zero: u64 | below_one: u64             24 bytes
//! entry     bucket: u8 | HDratio bits: u64 | sessions: u64       17 bytes
//! FxHash of everything above: u64
//! ```
//!
//! The segment is the live tier's codec, so a row decodes to the bits it
//! was written with. A Figure 7 bucket's counts are not stored: the
//! decoder adds them up from its entries, which are written in ascending
//! (bucket, bits) order. A cell costs its segment row (49–73 B) and a
//! share of its window's row-group frame; a preferred session a few bits.
//! At seed 7, scale 1 the 121 fragments are 14.1 MB for 7.72 M sessions,
//! 1.8 B a session.
//!
//! A journal file is outside input. The header's counts must account for
//! the image's length *exactly* before anything is sized by them; a row
//! must name a cell its sink has, once; the stream must hold each group's
//! run of exactly its preferred rows' `n` values and nothing more, which a
//! walk bounded by its words checks; and the tally must agree with the
//! rows — a continent's tested sessions are its preferred rows' — and with
//! itself. An image of another version is refused — version 1's raw rows
//! (`unsupported shard version 1`) and version 2's run a preferred cell
//! (`unsupported shard version 2`) included — and so is one of another
//! kept form — form 1, the `f64`s of MinRTTs that were not whole
//! nanoseconds, included (`unknown kept form 1`) — not migrated: a
//! checkpoint is one study's transient. Problems are the typed
//! [`EdgeperfError::Segment`] — the checksum is `segment.rs`'s.

use crate::columnar::{ColumnarShard, ColumnarSink, KeptRuns, HEAD_BITS, K_BITS};
use crate::figures::{HdratioCounts, HdratioTally, HDRATIO_BELOW_ONE};
use crate::segment::{
    checked_body, checksum, corrupt, decode_segment, encode_segment, Reader, WindowCell,
};
use crate::sink::RecordSink;
use edgeperf_core::EdgeperfError;

/// Magic bytes opening every encoded shard.
pub(crate) const SHARD_MAGIC: [u8; 4] = *b"EPSH";

/// Current shard format version.
pub(crate) const SHARD_VERSION: u8 = 3;

/// The one kept form: whole nanoseconds, Rice-coded.
const KEPT_FORM: u8 = 0;

/// Magic, version, form and the four counts.
const HEADER_LEN: usize = SHARD_MAGIC.len() + 1 + 1 + 4 + 4 + 2 + 4;

/// A continent's three counts.
const CONTINENT_BYTES: usize = 24;

/// A tally entry: bucket, HDratio bits, sessions.
const ENTRY_BYTES: usize = 1 + 8 + 8;

/// The image of `rows`, a kept stream's words and `tally` (see the module
/// docs), appended to `out`.
fn write_image(out: &mut Vec<u8>, rows: &[WindowCell], kept: &[u64], tally: &HdratioTally) {
    let start = out.len();
    let count = |n: usize| u32::try_from(n).expect("a shard's counts fit u32").to_le_bytes();
    let segment = encode_segment(rows);
    let buckets = tally.distinct.iter().enumerate();
    let mut entries: Vec<(usize, u64, u64)> = buckets
        .flat_map(|(bucket, held)| {
            held.iter().map(move |(&key, &n)| (bucket, key.rotate_right(32), n))
        })
        .collect();
    entries.sort_unstable();
    let parts = [segment.len(), 8 * kept.len(), CONTINENT_BYTES * tally.by_continent.len()];
    out.reserve(HEADER_LEN + parts.iter().sum::<usize>() + ENTRY_BYTES * entries.len() + 8);
    out.extend_from_slice(&SHARD_MAGIC);
    out.extend_from_slice(&[SHARD_VERSION, KEPT_FORM]);
    out.extend_from_slice(&count(segment.len()));
    out.extend_from_slice(&count(kept.len()));
    let continents = u16::try_from(tally.by_continent.len()).expect("a continent is a u8");
    out.extend_from_slice(&continents.to_le_bytes());
    out.extend_from_slice(&count(entries.len()));
    out.extend_from_slice(&segment);
    kept.iter().for_each(|w| out.extend_from_slice(&w.to_le_bytes()));
    for c in &tally.by_continent {
        [c.tested, c.zero, c.below_one]
            .iter()
            .for_each(|n| out.extend_from_slice(&n.to_le_bytes()));
    }
    for (bucket, bits, n) in entries {
        out.push(bucket as u8);
        out.extend_from_slice(&bits.to_le_bytes());
        out.extend_from_slice(&n.to_le_bytes());
    }
    let sum = checksum(&out[start..]);
    out.extend_from_slice(&sum.to_le_bytes());
}

impl ColumnarShard {
    /// Append this shard's byte form (see the module docs) to `out`. The
    /// shard must be sealed, as the runner leaves every shard it fills.
    ///
    /// # Panics
    /// Panics when a window is still open.
    pub fn encode(&self, out: &mut Vec<u8>) {
        assert!(self.is_sealed(), "a shard is encoded sealed");
        write_image(out, &self.rows, &self.kept.words, &self.tally);
    }
}

/// `width` (≤ 32) bits of `words` from bit `pos` on, if they are there.
fn field(words: &[u64], pos: usize, width: usize) -> Option<u64> {
    if pos.checked_add(width)? > words.len() * 64 {
        return None;
    }
    let (i, bit) = (pos / 64, pos % 64);
    let high = if bit + width > 64 { words[i + 1] << (64 - bit) } else { 0 };
    Some((words[i] >> bit | high) & ((1 << width) - 1))
}

/// Walk a kept stream of runs of `counts` rows, and the zero word after
/// it, without reading past its words: why it is not that stream, if it
/// is not.
fn check_stream(words: &[u64], counts: &[u64]) -> Result<(), EdgeperfError> {
    let mut unary = 0;
    for (run, &n) in counts.iter().enumerate() {
        let overrun = || corrupt(format!("kept group {run}'s {n} values overrun the stream"));
        let k = field(words, unary, K_BITS as usize).ok_or_else(overrun)? as usize;
        let mut nanos = field(words, unary + K_BITS as usize, 32).ok_or_else(overrun)?;
        let mut low = unary + HEAD_BITS;
        unary = (n - 1)
            .checked_mul(k as u64)
            .and_then(|bits| low.checked_add(usize::try_from(bits).ok()?))
            .filter(|&end| end <= words.len() * 64)
            .ok_or_else(overrun)?;
        for _ in 1..n {
            let mut word = unary / 64;
            let mut ones = words.get(word).ok_or_else(overrun)? & (!0 << (unary % 64));
            while ones == 0 {
                word += 1;
                ones = *words.get(word).ok_or_else(overrun)?;
            }
            let one = word * 64 + ones.trailing_zeros() as usize;
            let gap = u64::try_from(one - unary)
                .ok()
                .filter(|&q| q < 1 << 32)
                .map(|q| q << k | field(words, low, k).expect("inside the low bits"));
            nanos += gap.filter(|&gap| gap <= u64::from(u32::MAX)).ok_or_else(overrun)?;
            if nanos > u64::from(u32::MAX) {
                return Err(corrupt(format!("kept group {run} passes 2^32 ns in the stream")));
            }
            (unary, low) = (one + 1, low + k);
        }
    }
    // The stream's words, then a zero word if there is a stream at all.
    let (len, tail) = (unary.div_ceil(64) + usize::from(!counts.is_empty()), unary % 64);
    if words.len() != len
        || tail > 0 && words[unary / 64] >> tail != 0
        || words.last().is_some_and(|&last| last != 0)
    {
        return Err(corrupt(format!("{} words hold a {unary}-bit stream", words.len())));
    }
    Ok(())
}

impl ColumnarSink {
    /// Rebuild a sealed shard of this sink from [`ColumnarShard::encode`]'s
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
        let form = r.u8()?;
        if form != KEPT_FORM {
            return Err(corrupt(format!("unknown kept form {form}")));
        }
        let (segment, words) = (r.u32()? as usize, r.u32()? as usize);
        let (continents, entries) = (r.u16()? as usize, r.u32()? as usize);
        // Length arithmetic before any allocation: every part's size is
        // its count times a fixed size, so the counts either account for
        // every byte left or are forged.
        let sizes =
            [(segment, 1), (words, 8), (continents, CONTINENT_BYTES), (entries, ENTRY_BYTES)];
        if sizes.iter().map(|&(n, size)| n as u64 * size as u64).sum::<u64>()
            != r.remaining() as u64
        {
            return Err(corrupt(format!(
                "a {segment}-byte segment, {words} words, {continents} continents and \
                 {entries} entries cannot be {} bytes",
                r.remaining()
            )));
        }
        let rows = decode_segment(r.take(segment)?)?;
        let mut shard = self.new_shard();
        let mut tested_by_continent = Vec::new();
        // Each group's preferred sessions, indexed like `shard.ids.slots`.
        let mut kept_counts: Vec<u64> = Vec::new();
        for (i, row) in rows.iter().enumerate() {
            // The bounds `GroupSlots::cell` and the stream's `u32` row
            // counts would panic on.
            if row.rank >= 8 || row.window as usize >= self.n_windows {
                return Err(corrupt(format!(
                    "row {i} at rank {} window {} is outside the sink",
                    row.rank, row.window
                )));
            }
            if row.n == 0 || row.n_tested > row.n {
                return Err(corrupt(format!(
                    "row {i} counts {} tested of {} sessions",
                    row.n_tested, row.n
                )));
            }
            let slot = shard.ids.cell(row.group(), row.rank as usize, row.window as usize, 0);
            if slot.replace(i as u32).is_some() {
                return Err(corrupt(format!("row {i} repeats an earlier row's cell")));
            }
            if row.rank == 0 {
                let at = shard.ids.position(&row.group()).expect("just given ids") as usize;
                if kept_counts.len() <= at {
                    kept_counts.resize(at + 1, 0);
                }
                kept_counts[at] += u64::from(row.n);
                let continent = row.group().continent as usize;
                if tested_by_continent.len() <= continent {
                    tested_by_continent.resize(continent + 1, 0);
                }
                tested_by_continent[continent] += u64::from(row.n_tested);
            }
        }
        let kept_rows: u64 = kept_counts.iter().sum();
        if kept_rows > u64::from(u32::MAX) {
            return Err(corrupt(format!("{kept_rows} preferred sessions overflow a shard")));
        }
        let mut kept: Vec<u64> = Vec::with_capacity(words);
        for _ in 0..words {
            kept.push(r.u64()?);
        }
        let groups = shard.ids.slots.iter().map(|(group, _)| *group).zip(&kept_counts);
        let (groups, counts): (Vec<_>, Vec<_>) = groups.filter(|&(_, &n)| n > 0).unzip();
        check_stream(&kept, &counts)?;
        let ends = counts.iter().scan(0, |end, &n| {
            *end += n as u32;
            Some(*end)
        });
        let groups = groups.into_iter().zip(ends).collect();
        shard.kept = KeptRuns { words: kept.into_boxed_slice(), groups };
        shard.tally = read_tally(&mut r, continents, entries, &tested_by_continent)?;
        shard.base = rows.len() as u32;
        shard.rows = rows;
        Ok(shard)
    }
}

/// The tally's `continents` counts and `entries` entries, checked against
/// themselves and against `tested`, the preferred rows' tested sessions a
/// continent.
fn read_tally(
    r: &mut Reader<'_>,
    continents: usize,
    entries: usize,
    tested: &[u64],
) -> Result<HdratioTally, EdgeperfError> {
    let mut tally = HdratioTally::default();
    for continent in 0..continents {
        let counts = HdratioCounts { tested: r.u64()?, zero: r.u64()?, below_one: r.u64()? };
        if counts.zero > counts.below_one || counts.below_one > counts.tested {
            return Err(corrupt(format!("continent {continent}'s point masses exceed its count")));
        }
        tally.by_continent.push(counts);
    }
    let tested_by_continent = tally.by_continent.iter().map(|c| c.tested);
    let last_tested = tested.iter().rposition(|&n| n > 0).map_or(0, |c| c + 1);
    if !tested_by_continent.eq(tested[..last_tested].iter().copied()) {
        return Err(corrupt("the tally's continents disagree with the rows".into()));
    }
    let (mut previous, mut sessions) = (None, 0u64);
    for i in 0..entries {
        let (bucket, hdratio, n) = (r.u8()? as usize, f64::from_bits(r.u64()?), r.u64()?);
        let key = (bucket, hdratio.to_bits());
        if bucket >= tally.buckets.len() || !hdratio.is_finite() || n == 0 {
            return Err(corrupt(format!("entry {i} is no bucket's HDratio count")));
        }
        if previous >= Some(key) {
            return Err(corrupt(format!("entry {i} is out of order")));
        }
        previous = Some(key);
        sessions = sessions.saturating_add(n);
        let counts = &mut tally.buckets[bucket];
        counts.tested = counts.tested.saturating_add(n);
        counts.zero = counts.zero.saturating_add(if hdratio <= 0.0 { n } else { 0 });
        counts.below_one =
            counts.below_one.saturating_add(if hdratio <= HDRATIO_BELOW_ONE { n } else { 0 });
        tally.distinct[bucket].insert(hdratio.to_bits().rotate_left(32), n);
    }
    if sessions > tested.iter().sum::<u64>() {
        return Err(corrupt(format!("{sessions} bucketed sessions exceed the tested")));
    }
    Ok(tally)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columnar::tests::{rec, synthetic};
    use crate::columnar::BitWriter;
    use crate::sink::RecordShard;

    /// 13 prefixes × 4 windows = 52 cells, half of them preferred; a third
    /// of the rows untested; sealed.
    fn shard_of(sink: &ColumnarSink, n: usize) -> ColumnarShard {
        let mut shard = sink.new_shard();
        synthetic(n).into_iter().for_each(|r| shard.push(r));
        shard.seal(0);
        shard
    }

    /// Everything a sink holding just `shard` can be asked, as bits.
    fn bits(mut sink: ColumnarSink, shard: ColumnarShard) -> (Vec<String>, String, String) {
        sink.merge_shard(shard);
        let rows = sink.rows().map(|(k, rtt)| format!("{k:?} {rtt:?}")).collect();
        let hdratio = format!("{:?}", (sink.hdratio_rollup(), sink.hdratio().fig7()));
        (rows, format!("{:?}", sink.summarize().groups), hdratio)
    }

    fn encoded(shard: &ColumnarShard) -> Vec<u8> {
        let mut image = Vec::new();
        shard.encode(&mut image);
        image
    }

    #[test]
    fn a_shard_round_trips_to_the_same_rows_and_summaries() {
        let sink = || ColumnarSink::new(4);
        let shard = shard_of(&sink(), 1_500);
        let image = encoded(&shard);
        let (rows, continents) = (shard.rows.len(), shard.tally.by_continent.len());
        let entries = shard.tally.distinct_hdratios();
        assert_eq!(
            image.len(),
            HEADER_LEN
                + encode_segment(&shard.rows).len()
                + 8 * shard.kept.words.len()
                + CONTINENT_BYTES * continents
                + ENTRY_BYTES * entries
                + 8
        );
        assert_eq!((rows, continents), (52, 5));
        let decoded = sink().decode_shard(&image).expect("decodes");
        assert_eq!(decoded.sample_count(), 1_500);
        assert_eq!(decoded.tally, shard.tally);
        assert_eq!(bits(sink(), decoded), bits(sink(), shard_of(&sink(), 1_500)));

        // A decoded shard is a working shard: pushed new cells and encoded
        // again, it is the bytes of the shard that was pushed to all along.
        let mut resumed = sink().decode_shard(&image).unwrap();
        let mut whole = shard_of(&sink(), 1_500);
        for shard in [&mut resumed, &mut whole] {
            shard.push(rec(40, 0, 1, 7_250_000, Some(0.5)));
            shard.push(rec(41, 3, 0, 41_500_000, None));
            shard.push(rec(41, 3, 0, 40_500_000, Some(1.0)));
            shard.seal(1);
        }
        assert_eq!(encoded(&resumed), encoded(&whole));

        let mut empty = sink().new_shard();
        empty.seal(0);
        let image = encoded(&empty);
        assert_eq!(image.len(), HEADER_LEN + encode_segment(&[]).len() + 8);
        assert_eq!(sink().decode_shard(&image).expect("an empty shard decodes").sample_count(), 0);
    }

    #[test]
    #[should_panic(expected = "a shard is encoded sealed")]
    fn an_open_window_is_not_encoded() {
        let mut shard = ColumnarSink::new(4).new_shard();
        shard.push(rec(1, 0, 0, 30_000_000, None));
        shard.encode(&mut Vec::new());
    }

    /// `image` with its checksum made anew over its body.
    fn resummed(mut image: Vec<u8>) -> Vec<u8> {
        let body = image.len() - 8;
        let sum = checksum(&image[..body]).to_le_bytes();
        image[body..].copy_from_slice(&sum);
        image
    }

    #[test]
    fn a_form_1_image_is_refused_as_corruption() {
        // Form 1 held each preferred row's MinRTTs as sorted `f64` bits: a
        // whole, checksummed image of it, as an encoder of that form wrote.
        let sink = ColumnarSink::new(4);
        let shard = shard_of(&sink, 600);
        let plain: Vec<u64> = sink.rows_of(&shard).iter().map(|v| v.to_bits()).collect();
        let mut image = Vec::new();
        write_image(&mut image, &shard.rows, &plain, &shard.tally);
        image[5] = 1;
        let err = sink.decode_shard(&resummed(image)).expect_err("form 1 is no form");
        assert!(
            matches!(&err, EdgeperfError::Segment { message } if message == "unknown kept form 1")
        );
    }

    #[test]
    fn a_version_2_image_is_refused_as_corruption() {
        // Version 2 held a coded run a preferred cell, no word after the
        // stream: a whole, checksummed image of it, as an encoder of that
        // version wrote.
        let sink = ColumnarSink::new(4);
        let shard = shard_of(&sink, 600);
        let mut cells: Vec<((u32, u32), Vec<u32>)> = Vec::new();
        for r in synthetic(600).iter().filter(|r| r.route_rank == 0) {
            let cell = (r.group.prefix.base, r.window);
            match cells.iter_mut().find(|(c, _)| *c == cell) {
                Some((_, nanos)) => nanos.push(r.min_rtt_ns),
                None => cells.push((cell, vec![r.min_rtt_ns])),
            }
        }
        let mut stream = BitWriter::default();
        for row in shard.rows.iter().filter(|r| r.rank == 0) {
            let cell = (row.group().prefix.base, row.window);
            let (_, nanos) = cells.iter_mut().find(|(c, _)| *c == cell).expect("a row's cell");
            nanos.sort_unstable();
            stream.run(nanos);
        }
        let mut image = Vec::new();
        write_image(&mut image, &shard.rows, &stream.words, &shard.tally);
        image[4] = 2;
        let err = sink.decode_shard(&resummed(image)).expect_err("version 2 is no version");
        assert!(
            matches!(&err, EdgeperfError::Segment { message } if message == "unsupported shard version 2")
        );
    }

    #[test]
    fn what_the_checksum_cannot_stop_the_arithmetic_and_the_bounds_do() {
        let sink = ColumnarSink::new(4);
        let shard = shard_of(&sink, 600);
        let image = encoded(&shard);
        let refused = |bad: &[u8], want: &str| {
            let err = sink.decode_shard(bad).expect_err(want);
            assert!(err.to_string().contains(want), "{want}: {err}");
        };
        // Forge one field, recompute the checksum, expect the message.
        let forged = |at: usize, bytes: &[u8], want: &str| {
            let mut bad = image.clone();
            bad[at..at + bytes.len()].copy_from_slice(bytes);
            refused(&resummed(bad), want);
        };
        forged(0, b"EPSG", "bad magic");
        forged(4, &[1], "unsupported shard version 1");
        forged(4, &[9], "unsupported shard version 9");
        forged(5, &[2], "unknown kept form 2");
        for at in [6, 10, 16] {
            forged(at, &u32::MAX.to_le_bytes(), "cannot be");
            forged(at, &0u32.to_le_bytes(), "cannot be");
        }
        forged(14, &u16::MAX.to_le_bytes(), "cannot be");
        forged(5, &[1], "unknown kept form 1");

        // What a consistent image can still get wrong: images of forged
        // parts, each whole and checksummed.
        let image_of = |rows: &[WindowCell], kept: &[u64], tally: &HdratioTally| {
            let mut image = Vec::new();
            write_image(&mut image, rows, kept, tally);
            image
        };
        let (rows, words, tally) = (&shard.rows[..], &shard.kept.words[..], &shard.tally);
        assert!(sink.decode_shard(&image_of(rows, words, tally)).is_ok());
        let with_row = |i: usize, edit: &dyn Fn(&mut WindowCell)| {
            let mut rows = rows.to_vec();
            edit(&mut rows[i]);
            image_of(&rows, words, tally)
        };
        refused(&with_row(1, &|r| r.window = 4), "row 1 at rank 0 window 4 is outside the sink");
        refused(&with_row(1, &|r| r.rank = 8), "row 1 at rank 8");
        refused(&with_row(3, &|r| r.n_tested = r.n + 1), "row 3 counts");
        refused(&with_row(3, &|r| r.n = 0), "row 3 counts");
        refused(&with_row(1, &|r| *r = rows[0]), "row 1 repeats an earlier row's cell");
        // A preferred row one session longer or shorter, so its group's
        // run is too: the walk overruns the words or ends short of them.
        refused(&with_row(0, &|r| r.n += 1), "stream");
        refused(&with_row(0, &|r| r.n -= 1), "stream");
        refused(&image_of(rows, &[words, &[0]].concat(), tally), "words hold a");
        refused(&image_of(rows, &words[..words.len() - 1], tally), "words hold a");
        refused(&image_of(rows, &words[..words.len() - 2], tally), "overrun the stream");
        let mut dirty = words.to_vec();
        *dirty.last_mut().unwrap() = 1;
        refused(&image_of(rows, &dirty, tally), "words hold a");
        // No preferred row, no word.
        let alternates: Vec<WindowCell> = rows.iter().filter(|r| r.rank > 0).copied().collect();
        refused(&image_of(&alternates, &[0], &HdratioTally::default()), "words hold a");

        let with_tally = |edit: &dyn Fn(&mut HdratioTally)| {
            let mut tally = tally.clone();
            edit(&mut tally);
            image_of(rows, words, &tally)
        };
        refused(&with_tally(&|t| t.by_continent[1].zero += 10_000), "point masses exceed");
        refused(&with_tally(&|t| t.by_continent[1].tested += 1), "disagree with the rows");
        refused(&with_tally(&|t| t.by_continent.push(HdratioCounts::default())), "disagree");
        let bucket = tally.distinct.iter().position(|held| !held.is_empty()).unwrap();
        let entry = *tally.distinct[bucket].keys().next().unwrap();
        let count = |n: u64| with_tally(&|t| *t.distinct[bucket].get_mut(&entry).unwrap() = n);
        refused(&count(0), "no bucket's");
        refused(&count(10_000), "exceed");
        let nan_key = f64::NAN.to_bits().rotate_left(32);
        refused(
            &with_tally(&|t| {
                t.distinct[0].insert(nan_key, 1);
            }),
            "no bucket's",
        );
        // The entries as bytes, edited, the checksum made anew.
        let with_entries = |edit: &dyn Fn(&mut [u8])| {
            let mut image = image_of(rows, words, tally);
            let (at, body) =
                (image.len() - 8 - ENTRY_BYTES * tally.distinct_hdratios(), image.len() - 8);
            edit(&mut image[at..body]);
            resummed(image)
        };
        // The last entry in a fifth bucket, which keeps the order.
        let last = ENTRY_BYTES * (tally.distinct_hdratios() - 1);
        refused(&with_entries(&|entries| entries[last] = 4), "no bucket's");
        // Entries out of order: the first two swapped.
        let swapped = with_entries(&|entries| {
            let first: Vec<u8> = entries[..ENTRY_BYTES].to_vec();
            entries.copy_within(ENTRY_BYTES..2 * ENTRY_BYTES, 0);
            entries[ENTRY_BYTES..2 * ENTRY_BYTES].copy_from_slice(&first);
        });
        refused(&swapped, "entry 1 is out of order");
    }

    impl ColumnarSink {
        /// The MinRTTs `shard` keeps, cell by cell, as a sink of it reads them.
        fn rows_of(&self, shard: &ColumnarShard) -> Vec<f64> {
            let mut sink = ColumnarSink::new(self.n_windows);
            sink.merge_shard(self.decode_shard(&encoded(shard)).expect("decodes"));
            sink.rows().map(|(_, v)| v).collect()
        }
    }
}
