//! Span recording for the traced pass: a preallocated in-memory buffer of
//! `(name, start, end, parent, id)` written out once at the end. A layer's
//! self time is its spans' duration minus what their child spans cover.
//!
//! The spans are recorded here, in the benchmark's own files, around the
//! calls into each layer's public functions; spans inside the server are a
//! later change (ROADMAP item 5).

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Handle of a span that has begun. [`Open::NONE`] when recording is paused
/// or the buffer is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Open(u32);

impl Open {
    pub const NONE: Open = Open(u32::MAX);
}

#[derive(Debug, Clone, Copy)]
struct Span {
    name: u16,
    parent: u32,
    /// Lap, batch, window or query number: spans of one unit of work share it.
    id: u64,
    start_ns: u64,
    end_ns: u64,
}

/// Count, total and self time of every span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    pub spans: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct Tracer {
    spans: Vec<Span>,
    /// While set, every call is a branch and a return — the same probe code
    /// then runs untraced, which is how the tracing overhead is measured.
    paused: bool,
    names: Vec<&'static str>,
    epoch: Instant,
    /// Spans not recorded because the buffer was full.
    pub dropped: u64,
}

impl Tracer {
    /// A tracer with room for `capacity` spans, allocated up front so that
    /// recording never allocates.
    pub fn new(capacity: usize) -> Tracer {
        Tracer {
            spans: Vec::with_capacity(capacity),
            paused: false,
            names: Vec::new(),
            epoch: Instant::now(),
            dropped: 0,
        }
    }

    pub fn set_paused(&mut self, paused: bool) {
        self.paused = paused;
    }

    pub fn recording(&self) -> bool {
        !self.paused
    }

    /// Intern a span name; do this outside the timed loop.
    pub fn name(&mut self, name: &'static str) -> u16 {
        match self.names.iter().position(|n| *n == name) {
            Some(i) => i as u16,
            None => {
                self.names.push(name);
                (self.names.len() - 1) as u16
            }
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: u16, parent: Open, id: u64) -> Open {
        if self.paused {
            return Open::NONE;
        }
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return Open::NONE;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span { name, parent: parent.0, id, start_ns, end_ns: start_ns });
        Open((self.spans.len() - 1) as u32)
    }

    pub fn end(&mut self, open: Open) {
        if open != Open::NONE {
            self.spans[open.0 as usize].end_ns = self.now_ns();
        }
    }

    /// Give an open span another name, once what it covered is known.
    pub fn rename(&mut self, open: Open, name: u16) {
        if open != Open::NONE {
            self.spans[open.0 as usize].name = name;
        }
    }

    pub fn recorded(&self) -> usize {
        self.spans.len()
    }

    /// Total and self time per span name.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let spans = &self.spans;
        let mut covered = vec![0u64; spans.len()];
        for span in spans {
            if let Some(slot) = covered.get_mut(span.parent as usize) {
                *slot += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (span, covered) in spans.iter().zip(covered) {
            let total = span.end_ns - span.start_ns;
            let layer = out.entry(self.names[span.name as usize]).or_default();
            layer.spans += 1;
            layer.total_ns += total;
            layer.self_ns += total.saturating_sub(covered);
        }
        out
    }

    /// Write every span as `[name index, start ns, end ns, parent index or
    /// -1, id]` beside the name table.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        let names: Vec<String> = self.names.iter().map(|n| format!("\"{n}\"")).collect();
        write!(
            file,
            "{{\"columns\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"id\"],\
             \"dropped\":{},\"names\":[{}],\"spans\":[",
            self.dropped,
            names.join(",")
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == Open::NONE.0 { -1 } else { i64::from(s.parent) };
            let comma = if i == 0 { "" } else { "," };
            write!(file, "{comma}\n[{},{},{},{parent},{}]", s.name, s.start_ns, s.end_ns, s.id)?;
        }
        writeln!(file, "\n]}}")?;
        file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::new(8);
        let (outer, inner) = (t.name("outer"), t.name("inner"));
        assert_eq!(t.name("outer"), outer);
        let a = t.begin(outer, Open::NONE, 1);
        let b = t.begin(inner, a, 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(b);
        let c = t.begin(inner, a, 1);
        t.end(c);
        t.end(a);
        let times = t.layer_times();
        assert_eq!((times["outer"].spans, times["inner"].spans), (1, 2));
        assert_eq!(times["inner"].total_ns, times["inner"].self_ns);
        assert_eq!(times["outer"].self_ns, times["outer"].total_ns - times["inner"].total_ns);
        assert!(times["inner"].total_ns >= 2_000_000);
    }

    #[test]
    fn a_full_buffer_drops_and_counts_and_a_paused_tracer_records_nothing() {
        let mut t = Tracer::new(1);
        let name = t.name("x");
        let first = t.begin(name, Open::NONE, 0);
        let second = t.begin(name, first, 0);
        assert_eq!(second, Open::NONE);
        t.end(second);
        t.end(first);
        assert_eq!((t.recorded(), t.dropped), (1, 1));
        let mut paused = Tracer::new(1);
        paused.set_paused(true);
        let name = paused.name("x");
        assert_eq!(paused.begin(name, Open::NONE, 0), Open::NONE);
        assert!(paused.layer_times().is_empty() && !paused.recording());
    }

    #[test]
    fn the_trace_file_is_json() {
        let mut t = Tracer::new(4);
        let name = t.name("live.window.apply");
        let root = t.begin(name, Open::NONE, 9);
        let child = t.begin(name, root, 9);
        t.end(child);
        t.end(root);
        let path = std::env::temp_dir().join(format!("edgeperf-trace-{}.json", std::process::id()));
        t.write_json(&path).unwrap();
        let doc = serde_json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let _ = std::fs::remove_file(&path);
        match doc.get("spans") {
            Some(serde_json::Value::Array(spans)) => assert_eq!(spans.len(), 2),
            other => panic!("{other:?}"),
        }
    }
}
