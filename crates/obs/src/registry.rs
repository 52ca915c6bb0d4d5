//! The metrics registry and its recording handles.
//!
//! Design: a [`Registry`] owns name → `Arc<atomic storage>` maps behind
//! mutexes. Handles ([`Counter`], [`Gauge`], [`Histogram`]) clone the
//! `Arc` out once, so the hot path — recording — is mutex-free relaxed
//! atomics. Workers that share a registry therefore never serialize on a
//! lock to record; they only contend on the cache line of metrics they
//! actually share. Spans are coarse (per phase, not per record), so span
//! closes take a short mutex on the per-name aggregate map.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Number of log₂ buckets a histogram holds: `u64` values bucket by
/// `floor(log2(value))`, so 64 buckets cover the full range.
pub(crate) const HISTOGRAM_BUCKETS: usize = 64;

/// Bucket index of `value`: bucket 0 covers `[0, 2)`, bucket *i* ≥ 1
/// covers `[2^i, 2^(i+1))`.
pub(crate) fn bucket_index(value: u64) -> usize {
    (63 - (value | 1).leading_zeros()) as usize
}

/// Atomic storage behind one histogram.
#[derive(Debug)]
pub(crate) struct HistogramCore {
    pub(crate) buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    pub(crate) count: AtomicU64,
    pub(crate) sum: AtomicU64,
    pub(crate) min: AtomicU64,
    pub(crate) max: AtomicU64,
}

impl Default for HistogramCore {
    fn default() -> Self {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl HistogramCore {
    fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }
}

/// Per-name span aggregate: how many times the phase ran and for how long.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SpanAgg {
    pub(crate) count: u64,
    pub(crate) total_ns: u64,
}

/// The backing store of one observability domain (typically one per
/// process run). Usually reached through a [`Metrics`] handle.
#[derive(Debug, Default)]
pub struct Registry {
    pub(crate) counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    pub(crate) gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    pub(crate) histograms: Mutex<BTreeMap<String, Arc<HistogramCore>>>,
    pub(crate) spans: Mutex<BTreeMap<String, SpanAgg>>,
}

impl Registry {
    fn record_span(&self, name: &str, elapsed_ns: u64) {
        let mut spans = self.spans.lock().expect("span map poisoned");
        let agg = spans.entry(name.to_string()).or_default();
        agg.count += 1;
        agg.total_ns += elapsed_ns;
    }
}

/// A monotonic event counter. Cloning shares the underlying atomic; a
/// counter from a disabled [`Metrics`] is a no-op.
#[derive(Debug, Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// Add `n` events.
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Add one event.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Raise the count to `total` (a running total kept elsewhere).
    pub fn raise_to(&self, total: u64) {
        if let Some(c) = &self.0 {
            c.fetch_max(total, Ordering::Relaxed);
        }
    }
}

/// A last-write-wins `f64` value (stored as bits in an atomic).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    /// Set the gauge.
    pub fn set(&self, value: f64) {
        if let Some(g) = &self.0 {
            g.store(value.to_bits(), Ordering::Relaxed);
        }
    }
}

/// A log₂-bucketed distribution of `u64` samples (by convention
/// nanoseconds; name such metrics with a `_ns` suffix).
#[derive(Debug, Clone, Default)]
pub struct Histogram(Option<Arc<HistogramCore>>);

impl Histogram {
    /// Record one sample.
    pub fn record(&self, value: u64) {
        if let Some(h) = &self.0 {
            h.record(value);
        }
    }

    /// Time `f`, recording its wall time in nanoseconds. For a disabled
    /// handle this is exactly `f()` — no clock reads.
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        match &self.0 {
            Some(h) => {
                let t0 = Instant::now();
                let r = f();
                h.record(t0.elapsed().as_nanos() as u64);
                r
            }
            None => f(),
        }
    }
}

/// Guard for one open phase span; records wall time into the registry on
/// drop. Create with [`Metrics::span`] or the [`crate::span!`] macro.
#[derive(Debug)]
pub struct SpanGuard(Option<(Arc<Registry>, String, Instant)>);

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((registry, name, start)) = self.0.take() {
            registry.record_span(&name, start.elapsed().as_nanos() as u64);
        }
    }
}

/// The cloneable observability handle the pipeline passes around.
///
/// Either *enabled* — backed by a shared [`Registry`] — or *disabled*, in
/// which case every recording operation is a no-op branch and no clock is
/// ever read. Cloning is an `Arc` clone (or a copy of `None`).
#[derive(Debug, Clone, Default)]
pub struct Metrics(Option<Arc<Registry>>);

impl Metrics {
    /// A handle backed by a fresh registry.
    pub fn enabled() -> Self {
        Metrics(Some(Arc::new(Registry::default())))
    }

    /// The no-op handle: all recording disappears.
    pub fn disabled() -> Self {
        Metrics(None)
    }

    /// True when recording actually lands anywhere. Instrumented code can
    /// use this to skip clock reads for timing-only metrics.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Resolve (registering on first use) the counter called `name`.
    pub fn counter(&self, name: &str) -> Counter {
        Counter(self.0.as_ref().map(|r| {
            let mut map = r.counters.lock().expect("counter map poisoned");
            Arc::clone(map.entry(name.to_string()).or_default())
        }))
    }

    /// Resolve (registering on first use) the gauge called `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge(self.0.as_ref().map(|r| {
            let mut map = r.gauges.lock().expect("gauge map poisoned");
            Arc::clone(map.entry(name.to_string()).or_default())
        }))
    }

    /// Resolve (registering on first use) the histogram called `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        Histogram(self.0.as_ref().map(|r| {
            let mut map = r.histograms.lock().expect("histogram map poisoned");
            Arc::clone(map.entry(name.to_string()).or_default())
        }))
    }

    /// Open a phase span; wall time records when the guard drops. Dotted
    /// names form the hierarchy (`"a.b"` is a child of `"a"`).
    pub fn span(&self, name: &str) -> SpanGuard {
        SpanGuard(self.0.as_ref().map(|r| (Arc::clone(r), name.to_string(), Instant::now())))
    }

    /// Point-in-time snapshot of everything recorded so far. Empty for a
    /// disabled handle.
    pub fn snapshot(&self) -> crate::MetricsSnapshot {
        match &self.0 {
            Some(r) => crate::snapshot::snapshot_registry(r),
            None => crate::MetricsSnapshot::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        // Bucket 0 is [0, 2); bucket i >= 1 is [2^i, 2^(i+1)).
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        for k in 2..63 {
            assert_eq!(bucket_index((1u64 << k) - 1), k - 1, "below the 2^{k} boundary");
            assert_eq!(bucket_index(1u64 << k), k, "at the 2^{k} boundary");
            assert_eq!(bucket_index((1u64 << k) + 1), k, "above the 2^{k} boundary");
        }
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn histogram_tracks_exact_min_max_and_count() {
        let m = Metrics::enabled();
        let h = m.histogram("t_ns");
        for v in [7u64, 1, 1_000_000, 42] {
            h.record(v);
        }
        let snap = m.snapshot();
        let hs = &snap.histograms["t_ns"];
        assert_eq!(hs.count, 4);
        assert_eq!(hs.min, 1.0);
        assert_eq!(hs.max, 1_000_000.0);
        assert_eq!(hs.sum, 1_000_050.0);
    }

    #[test]
    fn disabled_handles_are_inert() {
        let m = Metrics::disabled();
        assert!(!m.is_enabled());
        m.counter("x").add(5);
        m.gauge("g").set(1.0);
        m.histogram("h").record(9);
        drop(m.span("s"));
        let snap = m.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
        assert!(snap.spans.is_empty());
    }

    #[test]
    fn same_name_resolves_to_shared_storage() {
        let m = Metrics::enabled();
        let a = m.counter("n");
        let b = m.counter("n");
        a.add(2);
        b.add(3);
        assert_eq!(m.snapshot().counters["n"], 5);
        m.gauge("w").set(1.5);
        m.gauge("w").set(2.5);
        assert!((m.snapshot().gauges["w"] - 2.5).abs() < f64::EPSILON);
    }

    #[test]
    fn concurrent_recording_from_many_threads_loses_nothing() {
        // Worker threads resolve their own handles by name and hammer the
        // same counter and histogram; the registry must account for every
        // increment, exactly as the study workers rely on.
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 10_000;
        let m = Metrics::enabled();
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let m = m.clone();
                scope.spawn(move || {
                    let c = m.counter("shared.count");
                    let h = m.histogram("shared.ns");
                    for i in 0..PER_THREAD {
                        c.inc();
                        h.record(t as u64 * PER_THREAD + i + 1);
                    }
                });
            }
        });
        let snap = m.snapshot();
        let total = THREADS as u64 * PER_THREAD;
        assert_eq!(snap.counters["shared.count"], total);
        let hs = &snap.histograms["shared.ns"];
        assert_eq!(hs.count, total);
        assert_eq!(hs.min, 1.0);
        assert_eq!(hs.max, total as f64);
        // Sum of 1..=total, accumulated atomically across threads.
        assert_eq!(hs.sum, (total * (total + 1) / 2) as f64);
    }

    #[test]
    fn spans_record_on_drop_and_nest_by_name() {
        let m = Metrics::enabled();
        {
            let _outer = m.span("phase");
            let _inner = m.span("phase.step");
        }
        {
            let _again = m.span("phase");
        }
        let snap = m.snapshot();
        let phase = snap.spans.iter().find(|s| s.name == "phase").unwrap();
        let step = snap.spans.iter().find(|s| s.name == "phase.step").unwrap();
        assert_eq!(phase.count, 2);
        assert_eq!(step.count, 1);
        // The child's time rolls up into the parent; self time is what's left.
        assert!(phase.child_sec >= step.total_sec * 0.99);
        assert!(phase.self_sec <= phase.total_sec);
    }
}
