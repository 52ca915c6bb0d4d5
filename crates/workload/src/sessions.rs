//! Session plan generation (paper §2.3).
//!
//! Sessions are drawn from four archetypes whose mixture reproduces the
//! paper's published traffic shape:
//!
//! | archetype | transactions | sizes | role |
//! |---|---|---|---|
//! | quick API | 1–2 | small | the "7.4% of sessions end within 1 s" mass |
//! | interactive | few, spread out | small/medium | idle-dominated browse |
//! | media browse | 5–30 | ≈19 kB median | image/photo endpoints |
//! | video stream | 50–300 chunks | 30–500 kB | the ≥50-transaction sessions carrying >half of all bytes |
//!
//! The HTTP version tilts the mixture: HTTP/1.1 browsers open several
//! parallel connections so each carries fewer transactions and ends
//! sooner; HTTP/2 multiplexes everything onto one longer-lived session.

use crate::distributions::{exponential, LogNormal, Pareto};
use edgeperf_core::{HttpVersion, Nanos, MILLISECOND, SECOND};
use rand::Rng;
use rand_chacha::ChaCha12Rng;

/// What kind of endpoint a session talks to (drives response sizes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EndpointKind {
    /// Dynamic content: API responses, rendered HTML.
    Api,
    /// Images and photos.
    Media,
    /// Streaming video segments.
    Video,
}

/// One planned response write.
#[derive(Debug, Clone, Copy)]
pub struct TxnPlan {
    /// Offset from session start at which the response is written.
    pub offset: Nanos,
    /// Response size in bytes.
    pub bytes: u64,
}

/// A timed schedule of response writes for one session.
#[derive(Debug, Clone)]
pub struct SessionPlan {
    /// HTTP version of the session.
    pub http: HttpVersion,
    /// Endpoint kind (media responses feed Figure 2's "media" series).
    pub endpoint: EndpointKind,
    /// Response writes in time order.
    pub transactions: Vec<TxnPlan>,
    /// Session duration (close of the underlying TCP connection).
    pub duration: Nanos,
}

impl SessionPlan {
    /// Total planned bytes.
    pub fn total_bytes(&self) -> u64 {
        self.transactions.iter().map(|t| t.bytes).sum()
    }
}

/// Tunables for the generator. Defaults reproduce §2.3; a study's
/// checkpoint records every field, as each one moves every session.
///
/// # Example
///
/// ```
/// use edgeperf_workload::WorkloadConfig;
/// use rand::SeedableRng;
/// let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(1);
/// let plan = WorkloadConfig::default().generate(&mut rng);
/// assert!(!plan.transactions.is_empty());
/// assert!(plan.duration >= plan.transactions.last().unwrap().offset);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct WorkloadConfig {
    /// Fraction of sessions using HTTP/2.
    pub h2_fraction: f64,
    /// Median API/dynamic response size (bytes).
    pub api_median_bytes: f64,
    /// Median media response size (bytes; the paper reports ≈19 kB).
    pub media_median_bytes: f64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            h2_fraction: 0.55,
            api_median_bytes: 2_500.0,
            media_median_bytes: 19_000.0,
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Archetype {
    Quick,
    Interactive,
    MediaBrowse,
    VideoStream,
}

impl WorkloadConfig {
    /// Generate one session plan.
    pub fn generate(&self, rng: &mut ChaCha12Rng) -> SessionPlan {
        let http =
            if rng.gen::<f64>() < self.h2_fraction { HttpVersion::H2 } else { HttpVersion::H1 };
        let archetype = self.pick_archetype(http, rng);
        match archetype {
            Archetype::Quick => self.quick(http, rng),
            Archetype::Interactive => self.interactive(http, rng),
            Archetype::MediaBrowse => self.media_browse(http, rng),
            Archetype::VideoStream => self.video_stream(http, rng),
        }
    }

    fn pick_archetype(&self, http: HttpVersion, rng: &mut ChaCha12Rng) -> Archetype {
        let u = rng.gen::<f64>();
        match http {
            // H1: several parallel short connections per page.
            HttpVersion::H1 => {
                if u < 0.45 {
                    Archetype::Quick
                } else if u < 0.95 {
                    Archetype::Interactive
                } else if u < 0.998 {
                    Archetype::MediaBrowse
                } else {
                    Archetype::VideoStream
                }
            }
            // H2: one multiplexed, longer-lived connection.
            HttpVersion::H2 => {
                if u < 0.24 {
                    Archetype::Quick
                } else if u < 0.82 {
                    Archetype::Interactive
                } else if u < 0.983 {
                    Archetype::MediaBrowse
                } else {
                    Archetype::VideoStream
                }
            }
        }
    }

    fn api_size(&self, rng: &mut ChaCha12Rng) -> u64 {
        let d = LogNormal::from_median(self.api_median_bytes, 1.1);
        (d.sample(rng).clamp(120.0, 2e6)) as u64
    }

    fn media_size(&self, rng: &mut ChaCha12Rng) -> u64 {
        let d = LogNormal::from_median(self.media_median_bytes, 1.3);
        (d.sample(rng).clamp(500.0, 8e6)) as u64
    }

    fn video_chunk(&self, rng: &mut ChaCha12Rng) -> u64 {
        // ~2 s segments at 0.5–4 Mbps → roughly 80 kB median chunks.
        let d = LogNormal::from_median(80_000.0, 0.8);
        (d.sample(rng).clamp(15_000.0, 2e6)) as u64
    }

    fn quick(&self, http: HttpVersion, rng: &mut ChaCha12Rng) -> SessionPlan {
        let n = if rng.gen::<f64>() < 0.75 { 1 } else { 2 };
        let mut txns = Vec::with_capacity(n);
        let mut t = (20.0 * MILLISECOND as f64) as Nanos;
        for _ in 0..n {
            txns.push(TxnPlan { offset: t, bytes: self.api_size(rng) });
            t += exponential(rng, 0.15 * SECOND as f64) as Nanos;
        }
        // Many quick sessions close almost immediately; some linger.
        let tail = if rng.gen::<f64>() < 0.4 {
            exponential(rng, 0.4 * SECOND as f64) as Nanos
        } else {
            exponential(rng, 120.0 * SECOND as f64) as Nanos
        };
        SessionPlan { http, endpoint: EndpointKind::Api, duration: t + tail, transactions: txns }
    }

    fn interactive(&self, http: HttpVersion, rng: &mut ChaCha12Rng) -> SessionPlan {
        let n = 2 + (Pareto::new(1.0, 1.4).sample(rng) as usize).min(10);
        let mut txns = Vec::with_capacity(n);
        let mut t = (30.0 * MILLISECOND as f64) as Nanos;
        for i in 0..n {
            let bytes =
                if rng.gen::<f64>() < 0.15 { self.media_size(rng) } else { self.api_size(rng) };
            txns.push(TxnPlan { offset: t, bytes });
            // Bursts within a page view, think time between views.
            let gap = if i % 3 == 2 {
                exponential(rng, 45.0 * SECOND as f64)
            } else {
                exponential(rng, 0.8 * SECOND as f64)
            };
            t += gap as Nanos;
        }
        let tail = exponential(rng, 100.0 * SECOND as f64) as Nanos;
        SessionPlan { http, endpoint: EndpointKind::Api, duration: t + tail, transactions: txns }
    }

    fn media_browse(&self, http: HttpVersion, rng: &mut ChaCha12Rng) -> SessionPlan {
        let n = 5 + (Pareto::new(2.0, 1.3).sample(rng) as usize).min(20);
        let mut txns = Vec::with_capacity(n);
        let mut t = (30.0 * MILLISECOND as f64) as Nanos;
        for i in 0..n {
            txns.push(TxnPlan { offset: t, bytes: self.media_size(rng) });
            // Images load in bursts (scrolling), pauses between.
            let gap = if i % 4 == 3 {
                exponential(rng, 12.0 * SECOND as f64)
            } else {
                exponential(rng, 0.12 * SECOND as f64)
            };
            t += gap as Nanos;
        }
        let tail = exponential(rng, 20.0 * SECOND as f64) as Nanos;
        SessionPlan { http, endpoint: EndpointKind::Media, duration: t + tail, transactions: txns }
    }

    fn video_stream(&self, http: HttpVersion, rng: &mut ChaCha12Rng) -> SessionPlan {
        let n = 40 + (Pareto::new(10.0, 1.1).sample(rng) as usize).min(200);
        let mut txns = Vec::with_capacity(n);
        let mut t = (50.0 * MILLISECOND as f64) as Nanos;
        for _ in 0..n {
            txns.push(TxnPlan { offset: t, bytes: self.video_chunk(rng) });
            // Steady chunk cadence (player buffer refill).
            t += (2.0 * SECOND as f64 + exponential(rng, 1.5 * SECOND as f64)) as Nanos;
        }
        SessionPlan {
            http,
            endpoint: EndpointKind::Video,
            duration: t + (5 * SECOND),
            transactions: txns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn sessions(n: usize) -> Vec<SessionPlan> {
        let cfg = WorkloadConfig::default();
        let mut rng = ChaCha12Rng::seed_from_u64(2024);
        (0..n).map(|_| cfg.generate(&mut rng)).collect()
    }

    #[test]
    fn median_response_size_is_small() {
        // §2.3: over 50% of responses are fewer than 6 kB.
        let ss = sessions(5_000);
        let mut sizes: Vec<u64> =
            ss.iter().flat_map(|s| s.transactions.iter().map(|t| t.bytes)).collect();
        sizes.sort_unstable();
        let med = sizes[sizes.len() / 2];
        assert!(med < 10_000, "median response = {med}");
        assert!(med > 1_000, "median response = {med}");
    }

    #[test]
    fn most_sessions_transfer_little() {
        // §2.3: over 58% of sessions transfer fewer than 10 kB — allow a
        // loose band around that.
        let ss = sessions(5_000);
        let small = ss.iter().filter(|s| s.total_bytes() < 10_000).count();
        let frac = small as f64 / ss.len() as f64;
        assert!(frac > 0.35 && frac < 0.75, "frac small sessions = {frac}");
    }

    #[test]
    fn heavy_sessions_carry_most_bytes() {
        // §2.3: sessions with ≥50 transactions carry >half of traffic.
        let ss = sessions(5_000);
        let total: u64 = ss.iter().map(|s| s.total_bytes()).sum();
        let heavy: u64 =
            ss.iter().filter(|s| s.transactions.len() >= 50).map(|s| s.total_bytes()).sum();
        let frac = heavy as f64 / total as f64;
        assert!(frac > 0.4, "heavy-session byte share = {frac}");
    }

    #[test]
    fn most_sessions_have_few_transactions() {
        // Fig 3: >80% of sessions have fewer than 5 transactions… loosely.
        let ss = sessions(5_000);
        let few = ss.iter().filter(|s| s.transactions.len() < 5).count();
        let frac = few as f64 / ss.len() as f64;
        assert!(frac > 0.55, "few-txn fraction = {frac}");
    }

    #[test]
    fn h2_sessions_have_more_transactions_on_average() {
        let ss = sessions(10_000);
        let avg = |v: Vec<usize>| v.iter().sum::<usize>() as f64 / v.len().max(1) as f64;
        let h1: Vec<usize> =
            ss.iter().filter(|s| s.http == HttpVersion::H1).map(|s| s.transactions.len()).collect();
        let h2: Vec<usize> =
            ss.iter().filter(|s| s.http == HttpVersion::H2).map(|s| s.transactions.len()).collect();
        assert!(avg(h2) > avg(h1));
    }

    #[test]
    fn h1_sessions_end_sooner() {
        // Fig 1a: 44% of HTTP/1.1 sessions end within a minute vs 26% of
        // HTTP/2 — check the ordering, not the exact numbers.
        let ss = sessions(10_000);
        let under_min = |v: HttpVersion| {
            let (n, tot) = ss
                .iter()
                .filter(|s| s.http == v)
                .fold((0, 0), |(n, t), s| (n + usize::from(s.duration < 60 * SECOND), t + 1));
            n as f64 / tot as f64
        };
        assert!(under_min(HttpVersion::H1) > under_min(HttpVersion::H2));
    }

    #[test]
    fn some_sessions_are_subsecond_and_some_long() {
        let ss = sessions(10_000);
        let sub = ss.iter().filter(|s| s.duration < SECOND).count() as f64 / ss.len() as f64;
        let long = ss.iter().filter(|s| s.duration > 180 * SECOND).count() as f64 / ss.len() as f64;
        assert!(sub > 0.02 && sub < 0.25, "sub-second fraction = {sub}");
        assert!(long > 0.05 && long < 0.45, "3-minute fraction = {long}");
    }

    #[test]
    fn transactions_are_time_ordered_within_duration() {
        for s in sessions(500) {
            let mut prev = 0;
            for t in &s.transactions {
                assert!(t.offset >= prev);
                prev = t.offset;
            }
            assert!(s.duration >= prev, "duration covers all transactions");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = WorkloadConfig::default();
        let gen = |seed| {
            let mut rng = ChaCha12Rng::seed_from_u64(seed);
            let s = cfg.generate(&mut rng);
            (s.transactions.len(), s.total_bytes(), s.duration)
        };
        assert_eq!(gen(7), gen(7));
        assert_ne!(gen(7), gen(8));
    }

    #[test]
    fn media_sessions_have_media_sizes() {
        let ss = sessions(5_000);
        let media: Vec<&SessionPlan> =
            ss.iter().filter(|s| s.endpoint == EndpointKind::Media).collect();
        assert!(!media.is_empty());
        let mut sizes: Vec<u64> =
            media.iter().flat_map(|s| s.transactions.iter().map(|t| t.bytes)).collect();
        sizes.sort_unstable();
        let med = sizes[sizes.len() / 2];
        // Paper: media median ≈ 19 kB.
        assert!(med > 10_000 && med < 35_000, "media median = {med}");
    }
}
