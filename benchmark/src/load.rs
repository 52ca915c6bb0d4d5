//! Load generation for the live workloads: one *sender* on a binary `EPB1`
//! data connection and one *probe* on a line-protocol control connection.
//!
//! Records are encoded on the fly with the public [`encode_frame`] (no
//! multi-GB pre-render) and sent in order on a single connection, so
//! nothing is ever late. The sender logs `(records sent, time)` at every
//! socket write; the probe logs `(time, snapshot.accepted)` every 10 ms.
//! Visible lag is computed afterwards from the two logs.

use crate::child::Error;
use crate::gen::Lap;
use edgeperf::live::{encode_frame, preamble, LiveClient, FRAME_WIRE_LEN};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Records per socket write when unthrottled (~46 KiB).
const CHUNK: u64 = 1_024;

/// Probe period.
pub const PROBE_EVERY: Duration = Duration::from_millis(10);

/// How one phase offers load.
#[derive(Debug, Clone, Copy)]
pub enum Pace {
    /// Closed loop: write as fast as TCP backpressure allows for this long.
    /// The achieved rate is the sustainable rate.
    Saturate(Duration),
    /// Closed loop, fixed work: send until this many records in total have
    /// gone out on the connection.
    UntilTotal(u64),
    /// Open loop: record `i` of the phase is due at `i / rate` seconds,
    /// however slow the server is.
    Paced { rate: f64, length: Duration },
}

/// What one phase sent, on the clock shared with the probe.
#[derive(Debug, Default)]
pub struct SendLog {
    /// `(records sent on the connection so far, when that write returned)`.
    pub writes: Vec<(u64, Instant)>,
    /// For paced phases: first record of the phase, its rate and its start.
    pub schedule: Option<(u64, f64, Instant)>,
    /// How late each paced write started relative to its first record's due
    /// time, in ms.
    pub late_ms: Vec<f64>,
    /// Time spent in `encode_frame` and records encoded.
    pub encode_ns: u64,
    pub encoded: u64,
}

/// The data connection. Owns the position in the endless lap replay, so
/// consecutive phases continue one in-order stream.
pub struct Sender<'a> {
    stream: TcpStream,
    lap: &'a Lap,
    /// Records sent so far (= index of the next record).
    pub sent: u64,
    buf: Vec<u8>,
}

impl<'a> Sender<'a> {
    /// Connect and negotiate binary mode. A write the server does not take
    /// within `stall_timeout` fails the phase: a server that stalls without
    /// dying must not hang the run.
    pub fn connect(
        addr: SocketAddr,
        lap: &'a Lap,
        stall_timeout: Duration,
    ) -> std::io::Result<Sender<'a>> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_write_timeout(Some(stall_timeout))?;
        stream.write_all(&preamble())?;
        Ok(Sender {
            stream,
            lap,
            sent: 0,
            buf: Vec::with_capacity(4 * CHUNK as usize * FRAME_WIRE_LEN),
        })
    }

    fn write_records(&mut self, n: u64, log: &mut SendLog) -> std::io::Result<()> {
        self.buf.clear();
        let encode_started = Instant::now();
        for i in self.sent..self.sent + n {
            self.buf.extend_from_slice(&encode_frame(&self.lap.record_at(i)));
        }
        log.encode_ns += encode_started.elapsed().as_nanos() as u64;
        log.encoded += n;
        self.stream.write_all(&self.buf)?;
        self.sent += n;
        log.writes.push((self.sent, Instant::now()));
        Ok(())
    }

    /// Run one phase to its end.
    pub fn run(&mut self, pace: Pace) -> std::io::Result<SendLog> {
        let mut log = SendLog::default();
        let started = Instant::now();
        match pace {
            Pace::Saturate(length) => {
                while started.elapsed() < length {
                    self.write_records(CHUNK, &mut log)?;
                }
            }
            Pace::UntilTotal(total) => {
                while self.sent < total {
                    self.write_records(CHUNK.min(total - self.sent), &mut log)?;
                }
            }
            Pace::Paced { rate, length } => {
                let first = self.sent;
                let phase_total = (rate * length.as_secs_f64()) as u64;
                log.schedule = Some((first, rate, started));
                while self.sent - first < phase_total {
                    let done = self.sent - first;
                    let due = ((rate * started.elapsed().as_secs_f64()) as u64).min(phase_total);
                    if due <= done {
                        std::thread::sleep(Duration::from_micros(250));
                        continue;
                    }
                    let late = started.elapsed().as_secs_f64() - done as f64 / rate;
                    log.late_ms.push(late * 1e3);
                    self.write_records((due - done).min(4 * CHUNK), &mut log)?;
                }
            }
        }
        Ok(log)
    }
}

/// One probe reading.
#[derive(Debug, Clone, Copy)]
pub struct ProbeSample {
    pub asked: Instant,
    pub replied: Instant,
    pub accepted: u64,
}

/// Poll `snapshot` every [`PROBE_EVERY`] until `stop` is set.
pub fn probe_until(client: &mut LiveClient, stop: &AtomicBool) -> Result<Vec<ProbeSample>, Error> {
    let mut samples = Vec::new();
    while !stop.load(Ordering::Acquire) {
        let asked = Instant::now();
        let accepted = client.snapshot()?.accepted;
        samples.push(ProbeSample { asked, replied: Instant::now(), accepted });
        std::thread::sleep(PROBE_EVERY.saturating_sub(asked.elapsed()));
    }
    Ok(samples)
}

/// Poll `snapshot` until the server has applied `sent` records; returns
/// when the reply that showed it arrived.
pub fn wait_accepted(
    client: &mut LiveClient,
    sent: u64,
    timeout: Duration,
) -> Result<Instant, Error> {
    let deadline = Instant::now() + timeout;
    loop {
        let snap = client.snapshot()?;
        if snap.accepted + snap.rejected >= sent {
            return Ok(Instant::now());
        }
        if Instant::now() >= deadline {
            return Err(format!(
                "server applied {} of {sent} records within {timeout:?}",
                snap.accepted
            )
            .into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Visible lag per probe reading, in ms, and the largest backlog seen.
///
/// Lag of a reading is its reply time minus the time the first record the
/// server had *not* yet applied was sent — in a paced phase the time it
/// was *due*, so a stalled generator or a blocked socket counts against
/// the server's visibility, not for it. Readings that found nothing
/// outstanding are skipped.
pub fn visible_lag_ms(log: &SendLog, probes: &[ProbeSample]) -> (Vec<f64>, u64) {
    let mut lags = Vec::with_capacity(probes.len());
    let mut backlog_max = 0;
    for p in probes {
        // Records written before the reply arrived.
        let written = log
            .writes
            .partition_point(|(_, at)| *at <= p.replied)
            .checked_sub(1)
            .map(|i| log.writes[i].0);
        let sent_at = match log.schedule {
            Some((first, rate, started)) => {
                let due_count = first + (rate * (p.replied - started).as_secs_f64()) as u64;
                (p.accepted >= first && p.accepted < due_count).then(|| {
                    backlog_max = backlog_max.max(due_count - p.accepted);
                    started + Duration::from_secs_f64((p.accepted - first) as f64 / rate)
                })
            }
            None => written.filter(|w| *w > p.accepted).map(|w| {
                backlog_max = backlog_max.max(w - p.accepted);
                log.writes[log.writes.partition_point(|(sent, _)| *sent <= p.accepted)].1
            }),
        };
        if let Some(sent_at) = sent_at {
            lags.push(p.replied.saturating_duration_since(sent_at).as_secs_f64() * 1e3);
        }
    }
    (lags, backlog_max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{Shape, DENSE};

    #[test]
    fn a_peer_that_stops_reading_fails_the_phase_instead_of_hanging_it() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let lap = Lap::generate(Shape { records_per_window: 9_000, ..DENSE }, 1);
        let stall = Duration::from_millis(100);
        let mut sender = Sender::connect(listener.local_addr().unwrap(), &lap, stall).unwrap();
        // Accepted and held open, never read: the socket buffers fill.
        let _peer = listener.accept().unwrap();
        let error = sender.run(Pace::UntilTotal(u64::MAX)).unwrap_err();
        assert!(
            matches!(error.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut),
            "{error}"
        );
    }

    #[test]
    fn saturated_lag_counts_from_the_write_that_carried_the_record() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let log = SendLog {
            writes: vec![(100, at(10)), (200, at(20)), (300, at(30))],
            ..SendLog::default()
        };
        let probe = |ms, accepted| ProbeSample { asked: at(ms), replied: at(ms), accepted };
        // Record 150 rode the write at 20 ms; the reading is 15 ms later.
        let (lags, backlog) = visible_lag_ms(&log, &[probe(35, 150), probe(40, 300), probe(5, 0)]);
        assert_eq!(lags.len(), 1, "nothing outstanding at 40 ms, nothing written at 5 ms");
        assert!((lags[0] - 15.0).abs() < 1e-6);
        assert_eq!(backlog, 150);
    }

    #[test]
    fn paced_lag_counts_from_when_the_record_was_due() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        // 1000 rec/s from record 500 on: record 500 + k is due at k ms.
        let log = SendLog { schedule: Some((500, 1_000.0, t0)), ..SendLog::default() };
        let probe = |ms, accepted| ProbeSample { asked: at(ms), replied: at(ms), accepted };
        let (lags, backlog) = visible_lag_ms(&log, &[probe(100, 560), probe(100, 600)]);
        assert_eq!(lags.len(), 1, "everything due was applied in the second reading");
        assert!((lags[0] - 40.0).abs() < 1e-6);
        assert_eq!(backlog, 40);
    }
}
