//! Measuring a child process from outside through `/proc`: per-thread CPU
//! grouped by the server's thread names, context switches, peak RSS and
//! bytes written to storage. Parsers are split from the file reads so the
//! unit tests run on literal text.

use std::collections::HashMap;
use std::fs;

/// Kernel clock ticks per second for the `stat` CPU fields. Linux has
/// reported 100 through `sysconf(_SC_CLK_TCK)` on every architecture since
/// 2.6, whatever the kernel's own HZ.
const CLK_TCK: u64 = 100;

/// What a server thread does, by the name `edgeperf serve` gives it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// The data connection's `live-reader-N` (socket read, frame decode,
    /// route/enqueue).
    Reader,
    /// `live-worker-N` (window apply, close, detect, spill).
    Worker,
    /// `live-compactor`.
    Compactor,
    /// Everything else: main, acceptor, supervisor and the control
    /// connections' readers (snapshot and query serving).
    Other,
}

pub const ROLES: [Role; 4] = [Role::Reader, Role::Worker, Role::Compactor, Role::Other];

impl Role {
    pub fn label(self) -> &'static str {
        match self {
            Role::Reader => "reader",
            Role::Worker => "worker",
            Role::Compactor => "compactor",
            Role::Other => "other",
        }
    }
}

/// `utime + stime` and `cutime + cstime` of a `/proc/<pid>/stat` line, in
/// nanoseconds. The command name may itself contain spaces and
/// parentheses, so fields are counted from the last `)`.
pub fn parse_stat_cpu_ns(stat: &str) -> Option<(u64, u64)> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime is field 14.
    let tick = |field: usize| fields.get(field - 3)?.parse::<u64>().ok();
    let ns_per_tick = 1_000_000_000 / CLK_TCK;
    Some(((tick(14)? + tick(15)?) * ns_per_tick, (tick(16)? + tick(17)?) * ns_per_tick))
}

/// Nanoseconds on CPU: the first field of a `schedstat` file.
pub fn parse_schedstat_ns(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

/// The value of a `Key:\tvalue [unit]` line of a `status` file.
pub fn status_field<'a>(status: &'a str, key: &str) -> Option<&'a str> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))
        .map(|v| v.trim().trim_end_matches(" kB"))
}

fn status_u64(status: &str, key: &str) -> Option<u64> {
    status_field(status, key)?.parse().ok()
}

/// Role of a thread called `comm` when `data_reader` is the name of the
/// data connection's reader thread.
pub fn role_of(comm: &str, data_reader: Option<&str>) -> Role {
    if Some(comm) == data_reader {
        Role::Reader
    } else if comm.starts_with("live-worker-") {
        Role::Worker
    } else if comm == "live-compactor" {
        Role::Compactor
    } else {
        Role::Other
    }
}

/// The `live-reader-N` with the largest `N`: connections are numbered in
/// accept order and every workload opens its data connection last.
pub fn newest_reader<'a>(comms: impl Iterator<Item = &'a str>) -> Option<&'a str> {
    comms
        .filter_map(|c| Some((c.strip_prefix("live-reader-")?.parse::<u64>().ok()?, c)))
        .max_by_key(|(n, _)| *n)
        .map(|(_, c)| c)
}

#[derive(Debug, Clone)]
pub struct ThreadSample {
    pub comm: String,
    pub cpu_ns: u64,
    pub ctx_switches: u64,
}

/// One reading of a live process.
#[derive(Debug, Clone, Default)]
pub struct ProcSample {
    pub threads: HashMap<u64, ThreadSample>,
    pub hwm_kb: u64,
    /// Bytes the process caused to be written to the storage layer.
    pub write_bytes: u64,
}

/// Read every thread of `pid`. Threads that vanish between the directory
/// listing and the reads are skipped.
pub fn sample(pid: u32) -> std::io::Result<ProcSample> {
    let mut out = ProcSample::default();
    for entry in fs::read_dir(format!("/proc/{pid}/task"))? {
        let dir = entry?.path();
        let Some(tid) = dir.file_name().and_then(|n| n.to_str()).and_then(|n| n.parse().ok())
        else {
            continue;
        };
        let Ok(status) = fs::read_to_string(dir.join("status")) else { continue };
        // schedstat counts nanoseconds; `stat` only 10 ms ticks, and on a
        // tick-sampled kernel it misattributes threads that wake often.
        let cpu_ns = fs::read_to_string(dir.join("schedstat"))
            .ok()
            .and_then(|t| parse_schedstat_ns(&t))
            .or_else(|| Some(parse_stat_cpu_ns(&fs::read_to_string(dir.join("stat")).ok()?)?.0));
        let Some(cpu_ns) = cpu_ns else { continue };
        out.threads.insert(
            tid,
            ThreadSample {
                comm: status_field(&status, "Name").unwrap_or("").to_string(),
                cpu_ns,
                ctx_switches: status_u64(&status, "voluntary_ctxt_switches").unwrap_or(0)
                    + status_u64(&status, "nonvoluntary_ctxt_switches").unwrap_or(0),
            },
        );
    }
    let status = fs::read_to_string(format!("/proc/{pid}/status"))?;
    out.hwm_kb = status_u64(&status, "VmHWM").unwrap_or(0);
    // Unreadable under some sandboxes; write amplification is then absent.
    out.write_bytes = fs::read_to_string(format!("/proc/{pid}/io"))
        .ok()
        .and_then(|io| status_u64(&io, "write_bytes"))
        .unwrap_or(0);
    Ok(out)
}

/// CPU and context switches between two readings, per role and in total.
#[derive(Debug, Clone, Default)]
pub struct ProcDelta {
    pub cpu_ns: HashMap<Role, u64>,
    pub total_cpu_ns: u64,
    pub ctx_switches: u64,
}

impl ProcDelta {
    /// Threads are matched by id; one that started inside the interval
    /// counts from zero, one that ended inside it is lost (no workload
    /// closes a connection inside a measured phase).
    pub fn between(before: &ProcSample, after: &ProcSample) -> ProcDelta {
        let data_reader = newest_reader(after.threads.values().map(|t| t.comm.as_str()));
        let mut delta = ProcDelta::default();
        for (tid, now) in &after.threads {
            let then = before.threads.get(tid);
            let cpu = now.cpu_ns.saturating_sub(then.map_or(0, |t| t.cpu_ns));
            *delta.cpu_ns.entry(role_of(&now.comm, data_reader)).or_insert(0) += cpu;
            delta.total_cpu_ns += cpu;
            delta.ctx_switches +=
                now.ctx_switches.saturating_sub(then.map_or(0, |t| t.ctx_switches));
        }
        delta
    }

    pub fn role_ns(&self, role: Role) -> u64 {
        self.cpu_ns.get(&role).copied().unwrap_or(0)
    }
}

/// CPU this process has charged for children it has waited for, in
/// nanoseconds (`cutime + cstime` of `/proc/self/stat`).
pub fn waited_children_cpu_ns() -> Option<u64> {
    Some(parse_stat_cpu_ns(&fs::read_to_string("/proc/self/stat").ok()?)?.1)
}

/// `VmHWM` of a running process in kB.
pub fn hwm_kb(pid: u32) -> Option<u64> {
    status_u64(&fs::read_to_string(format!("/proc/{pid}/status")).ok()?, "VmHWM")
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (live worker) 0) S 1 4242 4242 0 -1 4194304 83 0 0 0 \
                        150 25 7 3 20 0 5 0 305544 2703360 283 18446744073709551615";

    #[test]
    fn stat_cpu_survives_parentheses_in_the_name() {
        assert_eq!(parse_stat_cpu_ns(STAT), Some((1_750_000_000, 100_000_000)));
        assert_eq!(parse_stat_cpu_ns("1 (x) S 1 2"), None);
        assert_eq!(parse_stat_cpu_ns("garbage"), None);
    }

    #[test]
    fn schedstat_takes_the_first_field() {
        assert_eq!(parse_schedstat_ns("491402443 30628258 50\n"), Some(491_402_443));
        assert_eq!(parse_schedstat_ns(""), None);
    }

    #[test]
    fn status_fields_drop_the_unit() {
        let status = "Name:\tlive-worker-1\nVmHWM:\t  123456 kB\nCpus_allowed_list:\t0-1\n\
                      voluntary_ctxt_switches:\t17\nnonvoluntary_ctxt_switches:\t4\n";
        assert_eq!(status_field(status, "Name"), Some("live-worker-1"));
        assert_eq!(status_u64(status, "VmHWM"), Some(123_456));
        assert_eq!(status_field(status, "Cpus_allowed_list"), Some("0-1"));
        assert_eq!(status_u64(status, "voluntary_ctxt_switches"), Some(17));
        assert_eq!(status_field(status, "VmRSS"), None);
        assert_eq!(status_u64("rchar: 9\nwrite_bytes: 4096\n", "write_bytes"), Some(4096));
    }

    #[test]
    fn only_the_newest_reader_is_the_data_reader() {
        let comms = ["live-reader-0", "live-reader-10", "live-reader-2", "live-worker-0"];
        let data = newest_reader(comms.iter().copied());
        assert_eq!(data, Some("live-reader-10"));
        assert_eq!(role_of("live-reader-10", data), Role::Reader);
        assert_eq!(role_of("live-reader-2", data), Role::Other);
        assert_eq!(role_of("live-worker-1", data), Role::Worker);
        assert_eq!(role_of("live-compactor", data), Role::Compactor);
        assert_eq!(role_of("live-acceptor", data), Role::Other);
    }

    #[test]
    fn deltas_sum_to_the_total_by_construction() {
        let thread = |comm: &str, cpu_ns, ctx_switches| ThreadSample {
            comm: comm.to_string(),
            cpu_ns,
            ctx_switches,
        };
        let mut before = ProcSample::default();
        before.threads.insert(1, thread("edgeperf", 10, 1));
        before.threads.insert(2, thread("live-worker-0", 100, 5));
        before.threads.insert(3, thread("live-reader-0", 7, 2));
        let mut after = before.clone();
        after.threads.insert(2, thread("live-worker-0", 400, 9));
        after.threads.insert(3, thread("live-reader-0", 9, 3));
        after.threads.insert(4, thread("live-reader-1", 50, 6));
        let d = ProcDelta::between(&before, &after);
        assert_eq!(d.role_ns(Role::Worker), 300);
        assert_eq!(d.role_ns(Role::Reader), 50);
        assert_eq!(d.role_ns(Role::Other), 2);
        assert_eq!(d.role_ns(Role::Compactor), 0);
        assert_eq!(ROLES.iter().map(|r| d.role_ns(*r)).sum::<u64>(), d.total_cpu_ns);
        assert_eq!(d.ctx_switches, 4 + 1 + 6);
    }

    #[test]
    fn own_process_can_be_sampled() {
        let s = sample(std::process::id()).expect("own /proc is readable");
        assert!(!s.threads.is_empty());
        assert!(s.hwm_kb > 0);
        assert!(waited_children_cpu_ns().is_some());
    }
}
