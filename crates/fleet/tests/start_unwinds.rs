//! A fleet that fails to start leaves no PoP server behind. This lives
//! alone in its own test binary: it counts the process's threads by
//! name, so no other test's servers may be running beside it.

use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

use edgeperf_core::EdgeperfError;
use edgeperf_fleet::{Fleet, FleetConfig};
use edgeperf_obs::Metrics;

/// The names of this process's threads that belong to a live server.
#[cfg(target_os = "linux")]
fn live_threads() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("task list")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim_end().to_string())
        .filter(|name| name.starts_with("live-"))
        .collect()
}

#[cfg(target_os = "linux")]
#[test]
fn a_taken_address_leaves_no_pop_running() {
    let taken = TcpListener::bind("127.0.0.1:0").expect("bind");
    let config = FleetConfig {
        pops: 3,
        workers: 1,
        addr: taken.local_addr().expect("addr").to_string(),
        ..FleetConfig::default()
    };
    let parser = |_: &str| Err(EdgeperfError::UnknownDuration);
    let started = Fleet::start(&config, Arc::new(parser), &Metrics::enabled());
    assert!(started.is_err(), "a fleet started on an address already bound");
    // A joined thread can stay listed for a moment after its join
    // returns (it leaves the task list after it wakes the joiner), so
    // poll; a server that was never stopped stays listed for good.
    let deadline = Instant::now() + Duration::from_secs(2);
    let mut left = live_threads();
    while !left.is_empty() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
        left = live_threads();
    }
    assert_eq!(left, Vec::<String>::new(), "PoP server threads outlived the failed start");
}
