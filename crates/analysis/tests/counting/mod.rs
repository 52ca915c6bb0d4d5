//! A counting global allocator for footprint tests: heap bytes counted
//! exactly, on one thread (or, asked to, on all of them). A test binary
//! that declares `mod counting;` (from another crate: `#[path]` to this
//! file) runs under it, and must hold a single `#[test]` — parallel tests
//! would share the counters.

// Each test binary measures with its own subset of these.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Bytes the test thread has allocated and not freed. Relaxed: a
/// statistic, publishes nothing.
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);

/// High-water mark of [`LIVE_BYTES`] since [`peak_above`] last reset it.
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

/// The largest single request since [`largest_request`] last reset it.
static LARGEST_REQUEST: AtomicUsize = AtomicUsize::new(0);

/// Requests (allocations and growing or shrinking reallocations) the
/// test thread has made.
static REQUESTS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set on the test's own thread: the harness's main thread allocates
    /// while the test runs, and must not be counted.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

/// Set by a test whose subject allocates on threads of its own.
static EVERY_THREAD: AtomicBool = AtomicBool::new(false);

/// Count the calling thread's allocations from here on.
pub fn count_this_thread() {
    COUNTED.set(true);
}

/// Count every thread's allocations from here on: for a subject that
/// spawns workers, and frees on one thread what another allocated. The
/// idle harness thread is then counted too — a few hundred bytes.
pub fn count_every_thread() {
    EVERY_THREAD.store(true, Ordering::Relaxed);
}

fn counted() -> bool {
    EVERY_THREAD.load(Ordering::Relaxed) || COUNTED.try_with(Cell::get).unwrap_or(false)
}

fn grew(by: usize) {
    if counted() {
        let live = LIVE_BYTES.fetch_add(by, Ordering::Relaxed) + by;
        PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
        LARGEST_REQUEST.fetch_max(by, Ordering::Relaxed);
        REQUESTS.fetch_add(1, Ordering::Relaxed);
    }
}

fn shrank(by: usize) {
    if counted() {
        LIVE_BYTES.fetch_sub(by, Ordering::Relaxed);
    }
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator
// state, and the thread-local they read has no destructor and so never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller guarantees `layout` has non-zero size.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        shrank(layout.size());
        grew(new_size);
        // SAFETY: as for `dealloc`; the caller guarantees `new_size` > 0.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Heap bytes `build`'s value holds once built.
pub fn heap_of<T>(build: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    let value = build();
    (value, LIVE_BYTES.load(Ordering::Relaxed).saturating_sub(before))
}

/// `run`'s value, the heap it holds, and how far above that the heap
/// peaked while `run` ran.
pub fn peak_above<T>(run: impl FnOnce() -> T) -> (T, usize, usize) {
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(before, Ordering::Relaxed);
    let value = run();
    let held = LIVE_BYTES.load(Ordering::Relaxed).saturating_sub(before);
    (value, held, PEAK_BYTES.load(Ordering::Relaxed) - before - held)
}

/// `run`'s value and the largest single allocation it asked for.
pub fn largest_request<T>(run: impl FnOnce() -> T) -> (T, usize) {
    LARGEST_REQUEST.store(0, Ordering::Relaxed);
    let value = run();
    (value, LARGEST_REQUEST.load(Ordering::Relaxed))
}

/// `run`'s value and how many times it asked the allocator for memory.
pub fn requests<T>(run: impl FnOnce() -> T) -> (T, usize) {
    let before = REQUESTS.load(Ordering::Relaxed);
    let value = run();
    (value, REQUESTS.load(Ordering::Relaxed) - before)
}
