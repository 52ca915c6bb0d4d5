//! A counting wrapper around the system allocator, so that probes can
//! report heap bytes per cell exactly instead of inferring them from RSS.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Bytes currently allocated by this process. Relaxed: it is a statistic
/// that publishes no other data.
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);

pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a counter update
// that touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller guarantees `layout` has non-zero size.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller guarantees `ptr` came from this allocator with
        // this `layout`, and this allocator only ever hands out `System`'s.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(new_size, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is non-zero by the caller's
        // guarantee.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Heap bytes live right now.
pub fn live_bytes() -> usize {
    LIVE_BYTES.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    #[test]
    fn an_allocation_is_counted_and_released() {
        let before = super::live_bytes();
        let block = vec![0u8; 1 << 20];
        assert!(super::live_bytes() >= before + (1 << 20));
        drop(block);
        // Other test threads allocate concurrently; allow them some slack.
        assert!(super::live_bytes() < before + (1 << 19));
    }
}
