//! A counting global allocator: allocation count, live bytes and a
//! resettable peak of live bytes. The benchmark binary installs it, so
//! every heap figure in the report is a byte the allocator saw.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static WINDOW_PEAK: AtomicU64 = AtomicU64::new(0);

/// [`System`] plus counters. The counters publish no other data, so
/// `Relaxed` suffices; a window reset racing another thread's allocation
/// can lose at most that one allocation from the new window.
pub struct Counting;

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Relaxed);
    WINDOW_PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            ALLOCS.fetch_add(1, Relaxed);
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator (hence `System`)
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            ALLOCS.fetch_add(1, Relaxed);
            LIVE.fetch_sub(layout.size() as u64, Relaxed);
            grow(new_size);
        }
        p
    }
}

/// Heap allocations (including reallocations) since process start.
pub fn allocs() -> u64 {
    ALLOCS.load(Relaxed)
}

/// Peak live heap bytes since process start.
pub fn peak_bytes() -> u64 {
    PEAK.load(Relaxed)
}

/// Peak live heap bytes since the last [`reset_window`].
pub fn window_peak_bytes() -> u64 {
    WINDOW_PEAK.load(Relaxed)
}

/// Starts a new peak window at the current live size.
pub fn reset_window() {
    WINDOW_PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// Bytes to MiB.
pub fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}
