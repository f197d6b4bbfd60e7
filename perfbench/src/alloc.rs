//! A counting global allocator: live bytes, peak live bytes and the
//! number of allocations, so set-up memory, op memory and allocations
//! per job can be measured without touching the library crates.
//!
//! The counters are `Relaxed` statistics that publish no other data. The
//! peak update is a load-then-store rather than a CAS loop: the benchmark
//! allocates from one thread, so no update is lost there.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

/// The system allocator wrapped with live/peak/count tallies.
pub struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    if live > PEAK.load(Relaxed) {
        PEAK.store(live, Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only updates counters around the call, so `System`'s
// guarantees carry over.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                ALLOCS.fetch_add(1, Relaxed);
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        p
    }
}

/// Bytes currently allocated.
pub fn live_bytes() -> usize {
    LIVE.load(Relaxed)
}

/// Highest live byte count since the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Relaxed)
}

/// Allocations (including growing or shrinking reallocations) so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Relaxed)
}

/// Restarts peak tracking at the current live count and returns it.
pub fn reset_peak() -> usize {
    let live = live_bytes();
    PEAK.store(live, Relaxed);
    live
}

/// Sets the peak back to `peak` (or the live count, if higher), so work
/// the benchmark does between measured regions leaves no trace in it.
pub fn restore_peak(peak: usize) {
    PEAK.store(peak.max(live_bytes()), Relaxed);
}

/// Bytes as mebibytes.
pub fn mb(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}
