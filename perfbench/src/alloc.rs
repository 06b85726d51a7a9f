//! Memory measured from outside the engine: a global allocator that tracks
//! live heap bytes (allocated minus freed) and their high-water mark.
//!
//! It forwards to [`ojv_rel::CountingAlloc`], so the executor's own
//! per-operator allocation counters keep working in this binary.

use std::alloc::{GlobalAlloc, Layout};
use std::sync::atomic::{AtomicI64, Ordering};

use ojv_rel::CountingAlloc;

static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

pub struct TrackingAlloc;

fn grow(bytes: usize) {
    // Statistics only: these counters publish no other data.
    let now = LIVE.fetch_add(bytes as i64, Ordering::Relaxed) + bytes as i64;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes as i64, Ordering::Relaxed);
}

// SAFETY: every call forwards verbatim to `CountingAlloc` (itself a
// pass-through to `System`); the counter updates never touch the memory.
unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = CountingAlloc.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        CountingAlloc.dealloc(ptr, layout);
        shrink(layout.size());
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = CountingAlloc.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = CountingAlloc.realloc(ptr, layout, new_size);
        if !p.is_null() {
            shrink(layout.size());
            grow(new_size);
        }
        p
    }
}

/// Live heap bytes right now.
pub fn live() -> i64 {
    LIVE.load(Ordering::Relaxed)
}

/// Highest live byte count since the last [`reset_peak`].
pub fn peak() -> i64 {
    PEAK.load(Ordering::Relaxed)
}

/// Restart the high-water mark from the current live count.
pub fn reset_peak() {
    PEAK.store(live(), Ordering::Relaxed);
}

pub const MIB: f64 = 1024.0 * 1024.0;

/// Bytes as MiB.
pub fn mib(bytes: i64) -> f64 {
    bytes as f64 / MIB
}
