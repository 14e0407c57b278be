//! Live and peak heap bytes, counted by a global allocator.
//!
//! [`PeakHeap`] wraps the system allocator and keeps two counters: the
//! bytes currently allocated and the most that were allocated at once
//! since the peak was last reset or taken. The `servebench` binary
//! installs it with `#[global_allocator]`; malloc itself keeps its default
//! policy, so the program is measured the way it runs.
//!
//! The peak counts requested bytes, not the pages malloc keeps resident.
//! That makes it a measure of the program's own live memory: unlike the
//! resident-set peak, it does not depend on how malloc's arenas happen to
//! fragment in one run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, with live and peak byte counts.
pub struct PeakHeap;

fn grow(bytes: usize) {
    let now = LIVE.fetch_add(bytes, Relaxed) + bytes;
    if now > PEAK.load(Relaxed) {
        PEAK.fetch_max(now, Relaxed);
    }
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counters only observe sizes.
unsafe impl GlobalAlloc for PeakHeap {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        p
    }
}

/// Start a new peak from what is allocated now.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// The most bytes allocated at once since the last [`reset_peak`] or
/// `take_peak`, and start a new peak from what is allocated now.
pub fn take_peak() -> usize {
    PEAK.swap(LIVE.load(Relaxed), Relaxed)
}
