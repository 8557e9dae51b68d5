//! A counting global allocator: the bytes the process holds allocated and
//! their peak since [`reset_peak`].
//!
//! The system allocator keeps freed memory resident and reuses it, so the
//! resident set after the correctness gate reflects the gate's history
//! rather than what the timed jobs hold (on a 2-core x86-64 Linux VM the
//! timed `paper_grid` jobs' `VmHWM` read 246–446 MB over ten seeds, and
//! 246, 385 and 405 MB for one seed in three runs). Live heap bytes follow
//! the program's own allocations only, so their peak repeats exactly for
//! a seed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// [`System`], counting the bytes allocated and not yet freed.
pub struct Counting;

fn grow(n: usize) {
    let live = LIVE.fetch_add(n, Relaxed) + n;
    if live > PEAK.load(Relaxed) {
        PEAK.fetch_max(live, Relaxed);
    }
}

fn shrink(n: usize) {
    LIVE.fetch_sub(n, Relaxed);
}

// SAFETY: every call is passed to `System` unchanged; the counters only
// observe the sizes of the calls that succeeded.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size > layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        p
    }
}

/// Starts a new peak at the bytes allocated now.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// The most bytes held allocated since [`reset_peak`], in MiB.
pub fn peak_mb() -> f64 {
    PEAK.load(Relaxed) as f64 / (1024.0 * 1024.0)
}
