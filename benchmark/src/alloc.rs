//! A counting `GlobalAlloc`. Only `bench-traced` installs it, so the
//! end-to-end pass pays nothing for it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

// Relaxed everywhere: these are statistics that publish no other data, and
// the counts are read only after the measured call has returned.
static CALLS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

pub struct Counting;

fn grew(bytes: usize) {
    CALLS.fetch_add(1, Relaxed);
    let live = LIVE.fetch_add(bytes as u64, Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters never touch the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        grew(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocation calls made while `f` ran and the most bytes live at once
/// above what was live when it started. Exact when `f` is single-threaded.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let calls = CALLS.load(Relaxed);
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let result = f();
    (result, CALLS.load(Relaxed) - calls, PEAK.load(Relaxed).saturating_sub(base))
}

/// Whether this process runs with [`Counting`] as its global allocator.
pub fn installed() -> bool {
    measure(|| std::hint::black_box(Box::new(0u8))).1 > 0
}
