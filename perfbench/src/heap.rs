//! A counting wrapper over the system allocator: live and peak heap bytes.
//!
//! Resident memory (`VmHWM`) of a run varies by a third between identical
//! runs, because malloc's per-thread arenas fragment differently each time.
//! The peak of live heap bytes depends only on what the program holds at
//! once, so it is the steady memory metric; `VmHWM` is still reported as a
//! per-layer metric.
//!
//! Each thread batches its byte deltas and publishes them once they reach
//! [`BATCH`], so threads do not contend on one counter per allocation; the
//! peak is exact to within `BATCH` bytes per thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering};

pub struct Counting;

const BATCH: isize = 256 * 1024;

static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

thread_local! {
    /// This thread's unpublished byte delta.
    static PENDING: Cell<isize> = const { Cell::new(0) };
}

// Statistics only: no other data is published through these atomics, so
// `Relaxed` suffices.
fn publish(delta: isize) {
    let now = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
    if now > PEAK.load(Ordering::Relaxed) {
        PEAK.fetch_max(now, Ordering::Relaxed);
    }
}

fn note(delta: isize) {
    let batched = PENDING.try_with(|pending| {
        let total = pending.get() + delta;
        if total.abs() >= BATCH {
            pending.set(0);
            publish(total);
        } else {
            pending.set(total);
        }
    });
    // During thread teardown the slot is gone: publish directly.
    if batched.is_err() {
        publish(delta);
    }
}

/// A size the `GlobalAlloc` contract bounds by `isize::MAX`.
fn signed(size: usize) -> isize {
    isize::try_from(size).unwrap_or(isize::MAX)
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System` upholds the `GlobalAlloc` contract; the counters
// are only updated after a successful call and never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded from our caller, who upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note(signed(layout.size()));
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded from our caller, who upholds `alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            note(signed(layout.size()));
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded from our caller: `ptr` came from this allocator
        // (hence from `System`) with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        note(-signed(layout.size()));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded from our caller, who upholds `realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            note(signed(new_size) - signed(layout.size()));
        }
        p
    }
}

/// Peak live heap bytes since start, in MB.
pub fn peak_mb() -> f64 {
    let bytes = PEAK.load(Ordering::Relaxed).max(0) as f64;
    bytes / (1024.0 * 1024.0)
}
