//! A counting global allocator: the system allocator plus one relaxed
//! atomic increment per allocation, so a binary or test can assert how
//! many heap allocations a piece of work makes.
//!
//! Nothing is counted until a binary installs it:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: ndl_bench::alloc::CountingAlloc = ndl_bench::alloc::CountingAlloc;
//! ```
//!
//! The count is process-wide: every thread's allocations add to it, so a
//! measurement is exact only while no other thread allocates.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting `alloc`, `alloc_zeroed` and `realloc`
/// calls.
#[derive(Debug)]
pub struct CountingAlloc;

// SAFETY: every call forwards to `System` with the same arguments.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Allocations (including reallocations) made so far by this process
/// through [`CountingAlloc`]; always 0 when it is not installed.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Runs `f` and returns its result with the number of allocations made
/// while it ran.
pub fn counting<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = allocations();
    let out = f();
    (out, allocations() - before)
}
