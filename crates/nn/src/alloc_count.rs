//! Test support: a global allocator that counts each thread's heap
//! allocations, for tests that pin how often a hot path allocates.
//!
//! A test binary installs it with
//! `#[global_allocator] static A: nn::alloc_count::CountingAlloc = nn::alloc_count::CountingAlloc;`
//! (no `unsafe` on the installing side) and reads
//! [`CountingAlloc::count`] around the code under test. The count is
//! per thread, so the test harness's other threads do not disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// [`System`] with a per-thread count of `alloc`, `alloc_zeroed` and
/// `realloc` calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountingAlloc;

impl CountingAlloc {
    /// Allocations the calling thread has made so far.
    pub fn count() -> u64 {
        ALLOCATIONS.with(Cell::get)
    }
}

fn bump() {
    // A thread that is being torn down no longer counts.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method hands its arguments unchanged to `System`, which
// meets the `GlobalAlloc` contract, and returns what `System` returns.
// The counter is a const-initialised thread-local without a destructor,
// so bumping it neither allocates nor re-enters the allocator.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}
