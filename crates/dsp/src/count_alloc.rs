//! A counting global allocator for zero-allocation regression tests.
//!
//! The hot-path contract (DESIGN.md §8) is that steady-state simulation
//! slots perform **zero** heap allocations. That property is only testable
//! if something counts allocator calls; [`CountingAllocator`] wraps the
//! system allocator and bumps the calling thread's counter on every
//! `alloc`/`realloc`. Install it in a test or bench binary:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: CountingAllocator = CountingAllocator;
//!
//! let before = allocation_count();
//! hot_path();
//! assert_eq!(allocation_count() - before, 0);
//! ```
//!
//! The counter is per thread and monotonic: each thread sees only the
//! allocations it made itself, so tests that the harness runs concurrently
//! in the same binary cannot pollute each other's measurement. A test that
//! drives work on other threads must count on those threads and sum the
//! deltas itself. The counter is a `const`-initialised thread-local `Cell`
//! with no destructor, so bumping it never allocates and stays valid while
//! a thread is being torn down.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Number of heap allocations (`alloc` + `realloc` calls) the calling
/// thread has made since it started, when [`CountingAllocator`] is
/// installed as the global allocator. Always 0 otherwise.
pub fn allocation_count() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[inline]
fn bump() {
    // `try_with` rather than `with`: an allocation made after this
    // thread's locals are gone is simply not counted.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

/// A [`GlobalAlloc`] that forwards to [`System`] and counts allocations.
pub struct CountingAllocator;

// SAFETY: pure forwarding to `System`, plus a thread-local counter bump
// that never allocates; all GlobalAlloc contract obligations are inherited
// from `System`.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_is_monotonic() {
        // Without the allocator installed the counter stays flat, but the
        // API must still be callable and monotonic.
        let a = allocation_count();
        let b = allocation_count();
        assert!(b >= a);
    }
}
