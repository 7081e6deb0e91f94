//! A counting allocator for auditing the zero-copy warm path.
//!
//! [`CountingAllocator`] wraps the system allocator and counts every
//! allocation (`alloc`, `alloc_zeroed`, `realloc`) on the calling thread.
//! The count is thread-local so unrelated threads — the test harness, a
//! parallel sweep's workers — cannot pollute an audit, and counting is a
//! single `Cell` bump, cheap enough to leave enabled for real measurement
//! runs.
//!
//! `#[global_allocator]` statics must be declared per binary, so consumers
//! (the `exp_soak`, `exp_fleet`, `exp_chaos` and `exp_drift` binaries, the
//! `zero_alloc_warm_path` integration test) declare their own static of
//! this one type:
//!
//! ```ignore
//! use hidp_bench::alloc_count::{allocations_on_this_thread, CountingAllocator};
//!
//! #[global_allocator]
//! static ALLOCATOR: CountingAllocator = CountingAllocator;
//! ```
//!
//! Keeping the type here means the experiments' zero-allocation gates and
//! the counting-allocator test enforce the *same* definition of
//! "allocation".

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts allocations on the calling thread; see the module docs.
pub struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Total allocations performed on the calling thread since it started
/// (monotone — audit a region by differencing before/after counts).
pub fn allocations_on_this_thread() -> u64 {
    ALLOCATIONS.with(|count| count.get())
}

fn bump() {
    // try_with: the allocator must stay usable during TLS teardown.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}
