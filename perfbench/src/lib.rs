//! The repository benchmark: four seeded simulator workloads driven through
//! the public API of `hidp-core`, `hidp-sim` and `hidp-workloads`.
//!
//! The simulator replays an open-loop arrival schedule in *virtual* time, so
//! on the wall clock every workload is a batch job: throughput is simulated
//! requests processed per wall second at a fixed trace size. See
//! `perfbench/README.md` for the workloads, the metrics and how they relate.
//!
//! * [`workload`] builds each workload's inputs from a seed and runs passes;
//! * [`run`] drives one benchmark run (set-up, timed passes, output checks)
//!   and, when traced, the per-layer replays of [`layers`].

pub mod layers;
pub mod run;
pub mod workload;

use hidp_core::{CoreError, DistributedStrategy};
use hidp_dnn::DnnGraph;
use hidp_platform::{Cluster, NodeIndex};
use hidp_sim::ExecutionPlan;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Mutex;
use std::time::Instant;

/// A [`DistributedStrategy`] wrapper that times every planner call.
///
/// `name`, `cache_config` and `write_cache_config` are forwarded unchanged,
/// so plan-cache keys — and therefore every simulated result — are exactly
/// those of the wrapped strategy.
pub struct TimedStrategy<S> {
    inner: S,
    calls: Mutex<Vec<f64>>,
}

impl<S> TimedStrategy<S> {
    /// Wraps `inner` with an empty call log.
    pub fn new(inner: S) -> Self {
        Self {
            inner,
            calls: Mutex::new(Vec::new()),
        }
    }

    /// Removes and returns the wall seconds of every planner call logged so
    /// far, in completion order.
    pub fn take_calls(&self) -> Vec<f64> {
        std::mem::take(&mut *self.calls.lock().expect("planner timing log poisoned"))
    }
}

impl<S: DistributedStrategy> DistributedStrategy for TimedStrategy<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn cache_config(&self) -> String {
        self.inner.cache_config()
    }

    fn write_cache_config(&self, out: &mut String) {
        self.inner.write_cache_config(out);
    }

    fn plan(
        &self,
        graph: &DnnGraph,
        cluster: &Cluster,
        leader: NodeIndex,
    ) -> Result<ExecutionPlan, CoreError> {
        let start = Instant::now();
        let plan = self.inner.plan(graph, cluster, leader);
        let seconds = start.elapsed().as_secs_f64();
        self.calls
            .lock()
            .expect("planner timing log poisoned")
            .push(seconds);
        plan
    }
}

/// Counts heap allocations per thread; the benchmark binary installs it as
/// its global allocator. Counting is one thread-local bump.
pub struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Allocations made on the calling thread so far (monotone: difference two
/// readings to audit a region).
pub fn allocations_on_this_thread() -> u64 {
    ALLOCATIONS.with(|count| count.get())
}

fn bump() {
    // try_with: the allocator must stay usable during TLS teardown.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the only addition is a thread-local counter bump, which neither
// allocates nor touches the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of `values` by linear interpolation between the closest
/// ranks (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}
