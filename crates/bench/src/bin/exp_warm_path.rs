//! Warm-path experiment: measures the zero-copy steady-state serving loop —
//! per-request cached planning through the borrowed keyed probe and the full
//! plan-and-simulate pass against a reused `SimScratch` at
//! `TraceDetail::Summary` — on the same Mix-5 points as
//! `exp_stream_scaling`. Prints a markdown table; the numbers are host
//! wall-clock, so no document records them.
//!
//! The binary installs a counting global allocator
//! ([`hidp_bench::alloc_count`] — the same definition the
//! `zero_alloc_warm_path` integration test enforces) and audits one
//! steady-state pass per point: the zero-copy contract is that the warm
//! path performs **zero** heap allocations once its buffers are sized, and
//! the process exits non-zero if any point violates it — `--quick` (the CI
//! bench-smoke mode) runs reduced sizes and relies on exactly that check.

use hidp_bench::alloc_count::{allocations_on_this_thread, CountingAllocator};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");

    // The same Mix-5 points `exp_stream_scaling` measures, so the two
    // tables are directly comparable.
    let sizes: &[usize] = if quick {
        &[40, 160]
    } else {
        &[160, 400, 1000, 1600]
    };
    let counter: &dyn Fn() -> u64 = &allocations_on_this_thread;
    let points = hidp_bench::warm_path_points(sizes, Some(counter));
    println!("{}", hidp_bench::warm_path_table(&points).to_markdown());

    // The zero-copy contract, enforced in CI: a steady-state pass allocates
    // nothing. (The audit runs after a warm-up pass sized every buffer.)
    let mut violations = 0usize;
    for p in &points {
        match p.steady_state_allocs {
            Some(0) => {}
            Some(n) => {
                eprintln!(
                    "warm path allocated: {} allocations in one steady-state pass \
                     over {} requests",
                    n, p.requests
                );
                violations += 1;
            }
            None => unreachable!("a counter was supplied"),
        }
    }
    if violations > 0 {
        std::process::exit(1);
    }
    println!("steady-state warm path: 0 allocations at every point");
}
