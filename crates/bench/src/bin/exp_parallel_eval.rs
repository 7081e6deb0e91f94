//! Parallel-evaluation experiment: end-to-end requests/s of the Mix-5
//! sweep through `ParallelSweep` at 1, 2, 4 and `available_parallelism`
//! worker threads, every measurement planning through a cold shared sharded
//! `PlanCache`. Prints a markdown table and writes
//! `BENCH_parallel_eval.json` to track the perf trajectory across PRs.
//!
//! Every multi-thread point's evaluations are asserted bit-identical to the
//! 1-thread run — "more cores ⇒ more throughput, never different results".
//! Speedups are bounded by the host's available parallelism (recorded in
//! the JSON): on a single-core runner all points degenerate to ~1×.
//!
//! Pass `--quick` (the CI bench-smoke mode) for a reduced sweep.

fn main() -> std::io::Result<()> {
    let quick = std::env::args().any(|a| a == "--quick");
    let (jobs, requests_per_job, runs) = if quick { (8, 50, 2) } else { (40, 200, 3) };
    let report = hidp_bench::parallel_eval(jobs, requests_per_job, runs);
    println!("{}", hidp_bench::parallel_eval_table(&report).to_markdown());

    for point in &report.points {
        assert!(
            point.identical_to_one_thread,
            "{} threads produced different evaluations than 1 thread",
            point.threads
        );
    }

    hidp_bench::write_bench(
        "BENCH_parallel_eval.json",
        &hidp_bench::parallel_eval_document(&report),
    )
}
