//! Stream-scaling experiment: measures the event-driven simulator against
//! the O(n²) list-scheduling baseline on mixed streams 10×–100× the paper's
//! Fig. 6/7 lengths, plus the per-request planning cost through a warm
//! `PlanCache`. Prints a markdown table and writes the measurements to
//! `BENCH_stream_scaling.json` to track the perf trajectory across PRs.
//!
//! The quadratic baseline is metered by a wall-clock budget instead of a
//! hard size cap: pass `--reference-budget-ms <ms>` (default 30 000; the CI
//! quick mode uses 2 000) and every point runs the baseline while budget
//! remains — so `list_sim_ms` is only `null` when the budget actually ran
//! out, and the JSON records the budget that was in force.
//!
//! Pass `--quick` (the CI bench-smoke mode) to run reduced sizes.

fn main() -> std::io::Result<()> {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let reference_budget_ms = args
        .iter()
        .position(|a| a == "--reference-budget-ms")
        .and_then(|i| args.get(i + 1))
        .map(|v| {
            v.parse::<f64>()
                .expect("--reference-budget-ms takes a number (milliseconds)")
        })
        .unwrap_or(if quick { 2_000.0 } else { 30_000.0 });

    // Fig. 7 streams are 16 requests; 160–1600 is the 10×–100× band the
    // issue targets, with the 1 000-request point carrying the headline
    // old-vs-new comparison.
    let sizes: &[usize] = if quick {
        &[40, 160]
    } else {
        &[160, 400, 1000, 1600]
    };
    let points = hidp_bench::stream_scaling_points(sizes, reference_budget_ms);
    println!(
        "{}",
        hidp_bench::stream_scaling_table(&points).to_markdown()
    );

    hidp_bench::write_bench(
        "BENCH_stream_scaling.json",
        &hidp_bench::stream_scaling_document(&points, reference_budget_ms),
    )
}
