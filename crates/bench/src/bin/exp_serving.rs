//! Serving-runtime experiment: the admission-policy × failure-pattern grid
//! (FIFO / priority / EDF / FIFO+batching, each against a static cluster, a
//! single-node blip and a rolling outage pair) over bursty Mix-5 traffic
//! with SLA classes. Prints a markdown table; a full run writes
//! throughput, tail latency, queueing delay and SLA-miss rate to
//! `BENCH_serving.json`, which the committed copy pins.
//!
//! One gate, asserted on every run, the full one (in CI) and `--quick`,
//! which writes nothing: **batching wins in both regimes** — on the
//! transfer-heavy batching workload point (Inception-V3 burst train,
//! serial dispatch window) and on the compute-bound point (ResNet-152
//! burst train, where the win comes from the sublinear batch cost model
//! rather than message amortization), the k = 4 and k = 8 dynamic batcher
//! serves measurably more requests per second than batch = 1 (simulated
//! time, so the comparison is deterministic).
//!
//! The grid's thread-count invariance is pinned by
//! `serving_sweep_is_thread_count_invariant` (`tests/serving_equivalence.rs`),
//! which runs this grid at 1, 2 and 4 worker threads.

fn main() -> std::io::Result<()> {
    let quick = std::env::args().any(|a| a == "--quick");
    let count = if quick { 64 } else { 240 };

    let scenarios = hidp_bench::serving_scenarios(count);
    let evaluations = hidp_bench::serving_evaluations(&scenarios);
    let points = hidp_bench::serving_points(&scenarios, &evaluations);
    println!("{}", hidp_bench::serving_table(&points).to_markdown());

    let batching = hidp_bench::serving_batching_points(count);
    println!(
        "{}",
        hidp_bench::serving_batching_table(
            &batching,
            "Dynamic batching: Inception-V3 burst train, serial dispatch window",
        )
        .to_markdown()
    );
    let batching_compute = hidp_bench::serving_batching_compute_points(count);
    println!(
        "{}",
        hidp_bench::serving_batching_table(
            &batching_compute,
            "Dynamic batching (compute-bound): ResNet-152 burst train, serial dispatch window",
        )
        .to_markdown()
    );
    // Compute-bound floor: the win is capped by the least batch-efficient
    // processor on the critical path (HiDP gives the CPU shares of the
    // split real work, and CPU batch efficiency is ~1.1 at k=8), so ~1.10x
    // is the honest magnitude — the floor catches the model regressing to
    // linear (1.00x), not a smaller win.
    for (regime, pts, floor) in [
        ("transfer-bound", &batching, 1.02),
        ("compute-bound", &batching_compute, 1.05),
    ] {
        for p in pts {
            if p.max_batch >= 4 {
                assert!(
                    p.speedup_vs_unbatched > floor,
                    "dynamic batching (k={}, {regime}) must beat batch=1 measurably \
                     (got {:.3}x, floor {floor}x)",
                    p.max_batch,
                    p.speedup_vs_unbatched
                );
            }
        }
        let best = pts.last().expect("batching points exist");
        println!(
            "dynamic batching ({regime}, k={}): {:.2} req/s vs {:.2} req/s at batch=1 ({:.3}x)",
            best.max_batch,
            best.requests_per_second,
            pts[0].requests_per_second,
            best.speedup_vs_unbatched
        );
    }

    if !quick {
        hidp_bench::write_bench(
            "BENCH_serving.json",
            &hidp_bench::serving_document(&points, &batching, &batching_compute, count),
        )?;
    }
    Ok(())
}
