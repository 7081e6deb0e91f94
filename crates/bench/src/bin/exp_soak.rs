//! Soak experiment: the streaming serving loop over a 10^6-request diurnal
//! trace — the production-scale run of the indexed admission queue, the
//! measured-completion dispatch model and the histogram-sketched summary.
//! Prints a markdown table; a full run writes the model outputs to
//! `BENCH_soak.json`, which the committed copy pins. `--quick` serves 50k
//! requests per config and writes nothing.
//!
//! It runs two configs over the same trace, `fifo-batch8` and `edf-batch8`
//! (batch 8, admission window 4). Both admit through the same rank heap
//! (`AdmissionPolicy::rank`): FIFO ranks every request equal, so it picks
//! in queue order, at the same amortised O(log n) heap pop as EDF.
//!
//! The soak's bounded-memory contract (a steady-state pass allocates
//! nothing) is enforced by `tests/zero_alloc_warm_path.rs`, and its host
//! throughput is measured by the repository benchmark (`perfbench/`).

fn main() -> std::io::Result<()> {
    let quick = std::env::args().any(|a| a == "--quick");
    let count = if quick { 50_000 } else { 1_000_000 };

    let points = hidp_bench::soak_points(count);
    println!("{}", hidp_bench::soak_table(&points).to_markdown());

    if !quick {
        hidp_bench::write_bench("BENCH_soak.json", &hidp_bench::soak_document(&points))?;
    }
    Ok(())
}
