//! Soak experiment: the streaming serving loop over a 10^6-request diurnal
//! trace — the production-scale gate for the indexed admission queue, the
//! measured-completion dispatch model and the histogram-sketched summary. Prints a
//! markdown table and the wall-clock rate of each config; a full run writes
//! the model outputs to `BENCH_soak.json`, which the committed copy pins.
//!
//! It runs two configs over the same trace, `fifo-batch8` and `edf-batch8`
//! (batch 8, admission window 4). Both admit through the same rank heap
//! (`AdmissionPolicy::rank`): FIFO ranks every request equal, so it picks
//! in queue order, at the same amortised O(log n) heap pop as EDF.
//!
//! The binary installs the counting global allocator
//! ([`hidp_bench::alloc_count`], the same definition `exp_warm_path` and
//! the `zero_alloc_warm_path` integration test enforce) and audits the
//! timed steady-state pass of every config. Two gates, enforced on the full
//! run (in CI) and by `--quick`, which writes nothing:
//!
//! * **bounded memory** — the audited pass performs **zero** heap
//!   allocations: after the warm pass the loop runs entirely on reused
//!   scratch buffers and `Copy` accumulators, so memory cannot grow with
//!   the request count;
//! * **throughput floor** — the full 1M-request soak must sustain at least
//!   500k requests per wall-clock second per config (`--quick` runs 50k
//!   requests against a floor of 100k req/s, generous enough for shared CI
//!   runners while still catching order-of-magnitude regressions).

use hidp_bench::alloc_count::{allocations_on_this_thread, CountingAllocator};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn main() -> std::io::Result<()> {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let (count, floor) = if quick {
        (50_000, 1e5)
    } else {
        (1_000_000, 5e5)
    };

    let counter: &dyn Fn() -> u64 = &allocations_on_this_thread;
    let runs = hidp_bench::soak_points(count, Some(counter));
    let points: Vec<_> = runs.iter().map(|(p, _)| p.clone()).collect();
    println!("{}", hidp_bench::soak_table(&points).to_markdown());

    if !quick {
        hidp_bench::write_bench("BENCH_soak.json", &hidp_bench::soak_document(&points))?;
    }

    let mut violations = 0usize;
    for (p, wall_seconds) in &runs {
        let rate = p.requests as f64 / wall_seconds;
        println!(
            "soak [{}]: {} requests in {wall_seconds:.3} s wall = {rate:.0} req/s",
            p.config, p.requests
        );
        match p.steady_state_allocs {
            Some(0) => {}
            Some(n) => {
                eprintln!(
                    "soak [{}]: {} allocations in the steady-state pass over {} \
                     requests (bounded-memory contract is 0)",
                    p.config, n, p.requests
                );
                violations += 1;
            }
            None => unreachable!("a counter was supplied"),
        }
        if rate < floor {
            eprintln!(
                "soak [{}]: {rate:.0} requests/s is below the {floor:.0} req/s floor",
                p.config
            );
            violations += 1;
        }
    }
    if violations > 0 {
        std::process::exit(1);
    }
    println!(
        "soak: {} requests/config, zero steady-state allocations, all configs above {:.0} req/s",
        count, floor
    );
    Ok(())
}
