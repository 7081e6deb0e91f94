//! Chaos experiment: the fleet under a seeded fault suite — node flaps, a
//! correlated rack outage, a straggler window and WAN degradation — served
//! with four failure-handling configurations over the same trace: fault-free
//! (yardstick), no recovery, retry-with-failover, and retry-plus-shedding.
//! Prints a markdown table; a full run writes it to `BENCH_chaos.json`,
//! which the committed copy pins.
//!
//! The binary installs the counting global allocator and audits the timed
//! steady-state pass of every configuration. Gates, enforced on the full
//! run (in CI) and by `--quick`, which writes nothing:
//!
//! * **no silent loss** — with retry + failover enabled, zero requests are
//!   permanently lost, and the offered/completed/dropped accounting balances
//!   for every configuration;
//! * **goodput floor** — retry + failover holds SLA goodput (in-deadline
//!   completions over offered) at ≥ 90% of the fault-free run's;
//! * **faults hurt without recovery** — the no-recovery baseline must lose
//!   requests, or the suite is not actually injecting meaningful faults;
//! * **bounded memory** — the audited one-thread pass performs **zero**
//!   heap allocations per configuration, recovery machinery included;
//! * **determinism** — the retry-failover run at 1/2/4 worker threads
//!   yields a bit-identical `RunSummary`.

use hidp_bench::alloc_count::{allocations_on_this_thread, CountingAllocator};
use hidp_core::{FleetScratch, ParallelSweep, RecoveryPolicy};
use hidp_platform::presets;

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn main() -> std::io::Result<()> {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    // 4 clusters over 2 regions at a load near capacity, so recovery work
    // competes with live traffic instead of slotting into idle headroom.
    let (count, clusters, regions, rate_scale, seed) = if quick {
        (8_000, 4, 2, 1.2, 0xC4405)
    } else {
        (40_000, 4, 2, 1.2, 0xC4405)
    };

    let counter: &dyn Fn() -> u64 = &allocations_on_this_thread;
    let points =
        hidp_bench::chaos_points(count, clusters, regions, rate_scale, seed, Some(counter));
    println!("{}", hidp_bench::chaos_table(&points).to_markdown());

    let mut violations = 0usize;
    let by_name = |name: &str| {
        points
            .iter()
            .find(|p| p.config == name)
            .expect("configuration measured")
    };
    let fault_free = by_name("fault-free");
    let no_recovery = by_name("no-recovery");
    let recovered = by_name("retry-failover");

    // Gate 1: no silent loss — retry + failover recovers every killed
    // request, and every configuration's accounting balances.
    if recovered.robustness.lost != 0 {
        eprintln!(
            "chaos: retry-failover permanently lost {} of {} requests",
            recovered.robustness.lost, recovered.robustness.offered
        );
        violations += 1;
    }
    for p in &points {
        if !p.robustness.accounts_for_every_request() {
            eprintln!(
                "chaos [{}]: accounting does not balance: {:?}",
                p.config, p.robustness
            );
            violations += 1;
        }
    }

    // Gate 2: goodput floor — recovery holds ≥ 90% of fault-free goodput.
    if recovered.sla_goodput < 0.9 * fault_free.sla_goodput {
        eprintln!(
            "chaos: retry-failover goodput {:.4} is below 90% of fault-free {:.4}",
            recovered.sla_goodput, fault_free.sla_goodput
        );
        violations += 1;
    }

    // Gate 3: the fault suite must measurably degrade the no-recovery
    // baseline, or the gates above prove nothing.
    if no_recovery.robustness.lost == 0 {
        eprintln!("chaos: the fault suite lost nothing without recovery — faults too weak");
        violations += 1;
    }
    if no_recovery.sla_goodput >= fault_free.sla_goodput {
        eprintln!(
            "chaos: no-recovery goodput {:.4} does not trail fault-free {:.4}",
            no_recovery.sla_goodput, fault_free.sla_goodput
        );
        violations += 1;
    }

    // Gate 4: bounded memory — zero steady-state allocations everywhere,
    // recovery machinery included.
    for p in &points {
        match p.steady_state_allocs {
            Some(0) => {}
            Some(n) => {
                eprintln!(
                    "chaos [{}]: {} allocations in the steady-state pass over {} \
                     requests (bounded-memory contract is 0)",
                    p.config, n, p.requests
                );
                violations += 1;
            }
            None => unreachable!("a counter was supplied"),
        }
    }

    // Gate 5: determinism — the recovered run is bit-identical at 1/2/4
    // worker threads.
    {
        let fleet = presets::generated_fleet(clusters, regions).expect("fleet preset is valid");
        let strategy = hidp_core::HidpStrategy::new();
        let check = count.min(6_000);
        let requests = hidp_bench::fleet_trace(check, regions, rate_scale);
        let horizon = requests
            .iter()
            .map(|r| r.request.arrival)
            .fold(0.0, f64::max)
            .max(1.0);
        let node_counts: Vec<usize> = fleet.clusters().iter().map(|c| c.len()).collect();
        let plans = hidp_bench::chaos_fault_suite(&node_counts, horizon, seed);
        let scenario =
            hidp_bench::chaos_scenario(requests, &plans, "determinism", RecoveryPolicy::standard());
        let mut reference = None;
        for threads in [1usize, 2, 4] {
            let summary = scenario
                .run_streaming_in(
                    &strategy,
                    &fleet,
                    hidp_bench::LEADER,
                    &ParallelSweep::new(threads),
                    &mut FleetScratch::new(),
                )
                .expect("chaos determinism pass succeeds");
            match &reference {
                None => reference = Some(summary),
                Some(r) if *r == summary => {}
                Some(_) => {
                    eprintln!("chaos: summary diverges at {threads} threads");
                    violations += 1;
                }
            }
        }
        println!("determinism: {check} requests under faults bit-identical at 1/2/4 threads");
    }

    if !quick {
        hidp_bench::write_bench(
            "BENCH_chaos.json",
            &hidp_bench::chaos_document(&points, seed),
        )?;
    }

    if violations > 0 {
        std::process::exit(1);
    }
    println!(
        "chaos: zero requests lost under retry+failover, goodput within 90% of fault-free, \
         no-recovery baseline measurably degrades, zero steady-state allocations, \
         bit-identical at 1/2/4 threads"
    );
    Ok(())
}
