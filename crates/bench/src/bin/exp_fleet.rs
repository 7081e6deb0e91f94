//! Fleet experiment: four routing policies over the same skewed regional
//! diurnal trace on one generated fleet — equal offered load, only the
//! routing differs — plus a 10^6-request soak across 64 clusters. Prints
//! markdown tables and writes `BENCH_fleet.json` to track the fleet
//! trajectory across PRs.
//!
//! The binary installs the counting global allocator and audits the timed
//! steady-state pass of every routing policy. Gates, enforced in CI via
//! `--quick` and on the full run:
//!
//! * **routing quality** — least-loaded and locality routing must each beat
//!   random and static-hash routing on p99 latency AND SLA-miss rate (the
//!   whole point of load/locality awareness: at equal throughput the smart
//!   policies keep the hot region's backlog and the WAN toll off the tail);
//! * **bounded memory** — the audited one-thread pass performs **zero**
//!   heap allocations per policy;
//! * **determinism** — the same scenario at 1/2/4 worker threads yields a
//!   bit-identical `FleetSummary`;
//! * **soak floor** (full run only) — 1M requests across 64 clusters must
//!   sustain at least 150k requests per wall-clock second at one thread.

use hidp_bench::alloc_count::{allocations_on_this_thread, CountingAllocator};
use hidp_core::{FleetScratch, ParallelSweep};
use hidp_platform::presets;

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn main() -> std::io::Result<()> {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    // Routing comparison: 8 clusters across 4 regions; the rate scale pins
    // the offered load near the fleet's serving capacity so routing quality
    // shows up in the tail rather than in idle headroom.
    let (count, clusters, regions, rate_scale) = if quick {
        (12_000, 8, 4, 1.8)
    } else {
        (60_000, 8, 4, 1.8)
    };

    let counter: &dyn Fn() -> u64 = &allocations_on_this_thread;
    let points =
        hidp_bench::fleet_routing_points(count, clusters, regions, rate_scale, Some(counter));
    println!("{}", hidp_bench::fleet_table(&points).to_markdown());

    let mut violations = 0usize;

    // Gate 1: routing quality — each smart policy beats each dumb policy on
    // p99 AND miss rate.
    let by_name = |name: &str| {
        points
            .iter()
            .find(|p| p.routing == name)
            .expect("policy measured")
    };
    for smart in ["least-loaded", "locality"] {
        for dumb in ["random", "static-hash"] {
            let s = by_name(smart);
            let d = by_name(dumb);
            if s.p99_ms >= d.p99_ms {
                eprintln!(
                    "fleet: {} p99 {:.1} ms does not beat {} p99 {:.1} ms",
                    smart, s.p99_ms, dumb, d.p99_ms
                );
                violations += 1;
            }
            if s.sla_miss_rate >= d.sla_miss_rate {
                eprintln!(
                    "fleet: {} miss rate {:.4} does not beat {} miss rate {:.4}",
                    smart, s.sla_miss_rate, dumb, d.sla_miss_rate
                );
                violations += 1;
            }
        }
    }

    // Gate 2: bounded memory — zero steady-state allocations per policy.
    for p in &points {
        match p.steady_state_allocs {
            Some(0) => {}
            Some(n) => {
                eprintln!(
                    "fleet [{}]: {} allocations in the steady-state pass over {} \
                     requests (bounded-memory contract is 0)",
                    p.routing, n, p.requests
                );
                violations += 1;
            }
            None => unreachable!("a counter was supplied"),
        }
    }

    // Gate 3: determinism — bit-identical at 1/2/4 worker threads.
    {
        let fleet = presets::generated_fleet(clusters, regions).expect("fleet preset is valid");
        let strategy = hidp_core::HidpStrategy::new();
        let check = count.min(6_000);
        let scenario = hidp_bench::fleet_scenario(
            hidp_bench::fleet_trace(check, regions, rate_scale),
            hidp_core::RoutingPolicy::Locality,
        );
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
                .expect("fleet determinism pass succeeds");
            match &reference {
                None => reference = Some(summary),
                Some(r) if *r == summary => {}
                Some(_) => {
                    eprintln!("fleet: summary diverges at {threads} threads");
                    violations += 1;
                }
            }
        }
        println!("determinism: {check} requests bit-identical at 1/2/4 threads");
    }

    // Soak (full run only): 1M requests across 64 clusters, wall-clock floor.
    let soak = if quick {
        None
    } else {
        let (soak_count, soak_clusters, soak_regions, floor) = (1_000_000, 64, 8, 1.5e5);
        // 64 clusters serve ~8x the load of the 8-cluster comparison fleet;
        // scale the offered rate with the capacity so the soak exercises a
        // loaded fleet rather than a mostly idle one.
        let point = hidp_bench::fleet_soak_point(soak_count, soak_clusters, soak_regions, 13.0, 1);
        println!(
            "{}",
            hidp_bench::fleet_table(std::slice::from_ref(&point)).to_markdown()
        );
        if point.requests_per_wall_second < floor {
            eprintln!(
                "fleet soak: {:.0} requests/s is below the {:.0} req/s floor \
                 ({} requests on {} clusters in {:.2} s)",
                point.requests_per_wall_second,
                floor,
                point.requests,
                point.clusters,
                point.wall_seconds
            );
            violations += 1;
        }
        Some(point)
    };

    hidp_bench::write_bench(
        "BENCH_fleet.json",
        &hidp_bench::fleet_document(&points, soak.as_ref()),
    )?;

    if violations > 0 {
        std::process::exit(1);
    }
    println!(
        "fleet: smart routing beats random and static-hash on p99 and miss rate, \
         zero steady-state allocations, bit-identical at 1/2/4 threads{}",
        if quick { "" } else { ", soak above floor" }
    );
    Ok(())
}
