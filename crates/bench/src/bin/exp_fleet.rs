//! Fleet experiment: four routing policies over the same skewed regional
//! diurnal trace on one generated fleet — equal offered load, only the
//! routing differs — plus a 10^6-request soak across 64 clusters. Prints
//! markdown tables; a full run writes the model outputs to
//! `BENCH_fleet.json`, which the committed copy pins.
//!
//! One gate, enforced on the full run (in CI) and by `--quick`, which
//! skips the soak and writes nothing: **routing quality** — least-loaded
//! and locality routing must each beat random and static-hash routing on
//! p99 latency AND SLA-miss rate (the whole point of load/locality
//! awareness: at equal throughput the smart policies keep the hot region's
//! backlog and the WAN toll off the tail).
//!
//! The fleet's bounded-memory contract is enforced by
//! `tests/zero_alloc_warm_path.rs`, its thread invariance by
//! `tests/fleet_equivalence.rs`, and its host throughput is measured by
//! the repository benchmark (`perfbench/`).

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

    let points = hidp_bench::fleet_routing_points(count, clusters, regions, rate_scale);
    println!("{}", hidp_bench::fleet_table(&points).to_markdown());

    let mut violations = 0usize;

    // Routing quality: each smart policy beats each dumb policy on
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

    // Soak and document (full run only): 1M requests across 64 clusters.
    if !quick {
        // 64 clusters serve ~8x the load of the 8-cluster comparison fleet;
        // scale the offered rate with the capacity so the soak exercises a
        // loaded fleet rather than a mostly idle one.
        let point = hidp_bench::fleet_soak_point(1_000_000, 64, 8, 13.0);
        println!(
            "{}",
            hidp_bench::fleet_table(std::slice::from_ref(&point)).to_markdown()
        );
        hidp_bench::write_bench(
            "BENCH_fleet.json",
            &hidp_bench::fleet_document(&points, &point),
        )?;
    }

    if violations > 0 {
        std::process::exit(1);
    }
    println!("fleet: smart routing beats random and static-hash on p99 and miss rate");
    Ok(())
}
