//! Chaos experiment: the fleet under a seeded fault suite — node flaps, a
//! correlated rack outage, a straggler window and WAN degradation — served
//! with four failure-handling configurations over the same trace: fault-free
//! (yardstick), no recovery, retry-with-failover, and retry-plus-shedding.
//! Prints a markdown table; a full run writes it to `BENCH_chaos.json`,
//! which the committed copy pins.
//!
//! Gates, enforced on the full run (in CI) and by `--quick`, which writes
//! nothing:
//!
//! * **no silent loss** — with retry + failover enabled, zero requests are
//!   permanently lost, and the offered/completed/dropped accounting balances
//!   for every configuration;
//! * **goodput floor** — retry + failover holds SLA goodput (in-deadline
//!   completions over offered) at ≥ 90% of the fault-free run's;
//! * **faults hurt without recovery** — the no-recovery baseline must lose
//!   requests, or the suite is not actually injecting meaningful faults.
//!
//! The recovery path's bounded-memory contract is enforced by
//! `tests/zero_alloc_warm_path.rs` and its thread invariance by
//! `tests/chaos_robustness.rs`.

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

    let points = hidp_bench::chaos_points(count, clusters, regions, rate_scale, seed);
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
         no-recovery baseline measurably degrades"
    );
    Ok(())
}
