//! Drift experiment: the serving tier under a seeded continuous drift
//! trace — thermal throttle ramps, background-load bursts, network
//! contention — served with four configurations over the same trace:
//! no-drift (yardstick), no-drift with estimation armed (bit-identity
//! control), static plans under drift (degradation baseline), and the full
//! adaptive loop (EWMA rate estimates + hysteresis-bounded re-planning on
//! the believed cluster). Prints a markdown table and writes
//! `BENCH_drift.json` to track the adaptive-robustness trajectory across
//! PRs.
//!
//! The binary installs the counting global allocator and audits the timed
//! steady-state pass of every configuration. Gates, enforced in CI via
//! `--quick` and on the full run:
//!
//! * **latency** — adaptive re-planning beats static plans on p99 latency
//!   at equal offered load;
//! * **energy** — adaptive re-planning beats static plans on total energy
//!   (idle power × makespan + dynamic dispatch energy);
//! * **bounded re-planning** — the adaptive run re-plans at least once and
//!   never more than the hysteresis bound; non-adaptive runs never re-plan;
//! * **bit-identity** — estimation armed with nothing drifting changes no
//!   measured output (only the observation count may differ);
//! * **bounded memory** — the audited steady-state pass performs **zero**
//!   heap allocations per configuration, estimation and re-planning
//!   machinery included;
//! * **bandit convergence** — the episode-level UCB1 over adaptive tunings
//!   tries every arm and settles on the lowest-p99 one.

use hidp_bench::alloc_count::{allocations_on_this_thread, CountingAllocator};
use hidp_core::AdaptiveConfig;

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn main() -> std::io::Result<()> {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    // The full run stays near capacity (not past it): the diurnal trace at
    // 8k requests stresses the throttle windows without drowning every
    // configuration in unbounded queueing.
    let (count, seed, episodes) = if quick {
        (4_000, 0xD21F7, 12u32)
    } else {
        (8_000, 0xD21F7, 12u32)
    };

    let counter: &dyn Fn() -> u64 = &allocations_on_this_thread;
    let points = hidp_bench::drift_points(count, seed, Some(counter));
    println!("{}", hidp_bench::drift_table(&points).to_markdown());

    let mut violations = 0usize;
    let by_name = |name: &str| {
        points
            .iter()
            .find(|p| p.config == name)
            .expect("configuration measured")
    };
    let no_drift = by_name("no-drift");
    let no_drift_adaptive = by_name("no-drift-adaptive");
    let static_drift = by_name("static-drift");
    let adaptive = by_name("adaptive-drift");

    // Gate 1: drift must measurably degrade the static baseline, and the
    // adaptive loop must claw latency back — else the loop does nothing.
    if static_drift.p99_ms <= no_drift.p99_ms {
        eprintln!(
            "drift: static-drift p99 {:.2} ms does not trail no-drift {:.2} ms — drift too weak",
            static_drift.p99_ms, no_drift.p99_ms
        );
        violations += 1;
    }
    if adaptive.p99_ms >= static_drift.p99_ms {
        eprintln!(
            "drift: adaptive p99 {:.2} ms does not beat static {:.2} ms",
            adaptive.p99_ms, static_drift.p99_ms
        );
        violations += 1;
    }

    // Gate 2: adaptive re-planning also wins on total energy at equal
    // offered load (shorter stretched durations and a shorter makespan).
    if adaptive.total_energy_j >= static_drift.total_energy_j {
        eprintln!(
            "drift: adaptive energy {:.1} J does not beat static {:.1} J",
            adaptive.total_energy_j, static_drift.total_energy_j
        );
        violations += 1;
    }

    // Gate 3: the hysteresis band bounds re-planning — at least one
    // re-plan under drift, never more than the configured ceiling, and
    // exactly zero on every non-adaptive run.
    let bound = AdaptiveConfig::default().max_replans;
    if adaptive.replans == 0 || adaptive.replans > bound {
        eprintln!(
            "drift: adaptive re-plans {} outside (0, {bound}]",
            adaptive.replans
        );
        violations += 1;
    }
    for p in [no_drift, static_drift] {
        if p.replans != 0 || p.observations != 0 {
            eprintln!(
                "drift [{}]: non-adaptive run reports {} re-plans / {} observations",
                p.config, p.replans, p.observations
            );
            violations += 1;
        }
    }

    // Gate 4: arming estimation with nothing drifting is bit-identical to
    // the run with estimation off — ratios of 1.0 never leave the
    // hysteresis band.
    {
        let mut control = no_drift_adaptive.clone();
        control.config = no_drift.config.clone();
        control.observations = no_drift.observations;
        control.wall_seconds = no_drift.wall_seconds;
        control.steady_state_allocs = no_drift.steady_state_allocs;
        if control != *no_drift {
            eprintln!(
                "drift: no-drift-adaptive diverges from no-drift: {no_drift_adaptive:?} vs {no_drift:?}"
            );
            violations += 1;
        }
    }

    // Gate 5: accounting balances and nothing is dropped — drift slows the
    // system, it never loses work.
    for p in &points {
        if !p.robustness.accounts_for_every_request() || p.robustness.dropped() != 0 {
            eprintln!(
                "drift [{}]: accounting does not balance or work was dropped: {:?}",
                p.config, p.robustness
            );
            violations += 1;
        }
    }

    // Gate 6: bounded memory — zero steady-state allocations everywhere,
    // estimation and believed-cluster re-planning included.
    for p in &points {
        match p.steady_state_allocs {
            Some(0) => {}
            Some(n) => {
                eprintln!(
                    "drift [{}]: {} allocations in the steady-state pass over {} \
                     requests (bounded-memory contract is 0)",
                    p.config, n, p.requests
                );
                violations += 1;
            }
            None => unreachable!("a counter was supplied"),
        }
    }

    // Gate 7: the episode-level bandit tries every tuning and settles on
    // the lowest-p99 arm.
    let bandit = hidp_bench::drift_bandit(count.min(4_000), seed, episodes);
    println!(
        "bandit: {} episodes over {:?} -> best '{}' (pulls {:?}, p99 {:?} ms)",
        bandit.episodes, bandit.arms, bandit.best, bandit.pulls, bandit.p99_ms
    );
    if bandit.pulls.contains(&0) || bandit.pulls.iter().sum::<u64>() != u64::from(episodes) {
        eprintln!(
            "drift: bandit pulls {:?} do not cover every arm over {episodes} episodes",
            bandit.pulls
        );
        violations += 1;
    }
    let best_measured = bandit
        .p99_ms
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| bandit.arms[i].clone())
        .expect("at least one arm");
    if bandit.best != best_measured {
        eprintln!(
            "drift: bandit settled on '{}' but '{best_measured}' measured the lowest p99",
            bandit.best
        );
        violations += 1;
    }

    hidp_bench::write_bench(
        "BENCH_drift.json",
        &hidp_bench::drift_document(&points, &bandit, seed),
    )?;

    if violations > 0 {
        std::process::exit(1);
    }
    println!(
        "drift: adaptive re-planning beats static plans on p99 and energy, re-plans within \
         the hysteresis bound, no-drift runs bit-identical with estimation armed, zero \
         steady-state allocations, bandit settled on the best tuning"
    );
    Ok(())
}
