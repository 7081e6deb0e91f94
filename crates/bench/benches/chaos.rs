//! Benchmarks the failure-aware fleet path: the same trace served fault-free,
//! under the seeded fault suite without recovery, and with retry + failover
//! — so the cost of the recovery machinery itself is visible next to the
//! fault-free run of the same loop. The CI bench-smoke job runs this
//! with `--test` (one untimed pass per benchmark) so the chaos path compiles
//! and executes on every PR; `exp_chaos` is the full-scale gate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hidp_bench::LEADER;
use hidp_core::{FleetScratch, HidpStrategy, ParallelSweep, RecoveryPolicy, RoutingPolicy};
use hidp_platform::presets;

fn bench_chaos(c: &mut Criterion) {
    const COUNT: usize = 10_000;
    const CLUSTERS: usize = 4;
    const REGIONS: usize = 2;
    const SEED: u64 = 0xC4405;
    let fleet = presets::generated_fleet(CLUSTERS, REGIONS).expect("fleet preset is valid");
    let strategy = HidpStrategy::new();
    let requests = hidp_bench::fleet_trace(COUNT, REGIONS, 1.2);
    let horizon = requests
        .iter()
        .map(|r| r.request.arrival)
        .fold(0.0, f64::max)
        .max(1.0);
    let node_counts: Vec<usize> = fleet.clusters().iter().map(|c| c.len()).collect();
    let plans = hidp_bench::chaos_fault_suite(&node_counts, horizon, SEED);

    let scenarios = [
        (
            "fault-free",
            hidp_bench::fleet_scenario(requests.clone(), RoutingPolicy::LeastLoaded),
        ),
        (
            "no-recovery",
            hidp_bench::chaos_scenario(
                requests.clone(),
                &plans,
                "no-recovery",
                RecoveryPolicy::default(),
            ),
        ),
        (
            "retry-failover",
            hidp_bench::chaos_scenario(
                requests.clone(),
                &plans,
                "retry-failover",
                RecoveryPolicy::standard(),
            ),
        ),
    ];

    let mut group = c.benchmark_group("chaos");
    group.sample_size(10);
    for (name, scenario) in &scenarios {
        let sweep = ParallelSweep::new(1);
        let mut scratch = FleetScratch::new();
        // Warm pass: cold planning and scratch sizing happen once, outside
        // the measurement — the bench tracks the zero-alloc steady state
        // exp_chaos gates on.
        scenario
            .run_streaming_in(&strategy, &fleet, LEADER, &sweep, &mut scratch)
            .expect("chaos warm pass succeeds");
        group.bench_function(BenchmarkId::new(*name, COUNT), |b| {
            b.iter(|| {
                criterion::black_box(
                    scenario
                        .run_streaming_in(&strategy, &fleet, LEADER, &sweep, &mut scratch)
                        .expect("chaos pass succeeds"),
                );
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_chaos);
criterion_main!(benches);
