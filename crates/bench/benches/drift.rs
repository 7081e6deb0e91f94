//! Benchmarks the drift-aware serving path: the same trace served with no
//! drift, under the seeded drift trace with static plans, and with the full
//! adaptive loop — so the cost of continuous drift evaluation and the
//! estimation/re-planning machinery is visible next to the drift-free run
//! of the same loop. The CI bench-smoke job runs this with `--test` (one untimed
//! pass per benchmark) so the drift path compiles and executes on every PR;
//! `exp_drift` is the full-scale gate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hidp_bench::LEADER;
use hidp_core::{AdaptiveConfig, HidpStrategy, PlanCache, ServingScratch};
use hidp_platform::presets;

fn bench_drift(c: &mut Criterion) {
    const COUNT: usize = 5_000;
    const SEED: u64 = 0xD21F7;
    let cluster = presets::paper_cluster();
    let strategy = HidpStrategy::new();
    let requests = hidp_bench::soak_trace(COUNT);
    let horizon = requests
        .iter()
        .map(|r| r.arrival)
        .fold(0.0, f64::max)
        .max(1.0);
    let model = hidp_bench::drift_trace(cluster.len(), horizon, SEED);

    let scenarios = [
        (
            "no-drift",
            hidp_bench::drift_scenario(requests.clone(), "no-drift", None, None),
        ),
        (
            "static-drift",
            hidp_bench::drift_scenario(requests.clone(), "static-drift", Some(model.clone()), None),
        ),
        (
            "adaptive-drift",
            hidp_bench::drift_scenario(
                requests.clone(),
                "adaptive-drift",
                Some(model.clone()),
                Some(AdaptiveConfig::default()),
            ),
        ),
    ];

    let mut group = c.benchmark_group("drift");
    group.sample_size(10);
    for (name, scenario) in &scenarios {
        let cache = PlanCache::new();
        let mut scratch = ServingScratch::new();
        // Warm pass: cold planning and scratch sizing happen once, outside
        // the measurement — the bench tracks the zero-alloc steady state
        // exp_drift gates on.
        scenario
            .run_streaming_with_cache_in(&strategy, &cluster, LEADER, &cache, &mut scratch)
            .expect("drift warm pass succeeds");
        group.bench_function(BenchmarkId::new(*name, COUNT), |b| {
            b.iter(|| {
                criterion::black_box(
                    scenario
                        .run_streaming_with_cache_in(
                            &strategy,
                            &cluster,
                            LEADER,
                            &cache,
                            &mut scratch,
                        )
                        .expect("drift pass succeeds"),
                );
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_drift);
criterion_main!(benches);
