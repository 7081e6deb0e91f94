//! Benchmarks the streaming serving loop — the soak path: indexed
//! admission, the measured-completion dispatch model and histogram-sketched
//! summaries over a diurnal trace, at a bench-sized request count. The CI
//! bench-smoke job runs this with `--test` (one untimed pass per benchmark)
//! so the soak path compiles and executes on every PR; `exp_soak` is the
//! full-scale gate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hidp_bench::LEADER;
use hidp_core::{AdmissionPolicy, HidpStrategy, PlanCache, ServingScenario, ServingScratch};
use hidp_platform::presets;

fn bench_soak(c: &mut Criterion) {
    const COUNT: usize = 20_000;
    let cluster = presets::paper_cluster();
    let strategy = HidpStrategy::new();
    let requests = hidp_bench::soak_trace(COUNT);

    let mut group = c.benchmark_group("soak");
    group.sample_size(10);

    for (label, policy) in [
        ("fifo", AdmissionPolicy::Fifo),
        ("edf", AdmissionPolicy::EarliestDeadline),
    ] {
        let scenario = ServingScenario::new(requests.clone())
            .with_label(format!("soak-{label}"))
            .with_policy(policy)
            .with_max_batch(8)
            .with_max_inflight(Some(4));
        let cache = PlanCache::new();
        let mut scratch = ServingScratch::new();
        // Warm pass: cold planning and buffer sizing happen once, outside
        // the measurement — the bench tracks the steady state exp_soak
        // gates on.
        scenario
            .run_streaming_with_cache_in(&strategy, &cluster, LEADER, &cache, &mut scratch)
            .expect("soak warm pass succeeds");
        group.bench_function(BenchmarkId::new(format!("streaming_{label}"), COUNT), |b| {
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
                        .expect("soak pass succeeds"),
                );
            })
        });
    }

    group.finish();
}

criterion_group!(benches, bench_soak);
criterion_main!(benches);
