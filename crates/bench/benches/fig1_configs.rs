//! Benchmarks the Fig. 1 machinery: building and simulating one
//! partitioning-configuration plan on the Jetson TX2.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hidp_bench::{fig1_plan, FIG1_CONFIGS};
use hidp_dnn::zoo::WorkloadModel;
use hidp_platform::presets;
use hidp_sim::simulate_stream;

fn bench_fig1(c: &mut Criterion) {
    let cluster = presets::tx2_only();
    let mut group = c.benchmark_group("fig1_configs");
    group.sample_size(20);
    for model in [WorkloadModel::EfficientNetB0, WorkloadModel::Vgg19] {
        for config in [FIG1_CONFIGS[0], FIG1_CONFIGS[6]] {
            group.bench_with_input(
                BenchmarkId::new(model.name(), config.name),
                &(model, config),
                |b, (model, config)| {
                    b.iter(|| {
                        let plan = fig1_plan(*model, *config, &cluster);
                        simulate_stream(&[(0.0, plan)], &cluster).expect("valid plan")
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_fig1);
criterion_main!(benches);
