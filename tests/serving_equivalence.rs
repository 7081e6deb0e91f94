//! Equivalence suite for the serving runtime.
//!
//! The contract the `ServingScenario` refactor rests on: the old static
//! pipeline is a *degenerate* serving configuration (FIFO admission,
//! batch = 1, unbounded in-flight window, empty failure timeline), and in
//! that configuration every metric — latencies, makespan, energies, the
//! whole `SimReport`, even the plan-cache hit/miss attribution — is
//! **bit-identical** to `Scenario::run` on the same stream. On top of that,
//! `TraceDetail::Summary` must change nothing about the serving aggregates
//! (latency/energy/SLA), and the sweep runner must be thread-count
//! invariant.

use hidp::core::{
    AdmissionPolicy, ParallelSweep, PlanCache, ServingScenario, ServingScratch, ServingSweepJob,
    SlaClass, TraceDetail,
};
use hidp::platform::{presets, ClusterTimeline, NodeIndex};
use hidp::workloads::{bursty_stream, mixes, poisson_stream_classed, InferenceRequest};
use hidp::{HidpStrategy, WorkloadModel};

const LEADER: NodeIndex = NodeIndex(1);

/// The Mix-5 stream: EfficientNet-B0,
/// Inception-V3 and ResNet-152 cycling at a 0.15 s inter-arrival.
fn mix5_requests(count: usize) -> Vec<hidp::workloads::InferenceRequest> {
    let mix5 = mixes::all_mixes()
        .into_iter()
        .find(|m| m.id == 5)
        .expect("Mix-5 exists");
    mix5.requests(0.15, count)
}

#[test]
fn degenerate_serving_is_bit_identical_to_scenario_run_on_mix5() {
    let cluster = presets::paper_cluster();
    let strategy = HidpStrategy::new();
    let requests = mix5_requests(60);

    let static_eval = InferenceRequest::to_scenario(&requests)
        .with_label("mix5")
        .run(&strategy, &cluster, LEADER)
        .expect("static evaluation succeeds");
    let served = InferenceRequest::to_serving_scenario(&requests)
        .with_label("mix5")
        .run(&strategy, &cluster, LEADER)
        .expect("serving evaluation succeeds");

    // The embedded Evaluation matches the static pipeline field for field —
    // exact equality, no tolerance: latencies, makespan, both energy sums,
    // the full report (records, completions, arrivals, meter) and the
    // plan-cache attribution (3 misses, 57 hits on the cyclic mix).
    assert_eq!(served.evaluation, static_eval);

    // Degenerate admission: one batch per request, admitted at arrival,
    // epoch 0 throughout, zero queueing everywhere.
    assert_eq!(served.admissions.len(), requests.len());
    assert_eq!(served.epochs_applied, 0);
    for (i, (batch, request)) in served.admissions.iter().zip(&requests).enumerate() {
        assert_eq!(batch.members, vec![i]);
        assert_eq!(batch.admitted, request.arrival);
        assert_eq!(batch.epoch, 0);
    }
    assert_eq!(served.serving.max_queueing_delay, 0.0);
    assert_eq!(served.serving.mean_queueing_delay, 0.0);
    assert_eq!(served.serving.requests, requests.len());
}

#[test]
fn degenerate_serving_matches_scenario_for_every_baseline_strategy() {
    // The equivalence is a property of the pipeline, not of HiDP: every
    // paper strategy must agree between the two paths.
    let cluster = presets::paper_cluster();
    let requests = mix5_requests(12);
    for strategy in hidp::baselines::paper_strategies() {
        let static_eval = InferenceRequest::to_scenario(&requests)
            .with_label("mix5")
            .run(strategy.as_ref(), &cluster, LEADER)
            .expect("static evaluation succeeds");
        let served = InferenceRequest::to_serving_scenario(&requests)
            .with_label("mix5")
            .run(strategy.as_ref(), &cluster, LEADER)
            .expect("serving evaluation succeeds");
        assert_eq!(served.evaluation, static_eval, "{}", strategy.name());
    }
}

#[test]
fn summary_and_full_traces_agree_on_all_serving_aggregates() {
    // Satellite: Summary and Full must report identical latency/energy/SLA
    // aggregates on the same served stream — including under batching, a
    // bounded window and a failure timeline, where the serving loop does
    // real work.
    let cluster = presets::paper_cluster();
    let strategy = HidpStrategy::new();
    let requests = InferenceRequest::to_serving(&bursty_stream(
        &[WorkloadModel::InceptionV3, WorkloadModel::EfficientNetB0],
        4,
        0.3,
        32,
        &SlaClass::ALL,
    ));
    let timeline = ClusterTimeline::new()
        .node_down(0.5, NodeIndex(3))
        .unwrap()
        .node_up(2.5, NodeIndex(3))
        .unwrap();
    let scenario = ServingScenario::new(requests)
        .with_policy(AdmissionPolicy::Priority)
        .with_max_batch(4)
        .with_max_inflight(Some(2))
        .with_timeline(timeline);

    let full = scenario
        .clone()
        .with_trace_detail(TraceDetail::Full)
        .run(&strategy, &cluster, LEADER)
        .expect("full-trace run succeeds");
    let summary = scenario
        .with_trace_detail(TraceDetail::Summary)
        .run(&strategy, &cluster, LEADER)
        .expect("summary run succeeds");

    // The only difference is the materialised per-task trace.
    assert!(!full.evaluation.report.records.is_empty());
    assert!(summary.evaluation.report.records.is_empty());
    assert_eq!(full.evaluation.latencies, summary.evaluation.latencies);
    assert_eq!(full.evaluation.makespan, summary.evaluation.makespan);
    assert_eq!(
        full.evaluation.total_energy,
        summary.evaluation.total_energy
    );
    assert_eq!(
        full.evaluation.dynamic_energy,
        summary.evaluation.dynamic_energy
    );
    assert_eq!(full.evaluation.plan_cache, summary.evaluation.plan_cache);
    assert_eq!(
        full.evaluation.report.meter,
        summary.evaluation.report.meter
    );
    assert_eq!(full.serving, summary.serving);
    assert_eq!(full.records, summary.records);
    assert_eq!(full.admissions, summary.admissions);
    assert_eq!(full.epochs_applied, summary.epochs_applied);
}

#[test]
fn serving_sweep_is_thread_count_invariant() {
    // The same grid of serving jobs through ParallelSweep::run_serving at
    // 1/2/4 threads must produce bit-identical results (CI additionally
    // enforces this on every PR via `exp_serving --quick`).
    let cluster = presets::paper_cluster();
    let strategy = HidpStrategy::new();
    let requests = InferenceRequest::to_serving(&poisson_stream_classed(
        &WorkloadModel::ALL,
        3.0,
        24,
        11,
        &SlaClass::ALL,
    ));
    let scenarios: Vec<ServingScenario> = [
        AdmissionPolicy::Fifo,
        AdmissionPolicy::Priority,
        AdmissionPolicy::EarliestDeadline,
    ]
    .into_iter()
    .flat_map(|policy| {
        let requests = requests.clone();
        [1usize, 4].into_iter().map(move |max_batch| {
            ServingScenario::new(requests.clone())
                .with_label(format!("{}/k{max_batch}", policy.name()))
                .with_policy(policy)
                .with_max_batch(max_batch)
                .with_max_inflight(Some(2))
        })
    })
    .collect();
    let jobs: Vec<ServingSweepJob<'_>> = scenarios
        .iter()
        .map(|scenario| ServingSweepJob {
            scenario,
            strategy: &strategy,
            cluster: &cluster,
            leader: LEADER,
        })
        .collect();

    let reference: Vec<_> = {
        let cache = PlanCache::new();
        ParallelSweep::new(1)
            .run_serving(&jobs, &cache)
            .into_iter()
            .map(|r| r.expect("serving job succeeds"))
            .collect()
    };
    for threads in [2usize, 4] {
        let cache = PlanCache::new();
        let results: Vec<_> = ParallelSweep::new(threads)
            .run_serving(&jobs, &cache)
            .into_iter()
            .map(|r| r.expect("serving job succeeds"))
            .collect();
        assert_eq!(results, reference, "threads = {threads}");
    }
}

#[test]
fn scratch_and_shared_cache_entry_points_are_bit_identical() {
    // run / run_with_cache / run_with_cache_in must agree (modulo cache
    // stats, which depend on cache warmth).
    let cluster = presets::paper_cluster();
    let strategy = HidpStrategy::new();
    let requests = InferenceRequest::to_serving(&mix5_requests(15));
    let scenario = ServingScenario::new(requests)
        .with_max_batch(3)
        .with_max_inflight(Some(1));

    let direct = scenario.run(&strategy, &cluster, LEADER).unwrap();
    let cache = PlanCache::new();
    let mut scratch = ServingScratch::new();
    let cold = scenario
        .run_with_cache_in(&strategy, &cluster, LEADER, &cache, &mut scratch)
        .unwrap();
    let warm = scenario
        .run_with_cache_in(&strategy, &cluster, LEADER, &cache, &mut scratch)
        .unwrap();

    assert_eq!(direct.evaluation.plan_cache, cold.evaluation.plan_cache);
    for other in [&cold, &warm] {
        assert_eq!(direct.evaluation.latencies, other.evaluation.latencies);
        assert_eq!(direct.evaluation.makespan, other.evaluation.makespan);
        assert_eq!(direct.evaluation.report, other.evaluation.report);
        assert_eq!(direct.serving, other.serving);
        assert_eq!(direct.records, other.records);
        assert_eq!(direct.admissions, other.admissions);
    }
    // Warm run re-planned nothing.
    let stats = warm.evaluation.plan_cache.unwrap();
    assert_eq!(stats.misses, 0);
    assert!(stats.hits > 0);
}

#[test]
fn failure_timeline_changes_plans_only_after_the_flip() {
    // Before the failure the serving loop must produce the same plans the
    // static path does; after it, plans must avoid the failed node.
    let cluster = presets::paper_cluster();
    let strategy = HidpStrategy::new();
    // Two widely spaced requests so one falls on each side of the failure.
    let requests = vec![
        hidp::core::ServingRequest::new(WorkloadModel::InceptionV3, 0.0),
        hidp::core::ServingRequest::new(WorkloadModel::InceptionV3, 5.0),
    ];
    let timeline = ClusterTimeline::new().node_down(2.0, NodeIndex(0)).unwrap();
    let served = ServingScenario::new(requests)
        .with_timeline(timeline)
        .run(&strategy, &cluster, LEADER)
        .expect("serving run succeeds");
    assert_eq!(served.epochs_applied, 1);
    assert_eq!(served.evaluation.plan_cache.unwrap().misses, 2);
    // The post-failure batch ran in epoch 1 and its tasks avoid node 0.
    assert_eq!(served.admissions[1].epoch, 1);
    let records = &served.evaluation.report.records;
    assert!(!records.is_empty());
    for record in records.iter().filter(|r| r.request == 1) {
        if let Some(addr) = record.processor {
            assert_ne!(
                addr.node,
                NodeIndex(0),
                "task `{}` used a failed node",
                record.name
            );
        }
    }
}
