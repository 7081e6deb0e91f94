//! The zero-copy contract, enforced with a counting allocator: once a
//! cyclic stream's first warm pass has sized every buffer, the steady-state
//! evaluation path — per-request cached-plan probes through a reused
//! borrowed `PlanKey` plus `simulate_stream_in` into a reused `SimScratch`
//! at `TraceDetail::Summary` — performs **zero** heap allocations, pass
//! after pass. This mirrors what PR 3's `PlannerScratch` test did for cold
//! planning, one layer up.
//!
//! The allocator (`hidp_bench::alloc_count`, shared with the zero-allocation
//! gates of `exp_soak`, `exp_fleet`, `exp_chaos` and `exp_drift` so all
//! enforce the same definition of "allocation") counts **per thread** — and
//! libtest runs every test on its own thread — so the tests here (the static
//! warm path, the streaming serving, fleet, adaptive-drift and recovery
//! passes) measure independent counters.

use hidp::core::{
    AdmissionPolicy, FleetScenario, FleetScratch, ParallelSweep, PlanCache, PlanKey, RoutingPolicy,
    ServingScenario, ServingScratch, SimScratch, TraceDetail,
};
use hidp::dnn::zoo::WorkloadModel;
use hidp::platform::{presets, NodeIndex};
use hidp::sim::{simulate_stream_detailed, simulate_stream_in, ExecutionPlan};
use hidp::workloads::InferenceRequest;
use hidp::HidpStrategy;
use hidp_bench::alloc_count::{allocations_on_this_thread, CountingAllocator};
use std::sync::Arc;

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn steady_state_warm_path_allocates_nothing() {
    let cluster = presets::paper_cluster();
    let strategy = HidpStrategy::new();
    let leader = NodeIndex(1);

    // A cyclic Mix-5-style stream: 60 requests over 3 distinct models.
    let models = [
        WorkloadModel::EfficientNetB0,
        WorkloadModel::InceptionV3,
        WorkloadModel::ResNet152,
    ];
    let requests = hidp::workloads::repeating_stream(&models, 0.05, 60);
    let stream = InferenceRequest::to_stream(&requests);

    // One reusable key, hoisted exactly as Scenario::run_with_cache does.
    let cache = PlanCache::new();
    let mut key = PlanKey::for_run(&strategy, &cluster, leader);

    let mut scratch = SimScratch::new();
    let mut planned: Vec<(f64, Arc<ExecutionPlan>)> = Vec::with_capacity(stream.len());
    let warm_pass = |key: &mut PlanKey,
                     planned: &mut Vec<(f64, Arc<ExecutionPlan>)>,
                     scratch: &mut SimScratch|
     -> f64 {
        planned.clear();
        for (arrival, graph) in &stream {
            key.graph_fingerprint = graph.fingerprint();
            key.batch = graph.input_shape().batch();
            let (plan, _) = cache
                .plan_keyed(key, &strategy, graph, &cluster, leader)
                .expect("planning succeeds");
            planned.push((*arrival, plan));
        }
        let report = simulate_stream_in(scratch, planned, &cluster, TraceDetail::Summary)
            .expect("stream simulates");
        report.makespan
    };

    // First pass: plans the 3 distinct models (allocating — cold planning
    // is allowed to) and sizes every buffer.
    let expected_makespan = warm_pass(&mut key, &mut planned, &mut scratch);

    // Steady state: every subsequent pass — the per-request warm path — must
    // be allocation-free, and bit-identical.
    let before = allocations_on_this_thread();
    for _ in 0..5 {
        let makespan = warm_pass(&mut key, &mut planned, &mut scratch);
        assert_eq!(makespan, expected_makespan);
    }
    let allocations = allocations_on_this_thread() - before;
    assert_eq!(
        allocations, 0,
        "the steady-state warm path must not allocate (got {allocations} \
         allocations over 5 passes of 60 requests)"
    );

    // The zero-alloc path is not a different pipeline: its report matches
    // the one-shot allocating entry point exactly.
    let one_shot =
        simulate_stream_detailed(&planned, &cluster, TraceDetail::Summary).expect("simulates");
    let reused = simulate_stream_in(&mut scratch, &planned, &cluster, TraceDetail::Summary)
        .expect("simulates");
    assert_eq!(*reused, one_shot);
}

#[test]
fn steady_state_streaming_serving_pass_allocates_nothing() {
    // The serving counterpart of the warm-path contract, one layer up: once
    // the first streaming pass has planned the distinct (model, batch-size)
    // graphs and sized the ServingScratch — the indexed queue's arrays, the
    // dispatch model's resource tables, the hoisted PlanKey's strings — a
    // steady-state `run_streaming_with_cache_in` pass over a bursty,
    // batching, windowed workload performs **zero** heap allocations. This
    // is the property that bounds the 1M-request soak's memory: per pass the
    // loop touches only reused buffers and Copy accumulators.
    let cluster = presets::paper_cluster();
    let strategy = HidpStrategy::new();
    let leader = NodeIndex(1);

    let models = [
        WorkloadModel::EfficientNetB0,
        WorkloadModel::InceptionV3,
        WorkloadModel::ResNet152,
    ];
    let requests = InferenceRequest::to_serving(&hidp::workloads::bursty_stream(
        &models,
        8,
        0.3,
        120,
        &hidp::core::SlaClass::ALL,
    ));
    let scenario = ServingScenario::new(requests)
        .with_label("zero-alloc-soak")
        .with_policy(AdmissionPolicy::Fifo)
        .with_max_batch(8)
        .with_max_inflight(Some(2));

    let cache = PlanCache::new();
    let mut scratch = ServingScratch::new();

    // First pass: cold planning and buffer sizing may allocate freely. The
    // second pass is the first all-hit steady-state pass; it fixes the
    // expected summary (its cache stats — all hits — match every later
    // pass's, while the cold pass records misses).
    scenario
        .run_streaming_with_cache_in(&strategy, &cluster, leader, &cache, &mut scratch)
        .expect("streaming run succeeds");
    let expected = scenario
        .run_streaming_with_cache_in(&strategy, &cluster, leader, &cache, &mut scratch)
        .expect("streaming run succeeds");

    // Steady state: allocation-free and bit-identical, pass after pass.
    let before = allocations_on_this_thread();
    for _ in 0..5 {
        let summary = scenario
            .run_streaming_with_cache_in(&strategy, &cluster, leader, &cache, &mut scratch)
            .expect("streaming run succeeds");
        assert_eq!(summary, expected);
    }
    let allocations = allocations_on_this_thread() - before;
    assert_eq!(
        allocations, 0,
        "the steady-state streaming serving pass must not allocate (got \
         {allocations} allocations over 5 passes of 120 requests)"
    );
}

#[test]
fn steady_state_fleet_pass_allocates_nothing() {
    // The fleet-tier extension of the same contract: once the first pass
    // has planned every cluster's distinct graphs and sized the
    // `FleetScratch` — per-cluster workers (indexed queues, dispatch
    // tables, in-flight heaps, request buffers) plus the router's order
    // index — a steady-state `run_streaming_in` pass at `threads == 1`
    // over a multi-cluster regional workload performs **zero** heap
    // allocations. Per-request fleet state is Copy (latency histograms are
    // fixed arrays), so nothing about routing, per-round backlog snapshots
    // or epoch flips may touch the heap. This is what bounds the
    // 1M-request fleet soak's memory.
    let fleet = presets::generated_fleet(4, 2).unwrap();
    let strategy = HidpStrategy::new();
    let leader = NodeIndex(1);

    let requests = hidp::workloads::regional_diurnal_stream(
        &[
            WorkloadModel::EfficientNetB0,
            WorkloadModel::InceptionV3,
            WorkloadModel::ResNet152,
        ],
        &[3.0, 1.0],
        2.0,
        10.0,
        20.0,
        160,
        9,
        &hidp::core::SlaClass::ALL,
    );
    let scenario = FleetScenario::new(requests)
        .with_label("zero-alloc-fleet")
        .with_routing(RoutingPolicy::LeastLoaded)
        .with_policy(AdmissionPolicy::Fifo)
        .with_max_batch(4)
        .with_max_inflight(Some(2));

    let sweep = ParallelSweep::new(1);
    let mut scratch = FleetScratch::new();
    // Cold pass: plans and sizes every buffer. Second pass fixes the
    // expected summary (all-hit cache stats).
    scenario
        .run_streaming_in(&strategy, &fleet, leader, &sweep, &mut scratch)
        .expect("fleet run succeeds");
    let expected = scenario
        .run_streaming_in(&strategy, &fleet, leader, &sweep, &mut scratch)
        .expect("fleet run succeeds");

    let before = allocations_on_this_thread();
    for _ in 0..5 {
        let summary = scenario
            .run_streaming_in(&strategy, &fleet, leader, &sweep, &mut scratch)
            .expect("fleet run succeeds");
        assert_eq!(summary, expected);
    }
    let allocations = allocations_on_this_thread() - before;
    assert_eq!(
        allocations, 0,
        "the steady-state fleet pass must not allocate (got {allocations} \
         allocations over 5 passes of 160 requests on 4 clusters)"
    );
}

#[test]
fn steady_state_adaptive_drift_pass_allocates_nothing() {
    // The drift extension of the serving contract: with a seeded
    // throttling/contention trace active and the full adaptive loop armed —
    // EWMA estimation on every completion, hysteresis-bounded re-planning
    // on the believed cluster — the steady-state pass still performs
    // **zero** heap allocations. The believed cluster is retained across
    // resets (deactivated, not dropped) so re-derating rescales it in
    // place, and the quantized belief grid keeps the re-planned keys inside
    // the already-populated cache. This is the test-suite twin of the
    // `exp_drift` bounded-memory gate.
    let cluster = presets::paper_cluster();
    let strategy = HidpStrategy::new();

    let requests = hidp_bench::soak_trace(1_000);
    let horizon = requests
        .iter()
        .map(|r| r.arrival)
        .fold(0.0, f64::max)
        .max(1.0);
    let trace = hidp_bench::drift_trace(cluster.len(), horizon, 0xD21F7);
    let scenario = hidp_bench::drift_scenario(
        requests,
        "zero-alloc-drift",
        Some(trace),
        Some(hidp::core::AdaptiveConfig::default()),
    );

    let cache = PlanCache::new();
    let mut scratch = ServingScratch::new();
    // Cold pass: plans every (model, batch, believed-fingerprint) key and
    // sizes the estimator arrays. Second pass fixes the expected summary.
    scenario
        .run_streaming_with_cache_in(
            &strategy,
            &cluster,
            hidp_bench::LEADER,
            &cache,
            &mut scratch,
        )
        .expect("drift warm pass succeeds");
    let expected = scenario
        .run_streaming_with_cache_in(
            &strategy,
            &cluster,
            hidp_bench::LEADER,
            &cache,
            &mut scratch,
        )
        .expect("drift pass succeeds");
    assert!(
        expected.drift.replans > 0,
        "the trace must actually trigger re-planning or the contract is \
         vacuous: {:?}",
        expected.drift
    );
    assert!(expected.drift.observations > 0);

    let before = allocations_on_this_thread();
    for _ in 0..5 {
        let summary = scenario
            .run_streaming_with_cache_in(
                &strategy,
                &cluster,
                hidp_bench::LEADER,
                &cache,
                &mut scratch,
            )
            .expect("drift pass succeeds");
        assert_eq!(summary, expected);
    }
    let allocations = allocations_on_this_thread() - before;
    assert_eq!(
        allocations, 0,
        "the steady-state adaptive drift pass must not allocate (got \
         {allocations} allocations over 5 passes of 1000 drifted requests)"
    );
}

#[test]
fn steady_state_recovery_path_allocates_nothing() {
    // The chaos extension of the fleet contract: with kill semantics, a
    // seeded fault suite (flaps, a rack outage, stragglers, WAN windows)
    // and retry + failover all active, the steady-state pass still
    // performs **zero** heap allocations — the pending-batch FIFO, the
    // router's retry heap and the per-epoch plan entries are sized and
    // cached by the first pass and only reused afterwards. This is the
    // test-suite twin of the `exp_chaos` bounded-memory gate.
    let fleet = presets::generated_fleet(4, 2).unwrap();
    let strategy = HidpStrategy::new();

    let requests = hidp_bench::fleet_trace(400, 2, 1.2);
    let horizon = requests
        .iter()
        .map(|r| r.request.arrival)
        .fold(0.0, f64::max)
        .max(1.0);
    let node_counts: Vec<usize> = fleet.clusters().iter().map(|c| c.len()).collect();
    let plans = hidp_bench::chaos_fault_suite(&node_counts, horizon, 0xC4405);
    let scenario = hidp_bench::chaos_scenario(
        requests,
        &plans,
        "zero-alloc-chaos",
        hidp::core::RecoveryPolicy::standard(),
    );

    let sweep = ParallelSweep::new(1);
    let mut scratch = FleetScratch::new();
    // Cold pass: plans every (model, batch, epoch) key and sizes the
    // recovery buffers. Second pass fixes the expected summary.
    scenario
        .run_streaming_in(&strategy, &fleet, hidp_bench::LEADER, &sweep, &mut scratch)
        .expect("chaos warm pass succeeds");
    let expected = scenario
        .run_streaming_in(&strategy, &fleet, hidp_bench::LEADER, &sweep, &mut scratch)
        .expect("chaos pass succeeds");
    assert!(
        expected.robustness.killed > 0,
        "the suite must actually kill work or the contract is vacuous: {:?}",
        expected.robustness
    );
    assert!(expected.robustness.accounts_for_every_request());

    let before = allocations_on_this_thread();
    for _ in 0..5 {
        let summary = scenario
            .run_streaming_in(&strategy, &fleet, hidp_bench::LEADER, &sweep, &mut scratch)
            .expect("chaos pass succeeds");
        assert_eq!(summary, expected);
    }
    let allocations = allocations_on_this_thread() - before;
    assert_eq!(
        allocations, 0,
        "the steady-state recovery path must not allocate (got {allocations} \
         allocations over 5 passes of 400 faulted requests on 4 clusters)"
    );
}
