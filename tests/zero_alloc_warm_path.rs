//! The zero-copy contract, enforced with a counting allocator: once a
//! cyclic stream's first warm pass has sized every buffer, the steady-state
//! evaluation path — per-request cached-plan probes through a reused
//! borrowed `PlanKey` plus `simulate_stream_in` into a reused `SimScratch`
//! at `TraceDetail::Summary` — performs **zero** heap allocations, pass
//! after pass. This mirrors the `PlannerScratch` contract for cold
//! planning, one layer up.
//!
//! This file is the one place steady-state allocations are counted. Its
//! inputs are the configs the serving-tier experiments run: both soak
//! admission policies, every fleet routing policy, every chaos recovery
//! configuration and every drift configuration, at small sizes (chaos
//! `retry-shed` at the chaos experiment's 40 000 requests, where it kills
//! and retries work; at 400 it only sheds). The
//! counting allocator below counts **per thread** — and libtest runs every
//! test on its own thread — so the tests here (the static warm path, the
//! streaming serving, fleet, adaptive-drift and recovery passes) measure
//! independent counters.

use hidp::core::{
    AdmissionPolicy, FleetScenario, FleetScratch, ParallelSweep, PlanCache, PlanKey, RoutingPolicy,
    ServingScenario, ServingScratch, SimScratch, TraceDetail,
};
use hidp::dnn::zoo::WorkloadModel;
use hidp::platform::{presets, NodeIndex};
use hidp::sim::{simulate_stream_detailed, simulate_stream_in, ExecutionPlan};
use hidp::workloads::InferenceRequest;
use hidp::HidpStrategy;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Debug;
use std::sync::Arc;

/// Wraps the system allocator and counts every allocation (`alloc`,
/// `alloc_zeroed`, `realloc`) on the calling thread. The count is
/// thread-local so unrelated threads — the test harness, a parallel
/// sweep's workers — cannot pollute an audit.
struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Total allocations performed on the calling thread since it started
/// (monotone — audit a region by differencing before/after counts).
fn allocations_on_this_thread() -> u64 {
    ALLOCATIONS.with(|count| count.get())
}

fn bump() {
    // try_with: the allocator must stay usable during TLS teardown.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// The audit every test here runs on `pass`: one cold pass (planning and
/// buffer sizing may allocate freely), one expected pass that fixes the
/// result (its cache stats — all hits — match every later pass's, while
/// the cold pass records misses), then five audited passes that must each
/// reproduce it bit for bit and together allocate nothing. Returns the
/// expected result.
fn assert_steady_state_allocates_nothing<T: PartialEq + Debug>(
    what: &str,
    mut pass: impl FnMut() -> T,
) -> T {
    pass();
    let expected = pass();
    let before = allocations_on_this_thread();
    for _ in 0..5 {
        assert_eq!(pass(), expected, "{what}: a steady-state pass diverged");
    }
    let allocations = allocations_on_this_thread() - before;
    assert_eq!(
        allocations, 0,
        "{what}: the steady-state pass must not allocate (got {allocations} \
         allocations over 5 passes)"
    );
    expected
}

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
    // The cold pass plans the 3 distinct models (allocating — cold planning
    // is allowed to) and sizes every buffer; the per-request warm path
    // after it must be allocation-free.
    assert_steady_state_allocates_nothing("warm path, 60 requests", || {
        planned.clear();
        for (arrival, graph) in &stream {
            key.graph_fingerprint = graph.fingerprint();
            key.batch = graph.input_shape().batch();
            let (plan, _) = cache
                .plan_keyed(&key, &strategy, graph, &cluster, leader)
                .expect("planning succeeds");
            planned.push((*arrival, plan));
        }
        simulate_stream_in(&mut scratch, &planned, &cluster, TraceDetail::Summary)
            .expect("stream simulates")
            .makespan
    });

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
    // loop touches only reused buffers and Copy accumulators. Both soak
    // configs (FIFO and EDF, batch 8, window 4) run, plus FIFO at window 2.
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
    let mut scenarios = vec![ServingScenario::new(requests.clone())
        .with_label("zero-alloc-soak")
        .with_policy(AdmissionPolicy::Fifo)
        .with_max_batch(8)
        .with_max_inflight(Some(2))];
    scenarios.extend(
        hidp_bench::soak_configs()
            .into_iter()
            .map(|(label, policy)| hidp_bench::soak_scenario(requests.clone(), label, policy)),
    );

    for scenario in &scenarios {
        let cache = PlanCache::new();
        let mut scratch = ServingScratch::new();
        assert_steady_state_allocates_nothing(
            &format!("{}, 120 requests", scenario.label()),
            || {
                scenario
                    .run_streaming_with_cache_in(&strategy, &cluster, leader, &cache, &mut scratch)
                    .expect("streaming run succeeds")
            },
        );
    }
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
    // 1M-request fleet soak's memory. Every routing policy of the fleet
    // comparison runs in its serving shape, plus least-loaded routing
    // under FIFO at batch 4, window 2.
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
    let mut scenarios = vec![FleetScenario::new(requests.clone())
        .with_label("zero-alloc-fleet")
        .with_routing(RoutingPolicy::LeastLoaded)
        .with_policy(AdmissionPolicy::Fifo)
        .with_max_batch(4)
        .with_max_inflight(Some(2))];
    scenarios.extend(
        hidp_bench::fleet_routing_policies()
            .into_iter()
            .map(|routing| hidp_bench::fleet_scenario(requests.clone(), routing)),
    );

    let sweep = ParallelSweep::new(1);
    for scenario in &scenarios {
        let mut scratch = FleetScratch::new();
        assert_steady_state_allocates_nothing(
            &format!("{}, 160 requests on 4 clusters", scenario.label()),
            || {
                scenario
                    .run_streaming_in(&strategy, &fleet, leader, &sweep, &mut scratch)
                    .expect("fleet run succeeds")
            },
        );
    }
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
    // the already-populated cache. Every drift configuration of the drift
    // experiment runs.
    let cluster = presets::paper_cluster();
    let strategy = HidpStrategy::new();

    let requests = hidp_bench::soak_trace(1_000);
    let horizon = requests
        .iter()
        .map(|r| r.arrival)
        .fold(0.0, f64::max)
        .max(1.0);
    let trace = hidp_bench::drift_trace(cluster.len(), horizon, 0xD21F7);

    for (label, with_drift, adaptive) in hidp_bench::drift_configs() {
        let scenario = hidp_bench::drift_scenario(
            requests.clone(),
            label,
            with_drift.then(|| trace.clone()),
            adaptive,
        );
        let cache = PlanCache::new();
        let mut scratch = ServingScratch::new();
        // The cold pass plans every (model, batch, believed-fingerprint)
        // key and sizes the estimator arrays.
        let expected =
            assert_steady_state_allocates_nothing(&format!("drift {label}, 1000 requests"), || {
                scenario
                    .run_streaming_with_cache_in(
                        &strategy,
                        &cluster,
                        hidp_bench::LEADER,
                        &cache,
                        &mut scratch,
                    )
                    .expect("drift pass succeeds")
            });
        if adaptive.is_some() {
            assert!(expected.drift.observations > 0, "{label}");
        }
        if with_drift && adaptive.is_some() {
            assert!(
                expected.drift.replans > 0,
                "the trace must actually trigger re-planning or the contract is \
                 vacuous: {:?}",
                expected.drift
            );
        }
    }
}

#[test]
fn steady_state_recovery_path_allocates_nothing() {
    // The chaos extension of the fleet contract: with kill semantics, a
    // seeded fault suite (flaps, a rack outage, stragglers, WAN windows)
    // and retry + failover all active, the steady-state pass still
    // performs **zero** heap allocations — the pending-batch FIFO, the
    // router's retry heap and the per-epoch plan entries are sized and
    // cached by the first pass and only reused afterwards. Every recovery
    // configuration of the chaos experiment runs, each at a size where the
    // suite exercises its path: 400 requests kill work under no-recovery
    // and kill and retry it under retry-failover, but retry-shed sheds the
    // late queue first and kills nothing there, so it runs at the chaos
    // experiment's full size, 40 000 requests, where it kills and retries.
    let fleet = presets::generated_fleet(4, 2).unwrap();
    let strategy = HidpStrategy::new();
    let node_counts: Vec<usize> = fleet.clusters().iter().map(|c| c.len()).collect();

    let sweep = ParallelSweep::new(1);
    for (label, recovery) in hidp_bench::chaos_configs() {
        let count = if label == "retry-shed" { 40_000 } else { 400 };
        let requests = hidp_bench::fleet_trace(count, 2, 1.2);
        let horizon = requests
            .iter()
            .map(|r| r.request.arrival)
            .fold(0.0, f64::max)
            .max(1.0);
        let plans = hidp_bench::chaos_fault_suite(&node_counts, horizon, 0xC4405);
        let scenario = hidp_bench::chaos_scenario(requests, &plans, label, recovery);
        let mut scratch = FleetScratch::new();
        // The cold pass plans every (model, batch, epoch) key and sizes the
        // recovery buffers.
        let expected = assert_steady_state_allocates_nothing(
            &format!("chaos {label}, {count} requests on 4 clusters"),
            || {
                scenario
                    .run_streaming_in(&strategy, &fleet, hidp_bench::LEADER, &sweep, &mut scratch)
                    .expect("chaos pass succeeds")
            },
        );
        let r = expected.robustness;
        assert!(r.accounts_for_every_request(), "{label}: {r:?}");
        // Each faulted configuration must actually take its recovery path,
        // or the contract is vacuous for it.
        match recovery {
            None => assert_eq!(r.killed, 0, "{label}: nothing is injected: {r:?}"),
            Some(policy) => {
                assert!(r.killed > 0, "{label}: the suite must kill work: {r:?}");
                if policy.retry.is_some() {
                    assert!(r.retried > 0, "{label}: killed work must be retried: {r:?}");
                }
            }
        }
    }
}
