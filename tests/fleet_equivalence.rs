//! Equivalence suite for the fleet tier.
//!
//! Two contracts pin `FleetScenario` to the layers beneath it:
//!
//! 1. **Degenerate configuration**: on a one-cluster fleet every routing
//!    policy collapses to "send everything to cluster 0" and the WAN cost
//!    is zero, so the fleet run must agree with
//!    `ServingScenario::run_streaming` on the same requests and serving
//!    config — exactly, on every aggregate. Both tiers feed the same
//!    latency histogram, so the percentiles are bit-identical too.
//! 2. **Thread-count invariance**: the sweep only decides *which thread*
//!    advances which cluster, so the whole `FleetSummary` must be
//!    bit-identical at 1/2/4/8 threads, for every routing policy, with
//!    failure timelines in play.

use hidp::core::{
    AdmissionPolicy, FleetScenario, FleetScratch, ParallelSweep, RoutingPolicy, ServingScenario,
    SlaClass,
};
use hidp::platform::{presets, Cluster, ClusterTimeline, Fleet, Link, NodeIndex, WanModel};
use hidp::workloads::{poisson_stream_classed, regional_diurnal_stream, FleetRequest};
use hidp::{HidpStrategy, WorkloadModel};

const LEADER: NodeIndex = NodeIndex(1);

/// Wraps one cluster into a single-region fleet (the WAN is a formality:
/// one site, zero cost everywhere).
fn single_cluster_fleet(cluster: Cluster) -> Fleet {
    let wan = WanModel::uniform(1, Link::new(100.0, 10.0).unwrap()).unwrap();
    Fleet::new(vec![cluster], vec![0], wan).unwrap()
}

#[test]
fn degenerate_single_cluster_fleet_matches_serving_streaming() {
    let cluster = presets::paper_cluster();
    let fleet = single_cluster_fleet(cluster.clone());
    let strategy = HidpStrategy::new();

    let requests = poisson_stream_classed(
        &[
            WorkloadModel::EfficientNetB0,
            WorkloadModel::InceptionV3,
            WorkloadModel::ResNet152,
        ],
        4.0,
        90,
        17,
        &SlaClass::ALL,
    );
    let serving_requests = hidp::workloads::InferenceRequest::to_serving(&requests);
    let fleet_requests: Vec<FleetRequest> = serving_requests
        .iter()
        .map(|&r| FleetRequest::new(r, 0))
        .collect();
    let timeline = ClusterTimeline::new()
        .node_down(1.0, NodeIndex(3))
        .unwrap()
        .node_up(6.0, NodeIndex(3))
        .unwrap();

    for policy in [AdmissionPolicy::Fifo, AdmissionPolicy::EarliestDeadline] {
        let reference = ServingScenario::new(serving_requests.clone())
            .with_policy(policy)
            .with_max_batch(4)
            .with_max_inflight(Some(2))
            .with_timeline(timeline.clone())
            .run_streaming(&strategy, &cluster, LEADER)
            .expect("serving run succeeds");

        for routing in [
            RoutingPolicy::Random { seed: 7 },
            RoutingPolicy::StaticHash,
            RoutingPolicy::LeastLoaded,
            RoutingPolicy::Locality,
        ] {
            let fleet_summary = FleetScenario::new(fleet_requests.clone())
                .with_routing(routing)
                .with_policy(policy)
                .with_max_batch(4)
                .with_max_inflight(Some(2))
                .with_timelines(vec![timeline.clone()])
                .run_streaming(&strategy, &fleet, LEADER)
                .expect("fleet run succeeds");

            let tag = format!("{}/{}", policy.name(), routing.name());
            // Every aggregate is bit-identical, percentiles included.
            assert_eq!(fleet_summary.requests, reference.requests, "{tag}");
            assert_eq!(fleet_summary.batches, reference.batches, "{tag}");
            assert_eq!(
                fleet_summary.epochs_applied, reference.epochs_applied,
                "{tag}"
            );
            assert_eq!(fleet_summary.makespan, reference.makespan, "{tag}");
            assert_eq!(fleet_summary.latency, reference.latency, "{tag}");
            assert_eq!(
                fleet_summary.mean_queueing_delay, reference.mean_queueing_delay,
                "{tag}"
            );
            assert_eq!(
                fleet_summary.max_queueing_delay, reference.max_queueing_delay,
                "{tag}"
            );
            assert_eq!(
                fleet_summary.deadline_misses, reference.deadline_misses,
                "{tag}"
            );
            assert_eq!(fleet_summary.plan_cache, reference.plan_cache, "{tag}");
            for class in SlaClass::ALL {
                match (fleet_summary.class(class), reference.class(class)) {
                    (Some(f), Some(r)) => assert_eq!(f, r, "{tag}/{class:?}"),
                    (None, None) => {}
                    (f, r) => panic!("{tag}/{class:?}: class presence differs: {f:?} vs {r:?}"),
                }
            }
            // One cluster ⇒ no WAN cost and trivial routing balance.
            assert_eq!(fleet_summary.clusters, 1, "{tag}");
            assert_eq!(fleet_summary.mean_wan_round_trip, 0.0, "{tag}");
            assert_eq!(
                fleet_summary.busiest_cluster_requests, reference.requests,
                "{tag}"
            );
        }
    }
}

#[test]
fn fleet_run_is_bit_identical_at_every_thread_count() {
    let fleet = presets::generated_fleet(8, 3).unwrap();
    let strategy = HidpStrategy::new();
    let requests = regional_diurnal_stream(
        &[
            WorkloadModel::EfficientNetB0,
            WorkloadModel::InceptionV3,
            WorkloadModel::ResNet152,
        ],
        &[3.0, 1.0, 1.5],
        2.0,
        14.0,
        30.0,
        400,
        23,
        &SlaClass::ALL,
    );
    // Give two clusters a failure window so epoch flips are in play.
    let mut timelines = vec![ClusterTimeline::new(); 8];
    timelines[2] = ClusterTimeline::new()
        .node_down(3.0, NodeIndex(0))
        .unwrap()
        .node_up(12.0, NodeIndex(0))
        .unwrap();
    timelines[5] = ClusterTimeline::new().node_down(6.0, NodeIndex(2)).unwrap();

    for routing in [
        RoutingPolicy::Random { seed: 3 },
        RoutingPolicy::StaticHash,
        RoutingPolicy::LeastLoaded,
        RoutingPolicy::Locality,
    ] {
        let scenario = FleetScenario::new(requests.clone())
            .with_routing(routing)
            .with_policy(AdmissionPolicy::EarliestDeadline)
            .with_max_batch(4)
            .with_max_inflight(Some(2))
            .with_timelines(timelines.clone())
            .with_round_seconds(2.0);
        let reference = scenario
            .run_streaming_in(
                &strategy,
                &fleet,
                LEADER,
                &ParallelSweep::new(1),
                &mut FleetScratch::new(),
            )
            .expect("fleet run succeeds");
        assert_eq!(reference.requests, requests.len(), "{}", routing.name());
        for threads in [2usize, 4, 8] {
            let mut scratch = FleetScratch::new();
            let summary = scenario
                .run_streaming_in(
                    &strategy,
                    &fleet,
                    LEADER,
                    &ParallelSweep::new(threads),
                    &mut scratch,
                )
                .expect("fleet run succeeds");
            assert_eq!(
                summary,
                reference,
                "{} at {threads} threads",
                routing.name()
            );
        }
    }
}

#[test]
fn reused_scratch_is_bit_identical_to_fresh_scratch() {
    // The scratch is pure working memory: running scenario B after scenario
    // A in the same scratch must give the same summary as a cold run, even
    // when B needs fewer clusters than A touched.
    let strategy = HidpStrategy::new();
    let big = presets::generated_fleet(6, 2).unwrap();
    let small = presets::generated_fleet(3, 1).unwrap();
    let requests = regional_diurnal_stream(
        &[WorkloadModel::EfficientNetB0, WorkloadModel::ResNet152],
        &[2.0, 1.0],
        1.0,
        8.0,
        20.0,
        150,
        5,
        &SlaClass::ALL,
    );
    let big_scenario = FleetScenario::new(requests.clone()).with_max_batch(2);
    let small_requests: Vec<FleetRequest> = requests
        .iter()
        .map(|fr| FleetRequest::new(fr.request, 0))
        .collect();
    let small_scenario = FleetScenario::new(small_requests)
        .with_routing(RoutingPolicy::Locality)
        .with_max_batch(2);

    let sweep = ParallelSweep::new(1);
    let mut scratch = FleetScratch::new();
    let big_cold = big_scenario
        .run_streaming_in(&strategy, &big, LEADER, &sweep, &mut scratch)
        .unwrap();
    let small_reused = small_scenario
        .run_streaming_in(&strategy, &small, LEADER, &sweep, &mut scratch)
        .unwrap();
    let big_reused = big_scenario
        .run_streaming_in(&strategy, &big, LEADER, &sweep, &mut scratch)
        .unwrap();

    let small_cold = small_scenario
        .run_streaming(&strategy, &small, LEADER)
        .unwrap();
    // Cache warmth differs between cold and reused runs; everything else
    // must not.
    assert_eq!(
        small_reused.plan_cache.hits + small_reused.plan_cache.misses,
        small_cold.plan_cache.hits + small_cold.plan_cache.misses
    );
    let strip = |mut s: hidp::FleetSummary| {
        s.plan_cache = hidp::core::PlanCacheStats::default();
        s
    };
    assert_eq!(strip(small_reused), strip(small_cold));
    assert_eq!(strip(big_reused), strip(big_cold));
}
