//! Robustness contracts for the failure-domain layer.
//!
//! Four families of guarantees pin the chaos machinery:
//!
//! 1. **No-fault pinning** — enabling kill semantics and recovery with no
//!    faults to act on must reproduce the inert configuration's serving and
//!    fleet runs bit for bit, summary field by summary field, under FIFO
//!    and earliest-deadline admission alike.
//! 2. **Conservation** — under a seeded fault suite, every recovery policy
//!    keeps the accounting invariant `offered == completed + dropped +
//!    in_flight_at_horizon`; with bounded-but-generous retries and no
//!    deadline abort, nothing is permanently lost.
//! 3. **Edge cases** — a failure at t = 0, a down-flip landing at exactly
//!    an arrival instant, and a double flap inside one backoff window (the
//!    retry itself is killed and must escalate) all resolve
//!    deterministically.
//! 4. **Determinism under faults** — property test: a `FaultPlan`-driven
//!    fleet run is bit-identical at 1/2/4/8 worker threads for arbitrary
//!    suite seeds.

use hidp::core::{
    AdmissionPolicy, FailureMode, FleetScenario, FleetScratch, ParallelSweep, RecoveryPolicy,
    RetryPolicy, RoutingPolicy, ServingRequest, ServingScenario, SlaClass,
};
use hidp::platform::{presets, ClusterTimeline, NodeIndex};
use hidp::workloads::{regional_diurnal_stream, standard_fault_suite, FleetRequest};
use hidp::{HidpStrategy, WorkloadModel};
use proptest::prelude::*;

const LEADER: NodeIndex = NodeIndex(1);

/// Downs every non-leader node of the paper cluster at `down` and restores
/// them at `up` — a full blackout window that reliably kills any
/// distributed in-flight plan.
fn blackout(timeline: ClusterTimeline, down: f64, up: f64) -> ClusterTimeline {
    let nodes = presets::paper_cluster().len();
    let mut t = timeline;
    for n in (0..nodes).filter(|&n| n != LEADER.0) {
        t = t
            .node_down(down, NodeIndex(n))
            .unwrap()
            .node_up(up, NodeIndex(n))
            .unwrap();
    }
    t
}

/// Retry forever-ish with no jitter and no deadline abort: kills can only
/// end in completion (or exhaust ten attempts, which the tests treat as a
/// failure).
fn persistent_retry() -> RecoveryPolicy {
    RecoveryPolicy {
        retry: Some(RetryPolicy {
            max_attempts: 10,
            backoff_base_s: 0.015,
            backoff_factor: 1.0,
            jitter_frac: 0.0,
            seed: 0x5eed,
        }),
        deadline_abort: false,
        shed: false,
    }
}

fn fleet_stream(count: usize, seed: u64) -> Vec<FleetRequest> {
    regional_diurnal_stream(
        &[
            WorkloadModel::EfficientNetB0,
            WorkloadModel::InceptionV3,
            WorkloadModel::ResNet152,
        ],
        &[3.0, 1.0],
        2.0,
        10.0,
        20.0,
        count,
        seed,
        &SlaClass::ALL,
    )
}

fn horizon_of(requests: &[FleetRequest]) -> f64 {
    requests
        .iter()
        .map(|r| r.request.arrival)
        .fold(0.0, f64::max)
        .max(1.0)
}

#[test]
fn no_fault_robust_serving_and_fleet_pin_to_inert() {
    let strategy = HidpStrategy::new();

    // Serving tier: Kill + standard recovery with an empty timeline.
    let cluster = presets::paper_cluster();
    let requests: Vec<ServingRequest> = (0..40)
        .map(|i| {
            ServingRequest::new(WorkloadModel::InceptionV3, i as f64 * 0.05)
                .with_sla(SlaClass::ALL[i % SlaClass::ALL.len()])
        })
        .collect();
    let base = ServingScenario::new(requests.clone())
        .with_policy(AdmissionPolicy::EarliestDeadline)
        .with_max_batch(4)
        .with_max_inflight(Some(2));
    let inert = base
        .clone()
        .run_streaming(&strategy, &cluster, LEADER)
        .unwrap();
    let robust = base
        .with_failure_mode(FailureMode::Kill)
        .with_recovery(RecoveryPolicy::standard())
        .run_streaming(&strategy, &cluster, LEADER)
        .unwrap();
    assert_eq!(inert, robust, "serving no-fault robust path diverged");
    let r = robust.robustness;
    assert_eq!(r.offered, requests.len() as u64);
    assert_eq!(r.completed, requests.len() as u64);
    assert_eq!(
        (r.shed, r.aborted, r.lost, r.killed, r.retried),
        (0, 0, 0, 0, 0)
    );
    assert_eq!(r.in_flight_at_horizon, 0);

    // Fleet tier: same pinning across three routing policies, under both
    // FIFO and earliest-deadline admission (EDF ranks by the WAN-aware
    // deadline whether or not kills are armed).
    let fleet = presets::generated_fleet(3, 2).unwrap();
    let fleet_requests = fleet_stream(90, 11);
    for policy in [AdmissionPolicy::Fifo, AdmissionPolicy::EarliestDeadline] {
        for routing in [
            RoutingPolicy::LeastLoaded,
            RoutingPolicy::Locality,
            RoutingPolicy::StaticHash,
        ] {
            let base = FleetScenario::new(fleet_requests.clone())
                .with_routing(routing)
                .with_policy(policy)
                .with_max_batch(4)
                .with_max_inflight(Some(2));
            let inert = base.run_streaming(&strategy, &fleet, LEADER).unwrap();
            let robust = base
                .clone()
                .with_failure_mode(FailureMode::Kill)
                .with_recovery(RecoveryPolicy::standard())
                .run_streaming(&strategy, &fleet, LEADER)
                .unwrap();
            let tag = format!("{}/{}", policy.name(), routing.name());
            assert_eq!(inert, robust, "{tag} no-fault robust path");
            assert_eq!(robust.robustness.offered, fleet_requests.len() as u64);
            assert_eq!(robust.robustness.completed, fleet_requests.len() as u64);
            assert_eq!(robust.robustness.dropped(), 0);
        }
    }
}

#[test]
fn accounting_balances_under_every_recovery_policy() {
    let strategy = HidpStrategy::new();
    let fleet = presets::generated_fleet(4, 2).unwrap();
    let requests = fleet_stream(300, 7);
    let node_counts: Vec<usize> = fleet.clusters().iter().map(|c| c.len()).collect();
    let plans = standard_fault_suite(&node_counts, 0xFA57, horizon_of(&requests), LEADER).unwrap();
    let timelines: Vec<ClusterTimeline> = plans.iter().map(|p| p.timeline.clone()).collect();
    let slowdowns: Vec<_> = plans.iter().map(|p| p.slowdowns.clone()).collect();

    let policies: [(&str, RecoveryPolicy); 4] = [
        ("no-recovery", RecoveryPolicy::default()),
        ("standard", RecoveryPolicy::standard()),
        (
            "standard+shed",
            RecoveryPolicy {
                shed: true,
                ..RecoveryPolicy::standard()
            },
        ),
        ("persistent", persistent_retry()),
    ];
    for (name, recovery) in policies {
        let summary = FleetScenario::new(requests.clone())
            .with_routing(RoutingPolicy::LeastLoaded)
            .with_max_batch(4)
            .with_max_inflight(Some(2))
            .with_timelines(timelines.clone())
            .with_slowdowns(slowdowns.clone())
            .with_wan_degradations(plans[0].wan.clone())
            .with_failure_mode(FailureMode::Kill)
            .with_recovery(recovery)
            .run_streaming(&strategy, &fleet, LEADER)
            .unwrap();
        let r = summary.robustness;
        assert_eq!(r.offered, requests.len() as u64, "{name}");
        assert!(r.accounts_for_every_request(), "{name}: {r:?}");
        assert_eq!(
            summary.latency.count as u64, r.completed,
            "{name}: only completed requests contribute latency samples"
        );
    }

    // With generous retries and no deadline abort, kills can only resolve
    // into completions: nothing is permanently dropped.
    let persistent = FleetScenario::new(requests.clone())
        .with_routing(RoutingPolicy::LeastLoaded)
        .with_max_batch(4)
        .with_max_inflight(Some(2))
        .with_timelines(timelines)
        .with_slowdowns(slowdowns)
        .with_failure_mode(FailureMode::Kill)
        .with_recovery(persistent_retry())
        .run_streaming(&strategy, &fleet, LEADER)
        .unwrap();
    let r = persistent.robustness;
    assert_eq!(r.completed, r.offered, "{r:?}");
    assert_eq!((r.lost, r.aborted, r.shed), (0, 0, 0), "{r:?}");
}

#[test]
fn failure_at_time_zero_and_flip_on_arrival_resolve_deterministically() {
    let strategy = HidpStrategy::new();
    let cluster = presets::paper_cluster();
    // A down-flip at exactly t = 0 (before anything is in flight) and a
    // second one at exactly the instant the second wave arrives.
    let timeline = blackout(blackout(ClusterTimeline::new(), 0.0, 0.4), 0.5, 0.9);
    let requests: Vec<ServingRequest> = [0.0, 0.0, 0.5, 0.5, 1.2]
        .iter()
        .map(|&at| ServingRequest::new(WorkloadModel::ResNet152, at).with_sla(SlaClass::BestEffort))
        .collect();
    let scenario = ServingScenario::new(requests.clone())
        .with_timeline(timeline)
        .with_failure_mode(FailureMode::Kill)
        .with_recovery(persistent_retry());

    let first = scenario.run_streaming(&strategy, &cluster, LEADER).unwrap();
    let second = scenario.run_streaming(&strategy, &cluster, LEADER).unwrap();
    assert_eq!(first, second, "edge-case replay must be bit-identical");
    let r = first.robustness;
    assert!(r.accounts_for_every_request(), "{r:?}");
    assert_eq!(r.offered, requests.len() as u64);
    assert_eq!(
        r.completed, r.offered,
        "persistent retries resolve every kill: {r:?}"
    );
    assert_eq!(r.lost, 0, "{r:?}");
}

#[test]
fn double_flap_inside_one_backoff_window_rekills_the_retry() {
    let strategy = HidpStrategy::new();
    let cluster = presets::paper_cluster();
    // Flap 1 kills the original attempt at 0.01; the cluster is whole
    // again at 0.02, so the retry (released at 0.025 with the exact
    // 0.015 s backoff) plans across the full cluster — and flap 2 at 0.03
    // kills it too. The second retry lands during the long outage, plans
    // around the downed nodes, and completes. One request, two kills, two
    // retries, zero losses.
    let timeline = blackout(blackout(ClusterTimeline::new(), 0.01, 0.02), 0.03, 30.0);
    let requests =
        vec![ServingRequest::new(WorkloadModel::ResNet152, 0.0).with_sla(SlaClass::BestEffort)];
    let summary = ServingScenario::new(requests)
        .with_timeline(timeline)
        .with_failure_mode(FailureMode::Kill)
        .with_recovery(persistent_retry())
        .run_streaming(&strategy, &cluster, LEADER)
        .unwrap();
    let r = summary.robustness;
    assert!(r.accounts_for_every_request(), "{r:?}");
    assert_eq!(r.killed, 2, "both flaps must kill an attempt: {r:?}");
    assert_eq!(r.retried, 2, "each kill escalates the attempt count: {r:?}");
    assert_eq!((r.completed, r.lost), (1, 0), "{r:?}");
    assert_eq!(summary.latency.count, 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fault_plan_runs_are_bit_identical_across_thread_counts(seed in 0u64..1_000_000) {
        let strategy = HidpStrategy::new();
        let fleet = presets::generated_fleet(4, 2).unwrap();
        let requests = fleet_stream(140, seed ^ 0x9E37);
        let node_counts: Vec<usize> = fleet.clusters().iter().map(|c| c.len()).collect();
        let plans =
            standard_fault_suite(&node_counts, seed, horizon_of(&requests), LEADER).unwrap();
        let scenario = FleetScenario::new(requests)
            .with_routing(RoutingPolicy::LeastLoaded)
            .with_max_batch(4)
            .with_max_inflight(Some(2))
            .with_timelines(plans.iter().map(|p| p.timeline.clone()).collect())
            .with_slowdowns(plans.iter().map(|p| p.slowdowns.clone()).collect())
            .with_wan_degradations(plans[0].wan.clone())
            .with_failure_mode(FailureMode::Kill)
            .with_recovery(RecoveryPolicy::standard());

        let reference = scenario
            .run_streaming_in(
                &strategy,
                &fleet,
                LEADER,
                &ParallelSweep::new(1),
                &mut FleetScratch::new(),
            )
            .expect("fleet chaos run succeeds");
        prop_assert!(reference.robustness.accounts_for_every_request());
        for threads in [2usize, 4, 8] {
            let summary = scenario
                .run_streaming_in(
                    &strategy,
                    &fleet,
                    LEADER,
                    &ParallelSweep::new(threads),
                    &mut FleetScratch::new(),
                )
                .expect("fleet chaos run succeeds");
            prop_assert_eq!(&summary, &reference, "seed {} at {} threads", seed, threads);
        }
    }
}
