//! Contracts for the adaptive drift loop.
//!
//! Four families of guarantees pin the estimation/re-planning machinery:
//!
//! 1. **Convergence** — under a persistent straggler window the per-node
//!    EWMA effective-rate estimate tracks the injected slowdown factor
//!    within a bounded number of completions, and nodes that do not drift
//!    keep their estimate at exactly 1.0.
//! 2. **No-drift pinning** — arming estimation with nothing drifting must
//!    reproduce the inert configuration's serving and fleet runs bit for
//!    bit, under FIFO and earliest-deadline admission alike; observing
//!    ratios of 1.0 never leaves the hysteresis band.
//! 3. **Bounded re-planning** — under a seeded drift trace the loop
//!    re-plans at least once and never more than `max_replans`, and the
//!    whole run replays bit-identically.
//! 4. **Determinism under drift** — property test: a drifting adaptive
//!    fleet run is bit-identical at 1/2/4/8 worker threads for arbitrary
//!    trace seeds.

use hidp::core::{
    AdaptiveConfig, AdmissionPolicy, FleetScenario, FleetScratch, ParallelSweep, RoutingPolicy,
    ServingRequest, ServingScenario, SlaClass,
};
use hidp::platform::{presets, NodeIndex, SlowdownWindow};
use hidp::workloads::{
    regional_diurnal_stream, standard_drift_suite, DriftPlanConfig, FleetRequest,
};
use hidp::{HidpStrategy, WorkloadModel};
use proptest::prelude::*;

const LEADER: NodeIndex = NodeIndex(1);

fn serving_stream(count: usize, spacing: f64) -> Vec<ServingRequest> {
    let models = [
        WorkloadModel::InceptionV3,
        WorkloadModel::ResNet152,
        WorkloadModel::EfficientNetB0,
    ];
    (0..count)
        .map(|i| {
            ServingRequest::new(models[i % models.len()], i as f64 * spacing)
                .with_sla(SlaClass::ALL[i % SlaClass::ALL.len()])
        })
        .collect()
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
fn ewma_tracks_an_injected_straggler_within_bounded_completions() {
    let strategy = HidpStrategy::new();
    let cluster = presets::paper_cluster();
    let straggler = NodeIndex(0);
    let factor = 3.0;
    // A hysteresis band too wide to ever leave: estimation runs on every
    // completion but the loop never re-plans, so the straggler keeps
    // receiving work and its samples keep arriving at the full factor.
    let observe_only = AdaptiveConfig {
        hysteresis: 1e9,
        ..AdaptiveConfig::default()
    };
    let requests = serving_stream(150, 0.05);
    let scenario = ServingScenario::new(requests)
        .with_policy(AdmissionPolicy::EarliestDeadline)
        .with_max_batch(8)
        .with_max_inflight(Some(4))
        .with_slowdowns(vec![SlowdownWindow {
            node: straggler,
            start: 0.0,
            end: 1e9,
            factor,
        }])
        .with_adaptive(observe_only);

    let mut scratch = hidp::core::ServingScratch::new();
    let summary = scenario
        .run_streaming_with_cache_in(
            &strategy,
            &cluster,
            LEADER,
            &hidp::core::PlanCache::new(),
            &mut scratch,
        )
        .unwrap();
    assert_eq!(
        summary.drift.replans, 0,
        "observe-only run must not re-plan"
    );
    assert!(summary.drift.observations > 0);

    let estimates = scratch.drift_estimates();
    assert_eq!(estimates.len(), cluster.len());
    // EWMA at α = 0.2 from 1.0 towards 3.0 closes to within 2% of the
    // injected factor after ~25 samples; the straggler sees far more
    // completions than that over 150 requests.
    let est = estimates[straggler.0].value();
    assert!(
        (est - factor).abs() < 0.02 * factor,
        "straggler estimate {est} has not converged to {factor} \
         ({} samples)",
        estimates[straggler.0].count()
    );
    assert!(
        estimates[straggler.0].count() >= 25,
        "convergence bound needs ≥ 25 straggler samples, saw {}",
        estimates[straggler.0].count()
    );
    // Nodes that do not drift observe ratios of exactly 1.0: their level
    // never moves off 1.0, bit for bit.
    for (n, e) in estimates.iter().enumerate() {
        if n != straggler.0 {
            assert_eq!(e.value(), 1.0, "node {n} estimate drifted with no drift");
        }
    }
}

#[test]
fn no_drift_adaptive_serving_and_fleet_pin_to_inert() {
    let strategy = HidpStrategy::new();

    // Serving tier: estimation armed, nothing drifting.
    let cluster = presets::paper_cluster();
    let requests = serving_stream(120, 0.05);
    let base = ServingScenario::new(requests)
        .with_policy(AdmissionPolicy::EarliestDeadline)
        .with_max_batch(8)
        .with_max_inflight(Some(4));
    let inert = base
        .clone()
        .run_streaming(&strategy, &cluster, LEADER)
        .unwrap();
    let adaptive = base
        .with_adaptive(AdaptiveConfig::default())
        .run_streaming(&strategy, &cluster, LEADER)
        .unwrap();
    assert_eq!(adaptive.drift.replans, 0);
    assert!(adaptive.drift.observations > 0);
    let mut pinned = adaptive;
    pinned.drift.observations = inert.drift.observations;
    assert_eq!(pinned, inert, "serving no-drift adaptive path diverged");

    // Fleet tier: same pinning, under both FIFO and earliest-deadline
    // admission.
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
            let adaptive = base
                .clone()
                .with_adaptive(AdaptiveConfig::default())
                .run_streaming(&strategy, &fleet, LEADER)
                .unwrap();
            let tag = format!("{}/{}", policy.name(), routing.name());
            assert_eq!(adaptive.drift.replans, 0, "{tag}");
            assert!(adaptive.drift.observations > 0, "{tag}");
            let mut pinned = adaptive;
            pinned.drift.observations = inert.drift.observations;
            assert_eq!(
                pinned, inert,
                "{tag}: fleet no-drift adaptive path diverged"
            );
        }
    }
}

#[test]
fn replanning_stays_within_the_hysteresis_bound_and_replays_bit_identically() {
    let strategy = HidpStrategy::new();
    let cluster = presets::paper_cluster();
    let requests = serving_stream(400, 0.1);
    let horizon = 400.0 * 0.1;
    let trace = DriftPlanConfig {
        seed: 0xD21F7,
        horizon,
        throttles: 2,
        throttle_peak: 4.0,
        background_windows: 2,
        background_factor: 1.6,
        contention_windows: 1,
        contention_factor: 2.0,
    }
    .generate(cluster.len(), LEADER)
    .unwrap();
    let config = AdaptiveConfig::default();
    let scenario = ServingScenario::new(requests)
        .with_policy(AdmissionPolicy::EarliestDeadline)
        .with_max_batch(8)
        .with_max_inflight(Some(4))
        .with_drift(trace)
        .with_adaptive(config);

    let first = scenario.run_streaming(&strategy, &cluster, LEADER).unwrap();
    assert!(
        first.drift.replans >= 1,
        "the trace must trigger at least one re-plan: {:?}",
        first.drift
    );
    assert!(
        first.drift.replans <= config.max_replans,
        "re-plans {} exceed the hysteresis bound {}",
        first.drift.replans,
        config.max_replans
    );
    assert!(first.robustness.accounts_for_every_request());
    assert_eq!(first.robustness.dropped(), 0, "drift never loses work");

    let second = scenario.run_streaming(&strategy, &cluster, LEADER).unwrap();
    assert_eq!(first, second, "adaptive drift replay must be bit-identical");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn drifting_fleet_runs_are_bit_identical_across_thread_counts(seed in 0u64..1_000_000) {
        let strategy = HidpStrategy::new();
        let fleet = presets::generated_fleet(4, 2).unwrap();
        let requests = fleet_stream(140, seed ^ 0x9E37);
        let node_counts: Vec<usize> = fleet.clusters().iter().map(|c| c.len()).collect();
        let drifts =
            standard_drift_suite(&node_counts, seed, horizon_of(&requests), LEADER).unwrap();
        let scenario = FleetScenario::new(requests)
            .with_routing(RoutingPolicy::LeastLoaded)
            .with_max_batch(4)
            .with_max_inflight(Some(2))
            .with_drifts(drifts)
            .with_adaptive(AdaptiveConfig::default());

        let reference = scenario
            .run_streaming_in(
                &strategy,
                &fleet,
                LEADER,
                &ParallelSweep::new(1),
                &mut FleetScratch::new(),
            )
            .expect("fleet drift run succeeds");
        prop_assert!(reference.robustness.accounts_for_every_request());
        prop_assert!(reference.drift.observations > 0, "estimation must observe completions");
        for threads in [2usize, 4, 8] {
            let summary = scenario
                .run_streaming_in(
                    &strategy,
                    &fleet,
                    LEADER,
                    &ParallelSweep::new(threads),
                    &mut FleetScratch::new(),
                )
                .expect("fleet drift run succeeds");
            prop_assert_eq!(&summary, &reference, "seed {} at {} threads", seed, threads);
        }
    }
}
