//! Property tests: the indexed admission queue must reproduce the original
//! `Vec`-scan admission loop exactly — same admission order, same batch
//! membership, same epochs, same simulated metrics, bit for bit — on random
//! serving workloads across every policy, batching level, in-flight window
//! and failure timeline. [`ServingScenario::run`] (indexed) and
//! [`ServingScenario::run_reference`] (the frozen O(n) scan) differ *only*
//! in the queue data structure, so full-result equality pins that structure.

use hidp::core::{AdmissionPolicy, ServingRequest, ServingScenario, SlaClass};
use hidp::platform::{presets, ClusterTimeline, NodeIndex};
use hidp::{HidpStrategy, WorkloadModel};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const LEADER: NodeIndex = NodeIndex(1);

const MODELS: [WorkloadModel; 3] = [
    WorkloadModel::EfficientNetB0,
    WorkloadModel::InceptionV3,
    WorkloadModel::ResNet152,
];

/// A random serving workload: clustered arrivals (duplicate instants force
/// tie-breaks), mixed models/SLA classes, a random policy, batching limit,
/// in-flight window and an optional down/up flip of a non-leader node.
fn random_scenario(rng: &mut StdRng) -> ServingScenario {
    let count = rng.gen_range(1..40usize);
    let requests: Vec<ServingRequest> = (0..count)
        .map(|_| {
            // Arrivals snap to a coarse grid so many requests share exact
            // instants — the regime where tie-break order matters most.
            let arrival = rng.gen_range(0..12u32) as f64 * 0.05;
            let sla = SlaClass::ALL[rng.gen_range(0..3)];
            ServingRequest::new(MODELS[rng.gen_range(0..MODELS.len())], arrival).with_sla(sla)
        })
        .collect();
    let policy = match rng.gen_range(0..3u8) {
        0 => AdmissionPolicy::Fifo,
        1 => AdmissionPolicy::Priority,
        _ => AdmissionPolicy::EarliestDeadline,
    };
    let max_inflight = match rng.gen_range(0..3u8) {
        0 => None,
        _ => Some(rng.gen_range(0..3usize)),
    };
    let mut timeline = ClusterTimeline::new();
    if rng.gen_range(0..2u8) == 1 {
        // Flip a non-leader node down and back up mid-stream.
        let node = NodeIndex([0usize, 2, 3, 4][rng.gen_range(0..4)]);
        let down = rng.gen_range(0.0..0.4f64);
        timeline = timeline
            .node_down(down, node)
            .unwrap()
            .node_up(down + rng.gen_range(0.05..0.4f64), node)
            .unwrap();
    }
    // Drawn after the timeline: the draw order fixes each seed's scenario.
    let max_batch = rng.gen_range(1..5usize);
    ServingScenario::new(requests)
        .with_policy(policy)
        .with_max_batch(max_batch)
        .with_max_inflight(max_inflight)
        .with_timeline(timeline)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn indexed_admission_matches_the_reference_scan(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cluster = presets::paper_cluster();
        let strategy = HidpStrategy::new();
        let scenario = random_scenario(&mut rng);

        let indexed = scenario
            .run(&strategy, &cluster, LEADER)
            .expect("indexed serving run succeeds");
        let reference = scenario
            .run_reference(&strategy, &cluster, LEADER)
            .expect("reference serving run succeeds");

        // Bit-identical, field by field: the admission log (order, batch
        // membership, admission times, epochs), per-request records, SLA
        // aggregates and the downstream simulation.
        prop_assert_eq!(&indexed.admissions, &reference.admissions, "seed {}", seed);
        prop_assert_eq!(&indexed.records, &reference.records, "seed {}", seed);
        prop_assert_eq!(indexed.epochs_applied, reference.epochs_applied);
        prop_assert_eq!(&indexed.serving, &reference.serving);
        prop_assert_eq!(&indexed.evaluation, &reference.evaluation);
    }
}
