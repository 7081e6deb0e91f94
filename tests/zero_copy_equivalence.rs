//! Equivalence suite for the zero-copy pipeline: Arc-shared graphs/plans,
//! interned labels, reused simulation scratch and summarised traces must be
//! pure cost removals — every metric an `Evaluation` carries (latencies,
//! makespan, energies, cache stats) is bit-identical to the deep-copy
//! pipeline's, serially and under `ParallelSweep` at 1/2/4/8 threads, and
//! label interning round-trips every string unchanged.

use hidp::core::{
    Evaluation, ParallelSweep, PlanCache, Scenario, SimScratch, SweepJob, TraceDetail,
};
use hidp::dnn::zoo::WorkloadModel;
use hidp::platform::{presets, NodeIndex};
use hidp::sim::Label;
use hidp::workloads::{mixes, InferenceRequest};
use hidp::HidpStrategy;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The reference pipeline: per-scenario fresh cache, full trace, one-shot
/// (non-scratch) simulation — the observable behaviour of the pre-refactor
/// deep-copy path.
fn reference_evaluation(scenario: &Scenario, leader: NodeIndex) -> Evaluation {
    let cluster = presets::paper_cluster();
    let strategy = HidpStrategy::new();
    scenario
        .run(&strategy, &cluster, leader)
        .expect("evaluation succeeds")
}

fn metric_equal(a: &Evaluation, b: &Evaluation) {
    assert_eq!(a.strategy, b.strategy);
    assert_eq!(a.scenario, b.scenario);
    assert_eq!(a.latencies, b.latencies, "{}", a.scenario);
    assert_eq!(a.makespan, b.makespan, "{}", a.scenario);
    assert_eq!(a.total_energy, b.total_energy, "{}", a.scenario);
    assert_eq!(a.dynamic_energy, b.dynamic_energy, "{}", a.scenario);
    assert_eq!(a.report.request_completion, b.report.request_completion);
    assert_eq!(a.report.request_arrival, b.report.request_arrival);
    assert_eq!(a.report.meter, b.report.meter);
}

#[test]
fn summary_and_scratch_pipeline_matches_the_full_one_shot_pipeline() {
    // Mixed shapes: single requests, a cyclic mix, a two-model stream.
    let cluster = presets::paper_cluster();
    let strategy = HidpStrategy::new();
    let scenarios: Vec<Scenario> = vec![
        Scenario::single(WorkloadModel::EfficientNetB0.graph(1)),
        Scenario::single(WorkloadModel::Vgg19.graph(1)),
        mixes::all_mixes()[4].scenario(0.1, 12),
        InferenceRequest::to_scenario(&hidp::workloads::repeating_stream(
            &[WorkloadModel::InceptionV3, WorkloadModel::ResNet152],
            0.2,
            8,
        )),
    ];

    let cache = PlanCache::new();
    let mut scratch = SimScratch::new();
    for scenario in &scenarios {
        let reference = reference_evaluation(scenario, NodeIndex(1));
        // Same scenario through the zero-copy entry point with a summary
        // trace, a shared cache and a reused scratch.
        let zero_copy = scenario
            .clone()
            .with_trace_detail(TraceDetail::Summary)
            .run_with_cache_in(&strategy, &cluster, NodeIndex(1), &cache, &mut scratch)
            .expect("evaluation succeeds");
        metric_equal(&reference, &zero_copy);
        assert!(zero_copy.report.records.is_empty());
        assert!(!reference.report.records.is_empty());
        // Cache stats attribution is preserved by the borrowed-key probe:
        // both runs saw every request exactly once.
        let ref_stats = reference.plan_cache.expect("stats present");
        let zc_stats = zero_copy.plan_cache.expect("stats present");
        assert_eq!(ref_stats.lookups(), zc_stats.lookups());
    }
}

#[test]
fn full_detail_through_the_zero_copy_path_is_fully_bit_identical() {
    // With TraceDetail::Full even the records (interned labels included)
    // must match the reference pipeline exactly.
    let cluster = presets::paper_cluster();
    let strategy = HidpStrategy::new();
    let scenario = mixes::all_mixes()[6].scenario(0.15, 9);
    let reference = reference_evaluation(&scenario, NodeIndex(0));
    let cache = PlanCache::new();
    let mut scratch = SimScratch::new();
    let zero_copy = scenario
        .run_with_cache_in(&strategy, &cluster, NodeIndex(0), &cache, &mut scratch)
        .expect("evaluation succeeds");
    assert_eq!(reference.report, zero_copy.report);
    metric_equal(&reference, &zero_copy);
}

#[test]
fn parallel_sweep_is_invariant_across_thread_counts_with_summary_traces() {
    // The zero-copy pipeline under ParallelSweep: every thread count
    // produces the same evaluations as the serial reference, with scratch
    // buffers reused per worker and one shared sharded cache.
    let cluster = presets::paper_cluster();
    let strategy = HidpStrategy::new();
    let scenarios: Vec<(Scenario, NodeIndex)> = mixes::all_mixes()
        .iter()
        .flat_map(|mix| {
            [NodeIndex(0), NodeIndex(1)]
                .into_iter()
                .map(|leader| {
                    (
                        mix.scenario(0.1, 12)
                            .with_trace_detail(TraceDetail::Summary),
                        leader,
                    )
                })
                .collect::<Vec<_>>()
        })
        .collect();
    let jobs: Vec<SweepJob<'_>> = scenarios
        .iter()
        .map(|(scenario, leader)| SweepJob {
            scenario,
            strategy: &strategy,
            cluster: &cluster,
            leader: *leader,
        })
        .collect();

    let serial_cache = PlanCache::new();
    let serial: Vec<Evaluation> = ParallelSweep::new(1)
        .run_scenarios(&jobs, &serial_cache)
        .into_iter()
        .map(|r| r.expect("evaluation succeeds"))
        .collect();
    assert!(serial.iter().all(|e| e.report.records.is_empty()));

    for threads in [2, 4, 8] {
        let cache = PlanCache::new();
        let parallel: Vec<Evaluation> = ParallelSweep::new(threads)
            .run_scenarios(&jobs, &cache)
            .into_iter()
            .map(|r| r.expect("evaluation succeeds"))
            .collect();
        assert_eq!(parallel, serial, "{threads} threads diverged from serial");
        // One planner invocation per distinct key, as ever.
        assert_eq!(cache.stats().misses, cache.len() as u64);
    }
}

/// Builds a printable-ish random string (including empties, repeats and
/// multi-byte chars) from a seed — the vendored proptest only samples
/// numeric ranges, so string generation goes through rand.
fn random_label_text(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let alphabet: Vec<char> = ('a'..='z')
        .chain('0'..='9')
        .chain(['@', '/', '-', '_', ' ', 'λ', 'µ', '□'])
        .collect();
    let len = rng.gen_range(0..40usize);
    (0..len)
        .map(|_| alphabet[rng.gen_range(0..alphabet.len())])
        .collect()
}

proptest! {
    #[test]
    fn label_interning_round_trips_every_string(seed in 0u64..100_000) {
        let text = random_label_text(seed);

        // Every construction route yields the same label, and everything
        // observable — the text, Display, equality, ordering, hashing via
        // Borrow<str> — round-trips unchanged.
        let from_str = Label::from(text.as_str());
        let from_string = Label::from(text.clone());
        prop_assert_eq!(from_str.as_str(), text.as_str());
        prop_assert_eq!(format!("{from_str}"), text.clone());
        prop_assert_eq!(&from_str, &from_string);
        prop_assert_eq!(&from_str, &text.as_str());

        // Cloning shares the interned text (pointer-equal), so the one
        // label can fan out to any number of task records for free.
        let cloned = from_str.clone();
        prop_assert!(std::ptr::eq(cloned.as_str(), from_str.as_str()));

        // And a plan built with the string carries it verbatim into the
        // simulator's records (the serde stand-in serialises nothing at
        // run time — the bench JSON writer and Display are the output
        // format, and both read `as_str`).
        let mut plan = hidp::sim::ExecutionPlan::new();
        plan.add_compute(
            text.as_str(),
            hidp::platform::ProcessorAddr {
                node: NodeIndex(0),
                processor: hidp::platform::ProcessorIndex(1),
            },
            1_000_000,
            1.0,
            &[],
        );
        let cluster = presets::paper_cluster();
        let report = hidp::sim::simulate(&plan, &cluster).expect("simulates");
        prop_assert_eq!(report.records[0].name.as_str(), text.as_str());
    }
}
