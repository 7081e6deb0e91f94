//! Property tests: the event-driven simulator engine must reproduce the
//! original O(n²) list scheduler exactly — bit-identical task records,
//! completion times and energy accounting — on random DAG plans with random
//! resource bindings, dependency structure and arrival times, including
//! streams that share plans by reference and release out of order with
//! exact ties.

use hidp::platform::{presets, Cluster, NodeIndex, ProcessorAddr};
use hidp::sim::{simulate_stream, simulate_stream_reference, ExecutionPlan, TaskId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a random valid plan: up to `max_tasks` tasks, each either a
/// compute on a random processor or a transfer between random nodes, with a
/// random subset of earlier tasks as dependencies.
fn random_plan(rng: &mut StdRng, cluster: &Cluster, max_tasks: usize) -> ExecutionPlan {
    let processors = cluster.all_processors();
    let nodes = cluster.len();
    let count = rng.gen_range(1..=max_tasks);
    let mut plan = ExecutionPlan::new();
    for i in 0..count {
        // Sparse random DAG: each task picks up to three earlier tasks.
        let mut deps: Vec<TaskId> = Vec::new();
        if i > 0 {
            for _ in 0..rng.gen_range(0..=3usize.min(i)) {
                let dep = TaskId(rng.gen_range(0..i));
                if !deps.contains(&dep) {
                    deps.push(dep);
                }
            }
        }
        if rng.gen_range(0..4) < 3 {
            let target: ProcessorAddr = processors[rng.gen_range(0..processors.len())];
            plan.add_compute(
                format!("c{i}"),
                target,
                rng.gen_range(1_000_000..2_000_000_000u64),
                rng.gen_range(0.0..1.0f64),
                &deps,
            );
        } else {
            plan.add_transfer(
                format!("t{i}"),
                NodeIndex(rng.gen_range(0..nodes)),
                NodeIndex(rng.gen_range(0..nodes)),
                rng.gen_range(1_000..50_000_000u64),
                &deps,
            );
        }
    }
    plan
}

proptest! {
    #[test]
    fn event_engine_matches_list_scheduler_on_random_dags(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cluster = presets::paper_cluster();
        let requests: Vec<(f64, ExecutionPlan)> = (0..rng.gen_range(1..5usize))
            .map(|_| {
                let arrival = rng.gen_range(0.0..2.0f64);
                (arrival, random_plan(&mut rng, &cluster, 40))
            })
            .collect();

        let reference = simulate_stream_reference(&requests, &cluster)
            .expect("reference engine simulates");
        let event = simulate_stream(&requests, &cluster).expect("event engine simulates");

        // Bit-identical, field by field: schedule order, times, accounting.
        prop_assert_eq!(&reference.records, &event.records, "seed {}", seed);
        prop_assert_eq!(
            &reference.request_completion,
            &event.request_completion,
            "seed {}",
            seed
        );
        prop_assert_eq!(&reference.request_arrival, &event.request_arrival);
        prop_assert_eq!(reference.makespan, event.makespan);
        prop_assert_eq!(&reference.meter, &event.meter);
        // And therefore identical energies through the sorted accounting.
        prop_assert_eq!(
            reference.total_energy(&cluster).unwrap(),
            event.total_energy(&cluster).unwrap()
        );
    }

    #[test]
    fn event_engine_matches_list_scheduler_on_degraded_clusters(seed in 0u64..1_000_000) {
        // Same property on a prefix cluster (different resource universe).
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5ca1_ab1e);
        let cluster = presets::paper_cluster()
            .take(rng.gen_range(1..=5usize))
            .expect("prefix cluster");
        let requests: Vec<(f64, ExecutionPlan)> = (0..rng.gen_range(1..4usize))
            .map(|_| (rng.gen_range(0.0..1.0f64), random_plan(&mut rng, &cluster, 25)))
            .collect();
        let reference = simulate_stream_reference(&requests, &cluster)
            .expect("reference engine simulates");
        let event = simulate_stream(&requests, &cluster).expect("event engine simulates");
        prop_assert_eq!(&reference.records, &event.records, "seed {}", seed);
        prop_assert_eq!(reference.makespan, event.makespan);
        prop_assert_eq!(&reference.meter, &event.meter);
    }

    #[test]
    fn event_engine_matches_list_scheduler_on_shared_plans_with_tied_releases(
        seed in 0u64..1_000_000,
    ) {
        // Requests drawn with repetition from a pool of 1–3 plans shared by
        // reference (so repeats hit the engine's per-plan flatten memo),
        // arriving out of order with exact ties on a 0.25 s grid (so roots
        // seed lazily in a sorted, tie-broken release order).
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7ab1_e5ed);
        let cluster = presets::paper_cluster();
        let pool: Vec<ExecutionPlan> = (0..rng.gen_range(1..=3usize))
            .map(|_| random_plan(&mut rng, &cluster, 20))
            .collect();
        let requests: Vec<(f64, &ExecutionPlan)> = (0..rng.gen_range(2..10usize))
            .map(|_| {
                let arrival = (rng.gen_range(0.0..1.5f64) * 4.0).round() / 4.0;
                (arrival, &pool[rng.gen_range(0..pool.len())])
            })
            .collect();
        let reference = simulate_stream_reference(&requests, &cluster)
            .expect("reference engine simulates");
        let event = simulate_stream(&requests, &cluster).expect("event engine simulates");
        prop_assert_eq!(&reference.records, &event.records, "seed {}", seed);
        prop_assert_eq!(
            &reference.request_completion,
            &event.request_completion,
            "seed {}",
            seed
        );
        prop_assert_eq!(&reference.request_arrival, &event.request_arrival);
        prop_assert_eq!(reference.makespan, event.makespan);
        prop_assert_eq!(&reference.meter, &event.meter);
    }
}
