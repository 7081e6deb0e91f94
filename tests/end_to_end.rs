//! End-to-end integration tests spanning all workspace crates: the paper's
//! headline claims, cross-crate consistency, and the collaborative runtime.
//! All evaluations go through the unified `Scenario` pipeline.

use hidp::baselines::{
    paper_strategies, DisNetStrategy, GpuOnlyStrategy, ModnnStrategy, OmniBoostStrategy,
};
use hidp::core::runtime::ClusterRuntime;
use hidp::core::{DistributedStrategy, HidpStrategy, Scenario};
use hidp::dnn::zoo::WorkloadModel;
use hidp::platform::{presets, NodeIndex};
use hidp::workloads::{dynamic_scenario, mixes, InferenceRequest};

const LEADER: NodeIndex = NodeIndex(1);

#[test]
fn headline_claim_hidp_has_lowest_latency_per_model() {
    // Fig. 5(a): HiDP achieves the lowest latency for every workload.
    let cluster = presets::paper_cluster();
    for model in WorkloadModel::ALL {
        let scenario = Scenario::single(model.graph(1));
        let hidp = scenario
            .run(&HidpStrategy::new(), &cluster, LEADER)
            .unwrap();
        for baseline in [
            scenario
                .run(&DisNetStrategy::new(), &cluster, LEADER)
                .unwrap(),
            scenario
                .run(&OmniBoostStrategy::new(), &cluster, LEADER)
                .unwrap(),
            scenario
                .run(&ModnnStrategy::new(), &cluster, LEADER)
                .unwrap(),
            scenario
                .run(&GpuOnlyStrategy::new(), &cluster, LEADER)
                .unwrap(),
        ] {
            assert!(
                hidp.latency() <= baseline.latency() * 1.01,
                "{model}: HiDP {:.1} ms vs {} {:.1} ms",
                hidp.latency() * 1e3,
                baseline.strategy,
                baseline.latency() * 1e3
            );
        }
    }
}

#[test]
fn headline_claim_average_improvements_are_substantial() {
    // The abstract claims ~38% lower latency than the best competing
    // baseline. Per workload, compare HiDP with the best of DisNet,
    // OmniBoost and MoDNN, as the paper does. The analytical platform
    // reproduces a smaller gap: the mean improvement reads 0.245 and the
    // smallest per-workload one 0.186 (Inception-V3), so the bounds (mean
    // > 0.20, every workload > 0.15) leave about 0.04 of margin each.
    let cluster = presets::paper_cluster();
    let mut improvements = Vec::new();
    for model in WorkloadModel::ALL {
        let scenario = Scenario::single(model.graph(1));
        let hidp = scenario
            .run(&HidpStrategy::new(), &cluster, LEADER)
            .unwrap()
            .latency();
        let best_baseline = [
            Box::new(DisNetStrategy::new()) as Box<dyn DistributedStrategy>,
            Box::new(OmniBoostStrategy::new()),
            Box::new(ModnnStrategy::new()),
        ]
        .iter()
        .map(|strategy| {
            scenario
                .run(strategy.as_ref(), &cluster, LEADER)
                .unwrap()
                .latency()
        })
        .fold(f64::INFINITY, f64::min);
        let improvement = 1.0 - hidp / best_baseline;
        assert!(
            improvement > 0.15,
            "{model}: HiDP improves on the best baseline by only {:.1}%",
            improvement * 100.0
        );
        improvements.push(improvement);
    }
    let mean = improvements.iter().sum::<f64>() / improvements.len() as f64;
    assert!(
        mean > 0.20,
        "mean improvement over the best baseline was only {:.1}%",
        mean * 100.0
    );
}

#[test]
fn throughput_claim_hidp_wins_every_mix() {
    // Fig. 7: HiDP achieves the highest throughput on all eight mixes. The
    // mix's 16 requests are a backlog released at t = 0, so the throughput
    // is service capacity; spaced arrivals would make every strategy read
    // the arrival rate. HiDP over the best baseline reads 1.045 (Mix-3) to
    // 1.400 (Mix-6); the bound 1.02 keeps a margin under the minimum.
    let cluster = presets::paper_cluster();
    let strategies = paper_strategies();
    for mix in mixes::all_mixes() {
        let scenario = mix.scenario(0.0, 16);
        let throughputs: Vec<f64> = strategies
            .iter()
            .map(|s| {
                scenario
                    .run(s.as_ref(), &cluster, LEADER)
                    .unwrap()
                    .throughput(100.0)
            })
            .collect();
        for (i, throughput) in throughputs.iter().enumerate().skip(1) {
            assert!(
                throughputs[0] >= *throughput * 1.02,
                "{}: HiDP {:.0} vs {} {:.0}",
                mix.name(),
                throughputs[0],
                strategies[i].name(),
                throughput
            );
        }
    }
}

#[test]
fn dynamic_scenario_completes_fastest_with_hidp() {
    // Fig. 6: HiDP finishes the staggered four-model workload first.
    let cluster = presets::paper_cluster();
    let scenario = InferenceRequest::to_scenario(&dynamic_scenario());
    let strategies = paper_strategies();
    let makespans: Vec<f64> = strategies
        .iter()
        .map(|s| scenario.run(s.as_ref(), &cluster, LEADER).unwrap().makespan)
        .collect();
    for (i, makespan) in makespans.iter().enumerate().skip(1) {
        assert!(
            makespans[0] <= makespan * 1.01,
            "HiDP {:.2}s vs {} {:.2}s",
            makespans[0],
            strategies[i].name(),
            makespan
        );
    }
}

#[test]
fn node_scaling_latency_is_monotone_for_hidp() {
    // Fig. 8: more worker nodes never hurt HiDP, and the advantage over the
    // baselines is largest for small clusters.
    let full = presets::paper_cluster();
    let mut previous = f64::INFINITY;
    for nodes in 2..=full.len() {
        let cluster = full.take(nodes).unwrap();
        let mut total = 0.0;
        for model in WorkloadModel::ALL {
            total += Scenario::single(model.graph(1))
                .run(&HidpStrategy::new(), &cluster, LEADER)
                .unwrap()
                .latency();
        }
        assert!(
            total <= previous * 1.01,
            "latency increased when growing to {nodes} nodes"
        );
        previous = total;
    }
}

#[test]
fn cluster_runtime_and_planner_agree_on_the_global_decision() {
    // The message-passing runtime must converge to the same hierarchical
    // decision as the in-process planner.
    let cluster = presets::paper_cluster();
    let strategy = HidpStrategy::new();
    let runtime = ClusterRuntime::new(cluster.clone(), strategy);
    for model in [WorkloadModel::EfficientNetB0, WorkloadModel::ResNet152] {
        let graph = model.graph(1);
        let outcome = runtime.run_request(&graph, LEADER).unwrap();
        let direct = strategy
            .hierarchical_plan(&graph, &cluster, LEADER)
            .unwrap();
        assert_eq!(outcome.plan.global.mode, direct.global.mode, "{model}");
        assert_eq!(
            outcome.plan.global.shares.len(),
            direct.global.shares.len(),
            "{model}"
        );
    }
}

#[test]
fn every_strategy_plans_for_every_model_and_leader() {
    // Robustness sweep: all strategies × all models × all leaders produce
    // valid, simulatable plans.
    let cluster = presets::paper_cluster();
    for strategy in paper_strategies() {
        for model in WorkloadModel::ALL {
            let scenario = Scenario::single(model.graph(1));
            for leader in 0..cluster.len() {
                let eval = scenario.run(strategy.as_ref(), &cluster, NodeIndex(leader));
                let eval = eval.unwrap_or_else(|e| {
                    panic!(
                        "{} failed for {model} at leader {leader}: {e}",
                        strategy.name()
                    )
                });
                assert!(eval.latency() > 0.0);
                assert!(eval.total_energy.is_finite());
            }
        }
    }
}
