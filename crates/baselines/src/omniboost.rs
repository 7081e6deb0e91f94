//! OmniBoost (Karatzas et al., DAC 2023): model partitioning with a
//! Monte-Carlo tree search over pipeline placements.
//!
//! OmniBoost determines layer-block boundaries with an MCTS whose leaf
//! evaluations come from a throughput estimator, and pipelines the resulting
//! blocks over the devices' default processors. The original estimator is a
//! learned model; as documented in DESIGN.md we substitute the analytical
//! cost model (the quantity the learned estimator approximates). The search
//! itself is a faithful UCT implementation: each tree level places the next
//! block boundary, rollouts complete the placement randomly, and the reward
//! is the negated pipeline latency.

use hidp_core::{
    chain_segments, workload_summary, CoreError, DistributedStrategy, Resource, SystemModel,
};
use hidp_dnn::DnnGraph;
use hidp_platform::{Cluster, NodeIndex, ProcessorAddr, ProcessorIndex};
use hidp_sim::ExecutionPlan;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The OmniBoost baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OmniBoostStrategy {
    /// Number of MCTS iterations per request.
    pub iterations: usize,
    /// UCT exploration constant.
    pub exploration: f64,
    /// RNG seed (the search is fully deterministic for a given seed).
    pub seed: u64,
}

impl Default for OmniBoostStrategy {
    fn default() -> Self {
        Self {
            iterations: 400,
            exploration: 1.4,
            seed: 0xB0057,
        }
    }
}

impl OmniBoostStrategy {
    /// Creates the strategy with default search parameters.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A complete placement: one entry per pipeline block, `(last_segment,
/// resource_index)`.
type Placement = Vec<(usize, usize)>;

fn placement_latency(
    placement: &Placement,
    segments: &[hidp_core::dp::ChainSegment],
    resources: &[Resource],
    input_bytes: u64,
    output_bytes: u64,
) -> f64 {
    let mut latency = 0.0;
    let mut first = 0usize;
    for (block_idx, &(last, resource_idx)) in placement.iter().enumerate() {
        let resource = &resources[resource_idx];
        let flops: u64 = segments[first..=last].iter().map(|s| s.flops).sum();
        let in_bytes = if block_idx == 0 {
            input_bytes
        } else {
            segments[first - 1].boundary_bytes
        };
        latency += resource.transfer_time(in_bytes) + resource.compute_time(flops);
        if block_idx + 1 == placement.len() {
            latency += resource.transfer_time(output_bytes);
        }
        first = last + 1;
    }
    latency
}

struct TreeNode {
    /// Boundary decisions made so far: (last_segment, resource).
    placement: Placement,
    children: Vec<usize>,
    visits: f64,
    total_reward: f64,
    untried: Vec<(usize, usize)>,
}

/// Candidate actions from a partial placement: either finish the chain on
/// some resource or cut at one of a few look-ahead boundaries.
fn candidate_actions(
    placement: &Placement,
    segment_count: usize,
    resource_count: usize,
    max_blocks: usize,
) -> Vec<(usize, usize)> {
    let first = placement.last().map(|&(last, _)| last + 1).unwrap_or(0);
    if first >= segment_count {
        return Vec::new();
    }
    let used: Vec<usize> = placement.iter().map(|&(_, r)| r).collect();
    let mut actions = Vec::new();
    let remaining_blocks = max_blocks - placement.len();
    for resource in 0..resource_count {
        if used.contains(&resource) {
            continue;
        }
        // Always allow "run the rest here".
        actions.push((segment_count - 1, resource));
        if remaining_blocks > 1 {
            // A handful of intermediate cut choices keeps the branching factor
            // manageable (the original work uses a coarse action space too).
            let span = segment_count - first;
            for fraction in [0.25f64, 0.5, 0.75] {
                let cut = first + ((span as f64 * fraction) as usize).min(span - 1);
                if cut + 1 < segment_count {
                    actions.push((cut, resource));
                }
            }
        }
    }
    actions.sort_unstable();
    actions.dedup();
    actions
}

fn rollout(
    placement: &Placement,
    segments: &[hidp_core::dp::ChainSegment],
    resources: &[Resource],
    input_bytes: u64,
    output_bytes: u64,
    max_blocks: usize,
    rng: &mut StdRng,
) -> f64 {
    let mut placement = placement.clone();
    while placement
        .last()
        .map(|&(last, _)| last + 1 < segments.len())
        .unwrap_or(true)
    {
        let actions = candidate_actions(&placement, segments.len(), resources.len(), max_blocks);
        if actions.is_empty() {
            // No unused resource left: extend the last block to the end.
            if let Some(last) = placement.last_mut() {
                last.0 = segments.len() - 1;
            } else {
                placement.push((segments.len() - 1, 0));
            }
            break;
        }
        let action = actions[rng.gen_range(0..actions.len())];
        placement.push(action);
        if placement.len() == max_blocks {
            if let Some(last) = placement.last_mut() {
                last.0 = segments.len() - 1;
            }
            break;
        }
    }
    -placement_latency(&placement, segments, resources, input_bytes, output_bytes)
}

fn mcts_search(
    segments: &[hidp_core::dp::ChainSegment],
    resources: &[Resource],
    input_bytes: u64,
    output_bytes: u64,
    iterations: usize,
    exploration: f64,
    seed: u64,
) -> Placement {
    let max_blocks = resources.len();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut nodes = vec![TreeNode {
        placement: Vec::new(),
        children: Vec::new(),
        visits: 0.0,
        total_reward: 0.0,
        untried: candidate_actions(&Vec::new(), segments.len(), resources.len(), max_blocks),
    }];
    let mut best_placement: Option<(f64, Placement)> = None;

    for _ in 0..iterations {
        // Selection.
        let mut current = 0usize;
        loop {
            let node = &nodes[current];
            let complete = node
                .placement
                .last()
                .map(|&(last, _)| last + 1 >= segments.len())
                .unwrap_or(false);
            if complete || !node.untried.is_empty() || node.children.is_empty() {
                break;
            }
            let parent_visits = node.visits.max(1.0);
            current = *node
                .children
                .iter()
                .max_by(|a, b| {
                    let ucb = |idx: usize| {
                        let child = &nodes[idx];
                        child.total_reward / child.visits.max(1e-9)
                            + exploration * (parent_visits.ln() / child.visits.max(1e-9)).sqrt()
                    };
                    ucb(**a).partial_cmp(&ucb(**b)).expect("finite rewards")
                })
                .expect("children is non-empty");
        }

        // Expansion.
        let expanded = if !nodes[current].untried.is_empty() {
            let action_idx = rng.gen_range(0..nodes[current].untried.len());
            let action = nodes[current].untried.swap_remove(action_idx);
            let mut placement = nodes[current].placement.clone();
            placement.push(action);
            if placement.len() == max_blocks {
                // No resources left for further blocks: the last block must
                // run to the end of the chain.
                if let Some(last) = placement.last_mut() {
                    last.0 = segments.len() - 1;
                }
            }
            let untried = if placement.len() < resources.len() {
                candidate_actions(&placement, segments.len(), resources.len(), max_blocks)
            } else {
                Vec::new()
            };
            let child_idx = nodes.len();
            nodes.push(TreeNode {
                placement,
                children: Vec::new(),
                visits: 0.0,
                total_reward: 0.0,
                untried,
            });
            nodes[current].children.push(child_idx);
            child_idx
        } else {
            current
        };

        // Simulation.
        let reward = rollout(
            &nodes[expanded].placement,
            segments,
            resources,
            input_bytes,
            output_bytes,
            max_blocks,
            &mut rng,
        );
        if best_placement
            .as_ref()
            .map(|(best, _)| reward > *best)
            .unwrap_or(true)
        {
            // Re-derive the complete placement that produced this reward by
            // greedily finishing the expanded node's placement on the best
            // remaining resource (deterministic tie-break).
            let mut placement = nodes[expanded].placement.clone();
            if placement
                .last()
                .map(|&(last, _)| last + 1 < segments.len())
                .unwrap_or(true)
            {
                let used: Vec<usize> = placement.iter().map(|&(_, r)| r).collect();
                let next = (0..resources.len())
                    .filter(|r| !used.contains(r))
                    .max_by(|a, b| {
                        resources[*a]
                            .rate
                            .partial_cmp(&resources[*b].rate)
                            .expect("finite rates")
                    });
                match next {
                    Some(resource) => placement.push((segments.len() - 1, resource)),
                    None => {
                        if let Some(last) = placement.last_mut() {
                            last.0 = segments.len() - 1;
                        }
                    }
                }
            }
            let latency =
                placement_latency(&placement, segments, resources, input_bytes, output_bytes);
            best_placement = Some((-latency, placement));
        }

        // Backpropagation (along the selection path we only know `current`
        // and `expanded`; walk ancestors by prefix matching).
        let mut idx = expanded;
        loop {
            nodes[idx].visits += 1.0;
            nodes[idx].total_reward += reward;
            if idx == 0 {
                break;
            }
            // Parent = node whose placement is the prefix one shorter.
            let target_len = nodes[idx].placement.len() - 1;
            let prefix = &nodes[idx].placement[..target_len];
            idx = nodes
                .iter()
                .position(|n| n.placement.len() == target_len && n.placement == prefix)
                .unwrap_or(0);
        }
    }

    best_placement
        .map(|(_, p)| p)
        .unwrap_or_else(|| vec![(segments.len() - 1, 0)])
}

impl DistributedStrategy for OmniBoostStrategy {
    fn name(&self) -> &str {
        "OmniBoost"
    }

    fn cache_config(&self) -> String {
        format!("{self:?}")
    }

    fn plan(
        &self,
        graph: &DnnGraph,
        cluster: &Cluster,
        leader: NodeIndex,
    ) -> Result<ExecutionPlan, CoreError> {
        cluster.node(leader)?;
        let system = SystemModel::new(graph, leader);
        let resources = system.global_resources_gpu_only(cluster);
        if resources.is_empty() {
            return Err(CoreError::Infeasible {
                what: "no available nodes".into(),
            });
        }
        let segments = chain_segments(graph);
        let workload = workload_summary(graph);
        let placement = mcts_search(
            &segments,
            &resources,
            workload.input_bytes,
            workload.output_bytes,
            self.iterations,
            self.exploration,
            self.seed,
        );

        let mut plan = ExecutionPlan::new();
        let mut prev_tasks = Vec::new();
        let mut prev_node = leader;
        let mut first = 0usize;
        for (block_idx, &(last, resource_idx)) in placement.iter().enumerate() {
            let resource = &resources[resource_idx];
            let node = resource.node;
            let device = cluster.node(node)?;
            let processor = device
                .gpu_index()
                .or_else(|| device.cpu_indices().first().copied())
                .ok_or_else(|| CoreError::Infeasible {
                    what: format!("node {node} has no processors"),
                })?;
            let flops: u64 = segments[first..=last].iter().map(|s| s.flops).sum();
            let in_bytes = if block_idx == 0 {
                workload.input_bytes
            } else {
                segments[first - 1].boundary_bytes
            };
            let transfer = plan.add_transfer(
                format!("block{block_idx}->{}", device.name),
                prev_node,
                node,
                in_bytes,
                &prev_tasks,
            );
            let compute = plan.add_compute(
                format!("block{block_idx}@{}", device.name),
                ProcessorAddr { node, processor },
                flops,
                system.gpu_affinity,
                &[transfer],
            );
            prev_tasks = vec![compute];
            prev_node = node;
            first = last + 1;
        }
        let back = plan.add_transfer(
            "result->leader",
            prev_node,
            leader,
            workload.output_bytes,
            &prev_tasks,
        );
        let leader_proc = cluster
            .node(leader)?
            .cpu_indices()
            .first()
            .copied()
            .unwrap_or(ProcessorIndex(0));
        plan.add_compute(
            "report@leader",
            ProcessorAddr {
                node: leader,
                processor: leader_proc,
            },
            (workload.output_bytes / 4) * 2,
            0.5,
            &[back],
        );
        plan.validate()?;
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GpuOnlyStrategy;
    use hidp_core::Scenario;
    use hidp_dnn::zoo::WorkloadModel;
    use hidp_platform::presets;

    #[test]
    fn search_is_deterministic_per_seed() {
        let cluster = presets::paper_cluster();
        let graph = WorkloadModel::InceptionV3.graph(1);
        let a = OmniBoostStrategy::new()
            .plan(&graph, &cluster, NodeIndex(0))
            .unwrap();
        let b = OmniBoostStrategy::new()
            .plan(&graph, &cluster, NodeIndex(0))
            .unwrap();
        assert_eq!(a, b);
        let c = OmniBoostStrategy {
            seed: 99,
            ..OmniBoostStrategy::new()
        }
        .plan(&graph, &cluster, NodeIndex(0))
        .unwrap();
        // A different seed may or may not find the same placement, but the
        // plan must still be valid.
        assert!(c.validate().is_ok());
    }

    #[test]
    fn never_worse_than_naive_gpu_only_by_much() {
        // The MCTS always evaluates the "single block on the leader GPU"
        // placement, so it can only improve on it (modulo the report task).
        let cluster = presets::paper_cluster();
        for model in WorkloadModel::ALL {
            let scenario = Scenario::single(model.graph(1));
            let omni = scenario
                .run(&OmniBoostStrategy::new(), &cluster, NodeIndex(1))
                .unwrap();
            let gpu = scenario
                .run(&GpuOnlyStrategy::new(), &cluster, NodeIndex(1))
                .unwrap();
            assert!(
                omni.latency() <= gpu.latency() * 1.10,
                "{model}: OmniBoost {:.3}s vs GPU-only {:.3}s",
                omni.latency(),
                gpu.latency()
            );
        }
    }

    #[test]
    fn blocks_tile_the_network() {
        let cluster = presets::paper_cluster();
        let graph = WorkloadModel::ResNet152.graph(1);
        let plan = OmniBoostStrategy::new()
            .plan(&graph, &cluster, NodeIndex(0))
            .unwrap();
        // The compute flops of all blocks must cover the graph (plus report).
        assert!(plan.total_flops() >= graph.total_flops());
    }
}
