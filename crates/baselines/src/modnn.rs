//! MoDNN (Mao et al., DATE 2017): local distributed mobile computing via
//! **data partitioning**.
//!
//! MoDNN splits the input of each inference proportionally to the compute
//! capacity of the participating nodes and executes the resulting sub-models
//! in parallel, exchanging intermediate (halo) data. It makes its decisions
//! globally only: each node runs its slice on the framework-default
//! processor (the GPU), and the partitioning mode is fixed to data-wise
//! regardless of the model's characteristics. Following the paper's
//! methodology (§IV-A), this implementation reuses HiDP's data-partitioning
//! machinery with those two restrictions applied.

use hidp_core::{workload_summary, CoreError, DistributedStrategy, SystemModel};
use hidp_dnn::DnnGraph;
use hidp_platform::{Cluster, NodeIndex, ProcessorAddr, ProcessorIndex};
use hidp_sim::ExecutionPlan;

/// The MoDNN baseline: GPU-rate-proportional data partitioning over all
/// available nodes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModnnStrategy {
    /// Maximum number of parallel parts (0 = all available nodes).
    pub max_parts: usize,
}

impl ModnnStrategy {
    /// Creates the strategy with no explicit part bound.
    pub fn new() -> Self {
        Self { max_parts: 0 }
    }
}

fn default_processor(cluster: &Cluster, node: NodeIndex) -> Result<ProcessorIndex, CoreError> {
    let device = cluster.node(node)?;
    device
        .gpu_index()
        .or_else(|| device.cpu_indices().first().copied())
        .ok_or_else(|| CoreError::Infeasible {
            what: format!("node {node} has no processors"),
        })
}

impl DistributedStrategy for ModnnStrategy {
    fn name(&self) -> &str {
        "MoDNN"
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
        let workload = workload_summary(graph);
        // Node capacity as MoDNN sees it: the default (GPU) processor only.
        let resources = system.global_resources_gpu_only(cluster);
        if resources.is_empty() {
            return Err(CoreError::Infeasible {
                what: "no available nodes".into(),
            });
        }
        let parts = if self.max_parts == 0 {
            resources.len()
        } else {
            self.max_parts.min(resources.len())
        };
        // Proportional split over the `parts` fastest nodes.
        let mut order: Vec<usize> = (0..resources.len()).collect();
        order.sort_by(|a, b| {
            resources[*b]
                .rate
                .partial_cmp(&resources[*a].rate)
                .expect("rates are finite")
        });
        let selected = &order[..parts];
        let total_rate: f64 = selected.iter().map(|&i| resources[i].rate).sum();

        let mut plan = ExecutionPlan::new();
        let mut gathers = Vec::new();
        let mut returned = 0u64;
        for &idx in selected {
            let resource = &resources[idx];
            let fraction = resource.rate / total_rate;
            let node = resource.node;
            let processor = default_processor(cluster, node)?;
            let sync = if parts == 1 { 0 } else { workload.sync_bytes };
            let flops = (workload.flops as f64 * fraction) as u64 + sync / 4;
            let input_bytes = (workload.input_bytes as f64 * fraction).ceil() as u64;
            let output_bytes = (workload.output_bytes as f64 * fraction).ceil() as u64;

            let scatter = plan.add_transfer(
                format!("scatter->{}", cluster.node(node)?.name),
                leader,
                node,
                input_bytes,
                &[],
            );
            let compute = plan.add_compute(
                format!("slice@{}", cluster.node(node)?.name),
                ProcessorAddr { node, processor },
                flops,
                system.gpu_affinity,
                &[scatter],
            );
            let gather = plan.add_transfer(
                format!("gather<-{}", cluster.node(node)?.name),
                node,
                leader,
                output_bytes + sync,
                &[compute],
            );
            returned += output_bytes;
            gathers.push(gather);
        }
        let leader_proc = default_processor(cluster, leader)?;
        plan.add_compute(
            "merge@leader",
            ProcessorAddr {
                node: leader,
                processor: leader_proc,
            },
            (returned / 4) * 2,
            0.5,
            &gathers,
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
    fn uses_every_available_node() {
        let cluster = presets::paper_cluster();
        let strategy = ModnnStrategy::new();
        let graph = WorkloadModel::Vgg19.graph(1);
        let plan = strategy.plan(&graph, &cluster, NodeIndex(0)).unwrap();
        // 5 scatters + 5 computes + 5 gathers + merge.
        assert_eq!(plan.len(), 16);
        assert!(plan.total_transfer_bytes() > 0);
    }

    #[test]
    fn respects_availability() {
        let mut cluster = presets::paper_cluster();
        cluster.set_available(NodeIndex(2), false).unwrap();
        let strategy = ModnnStrategy::new();
        let graph = WorkloadModel::ResNet152.graph(1);
        let plan = strategy.plan(&graph, &cluster, NodeIndex(0)).unwrap();
        assert_eq!(plan.len(), 13);
    }

    #[test]
    fn parallelism_beats_gpu_only_on_heavy_models() {
        let cluster = presets::paper_cluster();
        let scenario = Scenario::single(WorkloadModel::Vgg19.graph(1));
        let modnn = scenario
            .run(&ModnnStrategy::new(), &cluster, NodeIndex(1))
            .unwrap();
        let single = scenario
            .run(&GpuOnlyStrategy::new(), &cluster, NodeIndex(1))
            .unwrap();
        assert!(modnn.latency() < single.latency());
    }

    #[test]
    fn max_parts_bounds_the_fanout() {
        let cluster = presets::paper_cluster();
        let strategy = ModnnStrategy { max_parts: 2 };
        let graph = WorkloadModel::InceptionV3.graph(1);
        let plan = strategy.plan(&graph, &cluster, NodeIndex(0)).unwrap();
        assert_eq!(plan.len(), 7);
    }
}
