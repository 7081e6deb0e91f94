//! The framework-default baseline: no partitioning at all, the whole model
//! runs on the leader's GPU (the paper's configuration P1, which
//! state-of-the-art distributed techniques inherit from TensorFlow's default
//! device placement).

use hidp_core::{CoreError, DistributedStrategy, SystemModel};
use hidp_dnn::DnnGraph;
use hidp_platform::{Cluster, NodeIndex, ProcessorAddr};
use hidp_sim::ExecutionPlan;

/// Runs every request entirely on the leader's default (GPU) processor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GpuOnlyStrategy;

impl GpuOnlyStrategy {
    /// Creates the strategy.
    pub fn new() -> Self {
        Self
    }
}

impl DistributedStrategy for GpuOnlyStrategy {
    fn name(&self) -> &str {
        "GPU-only"
    }

    fn plan(
        &self,
        graph: &DnnGraph,
        cluster: &Cluster,
        leader: NodeIndex,
    ) -> Result<ExecutionPlan, CoreError> {
        let node = cluster.node(leader)?;
        let gpu = node
            .gpu_index()
            .or_else(|| node.cpu_indices().first().copied())
            .ok_or_else(|| CoreError::Infeasible {
                what: format!("leader {leader} has no processors"),
            })?;
        let system = SystemModel::new(graph, leader);
        let mut plan = ExecutionPlan::new();
        let compute = plan.add_compute(
            format!("{}@{}", graph.name(), node.name),
            ProcessorAddr {
                node: leader,
                processor: gpu,
            },
            graph.total_flops(),
            system.gpu_affinity,
            &[],
        );
        plan.add_compute(
            "report@leader",
            ProcessorAddr {
                node: leader,
                processor: gpu,
            },
            graph.output_shape().bytes() / 2,
            0.5,
            &[compute],
        );
        plan.validate()?;
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hidp_core::Scenario;
    use hidp_dnn::zoo::WorkloadModel;
    use hidp_platform::presets;

    #[test]
    fn whole_model_runs_on_one_processor() {
        let cluster = presets::paper_cluster();
        let strategy = GpuOnlyStrategy::new();
        let graph = WorkloadModel::ResNet152.graph(1);
        let plan = strategy.plan(&graph, &cluster, NodeIndex(1)).unwrap();
        assert_eq!(plan.total_transfer_bytes(), 0);
        assert!(plan.total_flops() >= graph.total_flops());
        let eval = Scenario::single(graph)
            .run(&strategy, &cluster, NodeIndex(1))
            .unwrap();
        // ResNet-152 on the TX2's Pascal GPU alone: tens of milliseconds at
        // the very least.
        assert!(eval.latency() > 0.02);
    }

    #[test]
    fn falls_back_to_cpu_when_no_gpu_exists() {
        use hidp_platform::{EdgeNode, NetworkModel, Processor};
        let node = EdgeNode::new("cpu-only", vec![Processor::cpu("c", 4, 1.5, 40.0)], 4.0).unwrap();
        let cluster = Cluster::new(vec![node], NetworkModel::paper_wireless()).unwrap();
        let strategy = GpuOnlyStrategy::new();
        let graph = WorkloadModel::EfficientNetB0.graph(1);
        assert!(strategy.plan(&graph, &cluster, NodeIndex(0)).is_ok());
    }

    #[test]
    fn unknown_leader_is_rejected() {
        let cluster = presets::paper_cluster();
        let graph = WorkloadModel::EfficientNetB0.graph(1);
        assert!(GpuOnlyStrategy::new()
            .plan(&graph, &cluster, NodeIndex(9))
            .is_err());
    }
}
