//! DisNet (Samikwa et al., IEEE IoT-J 2024): hybrid global partitioning.
//!
//! DisNet jointly considers data and model partitioning when distributing
//! work across the cluster, but — unlike HiDP — it exerts no granular
//! control over the local device resources: each node runs its share on the
//! framework-default processor. Following the paper's methodology (§IV-A,
//! "we used the data and model partitioning algorithm of HiDP to implement
//! DisNet"), this baseline is HiDP's global partitioner with the core-aware
//! rate model and the local tier disabled.

use hidp_core::{
    CoreError, DistributedStrategy, GlobalPartitioner, HidpStrategy, LocalPartitioner,
};
use hidp_dnn::DnnGraph;
use hidp_platform::{Cluster, NodeIndex};
use hidp_sim::ExecutionPlan;

/// The DisNet baseline: hybrid global partitioning, GPU-only local execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DisNetStrategy {
    inner: HidpStrategy,
}

impl Default for DisNetStrategy {
    fn default() -> Self {
        Self {
            inner: HidpStrategy {
                global: GlobalPartitioner {
                    core_aware: false,
                    ..GlobalPartitioner::hidp()
                },
                local: LocalPartitioner::gpu_only(),
            },
        }
    }
}

impl DisNetStrategy {
    /// Creates the strategy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl DistributedStrategy for DisNetStrategy {
    fn name(&self) -> &str {
        "DisNet"
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
        self.inner.plan(graph, cluster, leader)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GpuOnlyStrategy, ModnnStrategy};
    use hidp_core::{HidpStrategy, Scenario};
    use hidp_dnn::zoo::WorkloadModel;
    use hidp_platform::presets;

    fn latency_of(strategy: &dyn DistributedStrategy, model: WorkloadModel) -> f64 {
        let cluster = presets::paper_cluster();
        Scenario::single(model.graph(1))
            .run(strategy, &cluster, NodeIndex(1))
            .unwrap()
            .latency()
    }

    #[test]
    fn disnet_beats_fixed_mode_baselines_on_average() {
        let mut disnet_total = 0.0;
        let mut modnn_total = 0.0;
        let mut gpu_total = 0.0;
        for model in WorkloadModel::ALL {
            disnet_total += latency_of(&DisNetStrategy::new(), model);
            modnn_total += latency_of(&ModnnStrategy::new(), model);
            gpu_total += latency_of(&GpuOnlyStrategy::new(), model);
        }
        assert!(disnet_total < modnn_total);
        assert!(disnet_total < gpu_total);
    }

    #[test]
    fn hidp_beats_disnet_because_of_the_local_tier() {
        let mut hidp_total = 0.0;
        let mut disnet_total = 0.0;
        for model in WorkloadModel::ALL {
            hidp_total += latency_of(&HidpStrategy::new(), model);
            disnet_total += latency_of(&DisNetStrategy::new(), model);
        }
        assert!(
            hidp_total < disnet_total,
            "HiDP {hidp_total:.3}s vs DisNet {disnet_total:.3}s"
        );
    }

    #[test]
    fn plans_are_valid_for_all_models() {
        let cluster = presets::paper_cluster();
        for model in WorkloadModel::ALL {
            let graph = model.graph(1);
            let plan = DisNetStrategy::new()
                .plan(&graph, &cluster, NodeIndex(1))
                .unwrap();
            assert!(plan.validate().is_ok(), "{model}");
        }
    }
}
