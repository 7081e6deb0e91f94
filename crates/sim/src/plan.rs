//! Execution plans: the device-level schedules produced by HiDP and the
//! baseline strategies, consumed by the simulator.
//!
//! A plan is a DAG of tasks. Compute tasks occupy one processor for a
//! duration derived from the analytical cost model; transfer tasks occupy
//! the wireless link between two nodes. This is the common currency through
//! which all strategies are compared: a strategy is exactly a function from
//! `(DnnGraph, Cluster)` to `ExecutionPlan`.

use crate::SimError;
use hidp_platform::{Cluster, NodeIndex, ProcessorAddr};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// An interned, cheaply clonable task label.
///
/// A plan carries one label per task, and the simulator copies that label
/// into every [`crate::TaskRecord`] it emits — once per task per run. With
/// owned `String`s that copy was the dominant allocation of the warm
/// evaluation path (one heap allocation per task per simulation); `Label`
/// wraps an `Arc<str>`, so cloning is a reference-count increment and the
/// character data is shared between the plan and every record emitted from
/// it. Everything observable — `Display`, comparisons, ordering, the
/// bench JSON writer — sees exactly the text the plan was built
/// with, so interning changes cost, never output.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Label(Arc<str>);

impl Label {
    /// The label text.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl std::ops::Deref for Label {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for Label {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl std::borrow::Borrow<str> for Label {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for Label {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for Label {
    fn from(s: &str) -> Self {
        Self(Arc::from(s))
    }
}

impl From<String> for Label {
    fn from(s: String) -> Self {
        Self(Arc::from(s))
    }
}

impl From<&String> for Label {
    fn from(s: &String) -> Self {
        Self(Arc::from(s.as_str()))
    }
}

impl From<Arc<str>> for Label {
    fn from(s: Arc<str>) -> Self {
        Self(s)
    }
}

impl PartialEq<str> for Label {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Label {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<Label> for str {
    fn eq(&self, other: &Label) -> bool {
        self == other.as_str()
    }
}

impl PartialEq<Label> for &str {
    fn eq(&self, other: &Label) -> bool {
        *self == other.as_str()
    }
}

/// Identifier of a task inside an [`ExecutionPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TaskId(pub usize);

impl std::fmt::Display for TaskId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// What a task does and which resource it occupies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TaskKind {
    /// Run `flops` of DNN work on one processor.
    Compute {
        /// The processor executing the work.
        target: ProcessorAddr,
        /// Amount of work in floating point operations.
        flops: u64,
        /// Flops-weighted GPU affinity of the work (0..=1), which determines
        /// the processor's effective throughput.
        gpu_affinity: f64,
    },
    /// Move `bytes` from one node to another over the wireless network.
    /// Transfers within the same node are free.
    Transfer {
        /// Sending node.
        from: NodeIndex,
        /// Receiving node.
        to: NodeIndex,
        /// Payload size in bytes.
        bytes: u64,
    },
}

/// One schedulable unit in a plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanTask {
    /// Task identifier (position in the plan).
    pub id: TaskId,
    /// Human-readable label used in traces (e.g. `"block2@jetson-tx2/gpu"`),
    /// interned so record emission clones a pointer, not the text.
    pub name: Label,
    /// What the task does.
    pub kind: TaskKind,
    /// Tasks that must finish before this one can start.
    pub deps: Vec<TaskId>,
}

/// A resource a task occupies exclusively while it runs: a processor, or
/// the undirected link between two distinct nodes (stored lower index
/// first, so both directions of a transfer contend for one link).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resource {
    /// One processor.
    Processor(ProcessorAddr),
    /// The link between two distinct nodes, lower index first.
    Link(NodeIndex, NodeIndex),
}

/// What one task costs on a cluster at a launch batch — the single rule
/// the event engine, the reference scheduler and the serving dispatch
/// estimator all take their durations and resources from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskCost {
    /// Nominal duration in seconds: batched compute time on the target
    /// processor, or the network transfer time (zero within a node).
    pub duration: f64,
    /// The resource the task holds while it runs; `None` for a same-node
    /// move, which occupies nothing.
    pub resource: Option<Resource>,
    /// The processor a compute task keeps busy (`None` for transfers) —
    /// what energy accounting charges.
    pub processor: Option<ProcessorAddr>,
}

impl PlanTask {
    /// The task's cost on `cluster` when its plan is launched at `batch`:
    /// compute runs [`hidp_platform::Processor::batched_compute_time`] on
    /// its target, a transfer takes the network's transfer time and holds
    /// the link between its endpoints unless both are the same node.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Platform`] when the target processor or either
    /// transfer endpoint does not exist in `cluster`.
    pub fn cost(&self, cluster: &Cluster, batch: usize) -> Result<TaskCost, SimError> {
        Ok(match &self.kind {
            TaskKind::Compute {
                target,
                flops,
                gpu_affinity,
            } => TaskCost {
                duration: cluster.processor(*target)?.batched_compute_time(
                    *flops,
                    *gpu_affinity,
                    batch,
                ),
                resource: Some(Resource::Processor(*target)),
                processor: Some(*target),
            },
            TaskKind::Transfer { from, to, bytes } => {
                cluster.node(*from)?;
                cluster.node(*to)?;
                TaskCost {
                    duration: cluster.network().transfer_time(*from, *to, *bytes),
                    resource: (from != to).then(|| Resource::Link(*from.min(to), *from.max(to))),
                    processor: None,
                }
            }
        })
    }

    /// The task's work as `(flops, bytes)`: a compute task's flops, or a
    /// transfer's payload (counted even within a node).
    pub(crate) fn work(&self) -> (u64, u64) {
        match self.kind {
            TaskKind::Compute { flops, .. } => (flops, 0),
            TaskKind::Transfer { bytes, .. } => (0, bytes),
        }
    }

    /// The nodes the task is resident on: a compute task's node twice, a
    /// transfer's two endpoints. A node failure invalidates every unstarted
    /// task resident on it.
    pub fn nodes(&self) -> (NodeIndex, NodeIndex) {
        match &self.kind {
            TaskKind::Compute { target, .. } => (target.node, target.node),
            TaskKind::Transfer { from, to, .. } => (*from, *to),
        }
    }
}

/// A complete schedule for one inference request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutionPlan {
    tasks: Vec<PlanTask>,
    /// The launch batch the plan's compute costs are evaluated at (≥ 1):
    /// the batch dimension of the graph the plan was built for. The
    /// simulator divides compute durations by the target processor's
    /// [`hidp_platform::Processor::batch_efficiency`] at this batch, so
    /// coalesced launches run sublinearly in the compute-bound regime.
    /// Defaults to 1, where the cost model is bit-identical to the
    /// unbatched one.
    batch: usize,
}

impl Default for ExecutionPlan {
    fn default() -> Self {
        Self {
            tasks: Vec::new(),
            batch: 1,
        }
    }
}

impl ExecutionPlan {
    /// Creates an empty plan (launch batch 1).
    pub fn new() -> Self {
        Self::default()
    }

    /// The launch batch the plan's compute costs are evaluated at (≥ 1).
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Sets the launch batch (clamped to ≥ 1). `hidp_core::PlanCache`
    /// stamps every freshly planned `ExecutionPlan` with its graph's batch
    /// dimension, so cached plans always carry the batch they were costed
    /// for.
    pub fn set_batch(&mut self, batch: usize) {
        self.batch = batch.max(1);
    }

    /// Sets the launch batch (builder style, clamped to ≥ 1).
    #[must_use]
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.set_batch(batch);
        self
    }

    /// Adds a compute task and returns its id.
    pub fn add_compute(
        &mut self,
        name: impl Into<Label>,
        target: ProcessorAddr,
        flops: u64,
        gpu_affinity: f64,
        deps: &[TaskId],
    ) -> TaskId {
        self.push(
            name,
            TaskKind::Compute {
                target,
                flops,
                gpu_affinity,
            },
            deps,
        )
    }

    /// Adds a transfer task and returns its id.
    pub fn add_transfer(
        &mut self,
        name: impl Into<Label>,
        from: NodeIndex,
        to: NodeIndex,
        bytes: u64,
        deps: &[TaskId],
    ) -> TaskId {
        self.push(name, TaskKind::Transfer { from, to, bytes }, deps)
    }

    fn push(&mut self, name: impl Into<Label>, kind: TaskKind, deps: &[TaskId]) -> TaskId {
        let id = TaskId(self.tasks.len());
        self.tasks.push(PlanTask {
            id,
            name: name.into(),
            kind,
            deps: deps.to_vec(),
        });
        id
    }

    /// All tasks in insertion order.
    pub fn tasks(&self) -> &[PlanTask] {
        &self.tasks
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the plan contains no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Total compute flops scheduled by the plan.
    pub fn total_flops(&self) -> u64 {
        self.tasks.iter().map(|t| t.work().0).sum()
    }

    /// Total bytes moved across node boundaries.
    pub fn total_transfer_bytes(&self) -> u64 {
        self.tasks
            .iter()
            .map(|t| match &t.kind {
                TaskKind::Transfer { from, to, bytes } if from != to => *bytes,
                _ => 0,
            })
            .sum()
    }

    /// Validates that every dependency refers to an earlier task (which also
    /// guarantees acyclicity) and that the plan is non-empty.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidPlan`] or [`SimError::UnknownTask`] on
    /// violation.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.tasks.is_empty() {
            return Err(SimError::InvalidPlan {
                what: "plan has no tasks".into(),
            });
        }
        for (i, task) in self.tasks.iter().enumerate() {
            if task.id.0 != i {
                return Err(SimError::InvalidPlan {
                    what: format!("task `{}` has id {} but position {i}", task.name, task.id),
                });
            }
            for dep in &task.deps {
                if dep.0 >= self.tasks.len() {
                    return Err(SimError::UnknownTask { id: dep.0 });
                }
                if dep.0 >= i {
                    return Err(SimError::InvalidPlan {
                        what: format!(
                            "task `{}` depends on task {} that does not precede it",
                            task.name, dep.0
                        ),
                    });
                }
            }
            if let TaskKind::Compute { gpu_affinity, .. } = &task.kind {
                if !gpu_affinity.is_finite() {
                    return Err(SimError::InvalidPlan {
                        what: format!("task `{}` has a non-finite gpu affinity", task.name),
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hidp_platform::{NodeIndex, ProcessorIndex};

    fn addr(node: usize, proc: usize) -> ProcessorAddr {
        ProcessorAddr {
            node: NodeIndex(node),
            processor: ProcessorIndex(proc),
        }
    }

    #[test]
    fn builder_assigns_sequential_ids() {
        let mut plan = ExecutionPlan::new();
        let a = plan.add_compute("a", addr(0, 0), 100, 1.0, &[]);
        let b = plan.add_transfer("b", NodeIndex(0), NodeIndex(1), 50, &[a]);
        let c = plan.add_compute("c", addr(1, 0), 200, 0.5, &[b]);
        assert_eq!((a, b, c), (TaskId(0), TaskId(1), TaskId(2)));
        assert_eq!(plan.len(), 3);
        assert!(!plan.is_empty());
        assert!(plan.validate().is_ok());
        assert_eq!(plan.total_flops(), 300);
        assert_eq!(plan.total_transfer_bytes(), 50);
    }

    #[test]
    fn same_node_transfers_do_not_count() {
        let mut plan = ExecutionPlan::new();
        plan.add_transfer("loop", NodeIndex(1), NodeIndex(1), 1000, &[]);
        assert_eq!(plan.total_transfer_bytes(), 0);
    }

    #[test]
    fn forward_dependencies_are_rejected() {
        let mut plan = ExecutionPlan::new();
        plan.add_compute("a", addr(0, 0), 1, 1.0, &[TaskId(1)]);
        plan.add_compute("b", addr(0, 0), 1, 1.0, &[]);
        assert!(plan.validate().is_err());
    }

    #[test]
    fn unknown_dependency_is_rejected() {
        let mut plan = ExecutionPlan::new();
        plan.add_compute("a", addr(0, 0), 1, 1.0, &[TaskId(7)]);
        assert!(matches!(
            plan.validate(),
            Err(SimError::UnknownTask { id: 7 })
        ));
    }

    #[test]
    fn empty_plan_is_invalid() {
        assert!(ExecutionPlan::new().validate().is_err());
    }

    #[test]
    fn non_finite_affinity_is_rejected() {
        let mut plan = ExecutionPlan::new();
        plan.add_compute("a", addr(0, 0), 1, f64::NAN, &[]);
        assert!(plan.validate().is_err());
    }

    #[test]
    fn batch_defaults_to_one_and_clamps() {
        let plan = ExecutionPlan::new();
        assert_eq!(plan.batch(), 1);
        assert_eq!(plan.with_batch(0).batch(), 1);
        let mut plan = ExecutionPlan::new().with_batch(4);
        assert_eq!(plan.batch(), 4);
        plan.set_batch(8);
        assert_eq!(plan.batch(), 8);
        // The batch is part of plan identity.
        let mut a = ExecutionPlan::new();
        a.add_compute("a", addr(0, 0), 1, 1.0, &[]);
        let b = a.clone().with_batch(2);
        assert_ne!(a, b);
    }

    #[test]
    fn link_keys_ignore_transfer_direction() {
        let cluster = hidp_platform::presets::paper_cluster();
        let mut plan = ExecutionPlan::new();
        plan.add_transfer("up", NodeIndex(3), NodeIndex(1), 4_000, &[]);
        plan.add_transfer("down", NodeIndex(1), NodeIndex(3), 4_000, &[]);
        let [up, down] = [0, 1].map(|i| plan.tasks()[i].cost(&cluster, 1).unwrap());
        assert_eq!(
            up.resource,
            Some(Resource::Link(NodeIndex(1), NodeIndex(3)))
        );
        assert_eq!(up, down);
        assert_eq!(
            up.duration,
            cluster
                .network()
                .transfer_time(NodeIndex(3), NodeIndex(1), 4_000)
        );
        assert_eq!(up.processor, None);
        assert_eq!(plan.tasks()[0].nodes(), (NodeIndex(3), NodeIndex(1)));
    }

    #[test]
    fn same_node_transfer_holds_no_resource() {
        let cluster = hidp_platform::presets::paper_cluster();
        let mut plan = ExecutionPlan::new();
        plan.add_transfer("loop", NodeIndex(2), NodeIndex(2), 4_000, &[]);
        let task = &plan.tasks()[0];
        let cost = task.cost(&cluster, 1).unwrap();
        assert_eq!(cost.resource, None);
        assert_eq!(cost.duration, 0.0);
        assert_eq!(task.nodes(), (NodeIndex(2), NodeIndex(2)));
    }

    #[test]
    fn batched_compute_divides_by_batch_efficiency() {
        let cluster = hidp_platform::presets::paper_cluster();
        let mut plan = ExecutionPlan::new();
        plan.add_compute("c", addr(1, 2), 3_000_000_000, 0.7, &[]);
        let task = &plan.tasks()[0];
        let proc = cluster.processor(addr(1, 2)).unwrap();
        for batch in [1, 8] {
            let cost = task.cost(&cluster, batch).unwrap();
            assert_eq!(
                cost.duration,
                proc.compute_time(3_000_000_000, 0.7) / proc.batch_efficiency(batch)
            );
            assert_eq!(cost.resource, Some(Resource::Processor(addr(1, 2))));
            assert_eq!(cost.processor, Some(addr(1, 2)));
        }
        assert!(proc.batch_efficiency(8) > 1.0);
        assert_eq!(task.nodes(), (NodeIndex(1), NodeIndex(1)));
    }

    #[test]
    fn unknown_processor_or_node_is_an_error() {
        let cluster = hidp_platform::presets::paper_cluster();
        let mut plan = ExecutionPlan::new();
        plan.add_compute("no node", addr(9, 0), 1, 1.0, &[]);
        plan.add_compute("no processor", addr(0, 9), 1, 1.0, &[]);
        plan.add_transfer("no sender", NodeIndex(9), NodeIndex(0), 1, &[]);
        plan.add_transfer("no receiver", NodeIndex(0), NodeIndex(9), 1, &[]);
        for task in plan.tasks() {
            assert!(
                matches!(task.cost(&cluster, 1), Err(SimError::Platform(_))),
                "{}",
                task.name
            );
        }
    }

    #[test]
    fn labels_behave_like_the_strings_they_intern() {
        let mut plan = ExecutionPlan::new();
        plan.add_compute(format!("block{}@gpu", 2), addr(0, 1), 1, 1.0, &[]);
        let name = &plan.tasks()[0].name;
        assert_eq!(name.as_str(), "block2@gpu");
        assert_eq!(*name, "block2@gpu");
        assert_eq!("block2@gpu", *name);
        assert_eq!(format!("{name}"), "block2@gpu");
        // Cloning shares the interned text instead of copying it.
        let clone = name.clone();
        assert_eq!(&clone, name);
        assert!(std::ptr::eq(clone.as_str(), name.as_str()));
        // All construction routes produce the same label.
        assert_eq!(Label::from("x"), Label::from("x".to_string()));
        assert_eq!(Label::from(&"x".to_string()), Label::from(Arc::from("x")));
    }
}
