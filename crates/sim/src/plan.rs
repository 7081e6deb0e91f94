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
use std::collections::HashMap;
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
/// [`CompiledPlan::compile`] and the reference scheduler take durations and
/// resources from.
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

/// One task of a [`CompiledPlan`]: its [`PlanTask::cost`] with the resource
/// interned and the power it draws.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompiledTask {
    /// Nominal duration, seconds ([`TaskCost::duration`]).
    pub duration: f64,
    /// The dense id of the resource the task holds; `None` for a same-node
    /// move, which holds nothing.
    pub resource: Option<u32>,
    /// The processor a compute task keeps busy (`None` for transfers).
    pub processor: Option<ProcessorAddr>,
    /// That processor's dynamic power, watts (0 for transfers).
    pub power_w: f64,
    deps: (u32, u32),
    succ: (u32, u32),
}

/// A plan compiled against an execution cluster: the flat per-task table
/// the event engine and the serving tier's dispatch estimator both run.
/// Tasks keep their plan order; each has its dependency list and its
/// ascending successor list (task ids). Buffers keep their capacity across
/// recompiles, so a warm recompile allocates nothing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CompiledPlan {
    tasks: Vec<CompiledTask>,
    deps: Vec<u32>,
    succ: Vec<u32>,
    mask: u64,
}

impl CompiledPlan {
    /// Compiles `plan` against `cluster`, overwriting `self`: validates the
    /// plan, costs every task at [`ExecutionPlan::batch`] and interns its
    /// resource into `ids` (a new resource gets the next id, `ids.len()`).
    ///
    /// # Errors
    ///
    /// Returns the [`ExecutionPlan::validate`] error of an invalid plan, or
    /// [`SimError::Platform`] when a task names a processor or node missing
    /// from `cluster`.
    pub fn compile(
        &mut self,
        plan: &ExecutionPlan,
        cluster: &Cluster,
        ids: &mut HashMap<Resource, u32>,
    ) -> Result<(), SimError> {
        plan.validate()?;
        self.tasks.clear();
        self.deps.clear();
        self.mask = 0;
        for task in plan.tasks() {
            let cost = task.cost(cluster, plan.batch())?;
            let resource = cost.resource.map(|r| {
                let next = ids.len() as u32;
                *ids.entry(r).or_insert(next)
            });
            let power_w = match cost.processor {
                Some(addr) => cluster.processor(addr)?.dynamic_power_w(),
                None => 0.0,
            };
            let nodes = task.nodes();
            self.mask |= 1u64 << (nodes.0 .0 as u64 & 63) | 1u64 << (nodes.1 .0 as u64 & 63);
            let start = self.deps.len() as u32;
            for dep in &task.deps {
                self.deps.push(dep.0 as u32);
                // Count successors in the range's end for now.
                self.tasks[dep.0].succ.1 += 1;
            }
            self.tasks.push(CompiledTask {
                duration: cost.duration,
                resource,
                processor: cost.processor,
                power_w,
                deps: (start, self.deps.len() as u32),
                succ: (0, 0),
            });
        }
        // Lay the successor lists out back to back, then fill each one with
        // its range's end as the cursor; visiting dependents in task order
        // leaves every list ascending.
        let mut offset = 0;
        for task in &mut self.tasks {
            let count = task.succ.1;
            task.succ = (offset, offset);
            offset += count;
        }
        self.succ.clear();
        self.succ.resize(offset as usize, 0);
        for k in 0..self.tasks.len() {
            let (start, end) = self.tasks[k].deps;
            for &dep in &self.deps[start as usize..end as usize] {
                let cursor = &mut self.tasks[dep as usize].succ.1;
                self.succ[*cursor as usize] = k as u32;
                *cursor += 1;
            }
        }
        Ok(())
    }

    /// The compiled tasks, plan order.
    pub fn tasks(&self) -> &[CompiledTask] {
        &self.tasks
    }

    /// The ids of the tasks `task` (one of [`CompiledPlan::tasks`])
    /// depends on, plan order.
    pub fn deps(&self, task: &CompiledTask) -> &[u32] {
        &self.deps[task.deps.0 as usize..task.deps.1 as usize]
    }

    /// The ids of the tasks that depend on `task` (one of
    /// [`CompiledPlan::tasks`]), ascending.
    pub fn successors(&self, task: &CompiledTask) -> &[u32] {
        &self.succ[task.succ.0 as usize..task.succ.1 as usize]
    }

    /// The nodes the plan is resident on, as a 64-bit mask (node `i` sets
    /// bit `i % 64`): the OR of every task's [`PlanTask::nodes`].
    pub fn mask(&self) -> u64 {
        self.mask
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

    /// A deterministic pseudo-random plan on the paper cluster: `tasks`
    /// computes and transfers (same-node moves included), each depending on
    /// up to three earlier tasks, duplicates allowed.
    fn random_plan(seed: u64, tasks: usize, batch: usize) -> ExecutionPlan {
        let processors = hidp_platform::presets::paper_cluster().all_processors();
        let mut state = seed;
        let mut below = |bound: usize| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as usize % bound.max(1)
        };
        let mut plan = ExecutionPlan::new().with_batch(batch);
        for k in 0..tasks {
            let deps: Vec<TaskId> = (0..below(4))
                .filter(|_| k > 0)
                .map(|_| TaskId(below(k)))
                .collect();
            if below(2) == 0 {
                let target = processors[below(processors.len())];
                plan.add_compute("c", target, 1 + below(1 << 31) as u64, 0.5, &deps);
            } else {
                let (from, to) = (NodeIndex(below(5)), NodeIndex(below(5)));
                plan.add_transfer("t", from, to, 1 + below(1 << 24) as u64, &deps);
            }
        }
        plan
    }

    #[test]
    fn compiled_tasks_are_the_interned_costs_and_the_mask_ors_their_nodes() {
        let cluster = hidp_platform::presets::paper_cluster();
        for seed in 0..32 {
            let plan = random_plan(seed, 1 + seed as usize % 24, 1 + seed as usize % 8);
            let mut ids = HashMap::new();
            let mut compiled = CompiledPlan::default();
            compiled.compile(&plan, &cluster, &mut ids).unwrap();
            assert_eq!(compiled.tasks().len(), plan.len());
            let mut mask = 0u64;
            for (task, got) in plan.tasks().iter().zip(compiled.tasks()) {
                let cost = task.cost(&cluster, plan.batch()).unwrap();
                assert_eq!(got.duration.to_bits(), cost.duration.to_bits());
                assert_eq!(got.resource, cost.resource.map(|r| ids[&r]));
                assert_eq!(got.processor, cost.processor);
                let power = cost.processor.map_or(0.0, |addr| {
                    cluster.processor(addr).unwrap().dynamic_power_w()
                });
                assert_eq!(got.power_w.to_bits(), power.to_bits());
                let nodes = task.nodes();
                mask |= 1u64 << nodes.0 .0 | 1u64 << nodes.1 .0;
            }
            assert_eq!(compiled.mask(), mask);
            // Ids are dense, in first-use order.
            let mut seen: Vec<u32> = ids.values().copied().collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..ids.len() as u32).collect::<Vec<_>>());
        }
    }

    #[test]
    fn compiled_successors_invert_the_dependency_lists() {
        let cluster = hidp_platform::presets::paper_cluster();
        for seed in 0..32 {
            let plan = random_plan(seed, 1 + seed as usize % 24, 1);
            let mut compiled = CompiledPlan::default();
            compiled
                .compile(&plan, &cluster, &mut HashMap::new())
                .unwrap();
            let (mut edges, mut inverse) = (Vec::new(), Vec::new());
            for (k, task) in plan.tasks().iter().enumerate() {
                let deps: Vec<u32> = task.deps.iter().map(|d| d.0 as u32).collect();
                let got = &compiled.tasks()[k];
                assert_eq!(compiled.deps(got), deps);
                edges.extend(deps.iter().map(|&d| (d, k as u32)));
                let successors = compiled.successors(got);
                assert!(successors.windows(2).all(|w| w[0] <= w[1]), "ascending");
                inverse.extend(successors.iter().map(|&s| (k as u32, s)));
            }
            // Every (dependency, dependent) edge once per occurrence.
            edges.sort_unstable();
            assert_eq!(edges, inverse);
        }
    }

    #[test]
    fn recompiling_into_a_used_buffer_equals_a_fresh_compile() {
        let cluster = hidp_platform::presets::paper_cluster();
        let plans = [
            random_plan(1, 24, 8),
            random_plan(2, 3, 1),
            random_plan(3, 17, 4),
        ];
        let mut used = CompiledPlan::default();
        for plan in plans.iter().chain(plans.iter().rev()) {
            let mut used_ids = HashMap::new();
            used.compile(plan, &cluster, &mut used_ids).unwrap();
            let mut fresh_ids = HashMap::new();
            let mut fresh = CompiledPlan::default();
            fresh.compile(plan, &cluster, &mut fresh_ids).unwrap();
            assert_eq!(used, fresh);
            assert_eq!(used_ids, fresh_ids);
        }
    }

    #[test]
    fn broken_plans_are_typed_errors_from_compile_and_the_engine() {
        let cluster = hidp_platform::presets::paper_cluster();
        let empty = ExecutionPlan::new();
        let mut dangling = ExecutionPlan::new();
        dangling.add_compute("a", addr(0, 0), 1, 1.0, &[TaskId(3)]);
        let mut missing = ExecutionPlan::new();
        let a = missing.add_compute("a", addr(0, 0), 1, 1.0, &[]);
        missing.add_compute("b", addr(2, 9), 1, 1.0, &[a]);
        let unknown = SimError::Platform(hidp_platform::PlatformError::UnknownProcessor {
            node: 2,
            processor: 9,
        });
        let mut good = ExecutionPlan::new();
        good.add_compute("g", addr(0, 0), 1_000_000, 1.0, &[]);
        let mut scratch = crate::SimScratch::new();
        let cases = [
            (
                &empty,
                SimError::InvalidPlan {
                    what: "plan has no tasks".into(),
                },
            ),
            (&dangling, SimError::UnknownTask { id: 3 }),
            (&missing, unknown),
        ];
        for (plan, expected) in cases {
            let compiled = CompiledPlan::default().compile(plan, &cluster, &mut HashMap::new());
            assert_eq!(compiled, Err(expected.clone()));
            // Second in the stream, after a good plan has compiled.
            let stream = [(0.0, 0.0, &good), (0.0, 0.0, plan)];
            let simulated = crate::simulate_admitted_stream_in(
                &mut scratch,
                &stream,
                &cluster,
                crate::TraceDetail::Summary,
            )
            .map(drop);
            assert_eq!(simulated, Err(expected));
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
