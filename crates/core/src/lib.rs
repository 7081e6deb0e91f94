//! # hidp-core
//!
//! The HiDP framework: hierarchical DNN partitioning for distributed
//! inference on heterogeneous edge clusters (DATE 2025).
//!
//! The crate implements the paper's contribution end to end:
//!
//! * the **system model** (λ, μ, ψ, Λ, β, Ψ and the availability vector) in
//!   [`SystemModel`];
//! * the **dynamic-programming partitioning search** used at both hierarchy
//!   levels in [`dp`];
//! * the **DSE agent** that picks between model- and data-wise partitioning
//!   in [`DseAgent`];
//! * the **global** and **local partitioners** ([`GlobalPartitioner`],
//!   [`LocalPartitioner`]);
//! * the **run-time scheduler FSM** of Fig. 4 in [`scheduler`];
//! * the **collaborative cluster runtime** (leader/follower message passing)
//!   in [`runtime`];
//! * the [`HidpStrategy`] that composes all of the above into executable
//!   cluster plans, plus the [`DistributedStrategy`] trait shared with the
//!   baselines and the [`Scenario`] pipeline that plans a workload and
//!   simulates it on a cluster in one call;
//! * the **parallel evaluation engine**: the sharded, in-flight-deduplicated
//!   [`PlanCache`] and the [`ParallelSweep`] runner that fans independent
//!   scenario runs across worker threads with bit-identical results.
//!
//! ```
//! use hidp_core::{DistributedStrategy, HidpStrategy, Scenario};
//! use hidp_dnn::zoo::WorkloadModel;
//! use hidp_platform::{presets, NodeIndex};
//!
//! # fn main() -> Result<(), hidp_core::CoreError> {
//! let cluster = presets::paper_cluster();
//! let hidp = HidpStrategy::new();
//! let result = Scenario::single(WorkloadModel::EfficientNetB0.graph(1))
//!     .run(&hidp, &cluster, NodeIndex(0))?;
//! println!("{}: {:.1} ms", hidp.name(), result.latency() * 1e3);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod adaptive;
mod cluster_loop;
pub mod comm;
pub mod dp;
mod dse;
mod engine;
mod error;
mod fleet;
mod global;
mod local;
mod parallel;
mod plan_cache;
pub mod runtime;
mod scenario;
pub mod scheduler;
mod serving;
mod strategy;
mod system_model;

pub use adaptive::{AdaptiveConfig, DriftStats, StrategyBandit};
pub use cluster_loop::{ClusterLoopConfig, RunSummary};
pub use dse::{Decision, DseAgent, DsePolicy};
pub use engine::{HidpStrategy, HierarchicalPlan};
pub use error::CoreError;
pub use fleet::{FleetConfig, FleetRequest, FleetScenario, FleetScratch, RoutingPolicy};
pub use global::{
    chain_segments, workload_summary, GlobalAssignment, GlobalPartitioner, GlobalShare, ShareKind,
};
pub use local::{LocalAssignment, LocalPartitioner, LocalPolicy, LocalSplit};
pub use parallel::{ParallelSweep, ServingSweepJob, SweepJob};
pub use plan_cache::{PlanCache, PlanCacheStats, PlanKey, SHARD_COUNT};
pub use scenario::{Evaluation, Scenario};
pub use serving::{
    AdmissionPolicy, AdmittedBatch, FailureMode, RecoveryPolicy, RetryPolicy, RobustnessStats,
    ServingConfig, ServingEvaluation, ServingRequest, ServingScenario, ServingScratch,
};
pub use strategy::DistributedStrategy;
pub use system_model::{Resource, SystemModel};
// Re-exported so pipeline callers can pick a trace detail, own a scratch or
// tag SLA classes without depending on hidp-sim directly.
pub use hidp_sim::serving::{LatencySummary, ServingMetrics, SlaClass};
pub use hidp_sim::{SimScratch, TraceDetail};

/// The former name of [`RunSummary`] on the serving tier, kept only because
/// the repository benchmark (`perfbench/`) imports it.
pub type ServingSummary = RunSummary;

/// The former name of [`RunSummary`] on the fleet tier, kept only because
/// the repository benchmark (`perfbench/`) imports it.
pub type FleetSummary = RunSummary;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, CoreError>;
