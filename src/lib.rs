//! # hidp
//!
//! Umbrella crate for the HiDP reproduction (*HiDP: Hierarchical DNN
//! Partitioning for Distributed Inference on Heterogeneous Edge Platforms*,
//! DATE 2025). It re-exports the workspace crates so applications can depend
//! on a single crate:
//!
//! * [`tensor`] — NCHW tensor kernels and split/merge primitives;
//! * [`dnn`] — DNN graphs, cost model, model zoo, partitioning, execution;
//! * [`platform`] — processors, edge nodes, clusters, network, energy;
//! * [`sim`] — the discrete-event cluster simulator;
//! * [`core`] — the HiDP framework (system model, DP search, DSE agent,
//!   partitioners, scheduler FSM, cluster runtime, strategy);
//! * [`baselines`] — MoDNN, OmniBoost, DisNet and GPU-only;
//! * [`workloads`] — request streams and the paper's workload mixes.
//!
//! ```
//! use hidp::core::{HidpStrategy, Scenario};
//! use hidp::dnn::zoo::WorkloadModel;
//! use hidp::platform::{presets, NodeIndex};
//!
//! # fn main() -> Result<(), hidp::core::CoreError> {
//! let cluster = presets::paper_cluster();
//! let result = Scenario::single(WorkloadModel::ResNet152.graph(1))
//!     .run(&HidpStrategy::new(), &cluster, NodeIndex(1))?;
//! println!("HiDP latency: {:.1} ms", result.latency() * 1e3);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub use hidp_baselines as baselines;
pub use hidp_core as core;
pub use hidp_dnn as dnn;
pub use hidp_platform as platform;
pub use hidp_sim as sim;
pub use hidp_tensor as tensor;
pub use hidp_workloads as workloads;

/// The four DNN workloads evaluated in the paper, re-exported for
/// convenience.
pub use hidp_dnn::zoo::WorkloadModel;

/// The HiDP strategy, re-exported for convenience.
pub use hidp_core::HidpStrategy;

/// The unified plan→simulate evaluation pipeline, re-exported for
/// convenience.
pub use hidp_core::{Evaluation, Scenario};

/// The online serving runtime (admission, dynamic batching, SLA classes,
/// failure timelines), re-exported for convenience.
pub use hidp_core::{AdmissionPolicy, ServingConfig, ServingEvaluation, ServingScenario, SlaClass};

/// The fleet serving tier (multi-cluster routing on one clock),
/// re-exported for convenience.
pub use hidp_core::{FleetRequest, FleetScenario, RoutingPolicy};

/// The six knobs every cluster loop runs under, on both serving tiers,
/// re-exported for convenience.
pub use hidp_core::ClusterLoopConfig;

/// The one summary a streaming serving run and a fleet run both return,
/// re-exported for convenience.
pub use hidp_core::RunSummary;
