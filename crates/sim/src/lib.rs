//! # hidp-sim
//!
//! A deterministic discrete-event simulator for distributed DNN inference on
//! heterogeneous edge clusters.
//!
//! Partitioning strategies (HiDP and the baselines) emit an
//! [`ExecutionPlan`] — a DAG of compute tasks bound to processors and
//! transfer tasks bound to network links. [`simulate`] executes the plan on a
//! [`hidp_platform::Cluster`], producing per-task timing, request latency,
//! energy and throughput figures; [`simulate_stream`] does the same for a
//! stream of requests sharing the cluster, which is how the paper's dynamic
//! workload (Fig. 6) and workload-mix (Fig. 7) experiments are reproduced.
//!
//! ```
//! use hidp_platform::{presets, NodeIndex, ProcessorAddr, ProcessorIndex};
//! use hidp_sim::{simulate, ExecutionPlan};
//!
//! # fn main() -> Result<(), hidp_sim::SimError> {
//! let cluster = presets::paper_cluster();
//! let gpu = ProcessorAddr { node: NodeIndex(0), processor: ProcessorIndex(1) };
//! let mut plan = ExecutionPlan::new();
//! plan.add_compute("whole model", gpu, 5_000_000_000, 1.0, &[]);
//! let report = simulate(&plan, &cluster)?;
//! assert!(report.makespan > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod engine;
mod error;
mod plan;
pub mod reference;
pub mod serving;
pub mod stats;

pub use engine::{
    simulate, simulate_admitted_stream_faulty_in, simulate_admitted_stream_in, simulate_stream,
    simulate_stream_detailed, simulate_stream_in, FailureEvent, SimReport, SimScratch, TaskRecord,
    TraceDetail,
};
pub use error::SimError;
pub use plan::{ExecutionPlan, Label, PlanTask, Resource, TaskCost, TaskId, TaskKind};
pub use reference::simulate_stream_reference;
pub use serving::{
    LatencyHistogram, LatencySummary, ServedRequestRecord, ServingMetrics, SlaClass,
    SlaClassReport, StreamingTail,
};
pub use stats::Ewma;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, SimError>;
