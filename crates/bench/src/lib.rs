//! # hidp-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! HiDP paper's evaluation (§IV). Each `fig*`/`table*` function returns an
//! [`ExperimentTable`] with the same rows/series the paper reports, and the
//! `exp_*` binaries print them.
//!
//! The serving-tier experiments (`exp_soak`, `exp_fleet`, `exp_chaos`,
//! `exp_drift`, `exp_serving`) also gate their runs, and a full run writes
//! a `BENCH_*.json` document of model outputs only: no field depends on the
//! host, so a document is a pure function of the code and the committed
//! copies are goldens that CI regenerates and diffs. Host wall-clock is
//! measured by the repository benchmark (`perfbench/`); the binaries time
//! only what a gate reads (the soak throughput floors) and print it.
//!
//! The experiment configuration mirrors the paper's setup: the five-device
//! cluster of Table II, requests arriving at the Jetson TX2 (the device used
//! for the Fig. 1 motivation study), and the four DNN workloads at their
//! published input resolutions.

#![warn(missing_docs)]

pub mod alloc_count;
pub mod json;

pub use json::{write_bench, Fields, Json, ToJson};

use json::record;

use hidp_baselines::paper_strategies;
use hidp_core::{
    chain_segments, workload_summary, AdaptiveConfig, AdmissionPolicy, DseAgent, DsePolicy,
    Evaluation, FailureMode, FleetRequest, FleetScenario, FleetScratch, FleetSummary,
    GlobalPartitioner, HidpStrategy, LatencySummary, LocalPartitioner, ParallelSweep, PlanCache,
    RecoveryPolicy, RobustnessStats, RoutingPolicy, Scenario, ServingEvaluation, ServingScenario,
    ServingScratch, ServingSummary, ServingSweepJob, SlaClass, StrategyBandit, SweepJob,
    SystemModel, TraceDetail,
};
use hidp_dnn::exec::{execute, execute_data_partition_batch, execute_model_partition, WeightStore};
use hidp_dnn::partition::partition_into_blocks;
use hidp_dnn::zoo::{self, WorkloadModel};
use hidp_platform::{presets, Cluster, ClusterTimeline, DriftModel, NodeIndex, ProcessorAddr};
use hidp_sim::stats::performance_timeline;
use hidp_sim::{simulate_stream_detailed, ExecutionPlan};
use hidp_tensor::Tensor;
use hidp_workloads::{
    bursty_stream, dynamic_scenario, mixes, poisson_stream_classed, standard_fault_suite,
    DriftPlanConfig, FaultPlan, InferenceRequest,
};
use std::time::Instant;

/// The node at which inference requests arrive in all experiments (the
/// Jetson TX2, index 1 of [`presets::paper_cluster`]).
pub const LEADER: NodeIndex = NodeIndex(1);

record! {
    /// A simple result table: named rows × named columns of floating point
    /// values, with a unit label. Printable as GitHub-flavoured markdown; its
    /// [`Fields`] are the `exp_all --json` dump.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ExperimentTable {
        /// Table title (e.g. `"Fig. 5(a): inference latency"`).
        pub title: String,
        /// Unit of the values (e.g. `"ms"`).
        pub unit: String,
        /// Column headers.
        pub columns: Vec<String>,
        /// Rows: `(label, values)`, one value per column.
        pub rows: Vec<(String, Vec<f64>)>,
    }
}

impl ExperimentTable {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, unit: impl Into<String>, columns: Vec<String>) -> Self {
        Self {
            title: title.into(),
            unit: unit.into(),
            columns,
            rows: Vec::new(),
        }
    }

    /// Builds a table with one row per point: the label from `label`, one
    /// column per key of the whitespace-separated `columns`, each cell read
    /// from the point's [`Fields`]. Dotted keys (`robustness.completed`)
    /// reach nested objects; a `null` cell is NaN.
    ///
    /// # Panics
    ///
    /// Panics when a key does not name a number, bool or null field.
    pub fn from_points<P: Fields>(
        title: impl Into<String>,
        unit: impl Into<String>,
        points: &[P],
        label: impl Fn(&P) -> String,
        columns: &str,
    ) -> Self {
        let columns: Vec<&str> = columns.split_whitespace().collect();
        let mut table = Self::new(title, unit, columns.iter().map(|c| c.to_string()).collect());
        for p in points {
            let record = p.to_json();
            let cells = columns.iter().map(|key| {
                record
                    .get(key)
                    .and_then(Json::cell)
                    .unwrap_or_else(|| panic!("column `{key}` is not a numeric field"))
            });
            table.push_row(label(p), cells.collect());
        }
        table
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics when the value count does not match the column count.
    pub fn push_row(&mut self, label: impl Into<String>, values: Vec<f64>) {
        assert_eq!(
            values.len(),
            self.columns.len(),
            "row length must match column count"
        );
        self.rows.push((label.into(), values));
    }

    /// Returns the value at `(row_label, column_label)`, if present.
    pub fn value(&self, row: &str, column: &str) -> Option<f64> {
        let col = self.columns.iter().position(|c| c == column)?;
        self.rows
            .iter()
            .find(|(label, _)| label == row)
            .map(|(_, values)| values[col])
    }

    /// Renders the table as GitHub-flavoured markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("### {} [{}]\n\n", self.title, self.unit));
        out.push_str(&format!(
            "| {} | {} |\n",
            "workload",
            self.columns.join(" | ")
        ));
        out.push_str(&format!("|---|{}\n", "---|".repeat(self.columns.len())));
        for (label, values) in &self.rows {
            let cells: Vec<String> = values.iter().map(|v| format_value(*v)).collect();
            out.push_str(&format!("| {} | {} |\n", label, cells.join(" | ")));
        }
        out
    }
}

fn format_value(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

/// The strategy names in the order the paper's figures list them.
pub fn strategy_names() -> Vec<String> {
    paper_strategies()
        .iter()
        .map(|s| s.name().to_string())
        .collect()
}

/// The thread-pooled runner every experiment grid fans out on: one worker
/// per available core. Results are deterministic per job index, so every
/// table below is byte-identical to its old serial implementation.
fn sweep() -> ParallelSweep {
    ParallelSweep::with_available_parallelism()
}

/// Runs a grid of scenario jobs through [`ParallelSweep`] against one shared
/// sharded [`PlanCache`] and unwraps the evaluations (experiment grids are
/// all known-feasible).
fn sweep_evaluations(jobs: &[SweepJob<'_>]) -> Vec<Evaluation> {
    let cache = PlanCache::new();
    sweep()
        .run_scenarios(jobs, &cache)
        .into_iter()
        .map(|r| r.expect("experiment evaluation succeeds"))
        .collect()
}

// ---------------------------------------------------------------------------
// Fig. 1: partitioning configurations P1–P9 on the Jetson TX2
// ---------------------------------------------------------------------------

/// One of the Fig. 1 partitioning configurations: a number of data-wise
/// partitions and a CPU/GPU workload split on a single node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitioningConfig {
    /// Configuration name (`"P1"` … `"P9"`).
    pub name: &'static str,
    /// Number of data-wise partitions (1 = no partitioning).
    pub partitions: usize,
    /// Fraction of the workload placed on the GPU.
    pub gpu_share: f64,
}

/// The nine configurations of Fig. 1. P1 is the framework default (GPU only,
/// no data partitioning); the others combine 2 or 4 data partitions with
/// 90/10, 80/20 and 50/50 GPU/CPU splits.
pub const FIG1_CONFIGS: [PartitioningConfig; 9] = [
    PartitioningConfig {
        name: "P1",
        partitions: 1,
        gpu_share: 1.0,
    },
    PartitioningConfig {
        name: "P2",
        partitions: 2,
        gpu_share: 1.0,
    },
    PartitioningConfig {
        name: "P3",
        partitions: 2,
        gpu_share: 0.9,
    },
    PartitioningConfig {
        name: "P4",
        partitions: 2,
        gpu_share: 0.8,
    },
    PartitioningConfig {
        name: "P5",
        partitions: 2,
        gpu_share: 0.5,
    },
    PartitioningConfig {
        name: "P6",
        partitions: 4,
        gpu_share: 0.9,
    },
    PartitioningConfig {
        name: "P7",
        partitions: 4,
        gpu_share: 0.8,
    },
    PartitioningConfig {
        name: "P8",
        partitions: 4,
        gpu_share: 0.65,
    },
    PartitioningConfig {
        name: "P9",
        partitions: 4,
        gpu_share: 0.5,
    },
];

/// Builds the single-node execution plan for one Fig. 1 configuration: the
/// GPU processes `gpu_share` of the flops, the CPU clusters share the rest
/// proportionally to their rates, and every additional data partition adds
/// one halo-synchronisation round.
pub fn fig1_plan(
    model: WorkloadModel,
    config: PartitioningConfig,
    cluster: &Cluster,
) -> ExecutionPlan {
    let graph = model.graph(1);
    let node = NodeIndex(0);
    let device = &cluster.nodes()[node.0];
    let system = SystemModel::new(&graph, node);
    let workload = workload_summary(&graph);
    let gpu = device.gpu_index().expect("TX2 has a GPU");
    let mut plan = ExecutionPlan::new();

    let sync_rounds = config.partitions.saturating_sub(1) as u64;
    let sync_flops = sync_rounds * workload.sync_bytes / 16;

    let gpu_flops = (workload.flops as f64 * config.gpu_share) as u64 + sync_flops;
    let mut tasks = vec![plan.add_compute(
        format!("{}-gpu", config.name),
        ProcessorAddr {
            node,
            processor: gpu,
        },
        gpu_flops,
        system.gpu_affinity,
        &[],
    )];

    let cpu_share = 1.0 - config.gpu_share;
    if cpu_share > 0.0 && config.partitions > 1 {
        // With 2 partitions only the faster CPU cluster joins; with 4 both do.
        let mut cpus = device.cpu_indices();
        cpus.sort_by(|a, b| {
            device.processors[b.0]
                .computation_rate(system.gpu_affinity)
                .partial_cmp(&device.processors[a.0].computation_rate(system.gpu_affinity))
                .expect("finite rates")
        });
        let active_cpus = if config.partitions >= 4 {
            cpus.len()
        } else {
            1.min(cpus.len())
        };
        let selected = &cpus[..active_cpus];
        let total_rate: f64 = selected
            .iter()
            .map(|i| device.processors[i.0].computation_rate(system.gpu_affinity))
            .sum();
        for idx in selected {
            let rate = device.processors[idx.0].computation_rate(system.gpu_affinity);
            let flops = (workload.flops as f64 * cpu_share * rate / total_rate) as u64 + sync_flops;
            tasks.push(plan.add_compute(
                format!("{}-{}", config.name, device.processors[idx.0].name),
                ProcessorAddr {
                    node,
                    processor: *idx,
                },
                flops,
                system.gpu_affinity,
                &[],
            ));
        }
    }
    // Merge the partition results on the first CPU cluster.
    plan.add_compute(
        format!("{}-merge", config.name),
        ProcessorAddr {
            node,
            processor: device.cpu_indices()[0],
        },
        (workload.output_bytes / 4) * 2 * config.partitions as u64,
        0.5,
        &tasks,
    );
    plan
}

/// Fig. 1: normalized inference latency of the four DNN models under the
/// partitioning configurations P1–P9 on a single Jetson TX2 (latencies are
/// normalised to P1, the framework default).
pub fn fig1_partitioning_configs() -> ExperimentTable {
    let cluster = presets::tx2_only();
    let columns: Vec<String> = FIG1_CONFIGS.iter().map(|c| c.name.to_string()).collect();
    let mut table = ExperimentTable::new(
        "Fig. 1: normalized latency of partitioning configurations on Jetson TX2",
        "x (P1 = 1.0)",
        columns,
    );
    // Hand-built plans, so this grid goes through the generic runner (no
    // planner, nothing to cache) — one job per (model, config) cell.
    let jobs: Vec<(WorkloadModel, PartitioningConfig)> = WorkloadModel::ALL
        .iter()
        .flat_map(|&model| FIG1_CONFIGS.iter().map(move |&config| (model, config)))
        .collect();
    let makespans = sweep().run(&jobs, |_, &(model, config)| {
        let plan = fig1_plan(model, config, &cluster);
        // Only the makespan is read, so the per-task trace is skipped.
        simulate_stream_detailed(&[(0.0, plan)], &cluster, TraceDetail::Summary)
            .expect("fig1 plans are valid")
            .makespan
    });
    for (row, model) in WorkloadModel::ALL.iter().enumerate() {
        let latencies = &makespans[row * FIG1_CONFIGS.len()..(row + 1) * FIG1_CONFIGS.len()];
        let p1 = latencies[0];
        table.push_row(model.name(), latencies.iter().map(|l| l / p1).collect());
    }
    table
}

// ---------------------------------------------------------------------------
// Fig. 5: per-model latency and energy for HiDP vs the baselines
// ---------------------------------------------------------------------------

/// Fig. 5(a): inference latency (ms) of each DNN workload under HiDP,
/// DisNet, OmniBoost and MoDNN on the five-device cluster.
pub fn fig5_latency() -> ExperimentTable {
    fig5_metric("Fig. 5(a): inference latency", "ms", |evaluation| {
        evaluation.latency() * 1e3
    })
}

/// Fig. 5(b): energy per inference (J) of each DNN workload under HiDP,
/// DisNet, OmniBoost and MoDNN.
pub fn fig5_energy() -> ExperimentTable {
    fig5_metric("Fig. 5(b): energy per inference", "J", |evaluation| {
        evaluation.total_energy
    })
}

fn fig5_metric(
    title: &str,
    unit: &str,
    metric: impl Fn(&hidp_core::Evaluation) -> f64,
) -> ExperimentTable {
    let cluster = presets::paper_cluster();
    let strategies = paper_strategies();
    // Latency/energy only — the trace is never read, so Summary detail
    // keeps the sweep allocation-light (metrics are bit-identical).
    let scenarios: Vec<Scenario> = WorkloadModel::ALL
        .iter()
        .map(|m| Scenario::single(m.graph(1)).with_trace_detail(TraceDetail::Summary))
        .collect();
    let (cluster, strategies) = (&cluster, &strategies);
    let jobs: Vec<SweepJob<'_>> = scenarios
        .iter()
        .flat_map(|scenario| {
            strategies.iter().map(move |s| SweepJob {
                scenario,
                strategy: s.as_ref(),
                cluster,
                leader: LEADER,
            })
        })
        .collect();
    let evaluations = sweep_evaluations(&jobs);
    let mut table = ExperimentTable::new(title, unit, strategy_names());
    for (row, model) in WorkloadModel::ALL.iter().enumerate() {
        let values: Vec<f64> = evaluations[row * strategies.len()..(row + 1) * strategies.len()]
            .iter()
            .map(&metric)
            .collect();
        table.push_row(model.name(), values);
    }
    table
}

// ---------------------------------------------------------------------------
// Fig. 6: cluster performance over time under the dynamic workload
// ---------------------------------------------------------------------------

/// Fig. 6: delivered cluster performance (GFLOP/s) in 0.5 s bins while the
/// dynamic workload (one model arriving every 0.5 s) executes, one row per
/// strategy. The final column reports the total completion time in seconds.
pub fn fig6_dynamic_performance() -> ExperimentTable {
    let cluster = presets::paper_cluster();
    let strategies = paper_strategies();
    let scenario = InferenceRequest::to_scenario(&dynamic_scenario()).with_label("dynamic");
    let bin = 0.5f64;

    // First pass: find the longest makespan so all rows share columns (one
    // parallel job per strategy).
    let jobs: Vec<SweepJob<'_>> = strategies
        .iter()
        .map(|s| SweepJob {
            scenario: &scenario,
            strategy: s.as_ref(),
            cluster: &cluster,
            leader: LEADER,
        })
        .collect();
    let evals = sweep_evaluations(&jobs);
    let max_makespan = evals.iter().map(|e| e.makespan).fold(0.0, f64::max);
    let bins = (max_makespan / bin).ceil() as usize;
    let mut columns: Vec<String> = (0..bins)
        .map(|i| format!("t={:.1}s", i as f64 * bin))
        .collect();
    columns.push("completion_s".to_string());

    let mut table = ExperimentTable::new(
        "Fig. 6: cluster performance under the dynamic workload",
        "GFLOP/s",
        columns,
    );
    for (strategy, eval) in strategies.iter().zip(evals.iter()) {
        let timeline = performance_timeline(&eval.report, bin);
        let mut values: Vec<f64> = (0..bins)
            .map(|i| timeline.get(i).map(|b| b.gflops_per_second).unwrap_or(0.0))
            .collect();
        values.push(eval.makespan);
        table.push_row(strategy.name(), values);
    }
    table
}

// ---------------------------------------------------------------------------
// Fig. 7: throughput over the eight workload mixes
// ---------------------------------------------------------------------------

/// Fig. 7: throughput (inferences per 100 s) of each strategy over the eight
/// workload mixes.
pub fn fig7_mix_throughput() -> ExperimentTable {
    let cluster = presets::paper_cluster();
    let strategies = paper_strategies();
    let mut table = ExperimentTable::new(
        "Fig. 7: throughput over workload mixes",
        "inferences / 100 s",
        strategy_names(),
    );
    // Throughput is service capacity: the mix's sixteen requests form a
    // backlog released at t = 0, so the makespan is the time each strategy
    // needs to serve them, not the arrival span (spaced arrivals would make
    // every strategy read about 16 / (arrival span + the last request's
    // latency)). It extrapolates to a 100 s window. The 8 × 4 mix/strategy
    // grid fans out as one sweep.
    let the_mixes = mixes::all_mixes();
    // Throughput reads request completions only — Summary detail.
    let scenarios: Vec<Scenario> = the_mixes
        .iter()
        .map(|mix| {
            mix.scenario(0.0, 16)
                .with_trace_detail(TraceDetail::Summary)
        })
        .collect();
    let (cluster_ref, strategies_ref) = (&cluster, &strategies);
    let jobs: Vec<SweepJob<'_>> = scenarios
        .iter()
        .flat_map(|scenario| {
            strategies_ref.iter().map(move |s| SweepJob {
                scenario,
                strategy: s.as_ref(),
                cluster: cluster_ref,
                leader: LEADER,
            })
        })
        .collect();
    let evaluations = sweep_evaluations(&jobs);
    for (row, mix) in the_mixes.iter().enumerate() {
        let values: Vec<f64> = evaluations[row * strategies.len()..(row + 1) * strategies.len()]
            .iter()
            .map(|e| e.throughput(100.0))
            .collect();
        table.push_row(mix.name(), values);
    }
    table
}

// ---------------------------------------------------------------------------
// Fig. 8: latency with a varying number of worker nodes
// ---------------------------------------------------------------------------

/// Fig. 8: average inference latency (ms, mean over the four workloads) of
/// each strategy when the cluster is restricted to 2–5 nodes.
pub fn fig8_node_scaling() -> ExperimentTable {
    let full = presets::paper_cluster();
    let strategies = paper_strategies();
    let mut table = ExperimentTable::new(
        "Fig. 8: average latency vs number of edge nodes",
        "ms",
        strategy_names(),
    );
    // One job per (cluster subset, strategy, model) — the cluster
    // fingerprint differs per subset, so the shared cache keeps every
    // cell's plans apart.
    let clusters: Vec<Cluster> = (2..=full.len())
        .map(|nodes| full.take(nodes).expect("subset sizes are valid"))
        .collect();
    // Latency only — Summary detail.
    let scenarios: Vec<Scenario> = WorkloadModel::ALL
        .iter()
        .map(|m| Scenario::single(m.graph(1)).with_trace_detail(TraceDetail::Summary))
        .collect();
    let (strategies_ref, scenarios_ref) = (&strategies, &scenarios);
    let jobs: Vec<SweepJob<'_>> = clusters
        .iter()
        .flat_map(|cluster| {
            strategies_ref.iter().flat_map(move |s| {
                scenarios_ref.iter().map(move |scenario| SweepJob {
                    scenario,
                    strategy: s.as_ref(),
                    cluster,
                    leader: LEADER,
                })
            })
        })
        .collect();
    let evaluations = sweep_evaluations(&jobs);
    let mut slots = evaluations.chunks(WorkloadModel::ALL.len());
    for cluster in &clusters {
        let values: Vec<f64> = strategies
            .iter()
            .map(|_| {
                let per_model = slots.next().expect("one chunk per (cluster, strategy)");
                per_model.iter().map(|e| e.latency()).sum::<f64>() / WorkloadModel::ALL.len() as f64
                    * 1e3
            })
            .collect();
        table.push_row(format!("{} nodes", cluster.len()), values);
    }
    table
}

/// A `BENCH_*.json` document: the benchmark name, its workload description,
/// then `rest` in order.
fn bench_document(benchmark: &str, workload: &str, rest: Vec<(&'static str, Json)>) -> Json {
    let mut fields = vec![
        ("benchmark", benchmark.to_json()),
        ("workload", workload.to_json()),
    ];
    fields.extend(rest);
    Json::Obj(fields)
}

// ---------------------------------------------------------------------------
// Poisson stress: latency tails under open-loop arrivals
// ---------------------------------------------------------------------------

/// Poisson stress experiment: for each arrival rate (requests/second) and
/// each strategy, serves an open-loop Poisson stream of `count` requests
/// drawn uniformly from the four target DNNs — SLA classes cycling
/// premium/standard/best-effort — through the **serving runtime** in its
/// degenerate mode (FIFO, batch = 1, unbounded window, static cluster),
/// which is bit-identical to the old static pipeline. Latency percentiles
/// come from the sim layer's [`ServingMetrics`](hidp_sim::ServingMetrics)
/// reporter: overall p50/p95/p99 plus a per-SLA-class breakdown, all in
/// milliseconds. The strategy × rate grid fans out on [`ParallelSweep`]
/// against one shared sharded [`PlanCache`].
pub fn poisson_stress(rates: &[f64], count: usize, seed: u64) -> ExperimentTable {
    let cluster = presets::paper_cluster();
    let strategies = paper_strategies();
    let mut columns = vec![
        "rate_per_s".to_string(),
        "p50_ms".to_string(),
        "p95_ms".to_string(),
        "p99_ms".to_string(),
    ];
    for class in SlaClass::ALL {
        for tail in ["p50", "p95", "p99"] {
            columns.push(format!("{}_{}_ms", class.name(), tail));
        }
    }
    let mut table = ExperimentTable::new(
        "Poisson stress: latency percentiles vs arrival rate (per SLA class)",
        "ms",
        columns,
    );
    // Percentile latencies only — Summary detail; FIFO/batch=1/unbounded is
    // the degenerate serving mode, so these numbers match the static
    // pipeline's exactly.
    let scenarios: Vec<ServingScenario> = rates
        .iter()
        .map(|&rate| {
            InferenceRequest::to_serving_scenario(&poisson_stream_classed(
                &WorkloadModel::ALL,
                rate,
                count,
                seed,
                &SlaClass::ALL,
            ))
            .with_trace_detail(TraceDetail::Summary)
        })
        .collect();
    let (cluster_ref, scenarios_ref) = (&cluster, &scenarios);
    let jobs: Vec<ServingSweepJob<'_>> = strategies
        .iter()
        .flat_map(|s| {
            scenarios_ref.iter().map(move |scenario| ServingSweepJob {
                scenario,
                strategy: s.as_ref(),
                cluster: cluster_ref,
                leader: LEADER,
            })
        })
        .collect();
    let cache = PlanCache::new();
    let evaluations: Vec<ServingEvaluation> = sweep()
        .run_serving(&jobs, &cache)
        .into_iter()
        .map(|r| r.expect("poisson evaluation succeeds"))
        .collect();
    for (row, strategy) in strategies.iter().enumerate() {
        for (col, &rate) in rates.iter().enumerate() {
            let serving = &evaluations[row * rates.len() + col].serving;
            let mut values = vec![
                rate,
                serving.latency.p50 * 1e3,
                serving.latency.p95 * 1e3,
                serving.latency.p99 * 1e3,
            ];
            for class in SlaClass::ALL {
                let tail = serving.class(class).expect("all classes in the cycle");
                values.extend([
                    tail.latency.p50 * 1e3,
                    tail.latency.p95 * 1e3,
                    tail.latency.p99 * 1e3,
                ]);
            }
            table.push_row(format!("{} @ {rate}/s", strategy.name()), values);
        }
    }
    table
}

// ---------------------------------------------------------------------------
// Serving runtime: admission policies × failure patterns × dynamic batching
// ---------------------------------------------------------------------------

/// The admission-policy variants the serving experiment compares:
/// `(name, policy, max_batch)`. Three unbatched policies plus FIFO with the
/// dynamic batcher coalescing up to 8 same-model requests per plan.
pub fn serving_policies() -> Vec<(&'static str, AdmissionPolicy, usize)> {
    vec![
        ("fifo", AdmissionPolicy::Fifo, 1),
        ("priority", AdmissionPolicy::Priority, 1),
        ("edf", AdmissionPolicy::EarliestDeadline, 1),
        ("fifo-batch8", AdmissionPolicy::Fifo, 8),
    ]
}

/// The failure patterns the serving experiment replays (paper Eq. 4): a
/// static cluster, one node blipping out and back, and a rolling pair of
/// outages. The leader (node 1) never fails — requests keep arriving there.
pub fn serving_failure_patterns() -> Vec<(&'static str, ClusterTimeline)> {
    vec![
        ("none", ClusterTimeline::new()),
        (
            "blip",
            ClusterTimeline::new()
                .node_down(2.0, NodeIndex(4))
                .expect("static event times are valid")
                .node_up(6.0, NodeIndex(4))
                .expect("static event times are valid"),
        ),
        (
            "rolling",
            ClusterTimeline::new()
                .node_down(1.0, NodeIndex(2))
                .expect("static event times are valid")
                .node_up(4.0, NodeIndex(2))
                .expect("static event times are valid")
                .node_down(5.0, NodeIndex(4))
                .expect("static event times are valid")
                .node_up(8.0, NodeIndex(4))
                .expect("static event times are valid"),
        ),
    ]
}

/// The three-model Mix-5 cycle of Fig. 7 that the serving experiment's
/// bursts cycle through.
pub const MIX5_MODELS: [WorkloadModel; 3] = [
    WorkloadModel::EfficientNetB0,
    WorkloadModel::InceptionV3,
    WorkloadModel::ResNet152,
];

/// Builds the serving experiment's scenario grid: for every policy ×
/// failure-pattern cell, the same bursty workload (`count` requests in
/// bursts of 8 — one model per burst cycling through [`MIX5_MODELS`],
/// SLA classes cycling premium/standard/best-effort) served with an
/// admission window of 2 in-flight batches. Returns
/// `(policy_name, failure_name, scenario)` triples in grid order.
pub fn serving_scenarios(count: usize) -> Vec<(String, String, ServingScenario)> {
    let requests =
        InferenceRequest::to_serving(&bursty_stream(&MIX5_MODELS, 8, 0.4, count, &SlaClass::ALL));
    serving_policies()
        .into_iter()
        .flat_map(|(policy_name, policy, max_batch)| {
            let requests = requests.clone();
            serving_failure_patterns()
                .into_iter()
                .map(move |(failure_name, timeline)| {
                    let scenario = ServingScenario::new(requests.clone())
                        .with_label(format!("{policy_name}/{failure_name}"))
                        .with_policy(policy)
                        .with_max_batch(max_batch)
                        .with_max_inflight(Some(2))
                        .with_timeline(timeline)
                        .with_trace_detail(TraceDetail::Summary);
                    (policy_name.to_string(), failure_name.to_string(), scenario)
                })
        })
        .collect()
}

/// Runs a serving-scenario grid through [`ParallelSweep::run_serving`] at
/// the given worker-thread count (0 = the host's available parallelism)
/// against one shared sharded [`PlanCache`], in grid order. Results are
/// bit-identical at every thread count (the `exp_serving` binary and CI
/// assert this at 1/2/4 threads).
pub fn serving_evaluations(
    scenarios: &[(String, String, ServingScenario)],
    threads: usize,
) -> Vec<ServingEvaluation> {
    let cluster = presets::paper_cluster();
    let strategy = HidpStrategy::new();
    let jobs: Vec<ServingSweepJob<'_>> = scenarios
        .iter()
        .map(|(_, _, scenario)| ServingSweepJob {
            scenario,
            strategy: &strategy,
            cluster: &cluster,
            leader: LEADER,
        })
        .collect();
    let cache = PlanCache::new();
    let sweep = if threads == 0 {
        ParallelSweep::with_available_parallelism()
    } else {
        ParallelSweep::new(threads)
    };
    sweep
        .run_serving(&jobs, &cache)
        .into_iter()
        .map(|r| r.expect("serving evaluation succeeds"))
        .collect()
}

record! {
    /// One cell of the serving experiment grid.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ServingGridPoint {
        /// Admission-policy variant name (see [`serving_policies`]).
        pub policy: String,
        /// Batching limit of the variant.
        pub max_batch: usize,
        /// Failure-pattern name (see [`serving_failure_patterns`]).
        pub failure: String,
        /// Requests served.
        pub requests: usize,
        /// Admitted batches (`< requests` once the batcher coalesces).
        pub batches: usize,
        /// Timeline events applied during the run.
        pub epochs: usize,
        /// Completion time of the whole served stream, simulated seconds.
        pub makespan_s: f64,
        /// Served throughput: requests over the serving makespan.
        pub requests_per_second: f64,
        /// Median end-to-end latency (queueing included), ms.
        pub p50_ms: f64,
        /// 99th-percentile end-to-end latency, ms.
        pub p99_ms: f64,
        /// Mean queueing delay (admission − arrival), ms.
        pub mean_queueing_ms: f64,
        /// Fraction of requests that missed their class deadline.
        pub sla_miss_rate: f64,
        /// 99th-percentile latency of the premium class, ms.
        pub premium_p99_ms: f64,
    }
}

/// Distills grid evaluations into [`ServingGridPoint`]s (same order).
pub fn serving_points(
    scenarios: &[(String, String, ServingScenario)],
    evaluations: &[ServingEvaluation],
) -> Vec<ServingGridPoint> {
    scenarios
        .iter()
        .zip(evaluations)
        .map(|((policy, failure, scenario), evaluation)| {
            let serving = &evaluation.serving;
            let premium = serving
                .class(SlaClass::Premium)
                .expect("the workload cycles all classes");
            ServingGridPoint {
                policy: policy.clone(),
                max_batch: scenario.config().max_batch,
                failure: failure.clone(),
                requests: serving.requests,
                batches: evaluation.admissions.len(),
                epochs: evaluation.epochs_applied,
                makespan_s: evaluation.evaluation.makespan,
                requests_per_second: evaluation.requests_per_second(),
                p50_ms: serving.latency.p50 * 1e3,
                p99_ms: serving.latency.p99 * 1e3,
                mean_queueing_ms: serving.mean_queueing_delay * 1e3,
                sla_miss_rate: serving.sla_miss_rate(),
                premium_p99_ms: premium.latency.p99 * 1e3,
            }
        })
        .collect()
}

/// Renders serving grid points as an [`ExperimentTable`].
pub fn serving_table(points: &[ServingGridPoint]) -> ExperimentTable {
    ExperimentTable::from_points(
        "Serving runtime: admission policy x failure pattern (bursty Mix-5 traffic)",
        "req/s / ms / rate",
        points,
        |p| format!("{} / {}", p.policy, p.failure),
        "batches epochs makespan_s requests_per_second p50_ms p99_ms mean_queueing_ms \
         sla_miss_rate premium_p99_ms",
    )
}

record! {
    /// One point of the dynamic-batching comparison: the same workload served
    /// with a different batching limit.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ServingBatchingPoint {
        /// The batcher's coalescing limit (1 = no batching).
        pub max_batch: usize,
        /// Requests served.
        pub requests: usize,
        /// Admitted batches.
        pub batches: usize,
        /// Served throughput: requests over the serving makespan.
        pub requests_per_second: f64,
        /// 99th-percentile end-to-end latency, ms.
        pub p99_ms: f64,
        /// Throughput relative to the `max_batch == 1` point.
        pub speedup_vs_unbatched: f64,
    }
}

/// Serves one burst-train workload with batching limits 1, 4 and 8 under a
/// serial dispatch window — the shared core of the two batching regimes.
fn batching_sweep(requests: &[hidp_core::ServingRequest]) -> Vec<ServingBatchingPoint> {
    let cluster = presets::paper_cluster();
    let strategy = HidpStrategy::new();
    let cache = PlanCache::new();
    let mut scratch = hidp_core::ServingScratch::new();
    let mut points = Vec::new();
    let mut unbatched_rps = f64::NAN;
    for max_batch in [1usize, 4, 8] {
        let result = ServingScenario::new(requests.to_vec())
            .with_label(format!("batching[k={max_batch}]"))
            .with_max_batch(max_batch)
            .with_max_inflight(Some(1))
            .with_trace_detail(TraceDetail::Summary)
            .run_with_cache_in(&strategy, &cluster, LEADER, &cache, &mut scratch)
            .expect("batching evaluation succeeds");
        let rps = result.requests_per_second();
        if max_batch == 1 {
            unbatched_rps = rps;
        }
        points.push(ServingBatchingPoint {
            max_batch,
            requests: result.serving.requests,
            batches: result.admissions.len(),
            requests_per_second: rps,
            p99_ms: result.serving.latency.p99 * 1e3,
            speedup_vs_unbatched: rps / unbatched_rps,
        });
    }
    points
}

/// The **transfer-bound** dynamic-batching workload point: a saturating
/// Inception-V3 burst train (bursts of 8, 0.3 s apart — Inception's HiDP
/// plan crosses nodes eight times per inference, so every unbatched request
/// pays eight 2 ms message latencies) under a **serial dispatch window**
/// (`max_inflight = 1`), served with batching limits 1, 4 and 8. Coalescing
/// k requests into one batched plan pays the per-message latency once per
/// batch instead of once per request, so throughput rises and p99 falls
/// with k.
pub fn serving_batching_points(count: usize) -> Vec<ServingBatchingPoint> {
    batching_sweep(&InferenceRequest::to_serving(&bursty_stream(
        &[WorkloadModel::InceptionV3],
        8,
        0.3,
        count,
        &SlaClass::ALL,
    )))
}

/// The **compute-bound** dynamic-batching workload point: the same burst
/// train shape over ResNet-152, whose HiDP plan is dominated by on-device
/// FLOPs rather than cross-node messages. Here batching wins through the
/// sublinear batch cost model (`Processor::batch_efficiency`): a batch of k
/// amortises per-launch overhead, so its compute time grows sublinearly in
/// k and throughput rises even with nothing to amortise on the network.
/// The magnitude is capped by the least batch-efficient processor on the
/// critical path — HiDP's split gives the CPU shares real work, and CPU
/// batch efficiency is only ~1.1 at k = 8 (GPUs reach ~1.8) — so expect a
/// solid ~1.10x rather than the GPU-only bound.
pub fn serving_batching_compute_points(count: usize) -> Vec<ServingBatchingPoint> {
    batching_sweep(&InferenceRequest::to_serving(&bursty_stream(
        &[WorkloadModel::ResNet152],
        8,
        0.3,
        count,
        &SlaClass::ALL,
    )))
}

/// Renders batching points as an [`ExperimentTable`] (the transfer- and
/// compute-bound regimes share the format and differ in `title`).
pub fn serving_batching_table(points: &[ServingBatchingPoint], title: &str) -> ExperimentTable {
    ExperimentTable::from_points(
        title,
        "req/s / ms / x",
        points,
        |p| format!("k={}", p.max_batch),
        "batches requests_per_second p99_ms speedup_vs_unbatched",
    )
}

/// The `BENCH_serving.json` document: the grid, then the transfer- and
/// compute-bound batching comparisons.
pub fn serving_document(
    points: &[ServingGridPoint],
    batching: &[ServingBatchingPoint],
    batching_compute: &[ServingBatchingPoint],
    count: usize,
) -> Json {
    bench_document(
        "serving",
        &format!("bursty Mix-5 traffic: {count} requests in bursts of 8 (one model per burst, 0.4 s apart), SLA classes cycling premium/standard/best_effort, HiDP planning, admission window 2"),
        vec![
            ("points", points.to_json()),
            (
                "batching_workload",
                "Inception-V3 burst train (bursts of 8, 0.3 s apart), serial dispatch window (max_inflight 1), FIFO".to_json(),
            ),
            ("batching", batching.to_json()),
            (
                "batching_compute_workload",
                "ResNet-152 burst train (bursts of 8, 0.3 s apart), serial dispatch window (max_inflight 1), FIFO — compute-bound, wins via the sublinear batch cost model".to_json(),
            ),
            ("batching_compute", batching_compute.to_json()),
        ],
    )
}

// ---------------------------------------------------------------------------
// Soak: the streaming serving loop at 10^6-request scale, bounded memory
// ---------------------------------------------------------------------------

record! {
    /// One soak pass: the streaming serving loop
    /// ([`ServingScenario::run_streaming_with_cache_in`]) over a diurnal trace,
    /// audited for steady-state allocations.
    #[derive(Debug, Clone, PartialEq)]
    pub struct SoakPoint {
        /// Admission policy + batching config of the pass.
        pub config: String,
        /// Requests served.
        pub requests: usize,
        /// Admitted batches.
        pub batches: usize,
        /// Simulated makespan of the served trace, seconds.
        pub sim_makespan_s: f64,
        /// Simulated served throughput: completed requests over the makespan.
        pub sim_requests_per_second: f64,
        /// Median end-to-end latency, ms (histogram estimate, within 1%).
        pub p50_ms: f64,
        /// 99th-percentile end-to-end latency, ms (histogram estimate, within 1%).
        pub p99_ms: f64,
        /// Mean queueing delay, ms (exact).
        pub mean_queueing_ms: f64,
        /// Fraction of requests missing their SLA deadline.
        pub sla_miss_rate: f64,
        /// Heap allocations during the audited steady-state pass (`None` when
        /// no counter was supplied). The bounded-memory contract is 0: after
        /// the warm pass, the loop runs entirely on reused buffers and `Copy`
        /// accumulators, so memory cannot grow with the request count.
        pub steady_state_allocs: Option<u64>,
    }
}

/// The soak trace: a diurnal (day/night sinusoidal-rate) Poisson stream over
/// the Mix-5 model cycle with SLA classes, the workload shape
/// `hidp_workloads::diurnal_stream` exists for. Deterministic.
pub fn soak_trace(count: usize) -> Vec<hidp_core::ServingRequest> {
    InferenceRequest::to_serving(&hidp_workloads::diurnal_stream(
        &[
            WorkloadModel::EfficientNetB0,
            WorkloadModel::InceptionV3,
            WorkloadModel::ResNet152,
        ],
        // The cluster serves this mix at ~18 req/s (batch 8, window 4), so
        // a trough of 8 req/s and a peak of 24 req/s swing the system
        // through under- and over-capacity each "day": the queue builds
        // real depth at the peak and drains at the trough instead of
        // diverging into pure backlog.
        8.0,
        24.0,
        2000.0,
        count,
        42,
        &SlaClass::ALL,
    ))
}

/// Runs the soak: for each config, one warm pass (cold planning + buffer
/// sizing), then one timed, allocation-audited steady-state pass over the
/// full trace. The two passes must agree bit for bit — the audited pass is
/// not a different code path. Each point comes with the wall-clock seconds
/// of its steady-state pass, which the throughput floor reads and the
/// document leaves out.
pub fn soak_points(count: usize, counter: Option<&dyn Fn() -> u64>) -> Vec<(SoakPoint, f64)> {
    let cluster = presets::paper_cluster();
    let strategy = HidpStrategy::new();
    let requests = soak_trace(count);
    let configs = [
        ("fifo-batch8", AdmissionPolicy::Fifo),
        ("edf-batch8", AdmissionPolicy::EarliestDeadline),
    ];
    let mut points = Vec::new();
    for (label, policy) in configs {
        let scenario = ServingScenario::new(requests.clone())
            .with_label(format!("soak-{label}"))
            .with_policy(policy)
            .with_max_batch(8)
            .with_max_inflight(Some(4));
        let cache = PlanCache::new();
        let mut scratch = hidp_core::ServingScratch::new();
        let warm = scenario
            .run_streaming_with_cache_in(&strategy, &cluster, LEADER, &cache, &mut scratch)
            .expect("soak warm pass succeeds");

        let before = counter.map(|f| f());
        let start = Instant::now();
        let summary = scenario
            .run_streaming_with_cache_in(&strategy, &cluster, LEADER, &cache, &mut scratch)
            .expect("soak steady-state pass succeeds");
        let wall_seconds = start.elapsed().as_secs_f64();
        let steady_state_allocs = counter.map(|f| f() - before.unwrap());

        assert_eq!(summary.makespan, warm.makespan, "passes must agree");
        assert_eq!(summary.batches, warm.batches);
        let point = SoakPoint {
            config: label.to_string(),
            requests: summary.requests,
            batches: summary.batches,
            sim_makespan_s: summary.makespan,
            sim_requests_per_second: summary.requests_per_second(),
            p50_ms: summary.latency.p50 * 1e3,
            p99_ms: summary.latency.p99 * 1e3,
            mean_queueing_ms: summary.mean_queueing_delay * 1e3,
            sla_miss_rate: summary.sla_miss_rate(),
            steady_state_allocs,
        };
        points.push((point, wall_seconds));
    }
    points
}

/// Renders soak points as an [`ExperimentTable`].
pub fn soak_table(points: &[SoakPoint]) -> ExperimentTable {
    ExperimentTable::from_points(
        "Soak: streaming serving over a diurnal trace (histogram tails, zero-alloc steady state)",
        "req/s / ms",
        points,
        |p| p.config.clone(),
        "requests batches p50_ms p99_ms mean_queueing_ms steady_state_allocs",
    )
}

/// The `BENCH_soak.json` document.
pub fn soak_document(points: &[SoakPoint]) -> Json {
    bench_document(
        "soak",
        "diurnal Mix-5 trace (trough 8 req/s, peak 24 req/s around the ~18 req/s service capacity, 2000 s period, seed 42), SLA classes cycling, HiDP planning, max_batch 8, admission window 4, streaming mode (no per-request records, log-linear latency histograms)",
        vec![("points", points.to_json())],
    )
}

// ---------------------------------------------------------------------------
// Fleet: multi-cluster routing on one clock, at soak scale
// ---------------------------------------------------------------------------

record! {
    /// One fleet pass: [`FleetScenario::run_streaming_in`] over a skewed
    /// regional diurnal trace under one routing policy, (at one thread)
    /// audited for steady-state allocations.
    #[derive(Debug, Clone, PartialEq)]
    pub struct FleetPoint {
        /// Routing policy of the pass.
        pub routing: String,
        /// Requests served.
        pub requests: usize,
        /// Clusters in the fleet.
        pub clusters: usize,
        /// Simulated served throughput: completed requests over the fleet
        /// makespan.
        pub sim_requests_per_second: f64,
        /// Median end-to-end latency, ms (histogram-bin resolution).
        pub p50_ms: f64,
        /// 99th-percentile end-to-end latency, ms (histogram-bin resolution).
        pub p99_ms: f64,
        /// Mean queueing delay of completed requests, ms (exact).
        pub mean_queueing_ms: f64,
        /// WAN round trips paid per completed request, ms (exact).
        pub mean_wan_ms: f64,
        /// Fraction of requests missing their SLA deadline.
        pub sla_miss_rate: f64,
        /// Requests on the most-loaded cluster (routing balance signal).
        pub busiest_cluster_requests: usize,
        /// Requests on the least-loaded cluster.
        pub idlest_cluster_requests: usize,
        /// Heap allocations during the audited steady-state pass (`None` when
        /// no counter was supplied). The contract is 0 at one thread: every
        /// cluster's serving loop runs on reused scratch, and per-request fleet
        /// state is `Copy`.
        pub steady_state_allocs: Option<u64>,
    }
}

/// The four routing policies the fleet experiment compares, dumb to smart.
pub fn fleet_routing_policies() -> [RoutingPolicy; 4] {
    [
        RoutingPolicy::Random { seed: 7 },
        RoutingPolicy::StaticHash,
        RoutingPolicy::LeastLoaded,
        RoutingPolicy::Locality,
    ]
}

/// The fleet trace: a skewed regional diurnal stream — every region runs
/// the soak's day/night Poisson shape, phase-shifted per region
/// ("follow the sun") and weighted so the first regions carry several times
/// the load of the last — over the Mix-5 model cycle with SLA classes.
/// `rate_scale` multiplies the shared base/peak rates, so callers can pin
/// the offered load to the fleet's serving capacity independently of the
/// region count. Deterministic.
pub fn fleet_trace(count: usize, regions: usize, rate_scale: f64) -> Vec<FleetRequest> {
    // Weights 4, 2, 1, 1, … : the hot region dominates, which is exactly
    // what static spreading cannot exploit and load/locality awareness can.
    let weights: Vec<f64> = (0..regions)
        .map(|r| match r {
            0 => 4.0,
            1 => 2.0,
            _ => 1.0,
        })
        .collect();
    hidp_workloads::regional_diurnal_stream(
        &[
            WorkloadModel::EfficientNetB0,
            WorkloadModel::InceptionV3,
            WorkloadModel::ResNet152,
        ],
        &weights,
        2.0 * rate_scale,
        8.0 * rate_scale,
        240.0,
        count,
        42,
        &SlaClass::ALL,
    )
}

/// Wraps the trace and serving config shared by every routing policy of the
/// fleet comparison: EDF admission, batch 8, window 4 per cluster — the
/// soak's per-cluster serving shape.
pub fn fleet_scenario(requests: Vec<FleetRequest>, routing: RoutingPolicy) -> FleetScenario {
    FleetScenario::new(requests)
        .with_label(format!("fleet-{}", routing.name()))
        .with_routing(routing)
        .with_policy(AdmissionPolicy::EarliestDeadline)
        .with_max_batch(8)
        .with_max_inflight(Some(4))
}

/// Runs the routing comparison: the same trace through every policy of
/// [`fleet_routing_policies`] on a generated fleet — equal offered
/// throughput, only the routing differs. One warm pass per policy (cold
/// planning + scratch sizing), then one allocation-audited steady-state
/// pass at one thread. Returns the points in policy order.
pub fn fleet_routing_points(
    count: usize,
    clusters: usize,
    regions: usize,
    rate_scale: f64,
    counter: Option<&dyn Fn() -> u64>,
) -> Vec<FleetPoint> {
    let fleet = presets::generated_fleet(clusters, regions).expect("fleet preset is valid");
    let strategy = HidpStrategy::new();
    let requests = fleet_trace(count, regions, rate_scale);
    let sweep = ParallelSweep::new(1);
    let mut points = Vec::new();
    for routing in fleet_routing_policies() {
        let scenario = fleet_scenario(requests.clone(), routing);
        let mut scratch = FleetScratch::new();
        let warm = scenario
            .run_streaming_in(&strategy, &fleet, LEADER, &sweep, &mut scratch)
            .expect("fleet warm pass succeeds");

        let before = counter.map(|f| f());
        let summary = scenario
            .run_streaming_in(&strategy, &fleet, LEADER, &sweep, &mut scratch)
            .expect("fleet steady-state pass succeeds");
        let steady_state_allocs = counter.map(|f| f() - before.unwrap());

        assert_eq!(summary.makespan, warm.makespan, "passes must agree");
        assert_eq!(summary.batches, warm.batches);
        points.push(fleet_point(routing, &summary, steady_state_allocs));
    }
    points
}

fn fleet_point(
    routing: RoutingPolicy,
    summary: &FleetSummary,
    steady_state_allocs: Option<u64>,
) -> FleetPoint {
    FleetPoint {
        routing: routing.name().to_string(),
        requests: summary.requests,
        clusters: summary.clusters,
        sim_requests_per_second: summary.requests_per_second(),
        p50_ms: summary.latency.p50 * 1e3,
        p99_ms: summary.latency.p99 * 1e3,
        mean_queueing_ms: summary.mean_queueing_delay * 1e3,
        mean_wan_ms: summary.mean_wan_round_trip * 1e3,
        sla_miss_rate: summary.sla_miss_rate(),
        busiest_cluster_requests: summary.busiest_cluster_requests,
        idlest_cluster_requests: summary.idlest_cluster_requests,
        steady_state_allocs,
    }
}

/// The fleet soak: one least-loaded pass over `count` requests across a
/// `clusters`-cluster fleet, warm pass first, then the timed steady-state
/// pass at `threads` workers. Returns the point and the wall-clock seconds
/// of the timed pass, which the soak floor reads and the document leaves
/// out.
pub fn fleet_soak_point(
    count: usize,
    clusters: usize,
    regions: usize,
    rate_scale: f64,
    threads: usize,
) -> (FleetPoint, f64) {
    let fleet = presets::generated_fleet(clusters, regions).expect("fleet preset is valid");
    let strategy = HidpStrategy::new();
    let routing = RoutingPolicy::LeastLoaded;
    let scenario = fleet_scenario(fleet_trace(count, regions, rate_scale), routing);
    let sweep = ParallelSweep::new(threads);
    let mut scratch = FleetScratch::new();
    scenario
        .run_streaming_in(&strategy, &fleet, LEADER, &sweep, &mut scratch)
        .expect("fleet soak warm pass succeeds");
    let start = Instant::now();
    let summary = scenario
        .run_streaming_in(&strategy, &fleet, LEADER, &sweep, &mut scratch)
        .expect("fleet soak pass succeeds");
    let wall_seconds = start.elapsed().as_secs_f64();
    (fleet_point(routing, &summary, None), wall_seconds)
}

/// Renders fleet points as an [`ExperimentTable`].
pub fn fleet_table(points: &[FleetPoint]) -> ExperimentTable {
    ExperimentTable::from_points(
        "Fleet: routing policies over a skewed regional diurnal trace (equal offered load)",
        "req/s / ms",
        points,
        |p| p.routing.clone(),
        "requests clusters p50_ms p99_ms mean_queueing_ms mean_wan_ms sla_miss_rate \
         busiest_cluster_requests steady_state_allocs",
    )
}

/// The `BENCH_fleet.json` document: the routing comparison, then the soak.
pub fn fleet_document(points: &[FleetPoint], soak: &FleetPoint) -> Json {
    bench_document(
        "fleet",
        "skewed regional diurnal trace (region weights 4/2/1/..., phase-shifted sinusoidal rates, seed 42), Mix-5 model cycle, SLA classes cycling, HiDP planning, EDF admission, max_batch 8, window 4 per cluster, 1 s router rounds",
        vec![
            ("routing_points", points.to_json()),
            ("soak", soak.to_json()),
        ],
    )
}

// ---------------------------------------------------------------------------
// Chaos: failure-domain robustness under a seeded fault suite
// ---------------------------------------------------------------------------

record! {
    /// One chaos pass: the fleet under a seeded fault suite with one
    /// recovery configuration, (at one thread) audited for steady-state
    /// allocations.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ChaosPoint {
        /// Recovery configuration of the pass (see [`chaos_points`]).
        pub config: String,
        /// Requests offered to the fleet.
        pub requests: usize,
        /// Offered/completed/dropped accounting including recovery traffic.
        pub robustness: RobustnessStats,
        /// In-deadline completions over offered requests — the robustness
        /// headline. A shed, aborted, lost or merely late request all count
        /// against it equally.
        pub sla_goodput: f64,
        /// 99th-percentile end-to-end latency of completed requests, ms.
        pub p99_ms: f64,
        /// Completed requests that missed their class deadline, over
        /// offered requests.
        pub sla_miss_rate: f64,
        /// Fleet makespan, simulated seconds.
        pub makespan_s: f64,
        /// Virtual time of the first kill that produced a re-routed retry
        /// (`None` when nothing was retried — fault-free and no-recovery runs).
        pub time_to_first_retry_s: Option<f64>,
        /// Latency tail over completions that needed at least one retry — the
        /// per-policy recovery cost; `None` when no retried request completed.
        pub recovery_latency: Option<LatencySummary>,
        /// Heap allocations during the audited steady-state pass (`None` when
        /// no counter was supplied). The contract is 0 at one thread: the
        /// recovery machinery — pending FIFO, retry heap, re-routing — runs
        /// entirely on reused scratch once warmed.
        pub steady_state_allocs: Option<u64>,
    }
}

/// The fault suite the chaos experiment injects: one seeded
/// [`FaultPlan`] per cluster over the trace's span (flaps everywhere, a
/// rack outage on cluster 0, a straggler window on cluster 1, fleet-wide
/// WAN degradation from cluster 0's plan). Deterministic in `seed`.
pub fn chaos_fault_suite(node_counts: &[usize], horizon: f64, seed: u64) -> Vec<FaultPlan> {
    standard_fault_suite(node_counts, seed, horizon, LEADER)
        .expect("the generated fleet's clusters all have faultable nodes")
}

/// Wraps the fleet scenario every chaos configuration shares: the fleet
/// comparison's serving shape ([`fleet_scenario`]) with kill semantics
/// armed and the fault suite installed — timelines and straggler windows
/// per cluster, WAN degradation fleet-wide. Only `recovery` varies between
/// configurations.
pub fn chaos_scenario(
    requests: Vec<FleetRequest>,
    plans: &[FaultPlan],
    label: &str,
    recovery: RecoveryPolicy,
) -> FleetScenario {
    fleet_scenario(requests, RoutingPolicy::LeastLoaded)
        .with_label(format!("chaos-{label}"))
        .with_failure_mode(FailureMode::Kill)
        .with_recovery(recovery)
        .with_timelines(plans.iter().map(|p| p.timeline.clone()).collect())
        .with_slowdowns(plans.iter().map(|p| p.slowdowns.clone()).collect())
        .with_wan_degradations(plans[0].wan.clone())
}

/// The recovery configurations the chaos experiment compares, in order:
///
/// * `fault-free` — the same trace with no faults injected and no failure
///   handling armed (the goodput yardstick);
/// * `no-recovery` — the fault suite with kills permanent (the degradation
///   baseline the gates require to measurably lose work);
/// * `retry-failover` — retry with backoff through the router, which
///   re-routes each killed request away from the cluster that killed it,
///   plus deadline abort (the standard recovery the gates certify);
/// * `retry-shed` — `retry-failover` plus proactive shedding of provably
///   late queued requests.
pub fn chaos_configs() -> Vec<(&'static str, Option<RecoveryPolicy>)> {
    vec![
        ("fault-free", None),
        ("no-recovery", Some(RecoveryPolicy::default())),
        ("retry-failover", Some(RecoveryPolicy::standard())),
        (
            "retry-shed",
            Some(RecoveryPolicy {
                shed: true,
                ..RecoveryPolicy::standard()
            }),
        ),
    ]
}

/// Runs the chaos experiment: the fleet-comparison trace through every
/// configuration of [`chaos_configs`] on a generated fleet under one seeded
/// fault suite — equal offered load, only the failure handling differs. One
/// warm pass per configuration (cold planning + scratch sizing), then one
/// allocation-audited steady-state pass at one thread. Returns the points
/// in configuration order.
pub fn chaos_points(
    count: usize,
    clusters: usize,
    regions: usize,
    rate_scale: f64,
    seed: u64,
    counter: Option<&dyn Fn() -> u64>,
) -> Vec<ChaosPoint> {
    let fleet = presets::generated_fleet(clusters, regions).expect("fleet preset is valid");
    let strategy = HidpStrategy::new();
    let requests = fleet_trace(count, regions, rate_scale);
    // Faults land inside the arrival span, so every injected failure can
    // actually intersect live traffic.
    let horizon = requests
        .iter()
        .map(|r| r.request.arrival)
        .fold(0.0, f64::max)
        .max(1.0);
    let node_counts: Vec<usize> = fleet.clusters().iter().map(|c| c.len()).collect();
    let plans = chaos_fault_suite(&node_counts, horizon, seed);
    let sweep = ParallelSweep::new(1);
    let mut points = Vec::new();
    for (label, recovery) in chaos_configs() {
        let scenario = match recovery {
            None => fleet_scenario(requests.clone(), RoutingPolicy::LeastLoaded)
                .with_label("chaos-fault-free".to_string()),
            Some(recovery) => chaos_scenario(requests.clone(), &plans, label, recovery),
        };
        let mut scratch = FleetScratch::new();
        let warm = scenario
            .run_streaming_in(&strategy, &fleet, LEADER, &sweep, &mut scratch)
            .expect("chaos warm pass succeeds");

        let before = counter.map(|f| f());
        let summary = scenario
            .run_streaming_in(&strategy, &fleet, LEADER, &sweep, &mut scratch)
            .expect("chaos steady-state pass succeeds");
        let steady_state_allocs = counter.map(|f| f() - before.unwrap());

        // Cache traffic differs between the cold and warm pass by design;
        // everything the gates read must agree bit for bit.
        assert_eq!(summary.makespan, warm.makespan, "passes must agree");
        assert_eq!(summary.batches, warm.batches);
        assert_eq!(summary.robustness, warm.robustness);
        assert_eq!(summary.latency, warm.latency);
        points.push(chaos_point(label, &summary, steady_state_allocs));
    }
    points
}

fn chaos_point(
    label: &str,
    summary: &FleetSummary,
    steady_state_allocs: Option<u64>,
) -> ChaosPoint {
    let in_deadline = summary
        .robustness
        .completed
        .saturating_sub(summary.deadline_misses as u64);
    ChaosPoint {
        config: label.to_string(),
        requests: summary.requests,
        robustness: summary.robustness,
        sla_goodput: in_deadline as f64 / summary.robustness.offered as f64,
        p99_ms: summary.latency.p99 * 1e3,
        sla_miss_rate: summary.sla_miss_rate(),
        makespan_s: summary.makespan,
        time_to_first_retry_s: summary
            .time_to_first_retry
            .is_finite()
            .then_some(summary.time_to_first_retry),
        recovery_latency: summary.recovery_latency,
        steady_state_allocs,
    }
}

impl Fields for RobustnessStats {
    fn fields(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("offered", self.offered.to_json()),
            ("completed", self.completed.to_json()),
            ("shed", self.shed.to_json()),
            ("aborted", self.aborted.to_json()),
            ("lost", self.lost.to_json()),
            ("killed", self.killed.to_json()),
            ("retried", self.retried.to_json()),
            ("in_flight_at_horizon", self.in_flight_at_horizon.to_json()),
        ]
    }
}

/// A latency tail in milliseconds, the shape the chaos document nests for
/// recovery latency.
impl Fields for LatencySummary {
    fn fields(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("count", self.count.to_json()),
            ("p50_ms", (self.p50 * 1e3).to_json()),
            ("p95_ms", (self.p95 * 1e3).to_json()),
            ("p99_ms", (self.p99 * 1e3).to_json()),
            ("mean_ms", (self.mean * 1e3).to_json()),
        ]
    }
}

/// Renders chaos points as an [`ExperimentTable`].
pub fn chaos_table(points: &[ChaosPoint]) -> ExperimentTable {
    ExperimentTable::from_points(
        "Chaos: recovery policies under a seeded fault suite (equal offered load)",
        "req / rate / ms",
        points,
        |p| p.config.clone(),
        "requests robustness.completed robustness.killed robustness.retried robustness.lost \
         robustness.shed robustness.aborted sla_goodput p99_ms time_to_first_retry_s \
         recovery_latency.p99_ms steady_state_allocs",
    )
}

/// The `BENCH_chaos.json` document.
pub fn chaos_document(points: &[ChaosPoint], seed: u64) -> Json {
    bench_document(
        "chaos",
        "skewed regional diurnal trace (fleet comparison shape), least-loaded routing, EDF admission, max_batch 8, window 4 per cluster; seeded fault suite: node flaps on every cluster, a correlated rack outage on cluster 0, a straggler window on cluster 1, fleet-wide WAN degradation",
        vec![
            ("fault_seed", seed.to_json()),
            ("points", points.to_json()),
        ],
    )
}

// ---------------------------------------------------------------------------
// Drift: adaptive re-planning under continuous throttling and contention
// ---------------------------------------------------------------------------

/// One drift pass: the serving tier under a seeded continuous drift trace
/// (thermal throttle ramps, background load, network contention) with or
/// without the adaptive estimation/re-planning loop, audited for
/// steady-state allocations.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftPoint {
    /// Drift/adaptive configuration of the pass (see [`drift_configs`]).
    pub config: String,
    /// Requests served.
    pub requests: usize,
    /// Batches admitted.
    pub batches: usize,
    /// Median end-to-end latency, ms (histogram estimate, within 1%).
    pub p50_ms: f64,
    /// 99th-percentile end-to-end latency, ms (histogram estimate, within
    /// 1%) — the latency headline the adaptive-vs-static gate compares.
    pub p99_ms: f64,
    /// Fraction of requests missing their SLA deadline.
    pub sla_miss_rate: f64,
    /// Serving makespan, simulated seconds.
    pub makespan_s: f64,
    /// Dynamic dispatch energy (effective task durations × dynamic power),
    /// joules.
    pub dynamic_energy_j: f64,
    /// Total energy at equal offered load: cluster idle power × makespan
    /// plus the dynamic dispatch energy, joules — the energy headline.
    pub total_energy_j: f64,
    /// Re-plans the hysteresis band triggered (0 for non-adaptive runs;
    /// bounded by [`AdaptiveConfig::max_replans`]).
    pub replans: u32,
    /// Effective-rate observations fed to the estimator.
    pub observations: u64,
    /// Offered/completed accounting (the serving tier drains, so offered
    /// equals completed; emitted uniformly with `BENCH_chaos.json`).
    pub robustness: RobustnessStats,
    /// Heap allocations during the audited steady-state pass (`None` when
    /// no counter was supplied). The contract is 0 with estimation and
    /// drift active: the EWMA bank, the believed cluster and the re-keyed
    /// plans all live on reused scratch once warmed.
    pub steady_state_allocs: Option<u64>,
}

/// The drift trace the experiment injects over the paper cluster: two
/// thermal throttle ramps (long, so a static plan keeps paying them),
/// two background-load bursts and one network-contention window, none on
/// the planning leader. Deterministic in `seed`.
pub fn drift_trace(node_count: usize, horizon: f64, seed: u64) -> DriftModel {
    DriftPlanConfig {
        seed,
        horizon,
        throttles: 2,
        throttle_peak: 4.0,
        background_windows: 2,
        background_factor: 1.6,
        contention_windows: 1,
        contention_factor: 2.0,
    }
    .generate(node_count, LEADER)
    .expect("the paper cluster has driftable nodes")
}

/// The drift configurations the experiment compares, in order:
///
/// * `no-drift` — the trace with no drift and the adaptive loop off (the
///   yardstick);
/// * `no-drift-adaptive` — estimation armed with nothing drifting (the
///   bit-identity gate: observing ratios of 1.0 must change nothing);
/// * `static-drift` — the drift trace with static plans (the degradation
///   baseline the gates require adaptive re-planning to beat);
/// * `adaptive-drift` — the drift trace with the full loop: EWMA rate
///   estimates, hysteresis-bounded re-planning on the believed cluster.
pub fn drift_configs() -> Vec<(&'static str, bool, Option<AdaptiveConfig>)> {
    vec![
        ("no-drift", false, None),
        ("no-drift-adaptive", false, Some(AdaptiveConfig::default())),
        ("static-drift", true, None),
        ("adaptive-drift", true, Some(AdaptiveConfig::default())),
    ]
}

/// Wraps the serving scenario every drift configuration shares: the soak
/// trace's diurnal shape with EDF admission, batching and a bounded
/// admission window. Only the drift model and the adaptive loop vary.
pub fn drift_scenario(
    requests: Vec<hidp_core::ServingRequest>,
    label: &str,
    drift: Option<DriftModel>,
    adaptive: Option<AdaptiveConfig>,
) -> ServingScenario {
    let mut scenario = ServingScenario::new(requests)
        .with_label(format!("drift-{label}"))
        .with_policy(AdmissionPolicy::EarliestDeadline)
        .with_max_batch(8)
        .with_max_inflight(Some(4));
    if let Some(model) = drift {
        scenario = scenario.with_drift(model);
    }
    if let Some(config) = adaptive {
        scenario = scenario.with_adaptive(config);
    }
    scenario
}

/// Runs the drift experiment: the diurnal serving trace through every
/// configuration of [`drift_configs`] on the paper cluster under one seeded
/// drift trace — equal offered load, only the drift exposure and the
/// adaptive loop differ. One warm pass per configuration (cold planning +
/// scratch sizing), then one allocation-audited steady-state pass. Returns
/// the points in configuration order.
pub fn drift_points(count: usize, seed: u64, counter: Option<&dyn Fn() -> u64>) -> Vec<DriftPoint> {
    let cluster = presets::paper_cluster();
    let strategy = HidpStrategy::new();
    let requests = soak_trace(count);
    // Drift lands inside the arrival span, so every ramp and burst can
    // actually intersect live traffic.
    let horizon = requests
        .iter()
        .map(|r| r.arrival)
        .fold(0.0, f64::max)
        .max(1.0);
    let model = drift_trace(cluster.len(), horizon, seed);
    let mut points = Vec::new();
    for (label, with_drift, adaptive) in drift_configs() {
        let scenario = drift_scenario(
            requests.clone(),
            label,
            with_drift.then(|| model.clone()),
            adaptive,
        );
        let cache = PlanCache::new();
        let mut scratch = ServingScratch::new();
        let warm = scenario
            .run_streaming_with_cache_in(&strategy, &cluster, LEADER, &cache, &mut scratch)
            .expect("drift warm pass succeeds");

        let before = counter.map(|f| f());
        let summary = scenario
            .run_streaming_with_cache_in(&strategy, &cluster, LEADER, &cache, &mut scratch)
            .expect("drift steady-state pass succeeds");
        let steady_state_allocs = counter.map(|f| f() - before.unwrap());

        // Cache traffic differs between the cold and warm pass by design;
        // everything the gates read must agree bit for bit.
        assert_eq!(summary.makespan, warm.makespan, "passes must agree");
        assert_eq!(summary.batches, warm.batches);
        assert_eq!(summary.latency, warm.latency);
        assert_eq!(summary.drift, warm.drift);
        points.push(drift_point(label, &cluster, &summary, steady_state_allocs));
    }
    points
}

fn drift_point(
    label: &str,
    cluster: &Cluster,
    summary: &ServingSummary,
    steady_state_allocs: Option<u64>,
) -> DriftPoint {
    DriftPoint {
        config: label.to_string(),
        requests: summary.requests,
        batches: summary.batches,
        p50_ms: summary.latency.p50 * 1e3,
        p99_ms: summary.latency.p99 * 1e3,
        sla_miss_rate: summary.sla_miss_rate(),
        makespan_s: summary.makespan,
        dynamic_energy_j: summary.drift.energy_j,
        total_energy_j: cluster.idle_power_w() * summary.makespan + summary.drift.energy_j,
        replans: summary.drift.replans,
        observations: summary.drift.observations,
        robustness: summary.robustness,
        steady_state_allocs,
    }
}

impl Fields for DriftPoint {
    fn fields(&self) -> Vec<(&'static str, Json)> {
        let drift = vec![
            ("replans", self.replans.to_json()),
            ("observations", self.observations.to_json()),
            ("energy_j", self.dynamic_energy_j.to_json()),
        ];
        vec![
            ("config", self.config.to_json()),
            ("requests", self.requests.to_json()),
            ("batches", self.batches.to_json()),
            ("p50_ms", self.p50_ms.to_json()),
            ("p99_ms", self.p99_ms.to_json()),
            ("sla_miss_rate", self.sla_miss_rate.to_json()),
            ("makespan_s", self.makespan_s.to_json()),
            ("dynamic_energy_j", self.dynamic_energy_j.to_json()),
            ("total_energy_j", self.total_energy_j.to_json()),
            ("drift", Json::Obj(drift)),
            ("robustness", self.robustness.to_json()),
            ("steady_state_allocs", self.steady_state_allocs.to_json()),
        ]
    }
}

/// Renders drift points as an [`ExperimentTable`].
pub fn drift_table(points: &[DriftPoint]) -> ExperimentTable {
    ExperimentTable::from_points(
        "Drift: adaptive re-planning under a seeded throttling/contention trace (equal offered load)",
        "ms / J",
        points,
        |p| p.config.clone(),
        "requests batches p50_ms p99_ms sla_miss_rate makespan_s total_energy_j drift.replans \
         drift.observations steady_state_allocs",
    )
}

/// The report of the episode-level strategy bandit: a deterministic UCB1
/// choosing between adaptive tunings, one full drift run per episode,
/// reward = negated p99 latency (milliseconds).
#[derive(Debug, Clone, PartialEq)]
pub struct DriftBanditReport {
    /// Arm labels, in arm-index order.
    pub arms: Vec<String>,
    /// Episodes each arm was played.
    pub pulls: Vec<u64>,
    /// p99 latency each arm measured, ms (deterministic per arm).
    pub p99_ms: Vec<f64>,
    /// Label of the arm the bandit settled on.
    pub best: String,
    /// Total episodes played.
    pub episodes: u32,
}

/// The adaptive tunings the bandit arbitrates between: the default, a
/// faster-reacting estimator, a narrower hysteresis band and a finer
/// quantum.
pub fn drift_bandit_arms() -> Vec<(&'static str, AdaptiveConfig)> {
    let base = AdaptiveConfig::default();
    vec![
        ("default", base),
        (
            "fast-ewma",
            AdaptiveConfig {
                ewma_alpha: 0.5,
                ..base
            },
        ),
        (
            "narrow-band",
            AdaptiveConfig {
                hysteresis: 0.25,
                ..base
            },
        ),
        (
            "fine-quantum",
            AdaptiveConfig {
                quantum: 0.125,
                ..base
            },
        ),
    ]
}

/// Runs the episode-level bandit over [`drift_bandit_arms`]: each episode
/// replays the same seeded drift trace with the selected arm's tuning and
/// feeds the bandit `-p99_ms` as reward. Runs are deterministic, so each
/// arm's reward is a constant — the point is the *selection dynamics*: UCB1
/// must try every arm, then concentrate pulls on the lowest-p99 tuning.
pub fn drift_bandit(count: usize, seed: u64, episodes: u32) -> DriftBanditReport {
    let cluster = presets::paper_cluster();
    let strategy = HidpStrategy::new();
    let requests = soak_trace(count);
    let horizon = requests
        .iter()
        .map(|r| r.arrival)
        .fold(0.0, f64::max)
        .max(1.0);
    let model = drift_trace(cluster.len(), horizon, seed);
    let arms = drift_bandit_arms();
    let mut bandit = StrategyBandit::new(arms.len());
    // Per-arm cache + scratch: episodes after an arm's first are warm, so
    // the bandit loop's cost is dominated by first plays.
    let mut state: Vec<(PlanCache, ServingScratch, Option<f64>)> = arms
        .iter()
        .map(|_| (PlanCache::new(), ServingScratch::new(), None))
        .collect();
    for _ in 0..episodes {
        let arm = bandit.select();
        let (label, config) = arms[arm];
        let (cache, scratch, p99) = &mut state[arm];
        let measured = match *p99 {
            // Deterministic replay: the arm's reward never changes, so the
            // first measurement stands for every later pull.
            Some(p) => p,
            None => {
                let summary =
                    drift_scenario(requests.clone(), label, Some(model.clone()), Some(config))
                        .run_streaming_with_cache_in(&strategy, &cluster, LEADER, cache, scratch)
                        .expect("drift bandit episode succeeds");
                let p = summary.latency.p99 * 1e3;
                *p99 = Some(p);
                p
            }
        };
        bandit.update(arm, -measured);
    }
    DriftBanditReport {
        arms: arms.iter().map(|(l, _)| l.to_string()).collect(),
        pulls: (0..arms.len()).map(|a| bandit.pulls(a)).collect(),
        p99_ms: (0..arms.len())
            .map(|a| state[a].2.unwrap_or(f64::NAN))
            .collect(),
        best: arms[bandit.best()].0.to_string(),
        episodes,
    }
}

impl Fields for DriftBanditReport {
    fn fields(&self) -> Vec<(&'static str, Json)> {
        let arms = self.arms.iter().enumerate().map(|(i, arm)| {
            Json::Obj(vec![
                ("arm", arm.to_json()),
                ("pulls", self.pulls[i].to_json()),
                ("p99_ms", self.p99_ms[i].to_json()),
            ])
        });
        vec![
            ("episodes", self.episodes.to_json()),
            ("best", self.best.to_json()),
            ("arms", Json::Arr(arms.collect())),
        ]
    }
}

/// The `BENCH_drift.json` document: the drift points, then the bandit report.
pub fn drift_document(points: &[DriftPoint], bandit: &DriftBanditReport, seed: u64) -> Json {
    bench_document(
        "drift",
        "diurnal Mix-5 trace (soak shape), EDF admission, max_batch 8, window 4, paper cluster; seeded drift trace: two thermal throttle ramps (peak 3x), two background-load bursts (1.6x), one network-contention window (2x), leader protected",
        vec![
            ("drift_seed", seed.to_json()),
            ("points", points.to_json()),
            ("bandit", bandit.to_json()),
        ],
    )
}

// ---------------------------------------------------------------------------
// Accuracy: partitioned execution is numerically equivalent
// ---------------------------------------------------------------------------

/// The accuracy experiment of §IV-B: partitioned execution must produce the
/// same predictions as whole-model execution. The table reports, per test
/// network, the maximum absolute output difference of model-partitioned and
/// data-partitioned execution versus whole execution, and whether the Top-1
/// predictions agree (1.0 = all agree).
pub fn accuracy_equivalence() -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "Accuracy: partitioned vs whole execution",
        "max |Δ| and Top-1 agreement",
        vec![
            "model_partition_max_diff".to_string(),
            "data_partition_max_diff".to_string(),
            "top1_agreement".to_string(),
        ],
    );
    let networks: Vec<(&str, hidp_dnn::DnnGraph)> = vec![
        ("tiny_cnn", zoo::small::tiny_cnn(14, 4, 10)),
        ("tiny_resnet", zoo::small::tiny_resnet(14, 4, 10)),
        ("tiny_inception", zoo::small::tiny_inception(14, 4, 10)),
        ("tiny_mobilenet", zoo::small::tiny_mobilenet(14, 4, 10)),
    ];
    // Real tensor execution per network — the heaviest cells in exp_all —
    // fan out on the generic runner (no planning involved).
    let rows = sweep().run(&networks, |_, (_, graph)| {
        let store = WeightStore::generate(graph, 42).expect("weights generate");
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(7);
        let input =
            Tensor::random(&graph.input_shape().dims(), 1.0, &mut rng).expect("input builds");
        let whole = execute(graph, &input, &store).expect("whole execution succeeds");

        let cut = graph.cut_points()[graph.cut_points().len() / 2];
        let partition = partition_into_blocks(graph, &[cut]).expect("cut point is valid");
        let piped =
            execute_model_partition(graph, &partition, &input, &store).expect("pipeline runs");
        let batched =
            execute_data_partition_batch(graph, 2, &input, &store).expect("data partition runs");

        let model_diff = whole.max_abs_diff(&piped).expect("same shape") as f64;
        let data_diff = whole.max_abs_diff(&batched).expect("same shape") as f64;
        let agree = whole.argmax_rows().expect("rank 2") == piped.argmax_rows().expect("rank 2")
            && whole.argmax_rows().expect("rank 2") == batched.argmax_rows().expect("rank 2");
        vec![model_diff, data_diff, if agree { 1.0 } else { 0.0 }]
    });
    for ((name, _), values) in networks.iter().zip(rows) {
        table.push_row(*name, values);
    }
    table
}

// ---------------------------------------------------------------------------
// DSE overhead (§III, middleware): DP exploration time per request
// ---------------------------------------------------------------------------

/// Measures the wall-clock overhead of the DP-based exploration (global +
/// local) per model, the quantity the paper reports as ≈15 ms on average.
///
/// Deliberately **not** fanned out on [`ParallelSweep`]: this experiment
/// *times* each exploration, and co-scheduling the cells would let them
/// steal cycles from each other and inflate the numbers.
pub fn dse_overhead() -> ExperimentTable {
    let cluster = presets::paper_cluster();
    let mut table = ExperimentTable::new(
        "DSE overhead: DP exploration time per request",
        "ms",
        vec![
            "global_ms".to_string(),
            "local_ms".to_string(),
            "total_ms".to_string(),
        ],
    );
    for model in WorkloadModel::ALL {
        let graph = model.graph(1);
        let system = SystemModel::new(&graph, LEADER);
        let segments = chain_segments(&graph);
        let workload = workload_summary(&graph);
        let resources = system.global_resources(&cluster);

        let start = Instant::now();
        let agent = DseAgent::new();
        let decision = agent
            .explore(&segments, &resources, workload, resources.len())
            .expect("global exploration succeeds");
        let global_ms = start.elapsed().as_secs_f64() * 1e3;

        let start = Instant::now();
        let local = LocalPartitioner::hidp();
        let _ = local
            .partition(
                &system,
                &cluster,
                LEADER,
                workload.flops,
                workload.input_bytes,
                workload.output_bytes,
                workload.sync_bytes / 4,
            )
            .expect("local exploration succeeds");
        let local_ms = start.elapsed().as_secs_f64() * 1e3;
        let _ = decision;
        table.push_row(
            model.name(),
            vec![global_ms, local_ms, global_ms + local_ms],
        );
    }
    table
}

// ---------------------------------------------------------------------------
// Ablation: which parts of HiDP matter
// ---------------------------------------------------------------------------

/// Ablation study over the design choices DESIGN.md calls out: full HiDP,
/// HiDP without the local tier, and HiDP forced to model-only / data-only
/// global partitioning. Values are latencies in ms per workload.
pub fn ablation_variants() -> Vec<(String, HidpStrategy)> {
    vec![
        ("HiDP (full)".to_string(), HidpStrategy::new()),
        (
            "no local tier".to_string(),
            HidpStrategy::without_local_tier(),
        ),
        (
            "model-only".to_string(),
            HidpStrategy {
                global: GlobalPartitioner {
                    dse: DseAgent::with_policy(DsePolicy::ModelOnly),
                    ..GlobalPartitioner::hidp()
                },
                local: LocalPartitioner::hidp(),
            },
        ),
        (
            "data-only".to_string(),
            HidpStrategy {
                global: GlobalPartitioner {
                    dse: DseAgent::with_policy(DsePolicy::DataOnly),
                    ..GlobalPartitioner::hidp()
                },
                local: LocalPartitioner::hidp(),
            },
        ),
    ]
}

/// Runs the ablation study: per-workload latency of each HiDP variant.
/// The variant × model grid fans out on [`ParallelSweep`]; the variants
/// share the "HiDP" display name but their `cache_config` discriminators
/// keep the shared cache's keys apart.
pub fn ablation() -> ExperimentTable {
    let cluster = presets::paper_cluster();
    let variants = ablation_variants();
    let mut table = ExperimentTable::new(
        "Ablation: HiDP design choices",
        "ms",
        variants.iter().map(|(name, _)| name.clone()).collect(),
    );
    // Latency only — Summary detail.
    let scenarios: Vec<Scenario> = WorkloadModel::ALL
        .iter()
        .map(|m| Scenario::single(m.graph(1)).with_trace_detail(TraceDetail::Summary))
        .collect();
    let (cluster_ref, variants_ref) = (&cluster, &variants);
    let jobs: Vec<SweepJob<'_>> = scenarios
        .iter()
        .flat_map(|scenario| {
            variants_ref.iter().map(move |(_, strategy)| SweepJob {
                scenario,
                strategy,
                cluster: cluster_ref,
                leader: LEADER,
            })
        })
        .collect();
    let evaluations = sweep_evaluations(&jobs);
    for (row, model) in WorkloadModel::ALL.iter().enumerate() {
        let values: Vec<f64> = evaluations[row * variants.len()..(row + 1) * variants.len()]
            .iter()
            .map(|e| e.latency() * 1e3)
            .collect();
        table.push_row(model.name(), values);
    }
    table
}

// ---------------------------------------------------------------------------
// Table II: the evaluation platform
// ---------------------------------------------------------------------------

/// Table II: the evaluation platform (device inventory with modelled
/// aggregate throughput and idle power).
pub fn table2_platform() -> ExperimentTable {
    let cluster = presets::paper_cluster();
    let mut table = ExperimentTable::new(
        "Table II: evaluation platform",
        "processors / GFLOP/s / W / GB",
        vec![
            "processors".to_string(),
            "aggregate_gflops".to_string(),
            "idle_power_w".to_string(),
            "dram_gb".to_string(),
        ],
    );
    for node in cluster.nodes() {
        table.push_row(
            node.name.clone(),
            vec![
                node.processor_count() as f64,
                node.aggregate_rate(1.0) / 1e9,
                node.idle_power_w(),
                node.dram_gb,
            ],
        );
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_round_trip_and_markdown() {
        let mut t = ExperimentTable::new("demo", "ms", vec!["a".into(), "b".into()]);
        t.push_row("r1", vec![1.0, 250.0]);
        assert_eq!(t.value("r1", "b"), Some(250.0));
        assert_eq!(t.value("r1", "missing"), None);
        assert_eq!(t.value("missing", "a"), None);
        let md = t.to_markdown();
        assert!(md.contains("| r1 | 1.00 | 250 |"));
        let json = t.to_json().to_string();
        assert!(json.contains("demo"));
    }

    #[test]
    #[should_panic(expected = "row length")]
    fn mismatched_row_is_rejected() {
        let mut t = ExperimentTable::new("demo", "ms", vec!["a".into()]);
        t.push_row("r1", vec![1.0, 2.0]);
    }

    #[test]
    fn fig1_default_config_is_never_the_best() {
        // The whole point of Fig. 1: some CPU+GPU split beats P1 for every
        // model on the TX2.
        let table = fig1_partitioning_configs();
        for (model, values) in &table.rows {
            let best = values.iter().cloned().fold(f64::INFINITY, f64::min);
            assert!(best < 1.0, "{model}: no configuration beat P1");
            assert!((values[0] - 1.0).abs() < 1e-9, "{model}: P1 must be 1.0");
        }
    }

    #[test]
    fn fig1_efficientnet_prefers_balanced_splits() {
        // EfficientNet's depthwise-heavy layers make the GPU less dominant,
        // so a 50/50 split (P9) beats the GPU-heavy P2 configuration.
        let table = fig1_partitioning_configs();
        let p9 = table.value("efficientnet_b0", "P9").unwrap();
        let p2 = table.value("efficientnet_b0", "P2").unwrap();
        assert!(p9 < p2);
    }

    #[test]
    fn fig5_hidp_wins_latency_and_energy() {
        let latency = fig5_latency();
        let energy = fig5_energy();
        for table in [&latency, &energy] {
            for (model, values) in &table.rows {
                let hidp = values[0];
                for (i, v) in values.iter().enumerate().skip(1) {
                    assert!(
                        hidp <= v * 1.01,
                        "{model}: HiDP {hidp:.2} vs {} {v:.2} in {}",
                        table.columns[i],
                        table.title
                    );
                }
            }
        }
    }

    #[test]
    fn fig8_latency_decreases_with_more_nodes_for_hidp() {
        let table = fig8_node_scaling();
        let hidp: Vec<f64> = table.rows.iter().map(|(_, v)| v[0]).collect();
        assert!(hidp.last().unwrap() <= hidp.first().unwrap());
    }

    #[test]
    fn accuracy_table_shows_equivalence() {
        let table = accuracy_equivalence();
        for (name, values) in &table.rows {
            assert!(values[0] < 1e-3, "{name}: model partition diverged");
            assert!(values[1] < 1e-3, "{name}: data partition diverged");
            assert_eq!(values[2], 1.0, "{name}: Top-1 predictions changed");
        }
    }

    #[test]
    fn ablation_full_hidp_is_never_worse() {
        let table = ablation();
        for (model, values) in &table.rows {
            let full = values[0];
            for v in &values[1..] {
                assert!(
                    full <= v * 1.01,
                    "{model}: full HiDP slower than an ablation"
                );
            }
        }
    }

    #[test]
    fn table2_lists_five_devices() {
        let table = table2_platform();
        assert_eq!(table.rows.len(), 5);
    }
}
