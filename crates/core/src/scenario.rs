//! The unified plan→simulate evaluation pipeline.
//!
//! Every experiment in the workspace — single-request latency/energy
//! comparisons (Fig. 5, Fig. 8), the dynamic workload (Fig. 6), the workload
//! mixes (Fig. 7) — is the same three steps: describe a workload, plan it
//! with a strategy, simulate the plans on a cluster. [`Scenario`] captures the workload description and [`Scenario::run`]
//! executes the whole pipeline, so benches, integration tests and examples
//! share one code path instead of re-implementing the plan/simulate/report
//! glue per layer.
//!
//! The pipeline is **zero-copy on its warm path**: scenarios hold
//! `Arc<DnnGraph>`s (a cyclic mix shares one graph per distinct model
//! instead of cloning layer vectors per repeat), planning returns
//! `Arc<ExecutionPlan>`s straight from the [`PlanCache`] (nothing is
//! deep-copied per request — plans are simulated in place), cache probes
//! reuse one [`crate::PlanKey`] across the request loop, and
//! [`Scenario::run_with_cache_in`] simulates into a caller-owned
//! [`SimScratch`] so sweep workers reuse buffers across runs. Setting
//! [`TraceDetail::Summary`] via [`Scenario::with_trace_detail`] additionally
//! skips the per-task trace for metric-only consumers. None of this changes
//! any result — evaluations are bit-identical to the deep-copy pipeline.
//!
//! ```
//! use hidp_core::{HidpStrategy, Scenario};
//! use hidp_dnn::zoo::WorkloadModel;
//! use hidp_platform::{presets, NodeIndex};
//!
//! # fn main() -> Result<(), hidp_core::CoreError> {
//! let cluster = presets::paper_cluster();
//! let evaluation = Scenario::single(WorkloadModel::EfficientNetB0.graph(1))
//!     .run(&HidpStrategy::new(), &cluster, NodeIndex(1))?;
//! println!("HiDP latency: {:.1} ms", evaluation.latency() * 1e3);
//! # Ok(())
//! # }
//! ```

use crate::plan_cache::{PlanCache, PlanCacheStats};
use crate::strategy::DistributedStrategy;
use crate::CoreError;
use hidp_dnn::DnnGraph;
use hidp_platform::{Cluster, NodeIndex};
use hidp_sim::{simulate_stream_in, ExecutionPlan, SimReport, SimScratch, TraceDetail};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A planned request stream: per request, its arrival time and the shared
/// execution plan the cache resolved for it.
type PlannedStream = Vec<(f64, Arc<ExecutionPlan>)>;

/// A workload to evaluate: one or more inference requests with arrival
/// times, plus a label used in reports.
///
/// Graphs are held behind `Arc`, so cloning a scenario — or repeating one
/// model across a long stream — shares the graph data instead of copying
/// it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    label: String,
    requests: Vec<(f64, Arc<DnnGraph>)>,
    trace: TraceDetail,
}

impl Scenario {
    /// A single inference request arriving at time zero; labelled with the
    /// model name. Accepts an owned graph or an already-shared
    /// `Arc<DnnGraph>`.
    pub fn single(graph: impl Into<Arc<DnnGraph>>) -> Self {
        let graph = graph.into();
        let label = graph.name().to_string();
        Self {
            label,
            requests: vec![(0.0, graph)],
            trace: TraceDetail::Full,
        }
    }

    /// A stream of `(arrival_seconds, graph)` requests sharing the cluster.
    /// Accepts owned graphs or `Arc<DnnGraph>`s — pass `Arc`s (e.g. from
    /// `InferenceRequest::to_stream`) so repeated models share one graph.
    pub fn stream<G: Into<Arc<DnnGraph>>>(requests: Vec<(f64, G)>) -> Self {
        let requests: Vec<(f64, Arc<DnnGraph>)> = requests
            .into_iter()
            .map(|(arrival, graph)| (arrival, graph.into()))
            .collect();
        let label = match requests.as_slice() {
            [(_, only)] => only.name().to_string(),
            many => format!("stream[{}]", many.len()),
        };
        Self {
            label,
            requests,
            trace: TraceDetail::Full,
        }
    }

    /// Replaces the report label (builder style).
    #[must_use]
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Sets how much of the execution trace simulations materialise
    /// (builder style). The default is [`TraceDetail::Full`]; grids and
    /// sweeps that only consume latencies/energy/makespan should pass
    /// [`TraceDetail::Summary`] — every metric stays bit-identical, only
    /// [`Evaluation::report`]`.records` is left empty.
    #[must_use]
    pub fn with_trace_detail(mut self, trace: TraceDetail) -> Self {
        self.trace = trace;
        self
    }

    /// The trace detail simulations of this scenario use.
    pub fn trace_detail(&self) -> TraceDetail {
        self.trace
    }

    /// The label used in evaluation reports.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The requests of this scenario as `(arrival, graph)` pairs.
    pub fn requests(&self) -> &[(f64, Arc<DnnGraph>)] {
        &self.requests
    }

    /// Number of requests in the scenario.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the scenario has no requests (such a scenario cannot run).
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Plans every request with `strategy` and simulates the plans on
    /// `cluster`, with requests arriving at `leader`.
    ///
    /// Planning consults a scenario-local [`PlanCache`], so a stream that
    /// cycles through a few distinct models plans each one exactly once.
    /// All strategies are deterministic, so memoization changes no result —
    /// only its cost. To reuse plans *across* scenarios (e.g. a rate sweep
    /// over the same models), pass a shared cache to
    /// [`Scenario::run_with_cache`] instead.
    ///
    /// # Errors
    ///
    /// Returns an error when the scenario is empty, when planning any
    /// request fails, or when simulation fails.
    pub fn run(
        &self,
        strategy: &dyn DistributedStrategy,
        cluster: &Cluster,
        leader: NodeIndex,
    ) -> Result<Evaluation, CoreError> {
        self.run_with_cache(strategy, cluster, leader, &PlanCache::new())
    }

    /// [`Scenario::run`] against a caller-owned [`PlanCache`], for reusing
    /// plans across scenario runs. The returned evaluation's
    /// [`Evaluation::plan_cache`] counts only this run's lookups.
    ///
    /// The warm path is zero-copy: cached plans are threaded through as
    /// `Arc<ExecutionPlan>` and simulated in place, and cache probes reuse
    /// one key, so a 100 %-hit stream performs no per-request deep copies.
    ///
    /// # Errors
    ///
    /// Returns an error when the scenario is empty, when planning any
    /// request fails, or when simulation fails.
    pub fn run_with_cache(
        &self,
        strategy: &dyn DistributedStrategy,
        cluster: &Cluster,
        leader: NodeIndex,
        cache: &PlanCache,
    ) -> Result<Evaluation, CoreError> {
        self.run_with_cache_in(strategy, cluster, leader, cache, &mut SimScratch::new())
    }

    /// [`Scenario::run_with_cache`] against caller-owned simulation working
    /// memory: the simulator reuses `scratch`'s buffers across calls (see
    /// [`SimScratch`]), which is what [`crate::ParallelSweep`] workers and
    /// rate sweeps use to keep the steady-state evaluation path
    /// allocation-free. Results are bit-identical to
    /// [`Scenario::run_with_cache`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Scenario::run_with_cache`].
    pub fn run_with_cache_in(
        &self,
        strategy: &dyn DistributedStrategy,
        cluster: &Cluster,
        leader: NodeIndex,
        cache: &PlanCache,
        scratch: &mut SimScratch,
    ) -> Result<Evaluation, CoreError> {
        let (planned, stats) = self.plan_requests(strategy, cluster, leader, cache)?;
        let report = simulate_stream_in(scratch, &planned, cluster, self.trace)?.clone();
        let latencies = report.latencies();
        let mut evaluation =
            Self::evaluation_from(strategy.name(), &self.label, report, latencies, cluster)?;
        evaluation.plan_cache = Some(stats);
        Ok(evaluation)
    }

    /// The planning half of the pipeline: every request resolved to a shared
    /// plan through `cache`, plus this run's hit/miss attribution.
    fn plan_requests(
        &self,
        strategy: &dyn DistributedStrategy,
        cluster: &Cluster,
        leader: NodeIndex,
        cache: &PlanCache,
    ) -> Result<(PlannedStream, PlanCacheStats), CoreError> {
        if self.requests.is_empty() {
            return Err(CoreError::Infeasible {
                what: format!("scenario '{}' has no requests", self.label),
            });
        }
        // Counted per lookup, not as a before/after delta of the shared
        // counters, so concurrent users of the same cache do not inflate
        // this run's numbers.
        let mut stats = PlanCacheStats::default();
        let mut planned = Vec::with_capacity(self.requests.len());
        // One reusable key: everything except the graph fields is
        // loop-invariant, so each request mutates two integers and pays a
        // borrowed hash probe — no string clone, no cluster walk, no key
        // allocation on the warm path.
        let mut key = crate::PlanKey::for_run(strategy, cluster, leader);
        for (arrival, graph) in &self.requests {
            key.graph_fingerprint = graph.fingerprint();
            key.batch = graph.input_shape().batch();
            let (plan, hit) = cache.plan_keyed(&key, strategy, graph, cluster, leader)?;
            if hit {
                stats.hits += 1;
            } else {
                stats.misses += 1;
            }
            planned.push((*arrival, plan));
        }
        Ok((planned, stats))
    }

    /// Wraps a finished simulation report and its per-request `latencies`
    /// into an [`Evaluation`] (energy accounting): the shared tail of
    /// [`Scenario::run_with_cache`], [`Scenario::run_with_cache_in`] (which
    /// pass [`SimReport::latencies`]) and the serving runtime's records mode
    /// ([`crate::ServingScenario::run`], which passes one latency per
    /// request rather than per admitted batch).
    pub(crate) fn evaluation_from(
        strategy: impl Into<String>,
        scenario: impl Into<String>,
        report: SimReport,
        latencies: Vec<f64>,
        cluster: &Cluster,
    ) -> Result<Evaluation, CoreError> {
        let total_energy = report.total_energy(cluster)?;
        let dynamic_energy = report.dynamic_energy(cluster)?;
        Ok(Evaluation {
            strategy: strategy.into(),
            scenario: scenario.into(),
            latencies,
            makespan: report.makespan,
            total_energy,
            dynamic_energy,
            plan_cache: None,
            report,
        })
    }
}

/// Metrics of one evaluated scenario (single request or stream).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Evaluation {
    /// Strategy name.
    pub strategy: String,
    /// Scenario label (model name for single-request scenarios).
    pub scenario: String,
    /// Per-request latencies in seconds (request order).
    pub latencies: Vec<f64>,
    /// Completion time of the whole scenario in seconds.
    pub makespan: f64,
    /// Total cluster energy over the scenario window, in joules.
    pub total_energy: f64,
    /// Workload-attributable (dynamic) energy in joules.
    pub dynamic_energy: f64,
    /// Plan-cache hit/miss counters for this run. Every single-run entry
    /// point (`Scenario::run*`, `ServingScenario::run*`) fills them in.
    /// [`ParallelSweep::run_scenarios`](crate::ParallelSweep::run_scenarios)
    /// and [`ParallelSweep::run_serving`](crate::ParallelSweep::run_serving)
    /// set them to `None` on purpose: which job of a sweep pays a miss
    /// depends on thread scheduling, so stripping the counters keeps sweep
    /// results bit-identical at every thread count.
    pub plan_cache: Option<PlanCacheStats>,
    /// The simulated report (timings of every task; `records` is empty when
    /// the scenario ran with [`TraceDetail::Summary`]).
    pub report: SimReport,
}

impl Evaluation {
    /// End-to-end latency of the first request, in seconds — the headline
    /// number for single-request scenarios.
    pub fn latency(&self) -> f64 {
        self.latencies.first().copied().unwrap_or(self.makespan)
    }

    /// Mean latency over all requests, in seconds.
    pub fn mean_latency(&self) -> f64 {
        if self.latencies.is_empty() {
            return self.makespan;
        }
        self.latencies.iter().sum::<f64>() / self.latencies.len() as f64
    }

    /// Completed inferences per `window_seconds` (the paper reports
    /// inferences per 100 s).
    pub fn throughput(&self, window_seconds: f64) -> f64 {
        hidp_sim::stats::throughput_per_window(&self.report, window_seconds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HidpStrategy;
    use hidp_dnn::zoo::WorkloadModel;
    use hidp_platform::presets;

    #[test]
    fn single_scenario_produces_positive_metrics() {
        let cluster = presets::paper_cluster();
        let strategy = HidpStrategy::new();
        let eval = Scenario::single(WorkloadModel::EfficientNetB0.graph(1))
            .run(&strategy, &cluster, NodeIndex(0))
            .unwrap();
        assert_eq!(eval.strategy, "HiDP");
        assert_eq!(eval.scenario, "efficientnet_b0");
        assert_eq!(eval.latencies.len(), 1);
        assert!(eval.latency() > 0.0);
        assert!(eval.total_energy > eval.dynamic_energy);
        assert!(eval.dynamic_energy > 0.0);
    }

    #[test]
    fn stream_scenario_reports_one_latency_per_request() {
        let cluster = presets::paper_cluster();
        let strategy = HidpStrategy::new();
        let scenario = Scenario::stream(vec![
            (0.0, WorkloadModel::EfficientNetB0.graph(1)),
            (0.5, WorkloadModel::InceptionV3.graph(1)),
        ]);
        assert_eq!(scenario.label(), "stream[2]");
        assert_eq!(scenario.len(), 2);
        let eval = scenario.run(&strategy, &cluster, NodeIndex(0)).unwrap();
        assert_eq!(eval.latencies.len(), 2);
        assert!(eval.makespan >= eval.latencies[0]);
        assert!(eval.throughput(100.0) > 0.0);
        assert!(eval.mean_latency() > 0.0);
    }

    #[test]
    fn empty_scenario_is_rejected() {
        let cluster = presets::paper_cluster();
        let strategy = HidpStrategy::new();
        let empty = Scenario::stream(Vec::<(f64, hidp_dnn::DnnGraph)>::new());
        assert!(empty.is_empty());
        assert!(empty.run(&strategy, &cluster, NodeIndex(0)).is_err());
    }

    #[test]
    fn single_and_one_element_stream_agree() {
        // The pipeline must not distinguish a single request from a stream
        // of one request arriving at t = 0.
        let cluster = presets::paper_cluster();
        let strategy = HidpStrategy::new();
        let single = Scenario::single(WorkloadModel::ResNet152.graph(1))
            .run(&strategy, &cluster, NodeIndex(1))
            .unwrap();
        let stream = Scenario::stream(vec![(0.0, WorkloadModel::ResNet152.graph(1))])
            .run(&strategy, &cluster, NodeIndex(1))
            .unwrap();
        assert_eq!(single.latencies, stream.latencies);
        assert_eq!(single.makespan, stream.makespan);
        assert_eq!(single.scenario, stream.scenario);
    }

    #[test]
    fn labels_can_be_overridden() {
        let scenario = Scenario::single(WorkloadModel::Vgg19.graph(1)).with_label("custom-label");
        assert_eq!(scenario.label(), "custom-label");
    }

    #[test]
    fn cyclic_mix_plans_each_distinct_model_exactly_once() {
        // A 3-model mix repeated 3 times: 9 requests, 3 planner invocations.
        let cluster = presets::paper_cluster();
        let strategy = HidpStrategy::new();
        let models = [
            WorkloadModel::EfficientNetB0,
            WorkloadModel::InceptionV3,
            WorkloadModel::ResNet152,
        ];
        let requests: Vec<(f64, hidp_dnn::DnnGraph)> = (0..9)
            .map(|i| (i as f64 * 0.2, models[i % 3].graph(1)))
            .collect();
        let eval = Scenario::stream(requests)
            .run(&strategy, &cluster, NodeIndex(1))
            .unwrap();
        let stats = eval.plan_cache.expect("run() surfaces cache stats");
        assert_eq!(stats.misses, 3, "each distinct model planned once");
        assert_eq!(stats.hits, 6, "repeats served from the cache");
        assert_eq!(eval.latencies.len(), 9);
    }

    #[test]
    fn shared_cache_reuses_plans_across_runs() {
        let cluster = presets::paper_cluster();
        let strategy = HidpStrategy::new();
        let cache = crate::PlanCache::new();
        let scenario = Scenario::single(WorkloadModel::Vgg19.graph(1));

        let cold = scenario
            .run_with_cache(&strategy, &cluster, NodeIndex(1), &cache)
            .unwrap();
        let warm = scenario
            .run_with_cache(&strategy, &cluster, NodeIndex(1), &cache)
            .unwrap();
        // Per-run stats are deltas, not cumulative counters.
        assert_eq!(cold.plan_cache.unwrap().misses, 1);
        assert_eq!(cold.plan_cache.unwrap().hits, 0);
        assert_eq!(warm.plan_cache.unwrap().misses, 0);
        assert_eq!(warm.plan_cache.unwrap().hits, 1);
        // Memoization changes cost, never results.
        assert_eq!(cold.latencies, warm.latencies);
        assert_eq!(cold.total_energy, warm.total_energy);
        assert_eq!(cold.report, warm.report);
    }

    #[test]
    fn scratch_entry_point_is_bit_identical_to_the_one_shot_path() {
        // One scratch reused across differently-shaped runs must change
        // nothing about any evaluation.
        let cluster = presets::paper_cluster();
        let strategy = HidpStrategy::new();
        let cache = crate::PlanCache::new();
        let mut scratch = SimScratch::new();
        let scenarios = [
            Scenario::single(WorkloadModel::InceptionV3.graph(1)),
            Scenario::stream(vec![
                (0.0, WorkloadModel::EfficientNetB0.graph(1)),
                (0.1, WorkloadModel::ResNet152.graph(1)),
                (0.2, WorkloadModel::EfficientNetB0.graph(1)),
            ]),
            Scenario::single(WorkloadModel::Vgg19.graph(1)).with_trace_detail(TraceDetail::Summary),
        ];
        for scenario in &scenarios {
            let direct = scenario
                .run_with_cache(&strategy, &cluster, NodeIndex(1), &cache)
                .unwrap();
            let scratched = scenario
                .run_with_cache_in(&strategy, &cluster, NodeIndex(1), &cache, &mut scratch)
                .unwrap();
            // Cache stats differ (the direct run warmed the cache), so
            // compare everything else.
            assert_eq!(direct.latencies, scratched.latencies);
            assert_eq!(direct.makespan, scratched.makespan);
            assert_eq!(direct.total_energy, scratched.total_energy);
            assert_eq!(direct.dynamic_energy, scratched.dynamic_energy);
            assert_eq!(direct.report, scratched.report);
        }
    }

    #[test]
    fn summary_trace_detail_keeps_metrics_and_drops_records() {
        let cluster = presets::paper_cluster();
        let strategy = HidpStrategy::new();
        let requests: Vec<(f64, hidp_dnn::DnnGraph)> = (0..4)
            .map(|i| (i as f64 * 0.1, WorkloadModel::EfficientNetB0.graph(1)))
            .collect();
        let full = Scenario::stream(requests.clone())
            .run(&strategy, &cluster, NodeIndex(1))
            .unwrap();
        let summary = Scenario::stream(requests)
            .with_trace_detail(TraceDetail::Summary)
            .run(&strategy, &cluster, NodeIndex(1))
            .unwrap();
        assert!(summary.report.records.is_empty());
        assert!(!full.report.records.is_empty());
        assert_eq!(full.latencies, summary.latencies);
        assert_eq!(full.makespan, summary.makespan);
        assert_eq!(full.total_energy, summary.total_energy);
        assert_eq!(full.dynamic_energy, summary.dynamic_energy);
        assert_eq!(full.plan_cache, summary.plan_cache);
        assert_eq!(full.report.meter, summary.report.meter);
    }
}
