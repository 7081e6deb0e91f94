//! The four workloads: seeded inputs, scenario shapes and one pass each.

use hidp_core::{
    AdaptiveConfig, AdmissionPolicy, DistributedStrategy, FailureMode, FleetRequest, FleetScenario,
    FleetScratch, FleetSummary, ParallelSweep, PlanCache, PlanCacheStats, RecoveryPolicy,
    RetryPolicy, RobustnessStats, RoutingPolicy, ServingEvaluation, ServingRequest,
    ServingScenario, ServingScratch, ServingSummary, TraceDetail,
};
use hidp_dnn::zoo::WorkloadModel;
use hidp_platform::{presets, Cluster, ClusterTimeline, Fleet, NodeIndex};
use hidp_workloads::{
    diurnal_stream, regional_diurnal_stream, standard_fault_suite, DriftPlanConfig, FaultPlan,
    FaultPlanConfig, InferenceRequest, SlaClass,
};

/// The planning leader of every cluster (node 1, as in the repository's
/// experiments).
pub const LEADER: NodeIndex = NodeIndex(1);

/// The Mix-5 model cycle every trace draws from.
pub const MODELS: [WorkloadModel; 3] = [
    WorkloadModel::EfficientNetB0,
    WorkloadModel::InceptionV3,
    WorkloadModel::ResNet152,
];

/// Worker threads of the fleet's parallel pass (the timed passes run on
/// one).
pub const FLEET_THREADS: usize = 2;

/// Mean virtual seconds between node flaps on the `replay` workload.
const REPLAY_FLAP_SPACING_S: f64 = 300.0;

/// Retries per killed request on the `chaos` workload.
pub const CHAOS_RETRIES: u32 = 8;

/// Salts decorrelating the fault and drift seeds from the trace seed.
const FAULT_SALT: u64 = 0xC4405;
const DRIFT_SALT: u64 = 0xD21F7;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Streaming EDF serving on one cluster with a warm plan cache.
    Soak,
    /// 64 clusters behind least-loaded routing.
    Fleet,
    /// Records mode with node flaps and a fresh plan cache every pass.
    Replay,
    /// The soak trace under kills, recovery, stragglers, drift and
    /// adaptive re-planning.
    Chaos,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::Soak,
        Workload::Fleet,
        Workload::Replay,
        Workload::Chaos,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Soak => "soak",
            Workload::Fleet => "fleet",
            Workload::Replay => "replay",
            Workload::Chaos => "chaos",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether a timed (one-thread) pass must make zero allocations: every
    /// workload but `replay`, whose records mode allocates its results.
    pub fn must_not_allocate(self) -> bool {
        self != Workload::Replay
    }
}

/// Input sizes of a run. [`Sizes::BENCH`] is what the benchmark measures;
/// tests use [`Sizes::SMALL`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Requests in the `soak` and `chaos` trace.
    pub serving_requests: usize,
    /// Requests in the `replay` trace.
    pub replay_requests: usize,
    /// Requests in the `fleet` trace.
    pub fleet_requests: usize,
    /// Clusters in the fleet.
    pub fleet_clusters: usize,
    /// Regions the fleet's clusters and traffic spread over.
    pub fleet_regions: usize,
    /// Requests of the records-mode admission log the traced run replays
    /// plan-cache lookups and observations over (`soak`, `chaos`, `fleet`).
    pub log_requests: usize,
}

impl Sizes {
    /// The measured sizes.
    pub const BENCH: Sizes = Sizes {
        serving_requests: 1_000_000,
        replay_requests: 200_000,
        fleet_requests: 1_000_000,
        fleet_clusters: 64,
        fleet_regions: 8,
        log_requests: 200_000,
    };

    /// Small sizes for tests.
    pub const SMALL: Sizes = Sizes {
        serving_requests: 3_000,
        replay_requests: 3_000,
        fleet_requests: 4_000,
        fleet_clusters: 4,
        fleet_regions: 2,
        log_requests: 2_000,
    };
}

/// The serving trace of `soak`, `chaos` and `replay`: a diurnal Mix-5
/// Poisson stream swinging between 8 and 24 req/s (2000 s period) around
/// the paper cluster's ~18 req/s capacity, SLA classes cycling.
pub fn serving_trace(count: usize, seed: u64) -> Vec<ServingRequest> {
    InferenceRequest::to_serving(&diurnal_stream(
        &MODELS,
        8.0,
        24.0,
        2000.0,
        count,
        seed,
        &SlaClass::ALL,
    ))
}

/// The fleet trace: one phase-shifted diurnal stream per region, weighted
/// 4, 2, 1, 1, … so the first regions run hot, scaled so the offered load
/// tracks the fleet's capacity (rates ×1.625 per cluster).
pub fn fleet_trace(count: usize, clusters: usize, regions: usize, seed: u64) -> Vec<FleetRequest> {
    let weights: Vec<f64> = (0..regions)
        .map(|r| match r {
            0 => 4.0,
            1 => 2.0,
            _ => 1.0,
        })
        .collect();
    // 13× the 2/8 req/s base shape for 64 clusters over 8 regions.
    let rate_scale = 13.0 * clusters as f64 / 64.0;
    regional_diurnal_stream(
        &MODELS,
        &weights,
        2.0 * rate_scale,
        8.0 * rate_scale,
        240.0,
        count,
        seed,
        &SlaClass::ALL,
    )
}

/// The last arrival of a trace (at least 1 s), the horizon faults and
/// drift are generated over.
pub fn horizon(requests: &[ServingRequest]) -> f64 {
    requests.iter().map(|r| r.arrival).fold(1.0, f64::max)
}

/// The soak serving shape: EDF admission, batches of up to 8, an
/// admission window of 4.
pub fn soak_scenario(requests: Vec<ServingRequest>) -> ServingScenario {
    ServingScenario::new(requests)
        .with_label("soak")
        .with_policy(AdmissionPolicy::EarliestDeadline)
        .with_max_batch(8)
        .with_max_inflight(Some(4))
}

/// The chaos recovery policy: retry every killed request with the default
/// backoff, up to [`CHAOS_RETRIES`] times, and never abort or shed. A retry
/// is planned on its epoch's surviving nodes, so it completes: the workload
/// drops nothing (the `completed == offered` check guards this on every
/// pass), and every offered request is an operation that must succeed.
pub fn chaos_recovery() -> RecoveryPolicy {
    RecoveryPolicy {
        retry: Some(RetryPolicy {
            max_attempts: CHAOS_RETRIES,
            ..RetryPolicy::default()
        }),
        ..RecoveryPolicy::default()
    }
}

/// The chaos scenario: the soak shape plus kill semantics, the retry-only
/// [`chaos_recovery`], a seeded fault-suite timeline (flaps and a rack
/// outage) with its straggler window, a seeded drift trace and the
/// default adaptive loop.
///
/// # Errors
///
/// Returns the generator's message when the cluster cannot be faulted.
pub fn chaos_scenario(
    requests: Vec<ServingRequest>,
    node_count: usize,
    seed: u64,
) -> Result<ServingScenario, String> {
    let horizon = horizon(&requests);
    // The suite puts flaps and the rack outage on its first cluster and the
    // straggler window on its second; the chaos cluster takes both.
    let suite = standard_fault_suite(
        &[node_count, node_count],
        seed ^ FAULT_SALT,
        horizon,
        LEADER,
    )
    .map_err(|e| e.to_string())?;
    let drift = DriftPlanConfig {
        seed: seed ^ DRIFT_SALT,
        horizon,
        throttles: 2,
        throttle_peak: 4.0,
        background_windows: 2,
        background_factor: 1.6,
        contention_windows: 1,
        contention_factor: 2.0,
    }
    .generate(node_count, LEADER)
    .map_err(|e| e.to_string())?;
    Ok(soak_scenario(requests)
        .with_label("chaos")
        .with_failure_mode(FailureMode::Kill)
        .with_recovery(chaos_recovery())
        .with_timeline(suite[0].timeline.clone())
        .with_slowdowns(suite[1].slowdowns.clone())
        .with_drift(drift)
        .with_adaptive(AdaptiveConfig::default()))
}

/// Non-leader node flaps about every 300 virtual seconds over the trace's
/// first 80%, each down for 30–90 s.
///
/// # Errors
///
/// Returns the generator's message when the cluster cannot be faulted.
pub fn replay_timeline(
    node_count: usize,
    horizon: f64,
    seed: u64,
) -> Result<ClusterTimeline, String> {
    let config = FaultPlanConfig {
        seed: seed ^ FAULT_SALT,
        horizon,
        node_flaps: ((horizon * 0.8 / REPLAY_FLAP_SPACING_S).round() as usize).max(1),
        flap_mean_down_s: 60.0,
        rack_outages: 0,
        rack_width: 2,
        stragglers: 0,
        straggler_factor: 1.0,
        wan_degradations: 0,
        wan_factor: 1.0,
    };
    FaultPlan::generate(&config, node_count, LEADER)
        .map(|plan| plan.timeline)
        .map_err(|e| e.to_string())
}

/// The replay scenario: the soak shape in records mode (summary trace
/// detail) under a flap timeline whose down-flips leave in-flight work
/// alone (`FailureMode::Ignore`) and re-key later planning.
pub fn replay_scenario(
    requests: Vec<ServingRequest>,
    timeline: ClusterTimeline,
) -> ServingScenario {
    soak_scenario(requests)
        .with_label("replay")
        .with_timeline(timeline)
        .with_failure_mode(FailureMode::Ignore)
        .with_trace_detail(TraceDetail::Summary)
}

/// The fleet scenario: least-loaded routing, 1 s rounds, and the soak's
/// per-cluster serving shape.
pub fn fleet_scenario(requests: Vec<FleetRequest>) -> FleetScenario {
    FleetScenario::new(requests)
        .with_label("fleet")
        .with_routing(RoutingPolicy::LeastLoaded)
        .with_policy(AdmissionPolicy::EarliestDeadline)
        .with_max_batch(8)
        .with_max_inflight(Some(4))
        .with_round_seconds(1.0)
}

/// One workload's inputs plus the state its passes reuse.
// One instance lives per run, so the variants' size difference costs nothing.
#[allow(clippy::large_enum_variant)]
pub enum Instance {
    /// `soak` and `chaos`: streaming mode against a warm cache and scratch.
    Streaming {
        /// The scenario.
        scenario: ServingScenario,
        /// The paper cluster.
        cluster: Cluster,
        /// Plan cache shared by every pass.
        cache: PlanCache,
        /// Working memory reused by every pass.
        scratch: ServingScratch,
    },
    /// `replay`: records mode, fresh plan cache every pass.
    Records {
        /// The scenario.
        scenario: ServingScenario,
        /// The paper cluster.
        cluster: Cluster,
        /// Working memory reused by every pass.
        scratch: ServingScratch,
    },
    /// `fleet`: the fleet tier on a parallel sweep.
    Fleet {
        /// The scenario.
        scenario: FleetScenario,
        /// The generated fleet.
        fleet: Fleet,
        /// Working memory (and per-cluster plan caches) reused by every
        /// pass.
        scratch: FleetScratch,
    },
}

impl Instance {
    /// Generates `workload`'s inputs for `seed` at `sizes` and builds its
    /// scenario. No pass runs yet.
    ///
    /// # Errors
    ///
    /// Returns the generator's message when inputs cannot be built.
    pub fn build(workload: Workload, seed: u64, sizes: &Sizes) -> Result<Self, String> {
        let cluster = presets::paper_cluster();
        Ok(match workload {
            Workload::Soak => Instance::Streaming {
                scenario: soak_scenario(serving_trace(sizes.serving_requests, seed)),
                cluster,
                cache: PlanCache::new(),
                scratch: ServingScratch::new(),
            },
            Workload::Chaos => Instance::Streaming {
                scenario: chaos_scenario(
                    serving_trace(sizes.serving_requests, seed),
                    cluster.len(),
                    seed,
                )?,
                cluster,
                cache: PlanCache::new(),
                scratch: ServingScratch::new(),
            },
            Workload::Replay => {
                let requests = serving_trace(sizes.replay_requests, seed);
                let timeline = replay_timeline(cluster.len(), horizon(&requests), seed)?;
                Instance::Records {
                    scenario: replay_scenario(requests, timeline),
                    cluster,
                    scratch: ServingScratch::new(),
                }
            }
            Workload::Fleet => Instance::Fleet {
                scenario: fleet_scenario(fleet_trace(
                    sizes.fleet_requests,
                    sizes.fleet_clusters,
                    sizes.fleet_regions,
                    seed,
                )),
                fleet: presets::generated_fleet(sizes.fleet_clusters, sizes.fleet_regions)
                    .map_err(|e| e.to_string())?,
                scratch: FleetScratch::new(),
            },
        })
    }

    /// Requests offered per pass.
    pub fn requests(&self) -> usize {
        match self {
            Instance::Streaming { scenario, .. } | Instance::Records { scenario, .. } => {
                scenario.len()
            }
            Instance::Fleet { scenario, .. } => scenario.len(),
        }
    }

    /// Runs one pass. `threads` only matters for `fleet`.
    ///
    /// # Errors
    ///
    /// Propagates planning and simulation errors.
    pub fn pass(
        &mut self,
        strategy: &dyn DistributedStrategy,
        threads: usize,
    ) -> Result<Outcome, String> {
        let outcome = match self {
            Instance::Streaming {
                scenario,
                cluster,
                cache,
                scratch,
            } => scenario
                .run_streaming_with_cache_in(strategy, cluster, LEADER, cache, scratch)
                .map(Outcome::Streaming),
            Instance::Records {
                scenario,
                cluster,
                scratch,
            } => scenario
                .run_with_cache_in(strategy, cluster, LEADER, &PlanCache::new(), scratch)
                .map(|e| Outcome::Records(Box::new(e))),
            Instance::Fleet {
                scenario,
                fleet,
                scratch,
            } => scenario
                .run_streaming_in(
                    strategy,
                    fleet,
                    LEADER,
                    &ParallelSweep::new(threads),
                    scratch,
                )
                .map(Outcome::Fleet),
        };
        outcome.map_err(|e| e.to_string())
    }
}

/// The result of one pass.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// A streaming serving pass.
    Streaming(ServingSummary),
    /// A records-mode serving pass.
    Records(Box<ServingEvaluation>),
    /// A fleet pass.
    Fleet(FleetSummary),
}

/// The simulated model outputs of a pass: printed, never gated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelOutputs {
    /// Median end-to-end latency, ms.
    pub p50_ms: f64,
    /// 99th-percentile end-to-end latency, ms.
    pub p99_ms: f64,
    /// Fraction of completed requests missing their SLA deadline.
    pub miss_rate: f64,
    /// Simulated makespan, s.
    pub makespan_s: f64,
    /// Dynamic energy of the served work, J.
    pub energy_j: f64,
}

impl Outcome {
    /// Offered/completed/dropped accounting.
    pub fn robustness(&self) -> RobustnessStats {
        match self {
            Outcome::Streaming(s) => s.robustness,
            Outcome::Records(e) => e.robustness,
            Outcome::Fleet(f) => f.robustness,
        }
    }

    /// Plan-cache traffic of the pass.
    pub fn plan_cache(&self) -> PlanCacheStats {
        match self {
            Outcome::Streaming(s) => s.plan_cache,
            Outcome::Records(e) => e.evaluation.plan_cache.unwrap_or_default(),
            Outcome::Fleet(f) => f.plan_cache,
        }
    }

    /// Admitted batches.
    pub fn batches(&self) -> usize {
        match self {
            Outcome::Streaming(s) => s.batches,
            Outcome::Records(e) => e.admissions.len(),
            Outcome::Fleet(f) => f.batches,
        }
    }

    /// The outcome with its plan-cache statistics cleared: what must be
    /// equal between passes over the same inputs, whatever the cache held.
    pub fn without_cache_stats(&self) -> Outcome {
        let mut out = self.clone();
        match &mut out {
            Outcome::Streaming(s) => s.plan_cache = PlanCacheStats::default(),
            Outcome::Records(e) => e.evaluation.plan_cache = None,
            Outcome::Fleet(f) => f.plan_cache = PlanCacheStats::default(),
        }
        out
    }

    /// The simulated outputs.
    pub fn model_outputs(&self) -> ModelOutputs {
        match self {
            Outcome::Streaming(s) => ModelOutputs {
                p50_ms: s.latency.p50 * 1e3,
                p99_ms: s.latency.p99 * 1e3,
                miss_rate: s.sla_miss_rate(),
                makespan_s: s.makespan,
                energy_j: s.drift.energy_j,
            },
            Outcome::Records(e) => ModelOutputs {
                p50_ms: e.serving.latency.p50 * 1e3,
                p99_ms: e.serving.latency.p99 * 1e3,
                miss_rate: e.serving.sla_miss_rate(),
                makespan_s: e.evaluation.makespan,
                energy_j: e.evaluation.dynamic_energy,
            },
            Outcome::Fleet(f) => ModelOutputs {
                p50_ms: f.latency.p50 * 1e3,
                p99_ms: f.latency.p99 * 1e3,
                miss_rate: f.sla_miss_rate(),
                makespan_s: f.makespan,
                energy_j: f.drift.energy_j,
            },
        }
    }
}
