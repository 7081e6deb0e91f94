//! The online serving runtime: admission, dynamic batching, SLA classes and
//! node-failure timelines interleaved with planning and simulation on one
//! virtual clock.
//!
//! [`crate::Scenario`] evaluates a *frozen* regime: every request's plan is
//! resolved up front against one cluster state, then the whole stream is
//! simulated. [`ServingScenario`] models the paper's *dynamic* regime
//! (§III, Eq. 4) instead: a virtual-time loop walks request arrivals, a
//! [`ClusterTimeline`] of node failures/recoveries, and service completions;
//! an [`AdmissionPolicy`] picks which queued request is served next; a
//! batcher coalesces up to `max_batch` queued same-model requests into one
//! batched plan; and every admission plans against the *current* epoch's
//! cluster — the epoch's [`Cluster::fingerprint`] is part of the
//! [`crate::PlanKey`], so a timeline flip automatically re-plans through the
//! shared [`PlanCache`] instead of serving a stale plan.
//!
//! # Indexed admission
//!
//! The admission queue ([`IndexedQueue`](self)) is one lazily-pruned heap
//! ordered by `(rank, push seq)`, where the rank is
//! [`AdmissionPolicy::rank`], plus one intrusive list per `(model, batch)`
//! coalesce bucket — all over one flat per-request slot array, no
//! per-entry allocation. Picking the next request is amortised O(log n)
//! under every policy; coalescing a batch walks only the head's bucket,
//! O(batch). The original O(n)-per-pick `Vec` scan survives verbatim as
//! the test oracle `ServingScenario::run_reference`, and a property test
//! (`tests/serving_admission_equivalence.rs`) pins the two
//! **bit-identical** — same admission order, same batch membership, same
//! epochs — across every policy, batching level and timeline.
//!
//! # Measured-completion feedback
//!
//! Admission control gates on **measured** estimated completions: a
//! persistent per-resource dispatch model replays every admitted plan's
//! tasks (the event engine's durations: both take them from
//! [`PlanTask::cost`](hidp_sim::PlanTask::cost)) against the resource free
//! times left by all earlier admissions, so with an in-flight window set
//! ([`ClusterLoopConfig::max_inflight`], clamped to ≥ 1 in one place,
//! where the loop context is built) the window sees queueing *contention*
//! rather than idle-cluster solo makespans — a saturated processor pushes
//! later completions out, which is exactly the feedback a real admission
//! controller observes. In the records mode the reported metrics still come
//! from one full contention-aware simulation of the admitted stream (the
//! event engine releases every subgraph at its *admitted* time and measures
//! latency from *arrival*); in the streaming mode the dispatch model's
//! completions *are* the completions.
//!
//! # One loop, two modes
//!
//! Both modes run the one cluster loop the fleet tier's clusters run too
//! (`crate::cluster_loop`), as a single round to +∞; they differ only in
//! where admitted work is reported. The records mode keeps the admission
//! log for the event engine. [`ServingScenario::run_streaming`] retains
//! **no per-request state**: latency tails go into constant-memory,
//! mergeable [`LatencyHistogram`]s (the same sink the fleet's clusters
//! feed), queueing delay and per-class aggregates into exact sums, and the
//! result is an all-`Copy` [`RunSummary`].
//! After the first pass has sized the scratch buffers, a steady-state
//! streaming pass performs zero heap allocations
//! (`tests/zero_alloc_warm_path.rs`), which is what keeps a 1M-request
//! soak in bounded memory.
//!
//! # The degenerate mode
//!
//! A `ServingScenario` with the default config — FIFO admission,
//! `max_batch == 1`, unbounded in-flight, empty timeline — admits every
//! request at its own arrival instant and is **bit-identical** to
//! [`crate::Scenario::run`] on the same **arrival-ordered** stream (pinned
//! by `tests/serving_equivalence.rs`), so the whole static experiment grid
//! is a special case of this loop. The ordering caveat exists because a
//! serving loop necessarily processes arrivals in time order while the
//! static pipeline preserves input order: on a stream whose requests are
//! not sorted by arrival the two submit requests to the simulator in
//! different orders, which relabels per-request outputs and can change
//! exact-tie scheduling. Every generator in `hidp-workloads` produces
//! arrival-ordered streams.
//!
//! # Failure semantics and recovery
//!
//! By default a timeline flip only re-keys *future* planning
//! ([`FailureMode::Ignore`], the historical behaviour): batches already in
//! flight on the failed node still complete. With [`FailureMode::Kill`] a
//! down-flip *kills* every in-flight batch whose plan touches the failed
//! node; the killed members flow through the configured [`RecoveryPolicy`]
//! — bounded retry with exponential backoff and deterministic jitter
//! (re-planned under the post-failure fingerprint through the shared
//! [`PlanCache`]), deadline abort and queue-time load shedding. Every
//! outcome is accounted in [`RobustnessStats`]: `offered == completed +
//! shed + aborted + lost + in_flight_at_horizon` always holds.
//!
//! `FailureMode::Kill`, recovery policies, straggler [`SlowdownWindow`]s,
//! drift and the adaptive loop run in the **streaming** mode only: the
//! dispatch model owns the completions the kill test needs, and the cluster
//! loop's kill of pending batches is the only kill rule. The records mode
//! is `FailureMode::Ignore` only and rejects all of them up front, so every
//! request it serves completes. Every feature is a branch of the same loop,
//! so arming one with nothing to act on changes no output (pinned by
//! `tests/chaos_robustness.rs` and `tests/drift_adaptive.rs`). Deadlines,
//! retries included, follow the rule in `hidp_sim::serving`.

use crate::adaptive::{AdaptiveConfig, AdaptiveState};
use crate::cluster_loop::{
    arrival_order, validate_requests, ClusterLoop, ClusterLoopConfig, Inbox, LoopCtx, Named,
    RunSummary, Sink, TimeHeap,
};
use crate::plan_cache::{PlanCache, PlanCacheStats};
use crate::scenario::{Evaluation, Scenario};
use crate::strategy::DistributedStrategy;
use crate::{CoreError, PlanKey};
use hidp_dnn::zoo::WorkloadModel;
use hidp_dnn::DnnGraph;
use hidp_platform::{Cluster, ClusterTimeline, DriftModel, NodeIndex, SlowdownWindow};
use hidp_sim::serving::{
    LatencyHistogram, ServedRequestRecord, ServingMetrics, SlaClass, SlaClassReport,
};
use hidp_sim::Ewma;
use hidp_sim::{
    simulate_admitted_stream_in, CompiledPlan, ExecutionPlan, Resource, SimScratch, TraceDetail,
};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

/// One request entering the serving runtime: which model at which batch
/// size, when it arrives, and the SLA class it is served under.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServingRequest {
    /// The DNN model requested.
    pub model: WorkloadModel,
    /// Images per request (the batcher multiplies this when coalescing).
    pub batch: usize,
    /// Arrival time, seconds since scenario start.
    pub arrival: f64,
    /// The SLA class (priority + deadline).
    pub sla: SlaClass,
}

impl ServingRequest {
    /// A single-image [`SlaClass::Standard`] request arriving at `arrival`.
    pub fn new(model: WorkloadModel, arrival: f64) -> Self {
        Self {
            model,
            batch: 1,
            arrival,
            sla: SlaClass::Standard,
        }
    }

    /// Sets the per-request batch size (builder style, clamped to ≥ 1).
    #[must_use]
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch.max(1);
        self
    }

    /// Sets the SLA class (builder style).
    #[must_use]
    pub fn with_sla(mut self, sla: SlaClass) -> Self {
        self.sla = sla;
        self
    }
}

/// How the serving loop picks the next queued request to admit: the one
/// with the lowest [`AdmissionPolicy::rank`], the earliest queued among
/// equal ranks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum AdmissionPolicy {
    /// First in, first out (arrival order; ties by input order).
    #[default]
    Fifo,
    /// Most urgent [`SlaClass`] first; FIFO among equals.
    Priority,
    /// Earliest absolute deadline first (the rule in `hidp_sim::serving`);
    /// FIFO among equals.
    EarliestDeadline,
}

impl AdmissionPolicy {
    /// Short name used in experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            AdmissionPolicy::Fifo => "fifo",
            AdmissionPolicy::Priority => "priority",
            AdmissionPolicy::EarliestDeadline => "edf",
        }
    }

    /// The rank `request` is admitted by; lower ranks go first, equal ranks
    /// in queue order. FIFO ranks every request equal, priority by
    /// [`SlaClass::priority`], and earliest-deadline by `cluster_deadline`:
    /// the request's absolute deadline at the admitting cluster,
    /// `arrival + deadline − WAN` (the rule in `hidp_sim::serving`).
    pub fn rank(&self, request: &ServingRequest, cluster_deadline: f64) -> f64 {
        match self {
            AdmissionPolicy::Fifo => 0.0,
            AdmissionPolicy::Priority => f64::from(request.sla.priority()),
            AdmissionPolicy::EarliestDeadline => cluster_deadline,
        }
    }
}

/// What an availability down-flip does to batches already in flight.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum FailureMode {
    /// Flips only re-key *future* planning (the historical behaviour):
    /// in-flight batches on the failed node still complete.
    #[default]
    Ignore,
    /// Flips kill every in-flight batch whose plan touches the failed
    /// node; the killed members flow through the [`RecoveryPolicy`].
    /// Streaming and fleet runs only. Requires a cluster of ≤ 64 nodes
    /// (plan residency is tracked in a 64-bit node mask).
    Kill,
}

/// Bounded retry with exponential backoff and deterministic jitter on the
/// virtual clock. A killed request's attempt `k` (1-based) is re-released
/// at `kill_time + backoff_base_s · backoff_factor^(k-1) · (1 +
/// jitter_frac · u)` where `u ∈ [0, 1]` is a pure hash of `(seed, request
/// index, k)` — the same seed replays the same jitter, bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Maximum *re*-tries per request (beyond the original attempt); when
    /// exhausted the request is permanently lost.
    pub max_attempts: u32,
    /// First backoff interval, seconds.
    pub backoff_base_s: f64,
    /// Multiplier applied to the backoff per additional attempt.
    pub backoff_factor: f64,
    /// Jitter amplitude as a fraction of the backoff (0 = none).
    pub jitter_frac: f64,
    /// Seed of the deterministic jitter hash.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            backoff_base_s: 0.05,
            backoff_factor: 2.0,
            jitter_frac: 0.5,
            seed: 0x5eed,
        }
    }
}

impl RetryPolicy {
    pub(crate) fn validate(&self) -> Result<(), CoreError> {
        let ok = self.max_attempts >= 1
            && self.backoff_base_s.is_finite()
            && self.backoff_base_s > 0.0
            && self.backoff_factor.is_finite()
            && self.backoff_factor >= 1.0
            && self.jitter_frac.is_finite()
            && self.jitter_frac >= 0.0;
        if ok {
            Ok(())
        } else {
            Err(CoreError::Infeasible {
                what: format!(
                    "retry policy needs attempts ≥ 1, positive finite backoff, \
                     factor ≥ 1 and non-negative jitter (got {self:?})"
                ),
            })
        }
    }
}

/// How the serving loop responds to killed and at-risk requests. The
/// default is no recovery — kills become permanent losses and nothing is
/// shed — which is the no-recovery baseline the chaos gates measure
/// degradation against.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RecoveryPolicy {
    /// Re-queue killed requests with backoff ([`RetryPolicy`]); `None`
    /// means kills are permanent.
    pub retry: Option<RetryPolicy>,
    /// Drop a killed request instead of retrying when its backoff release
    /// already overruns the SLA deadline (the retry could never help).
    pub deadline_abort: bool,
    /// Shed a queued request at pick time when `max(now, earliest free
    /// time over the resources this run has touched)` already overruns its
    /// deadline. That is a start-time estimate, not a bound on its
    /// completion: a plan on resources the run has not touched yet could
    /// still start at `now`.
    pub shed: bool,
}

impl RecoveryPolicy {
    /// Retry with the default backoff plus deadline abort — the standard
    /// recovery configuration the chaos gates run.
    pub fn standard() -> Self {
        Self {
            retry: Some(RetryPolicy::default()),
            deadline_abort: true,
            shed: false,
        }
    }

    /// Whether any recovery response is enabled.
    pub(crate) fn is_active(&self) -> bool {
        self.retry.is_some() || self.deadline_abort || self.shed
    }
}

/// Explicit offered/completed/dropped accounting for one serving run,
/// including recovery traffic. The invariant `offered == completed +
/// dropped() + in_flight_at_horizon` always holds
/// ([`RobustnessStats::accounts_for_every_request`]); fault-free runs
/// report `offered == completed == requests`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RobustnessStats {
    /// Requests offered to the runtime (the input stream).
    pub offered: u64,
    /// Requests that completed (possibly after retries).
    pub completed: u64,
    /// Requests shed at admission (estimated start already past the
    /// deadline; see [`RecoveryPolicy::shed`]).
    pub shed: u64,
    /// Killed requests dropped because their retry release would already
    /// overrun the deadline.
    pub aborted: u64,
    /// Requests permanently lost (killed with retries exhausted or
    /// disabled).
    pub lost: u64,
    /// Kill events (a request retried and killed again counts once per
    /// kill).
    pub killed: u64,
    /// Retry attempts re-queued.
    pub retried: u64,
    /// Requests still unresolved when the run ended (0 for serving runs,
    /// which drain; fleet rounds can truncate).
    pub in_flight_at_horizon: u64,
}

impl RobustnessStats {
    /// The accounting for a run where everything offered completed.
    pub(crate) fn all_completed(n: usize) -> Self {
        Self {
            offered: n as u64,
            completed: n as u64,
            ..Self::default()
        }
    }

    /// Requests dropped for any reason (shed + aborted + lost).
    pub fn dropped(&self) -> u64 {
        self.shed + self.aborted + self.lost
    }

    /// Whether the conservation invariant holds: every offered request is
    /// completed, dropped, or still in flight.
    pub fn accounts_for_every_request(&self) -> bool {
        self.offered == self.completed + self.dropped() + self.in_flight_at_horizon
    }

    /// `total` over the completed requests: the per-request mean rule of
    /// both tiers. A shed, aborted or lost request has no latency and no
    /// queueing delay, so it is not in the denominator either.
    pub(crate) fn per_completed(&self, total: f64) -> f64 {
        total / self.completed as f64
    }

    /// Completed requests per second over `seconds` of simulated time (0
    /// for an empty span): the throughput rule of both tiers, which counts
    /// what was served, not what was offered.
    pub(crate) fn completed_per_second(&self, seconds: f64) -> f64 {
        if seconds <= 0.0 {
            return 0.0;
        }
        self.completed as f64 / seconds
    }

    /// Field-wise accumulation (fleet rollup).
    pub fn merge(&mut self, other: &Self) {
        self.offered += other.offered;
        self.completed += other.completed;
        self.shed += other.shed;
        self.aborted += other.aborted;
        self.lost += other.lost;
        self.killed += other.killed;
        self.retried += other.retried;
        self.in_flight_at_horizon += other.in_flight_at_horizon;
    }
}

/// Configuration of the serving loop: the cluster loop's knobs plus the
/// one cluster's fault inputs. The default is the degenerate mode: FIFO, no
/// batching, unbounded in-flight, static cluster — exactly the regime
/// [`crate::Scenario`] evaluates.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ServingConfig {
    /// Admission, batching, window, failure, recovery and adaptive knobs.
    /// Kill semantics, recovery and the adaptive loop are streaming-mode
    /// only.
    pub cluster_loop: ClusterLoopConfig,
    /// Timed node failures/recoveries replayed while serving.
    pub timeline: ClusterTimeline,
    /// Straggler windows the dispatch estimator replays: compute starting
    /// inside a window on its node runs `factor`× slower. Streaming-mode
    /// only.
    pub slowdowns: Vec<SlowdownWindow>,
    /// Continuous drift the dispatch estimator replays: throttle curves
    /// per node, seeded background-load windows and contention-dependent
    /// bandwidth. Empty = no drift (bit-identical to the drift-free
    /// arithmetic). Streaming-mode only.
    pub drift: DriftModel,
}

/// One admission the serving loop performed: when, under which epoch, and
/// which requests (by input index) the batch served.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdmittedBatch {
    /// Admission (release) time, seconds.
    pub admitted: f64,
    /// Cluster epoch the batch was planned under (number of timeline events
    /// applied before planning).
    pub epoch: usize,
    /// Input indices of the requests the batch serves, arrival order.
    pub members: Vec<usize>,
}

/// A serving workload: requests plus the [`ServingConfig`] governing
/// admission, batching and the failure timeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingScenario {
    label: String,
    requests: Vec<ServingRequest>,
    config: ServingConfig,
    trace: TraceDetail,
}

impl ServingScenario {
    /// Wraps `requests` with the degenerate default config; labelled
    /// `serving[n]`.
    pub fn new(requests: Vec<ServingRequest>) -> Self {
        let label = format!("serving[{}]", requests.len());
        Self {
            label,
            requests,
            config: ServingConfig::default(),
            trace: TraceDetail::Full,
        }
    }

    /// Replaces the report label (builder style).
    #[must_use]
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Sets the admission policy (builder style).
    #[must_use]
    pub fn with_policy(mut self, policy: AdmissionPolicy) -> Self {
        self.config.cluster_loop.policy = policy;
        self
    }

    /// Sets the batching limit (builder style; 0 runs as 1).
    #[must_use]
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.config.cluster_loop.max_batch = max_batch;
        self
    }

    /// Sets the in-flight admission window (builder style; `Some(0)` runs
    /// as `Some(1)`).
    #[must_use]
    pub fn with_max_inflight(mut self, max_inflight: Option<usize>) -> Self {
        self.config.cluster_loop.max_inflight = max_inflight;
        self
    }

    /// Sets the failure timeline (builder style).
    #[must_use]
    pub fn with_timeline(mut self, timeline: ClusterTimeline) -> Self {
        self.config.timeline = timeline;
        self
    }

    /// Sets what down-flips do to in-flight batches (builder style).
    #[must_use]
    pub fn with_failure_mode(mut self, failures: FailureMode) -> Self {
        self.config.cluster_loop.failures = failures;
        self
    }

    /// Sets the recovery policy (builder style).
    #[must_use]
    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.config.cluster_loop.recovery = recovery;
        self
    }

    /// Sets the straggler slowdown windows (builder style).
    #[must_use]
    pub fn with_slowdowns(mut self, slowdowns: Vec<SlowdownWindow>) -> Self {
        self.config.slowdowns = slowdowns;
        self
    }

    /// Sets the continuous drift model (builder style).
    #[must_use]
    pub fn with_drift(mut self, drift: DriftModel) -> Self {
        self.config.drift = drift;
        self
    }

    /// Enables the adaptive estimation/re-planning loop (builder style).
    #[must_use]
    pub fn with_adaptive(mut self, adaptive: AdaptiveConfig) -> Self {
        self.config.cluster_loop.adaptive = Some(adaptive);
        self
    }

    /// Sets how much of the execution trace simulation materialises
    /// (builder style); serving aggregates are identical in both modes.
    #[must_use]
    pub fn with_trace_detail(mut self, trace: TraceDetail) -> Self {
        self.trace = trace;
        self
    }

    /// The report label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The requests, input order.
    pub fn requests(&self) -> &[ServingRequest] {
        &self.requests
    }

    /// The serving configuration.
    pub fn config(&self) -> &ServingConfig {
        &self.config
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the scenario has no requests (such a scenario cannot run).
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Runs the serving loop with a scenario-local [`PlanCache`].
    ///
    /// # Errors
    ///
    /// Returns an error when the scenario is empty, a request or timeline
    /// event is invalid, or planning/simulation fails.
    pub fn run(
        &self,
        strategy: &dyn DistributedStrategy,
        cluster: &Cluster,
        leader: NodeIndex,
    ) -> Result<ServingEvaluation, CoreError> {
        self.run_with_cache(strategy, cluster, leader, &PlanCache::new())
    }

    /// [`ServingScenario::run`] against a caller-owned [`PlanCache`], for
    /// plan reuse across runs (batched plans and per-epoch replans share
    /// the same `(strategy, graph, batch, leader, cluster-epoch)` keys the
    /// static pipeline uses).
    ///
    /// # Errors
    ///
    /// Same conditions as [`ServingScenario::run`].
    pub fn run_with_cache(
        &self,
        strategy: &dyn DistributedStrategy,
        cluster: &Cluster,
        leader: NodeIndex,
        cache: &PlanCache,
    ) -> Result<ServingEvaluation, CoreError> {
        let mut scratch = ServingScratch::new();
        self.run_with_cache_in(strategy, cluster, leader, cache, &mut scratch)
    }

    /// [`ServingScenario::run_with_cache`] against caller-owned working
    /// memory (what sweep workers use). Results are bit-identical to the
    /// other entry points.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ServingScenario::run`].
    pub fn run_with_cache_in(
        &self,
        strategy: &dyn DistributedStrategy,
        cluster: &Cluster,
        leader: NodeIndex,
        cache: &PlanCache,
        scratch: &mut ServingScratch,
    ) -> Result<ServingEvaluation, CoreError> {
        let ctx = self.records_mode_ctx(strategy, cluster, leader, cache)?;
        let mut log = AdmissionLog {
            requests: &self.requests,
            stream: Vec::new(),
            batches: Vec::new(),
        };
        self.run_loop(&ctx, scratch, &mut log)?;
        let outcome = AdmissionOutcome {
            stream: log.stream,
            batches: log.batches,
            stats: scratch.cluster.stats,
            epochs_applied: scratch.cluster.epoch,
        };
        self.finish(strategy, cluster, outcome, &mut scratch.sim)
    }

    /// [`ServingScenario::run`] through the original `Vec`-scan admission
    /// loop, kept as the frozen baseline for the indexed structure. Output
    /// is bit-identical to [`ServingScenario::run`] (pinned by
    /// `tests/serving_admission_equivalence.rs`); complexity is O(n) per
    /// admission instead of O(log n). Exists for the equivalence tests —
    /// new code should call [`ServingScenario::run`]. Hidden from the
    /// documented API: it is a test oracle, not a second way to serve.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ServingScenario::run`].
    #[doc(hidden)]
    pub fn run_reference(
        &self,
        strategy: &dyn DistributedStrategy,
        cluster: &Cluster,
        leader: NodeIndex,
    ) -> Result<ServingEvaluation, CoreError> {
        let cache = PlanCache::new();
        let ctx = self.records_mode_ctx(strategy, cluster, leader, &cache)?;
        let outcome = self.admission_loop_reference(&ctx)?;
        let mut scratch = SimScratch::new();
        self.finish(strategy, cluster, outcome, &mut scratch)
    }

    /// Runs the serving loop in **streaming** mode: same indexed admission,
    /// but no per-request records, no admission log and no full-stream
    /// simulation — completions come from the dispatch model, latency tails
    /// from constant-memory latency histograms, and the result is the all-`Copy`
    /// [`RunSummary`]. Memory is O(requests) for the input plus O(1)
    /// for the aggregates, which is what the 1M-request soak runs on.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ServingScenario::run`].
    pub fn run_streaming(
        &self,
        strategy: &dyn DistributedStrategy,
        cluster: &Cluster,
        leader: NodeIndex,
    ) -> Result<RunSummary, CoreError> {
        let mut scratch = ServingScratch::new();
        self.run_streaming_with_cache_in(strategy, cluster, leader, &PlanCache::new(), &mut scratch)
    }

    /// [`ServingScenario::run_streaming`] against a caller-owned
    /// [`PlanCache`] and [`ServingScratch`]. After the first pass has sized
    /// the scratch, a steady-state pass over the same workload shape
    /// performs zero heap allocations (`tests/zero_alloc_warm_path.rs`).
    ///
    /// # Errors
    ///
    /// Same conditions as [`ServingScenario::run`].
    pub fn run_streaming_with_cache_in(
        &self,
        strategy: &dyn DistributedStrategy,
        cluster: &Cluster,
        leader: NodeIndex,
        cache: &PlanCache,
        scratch: &mut ServingScratch,
    ) -> Result<RunSummary, CoreError> {
        let ctx = self.loop_ctx(strategy, cluster, leader, cache)?;
        let mut tails = Tails::new();
        self.run_loop(&ctx, scratch, &mut tails)?;
        let n = self.requests.len();
        RunSummary::of(self.named(), n, 1, [(&scratch.cluster, &tails, n, 0.0)])
    }

    /// Runs the cluster loop over the whole scenario as one round to +∞,
    /// reporting into `sink`; the loop's counters stay in
    /// `scratch.cluster`.
    fn run_loop<S: Sink>(
        &self,
        ctx: &LoopCtx<'_>,
        scratch: &mut ServingScratch,
        sink: &mut S,
    ) -> Result<(), CoreError> {
        let requests = &self.requests;
        let ServingScratch {
            order,
            cluster: run,
            ..
        } = scratch;
        arrival_order(order, requests.len(), |i| requests[i].arrival);
        run.reset(ctx, requests.len());
        let mut inbox = LocalInbox { requests, order };
        run.advance_until(ctx, &mut inbox, sink, f64::INFINITY)
    }

    fn named(&self) -> Named<'_> {
        Named("serving", &self.label)
    }

    /// The validated context of this scenario's cluster loop — shared by
    /// every entry point.
    fn loop_ctx<'a>(
        &'a self,
        strategy: &'a dyn DistributedStrategy,
        cluster: &'a Cluster,
        leader: NodeIndex,
        cache: &'a PlanCache,
    ) -> Result<LoopCtx<'a>, CoreError> {
        validate_requests(self.named(), self.requests.iter())?;
        let config = &self.config;
        let ctx = LoopCtx::new(strategy, leader, cluster, cache, config.cluster_loop).with_faults(
            config.timeline.events(),
            &config.slowdowns,
            Some(&config.drift),
        );
        ctx.validate(self.named())?;
        Ok(ctx)
    }

    /// `ServingScenario::loop_ctx` for the records modes. Kill semantics,
    /// recovery policies, slowdown windows, drift and the adaptive loop
    /// need the dispatch model to own the completions, so they are
    /// streaming-only; the records modes reject them up front. A timeline
    /// flip there only re-keys later planning ([`FailureMode::Ignore`]).
    fn records_mode_ctx<'a>(
        &'a self,
        strategy: &'a dyn DistributedStrategy,
        cluster: &'a Cluster,
        leader: NodeIndex,
        cache: &'a PlanCache,
    ) -> Result<LoopCtx<'a>, CoreError> {
        let ctx = self.loop_ctx(strategy, cluster, leader, cache)?;
        if ctx.kill()
            || ctx.config.recovery.is_active()
            || !ctx.slowdowns.is_empty()
            || ctx.drift.is_some()
            || ctx.config.adaptive.is_some()
        {
            return Err(self.named().infeasible(format_args!(
                "FailureMode::Kill, recovery policies, slowdown windows, drift \
                 models and the adaptive loop are streaming-only (use \
                 run_streaming); the records mode is FailureMode::Ignore only"
            )));
        }
        Ok(ctx)
    }

    /// The original `Vec`-scan admission loop, kept as the frozen
    /// baseline for [`ServingScenario::run`]'s indexed queue: every pick
    /// scans the whole queue (O(n)) and every coalesce removes members by
    /// position. It shares the [`DispatchEstimator`] with the indexed loop,
    /// so the two differ only in the queue data structure — which is
    /// exactly what the equivalence property test pins.
    fn admission_loop_reference(&self, ctx: &LoopCtx<'_>) -> Result<AdmissionOutcome, CoreError> {
        let requests = &self.requests;
        let n = requests.len();
        let (strategy, cluster, leader, cache) = (ctx.strategy, ctx.base, ctx.leader, ctx.cache);
        let mut order = Vec::new();
        arrival_order(&mut order, n, |i| requests[i].arrival);

        let mut epoch_cluster = cluster.clone();
        let mut key = PlanKey::for_run(strategy, &epoch_cluster, leader);
        let mut graphs: HashMap<(WorkloadModel, usize), Arc<DnnGraph>> = HashMap::new();
        let mut dispatch = DispatchEstimator::default();
        let mut stats = PlanCacheStats::default();

        let events = ctx.events;
        let mut next_event = 0usize;
        let mut epoch = 0usize;

        let mut queue: Vec<usize> = Vec::new();
        let mut inflight = TimeHeap::default();
        let mut next_arrival = 0usize;
        let mut now = 0.0f64;

        let mut stream: Vec<(f64, f64, Arc<ExecutionPlan>)> = Vec::new();
        let mut batches: Vec<AdmittedBatch> = Vec::new();

        loop {
            // Admit everything the window allows at the current instant.
            while !queue.is_empty() && ctx.config.max_inflight.is_none_or(|w| inflight.len() < w) {
                let head_pos = policy_pick(ctx.config.policy, requests, &queue);
                let head = queue[head_pos];
                let batch_key = (requests[head].model, requests[head].batch);
                // Coalesce: the head plus queued same-(model, batch)
                // requests in queue (arrival) order, up to max_batch.
                let mut member_positions = vec![head_pos];
                for (pos, &idx) in queue.iter().enumerate() {
                    if member_positions.len() >= ctx.config.max_batch {
                        break;
                    }
                    if pos != head_pos && (requests[idx].model, requests[idx].batch) == batch_key {
                        member_positions.push(pos);
                    }
                }
                member_positions.sort_unstable();
                let members: Vec<usize> = member_positions.iter().map(|&pos| queue[pos]).collect();
                for &pos in member_positions.iter().rev() {
                    queue.remove(pos);
                }

                let combined = batch_key.1 * members.len();
                let graph = graphs
                    .entry((batch_key.0, combined))
                    .or_insert_with(|| Arc::new(batch_key.0.graph(combined)));
                key.graph_fingerprint = graph.fingerprint();
                key.batch = graph.input_shape().batch();
                let (plan, hit) =
                    cache.plan_keyed(&key, strategy, graph, &epoch_cluster, leader)?;
                if hit {
                    stats.hits += 1;
                } else {
                    stats.misses += 1;
                }

                if ctx.config.max_inflight.is_some() {
                    inflight.push(dispatch.estimate(plan.as_ref(), cluster, now)?, ());
                }

                // The batch's sim arrival is its earliest member's (members
                // are in arrival order).
                stream.push((requests[members[0]].arrival, now, Arc::clone(&plan)));
                batches.push(AdmittedBatch {
                    admitted: now,
                    epoch,
                    members,
                });
            }

            if next_arrival >= n && queue.is_empty() {
                break;
            }

            // Blocked: wait for the next arrival or (when the window is
            // full) the next estimated completion, whichever comes first.
            let mut t = f64::INFINITY;
            if next_arrival < n {
                t = requests[order[next_arrival] as usize].arrival + 0.0;
            }
            if let Some(soonest) = inflight.peek_time().filter(|_| !queue.is_empty()) {
                t = t.min(soonest);
            }
            // Replay timeline events due by then: each flip starts a new
            // epoch whose cluster fingerprint re-keys all later planning.
            while next_event < events.len() && events[next_event].time <= t {
                let event = &events[next_event];
                epoch_cluster.set_available(event.node, event.up)?;
                key.cluster_fingerprint = epoch_cluster.fingerprint();
                epoch += 1;
                next_event += 1;
            }
            if t > now {
                now = t;
            }
            while inflight.pop_due(now).is_some() {}
            while next_arrival < n && requests[order[next_arrival] as usize].arrival + 0.0 <= now {
                queue.push(order[next_arrival] as usize);
                next_arrival += 1;
            }
        }

        Ok(AdmissionOutcome {
            stream,
            batches,
            stats,
            epochs_applied: epoch,
        })
    }

    /// Simulates the admitted stream and assembles the evaluation: one
    /// contention-aware pass of the event engine (subgraphs released at
    /// admitted times), per-request latency/queueing attribution, SLA
    /// aggregates and energy accounting.
    fn finish(
        &self,
        strategy: &dyn DistributedStrategy,
        cluster: &Cluster,
        outcome: AdmissionOutcome,
        scratch: &mut SimScratch,
    ) -> Result<ServingEvaluation, CoreError> {
        let AdmissionOutcome {
            stream,
            batches,
            stats,
            epochs_applied,
        } = outcome;
        let report = simulate_admitted_stream_in(scratch, &stream, cluster, self.trace)?.clone();

        let n = self.requests.len();
        let mut records = vec![
            ServedRequestRecord {
                arrival: 0.0,
                admitted: 0.0,
                completion: 0.0,
                sla: SlaClass::Standard,
            };
            n
        ];
        let mut latencies = vec![0.0f64; n];
        for (b, batch) in batches.iter().enumerate() {
            let completion = report.request_completion[b];
            for &i in &batch.members {
                let request = &self.requests[i];
                records[i] = ServedRequestRecord {
                    arrival: request.arrival,
                    admitted: batch.admitted,
                    completion,
                    sla: request.sla,
                };
                latencies[i] = completion - request.arrival;
            }
        }
        let serving = ServingMetrics::from_records(&records).ok_or_else(|| {
            self.named()
                .infeasible(format_args!("no request completed"))
        })?;

        // Per *request* (input order), not per batch — a batched request's
        // latency runs from its own arrival to its batch's completion.
        let mut evaluation =
            Scenario::evaluation_from(strategy.name(), &self.label, report, latencies, cluster)?;
        evaluation.plan_cache = Some(stats);
        Ok(ServingEvaluation {
            evaluation,
            serving,
            records,
            admissions: batches,
            epochs_applied,
            robustness: RobustnessStats::all_completed(n),
        })
    }
}

/// The queue position `policy` admits next (queue is in arrival order, so
/// FIFO is position 0 and every tie breaks toward the earlier position).
/// Used only by the reference loop; the indexed queue reproduces these
/// semantics without the scan.
fn policy_pick(policy: AdmissionPolicy, requests: &[ServingRequest], queue: &[usize]) -> usize {
    match policy {
        AdmissionPolicy::Fifo => 0,
        AdmissionPolicy::Priority => queue
            .iter()
            .enumerate()
            .min_by_key(|(_, &idx)| requests[idx].sla.priority())
            .map(|(pos, _)| pos)
            .expect("queue is non-empty"),
        AdmissionPolicy::EarliestDeadline => queue
            .iter()
            .enumerate()
            .min_by(|(_, &a), (_, &b)| {
                let da = requests[a].arrival + requests[a].sla.deadline_seconds();
                let db = requests[b].arrival + requests[b].sla.deadline_seconds();
                da.total_cmp(&db)
            })
            .map(|(pos, _)| pos)
            .expect("queue is non-empty"),
    }
}

/// The serving tier's request side: the scenario's requests in arrival
/// order, no WAN, and killed requests retry on this same cluster.
struct LocalInbox<'a> {
    requests: &'a [ServingRequest],
    order: &'a [u32],
}

impl Inbox for LocalInbox<'_> {
    fn requests(&self) -> &[ServingRequest] {
        self.requests
    }

    fn arrival(&self, k: usize) -> Option<u32> {
        self.order.get(k).copied()
    }

    fn wan(&self, _i: u32) -> f64 {
        0.0
    }

    fn id(&self, i: u32) -> u32 {
        i
    }

    fn requeue(&mut self, retries: &mut TimeHeap<u32>, i: u32, release: f64, _attempt: u32) {
        retries.push(release, i);
    }
}

/// The records mode's sink: the admission log the event engine replays.
struct AdmissionLog<'a> {
    requests: &'a [ServingRequest],
    stream: Vec<(f64, f64, Arc<ExecutionPlan>)>,
    batches: Vec<AdmittedBatch>,
}

impl Sink for AdmissionLog<'_> {
    fn admit(&mut self, admitted: f64, epoch: usize, members: &[u32], plan: &Arc<ExecutionPlan>) {
        // The batch's sim arrival is its earliest member's (members are in
        // arrival order).
        let arrival = self.requests[members[0] as usize].arrival;
        self.stream.push((arrival, admitted, Arc::clone(plan)));
        self.batches.push(AdmittedBatch {
            admitted,
            epoch,
            members: members.iter().map(|&m| m as usize).collect(),
        });
    }
}

/// The streaming sink of both tiers: [`LatencyHistogram`]s of latency (WAN
/// round trip included; it is zero on the serving tier) per class and over
/// retried completions, plus exact queueing sums and deadline counts. Every
/// part merges exactly, so a fleet rolls its per-cluster sinks up into one,
/// and the overall histogram is the merge of the per-class ones.
#[derive(Debug)]
pub(crate) struct Tails {
    class_latency: [LatencyHistogram; 3],
    /// Completions of a request on a later attempt: their latency is the
    /// recovery cost.
    pub(crate) recovered_latency: LatencyHistogram,
    pub(crate) queueing_sum: f64,
    pub(crate) queueing_max: f64,
    class_queueing_sum: [f64; 3],
    class_misses: [usize; 3],
    pub(crate) deadline_misses: usize,
}

impl Tails {
    pub(crate) fn new() -> Self {
        Self {
            class_latency: [LatencyHistogram::new(); 3],
            recovered_latency: LatencyHistogram::new(),
            queueing_sum: 0.0,
            queueing_max: 0.0,
            class_queueing_sum: [0.0; 3],
            class_misses: [0; 3],
            deadline_misses: 0,
        }
    }

    /// Adds another sink's observations to this one.
    pub(crate) fn merge(&mut self, other: &Self) {
        self.recovered_latency.merge(&other.recovered_latency);
        for c in 0..3 {
            self.class_latency[c].merge(&other.class_latency[c]);
            self.class_queueing_sum[c] += other.class_queueing_sum[c];
            self.class_misses[c] += other.class_misses[c];
        }
        self.queueing_sum += other.queueing_sum;
        if other.queueing_max > self.queueing_max {
            self.queueing_max = other.queueing_max;
        }
        self.deadline_misses += other.deadline_misses;
    }

    /// The latency histogram over every class.
    pub(crate) fn latency(&self) -> LatencyHistogram {
        let [mut all, standard, best_effort] = self.class_latency;
        all.merge(&standard);
        all.merge(&best_effort);
        all
    }

    /// Per-class reports indexed by [`SlaClass::priority`]; `None` for
    /// classes with no completion.
    pub(crate) fn per_class(&self) -> [Option<SlaClassReport>; 3] {
        let mut per_class = [None; 3];
        for (c, &class) in SlaClass::ALL.iter().enumerate() {
            if let Some(latency) = self.class_latency[c].summary() {
                per_class[c] = Some(SlaClassReport {
                    class,
                    latency,
                    mean_queueing_delay: self.class_queueing_sum[c] / latency.count as f64,
                    deadline_misses: self.class_misses[c],
                });
            }
        }
        per_class
    }
}

impl Sink for Tails {
    fn complete(
        &mut self,
        request: &ServingRequest,
        wan: f64,
        retried: bool,
        admitted: f64,
        completion: f64,
    ) {
        let latency = completion - request.arrival + wan;
        let delay = admitted - request.arrival;
        if retried {
            self.recovered_latency.observe(latency);
        }
        self.queueing_sum += delay;
        if delay > self.queueing_max {
            self.queueing_max = delay;
        }
        let class = request.sla.priority() as usize;
        self.class_latency[class].observe(latency);
        self.class_queueing_sum[class] += delay;
        if latency > request.sla.deadline_seconds() {
            self.deadline_misses += 1;
            self.class_misses[class] += 1;
        }
    }
}

/// What the admission loop hands to the simulation half.
struct AdmissionOutcome {
    stream: Vec<(f64, f64, Arc<ExecutionPlan>)>,
    batches: Vec<AdmittedBatch>,
    stats: PlanCacheStats,
    epochs_applied: usize,
}

/// The result of one served scenario: the familiar [`Evaluation`] (latencies
/// are per *request* in input order; the report is per admitted *batch*)
/// plus serving-quality metrics and the admission log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingEvaluation {
    /// Strategy/label/latency/energy metrics, shaped exactly like the static
    /// pipeline's output (bit-identical to it in the degenerate mode).
    pub evaluation: Evaluation,
    /// SLA-class latency tails, queueing delay and deadline accounting.
    pub serving: ServingMetrics,
    /// Per-request served life cycle (arrival → admitted → completed), input
    /// order.
    pub records: Vec<ServedRequestRecord>,
    /// The admission log: one entry per batch, in admission order.
    pub admissions: Vec<AdmittedBatch>,
    /// Timeline events applied during the run (the final epoch number).
    pub epochs_applied: usize,
    /// Offered/completed/dropped accounting (every request completes: the
    /// records mode is [`FailureMode::Ignore`] only).
    pub robustness: RobustnessStats,
}

impl ServingEvaluation {
    /// Completed requests per second of simulated time (completions over
    /// the serving makespan).
    pub fn requests_per_second(&self) -> f64 {
        self.robustness
            .completed_per_second(self.evaluation.makespan)
    }
}

/// Reusable working memory for the serving loop: the embedded [`SimScratch`]
/// (records-mode simulation), the arrival order, and the cluster loop's
/// state — indexed queue, plan key, graph table, dispatch model, pending
/// FIFO, retry heap and adaptive estimators.
///
/// Create one per worker thread and pass it to every serving run that
/// thread performs: after the first run of a given workload shape, a
/// steady-state streaming pass performs **zero** heap allocations — every
/// buffer is cleared and refilled in place. `tests/zero_alloc_warm_path.rs`
/// asserts this with a counting allocator.
#[derive(Debug)]
pub struct ServingScratch {
    sim: SimScratch,
    order: Vec<u32>,
    cluster: ClusterLoop,
}

impl ServingScratch {
    /// Creates an empty scratch (no buffers are allocated until first use).
    pub fn new() -> Self {
        Self {
            sim: SimScratch::new(),
            order: Vec::new(),
            cluster: ClusterLoop::new(),
        }
    }

    /// The adaptive loop's per-node effective-rate estimators after the
    /// most recent run on this scratch (empty when the adaptive loop was
    /// off). Exposed so convergence tests can assert the estimates track
    /// an injected slowdown.
    pub fn drift_estimates(&self) -> &[Ewma] {
        &self.cluster.adaptive.est
    }
}

impl Default for ServingScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// Sentinel for "no index" in the bucket lists and "not queued" in a
/// slot's push sequence.
const NONE: u32 = u32::MAX;

/// One request index's queue state: its push sequence while queued and its
/// place in its coalesce bucket's list.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Push sequence (= queue order) while queued, [`NONE`] otherwise.
    seq: u32,
    next: u32,
    prev: u32,
    bucket: u32,
}

const UNQUEUED: Slot = Slot {
    seq: NONE,
    next: NONE,
    prev: NONE,
    bucket: NONE,
};

/// A heap entry: ordered by rank, ties by push sequence (= queue order),
/// which reproduces the reference scan's first-minimum tie-break.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Ranked {
    rank: f64,
    seq: u32,
    idx: u32,
}

impl Eq for Ranked {}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.rank
            .total_cmp(&other.rank)
            .then(self.seq.cmp(&other.seq))
    }
}

/// The indexed admission queue: one lazily-pruned heap of
/// `(rank, push seq)` entries that every policy picks from, plus one
/// intrusive doubly-linked list per `(model, batch)` coalesce bucket, all
/// over one flat per-request slot array.
///
/// - Pick: the heap top, popping stale entries, amortised O(log n). An
///   entry is live only while its request's *current* push sequence equals
///   the entry's: a request that left the queue and was queued again (a
///   retry) ranks at its re-entry position, never by an earlier entry.
/// - Coalesce: walk the head's bucket list (in push order), O(batch).
/// - Remove: unlink from the bucket list, O(1); the heap entry goes stale.
///
/// The rank comes from [`AdmissionPolicy::rank`], so the queue itself holds
/// no policy. Bucket ids persist across runs (`bucket_ids` is never
/// cleared), so a steady-state pass re-derives every bucket without
/// hashing allocations.
///
/// `pub(crate)` for the cluster loop, whose request list may grow round by
/// round as the fleet router delivers ([`IndexedQueue::ensure`]).
#[derive(Debug, Default)]
pub(crate) struct IndexedQueue {
    /// One slot per request index.
    slots: Vec<Slot>,
    /// `(head, tail)` per bucket id.
    buckets: Vec<(u32, u32)>,
    /// `(model, batch) → bucket id`; persists across runs.
    bucket_ids: HashMap<(WorkloadModel, usize), u32>,
    heap: BinaryHeap<Reverse<Ranked>>,
    len: usize,
    next_seq: u32,
}

impl IndexedQueue {
    /// Clears the queue for a run over `n` requests, keeping capacity (and
    /// the persistent bucket-id table).
    pub(crate) fn reset(&mut self, n: usize) {
        self.slots.clear();
        for bucket in &mut self.buckets {
            *bucket = (NONE, NONE);
        }
        self.heap.clear();
        self.len = 0;
        self.next_seq = 0;
        self.ensure(n);
    }

    /// Grows the slot array to cover request indices `< n` (no-op when
    /// already large enough). Within retained capacity this is
    /// allocation-free, which keeps warm fleet rounds zero-alloc.
    pub(crate) fn ensure(&mut self, n: usize) {
        if self.slots.len() < n {
            self.slots.resize(n, UNQUEUED);
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Enqueues `idx`, whose request is `request`, at the back of the queue
    /// under `rank` ([`AdmissionPolicy::rank`]). `idx` must not be queued.
    pub(crate) fn push(&mut self, idx: u32, request: &ServingRequest, rank: f64) {
        debug_assert_eq!(self.slots[idx as usize].seq, NONE);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        let next_id = self.bucket_ids.len() as u32;
        let bucket = *self
            .bucket_ids
            .entry((request.model, request.batch))
            .or_insert(next_id);
        if bucket as usize >= self.buckets.len() {
            self.buckets.push((NONE, NONE));
        }
        let (head, tail) = &mut self.buckets[bucket as usize];
        let prev = *tail;
        if prev == NONE {
            *head = idx;
        } else {
            self.slots[prev as usize].next = idx;
        }
        *tail = idx;
        self.slots[idx as usize] = Slot {
            seq,
            next: NONE,
            prev,
            bucket,
        };
        self.heap.push(Reverse(Ranked { rank, seq, idx }));
    }

    /// The queued request with the lowest rank, the earliest queued among
    /// equals. The queue must be non-empty.
    pub(crate) fn pick(&mut self) -> u32 {
        while let Some(&Reverse(top)) = self.heap.peek() {
            if self.slots[top.idx as usize].seq == top.seq {
                return top.idx;
            }
            // Stale: the request left the queue (and may be back under a
            // newer entry).
            self.heap.pop();
        }
        unreachable!("a non-empty queue has a live heap entry")
    }

    /// Collects the batch the head coalesces into `out`: the head plus the
    /// first `max_batch - 1` same-bucket requests in queue order, sorted by
    /// queue position — exactly the reference scan's member set and order.
    pub(crate) fn coalesce(&self, head: u32, max_batch: usize, out: &mut Vec<u32>) {
        out.clear();
        out.push(head);
        let bucket = self.slots[head as usize].bucket as usize;
        let mut cursor = self.buckets[bucket].0;
        while cursor != NONE && out.len() < max_batch {
            if cursor != head {
                out.push(cursor);
            }
            cursor = self.slots[cursor as usize].next;
        }
        out.sort_unstable_by_key(|&idx| self.slots[idx as usize].seq);
    }

    /// Dequeues `idx` (its heap entry is pruned lazily by
    /// [`IndexedQueue::pick`]).
    pub(crate) fn remove(&mut self, idx: u32) {
        let Slot {
            seq,
            next,
            prev,
            bucket,
        } = self.slots[idx as usize];
        debug_assert_ne!(seq, NONE);
        self.len -= 1;
        let (head, tail) = &mut self.buckets[bucket as usize];
        if prev == NONE {
            *head = next;
        } else {
            self.slots[prev as usize].next = next;
        }
        if next == NONE {
            *tail = prev;
        } else {
            self.slots[next as usize].prev = prev;
        }
        self.slots[idx as usize] = UNQUEUED;
    }
}

/// The admission layer's measured-completion model: a persistent
/// per-resource free-time vector that every admitted plan is list-scheduled
/// against, in submission order, with the **task durations and resources
/// the event engine uses** — both take them from
/// [`PlanTask::cost`](hidp_sim::PlanTask::cost) (sublinear batched compute,
/// network transfer times, free same-node moves). Because the free times
/// persist across batches, an estimate sees the congestion every earlier
/// admission left behind — the feedback that replaces the old idle-cluster
/// solo-makespan estimate.
///
/// It is an *estimate*, not a re-simulation: within one batch, tasks commit
/// in submission order rather than the engine's global earliest-start
/// order, which keeps the per-admission cost at O(tasks) with no heap. In
/// streaming mode these estimates are the reported completions; in records
/// mode they only gate the admission window while the reported metrics come
/// from the full event engine.
///
/// Estimation is split in two. [`DispatchEstimator::compile`] compiles a
/// plan against the execution cluster once — the event engine's
/// [`CompiledPlan::compile`], interning resources into this run's dense
/// ids — and [`DispatchEstimator::run`] then replays the [`CompiledPlan`]
/// against the free times with no hashing and no cluster lookups. The
/// cluster loop compiles each distinct plan once per run and keeps it in
/// its plan memo, so every later admission of the plan is a `run` alone
/// (and a memo hit counts as a plan-cache hit). Resource ids are only
/// meaningful within one run: `reset` clears the intern table, so a plan
/// must be compiled again after it.
///
/// `pub(crate)` so every cluster loop owns one, and so the fleet router can
/// read [`DispatchEstimator::horizon`] as its least-loaded backlog signal.
#[derive(Debug, Default)]
pub(crate) struct DispatchEstimator {
    /// Interned resource ids of this run (`free` has one slot per entry).
    resource_ids: HashMap<Resource, u32>,
    /// Free time per resource id, reset to 0 each run.
    free: Vec<f64>,
    /// Per-task finish times within the current plan (indexed by task id).
    finish: Vec<f64>,
    /// Dynamic compute energy of everything estimated this run, joules
    /// (busy time × per-processor dynamic power, after slowdowns and
    /// drift). Drift stretches busy time at unchanged power, so this is
    /// where slowdown costs show up even when latency hides in slack.
    pub(crate) energy_j: f64,
}

impl DispatchEstimator {
    /// Clears the free times and the resource intern table for a new run.
    /// Both keep their capacity, so a warm run re-interns without
    /// allocating.
    pub(crate) fn reset(&mut self) {
        self.resource_ids.clear();
        self.free.clear();
        self.energy_j = 0.0;
    }

    /// The latest free time across all resources — the virtual time at
    /// which everything admitted so far has drained (0 when nothing has
    /// been admitted). The fleet router reads this at each barrier as a
    /// cluster's backlog signal.
    pub(crate) fn horizon(&self) -> f64 {
        self.free.iter().fold(0.0f64, |acc, &t| acc.max(t))
    }

    /// The earliest free time across the resources this run has touched
    /// (0 when it has touched none). The shedding policy compares
    /// `max(now, earliest_free)` against a request's absolute deadline.
    pub(crate) fn earliest_free(&self) -> f64 {
        let min = self.free.iter().fold(f64::INFINITY, |acc, &t| acc.min(t));
        if min.is_finite() {
            min
        } else {
            0.0
        }
    }

    /// List-schedules `plan` released at `release` against the current free
    /// times and returns its estimated completion, advancing the free times
    /// of every resource the plan touches: [`DispatchEstimator::compile`]
    /// into a one-off [`CompiledPlan`], then [`DispatchEstimator::run`].
    pub(crate) fn estimate(
        &mut self,
        plan: &ExecutionPlan,
        cluster: &Cluster,
        release: f64,
    ) -> Result<f64, CoreError> {
        let mut program = CompiledPlan::default();
        self.compile(plan, cluster, &mut program)?;
        Ok(self.run(&program, release, &[], None, None))
    }

    /// Compiles `plan` against the execution `cluster` into `program`
    /// (overwriting it) with this run's resource ids, giving every newly
    /// interned resource a free time of 0.
    ///
    /// # Errors
    ///
    /// Propagates [`CompiledPlan::compile`] errors (an invalid plan, or a
    /// processor or node missing from `cluster`).
    pub(crate) fn compile(
        &mut self,
        plan: &ExecutionPlan,
        cluster: &Cluster,
        program: &mut CompiledPlan,
    ) -> Result<(), CoreError> {
        program.compile(plan, cluster, &mut self.resource_ids)?;
        self.free.resize(self.resource_ids.len(), 0.0);
        Ok(())
    }

    /// Runs a plan compiled this run, released at `release`, against the
    /// current free times and returns its estimated completion. A task
    /// with a processor is compute, one with only a resource is an
    /// inter-node transfer, and one with neither is a same-node move that
    /// holds nothing and never stretches. It applies straggler windows (a
    /// compute task *starting* inside a window on its node runs `factor`×
    /// slower, overlapping windows compound multiplicatively; transfers are
    /// unaffected) and the continuous [`DriftModel`] (throttle curves and
    /// background windows stretch compute; contention stretches inter-node
    /// transfers). An optional adaptive observer receives every compute and
    /// inter-node transfer task's effective-over-nominal duration ratio.
    /// With no windows, no drift and no observer the arithmetic is the
    /// plain estimate — drift never multiplies by 1.0, it simply does not
    /// multiply.
    pub(crate) fn run(
        &mut self,
        program: &CompiledPlan,
        release: f64,
        slowdowns: &[SlowdownWindow],
        drift: Option<&DriftModel>,
        mut observer: Option<&mut AdaptiveState>,
    ) -> f64 {
        // Normalise -0.0 like the engine so exact ties order identically.
        let release = release + 0.0;
        self.finish.clear();
        let mut completion = release;
        for task in program.tasks() {
            let mut start = release;
            for &dep in program.deps(task) {
                start = start.max(self.finish[dep as usize]);
            }
            if let Some(id) = task.resource {
                start = start.max(self.free[id as usize]);
            }
            let nominal = task.duration;
            let mut duration = nominal;
            if let Some(addr) = task.processor {
                let node = addr.node;
                for window in slowdowns {
                    if window.applies(node, start) {
                        duration *= window.factor;
                    }
                }
                if let Some(model) = drift {
                    duration = model.scale_compute(node, start, duration);
                }
                self.energy_j += duration * task.power_w;
                if let Some(state) = observer.as_deref_mut() {
                    if nominal > 0.0 {
                        state.observe_compute(node.0, duration / nominal);
                    }
                }
            } else if task.resource.is_some() {
                if let Some(model) = drift {
                    duration = model.scale_transfer(start, duration);
                }
                if let Some(state) = observer.as_deref_mut() {
                    if nominal > 0.0 {
                        state.observe_transfer(duration / nominal);
                    }
                }
            }
            let end = start + duration;
            if let Some(id) = task.resource {
                self.free[id as usize] = end;
            }
            self.finish.push(end);
            if end > completion {
                completion = end;
            }
        }
        completion
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FleetRequest, FleetScenario, HidpStrategy};
    use hidp_platform::{presets, PlatformError};
    use hidp_sim::{SimError, TaskCost};

    fn burst(model: WorkloadModel, at: f64, count: usize, sla: SlaClass) -> Vec<ServingRequest> {
        (0..count)
            .map(|_| ServingRequest::new(model, at).with_sla(sla))
            .collect()
    }

    #[test]
    fn unbounded_fifo_admits_every_request_at_arrival() {
        let cluster = presets::paper_cluster();
        let strategy = HidpStrategy::new();
        let requests: Vec<ServingRequest> = (0..6)
            .map(|i| ServingRequest::new(WorkloadModel::EfficientNetB0, i as f64 * 0.1))
            .collect();
        let result = ServingScenario::new(requests.clone())
            .run(&strategy, &cluster, NodeIndex(1))
            .unwrap();
        assert_eq!(result.admissions.len(), 6, "no batching by default");
        for (batch, request) in result.admissions.iter().zip(&requests) {
            assert_eq!(batch.admitted, request.arrival);
            assert_eq!(batch.epoch, 0);
        }
        assert_eq!(result.serving.max_queueing_delay, 0.0);
        assert_eq!(result.epochs_applied, 0);
        assert_eq!(result.evaluation.latencies.len(), 6);
        assert!(result.requests_per_second() > 0.0);
    }

    #[test]
    fn batcher_coalesces_same_model_requests() {
        let cluster = presets::paper_cluster();
        let strategy = HidpStrategy::new();
        // A burst of 4 identical requests plus one different model.
        let mut requests = burst(WorkloadModel::EfficientNetB0, 0.0, 4, SlaClass::Standard);
        requests.push(ServingRequest::new(WorkloadModel::InceptionV3, 0.0));
        let result = ServingScenario::new(requests)
            .with_max_batch(4)
            .run(&strategy, &cluster, NodeIndex(1))
            .unwrap();
        // One batch of 4 + one singleton (different model cannot coalesce).
        assert_eq!(result.admissions.len(), 2);
        assert_eq!(result.admissions[0].members, vec![0, 1, 2, 3]);
        assert_eq!(result.admissions[1].members, vec![4]);
        // Every member shares its batch's completion.
        let c = result.records[0].completion;
        for r in &result.records[..4] {
            assert_eq!(r.completion, c);
        }
        // The batched plan was planned once for batch 4.
        let stats = result.evaluation.plan_cache.unwrap();
        assert_eq!(stats.misses, 2);
    }

    #[test]
    fn bounded_window_queues_and_fifo_preserves_arrival_order() {
        let cluster = presets::paper_cluster();
        let strategy = HidpStrategy::new();
        let requests = burst(WorkloadModel::EfficientNetB0, 0.0, 4, SlaClass::Standard);
        let result = ServingScenario::new(requests)
            .with_max_inflight(Some(1))
            .run(&strategy, &cluster, NodeIndex(1))
            .unwrap();
        assert_eq!(result.admissions.len(), 4);
        // Later admissions queue behind the estimated service of earlier
        // ones.
        let admitted: Vec<f64> = result.admissions.iter().map(|b| b.admitted).collect();
        for pair in admitted.windows(2) {
            assert!(pair[1] > pair[0]);
        }
        assert!(result.serving.max_queueing_delay > 0.0);
        assert!(result.serving.mean_queueing_delay > 0.0);
        // FIFO: members in arrival (input) order.
        let served: Vec<usize> = result
            .admissions
            .iter()
            .flat_map(|b| b.members.clone())
            .collect();
        assert_eq!(served, vec![0, 1, 2, 3]);
    }

    #[test]
    fn priority_admits_premium_before_best_effort() {
        let cluster = presets::paper_cluster();
        let strategy = HidpStrategy::new();
        // Best-effort requests arrive first, a premium one right behind.
        let mut requests = burst(WorkloadModel::Vgg19, 0.0, 3, SlaClass::BestEffort);
        requests.push(ServingRequest::new(WorkloadModel::Vgg19, 0.0).with_sla(SlaClass::Premium));
        let fifo = ServingScenario::new(requests.clone())
            .with_max_inflight(Some(1))
            .run(&strategy, &cluster, NodeIndex(1))
            .unwrap();
        let priority = ServingScenario::new(requests)
            .with_policy(AdmissionPolicy::Priority)
            .with_max_inflight(Some(1))
            .run(&strategy, &cluster, NodeIndex(1))
            .unwrap();
        // Under FIFO the premium request (index 3) is served last; under
        // priority it is served first among the queued.
        assert_eq!(fifo.admissions.last().unwrap().members, vec![3]);
        assert_eq!(priority.admissions[0].members, vec![3]);
        let fifo_premium = fifo.serving.class(SlaClass::Premium).unwrap();
        let prio_premium = priority.serving.class(SlaClass::Premium).unwrap();
        assert!(prio_premium.latency.p99 < fifo_premium.latency.p99);
    }

    #[test]
    fn earliest_deadline_orders_by_absolute_deadline() {
        let cluster = presets::paper_cluster();
        let strategy = HidpStrategy::new();
        // A best-effort request from long ago has an earlier absolute
        // deadline than a premium request arriving now.
        let requests = vec![
            ServingRequest::new(WorkloadModel::InceptionV3, 0.0).with_sla(SlaClass::BestEffort),
            ServingRequest::new(WorkloadModel::InceptionV3, 3.9).with_sla(SlaClass::Premium),
            ServingRequest::new(WorkloadModel::InceptionV3, 3.9).with_sla(SlaClass::BestEffort),
        ];
        // Block admission until all three are queued.
        let mut blocker = vec![ServingRequest::new(WorkloadModel::Vgg19, 0.0)];
        blocker.extend(requests);
        let result = ServingScenario::new(blocker)
            .with_policy(AdmissionPolicy::EarliestDeadline)
            .with_max_inflight(Some(1))
            .run(&strategy, &cluster, NodeIndex(1))
            .unwrap();
        // Deadlines: req1 at 4.0, req2 at 4.15, req3 at 7.9 — admitted in
        // that order once the blocker clears.
        let order: Vec<usize> = result
            .admissions
            .iter()
            .skip(1)
            .flat_map(|b| b.members.clone())
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn timeline_flip_replans_under_the_new_epoch() {
        let cluster = presets::paper_cluster();
        let strategy = HidpStrategy::new();
        // Same model before and after a failure at t = 0.5: the second
        // request must re-plan (new epoch fingerprint), so the cache records
        // two misses for one distinct model.
        let requests = vec![
            ServingRequest::new(WorkloadModel::ResNet152, 0.0),
            ServingRequest::new(WorkloadModel::ResNet152, 1.0),
        ];
        let timeline = ClusterTimeline::new().node_down(0.5, NodeIndex(4)).unwrap();
        let result = ServingScenario::new(requests)
            .with_timeline(timeline)
            .run(&strategy, &cluster, NodeIndex(1))
            .unwrap();
        assert_eq!(result.epochs_applied, 1);
        assert_eq!(result.admissions[0].epoch, 0);
        assert_eq!(result.admissions[1].epoch, 1);
        let stats = result.evaluation.plan_cache.unwrap();
        assert_eq!(stats.misses, 2, "one plan per epoch");
        assert_eq!(stats.hits, 0);
    }

    #[test]
    fn unknown_timeline_node_and_empty_scenario_are_rejected() {
        let cluster = presets::paper_cluster();
        let strategy = HidpStrategy::new();
        assert!(ServingScenario::new(vec![])
            .run(&strategy, &cluster, NodeIndex(0))
            .is_err());
        let bad_timeline = ClusterTimeline::new().node_down(1.0, NodeIndex(9)).unwrap();
        let scenario = ServingScenario::new(vec![ServingRequest::new(WorkloadModel::Vgg19, 0.0)])
            .with_timeline(bad_timeline);
        assert!(scenario.run(&strategy, &cluster, NodeIndex(0)).is_err());
        let nan = ServingScenario::new(vec![ServingRequest::new(WorkloadModel::Vgg19, f64::NAN)]);
        assert!(nan.run(&strategy, &cluster, NodeIndex(0)).is_err());
    }

    #[test]
    fn zero_batch_and_window_run_as_one_on_every_tier() {
        // A batch limit of 0 or a window of Some(0) could never admit; each
        // must behave exactly like 1 instead of deadlocking or panicking, in
        // both serving modes and on every cluster of a fleet.
        let cluster = presets::paper_cluster();
        let fleet = presets::generated_fleet(3, 2).unwrap();
        let strategy = HidpStrategy::new();
        let leader = NodeIndex(1);
        // Same-model bursts that a batch limit above 1 would coalesce.
        let mut requests = burst(WorkloadModel::EfficientNetB0, 0.0, 6, SlaClass::Standard);
        requests.extend(burst(
            WorkloadModel::InceptionV3,
            0.01,
            3,
            SlaClass::Premium,
        ));
        let regional: Vec<FleetRequest> = requests
            .iter()
            .enumerate()
            .map(|(i, &request)| FleetRequest::new(request, i % 2))
            .collect();
        // (max_batch, max_inflight) as set, and the value it must run as.
        let table = [
            ((0, None), (1, None)),
            ((1, Some(0)), (1, Some(1))),
            ((0, Some(0)), (1, Some(1))),
        ];
        for ((batch, window), (batch_as, window_as)) in table {
            let serving = |b, w| {
                ServingScenario::new(requests.clone())
                    .with_max_batch(b)
                    .with_max_inflight(w)
            };
            let (set, ran_as) = (serving(batch, window), serving(batch_as, window_as));
            let records = |s: &ServingScenario| s.run(&strategy, &cluster, leader).unwrap();
            assert_eq!(
                records(&set),
                records(&ran_as),
                "records {batch} {window:?}"
            );
            let streaming =
                |s: &ServingScenario| s.run_streaming(&strategy, &cluster, leader).unwrap();
            assert_eq!(
                streaming(&set),
                streaming(&ran_as),
                "streaming {batch} {window:?}"
            );
            let fleet_run = |b, w| {
                FleetScenario::new(regional.clone())
                    .with_max_batch(b)
                    .with_max_inflight(w)
                    .run_streaming(&strategy, &fleet, leader)
                    .unwrap()
            };
            assert_eq!(
                fleet_run(batch, window),
                fleet_run(batch_as, window_as),
                "fleet {batch} {window:?}"
            );
        }
    }

    #[test]
    fn unsorted_arrivals_are_served_in_time_order() {
        // The serving loop processes arrivals in time order even when the
        // input is not sorted (the static pipeline preserves input order —
        // see the module docs for why the degenerate equivalence is scoped
        // to arrival-ordered streams).
        let cluster = presets::paper_cluster();
        let strategy = HidpStrategy::new();
        let requests = vec![
            ServingRequest::new(WorkloadModel::EfficientNetB0, 1.0),
            ServingRequest::new(WorkloadModel::InceptionV3, 0.0),
        ];
        let result = ServingScenario::new(requests)
            .run(&strategy, &cluster, NodeIndex(1))
            .unwrap();
        // Request 1 (arriving first) is admitted first; latencies are still
        // reported in input order.
        assert_eq!(result.admissions[0].members, vec![1]);
        assert_eq!(result.admissions[1].members, vec![0]);
        assert_eq!(result.records[0].arrival, 1.0);
        assert_eq!(result.records[1].arrival, 0.0);
        assert!(result.evaluation.latencies.iter().all(|l| *l > 0.0));
    }

    #[test]
    fn builders_clamp_and_label() {
        // The batch and window clamps are behavioural, checked by
        // `zero_batch_and_window_run_as_one_on_every_tier`.
        let scenario = ServingScenario::new(vec![ServingRequest::new(WorkloadModel::Vgg19, 0.0)])
            .with_label("svc");
        assert_eq!(scenario.label(), "svc");
        assert_eq!(scenario.len(), 1);
        assert!(!scenario.is_empty());
        assert_eq!(
            ServingRequest::new(WorkloadModel::Vgg19, 0.0)
                .with_batch(0)
                .batch,
            1
        );
        assert_eq!(AdmissionPolicy::Fifo.name(), "fifo");
        assert_eq!(AdmissionPolicy::EarliestDeadline.name(), "edf");
    }

    /// A mixed scenario exercising every indexed-queue path at once:
    /// staggered arrivals across models and SLA classes, batching, a
    /// bounded window and a timeline flip.
    fn mixed_scenario(policy: AdmissionPolicy) -> ServingScenario {
        let models = [
            WorkloadModel::EfficientNetB0,
            WorkloadModel::InceptionV3,
            WorkloadModel::EfficientNetB0,
        ];
        let slas = [SlaClass::BestEffort, SlaClass::Premium, SlaClass::Standard];
        let requests: Vec<ServingRequest> = (0..24)
            .map(|i| {
                ServingRequest::new(models[i % 3], (i / 4) as f64 * 0.05)
                    .with_sla(slas[(i / 2) % 3])
            })
            .collect();
        let timeline = ClusterTimeline::new().node_down(0.2, NodeIndex(4)).unwrap();
        ServingScenario::new(requests)
            .with_policy(policy)
            .with_max_batch(3)
            .with_max_inflight(Some(2))
            .with_timeline(timeline)
    }

    #[test]
    fn indexed_admission_matches_the_reference_loop() {
        let cluster = presets::paper_cluster();
        let strategy = HidpStrategy::new();
        for policy in [
            AdmissionPolicy::Fifo,
            AdmissionPolicy::Priority,
            AdmissionPolicy::EarliestDeadline,
        ] {
            let scenario = mixed_scenario(policy);
            let indexed = scenario.run(&strategy, &cluster, NodeIndex(1)).unwrap();
            let reference = scenario
                .run_reference(&strategy, &cluster, NodeIndex(1))
                .unwrap();
            assert_eq!(indexed, reference, "policy {}", policy.name());
        }
    }

    #[test]
    fn streaming_mode_agrees_with_records_mode_on_admission_facts() {
        // The two modes share the admission loop, so everything the
        // admission layer determines — counts, batching, epochs, cache
        // traffic, queueing delays — must agree exactly. (Completions
        // differ by design: records measures the event engine, streaming
        // reports the dispatch model's estimates.)
        let cluster = presets::paper_cluster();
        let strategy = HidpStrategy::new();
        let scenario = mixed_scenario(AdmissionPolicy::Priority);
        let records = scenario.run(&strategy, &cluster, NodeIndex(1)).unwrap();
        let streaming = scenario
            .run_streaming(&strategy, &cluster, NodeIndex(1))
            .unwrap();
        assert_eq!(streaming.requests, scenario.len());
        assert_eq!(streaming.batches, records.admissions.len());
        assert_eq!(streaming.epochs_applied, records.epochs_applied);
        assert_eq!(
            Some(streaming.plan_cache),
            records.evaluation.plan_cache,
            "same admission loop, same cache traffic"
        );
        assert!(
            (streaming.max_queueing_delay - records.serving.max_queueing_delay).abs() < 1e-12,
            "queueing delays are admission facts"
        );
        assert!((streaming.mean_queueing_delay - records.serving.mean_queueing_delay).abs() < 1e-9);
        assert_eq!(streaming.latency.count, records.serving.latency.count);
        assert!(streaming.makespan > 0.0);
        assert!(streaming.requests_per_second() > 0.0);
        assert!(streaming.latency.p50 > 0.0);
        // Per-class presence matches.
        for class in SlaClass::ALL {
            assert_eq!(
                streaming.class(class).is_some(),
                records.serving.class(class).is_some()
            );
        }
        let rate = streaming.sla_miss_rate();
        assert!((0.0..=1.0).contains(&rate));
    }

    #[test]
    fn serving_scratch_reuse_is_bit_identical() {
        // One scratch serving differently-shaped scenarios back to back
        // must produce the same results as fresh scratches.
        let cluster = presets::paper_cluster();
        let strategy = HidpStrategy::new();
        let cache = PlanCache::new();
        let mut scratch = ServingScratch::new();
        let a = mixed_scenario(AdmissionPolicy::EarliestDeadline);
        let b = ServingScenario::new(burst(WorkloadModel::Vgg19, 0.0, 5, SlaClass::Premium))
            .with_max_inflight(Some(1));
        for scenario in [&a, &b, &a] {
            let reused = scenario
                .run_with_cache_in(&strategy, &cluster, NodeIndex(1), &cache, &mut scratch)
                .unwrap();
            let mut fresh = scenario
                .run_with_cache(&strategy, &cluster, NodeIndex(1), &cache)
                .unwrap();
            // Cache stats differ (the shared cache warms up between the
            // runs); everything else must match bit for bit.
            fresh.evaluation.plan_cache = reused.evaluation.plan_cache;
            assert_eq!(reused, fresh);
            let reused_streaming = scenario
                .run_streaming_with_cache_in(
                    &strategy,
                    &cluster,
                    NodeIndex(1),
                    &cache,
                    &mut scratch,
                )
                .unwrap();
            let fresh_streaming = scenario
                .run_streaming(&strategy, &cluster, NodeIndex(1))
                .unwrap();
            // Cache stats differ (the shared cache is warm), everything
            // else must match.
            let mut fresh_adjusted = fresh_streaming;
            fresh_adjusted.plan_cache = reused_streaming.plan_cache;
            assert_eq!(reused_streaming, fresh_adjusted);
        }
    }

    /// A timeline that downs every non-leader node at `at` (and recovers
    /// them at `back`), so any distributed plan in flight is killed.
    fn blackout(at: f64, back: f64) -> ClusterTimeline {
        let mut timeline = ClusterTimeline::new();
        for node in [0usize, 2, 3, 4] {
            timeline.push_event(at, NodeIndex(node), false).unwrap();
            timeline.push_event(back, NodeIndex(node), true).unwrap();
        }
        timeline
    }

    #[test]
    fn no_fault_robust_config_is_bit_identical_to_run_streaming() {
        // Kill semantics + retry + deadline abort with an empty timeline
        // (and with an up-only timeline) must reproduce the inert config
        // bit for bit, field by field.
        let cluster = presets::paper_cluster();
        let strategy = HidpStrategy::new();
        let up_only = {
            let mut t = ClusterTimeline::new();
            t.push_event(0.05, NodeIndex(3), true).unwrap();
            t
        };
        for policy in [
            AdmissionPolicy::Fifo,
            AdmissionPolicy::Priority,
            AdmissionPolicy::EarliestDeadline,
        ] {
            for timeline in [ClusterTimeline::new(), up_only.clone()] {
                let base = mixed_scenario(policy).with_timeline(timeline);
                let robust = base
                    .clone()
                    .with_failure_mode(FailureMode::Kill)
                    .with_recovery(RecoveryPolicy::standard());
                let inert = base
                    .run_streaming(&strategy, &cluster, NodeIndex(1))
                    .unwrap();
                let recovered = robust
                    .run_streaming(&strategy, &cluster, NodeIndex(1))
                    .unwrap();
                assert_eq!(inert, recovered, "policy {}", policy.name());
                assert_eq!(
                    recovered.robustness,
                    RobustnessStats::all_completed(base.len())
                );
            }
        }
    }

    /// Records every completed request's exact latency, per class.
    #[derive(Default)]
    struct ExactLatencies([Vec<f64>; 3]);

    impl Sink for ExactLatencies {
        fn complete(
            &mut self,
            request: &ServingRequest,
            wan: f64,
            _retried: bool,
            _admitted: f64,
            completion: f64,
        ) {
            self.0[request.sla.priority() as usize].push(completion - request.arrival + wan);
        }
    }

    /// Records every completed request's `(arrival, admitted, completion)`.
    #[derive(Default)]
    struct Completions(Vec<(f64, f64, f64)>);

    impl Sink for Completions {
        fn complete(
            &mut self,
            request: &ServingRequest,
            _wan: f64,
            _retried: bool,
            admitted: f64,
            completion: f64,
        ) {
            self.0.push((request.arrival, admitted, completion));
        }
    }

    #[test]
    fn estimator_completions_equal_the_engine_at_window_one() {
        // With one batch in flight, each batch is admitted at the previous
        // one's estimated completion, so nothing overlaps and the
        // estimator's submission-order schedule is the event engine's
        // earliest-start one: both readings of the shared compiled plans
        // give every request the same completion, bit for bit. (Beyond
        // window 1 batches overlap and the estimator reads later.)
        let cluster = presets::paper_cluster();
        let strategy = HidpStrategy::new();
        let models = [
            WorkloadModel::EfficientNetB0,
            WorkloadModel::InceptionV3,
            WorkloadModel::ResNet152,
        ];
        let requests: Vec<ServingRequest> = (0..600)
            .map(|i| {
                let jitter = (i * 7 % 11) as f64 * 0.003;
                ServingRequest::new(models[i % 3], i as f64 * 0.04 + jitter)
                    .with_sla(SlaClass::ALL[i / 3 % 3])
            })
            .collect();
        let mut flips = ClusterTimeline::new();
        for k in 0..6 {
            let at = 1.5 + 3.0 * k as f64;
            let node = NodeIndex([0, 3, 4][k % 3]);
            flips.push_event(at, node, false).unwrap();
            flips.push_event(at + 1.2, node, true).unwrap();
        }
        let cache = PlanCache::new();
        for (policy, batch) in [
            (AdmissionPolicy::Fifo, 1),
            (AdmissionPolicy::EarliestDeadline, 8),
            (AdmissionPolicy::Priority, 4),
        ] {
            for timeline in [ClusterTimeline::new(), flips.clone()] {
                let scenario = ServingScenario::new(requests.clone())
                    .with_policy(policy)
                    .with_max_batch(batch)
                    .with_max_inflight(Some(1))
                    .with_timeline(timeline)
                    .with_failure_mode(FailureMode::Ignore);
                let records = scenario
                    .run_with_cache(&strategy, &cluster, NodeIndex(1), &cache)
                    .unwrap();
                let ctx = scenario
                    .loop_ctx(&strategy, &cluster, NodeIndex(1), &cache)
                    .unwrap();
                let mut estimated = Completions::default();
                scenario
                    .run_loop(&ctx, &mut ServingScratch::new(), &mut estimated)
                    .unwrap();
                let bits = |t: &(f64, f64, f64)| (t.0.to_bits(), t.1.to_bits(), t.2.to_bits());
                let mut engine: Vec<_> = records
                    .records
                    .iter()
                    .map(|r| bits(&(r.arrival, r.admitted, r.completion)))
                    .collect();
                let mut estimator: Vec<_> = estimated.0.iter().map(bits).collect();
                engine.sort_unstable();
                estimator.sort_unstable();
                assert_eq!(engine.len(), requests.len());
                let flips = scenario.config().timeline.events().len();
                assert_eq!(records.epochs_applied, flips, "every flip re-keys planning");
                assert!(
                    engine == estimator,
                    "{} batch {batch}, {flips} flips: completions differ",
                    policy.name()
                );
                if batch > 1 {
                    assert!(
                        records.admissions.len() < requests.len(),
                        "batches coalesce"
                    );
                }
            }
        }
    }

    #[test]
    fn streaming_tails_track_exact_latencies_under_overload_kills_and_retries() {
        let cluster = presets::paper_cluster();
        let strategy = HidpStrategy::new();
        let models = [
            WorkloadModel::EfficientNetB0,
            WorkloadModel::InceptionV3,
            WorkloadModel::ResNet152,
        ];
        // ~25 req/s against a cluster that serves well under that: the
        // queue, and with it every latency, grows for the whole run.
        let requests: Vec<ServingRequest> = (0..3_000)
            .map(|i| {
                let jitter = (i * 7 % 11) as f64 * 0.003;
                ServingRequest::new(models[i % 3], i as f64 * 0.04 + jitter)
                    .with_sla(SlaClass::ALL[i % 3])
            })
            .collect();
        let mut timeline = ClusterTimeline::new();
        for k in 0..6 {
            let at = 5.0 + 20.0 * k as f64;
            let node = NodeIndex([0, 3][k % 2]);
            timeline.push_event(at, node, false).unwrap();
            timeline.push_event(at + 4.0, node, true).unwrap();
        }
        let scenario = ServingScenario::new(requests)
            .with_policy(AdmissionPolicy::EarliestDeadline)
            .with_max_batch(4)
            .with_max_inflight(Some(2))
            .with_timeline(timeline)
            .with_failure_mode(FailureMode::Kill)
            .with_recovery(RecoveryPolicy {
                retry: Some(RetryPolicy::default()),
                ..RecoveryPolicy::default()
            });
        let summary = scenario
            .run_streaming(&strategy, &cluster, NodeIndex(1))
            .unwrap();
        assert!(summary.robustness.killed > 0, "{:?}", summary.robustness);
        assert!(summary.robustness.retried > 0, "{:?}", summary.robustness);

        let mut exact = ExactLatencies::default();
        let cache = PlanCache::new();
        let ctx = scenario
            .loop_ctx(&strategy, &cluster, NodeIndex(1), &cache)
            .unwrap();
        scenario
            .run_loop(&ctx, &mut ServingScratch::new(), &mut exact)
            .unwrap();
        let all: Vec<f64> = exact.0.concat();
        let mut checks = vec![("overall", summary.latency, all)];
        for (c, class) in SlaClass::ALL.iter().enumerate() {
            let report = summary.class(*class).expect("every class completes");
            checks.push((class.name(), report.latency, exact.0[c].clone()));
        }
        for (name, tail, latencies) in checks {
            assert_eq!(tail.count, latencies.len(), "{name}");
            for (p, estimated) in [(50.0, tail.p50), (95.0, tail.p95), (99.0, tail.p99)] {
                let reference = hidp_sim::stats::percentile(&latencies, p).unwrap();
                let err = (estimated - reference).abs() / reference;
                assert!(
                    err < 0.01,
                    "{name} p{p}: streaming {estimated} vs exact {reference} ({err})"
                );
            }
        }
    }

    #[test]
    fn kill_without_recovery_loses_requests_and_retry_recovers_them() {
        let cluster = presets::paper_cluster();
        let strategy = HidpStrategy::new();
        // Heavy model, long service time; blackout of every non-leader node
        // shortly after the burst is admitted. BestEffort deadlines (4 s)
        // keep retries inside the deadline-abort budget. Two stragglers
        // arrive after the cluster recovers so the no-recovery run still
        // has a latency distribution.
        let mut requests = burst(WorkloadModel::ResNet152, 0.0, 4, SlaClass::BestEffort);
        requests.extend(burst(
            WorkloadModel::ResNet152,
            6.0,
            2,
            SlaClass::BestEffort,
        ));
        let base = ServingScenario::new(requests)
            .with_timeline(blackout(0.01, 5.0))
            .with_failure_mode(FailureMode::Kill);
        let abandoned = base
            .clone()
            .run_streaming(&strategy, &cluster, NodeIndex(1))
            .unwrap();
        assert!(abandoned.robustness.accounts_for_every_request());
        assert_eq!(
            abandoned.robustness.lost, 4,
            "a blackout mid-flight kills distributed plans: {:?}",
            abandoned.robustness
        );
        assert_eq!(abandoned.robustness.retried, 0);
        assert_eq!(
            abandoned.latency.count as u64, abandoned.robustness.completed,
            "lost requests contribute no latency sample"
        );

        let recovered = base
            .with_recovery(RecoveryPolicy::standard())
            .run_streaming(&strategy, &cluster, NodeIndex(1))
            .unwrap();
        assert!(recovered.robustness.accounts_for_every_request());
        assert_eq!(
            recovered.robustness.lost, 0,
            "retries recover every kill: {:?}",
            recovered.robustness
        );
        assert_eq!(recovered.robustness.completed, recovered.robustness.offered);
        assert!(recovered.robustness.retried > 0);
        assert_eq!(recovered.robustness.killed, abandoned.robustness.killed);
    }

    #[test]
    fn shedding_drops_provably_late_requests() {
        let cluster = presets::paper_cluster();
        let strategy = HidpStrategy::new();
        // A flood of premium requests (0.25 s deadline) through a
        // single-slot window: the backlog quickly proves later picks
        // unmeetable.
        let requests = burst(WorkloadModel::ResNet152, 0.0, 12, SlaClass::Premium);
        let shed = ServingScenario::new(requests)
            .with_max_inflight(Some(1))
            .with_recovery(RecoveryPolicy {
                shed: true,
                ..RecoveryPolicy::default()
            })
            .run_streaming(&strategy, &cluster, NodeIndex(1))
            .unwrap();
        assert!(shed.robustness.accounts_for_every_request());
        assert!(shed.robustness.shed > 0, "{:?}", shed.robustness);
        assert!(
            shed.robustness.completed > 0,
            "the head of the flood serves"
        );
        assert_eq!(shed.latency.count as u64, shed.robustness.completed);
    }

    #[test]
    fn straggler_windows_stretch_estimated_completions() {
        let cluster = presets::paper_cluster();
        let strategy = HidpStrategy::new();
        let requests = burst(WorkloadModel::EfficientNetB0, 0.0, 4, SlaClass::Standard);
        let scenario = ServingScenario::new(requests);
        let baseline = scenario
            .clone()
            .run_streaming(&strategy, &cluster, NodeIndex(1))
            .unwrap();
        let slowdowns: Vec<SlowdownWindow> = (0..5)
            .map(|node| SlowdownWindow {
                node: NodeIndex(node),
                start: 0.0,
                end: 100.0,
                factor: 3.0,
            })
            .collect();
        let straggling = scenario
            .with_slowdowns(slowdowns)
            .run_streaming(&strategy, &cluster, NodeIndex(1))
            .unwrap();
        assert!(straggling.makespan > baseline.makespan);
        assert!(straggling.robustness.accounts_for_every_request());
    }

    #[test]
    fn records_mode_rejects_every_streaming_only_config() {
        let cluster = presets::paper_cluster();
        let strategy = HidpStrategy::new();
        let leader = NodeIndex(1);
        // A single node flips down mid-flight and comes back later.
        let requests: Vec<ServingRequest> = (0..4)
            .map(|i| {
                ServingRequest::new(WorkloadModel::ResNet152, 0.1 * i as f64)
                    .with_sla(SlaClass::BestEffort)
            })
            .collect();
        let timeline = ClusterTimeline::new()
            .node_down(0.01, NodeIndex(0))
            .unwrap()
            .node_up(5.0, NodeIndex(0))
            .unwrap();
        let base = ServingScenario::new(requests).with_timeline(timeline);
        // Ignore mode treats the timeline as plan-only: every request
        // completes.
        let ignored = base.run(&strategy, &cluster, leader).unwrap();
        assert_eq!(
            ignored.robustness,
            RobustnessStats::all_completed(ignored.records.len())
        );
        assert!(ignored.records.iter().all(|r| r.completion.is_finite()));

        let window = SlowdownWindow {
            node: NodeIndex(2),
            start: 0.0,
            end: 1.0,
            factor: 2.0,
        };
        let rows: [(&str, ServingScenario); 7] = [
            ("kill", base.clone().with_failure_mode(FailureMode::Kill)),
            (
                "retry",
                base.clone().with_recovery(RecoveryPolicy {
                    retry: Some(RetryPolicy::default()),
                    ..RecoveryPolicy::default()
                }),
            ),
            (
                "deadline abort",
                base.clone().with_recovery(RecoveryPolicy {
                    deadline_abort: true,
                    ..RecoveryPolicy::default()
                }),
            ),
            (
                "shed",
                base.clone().with_recovery(RecoveryPolicy {
                    shed: true,
                    ..RecoveryPolicy::default()
                }),
            ),
            ("slowdown", base.clone().with_slowdowns(vec![window])),
            (
                "drift",
                base.clone().with_drift(DriftModel {
                    background: vec![window],
                    ..DriftModel::default()
                }),
            ),
            (
                "adaptive",
                base.clone().with_adaptive(AdaptiveConfig::default()),
            ),
        ];
        let cache = PlanCache::new();
        for (row, scenario) in rows {
            let infeasible = |result: Result<ServingEvaluation, CoreError>, entry: &str| {
                assert!(
                    matches!(result, Err(CoreError::Infeasible { .. })),
                    "{row} through {entry}: {result:?}"
                );
            };
            infeasible(scenario.run(&strategy, &cluster, leader), "run");
            infeasible(
                scenario.run_with_cache_in(
                    &strategy,
                    &cluster,
                    leader,
                    &cache,
                    &mut ServingScratch::new(),
                ),
                "run_with_cache_in",
            );
            infeasible(
                scenario.run_reference(&strategy, &cluster, leader),
                "run_reference",
            );
            let streamed = scenario.run_streaming(&strategy, &cluster, leader);
            assert!(
                streamed.is_ok(),
                "{row} through run_streaming: {streamed:?}"
            );
        }
    }

    #[test]
    fn invalid_recovery_configs_are_rejected() {
        let cluster = presets::paper_cluster();
        let strategy = HidpStrategy::new();
        let requests = vec![ServingRequest::new(WorkloadModel::Vgg19, 0.0)];
        let bad_retry = ServingScenario::new(requests.clone()).with_recovery(RecoveryPolicy {
            retry: Some(RetryPolicy {
                backoff_base_s: -1.0,
                ..RetryPolicy::default()
            }),
            ..RecoveryPolicy::default()
        });
        assert!(bad_retry
            .run_streaming(&strategy, &cluster, NodeIndex(1))
            .is_err());
        let bad_window = ServingScenario::new(requests).with_slowdowns(vec![SlowdownWindow {
            node: NodeIndex(99),
            start: 0.0,
            end: 1.0,
            factor: 2.0,
        }]);
        assert!(bad_window
            .run_streaming(&strategy, &cluster, NodeIndex(1))
            .is_err());
    }

    #[test]
    fn pending_member_pool_stays_bounded_by_in_flight_work() {
        // Members leave the pool with their batch, so over a long run its
        // high-water mark tracks the admission window, not the request
        // count — and warm passes reuse it without growing it.
        let cluster = presets::paper_cluster();
        let strategy = HidpStrategy::new();
        let models = [
            WorkloadModel::EfficientNetB0,
            WorkloadModel::InceptionV3,
            WorkloadModel::ResNet152,
        ];
        let requests: Vec<ServingRequest> = (0..6_000)
            .map(|i| {
                ServingRequest::new(models[i % 3], i as f64 * 0.02).with_sla(SlaClass::ALL[i % 3])
            })
            .collect();
        let scenario = ServingScenario::new(requests)
            .with_policy(AdmissionPolicy::EarliestDeadline)
            .with_max_batch(8)
            .with_max_inflight(Some(4))
            .with_failure_mode(FailureMode::Kill)
            .with_recovery(RecoveryPolicy::standard());
        let cache = PlanCache::new();
        let mut scratch = ServingScratch::new();
        let first = scenario
            .run_streaming_with_cache_in(&strategy, &cluster, NodeIndex(1), &cache, &mut scratch)
            .unwrap();
        let pool = scratch.cluster.pending_members();
        let high_water = pool.capacity();
        assert!(pool.is_empty(), "a drained run leaves no members behind");
        // Window 4 × batch 8 members in flight, with room for allocator
        // rounding.
        assert!(
            high_water <= 2 * 4 * 8,
            "pool grew to {high_water} over {} requests",
            first.requests
        );
        for _ in 0..3 {
            scenario
                .run_streaming_with_cache_in(
                    &strategy,
                    &cluster,
                    NodeIndex(1),
                    &cache,
                    &mut scratch,
                )
                .unwrap();
            assert_eq!(scratch.cluster.pending_members().capacity(), high_water);
        }
    }

    #[test]
    fn broken_plans_are_typed_errors_on_every_entry_point() {
        // A one-task plan that depends on a task that does not exist (the
        // plan cache's validation rejects it), or that targets a processor
        // the cluster does not have (the cache publishes it and the cluster
        // loop's compile rejects it).
        struct Broken {
            deps: &'static [hidp_sim::TaskId],
            processor: usize,
            /// The error, given the leader node the plan targets.
            error: fn(usize) -> SimError,
        }
        impl DistributedStrategy for Broken {
            fn name(&self) -> &str {
                "broken"
            }
            fn plan(
                &self,
                _graph: &DnnGraph,
                _cluster: &Cluster,
                leader: NodeIndex,
            ) -> Result<ExecutionPlan, CoreError> {
                let target = hidp_platform::ProcessorAddr {
                    node: leader,
                    processor: hidp_platform::ProcessorIndex(self.processor),
                };
                let mut plan = ExecutionPlan::new();
                plan.add_compute("c", target, 1_000_000, 1.0, self.deps);
                Ok(plan)
            }
        }
        let cluster = presets::paper_cluster();
        let fleet = presets::generated_fleet(2, 1).unwrap();
        let requests = burst(WorkloadModel::EfficientNetB0, 0.0, 3, SlaClass::Standard);
        let scenario = ServingScenario::new(requests.clone());
        let fleet_scenario = crate::FleetScenario::new(
            requests
                .into_iter()
                .map(|r| crate::FleetRequest::new(r, 0))
                .collect(),
        );
        let cases = [
            Broken {
                deps: &[hidp_sim::TaskId(5)],
                processor: 0,
                error: |_| SimError::UnknownTask { id: 5 },
            },
            Broken {
                deps: &[],
                processor: 99,
                error: |node| {
                    SimError::Platform(PlatformError::UnknownProcessor {
                        node,
                        processor: 99,
                    })
                },
            },
        ];
        for strategy in cases {
            let error = strategy.error;
            let expect = |r: Result<(), CoreError>| {
                assert_eq!(r.unwrap_err(), CoreError::Sim(error(1)));
            };
            expect(scenario.run(&strategy, &cluster, NodeIndex(1)).map(drop));
            expect(
                scenario
                    .run_streaming(&strategy, &cluster, NodeIndex(1))
                    .map(drop),
            );
            let cache = PlanCache::new();
            expect(
                scenario
                    .run_with_cache(&strategy, &cluster, NodeIndex(1), &cache)
                    .map(drop),
            );
            expect(
                scenario
                    .run_streaming_with_cache_in(
                        &strategy,
                        &cluster,
                        NodeIndex(1),
                        &cache,
                        &mut ServingScratch::new(),
                    )
                    .map(drop),
            );
            assert_eq!(
                cache.is_empty(),
                !strategy.deps.is_empty(),
                "only a structurally valid plan is published"
            );
            assert_eq!(
                fleet_scenario
                    .run_streaming(&strategy, &fleet, NodeIndex(0))
                    .map(drop)
                    .unwrap_err(),
                CoreError::Sim(error(0))
            );
        }
    }

    #[test]
    fn dispatch_estimator_matches_engine_on_a_solo_chain() {
        // For a single linear-chain plan on an idle cluster, submission-
        // order list scheduling and the event engine agree exactly — at
        // batch 1 and at a batch whose sublinear compute cost both sides
        // must take from the plan's stamped batch.
        use hidp_sim::simulate_stream_detailed;
        let cluster = presets::paper_cluster();
        let strategy = HidpStrategy::new();
        for batch in [1, 8] {
            let graph = WorkloadModel::EfficientNetB0.graph(batch);
            let plan = strategy
                .plan(&graph, &cluster, NodeIndex(1))
                .unwrap()
                .with_batch(batch);
            let engine = simulate_stream_detailed(&[(0.0, &plan)], &cluster, TraceDetail::Summary)
                .unwrap()
                .makespan;
            let mut dispatch = DispatchEstimator::default();
            dispatch.reset();
            let estimated = dispatch.estimate(&plan, &cluster, 0.0).unwrap();
            assert!(
                (estimated - engine).abs() < 1e-9,
                "batch {batch}: estimated {estimated} vs engine {engine}"
            );
            // A second batch released later sees the first one's congestion.
            let later = dispatch.estimate(&plan, &cluster, 0.0).unwrap();
            assert!(later > estimated, "persistent free times accumulate");
        }
    }

    /// The per-task estimator the [`CompiledPlan`] replaced, kept as the
    /// oracle `compile` + `run` are pinned to: every task's cost, resource
    /// intern and processor power are looked up at estimation time.
    fn estimate_oracle(
        dispatch: &mut DispatchEstimator,
        plan: &ExecutionPlan,
        cluster: &Cluster,
        release: f64,
        slowdowns: &[SlowdownWindow],
        drift: Option<&DriftModel>,
        mut observer: Option<&mut AdaptiveState>,
    ) -> Result<f64, CoreError> {
        let release = release + 0.0;
        let batch = plan.batch();
        dispatch.finish.clear();
        let mut completion = release;
        for task in plan.tasks() {
            let TaskCost {
                duration: nominal,
                resource,
                processor,
            } = task.cost(cluster, batch)?;
            let mut start = release;
            for dep in &task.deps {
                start = start.max(dispatch.finish[dep.0]);
            }
            let id = resource.map(|r| {
                let next = dispatch.resource_ids.len() as u32;
                let id = *dispatch.resource_ids.entry(r).or_insert(next);
                if id as usize >= dispatch.free.len() {
                    dispatch.free.push(0.0);
                }
                id as usize
            });
            if let Some(id) = id {
                start = start.max(dispatch.free[id]);
            }
            let mut duration = nominal;
            if let Some(addr) = processor {
                let node = addr.node;
                for window in slowdowns {
                    if window.applies(node, start) {
                        duration *= window.factor;
                    }
                }
                if let Some(model) = drift {
                    duration = model.scale_compute(node, start, duration);
                }
                dispatch.energy_j += duration * cluster.processor(addr)?.dynamic_power_w();
                if let Some(state) = observer.as_deref_mut() {
                    if nominal > 0.0 {
                        state.observe_compute(node.0, duration / nominal);
                    }
                }
            } else if id.is_some() {
                if let Some(model) = drift {
                    duration = model.scale_transfer(start, duration);
                }
                if let Some(state) = observer.as_deref_mut() {
                    if nominal > 0.0 {
                        state.observe_transfer(duration / nominal);
                    }
                }
            }
            let end = start + duration;
            if let Some(id) = id {
                dispatch.free[id] = end;
            }
            dispatch.finish.push(end);
            if end > completion {
                completion = end;
            }
        }
        Ok(completion)
    }

    mod indexed_queue {
        use super::compiled_dispatch::Draw;
        use super::*;
        use proptest::prelude::*;

        #[test]
        fn a_requeued_request_ranks_at_its_reentry_position() {
            // Equal cluster deadlines: request 0 leaves the queue as a
            // coalesced member does, then re-enters as a retry does. It is
            // now queued behind request 1, so 1 is picked first.
            let policy = AdmissionPolicy::EarliestDeadline;
            let requests = [
                ServingRequest::new(WorkloadModel::Vgg19, 0.0),
                ServingRequest::new(WorkloadModel::Vgg19, 0.0),
            ];
            let rank = |i: usize| policy.rank(&requests[i], 1.0);
            let mut queue = IndexedQueue::default();
            queue.reset(requests.len());
            queue.push(0, &requests[0], rank(0));
            queue.push(1, &requests[1], rank(1));
            queue.remove(0);
            queue.push(0, &requests[0], rank(0));
            assert_eq!(queue.pick(), 1);
            assert_eq!(queue.len(), 2);
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Random pushes, picks with coalescing or shedding, removals
            /// and re-pushes of removed requests, under every policy with
            /// ranks from a tiny domain (ties are common): the queue admits
            /// exactly what a scan of a queue-ordered `Vec` admits — the
            /// first minimum rank, coalesced with the first same-bucket
            /// requests in queue order.
            #[test]
            fn the_heap_admits_what_a_queue_order_scan_admits(
                seed in 0u64..u64::MAX,
                steps in 1usize..300,
                max_batch in 1usize..5,
                policy in 0usize..3,
            ) {
                let policy = [
                    AdmissionPolicy::Fifo,
                    AdmissionPolicy::Priority,
                    AdmissionPolicy::EarliestDeadline,
                ][policy];
                let mut draw = Draw(seed);
                let models = [WorkloadModel::Vgg19, WorkloadModel::ResNet152];
                let requests: Vec<ServingRequest> = (0..10)
                    .map(|_| {
                        ServingRequest::new(models[draw.below(2)], 0.0)
                            .with_batch(1 + draw.below(2))
                            .with_sla(SlaClass::ALL[draw.below(3)])
                    })
                    .collect();
                let bucket = |i: u32| (requests[i as usize].model, requests[i as usize].batch);
                let mut queue = IndexedQueue::default();
                queue.reset(requests.len());
                // The model: `(request, rank)` in queue order.
                let mut model: Vec<(u32, f64)> = Vec::new();
                let mut members = Vec::new();
                for _ in 0..steps {
                    let queued = |i: u32| model.iter().any(|&(m, _)| m == i);
                    match draw.below(4) {
                        0 | 1 => {
                            let i = draw.below(requests.len()) as u32;
                            if !queued(i) {
                                let deadline = draw.below(3) as f64;
                                let rank = policy.rank(&requests[i as usize], deadline);
                                queue.push(i, &requests[i as usize], rank);
                                model.push((i, rank));
                            }
                        }
                        2 if !model.is_empty() => {
                            let head_pos = model
                                .iter()
                                .enumerate()
                                .min_by(|(_, a), (_, b)| a.1.total_cmp(&b.1))
                                .map(|(pos, _)| pos)
                                .unwrap();
                            let head = model[head_pos].0;
                            prop_assert_eq!(queue.pick(), head);
                            let mut expected: Vec<usize> = vec![head_pos];
                            expected.extend(
                                (0..model.len())
                                    .filter(|&pos| {
                                        pos != head_pos && bucket(model[pos].0) == bucket(head)
                                    })
                                    .take(max_batch - 1),
                            );
                            expected.sort_unstable();
                            queue.coalesce(head, max_batch, &mut members);
                            let expected: Vec<u32> =
                                expected.iter().map(|&pos| model[pos].0).collect();
                            prop_assert_eq!(&members, &expected);
                            for &m in &expected {
                                queue.remove(m);
                                model.retain(|&(i, _)| i != m);
                            }
                        }
                        3 if !model.is_empty() => {
                            // A removal outside coalescing: shedding the
                            // head or a member leaving on its own.
                            let (i, _) = model.remove(draw.below(model.len()));
                            queue.remove(i);
                        }
                        _ => {}
                    }
                    prop_assert_eq!(queue.len(), model.len());
                }
            }
        }
    }

    mod compiled_dispatch {
        use super::*;
        use hidp_platform::{BandwidthContention, ThrottleWindow};
        use hidp_sim::TaskId;
        use proptest::prelude::*;

        /// splitmix64: the property's inputs beyond its sampled scalars.
        pub(super) struct Draw(pub(super) u64);

        impl Draw {
            pub(super) fn next(&mut self) -> u64 {
                self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = self.0;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            }

            pub(super) fn below(&mut self, n: usize) -> usize {
                (self.next() % n as u64) as usize
            }

            /// Uniform in `[lo, hi)`.
            fn real(&mut self, lo: f64, hi: f64) -> f64 {
                lo + (hi - lo) * (self.next() >> 11) as f64 / (1u64 << 53) as f64
            }

            /// A window `(node, start, end, factor)` on `cluster`; windows
            /// drawn this way overlap freely.
            fn window(&mut self, cluster: &Cluster) -> (NodeIndex, f64, f64, f64) {
                let node = NodeIndex(self.below(cluster.len()));
                let start = self.real(0.0, 2.0);
                (
                    node,
                    start,
                    start + self.real(0.01, 1.5),
                    self.real(1.0, 4.0),
                )
            }
        }

        /// A random valid plan: compute tasks on any processor, transfers
        /// between any two nodes (same-node moves included), each task
        /// depending on up to three earlier ones.
        fn random_plan(
            draw: &mut Draw,
            cluster: &Cluster,
            tasks: usize,
            batch: usize,
        ) -> ExecutionPlan {
            let processors = cluster.all_processors();
            let mut plan = ExecutionPlan::new().with_batch(batch);
            for k in 0..tasks {
                let mut deps: Vec<TaskId> = (0..draw.below(4))
                    .filter(|_| k > 0)
                    .map(|_| TaskId(draw.below(k.max(1))))
                    .collect();
                deps.sort_unstable();
                deps.dedup();
                if draw.below(2) == 0 {
                    let target = processors[draw.below(processors.len())];
                    let flops = 1 + draw.next() % 2_000_000_000;
                    plan.add_compute("c", target, flops, draw.real(0.0, 1.0), &deps);
                } else {
                    let from = NodeIndex(draw.below(cluster.len()));
                    let to = NodeIndex(draw.below(cluster.len()));
                    plan.add_transfer("t", from, to, 1 + draw.next() % 30_000_000, &deps);
                }
            }
            plan.validate().expect("generated plans are valid");
            plan
        }

        /// The observer state the estimator feeds, in comparable form.
        fn observed(state: &AdaptiveState) -> (Vec<Ewma>, Ewma, u64) {
            (state.est.clone(), state.bw_est, state.observations)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// `run(compile(plan))` is bit-identical to the per-task oracle
            /// — completion, every resource free time, energy, residency
            /// mask and observer state — over a sequence of admissions of
            /// random plans at batch 1 and 8 sharing one estimator, under
            /// overlapping straggler windows, a seeded drift model and an
            /// armed observer.
            #[test]
            fn compiled_programs_match_the_per_task_oracle(
                seed in 0u64..u64::MAX,
                admissions in 1usize..8,
                windows in 0usize..5,
                drifting in 0u8..2,
                observing in 0u8..2,
            ) {
                let cluster = presets::paper_cluster();
                let mut draw = Draw(seed);
                let slowdowns: Vec<SlowdownWindow> = (0..windows)
                    .map(|_| {
                        let (node, start, end, factor) = draw.window(&cluster);
                        SlowdownWindow { node, start, end, factor }
                    })
                    .collect();
                let mut drift = DriftModel::default();
                for _ in 0..3 {
                    let (node, start, end, factor) = draw.window(&cluster);
                    drift.throttles.push(ThrottleWindow {
                        node,
                        start,
                        end,
                        from_factor: 1.0,
                        to_factor: factor,
                    });
                    let (node, start, end, factor) = draw.window(&cluster);
                    drift.background.push(SlowdownWindow { node, start, end, factor });
                    let (_, start, end, factor) = draw.window(&cluster);
                    drift.bandwidth.push(BandwidthContention { start, end, factor });
                }
                let drift = (drifting == 1).then_some(&drift);
                let config = AdaptiveConfig::default();
                let mut states = [AdaptiveState::default(), AdaptiveState::default()];
                for state in &mut states {
                    state.reset(&config, cluster.len());
                }
                let [compiled_state, oracle_state] = &mut states;
                let mut compiled = DispatchEstimator::default();
                let mut oracle = DispatchEstimator::default();
                compiled.reset();
                oracle.reset();
                let mut program = CompiledPlan::default();
                for _ in 0..admissions {
                    let batch = if draw.below(2) == 0 { 1 } else { 8 };
                    let tasks = 1 + draw.below(24);
                    let plan = random_plan(&mut draw, &cluster, tasks, batch);
                    let release = draw.real(0.0, 2.0);
                    compiled.compile(&plan, &cluster, &mut program).unwrap();
                    let got = compiled.run(
                        &program,
                        release,
                        &slowdowns,
                        drift,
                        (observing == 1).then_some(&mut *compiled_state),
                    );
                    let want = estimate_oracle(
                        &mut oracle,
                        &plan,
                        &cluster,
                        release,
                        &slowdowns,
                        drift,
                        (observing == 1).then_some(&mut *oracle_state),
                    )
                    .unwrap();
                    prop_assert_eq!(got.to_bits(), want.to_bits());
                    let bits = |free: &[f64]| free.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
                    prop_assert_eq!(bits(&compiled.free), bits(&oracle.free));
                    prop_assert_eq!(&compiled.resource_ids, &oracle.resource_ids);
                    prop_assert_eq!(compiled.energy_j.to_bits(), oracle.energy_j.to_bits());
                    let mask = plan.tasks().iter().fold(0u64, |mask, task| {
                        let (a, b) = task.nodes();
                        mask | 1u64 << a.0 | 1u64 << b.0
                    });
                    prop_assert_eq!(program.mask(), mask);
                }
                prop_assert_eq!(observed(compiled_state), observed(oracle_state));
            }
        }
    }

    /// A scenario exercising every memo path: batching, an admission
    /// window, two availability epochs and kill semantics.
    fn memo_scenario() -> ServingScenario {
        let mut requests = Vec::new();
        for (k, model) in WorkloadModel::ALL.iter().enumerate() {
            for i in 0..12 {
                let sla = if i % 3 == 0 {
                    SlaClass::Premium
                } else {
                    SlaClass::BestEffort
                };
                let arrival = 0.02 * i as f64 + 0.005 * k as f64;
                requests.push(ServingRequest::new(*model, arrival).with_sla(sla));
            }
        }
        requests.sort_by(|a, b| a.arrival.total_cmp(&b.arrival));
        let timeline = ClusterTimeline::new()
            .node_down(0.1, NodeIndex(4))
            .unwrap()
            .node_up(0.18, NodeIndex(4))
            .unwrap();
        ServingScenario::new(requests)
            .with_policy(AdmissionPolicy::EarliestDeadline)
            .with_max_batch(4)
            .with_max_inflight(Some(3))
            .with_timeline(timeline)
            .with_failure_mode(FailureMode::Kill)
            .with_recovery(RecoveryPolicy::standard())
    }

    /// Runs `scenario` on `scratch` against a fresh plan cache.
    fn run_on(
        scenario: &ServingScenario,
        cluster: &Cluster,
        scratch: &mut ServingScratch,
    ) -> RunSummary {
        let cache = PlanCache::new();
        scenario
            .run_streaming_with_cache_in(
                &HidpStrategy::new(),
                cluster,
                NodeIndex(1),
                &cache,
                scratch,
            )
            .unwrap()
    }

    #[test]
    fn shedding_does_not_depend_on_what_the_scratch_served_before() {
        // The shed bound is the earliest free time over the resources this
        // run touched: resources an earlier run on the same scratch
        // touched must not pin it at 0.
        let cluster = presets::paper_cluster();
        let strategy = HidpStrategy::new();
        let leader = NodeIndex(1);
        let cache = PlanCache::new();
        let flood = ServingScenario::new(
            (0..200)
                .map(|i| {
                    ServingRequest::new(WorkloadModel::ResNet152, 0.005 * i as f64)
                        .with_sla(SlaClass::Premium)
                })
                .collect(),
        )
        .with_recovery(RecoveryPolicy {
            shed: true,
            ..RecoveryPolicy::default()
        });
        let run = |scratch: &mut ServingScratch| {
            flood
                .run_streaming_with_cache_in(&strategy, &cluster, leader, &cache, scratch)
                .unwrap()
        };
        run(&mut ServingScratch::new());
        let fresh = run(&mut ServingScratch::new());
        assert!(fresh.robustness.shed > 0, "{:?}", fresh.robustness);

        let every_model = ServingScenario::new(
            WorkloadModel::ALL
                .iter()
                .flat_map(|&model| (0..4).map(move |i| ServingRequest::new(model, 0.01 * i as f64)))
                .collect(),
        );
        let mut warmed = ServingScratch::new();
        every_model
            .run_streaming_with_cache_in(&strategy, &cluster, leader, &cache, &mut warmed)
            .unwrap();
        assert_eq!(run(&mut warmed), fresh);
    }

    #[test]
    fn a_cleared_cache_replans_on_a_reused_scratch() {
        let cluster = presets::paper_cluster();
        let scenario = memo_scenario();
        let cache = PlanCache::new();
        let mut scratch = ServingScratch::new();
        let mut run = || {
            scenario
                .run_streaming_with_cache_in(
                    &HidpStrategy::new(),
                    &cluster,
                    NodeIndex(1),
                    &cache,
                    &mut scratch,
                )
                .unwrap()
        };
        run();
        cache.clear();
        let reused = run();
        let fresh = run_on(&scenario, &cluster, &mut ServingScratch::new());
        assert!(fresh.plan_cache.misses > 0);
        assert_eq!(reused.plan_cache, fresh.plan_cache);
        assert_eq!(reused, fresh);
    }

    #[test]
    fn a_reused_scratch_follows_the_execution_cluster() {
        // Same topology, different processor rates: every plan and every
        // compiled cost must follow the cluster of the current run.
        let fast = presets::paper_cluster();
        let mut slow = fast.clone();
        let factors: Vec<f64> = (0..fast.len()).map(|i| 1.25 + 0.5 * i as f64).collect();
        slow.apply_rate_factors(&fast, &factors, 1.5).unwrap();
        assert_ne!(slow.fingerprint(), fast.fingerprint());
        let scenario = memo_scenario();
        let mut scratch = ServingScratch::new();
        for cluster in [&fast, &slow, &fast] {
            let reused = run_on(&scenario, cluster, &mut scratch);
            assert_eq!(
                reused,
                run_on(&scenario, cluster, &mut ServingScratch::new())
            );
        }
    }
}
