//! The one admission loop every simulated cluster runs.
//!
//! The serving tier's single cluster (streaming and records mode alike) and
//! every fleet cluster behind the router run [`ClusterLoop::advance_until`]:
//! a virtual-time loop that walks fresh arrivals, retry releases, timeline
//! events and estimated completions; admits batches through the
//! [`IndexedQueue`], which picks by [`AdmissionPolicy::rank`] alone (one
//! heap for every policy, ties in queue order); plans each batch
//! against the current epoch's (or the adaptive loop's believed) cluster
//! through the shared [`PlanCache`]; and estimates its completion with the
//! persistent [`DispatchEstimator`].
//!
//! A plan and its per-task costs are fixed once the plan and the execution
//! cluster are known, so the loop works them out once per distinct plan
//! per run, not once per batch. Its plan memo is keyed by `(model, combined
//! batch, plan-cluster fingerprint)`. The first use of a key in a run goes
//! through the graph map and [`PlanCache::plan_keyed`] as an unmemoized
//! admission would, then compiles the plan into a [`CompiledPlan`] on the
//! execution cluster — the same per-plan table the event engine runs.
//! Every later use in the run is a memo hit: it counts as a plan-cache hit
//! in the loop's [`PlanCacheStats`] and runs the stored table directly.
//!
//! The loop is incremental: it returns — before mutating anything — as soon
//! as its next virtual-time step would cross `t_end`, and resumes from
//! exactly that point on the next call. The fleet calls it once per router
//! round; the serving tier calls it once with `t_end = +∞`.
//!
//! Under kill semantics admitted batches wait in a pending FIFO until the
//! clock passes their completion, then retire front-first; a down-flip
//! kills every pending batch whose plan touches the failed node, and the
//! killed members flow through the [`RecoveryPolicy`] to wherever the
//! caller's [`Inbox`] sends them — back into this loop's retry heap on the
//! serving tier, to the router on the fleet tier. Without kills nothing can
//! change a batch's completion after admission, so it retires at once.
//! Either way every [`Sink`] observes requests in admission order.
//!
//! The two type parameters are the only things that differ between
//! callers, and both are monomorphized: the [`Sink`] (the latency-histogram
//! tails both tiers stream into, or the records mode's admission log) and the
//! [`Inbox`] (where requests come from and where a killed one goes). The
//! deadline rule the loop ranks and sheds by is stated once, in
//! `hidp_sim::serving`.
//!
//! Everything else both tiers must know about a loop's inputs lives here
//! too, so neither restates it: the six knobs both tiers' configs embed
//! ([`ClusterLoopConfig`], with its one `Default`), [`LoopCtx::new`] (the
//! one place the batch and window clamps apply), the shared checks
//! ([`validate_requests`] and [`LoopCtx::validate`]), [`arrival_order`],
//! and the one [`RunSummary`] both tiers return, with its single
//! constructor and metric rulebook. One [`TimeHeap`] orders the admission
//! window, the retry heap, the fleet's failover heap and the serving
//! reference loop by `(time, push sequence)`.

use crate::adaptive::{AdaptiveConfig, AdaptiveState, DriftStats};
use crate::fleet::fnv64;
use crate::plan_cache::{FixedState, PlanCache, PlanCacheStats};
use crate::serving::{
    AdmissionPolicy, DispatchEstimator, FailureMode, IndexedQueue, RecoveryPolicy, RobustnessStats,
    ServingRequest, Tails,
};
use crate::strategy::DistributedStrategy;
use crate::{CoreError, PlanKey};
use hidp_dnn::zoo::WorkloadModel;
use hidp_dnn::DnnGraph;
use hidp_platform::{AvailabilityEvent, Cluster, DriftModel, NodeIndex, SlowdownWindow};
use hidp_sim::serving::{LatencySummary, SlaClass, SlaClassReport};
use hidp_sim::{CompiledPlan, ExecutionPlan};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::fmt::Arguments;
use std::sync::Arc;

/// The six knobs every cluster loop runs under, declared once for both
/// tiers: [`ServingConfig`](crate::ServingConfig) and
/// [`FleetConfig`](crate::FleetConfig) each embed one, and a fleet applies
/// its copy to every cluster. All-`Copy`. The default is FIFO admission, no
/// batching, an unbounded window, [`FailureMode::Ignore`], no recovery and
/// static planning.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterLoopConfig {
    /// Which queued request is admitted next.
    pub policy: AdmissionPolicy,
    /// Maximum same-`(model, batch)` requests coalesced into one batched
    /// plan (1 = no batching; 0 runs as 1).
    pub max_batch: usize,
    /// Maximum batches in estimated flight before admission stalls
    /// (`None` = unbounded: every request is admitted at its arrival;
    /// `Some(0)` runs as `Some(1)` — a window that can never admit would
    /// serve nothing).
    pub max_inflight: Option<usize>,
    /// What a down-flip does to batches already in flight.
    pub failures: FailureMode,
    /// Recovery responses for killed and at-risk requests. On the serving
    /// tier a retry re-enters the same loop; on the fleet tier it goes
    /// **back to the router**, which re-routes it away from the cluster
    /// that killed it (failover).
    pub recovery: RecoveryPolicy,
    /// The adaptive loop: online per-node rate estimation plus
    /// hysteresis-bounded re-planning against a believed cluster. `None`
    /// keeps planning static.
    pub adaptive: Option<AdaptiveConfig>,
}

impl Default for ClusterLoopConfig {
    fn default() -> Self {
        Self {
            policy: AdmissionPolicy::Fifo,
            max_batch: 1,
            max_inflight: None,
            failures: FailureMode::Ignore,
            recovery: RecoveryPolicy::default(),
            adaptive: None,
        }
    }
}

/// What one cluster loop runs against: the planner, the cluster and its
/// fault inputs, and the tier's [`ClusterLoopConfig`]. Every field is a
/// borrow or `Copy`, so callers build one per call.
#[derive(Clone, Copy)]
pub(crate) struct LoopCtx<'a> {
    pub(crate) strategy: &'a dyn DistributedStrategy,
    pub(crate) leader: NodeIndex,
    /// The true cluster: completions are estimated on it and every epoch
    /// starts from it.
    pub(crate) base: &'a Cluster,
    pub(crate) cache: &'a PlanCache,
    /// Timed availability flips, in time order.
    pub(crate) events: &'a [AvailabilityEvent],
    pub(crate) slowdowns: &'a [SlowdownWindow],
    pub(crate) drift: Option<&'a DriftModel>,
    /// The loop's knobs, with `max_batch` and a `Some` window clamped to
    /// ≥ 1.
    pub(crate) config: ClusterLoopConfig,
}

impl<'a> LoopCtx<'a> {
    /// The context of `base` under `config`, with no fault inputs yet. A
    /// batch or window of zero could never admit anything, so `max_batch`
    /// and a `Some` window are clamped to at least 1 — here, and nowhere
    /// else.
    pub(crate) fn new(
        strategy: &'a dyn DistributedStrategy,
        leader: NodeIndex,
        base: &'a Cluster,
        cache: &'a PlanCache,
        config: ClusterLoopConfig,
    ) -> Self {
        Self {
            strategy,
            leader,
            base,
            cache,
            events: &[],
            slowdowns: &[],
            drift: None,
            config: ClusterLoopConfig {
                max_batch: config.max_batch.max(1),
                max_inflight: config.max_inflight.map(|w| w.max(1)),
                ..config
            },
        }
    }

    /// This context with the cluster's fault inputs: its timed availability
    /// flips, straggler windows and drift (an empty drift model is no
    /// drift).
    pub(crate) fn with_faults(
        self,
        events: &'a [AvailabilityEvent],
        slowdowns: &'a [SlowdownWindow],
        drift: Option<&'a DriftModel>,
    ) -> Self {
        Self {
            events,
            slowdowns,
            drift: drift.filter(|d| !d.is_empty()),
            ..self
        }
    }

    /// Whether down-flips kill in-flight batches.
    pub(crate) fn kill(&self) -> bool {
        self.config.failures == FailureMode::Kill
    }

    /// Rejects what this cluster's loop cannot run: an invalid retry or
    /// adaptive config; a timeline event, slowdown window or drift window
    /// that is malformed or names an unknown node; and kill semantics on a
    /// cluster too large for the 64-bit plan-residency mask.
    pub(crate) fn validate(&self, name: Named<'_>) -> Result<(), CoreError> {
        if let Some(retry) = &self.config.recovery.retry {
            retry.validate()?;
        }
        if let Some(adaptive) = &self.config.adaptive {
            adaptive.validate()?;
        }
        for event in self.events {
            self.base.node(event.node)?;
        }
        for window in self.slowdowns {
            window.validate()?;
            self.base.node(window.node)?;
        }
        if let Some(drift) = self.drift {
            drift.validate(self.base.len())?;
        }
        if self.kill() && self.base.len() > 64 {
            return Err(name.infeasible(format_args!(
                "kill semantics track plan residency in a 64-bit node mask; \
                 a cluster has {} nodes",
                self.base.len()
            )));
        }
        Ok(())
    }
}

/// A scenario as its errors name it: `{tier} scenario '{label}'`.
#[derive(Clone, Copy)]
pub(crate) struct Named<'a>(pub(crate) &'static str, pub(crate) &'a str);

impl Named<'_> {
    /// A [`CoreError::Infeasible`] about this scenario.
    pub(crate) fn infeasible(self, what: Arguments<'_>) -> CoreError {
        CoreError::Infeasible {
            what: format!("{} scenario '{}': {what}", self.0, self.1),
        }
    }
}

/// Rejects a request list no cluster loop can index or order: empty,
/// beyond the `u32` index space, or holding a negative or non-finite
/// arrival or a zero batch.
pub(crate) fn validate_requests<'r>(
    name: Named<'_>,
    requests: impl ExactSizeIterator<Item = &'r ServingRequest>,
) -> Result<(), CoreError> {
    if requests.len() == 0 || requests.len() >= u32::MAX as usize {
        return Err(name.infeasible(format_args!(
            "{} requests (needs 1 to 2^32-2)",
            requests.len()
        )));
    }
    for (i, request) in requests.enumerate() {
        if !(request.arrival.is_finite() && request.arrival >= 0.0) {
            return Err(name.infeasible(format_args!(
                "request {i} has invalid arrival {}",
                request.arrival
            )));
        }
        if request.batch == 0 {
            return Err(name.infeasible(format_args!("request {i} has batch 0")));
        }
    }
    Ok(())
}

/// Fills `order` with the request indices `0..n` in arrival order: by
/// arrival time, normalised (+0.0) so a -0.0 arrival cannot jump a +0.0
/// one, ties by index — the order a stable sort gives, without its merge
/// buffer.
pub(crate) fn arrival_order(order: &mut Vec<u32>, n: usize, arrival: impl Fn(usize) -> f64) {
    order.clear();
    order.extend(0..n as u32);
    order.sort_unstable_by(|&a, &b| {
        (arrival(a as usize) + 0.0)
            .total_cmp(&(arrival(b as usize) + 0.0))
            .then(a.cmp(&b))
    });
}

/// The bounded-memory result of a streaming run, on either tier: counts,
/// the makespan, histogram latency tails, exact queueing figures,
/// fixed-size per-class aggregates and the routing balance. Everything is
/// `Copy` (no per-request records, no heap), so a soak over millions of
/// requests returns the same few hundred bytes as a toy run, and the
/// audited steady-state pass returns without allocating.
///
/// [`ServingScenario::run_streaming`](crate::ServingScenario::run_streaming)
/// and [`FleetScenario::run_streaming`](crate::FleetScenario::run_streaming)
/// both return it. A serving run is the one-cluster, one-round fleet: one
/// cluster, one round, every request on that cluster and no WAN round
/// trip.
///
/// Latency and queueing figures cover completed requests only: a shed,
/// aborted or lost request has neither. [`RunSummary::sla_miss_rate`] and
/// [`RunSummary::sla_goodput`] are over offered requests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSummary {
    /// Requests offered to the run (the input stream).
    pub requests: usize,
    /// Clusters that served the run (1 on the serving tier).
    pub clusters: usize,
    /// Router rounds executed: arrival-bearing windows plus the drain (1 on
    /// the serving tier, which runs as one round to +∞).
    pub rounds: usize,
    /// Batches admitted across all clusters.
    pub batches: usize,
    /// Timeline events applied across all clusters.
    pub epochs_applied: usize,
    /// Estimated completion time of the last batch anywhere, seconds.
    pub makespan: f64,
    /// Latency tail over completed requests: queueing + service + WAN round
    /// trip (zero on the serving tier). p50/p95/p99 are histogram estimates
    /// within 1% of the exact order statistic; count and mean are exact.
    pub latency: LatencySummary,
    /// Worst latency of a completed request, seconds (exact).
    pub max_latency: f64,
    /// Mean queueing delay over completed requests, seconds (exact; local
    /// queueing, WAN excluded).
    pub mean_queueing_delay: f64,
    /// Worst queueing delay of a completed request, seconds (exact).
    pub max_queueing_delay: f64,
    /// Completed requests whose latency missed their class deadline
    /// (exact).
    pub deadline_misses: usize,
    /// Per-class aggregates over completed requests, indexed by
    /// [`SlaClass::priority`]; `None` for classes with no completion.
    pub per_class: [Option<SlaClassReport>; 3],
    /// Plan-cache traffic summed over the clusters' caches.
    pub plan_cache: PlanCacheStats,
    /// Requests routed to the most-loaded cluster (the routing balance
    /// signal; the fleet router counts a re-routed retry again).
    pub busiest_cluster_requests: usize,
    /// Requests routed to the least-loaded cluster.
    pub idlest_cluster_requests: usize,
    /// WAN round trips paid, retried attempts included, per completed
    /// request, seconds (0 when all traffic stays at its regional ingress).
    pub mean_wan_round_trip: f64,
    /// Offered/completed/dropped accounting, including recovery traffic.
    /// Fault-free runs report `offered == completed == requests`.
    pub robustness: RobustnessStats,
    /// Adaptive-loop counters and dynamic compute energy, summed over
    /// clusters. Non-adaptive runs report zero re-plans and observations;
    /// `energy_j` is always accrued (identically on every path, so
    /// drift-free configs stay bit-identical across loops).
    pub drift: DriftStats,
    /// Virtual time of the first kill that produced a retry anywhere
    /// (`INFINITY` when nothing was retried).
    pub time_to_first_retry: f64,
    /// Latency tail over completions that needed at least one retry (the
    /// recovery cost); `None` when no retried request completed.
    pub recovery_latency: Option<LatencySummary>,
}

impl RunSummary {
    /// Adds up a finished run that was offered `offered` requests and took
    /// `rounds` router rounds. Each item of `clusters` is one cluster's
    /// loop, the sink its completions went to, the requests routed to it
    /// and the WAN round trips it paid, in the order to merge them —
    /// cluster index order on the fleet, which keeps the summary
    /// thread-count invariant. Request conservation is debug-asserted.
    ///
    /// # Errors
    ///
    /// Fails when no request completed: such a run has no latency summary.
    pub(crate) fn of<'l>(
        name: Named<'_>,
        offered: usize,
        rounds: usize,
        clusters: impl IntoIterator<Item = (&'l ClusterLoop, &'l Tails, usize, f64)>,
    ) -> Result<Self, CoreError> {
        let mut robustness = RobustnessStats {
            offered: offered as u64,
            ..RobustnessStats::default()
        };
        let mut drift = DriftStats::default();
        let mut plan_cache = PlanCacheStats::default();
        let mut tails = Tails::new();
        let (mut count, mut batches, mut epochs_applied) = (0, 0, 0);
        let (mut busiest, mut idlest) = (0, usize::MAX);
        let (mut makespan, mut first_retry, mut wan_sum) = (0.0f64, f64::INFINITY, 0.0f64);
        for (run, run_tails, routed, wan) in clusters {
            count += 1;
            tails.merge(run_tails);
            robustness.merge(&run.robustness);
            drift.merge(&DriftStats {
                replans: run.adaptive.replans,
                observations: run.adaptive.observations,
                energy_j: run.dispatch.energy_j,
            });
            plan_cache.hits += run.stats.hits;
            plan_cache.misses += run.stats.misses;
            batches += run.batches;
            epochs_applied += run.epoch;
            makespan = makespan.max(run.makespan);
            first_retry = first_retry.min(run.first_retry);
            busiest = busiest.max(routed);
            idlest = idlest.min(routed);
            wan_sum += wan;
        }
        debug_assert!(
            robustness.accounts_for_every_request(),
            "request conservation violated: {robustness:?}"
        );
        let all = tails.latency();
        let latency = all
            .summary()
            .ok_or_else(|| name.infeasible(format_args!("no request completed")))?;
        Ok(Self {
            requests: offered,
            clusters: count,
            rounds,
            batches,
            epochs_applied,
            makespan,
            latency,
            max_latency: all.max(),
            mean_queueing_delay: robustness.per_completed(tails.queueing_sum),
            max_queueing_delay: tails.queueing_max,
            deadline_misses: tails.deadline_misses,
            per_class: tails.per_class(),
            plan_cache,
            busiest_cluster_requests: busiest,
            idlest_cluster_requests: idlest,
            mean_wan_round_trip: robustness.per_completed(wan_sum),
            robustness,
            drift,
            time_to_first_retry: first_retry,
            recovery_latency: tails.recovered_latency.summary(),
        })
    }

    /// Requests that were not served within their deadline, over offered
    /// requests: `(offered − completed + deadline_misses) / offered`. A
    /// shed, aborted, lost or still-in-flight request counts as a miss, so
    /// this is `1 − sla_goodput()`. A run that completes every request
    /// reads `deadline_misses / requests`.
    pub fn sla_miss_rate(&self) -> f64 {
        let r = &self.robustness;
        (r.offered - r.completed + self.deadline_misses as u64) as f64 / r.offered as f64
    }

    /// Completions within their class deadline, over offered requests: the
    /// robustness headline. A shed, aborted, lost or late request all count
    /// against it equally.
    pub fn sla_goodput(&self) -> f64 {
        let r = &self.robustness;
        r.completed.saturating_sub(self.deadline_misses as u64) as f64 / r.offered as f64
    }

    /// The report for one class, over its completed requests; `None` when
    /// none of them completed.
    pub fn class(&self, class: SlaClass) -> Option<&SlaClassReport> {
        self.per_class[class.priority() as usize].as_ref()
    }

    /// Completed requests over the makespan, per second of simulated time
    /// (dropped requests are not counted).
    pub fn requests_per_second(&self) -> f64 {
        self.robustness.completed_per_second(self.makespan)
    }
}

/// The request side of a cluster loop: the requests it indexes, the order
/// fresh ones arrive in, and where a killed one goes.
pub(crate) trait Inbox {
    /// Every request the loop may index.
    fn requests(&self) -> &[ServingRequest];
    /// The `k`-th fresh arrival (arrival order), once it is known.
    fn arrival(&self, k: usize) -> Option<u32>;
    /// WAN round trip between request `i`'s ingress and this cluster.
    fn wan(&self, i: u32) -> f64;
    /// The identity of request `i` across clusters (keys the retry jitter).
    fn id(&self, i: u32) -> u32;
    /// Sends the next attempt (`attempt`, 1-based) of killed request `i`,
    /// released at `release`, to the cluster that will run it.
    fn requeue(&mut self, retries: &mut TimeHeap<u32>, i: u32, release: f64, attempt: u32);
}

/// Where a cluster loop reports its work.
pub(crate) trait Sink {
    /// A batch of `members` was admitted at `admitted` under `epoch`.
    fn admit(
        &mut self,
        _admitted: f64,
        _epoch: usize,
        _members: &[u32],
        _plan: &Arc<ExecutionPlan>,
    ) {
    }
    /// One request completed. Called in admission order (members in
    /// queue order); `retried` marks a request on a later attempt.
    fn complete(
        &mut self,
        _request: &ServingRequest,
        _wan: f64,
        _retried: bool,
        _admitted: f64,
        _completion: f64,
    ) {
    }
}

/// One cluster's admission-loop state, persisted across
/// [`ClusterLoop::advance_until`] calls. Every buffer keeps its capacity
/// across [`ClusterLoop::reset`], so a steady-state pass over a workload
/// shape already seen performs zero heap allocations.
#[derive(Debug)]
pub(crate) struct ClusterLoop {
    queue: IndexedQueue,
    members: Vec<u32>,
    memo: PlanMemo,
    pub(crate) dispatch: DispatchEstimator,
    /// Estimated completions of the batches in the admission window.
    inflight: TimeHeap<()>,
    /// The current epoch's cluster: the base cluster with every timeline
    /// event applied so far (`None` only before the first reset).
    epoch_cluster: Option<Cluster>,
    /// Admitted batches awaiting completion, admission order; their
    /// members, concatenated in the same order, leave with them.
    pending: VecDeque<PendingBatch>,
    pending_members: VecDeque<u32>,
    /// Killed requests awaiting their backoff release.
    retries: TimeHeap<u32>,
    /// Attempts burned per request index (empty unless kills are armed).
    attempts: Vec<u32>,
    /// Whether kills are armed for this run.
    pub(crate) kill: bool,
    pub(crate) adaptive: AdaptiveState,
    next_event: usize,
    next_arrival: usize,
    now: f64,
    /// Timeline events applied so far.
    pub(crate) epoch: usize,
    pub(crate) stats: PlanCacheStats,
    /// Outcome counters (`offered` is left to the caller).
    pub(crate) robustness: RobustnessStats,
    pub(crate) batches: usize,
    /// Latest completion retired so far.
    pub(crate) makespan: f64,
    /// Virtual time of the first kill that produced a retry (`INFINITY`
    /// when none did).
    pub(crate) first_retry: f64,
    /// The current epoch cluster's fingerprint (the fleet router's sticky
    /// routing signal).
    pub(crate) fingerprint: u64,
}

impl ClusterLoop {
    pub(crate) fn new() -> Self {
        Self {
            queue: IndexedQueue::default(),
            members: Vec::new(),
            memo: PlanMemo::new(),
            dispatch: DispatchEstimator::default(),
            inflight: TimeHeap::default(),
            epoch_cluster: None,
            pending: VecDeque::new(),
            pending_members: VecDeque::new(),
            retries: TimeHeap::default(),
            attempts: Vec::new(),
            kill: false,
            adaptive: AdaptiveState::default(),
            next_event: 0,
            next_arrival: 0,
            now: 0.0,
            epoch: 0,
            stats: PlanCacheStats::default(),
            robustness: RobustnessStats::default(),
            batches: 0,
            makespan: 0.0,
            first_retry: f64::INFINITY,
            fingerprint: 0,
        }
    }

    /// Rearms the loop for a new run under `ctx` over `requests` request
    /// indices known up front (0 when they are delivered later through
    /// [`ClusterLoop::accept`]).
    pub(crate) fn reset(&mut self, ctx: &LoopCtx<'_>, requests: usize) {
        self.memo.reset(ctx);
        self.queue.reset(requests);
        self.dispatch.reset();
        self.inflight.clear();
        match &mut self.epoch_cluster {
            // Availability-only rewind keeps warm passes zero-alloc; a
            // different base cluster falls back to a full clone.
            Some(c) => {
                if c.restore_availability_from(ctx.base).is_err() {
                    c.clone_from(ctx.base);
                }
            }
            None => self.epoch_cluster = Some(ctx.base.clone()),
        }
        self.pending.clear();
        self.pending_members.clear();
        self.retries.clear();
        self.attempts.clear();
        self.kill = ctx.kill();
        if self.kill {
            self.attempts.resize(requests, 0);
        }
        // Reset also deactivates any belief a previous run materialised: a
        // non-adaptive run must not inherit it, and an adaptive steady-state
        // pass must rediscover it exactly like the warm pass did.
        match &ctx.config.adaptive {
            Some(cfg) => self.adaptive.reset(cfg, ctx.base.len()),
            None => self.adaptive.reset(&AdaptiveConfig::default(), 0),
        }
        self.next_event = 0;
        self.next_arrival = 0;
        self.now = 0.0;
        self.epoch = 0;
        self.stats = PlanCacheStats::default();
        self.robustness = RobustnessStats::default();
        self.batches = 0;
        self.makespan = 0.0;
        self.first_retry = f64::INFINITY;
        self.fingerprint = ctx.base.fingerprint();
    }

    /// Makes delivered request index `i` known to the loop (indices arrive
    /// in order). A fresh arrival enters the queue through the
    /// [`Inbox::arrival`] cursor; a retry — `Some((ready, attempts
    /// burned))` — enters through the retry heap at `ready` instead.
    pub(crate) fn accept(&mut self, i: u32, retry: Option<(f64, u32)>) {
        self.queue.ensure(i as usize + 1);
        if self.kill {
            self.attempts
                .push(retry.map_or(0, |(_, attempts)| attempts));
        }
        if let Some((ready, _)) = retry {
            self.retries.push(ready + 0.0, i);
        }
    }

    /// Runs the loop until its next virtual-time step would cross `t_end`
    /// or nothing is left to do. Work still pending when the loop goes
    /// quiet is retired into `sink` before returning.
    ///
    /// # Errors
    ///
    /// Propagates planning, estimation and timeline errors.
    pub(crate) fn advance_until<I: Inbox, S: Sink>(
        &mut self,
        ctx: &LoopCtx<'_>,
        inbox: &mut I,
        sink: &mut S,
        t_end: f64,
    ) -> Result<(), CoreError> {
        let ClusterLoop {
            queue,
            members,
            memo,
            dispatch,
            inflight,
            epoch_cluster,
            pending,
            pending_members,
            retries,
            attempts,
            adaptive,
            next_event,
            next_arrival,
            now,
            epoch,
            stats,
            robustness,
            batches,
            makespan,
            first_retry,
            fingerprint,
            ..
        } = self;
        let events = ctx.events;
        let recovery = ctx.config.recovery;
        // Set by every reset; a loop advanced before its first reset starts
        // from the base cluster.
        let epoch_cluster = epoch_cluster.get_or_insert_with(|| ctx.base.clone());

        loop {
            // Admit everything the window allows at the current instant.
            while queue.len() > 0 && ctx.config.max_inflight.is_none_or(|w| inflight.len() < w) {
                let requests = inbox.requests();
                let head = queue.pick();
                if recovery.shed {
                    // Load shedding: when max(now, the earliest free time
                    // over the resources this run has touched) overruns
                    // the head's deadline, serving it would most likely
                    // burn capacity on a miss.
                    let request = &requests[head as usize];
                    let bound = now.max(dispatch.earliest_free());
                    if bound > request.arrival + request.sla.deadline_seconds() - inbox.wan(head) {
                        queue.remove(head);
                        robustness.shed += 1;
                        continue;
                    }
                }
                queue.coalesce(head, ctx.config.max_batch, members);
                for &m in members.iter() {
                    queue.remove(m);
                }
                let head = requests[head as usize];
                let combined = head.batch * members.len();
                // Closed-loop re-planning: when an effective-rate estimate
                // leaves the hysteresis band (bounded by `max_replans`), or
                // an availability flip staled the belief, rebuild the
                // believed cluster from the current epoch base — a stale
                // rebuild burns no re-plan. Planning and cache keys then
                // follow the belief; execution stays on the true cluster.
                if let Some(cfg) = &ctx.config.adaptive {
                    let hysteresis =
                        adaptive.replans < cfg.max_replans && adaptive.should_replan(cfg);
                    if hysteresis || (adaptive.stale && adaptive.active) {
                        if hysteresis {
                            adaptive.replans += 1;
                        }
                        adaptive.rebuild_believed(epoch_cluster, hysteresis, cfg)?;
                    }
                }
                let plan_cluster: &Cluster = match adaptive.belief() {
                    Some(believed) => believed,
                    None => epoch_cluster,
                };
                let primary =
                    memo.lookup(ctx, head.model, combined, plan_cluster, dispatch, stats)?;
                // Measured-completion feedback: replay the plan against the
                // resource free times every earlier admission left behind,
                // on the drifting truth; the observer feeds the adaptive
                // loop's effective-rate estimates.
                let program = &memo.programs[primary];
                let observer = ctx.config.adaptive.is_some().then_some(&mut *adaptive);
                let completion = dispatch.run(program, *now, ctx.slowdowns, ctx.drift, observer);

                sink.admit(*now, *epoch, members, &memo.plans[primary]);
                if ctx.config.max_inflight.is_some() {
                    inflight.push(completion, ());
                }
                let b = PendingBatch {
                    admitted: *now,
                    completion,
                    mask: program.mask(),
                    members: members.len() as u32,
                    alive: true,
                };
                *batches += 1;
                if ctx.kill() {
                    // A down-flip may still kill the batch: it waits in the
                    // FIFO until the clock passes its completion.
                    pending_members.extend(members.iter().copied());
                    pending.push_back(b);
                } else {
                    // Nothing can change its completion any more.
                    let members = members.iter().copied();
                    retire(&b, members, &*inbox, sink, attempts, robustness, makespan);
                }
            }

            let fresh = next_fresh(&*inbox, attempts, next_arrival);
            let work_left = fresh.is_some() || queue.len() > 0 || !retries.is_empty();
            // Remaining down-flips can still kill pending work after the
            // queue drains, so the clock keeps walking events while any
            // pending batch outlives the next *down* event (up events never
            // kill, so they alone never drive the clock).
            let next_down = if ctx.kill() {
                events[*next_event..].iter().find(|e| !e.up)
            } else {
                None
            };
            let kills_pending =
                next_down.is_some_and(|e| pending.iter().any(|b| b.alive && b.completion > e.time));
            if !work_left && !kills_pending {
                // Quiet until the next delivery: no remaining down-flip can
                // touch what is pending, so its completions are settled.
                while let Some(b) = pending.pop_front() {
                    let members = pending_members.drain(..b.members as usize);
                    retire(&b, members, &*inbox, sink, attempts, robustness, makespan);
                }
                return Ok(());
            }

            // Blocked: wait for the next arrival, retry release, estimated
            // completion (when the window is full) or kill-relevant flip,
            // whichever comes first.
            let mut t = f64::INFINITY;
            if let Some(i) = fresh {
                t = inbox.requests()[i as usize].arrival + 0.0;
            }
            if let Some(release) = retries.peek_time() {
                t = t.min(release);
            }
            // A queue left after admitting means a full window.
            if let Some(soonest) = inflight.peek_time().filter(|_| queue.len() > 0) {
                t = t.min(soonest);
            }
            if let Some(down) = next_down.filter(|_| kills_pending) {
                t = t.min(down.time + 0.0);
            }
            if t > t_end {
                return Ok(()); // Barrier: resume here next call.
            }
            // Replay timeline events due by then. Each flip re-keys later
            // planning; under kill semantics a down-flip additionally kills
            // every pending batch whose plan touches the node and whose
            // completion lies beyond the flip (work finished by the flip
            // instant was already committed — the engine's rule).
            while *next_event < events.len() && events[*next_event].time <= t {
                let event = events[*next_event];
                epoch_cluster.set_available(event.node, event.up)?;
                *fingerprint = epoch_cluster.fingerprint();
                *epoch += 1;
                *next_event += 1;
                if adaptive.active {
                    // The belief was derated from the previous epoch's
                    // availability; the next admission rebuilds it.
                    adaptive.stale = true;
                }
                if !ctx.kill() || event.up {
                    continue;
                }
                if let Some(cfg) = &ctx.config.adaptive {
                    adaptive.observe_kill(event.node.0, cfg);
                }
                let bit = 1u64 << (event.node.0 as u64 & 63);
                let mut start = 0usize;
                for b in pending.iter_mut() {
                    let span = start..start + b.members as usize;
                    start = span.end;
                    if !(b.alive && b.completion > event.time && b.mask & bit != 0) {
                        continue;
                    }
                    // The members are killed and flow through the recovery
                    // policy.
                    b.alive = false;
                    robustness.killed += u64::from(b.members);
                    for &m in pending_members.range(span) {
                        let i = m as usize;
                        attempts[i] += 1;
                        let attempt = attempts[i];
                        let Some(policy) = recovery.retry.filter(|r| attempt <= r.max_attempts)
                        else {
                            robustness.lost += 1;
                            continue;
                        };
                        let backoff =
                            policy.backoff_base_s * policy.backoff_factor.powi(attempt as i32 - 1);
                        let unit = fnv64(&[policy.seed, u64::from(inbox.id(m)), u64::from(attempt)])
                            as f64
                            / u64::MAX as f64;
                        let release = event.time + backoff * (1.0 + policy.jitter_frac * unit);
                        let request = inbox.requests()[i];
                        if recovery.deadline_abort
                            && release > request.arrival + request.sla.deadline_seconds()
                        {
                            robustness.aborted += 1;
                        } else {
                            inbox.requeue(retries, m, release, attempt);
                            robustness.retried += 1;
                            if event.time < *first_retry {
                                *first_retry = event.time + 0.0;
                            }
                        }
                    }
                }
            }
            if t > *now {
                *now = t;
            }
            while inflight.pop_due(*now).is_some() {}
            // Retire batches the clock has passed, front-first so the
            // observation order stays the admission order.
            while let Some(b) = pending.pop_front_if(|b| !(b.alive && b.completion > *now)) {
                let members = pending_members.drain(..b.members as usize);
                retire(&b, members, &*inbox, sink, attempts, robustness, makespan);
            }
            // Released retries re-enter ahead of same-instant fresh
            // arrivals: a retried request is strictly older work.
            while let Some((_, i)) = retries.pop_due(*now) {
                enqueue(queue, &*inbox, i, ctx.config.policy);
            }
            while let Some(i) = next_fresh(&*inbox, attempts, next_arrival) {
                if inbox.requests()[i as usize].arrival + 0.0 > *now {
                    break;
                }
                enqueue(queue, &*inbox, i, ctx.config.policy);
                *next_arrival += 1;
            }
        }
    }

    /// Members of batches still pending (admitted, not yet retired).
    #[cfg(test)]
    pub(crate) fn pending_members(&self) -> &VecDeque<u32> {
        &self.pending_members
    }
}

/// The fresh arrival at `cursor`, stepping the cursor over delivered
/// retries: those carry burned attempts before ever being queued here and
/// enter through the retry heap instead. (A request only gains attempts
/// after it was queued, so fresh arrivals never match.)
fn next_fresh<I: Inbox>(inbox: &I, attempts: &[u32], cursor: &mut usize) -> Option<u32> {
    while let Some(i) = inbox.arrival(*cursor) {
        if attempts.get(i as usize).is_some_and(|&a| a > 0) {
            *cursor += 1;
        } else {
            return Some(i);
        }
    }
    None
}

/// Queues request `i` at the rank `policy` gives it under its absolute
/// deadline at this cluster (the rule in `hidp_sim::serving`).
fn enqueue<I: Inbox>(queue: &mut IndexedQueue, inbox: &I, i: u32, policy: AdmissionPolicy) {
    let request = &inbox.requests()[i as usize];
    let deadline = request.arrival + request.sla.deadline_seconds() - inbox.wan(i);
    queue.push(i, request, policy.rank(request, deadline));
}

/// Retires an admitted batch whose completion is final: a surviving batch
/// is counted and its `members` observed, a killed one is dropped.
fn retire<I: Inbox, S: Sink>(
    b: &PendingBatch,
    members: impl Iterator<Item = u32>,
    inbox: &I,
    sink: &mut S,
    attempts: &[u32],
    robustness: &mut RobustnessStats,
    makespan: &mut f64,
) {
    if !b.alive {
        return;
    }
    if b.completion > *makespan {
        *makespan = b.completion;
    }
    robustness.completed += u64::from(b.members);
    let requests = inbox.requests();
    for m in members {
        let retried = attempts.get(m as usize).is_some_and(|&a| a > 0);
        sink.complete(
            &requests[m as usize],
            inbox.wan(m),
            retried,
            b.admitted,
            b.completion,
        );
    }
}

/// One admitted batch awaiting its estimated completion, with kill-tracking
/// state: which nodes its plan touches (a 64-bit mask — validation gates
/// kill semantics to ≤ 64-node clusters) and whether it is still alive.
#[derive(Debug, Clone, Copy)]
struct PendingBatch {
    admitted: f64,
    completion: f64,
    mask: u64,
    /// How many members the batch holds in the pending-member pool.
    members: u32,
    alive: bool,
}

/// A min-heap of items keyed by `(time, push sequence)`: the earliest time
/// pops first, equal times in push order. [`TimeHeap::clear`] keeps the
/// capacity and restarts the sequence, so a run's order never depends on
/// an earlier run.
#[derive(Debug)]
pub(crate) struct TimeHeap<T> {
    heap: BinaryHeap<Reverse<Timed<T>>>,
    seq: u64,
}

#[derive(Debug)]
struct Timed<T> {
    at: f64,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Timed<T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl<T> Eq for Timed<T> {}

impl<T> PartialOrd for Timed<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Timed<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.at.total_cmp(&other.at).then(self.seq.cmp(&other.seq))
    }
}

impl<T> Default for TimeHeap<T> {
    fn default() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }
}

impl<T> TimeHeap<T> {
    pub(crate) fn push(&mut self, at: f64, item: T) {
        let seq = self.seq;
        self.heap.push(Reverse(Timed { at, seq, item }));
        self.seq += 1;
    }

    pub(crate) fn clear(&mut self) {
        self.heap.clear();
        self.seq = 0;
    }

    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The earliest time queued.
    pub(crate) fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|Reverse(e)| e.at)
    }

    /// Pops the earliest item, with its time, if that time is at most `t`.
    pub(crate) fn pop_due(&mut self, t: f64) -> Option<(f64, T)> {
        if self.peek_time()? > t {
            return None;
        }
        self.heap.pop().map(|Reverse(e)| (e.at, e.item))
    }
}

/// The loop's per-run plan memo (see the module docs). Entry `i` is the
/// `i`-th key first used this run: `plans[i]` and its compiled form
/// `programs[i]`. Entries are never removed within a run, so an entry index
/// stays valid until the next reset; compiled forms past `plans.len()`
/// are spare buffers from earlier runs, reused in first-use order.
#[derive(Debug)]
struct PlanMemo {
    /// The reusable plan-cache key: the run's strategy strings and leader,
    /// with the graph and cluster fields rewritten per first use.
    key: PlanKey,
    graphs: HashMap<(WorkloadModel, usize), Arc<DnnGraph>, FixedState>,
    /// Entry index per `(model, combined batch, plan-cluster fingerprint)`.
    index: HashMap<(WorkloadModel, usize, u64), u32>,
    plans: Vec<Arc<ExecutionPlan>>,
    programs: Vec<CompiledPlan>,
}

impl PlanMemo {
    fn new() -> Self {
        Self {
            key: PlanKey {
                strategy: String::new(),
                strategy_config: String::new(),
                graph_fingerprint: 0,
                batch: 0,
                leader: NodeIndex(0),
                cluster_fingerprint: 0,
            },
            graphs: HashMap::default(),
            index: HashMap::new(),
            plans: Vec::new(),
            programs: Vec::new(),
        }
    }

    /// Rearms the memo for a run under `ctx`. Every entry goes — the plan
    /// cache may have been cleared, the execution cluster may differ and
    /// the dispatch estimator's resource ids restart — and drops its plan,
    /// so a cache the caller has since dropped is not kept alive.
    fn reset(&mut self, ctx: &LoopCtx<'_>) {
        // The strategy string reuses its buffer, so for default-config
        // strategies a steady-state pass rebuilds the key without
        // allocating.
        self.key.strategy.clear();
        self.key.strategy.push_str(ctx.strategy.name());
        ctx.strategy
            .write_cache_config(&mut self.key.strategy_config);
        self.key.leader = ctx.leader;
        self.index.clear();
        self.plans.clear();
    }

    /// The entry of `model` at batch `combined` planned on `cluster`,
    /// added on the key's first use this run: the graph map and the shared
    /// plan cache (counted as the cache reports), then a compile against
    /// the execution cluster. Later uses are plan-cache hits.
    ///
    /// # Errors
    ///
    /// Propagates planning and compile failures.
    fn lookup(
        &mut self,
        ctx: &LoopCtx<'_>,
        model: WorkloadModel,
        combined: usize,
        cluster: &Cluster,
        dispatch: &mut DispatchEstimator,
        stats: &mut PlanCacheStats,
    ) -> Result<usize, CoreError> {
        let fingerprint = cluster.fingerprint();
        if let Some(&i) = self.index.get(&(model, combined, fingerprint)) {
            stats.hits += 1;
            return Ok(i as usize);
        }
        let graph = self
            .graphs
            .entry((model, combined))
            .or_insert_with(|| Arc::new(model.graph(combined)));
        self.key.graph_fingerprint = graph.fingerprint();
        self.key.batch = graph.input_shape().batch();
        self.key.cluster_fingerprint = fingerprint;
        let (plan, hit) =
            ctx.cache
                .plan_keyed(&self.key, ctx.strategy, graph, cluster, ctx.leader)?;
        if hit {
            stats.hits += 1;
        } else {
            stats.misses += 1;
        }
        let i = self.plans.len();
        if i == self.programs.len() {
            self.programs.push(CompiledPlan::default());
        }
        dispatch.compile(&plan, ctx.base, &mut self.programs[i])?;
        self.plans.push(plan);
        self.index.insert((model, combined, fingerprint), i as u32);
        Ok(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_times_pop_in_push_order() {
        let mut heap = TimeHeap::default();
        for (at, item) in [(2.0, 'a'), (1.0, 'b'), (2.0, 'c'), (1.0, 'd'), (2.0, 'e')] {
            heap.push(at, item);
        }
        assert_eq!(heap.len(), 5);
        assert_eq!(heap.peek_time(), Some(1.0));
        assert_eq!(heap.pop_due(0.5), None, "nothing is due before 1.0");
        let mut popped = Vec::new();
        while let Some(entry) = heap.pop_due(f64::INFINITY) {
            popped.push(entry);
        }
        assert_eq!(
            popped,
            [(1.0, 'b'), (1.0, 'd'), (2.0, 'a'), (2.0, 'c'), (2.0, 'e')]
        );
        assert!(heap.is_empty());
    }

    #[test]
    fn clear_restarts_the_sequence() {
        let mut heap = TimeHeap::default();
        heap.push(1.0, 0u32);
        heap.push(1.0, 1);
        heap.clear();
        assert!(heap.is_empty());
        assert_eq!(heap.seq, 0);
        // After a clear the sequence restarts, so a heap that has been
        // through another run orders ties exactly like a fresh one.
        let mut fresh = TimeHeap::default();
        for heap in [&mut heap, &mut fresh] {
            heap.push(3.0, 7u32);
            heap.push(3.0, 8);
        }
        assert_eq!(heap.heap.peek().map(|e| e.0.seq), Some(0));
        assert_eq!(heap.pop_due(3.0), fresh.pop_due(3.0));
        assert_eq!(heap.pop_due(3.0), Some((3.0, 8)));
    }
}
