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
//! too, so neither restates it: [`LoopCtx::new`] (with the batch and
//! window clamps), the shared checks ([`validate_requests`] and
//! [`LoopCtx::validate`]), [`arrival_order`], and the run [`Rollup`]
//! (offered count, conservation check, no-completion error, drift stats).
//! One [`TimeHeap`] orders the admission window, the retry heap, the
//! fleet's failover heap and the serving reference loop by `(time, push
//! sequence)`.

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
use hidp_sim::serving::LatencySummary;
use hidp_sim::{CompiledPlan, ExecutionPlan};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::fmt::Arguments;
use std::sync::Arc;

/// What one cluster loop runs against: the planner, the cluster and its
/// fault inputs, and the admission and recovery rules. Every field is a
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
    pub(crate) policy: AdmissionPolicy,
    pub(crate) max_batch: usize,
    /// The admission window, clamped to ≥ 1 (`None` = unbounded).
    pub(crate) max_inflight: Option<usize>,
    /// Whether down-flips kill in-flight batches.
    pub(crate) kill: bool,
    pub(crate) recovery: RecoveryPolicy,
    pub(crate) adaptive: Option<&'a AdaptiveConfig>,
}

impl<'a> LoopCtx<'a> {
    /// The context of one cluster under its tier's admission and recovery
    /// knobs. A batch or window of zero could never admit anything, so
    /// `max_batch` and a `Some` window are clamped to at least 1; an empty
    /// drift model is no drift.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        strategy: &'a dyn DistributedStrategy,
        leader: NodeIndex,
        base: &'a Cluster,
        cache: &'a PlanCache,
        events: &'a [AvailabilityEvent],
        slowdowns: &'a [SlowdownWindow],
        drift: Option<&'a DriftModel>,
        policy: AdmissionPolicy,
        max_batch: usize,
        max_inflight: Option<usize>,
        failures: FailureMode,
        recovery: RecoveryPolicy,
        adaptive: Option<&'a AdaptiveConfig>,
    ) -> Self {
        Self {
            strategy,
            leader,
            base,
            cache,
            events,
            slowdowns,
            drift: drift.filter(|d| !d.is_empty()),
            policy,
            max_batch: max_batch.max(1),
            max_inflight: max_inflight.map(|w| w.max(1)),
            kill: failures == FailureMode::Kill,
            recovery,
            adaptive,
        }
    }

    /// Rejects what this cluster's loop cannot run: an invalid retry or
    /// adaptive config; a timeline event, slowdown window or drift window
    /// that is malformed or names an unknown node; and kill semantics on a
    /// cluster too large for the 64-bit plan-residency mask.
    pub(crate) fn validate(&self, name: Named<'_>) -> Result<(), CoreError> {
        if let Some(retry) = &self.recovery.retry {
            retry.validate()?;
        }
        if let Some(adaptive) = self.adaptive {
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
        if self.kill && self.base.len() > 64 {
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

/// What a finished run's cluster loops add up to, merged in the order
/// given — cluster index order on the fleet, which keeps the rollup
/// thread-count invariant.
pub(crate) struct Rollup {
    pub(crate) latency: LatencySummary,
    pub(crate) max_latency: f64,
    pub(crate) robustness: RobustnessStats,
    pub(crate) drift: DriftStats,
    pub(crate) plan_cache: PlanCacheStats,
    pub(crate) batches: usize,
    pub(crate) epochs_applied: usize,
    pub(crate) makespan: f64,
    /// The earliest first retry of any loop (`INFINITY` when none).
    pub(crate) first_retry: f64,
}

impl Rollup {
    /// Adds up `loops`, which were offered `offered` requests between them
    /// and reported every completion into `tails`; request conservation is
    /// debug-asserted.
    ///
    /// # Errors
    ///
    /// Fails when no request completed: such a run has no latency summary.
    pub(crate) fn of<'l>(
        name: Named<'_>,
        offered: usize,
        loops: impl IntoIterator<Item = &'l ClusterLoop>,
        tails: &Tails,
    ) -> Result<Self, CoreError> {
        let mut robustness = RobustnessStats {
            offered: offered as u64,
            ..RobustnessStats::default()
        };
        let mut drift = DriftStats::default();
        let mut plan_cache = PlanCacheStats::default();
        let (mut batches, mut epochs_applied) = (0, 0);
        let (mut makespan, mut first_retry) = (0.0f64, f64::INFINITY);
        for run in loops {
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
            latency,
            max_latency: all.max(),
            robustness,
            drift,
            plan_cache,
            batches,
            epochs_applied,
            makespan,
            first_retry,
        })
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
        if ctx.kill {
            self.attempts.resize(requests, 0);
        }
        self.kill = ctx.kill;
        // Reset also deactivates any belief a previous run materialised: a
        // non-adaptive run must not inherit it, and an adaptive steady-state
        // pass must rediscover it exactly like the warm pass did.
        match ctx.adaptive {
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
        let recovery = ctx.recovery;
        // Set by every reset; a loop advanced before its first reset starts
        // from the base cluster.
        let epoch_cluster = epoch_cluster.get_or_insert_with(|| ctx.base.clone());

        loop {
            // Admit everything the window allows at the current instant.
            while queue.len() > 0 && ctx.max_inflight.is_none_or(|w| inflight.len() < w) {
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
                queue.coalesce(head, ctx.max_batch, members);
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
                if let Some(cfg) = ctx.adaptive {
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
                let observer = ctx.adaptive.is_some().then_some(&mut *adaptive);
                let completion = dispatch.run(program, *now, ctx.slowdowns, ctx.drift, observer);

                sink.admit(*now, *epoch, members, &memo.plans[primary]);
                if ctx.max_inflight.is_some() {
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
                if ctx.kill {
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
            let next_down = if ctx.kill {
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
                if !ctx.kill || event.up {
                    continue;
                }
                if let Some(cfg) = ctx.adaptive {
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
                enqueue(queue, &*inbox, i, ctx.policy);
            }
            while let Some(i) = next_fresh(&*inbox, attempts, next_arrival) {
                if inbox.requests()[i as usize].arrival + 0.0 > *now {
                    break;
                }
                enqueue(queue, &*inbox, i, ctx.policy);
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
