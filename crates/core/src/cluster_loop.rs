//! The one admission loop every simulated cluster runs.
//!
//! The serving tier's single cluster (streaming and records mode alike) and
//! every fleet cluster behind the router run [`ClusterLoop::advance_until`]:
//! a virtual-time loop that walks fresh arrivals, retry releases, timeline
//! events and estimated completions; admits batches per
//! [`AdmissionPolicy`] through the [`IndexedQueue`]; plans each batch
//! against the current epoch's (or the adaptive loop's believed) cluster
//! through the shared [`PlanCache`]; and estimates its completion with the
//! persistent [`DispatchEstimator`].
//!
//! The loop is incremental: it returns — before mutating anything — as soon
//! as its next virtual-time step would cross `t_end`, and resumes from
//! exactly that point on the next call. The fleet calls it once per router
//! round; the serving tier calls it once with `t_end = +∞`.
//!
//! Under kill semantics admitted batches wait in a pending FIFO until the
//! clock passes their completion, then retire front-first; a down-flip
//! kills every pending copy whose plan touches the failed node, and the
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

use crate::adaptive::{AdaptiveConfig, AdaptiveState};
use crate::fleet::fnv64;
use crate::plan_cache::{PlanCache, PlanCacheStats};
use crate::serving::{
    AdmissionPolicy, DispatchEstimator, IndexedQueue, RecoveryPolicy, RobustnessStats,
    ServingRequest,
};
use crate::strategy::DistributedStrategy;
use crate::{CoreError, PlanKey};
use hidp_dnn::zoo::WorkloadModel;
use hidp_dnn::DnnGraph;
use hidp_platform::{AvailabilityEvent, Cluster, DriftModel, NodeIndex, SlowdownWindow};
use hidp_sim::serving::SlaClass;
use hidp_sim::ExecutionPlan;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
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
    fn requeue(&mut self, retries: &mut RetryHeap, i: u32, release: f64, attempt: u32);
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
    key: PlanKey,
    queue: IndexedQueue,
    members: Vec<u32>,
    graphs: HashMap<(WorkloadModel, usize), Arc<DnnGraph>>,
    pub(crate) dispatch: DispatchEstimator,
    inflight: BinaryHeap<Reverse<Departure>>,
    /// The current epoch's cluster (`None` when the timeline is empty).
    epoch_cluster: Option<Cluster>,
    hedge_cluster: Option<Cluster>,
    /// Admitted batches awaiting completion, admission order; their
    /// members, concatenated in the same order, leave with them.
    pending: VecDeque<PendingBatch>,
    pending_members: VecDeque<u32>,
    retries: RetryHeap,
    /// Attempts burned per request index (empty unless kills are armed).
    attempts: Vec<u32>,
    /// Whether kills are armed for this run.
    pub(crate) kill: bool,
    pub(crate) adaptive: AdaptiveState,
    next_event: usize,
    next_arrival: usize,
    departure_seq: u64,
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
            key: PlanKey {
                strategy: String::new(),
                strategy_config: String::new(),
                graph_fingerprint: 0,
                batch: 0,
                leader: NodeIndex(0),
                cluster_fingerprint: 0,
            },
            queue: IndexedQueue::default(),
            members: Vec::new(),
            graphs: HashMap::new(),
            dispatch: DispatchEstimator::default(),
            inflight: BinaryHeap::new(),
            epoch_cluster: None,
            hedge_cluster: None,
            pending: VecDeque::new(),
            pending_members: VecDeque::new(),
            retries: RetryHeap::default(),
            attempts: Vec::new(),
            kill: false,
            adaptive: AdaptiveState::default(),
            next_event: 0,
            next_arrival: 0,
            departure_seq: 0,
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
        // The strategy string reuses its buffer, so for default-config
        // strategies a steady-state pass rebuilds the key without
        // allocating.
        self.key.strategy.clear();
        self.key.strategy.push_str(ctx.strategy.name());
        ctx.strategy
            .write_cache_config(&mut self.key.strategy_config);
        self.key.graph_fingerprint = 0;
        self.key.batch = 0;
        self.key.leader = ctx.leader;
        self.key.cluster_fingerprint = ctx.base.fingerprint();
        self.queue.reset(requests);
        self.dispatch.reset();
        self.inflight.clear();
        if ctx.events.is_empty() {
            self.epoch_cluster = None;
        } else {
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
        self.departure_seq = 0;
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
            key,
            queue,
            members,
            graphs,
            dispatch,
            inflight,
            epoch_cluster,
            hedge_cluster,
            pending,
            pending_members,
            retries,
            attempts,
            adaptive,
            next_event,
            next_arrival,
            departure_seq,
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

        loop {
            // Admit everything the window allows at the current instant.
            while queue.len() > 0 && ctx.max_inflight.is_none_or(|w| inflight.len() < w) {
                let requests = inbox.requests();
                let head = queue.pick(ctx.policy);
                if recovery.shed {
                    // Load shedding: every admitted completion is ≥
                    // max(now, earliest free resource) — when even that
                    // sound lower bound overruns the head's deadline,
                    // serving it would burn capacity on a guaranteed miss.
                    let request = &requests[head as usize];
                    let bound = now.max(dispatch.earliest_free());
                    if bound > request.arrival + request.sla.deadline_seconds() - inbox.wan(head) {
                        queue.remove(head, requests);
                        robustness.shed += 1;
                        continue;
                    }
                }
                queue.coalesce(head, ctx.max_batch, members);
                for &m in members.iter() {
                    queue.remove(m, requests);
                }
                let head = requests[head as usize];
                let combined = head.batch * members.len();
                let graph = graphs
                    .entry((head.model, combined))
                    .or_insert_with(|| Arc::new(head.model.graph(combined)));
                key.graph_fingerprint = graph.fingerprint();
                key.batch = graph.input_shape().batch();
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
                        let belief_base: &Cluster = epoch_cluster.as_ref().unwrap_or(ctx.base);
                        adaptive.rebuild_believed(belief_base, hysteresis, cfg)?;
                    }
                }
                if let Some(believed) = adaptive.belief() {
                    key.cluster_fingerprint = believed.fingerprint();
                }
                let plan_cluster: &Cluster = match adaptive.belief() {
                    Some(believed) => believed,
                    None => epoch_cluster.as_ref().unwrap_or(ctx.base),
                };
                let (plan, hit) =
                    ctx.cache
                        .plan_keyed(key, ctx.strategy, graph, plan_cluster, ctx.leader)?;
                if hit {
                    stats.hits += 1;
                } else {
                    stats.misses += 1;
                }
                // Measured-completion feedback: replay the plan against the
                // resource free times every earlier admission left behind,
                // on the drifting truth; the observer feeds the adaptive
                // loop's effective-rate estimates.
                let completion = dispatch.estimate_full(
                    plan.as_ref(),
                    ctx.base,
                    *now,
                    ctx.slowdowns,
                    ctx.drift,
                    ctx.adaptive.map(|cfg| (cfg, &mut *adaptive)),
                )?;
                let mask = if ctx.kill || recovery.hedge_premium {
                    plan_node_mask(plan.as_ref())
                } else {
                    0
                };

                // Hedged dispatch: a premium batch gets a second copy
                // planned with the primary's most exposed non-leader node
                // marked down, so the copy survives exactly the failure
                // most likely to kill the primary. It consumes real
                // estimator capacity but feeds no observer — one batch
                // must not count twice in the estimators.
                let mut hedge_completion = f64::INFINITY;
                let mut hedge_mask = 0u64;
                let mut hedge_alive = false;
                let exposed = mask & !(1u64 << (ctx.leader.0 as u64 & 63));
                if recovery.hedge_premium && head.sla == SlaClass::Premium && exposed != 0 {
                    let avoid = NodeIndex(exposed.trailing_zeros() as usize);
                    let base: &Cluster = epoch_cluster.as_ref().unwrap_or(ctx.base);
                    let hc = match hedge_cluster {
                        Some(c) => {
                            if c.restore_availability_from(base).is_err() {
                                c.clone_from(base);
                            }
                            c
                        }
                        None => hedge_cluster.insert(base.clone()),
                    };
                    if hc.set_available(avoid, false).is_ok() {
                        let saved = key.cluster_fingerprint;
                        key.cluster_fingerprint = hc.fingerprint();
                        let hedged = ctx
                            .cache
                            .plan_keyed(key, ctx.strategy, graph, hc, ctx.leader);
                        key.cluster_fingerprint = saved;
                        // A cluster that cannot plan without the avoided
                        // node simply gets no hedge copy — hedging is
                        // opportunistic, never fatal.
                        if let Ok((hedge_plan, hedge_hit)) = hedged {
                            if hedge_hit {
                                stats.hits += 1;
                            } else {
                                stats.misses += 1;
                            }
                            hedge_completion = dispatch.estimate_full(
                                hedge_plan.as_ref(),
                                ctx.base,
                                *now,
                                ctx.slowdowns,
                                ctx.drift,
                                None,
                            )?;
                            hedge_mask = if ctx.kill {
                                plan_node_mask(hedge_plan.as_ref())
                            } else {
                                0
                            };
                            hedge_alive = true;
                            robustness.hedged += members.len() as u64;
                        }
                    }
                }

                sink.admit(*now, *epoch, members, &plan);
                if ctx.max_inflight.is_some() {
                    inflight.push(Reverse(Departure {
                        at: completion.min(hedge_completion),
                        seq: *departure_seq,
                    }));
                    *departure_seq += 1;
                }
                let b = PendingBatch {
                    admitted: *now,
                    completion,
                    hedge_completion,
                    mask,
                    hedge_mask,
                    members: members.len() as u32,
                    primary_alive: true,
                    hedge_alive,
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
            // pending copy outlives the next *down* event (up events never
            // kill, so they alone never drive the clock).
            let next_down = if ctx.kill {
                events[*next_event..].iter().find(|e| !e.up)
            } else {
                None
            };
            let kills_pending = next_down.is_some_and(|e| {
                pending.iter().any(|b| {
                    (b.primary_alive && b.completion > e.time)
                        || (b.hedge_alive && b.hedge_completion > e.time)
                })
            });
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
            if let Some(release) = retries.next_release() {
                t = t.min(release);
            }
            if queue.len() > 0 {
                let Reverse(soonest) = inflight
                    .peek()
                    .expect("a full admission window implies in-flight batches");
                t = t.min(soonest.at);
            }
            if let Some(down) = next_down.filter(|_| kills_pending) {
                t = t.min(down.time + 0.0);
            }
            if t > t_end {
                return Ok(()); // Barrier: resume here next call.
            }
            // Replay timeline events due by then. Each flip re-keys later
            // planning; under kill semantics a down-flip additionally kills
            // every pending copy whose plan touches the node and whose
            // completion lies beyond the flip (work finished by the flip
            // instant was already committed — the engine's rule).
            while *next_event < events.len() && events[*next_event].time <= t {
                let event = events[*next_event];
                let c = epoch_cluster
                    .as_mut()
                    .expect("events imply an epoch cluster");
                c.set_available(event.node, event.up)?;
                key.cluster_fingerprint = c.fingerprint();
                *fingerprint = c.fingerprint();
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
                    let was_alive = b.alive();
                    if b.primary_alive && b.completion > event.time && b.mask & bit != 0 {
                        b.primary_alive = false;
                    }
                    if b.hedge_alive && b.hedge_completion > event.time && b.hedge_mask & bit != 0 {
                        b.hedge_alive = false;
                    }
                    if !was_alive || b.alive() {
                        continue;
                    }
                    // Every copy is gone: the members are killed and flow
                    // through the recovery policy.
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
            while let Some(&Reverse(soonest)) = inflight.peek() {
                if soonest.at <= *now {
                    inflight.pop();
                } else {
                    break;
                }
            }
            // Retire batches the clock has passed, front-first so the
            // observation order stays the admission order.
            while let Some(front) = pending.front() {
                if front.alive() && front.effective_completion() > *now {
                    break;
                }
                let b = pending.pop_front().expect("front exists");
                let members = pending_members.drain(..b.members as usize);
                retire(&b, members, &*inbox, sink, attempts, robustness, makespan);
            }
            // Released retries re-enter ahead of same-instant fresh
            // arrivals: a retried request is strictly older work.
            while let Some(i) = retries.pop_due(*now) {
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

/// Queues request `i` under its absolute deadline (the rule in
/// `hidp_sim::serving`).
fn enqueue<I: Inbox>(queue: &mut IndexedQueue, inbox: &I, i: u32, policy: AdmissionPolicy) {
    let requests = inbox.requests();
    let request = &requests[i as usize];
    let deadline = request.arrival + request.sla.deadline_seconds() - inbox.wan(i);
    queue.push(i, requests, policy, deadline);
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
    if !b.alive() {
        return;
    }
    let completion = b.effective_completion();
    if completion > *makespan {
        *makespan = completion;
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
            completion,
        );
    }
}

/// An estimated batch completion in the admission window, ordered by time,
/// then admission sequence (shared with the serving tier's reference loop).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Departure {
    pub(crate) at: f64,
    pub(crate) seq: u64,
}

impl Eq for Departure {}

impl PartialOrd for Departure {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Departure {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.at.total_cmp(&other.at).then(self.seq.cmp(&other.seq))
    }
}

/// One admitted batch awaiting its estimated completion, with kill-tracking
/// state: which nodes each copy's plan touches (64-bit masks — validation
/// gates kill semantics and hedging to ≤ 64-node clusters) and whether each
/// copy is still alive.
#[derive(Debug, Clone, Copy)]
struct PendingBatch {
    admitted: f64,
    completion: f64,
    /// Estimated completion of the hedge copy (`INFINITY` when none).
    hedge_completion: f64,
    mask: u64,
    hedge_mask: u64,
    /// How many members the batch holds in the pending-member pool.
    members: u32,
    primary_alive: bool,
    hedge_alive: bool,
}

impl PendingBatch {
    fn alive(&self) -> bool {
        self.primary_alive || self.hedge_alive
    }

    /// The earliest completion among surviving copies (`INFINITY` when
    /// every copy is dead).
    fn effective_completion(&self) -> f64 {
        let mut t = f64::INFINITY;
        if self.primary_alive {
            t = self.completion;
        }
        if self.hedge_alive && self.hedge_completion < t {
            t = self.hedge_completion;
        }
        t
    }
}

/// Killed requests awaiting their backoff release, ordered by release
/// time, ties by push order.
#[derive(Debug, Default)]
pub(crate) struct RetryHeap {
    heap: BinaryHeap<Reverse<RetryEntry>>,
    seq: u64,
}

impl RetryHeap {
    /// Schedules request `idx` to re-enter the queue at `release`.
    pub(crate) fn push(&mut self, release: f64, idx: u32) {
        self.heap.push(Reverse(RetryEntry {
            release,
            seq: self.seq,
            idx,
        }));
        self.seq += 1;
    }

    fn clear(&mut self) {
        self.heap.clear();
        self.seq = 0;
    }

    fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    fn next_release(&self) -> Option<f64> {
        self.heap.peek().map(|Reverse(entry)| entry.release)
    }

    /// Pops the next request whose release is due by `now`.
    fn pop_due(&mut self, now: f64) -> Option<u32> {
        let &Reverse(entry) = self.heap.peek()?;
        if entry.release > now {
            return None;
        }
        self.heap.pop();
        Some(entry.idx)
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct RetryEntry {
    release: f64,
    seq: u64,
    idx: u32,
}

impl Eq for RetryEntry {}

impl PartialOrd for RetryEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for RetryEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.release
            .total_cmp(&other.release)
            .then(self.seq.cmp(&other.seq))
    }
}

/// The set of nodes a plan's tasks are resident on
/// ([`PlanTask::nodes`](hidp_sim::PlanTask::nodes): compute targets and
/// both transfer endpoints) as a 64-bit mask — the failure-aware engine's
/// per-task residency rule lifted to whole batches.
fn plan_node_mask(plan: &ExecutionPlan) -> u64 {
    plan.tasks().iter().fold(0u64, |mask, task| {
        let (a, b) = task.nodes();
        mask | 1u64 << (a.0 as u64 & 63) | 1u64 << (b.0 as u64 & 63)
    })
}
