//! The fleet serving tier: route requests across many clusters on one
//! virtual clock, advance the clusters in parallel, and stay zero-alloc on
//! the warm path.
//!
//! [`crate::ServingScenario`] runs one cluster's admission loop;
//! [`FleetScenario`] runs one such loop **per cluster of a
//! [`hidp_platform::Fleet`]**, all sharing a single virtual clock. A
//! deterministic router assigns every arriving [`FleetRequest`] to a cluster
//! under a pluggable [`RoutingPolicy`]; each cluster then runs the cluster
//! loop the serving tier runs (`crate::cluster_loop`) over the requests
//! routed to it. Only two things differ from the serving tier: completions
//! feed mergeable WAN-aware histograms, and a killed request goes back to
//! the router instead of retrying in place. The front end is down to
//! routing: the request and per-cluster checks, the loop context, the
//! arrival order and the run rollup are the ones the serving tier uses
//! (`crate::cluster_loop`); the fleet adds only its own checks — regions,
//! round length, per-cluster list lengths and a leader in every cluster.
//!
//! # Rounds and barriers
//!
//! Virtual time is cut into router **rounds** of
//! [`FleetConfig::round_seconds`]. Each round the router (serially, in
//! global arrival order) delivers every arrival due by the round boundary to
//! its cluster, then all clusters advance **in parallel** up to the boundary
//! ([`crate::ParallelSweep::run_mut`]). The cluster loop stops — without
//! mutating any state — whenever its next virtual-time step would cross the
//! boundary, and resumes from exactly that point next round. Because a round
//! delivers *every* arrival up to its boundary before any cluster crosses
//! it, each cluster observes the same arrival/event/completion sequence the
//! one-shot serving loop would, so a 1-cluster fleet is **bit-identical** to
//! [`crate::ServingScenario::run_streaming`] (pinned by
//! `tests/fleet_equivalence.rs`) and results are bit-identical at any worker
//! thread count (each worker mutates only its own cluster; aggregates merge
//! in cluster index order through the exact-merge
//! [`hidp_sim::LatencyHistogram`]).
//!
//! # Routing
//!
//! Routing keys reuse the planning fingerprint machinery:
//! [`RoutingPolicy::StaticHash`] is rendezvous hashing of the request key
//! against each cluster's
//! [`Cluster::fingerprint`](hidp_platform::Cluster::fingerprint) — when a
//! [`ClusterTimeline`] flips a node, the cluster's fingerprint changes and
//! traffic re-keys exactly the way the plan cache re-keys.
//! [`RoutingPolicy::LeastLoaded`] reads each cluster's admission-model
//! backlog at the round barrier; [`RoutingPolicy::Locality`] adds the WAN
//! round trip from the request's region, so traffic stays regional until the
//! local backlog outweighs the WAN detour.
//!
//! # WAN accounting
//!
//! The WAN does not shift arrivals: a request reaches its cluster's queue at
//! its global arrival instant (shifting would reorder per-cluster arrivals
//! across rounds and break both determinism proofs). Instead the round trip
//! from the request's regional ingress to its serving cluster is added to
//! the *reported* fleet latency and counts against its deadline (the rule
//! in `hidp_sim::serving`) — routing a request away from its region costs
//! tail latency and SLA misses, which is exactly the trade-off locality
//! routing navigates.

use crate::adaptive::{AdaptiveConfig, DriftStats};
use crate::cluster_loop::{
    arrival_order, validate_requests, ClusterLoop, Inbox, LoopCtx, Named, Rollup, TimeHeap,
};
use crate::parallel::ParallelSweep;
use crate::plan_cache::{PlanCache, PlanCacheStats};
use crate::serving::{
    AdmissionPolicy, FailureMode, RecoveryPolicy, RobustnessStats, ServingRequest, Tails,
};
use crate::strategy::DistributedStrategy;
use crate::CoreError;
use hidp_dnn::zoo::WorkloadModel;
use hidp_platform::{
    ClusterTimeline, DriftModel, Fleet, NodeIndex, SlowdownWindow, WanDegradation,
};
use hidp_sim::serving::{LatencySummary, SlaClass, SlaClassReport};
use serde::{Deserialize, Serialize};

/// Request payload carried over the WAN, bytes: one 224×224×3 f32 image.
/// Prices the round trip a request pays and the locality cost.
const PAYLOAD_BYTES: u64 = 602_112;

/// Estimated serving cost, seconds, charged per request already routed to a
/// cluster within the current round, so least-loaded and locality routing
/// spread a burst that lands between two barriers.
const ROUTE_COST_HINT_S: f64 = 0.05;

/// Round boundary indices stay below 2^53, so every barrier time is an
/// exact multiple of the round length and the boundary always advances.
const MAX_BOUNDARY: u64 = 1 << 53;

/// One request entering the fleet: a serving request plus the region it
/// originates in (which decides its WAN ingress).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetRequest {
    /// The request (model, batch, arrival, SLA class).
    pub request: ServingRequest,
    /// The region the request originates in; must be `<`
    /// [`Fleet::region_count`].
    pub region: usize,
}

impl FleetRequest {
    /// Wraps a serving request with its origin region.
    pub fn new(request: ServingRequest, region: usize) -> Self {
        Self { request, region }
    }
}

/// How the fleet router picks a serving cluster for each arrival. All
/// policies are deterministic functions of the request, the configuration
/// and the (deterministic) cluster state at the round barrier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum RoutingPolicy {
    /// Uniform pseudo-random spread: FNV of `(seed, input index)` modulo the
    /// cluster count. Ignores both load and locality — the baseline the
    /// load-aware policies must beat.
    Random {
        /// Hash seed (different seeds give different but equally uniform
        /// spreads).
        seed: u64,
    },
    /// Rendezvous (highest-random-weight) hashing of the request key
    /// `(model, batch, region)` against each cluster's
    /// [`Cluster::fingerprint`](hidp_platform::Cluster::fingerprint).
    /// Sticky per key — and because the fingerprint covers availability, a
    /// timeline flip re-keys the cluster's traffic exactly the way it
    /// re-keys its plans.
    StaticHash,
    /// The cluster whose admission backlog (dispatch-model horizon beyond
    /// the round barrier, plus a fixed 0.05 s per request already routed
    /// this round) is smallest. Ties go to the lower cluster index.
    #[default]
    LeastLoaded,
    /// [`RoutingPolicy::LeastLoaded`] plus the WAN round trip from the
    /// request's regional ingress: traffic stays in-region until the local
    /// backlog outweighs the WAN detour.
    Locality,
}

impl RoutingPolicy {
    /// Short name used in experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            RoutingPolicy::Random { .. } => "random",
            RoutingPolicy::StaticHash => "static-hash",
            RoutingPolicy::LeastLoaded => "least-loaded",
            RoutingPolicy::Locality => "locality",
        }
    }
}

/// Configuration of the fleet loop: the routing policy and round length on
/// top of the per-cluster serving knobs (admission policy, batching,
/// in-flight window, one optional [`ClusterTimeline`] per cluster).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// How arrivals are assigned to clusters.
    pub routing: RoutingPolicy,
    /// Per-cluster admission policy.
    pub policy: AdmissionPolicy,
    /// Per-cluster batching limit (clamped to ≥ 1).
    pub max_batch: usize,
    /// Per-cluster in-flight admission window (`None` = unbounded).
    pub max_inflight: Option<usize>,
    /// One failure timeline per cluster (empty = all clusters static; when
    /// non-empty the length must equal the fleet's cluster count).
    pub timelines: Vec<ClusterTimeline>,
    /// Router round length, virtual seconds (finite, > 0). Shorter rounds
    /// give load-aware routing fresher backlog signals at more barriers. A
    /// length that puts any delivery's round index at 2^53 or beyond, where
    /// barrier times stop being exact, fails the run with a typed error.
    pub round_seconds: f64,
    /// What a down-flip does to batches already in flight (per cluster).
    pub failures: FailureMode,
    /// Recovery responses for killed and at-risk requests. At the fleet
    /// tier a retry goes **back to the router**, which re-routes it away
    /// from the cluster that killed it (failover).
    pub recovery: RecoveryPolicy,
    /// Straggler windows per cluster (empty = no stragglers; when
    /// non-empty the outer length must equal the fleet's cluster count).
    pub slowdowns: Vec<Vec<SlowdownWindow>>,
    /// Fleet-wide WAN degradation windows: a request delivered inside a
    /// window pays `factor`× its cross-site round trip.
    pub wan_degradations: Vec<WanDegradation>,
    /// One continuous drift model per cluster (empty = no drift; when
    /// non-empty the length must equal the fleet's cluster count).
    pub drifts: Vec<DriftModel>,
    /// The adaptive estimation/re-planning loop, applied per cluster
    /// worker. `None` keeps planning static.
    pub adaptive: Option<AdaptiveConfig>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            routing: RoutingPolicy::default(),
            policy: AdmissionPolicy::Fifo,
            max_batch: 1,
            max_inflight: None,
            timelines: Vec::new(),
            round_seconds: 1.0,
            failures: FailureMode::default(),
            recovery: RecoveryPolicy::default(),
            slowdowns: Vec::new(),
            wan_degradations: Vec::new(),
            drifts: Vec::new(),
            adaptive: None,
        }
    }
}

/// A fleet workload: regional requests plus the [`FleetConfig`] governing
/// routing and every cluster's serving loop.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetScenario {
    label: String,
    requests: Vec<FleetRequest>,
    config: FleetConfig,
}

impl FleetScenario {
    /// Wraps `requests` with the default config; labelled `fleet[n]`.
    pub fn new(requests: Vec<FleetRequest>) -> Self {
        let label = format!("fleet[{}]", requests.len());
        Self {
            label,
            requests,
            config: FleetConfig::default(),
        }
    }

    /// Replaces the report label (builder style).
    #[must_use]
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Replaces the whole config (builder style); `max_batch` is clamped to
    /// at least 1.
    #[must_use]
    pub fn with_config(mut self, config: FleetConfig) -> Self {
        self.config = config;
        self.config.max_batch = self.config.max_batch.max(1);
        self
    }

    /// Sets the routing policy (builder style).
    #[must_use]
    pub fn with_routing(mut self, routing: RoutingPolicy) -> Self {
        self.config.routing = routing;
        self
    }

    /// Sets the per-cluster admission policy (builder style).
    #[must_use]
    pub fn with_policy(mut self, policy: AdmissionPolicy) -> Self {
        self.config.policy = policy;
        self
    }

    /// Sets the per-cluster batching limit (builder style, clamped to ≥ 1).
    #[must_use]
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.config.max_batch = max_batch.max(1);
        self
    }

    /// Sets the per-cluster in-flight window (builder style).
    #[must_use]
    pub fn with_max_inflight(mut self, max_inflight: Option<usize>) -> Self {
        self.config.max_inflight = max_inflight;
        self
    }

    /// Sets the per-cluster failure timelines (builder style).
    #[must_use]
    pub fn with_timelines(mut self, timelines: Vec<ClusterTimeline>) -> Self {
        self.config.timelines = timelines;
        self
    }

    /// Sets the router round length (builder style; validated at run time).
    #[must_use]
    pub fn with_round_seconds(mut self, round_seconds: f64) -> Self {
        self.config.round_seconds = round_seconds;
        self
    }

    /// Sets the failure mode (builder style).
    #[must_use]
    pub fn with_failure_mode(mut self, failures: FailureMode) -> Self {
        self.config.failures = failures;
        self
    }

    /// Sets the recovery policy (builder style).
    #[must_use]
    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.config.recovery = recovery;
        self
    }

    /// Sets the per-cluster straggler windows (builder style).
    #[must_use]
    pub fn with_slowdowns(mut self, slowdowns: Vec<Vec<SlowdownWindow>>) -> Self {
        self.config.slowdowns = slowdowns;
        self
    }

    /// Sets the fleet-wide WAN degradation windows (builder style).
    #[must_use]
    pub fn with_wan_degradations(mut self, windows: Vec<WanDegradation>) -> Self {
        self.config.wan_degradations = windows;
        self
    }

    /// Sets the per-cluster drift models (builder style).
    #[must_use]
    pub fn with_drifts(mut self, drifts: Vec<DriftModel>) -> Self {
        self.config.drifts = drifts;
        self
    }

    /// Enables the adaptive estimation/re-planning loop (builder style).
    #[must_use]
    pub fn with_adaptive(mut self, adaptive: AdaptiveConfig) -> Self {
        self.config.adaptive = Some(adaptive);
        self
    }

    /// The report label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The requests, input order.
    pub fn requests(&self) -> &[FleetRequest] {
        &self.requests
    }

    /// The fleet configuration.
    pub fn config(&self) -> &FleetConfig {
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

    /// Runs the fleet on the calling thread with fresh scratch and
    /// per-cluster plan caches.
    ///
    /// # Errors
    ///
    /// Returns an error when the scenario or config is invalid for `fleet`,
    /// or when planning/estimation fails in any cluster.
    pub fn run_streaming(
        &self,
        strategy: &dyn DistributedStrategy,
        fleet: &Fleet,
        leader: NodeIndex,
    ) -> Result<FleetSummary, CoreError> {
        self.run_streaming_in(
            strategy,
            fleet,
            leader,
            &ParallelSweep::new(1),
            &mut FleetScratch::new(),
        )
    }

    /// [`FleetScenario::run_streaming`] against caller-owned worker threads
    /// and scratch. Results are **bit-identical at every thread count** —
    /// the sweep only decides which thread advances which cluster. After a
    /// first pass has sized the scratch, a steady-state pass over the same
    /// workload shape performs zero heap allocations at `threads == 1`
    /// (`tests/zero_alloc_warm_path.rs`; the threaded path allocates its
    /// scoped-thread machinery per barrier).
    ///
    /// # Errors
    ///
    /// Same conditions as [`FleetScenario::run_streaming`].
    pub fn run_streaming_in(
        &self,
        strategy: &dyn DistributedStrategy,
        fleet: &Fleet,
        leader: NodeIndex,
        sweep: &ParallelSweep,
        scratch: &mut FleetScratch,
    ) -> Result<FleetSummary, CoreError> {
        let requests = &self.requests;
        let n = requests.len();
        let clusters = fleet.clusters();
        let config = &self.config;
        let round_seconds = config.round_seconds;
        let degradations = config.wan_degradations.as_slice();

        scratch.ensure(clusters.len());
        let FleetScratch {
            workers,
            caches,
            order,
            retries,
        } = scratch;
        let caches: &[PlanCache] = caches;
        let ctx = |i: usize| {
            LoopCtx::new(
                strategy,
                leader,
                &clusters[i],
                &caches[i],
                config.timelines.get(i).map_or(&[], ClusterTimeline::events),
                config.slowdowns.get(i).map_or(&[], Vec::as_slice),
                config.drifts.get(i),
                config.policy,
                config.max_batch,
                config.max_inflight,
                config.failures,
                config.recovery,
                config.adaptive.as_ref(),
            )
        };
        self.validate(fleet, leader, ctx)?;
        retries.clear();
        for (i, worker) in workers.iter_mut().enumerate() {
            worker.reset(&ctx(i));
        }
        // Delivering in global arrival order makes every cluster's local
        // request list arrive pre-sorted the way the serving loop sorts.
        arrival_order(order, n, |i| requests[i].request.arrival);

        let mut next_global = 0usize;
        let mut rounds = 0usize;
        // Round boundaries are multiples of `round_seconds`; `boundary` is
        // the multiplier of the last completed barrier. Windows with no
        // arrivals (or retry releases) are skipped — the boundary jumps to
        // the window holding the next delivery — so the round count scales
        // with the deliveries, not the time span.
        let mut boundary = 0u64;
        loop {
            let mut next_t = order.get(next_global).map_or(f64::INFINITY, |&i| {
                requests[i as usize].request.arrival + 0.0
            });
            if let Some(release) = retries.peek_time() {
                next_t = next_t.min(release);
            }
            // The boundary multiplier must stay exact in an f64, or barrier
            // times would round and the boundary could stop advancing.
            let next_boundary = if next_t.is_finite() {
                let m = ((next_t / round_seconds).ceil() as u64).max(boundary + 1);
                if m >= MAX_BOUNDARY {
                    return Err(self.named().infeasible(format_args!(
                        "round_seconds {round_seconds} is too short for a delivery at \
                         {next_t} s: its round boundary index exceeds 2^53"
                    )));
                }
                Some(m)
            } else {
                None
            };
            let t_end = match next_boundary {
                Some(m) => m as f64 * round_seconds,
                // Final drain: every delivery is made, run to the end.
                None => f64::INFINITY,
            };

            // Snapshot each cluster's backlog at the barrier for the
            // load-aware policies, then route this round's deliveries —
            // fresh arrivals merged with released retries by time (a retry
            // at the same instant goes first: it is strictly older work).
            let barrier = boundary as f64 * round_seconds;
            for worker in workers.iter_mut() {
                worker.backlog = (worker.run.dispatch.horizon() - barrier).max(0.0);
                worker.routed_in_round = 0;
            }
            loop {
                let fresh = order
                    .get(next_global)
                    .map(|&i| (requests[i as usize].request.arrival + 0.0, i))
                    .filter(|&(at, _)| at <= t_end);
                // A release that predates this round's window is delivered
                // at the barrier, so deliveries stay sorted per worker.
                let due = fresh.map_or(t_end, |(at, _)| at);
                let (at, global, key, from, retry) =
                    if let Some((release, (global, attempts, from))) = retries.pop_due(due) {
                        let ready = release.max(barrier);
                        let key = fnv64(&[u64::from(global), u64::from(attempts)]);
                        (ready, global, key, Some(from), Some((ready, attempts)))
                    } else if let Some((at, global)) = fresh {
                        next_global += 1;
                        (at, global, u64::from(global), None, None)
                    } else {
                        break;
                    };
                let fleet_request = &requests[global as usize];
                // Failover: a retry never returns to the cluster that killed
                // it (unless the fleet has only one).
                let c = route(config.routing, workers, fleet, fleet_request, key, from);
                let wan = fleet.wan_round_trip(fleet_request.region, c, PAYLOAD_BYTES)
                    * wan_factor(degradations, at);
                workers[c].deliver(fleet_request.request, wan, global, retry);
                workers[c].routed_in_round += 1;
            }

            // Advance every cluster to the barrier, in parallel.
            sweep.run_mut(workers, |i, worker| worker.advance(&ctx(i), t_end));
            for worker in workers.iter_mut() {
                if let Some(error) = worker.error.take() {
                    return Err(error);
                }
            }
            // Collect this round's kill fallout in cluster index order (the
            // deterministic global retry order at any thread count).
            for (c, worker) in workers.iter_mut().enumerate() {
                for (release, global, attempts) in worker.retry_out.drain(..) {
                    retries.push(release + 0.0, (global, attempts, c));
                }
            }

            rounds += 1;
            match next_boundary {
                Some(m) => boundary = m,
                // The drain round may itself have killed work and queued
                // retries; keep routing until the fleet is quiet.
                None => {
                    if retries.is_empty() {
                        break;
                    }
                }
            }
        }

        // Merge the workers in cluster index order, which is what makes the
        // rollup thread-count invariant.
        let mut tails = Tails::new();
        let (mut busiest, mut idlest, mut wan_sum) = (0usize, usize::MAX, 0.0f64);
        for worker in workers.iter() {
            tails.merge(&worker.tails);
            busiest = busiest.max(worker.requests.len());
            idlest = idlest.min(worker.requests.len());
            wan_sum += worker.wan2.iter().sum::<f64>();
        }
        let run = Rollup::of(self.named(), n, workers.iter().map(|w| &w.run), &tails)?;
        Ok(FleetSummary {
            requests: n,
            clusters: clusters.len(),
            rounds,
            batches: run.batches,
            epochs_applied: run.epochs_applied,
            makespan: run.makespan,
            latency: run.latency,
            max_latency: run.max_latency,
            mean_queueing_delay: run.robustness.per_completed(tails.queueing_sum),
            max_queueing_delay: tails.queueing_max,
            deadline_misses: tails.deadline_misses,
            per_class: tails.per_class(),
            plan_cache: run.plan_cache,
            busiest_cluster_requests: busiest,
            idlest_cluster_requests: idlest,
            mean_wan_round_trip: run.robustness.per_completed(wan_sum),
            robustness: run.robustness,
            drift: run.drift,
            time_to_first_retry: run.first_retry,
            recovery_latency: tails.recovered_latency.summary(),
        })
    }

    fn named(&self) -> Named<'_> {
        Named("fleet", &self.label)
    }

    /// Rejects what the shared cluster-loop checks reject — in the request
    /// list and in every cluster's context `ctx(i)` — plus the fleet's own
    /// inputs: regions outside the fleet, a malformed round length, per-cluster
    /// lists of the wrong length, malformed WAN degradation windows and a
    /// leader missing from a cluster.
    fn validate<'a>(
        &self,
        fleet: &Fleet,
        leader: NodeIndex,
        ctx: impl Fn(usize) -> LoopCtx<'a>,
    ) -> Result<(), CoreError> {
        let name = self.named();
        let config = &self.config;
        validate_requests(name, self.requests.iter().map(|r| &r.request))?;
        let regions = fleet.region_count();
        if let Some(i) = self.requests.iter().position(|r| r.region >= regions) {
            return Err(name.infeasible(format_args!(
                "request {i} originates in region {} but the fleet has {regions} regions",
                self.requests[i].region
            )));
        }
        if !(config.round_seconds.is_finite() && config.round_seconds > 0.0) {
            return Err(name.infeasible(format_args!(
                "round_seconds must be finite and positive, got {}",
                config.round_seconds
            )));
        }
        let lists = [
            ("timelines", config.timelines.len()),
            ("slowdown lists", config.slowdowns.len()),
            ("drift models", config.drifts.len()),
        ];
        for (what, len) in lists {
            if len != 0 && len != fleet.len() {
                return Err(name.infeasible(format_args!(
                    "{len} {what} for {} clusters (use an empty list for none)",
                    fleet.len()
                )));
            }
        }
        for window in &config.wan_degradations {
            window.validate()?;
        }
        for (i, cluster) in fleet.clusters().iter().enumerate() {
            // The leader must exist in every cluster (every plan keys on it).
            cluster.node(leader)?;
            ctx(i).validate(name)?;
        }
        Ok(())
    }
}

/// Routes one delivery to a cluster (serial, deterministic); `key` is the
/// hash input of [`RoutingPolicy::Random`]. `exclude` is the failover
/// rule: a retry never returns to the cluster that killed it (unless the
/// fleet has only one cluster).
fn route(
    routing: RoutingPolicy,
    workers: &[ClusterWorker],
    fleet: &Fleet,
    fleet_request: &FleetRequest,
    key: u64,
    exclude: Option<usize>,
) -> usize {
    let k = workers.len();
    if k == 1 {
        return 0;
    }
    let load = |w: &ClusterWorker| w.backlog + f64::from(w.routed_in_round) * ROUTE_COST_HINT_S;
    match routing {
        RoutingPolicy::Random { seed } => match exclude {
            None => (fnv64(&[seed, key]) % k as u64) as usize,
            // Uniform over the k-1 survivors, then remapped around the hole.
            Some(x) => {
                let r = (fnv64(&[seed, key]) % (k as u64 - 1)) as usize;
                r + usize::from(r >= x)
            }
        },
        // Rendezvous: the highest score wins, so the scan minimises its
        // complement.
        RoutingPolicy::StaticHash => {
            let key = request_key(fleet_request);
            argmin(workers, exclude, |_, w| !fnv64(&[key, w.run.fingerprint]))
        }
        RoutingPolicy::LeastLoaded => argmin(workers, exclude, |_, w| load(w)),
        RoutingPolicy::Locality => argmin(workers, exclude, |c, w| {
            fleet.wan_round_trip(fleet_request.region, c, PAYLOAD_BYTES)
                + w.backlog
                + f64::from(w.routed_in_round) * ROUTE_COST_HINT_S
        }),
    }
}

/// The index of the worker with the smallest `cost`, skipping `exclude`;
/// ties go to the lower index.
fn argmin<K: PartialOrd>(
    workers: &[ClusterWorker],
    exclude: Option<usize>,
    cost: impl Fn(usize, &ClusterWorker) -> K,
) -> usize {
    let mut best = (usize::MAX, None);
    for (c, worker) in workers.iter().enumerate() {
        if exclude == Some(c) {
            continue;
        }
        let k = cost(c, worker);
        if best.1.as_ref().is_none_or(|b| k < *b) {
            best = (c, Some(k));
        }
    }
    best.0
}

/// The compounded WAN multiplier for a delivery at `at` (1.0 outside every
/// degradation window).
fn wan_factor(degradations: &[WanDegradation], at: f64) -> f64 {
    let windows = degradations.iter().filter(|w| w.applies(at));
    windows.map(|w| w.factor).product()
}

/// The sticky routing key of a request: model, per-request batch and region.
fn request_key(fleet_request: &FleetRequest) -> u64 {
    let model = WorkloadModel::ALL
        .iter()
        .position(|m| *m == fleet_request.request.model)
        .unwrap_or(0) as u64;
    fnv64(&[
        model,
        fleet_request.request.batch as u64,
        fleet_request.region as u64,
    ])
}

/// FNV-1a over a word sequence, avalanche-finished — the router's local
/// hash (independent of `std` hashing so routes are stable across processes
/// and Rust versions). The finalizer matters: raw FNV-1a's low bit is a
/// *linear* function of the input bytes (each step is `(h ^ b) * odd`, so
/// bit 0 just XOR-accumulates), which makes `hash % n` correlate with input
/// parity for even `n` — e.g. even-indexed requests all landing on
/// even-indexed clusters. The splitmix64-style mix diffuses every input bit
/// into every output bit.
pub(crate) fn fnv64(parts: &[u64]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &part in parts {
        for byte in part.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash = (hash ^ (hash >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    hash = (hash ^ (hash >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    hash ^ (hash >> 31)
}

/// Reusable working memory for a fleet run: one cluster worker and one
/// sharded [`PlanCache`] per cluster, plus the global routing order. Create
/// one and pass it to every run: after the first pass has sized the buffers,
/// a steady-state pass over the same workload shape performs zero heap
/// allocations at one worker thread (`tests/zero_alloc_warm_path.rs`).
#[derive(Debug, Default)]
pub struct FleetScratch {
    workers: Vec<ClusterWorker>,
    caches: Vec<PlanCache>,
    order: Vec<u32>,
    /// Killed requests awaiting their backoff release, fleet-wide, as
    /// `(global index, attempts burned, cluster that killed it)` — the
    /// router drains this into (re-routed) deliveries each round.
    retries: TimeHeap<(u32, u32, usize)>,
}

impl FleetScratch {
    /// Creates an empty scratch (no buffers are allocated until first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests routed to each cluster in the most recent run (allocates;
    /// for post-run reporting, not the hot path).
    pub fn cluster_requests(&self) -> Vec<usize> {
        self.workers.iter().map(|w| w.requests.len()).collect()
    }

    /// Sizes the per-cluster state (only allocates on first use or growth).
    fn ensure(&mut self, clusters: usize) {
        while self.workers.len() < clusters {
            self.workers.push(ClusterWorker::new());
        }
        self.workers.truncate(clusters);
        while self.caches.len() < clusters {
            self.caches.push(PlanCache::new());
        }
        self.caches.truncate(clusters);
    }
}

/// One fleet cluster: its [`ClusterLoop`], the requests the router
/// delivered to it (delivery order), their WAN round trips, and the
/// WAN-aware aggregates its completions feed.
#[derive(Debug)]
struct ClusterWorker {
    run: ClusterLoop,
    requests: Vec<ServingRequest>,
    /// Per delivered request: WAN round trip added to its reported latency.
    wan2: Vec<f64>,
    /// Per delivered request, under kill semantics only: its fleet-wide
    /// input index, under which a killed request goes back to the router.
    global: Vec<u32>,
    /// This round's killed requests for the router, as `(release, global
    /// index, attempts burned)`.
    retry_out: Vec<(f64, u32, u32)>,
    tails: Tails,
    // Routing signals read by the (serial) router.
    backlog: f64,
    routed_in_round: u32,
    error: Option<CoreError>,
}

impl ClusterWorker {
    fn new() -> Self {
        Self {
            run: ClusterLoop::new(),
            requests: Vec::new(),
            wan2: Vec::new(),
            global: Vec::new(),
            retry_out: Vec::new(),
            tails: Tails::new(),
            backlog: 0.0,
            routed_in_round: 0,
            error: None,
        }
    }

    /// Rearms the worker for a new run, keeping every buffer's capacity
    /// (and the persistent intern tables).
    fn reset(&mut self, ctx: &LoopCtx<'_>) {
        self.run.reset(ctx, 0);
        self.requests.clear();
        self.wan2.clear();
        self.global.clear();
        self.retry_out.clear();
        self.tails = Tails::new();
        self.backlog = 0.0;
        self.routed_in_round = 0;
        self.error = None;
    }

    /// Accepts one routed delivery (called in delivery order): a fresh
    /// arrival, or — `retry = Some((ready, attempts burned))` — a killed
    /// request failed over to this cluster, which enters its queue at
    /// `ready`.
    fn deliver(
        &mut self,
        request: ServingRequest,
        wan_round_trip: f64,
        global: u32,
        retry: Option<(f64, u32)>,
    ) {
        let i = self.requests.len() as u32;
        self.requests.push(request);
        self.wan2.push(wan_round_trip);
        if self.run.kill {
            self.global.push(global);
        }
        self.run.accept(i, retry);
    }

    /// Advances the cluster to the round barrier, trapping any error for
    /// the router to surface after the parallel section.
    fn advance(&mut self, ctx: &LoopCtx<'_>, t_end: f64) {
        if self.error.is_some() {
            return;
        }
        let mut inbox = FleetInbox {
            requests: &self.requests,
            wan2: &self.wan2,
            global: &self.global,
            retry_out: &mut self.retry_out,
        };
        if let Err(error) = self
            .run
            .advance_until(ctx, &mut inbox, &mut self.tails, t_end)
        {
            self.error = Some(error);
        }
    }
}

/// A fleet cluster's request side: deliveries in order, each with its WAN
/// round trip; a killed request goes back to the router, which fails it
/// over to another cluster.
struct FleetInbox<'a> {
    requests: &'a [ServingRequest],
    wan2: &'a [f64],
    global: &'a [u32],
    retry_out: &'a mut Vec<(f64, u32, u32)>,
}

impl Inbox for FleetInbox<'_> {
    fn requests(&self) -> &[ServingRequest] {
        self.requests
    }

    fn arrival(&self, k: usize) -> Option<u32> {
        (k < self.requests.len()).then_some(k as u32)
    }

    fn wan(&self, i: u32) -> f64 {
        self.wan2[i as usize]
    }

    fn id(&self, i: u32) -> u32 {
        self.global[i as usize]
    }

    fn requeue(&mut self, _retries: &mut TimeHeap<u32>, i: u32, release: f64, attempt: u32) {
        self.retry_out
            .push((release, self.global[i as usize], attempt));
    }
}

/// The bounded-memory result of a fleet run: counts, the fleet makespan,
/// exact-merge latency tails (WAN round trips included) and per-class
/// aggregates. Everything is `Copy`, like [`crate::ServingSummary`], so the
/// audited steady-state pass returns without allocating.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetSummary {
    /// Total requests served across the fleet.
    pub requests: usize,
    /// Clusters in the fleet.
    pub clusters: usize,
    /// Router rounds executed (arrival-bearing windows plus the drain).
    pub rounds: usize,
    /// Batches admitted across all clusters.
    pub batches: usize,
    /// Timeline events applied across all clusters.
    pub epochs_applied: usize,
    /// Estimated completion time of the last batch anywhere, seconds.
    pub makespan: f64,
    /// Fleet-wide latency tail (queueing + service + WAN round trip;
    /// p50/p95/p99 at histogram bin resolution, count and mean exact).
    pub latency: LatencySummary,
    /// Worst fleet latency, seconds (exact).
    pub max_latency: f64,
    /// Mean queueing delay over completed requests, seconds (exact; local
    /// queueing, WAN excluded).
    pub mean_queueing_delay: f64,
    /// Worst queueing delay, seconds (exact).
    pub max_queueing_delay: f64,
    /// Requests whose fleet latency missed their class deadline.
    pub deadline_misses: usize,
    /// Per-class aggregates indexed by [`SlaClass::priority`]; `None` for
    /// classes absent from the stream.
    pub per_class: [Option<SlaClassReport>; 3],
    /// Plan-cache traffic summed over the per-cluster caches.
    pub plan_cache: PlanCacheStats,
    /// Requests routed to the most-loaded cluster (routing balance signal).
    pub busiest_cluster_requests: usize,
    /// Requests routed to the least-loaded cluster.
    pub idlest_cluster_requests: usize,
    /// WAN round trips paid, retried attempts included, per completed
    /// request, seconds (0 when all traffic stays at its regional ingress).
    pub mean_wan_round_trip: f64,
    /// Offered/completed/dropped accounting including recovery traffic.
    /// Trivially all-completed when the config enables no failure handling.
    pub robustness: RobustnessStats,
    /// Adaptive-loop accounting summed over cluster workers: re-plans
    /// triggered, rate observations fed, and dynamic dispatch energy.
    pub drift: DriftStats,
    /// Virtual time of the first kill that produced a re-routed retry
    /// anywhere in the fleet (`INFINITY` when nothing was retried).
    pub time_to_first_retry: f64,
    /// Latency tail over completions that needed at least one retry
    /// (recovery cost); `None` when no retried request completed.
    pub recovery_latency: Option<LatencySummary>,
}

impl FleetSummary {
    /// Fraction of all requests that missed their deadline.
    pub fn sla_miss_rate(&self) -> f64 {
        self.deadline_misses as f64 / self.requests as f64
    }

    /// The report for one class, if any of its requests were served.
    pub fn class(&self, class: SlaClass) -> Option<&SlaClassReport> {
        self.per_class[class.priority() as usize].as_ref()
    }

    /// Completed requests per second of simulated time (completions over
    /// the estimated makespan; dropped requests are not counted).
    pub fn requests_per_second(&self) -> f64 {
        self.robustness.completed_per_second(self.makespan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HidpStrategy;
    use hidp_platform::presets;

    /// A two-region stream mixing two models and all SLA classes.
    fn regional_burst(count: usize) -> Vec<FleetRequest> {
        (0..count)
            .map(|i| {
                let model = if i % 2 == 0 {
                    WorkloadModel::EfficientNetB0
                } else {
                    WorkloadModel::InceptionV3
                };
                let request =
                    ServingRequest::new(model, i as f64 * 0.05).with_sla(SlaClass::ALL[i % 3]);
                FleetRequest::new(request, i % 2)
            })
            .collect()
    }

    #[test]
    fn every_policy_serves_every_request() {
        let fleet = presets::generated_fleet(4, 2).unwrap();
        let strategy = HidpStrategy::new();
        let requests = regional_burst(120);
        for routing in [
            RoutingPolicy::Random { seed: 7 },
            RoutingPolicy::StaticHash,
            RoutingPolicy::LeastLoaded,
            RoutingPolicy::Locality,
        ] {
            let summary = FleetScenario::new(requests.clone())
                .with_routing(routing)
                .with_max_inflight(Some(4))
                .run_streaming(&strategy, &fleet, NodeIndex(1))
                .unwrap_or_else(|e| panic!("{} failed: {e}", routing.name()));
            assert_eq!(summary.requests, 120, "{}", routing.name());
            assert_eq!(summary.batches, 120, "no batching configured");
            assert_eq!(summary.clusters, 4);
            assert!(summary.rounds >= 1);
            assert!(summary.makespan > 0.0);
            assert_eq!(summary.latency.count, 120);
            assert!(summary.busiest_cluster_requests >= summary.idlest_cluster_requests);
            assert!(summary.requests_per_second() > 0.0);
            // All three SLA classes are present in the stream.
            for class in SlaClass::ALL {
                assert!(summary.class(class).is_some(), "{}", routing.name());
            }
        }
    }

    #[test]
    fn locality_pays_less_wan_than_random_and_least_loaded_spreads() {
        let fleet = presets::generated_fleet(4, 2).unwrap();
        let strategy = HidpStrategy::new();
        let requests = regional_burst(120);
        let run = |routing: RoutingPolicy| {
            FleetScenario::new(requests.clone())
                .with_routing(routing)
                .run_streaming(&strategy, &fleet, NodeIndex(1))
                .unwrap()
        };
        let random = run(RoutingPolicy::Random { seed: 1 });
        let locality = run(RoutingPolicy::Locality);
        let least_loaded = run(RoutingPolicy::LeastLoaded);
        assert!(
            locality.mean_wan_round_trip < random.mean_wan_round_trip,
            "locality {} vs random {}",
            locality.mean_wan_round_trip,
            random.mean_wan_round_trip
        );
        // Load-aware routing never starves a cluster of this even stream.
        assert!(least_loaded.idlest_cluster_requests > 0);
    }

    #[test]
    fn timeline_flip_rekeys_static_hash_routing() {
        let fleet = presets::generated_fleet(3, 1).unwrap();
        let strategy = HidpStrategy::new();
        // One sticky key: identical requests hash to one cluster until a
        // fingerprint changes.
        let requests: Vec<FleetRequest> = (0..40)
            .map(|i| {
                FleetRequest::new(
                    ServingRequest::new(WorkloadModel::EfficientNetB0, i as f64 * 0.5),
                    0,
                )
            })
            .collect();
        let key = request_key(&requests[0]);
        let rendezvous = |fingerprints: &[u64]| {
            let mut best = 0usize;
            let mut best_score = 0u64;
            for (c, &fp) in fingerprints.iter().enumerate() {
                let score = fnv64(&[key, fp]);
                if c == 0 || score > best_score {
                    best = c;
                    best_score = score;
                }
            }
            best
        };
        let pristine: Vec<u64> = fleet.clusters().iter().map(|c| c.fingerprint()).collect();
        let winner = rendezvous(&pristine);
        // Find a (cluster, node) whose failure moves the rendezvous winner;
        // the search is deterministic, so the test either always finds one
        // or fails loudly.
        let flip = (0..fleet.len())
            .flat_map(|c| (0..fleet.clusters()[c].len()).map(move |n| (c, n)))
            .find(|&(c, n)| {
                let mut fingerprints = pristine.clone();
                let mut failed = fleet.clusters()[c].clone();
                failed.set_available(NodeIndex(n), false).unwrap();
                fingerprints[c] = failed.fingerprint();
                rendezvous(&fingerprints) != winner
            })
            .expect("some single-node failure moves the rendezvous winner");

        let static_run = |timelines: Vec<ClusterTimeline>| {
            let mut scratch = FleetScratch::new();
            FleetScenario::new(requests.clone())
                .with_routing(RoutingPolicy::StaticHash)
                .with_timelines(timelines)
                .run_streaming_in(
                    &strategy,
                    &fleet,
                    NodeIndex(1),
                    &ParallelSweep::new(1),
                    &mut scratch,
                )
                .unwrap();
            scratch.cluster_requests()
        };
        let stable = static_run(Vec::new());
        // All requests share one key, so exactly one cluster serves them.
        assert_eq!(stable.iter().filter(|&&n| n > 0).count(), 1);
        assert_eq!(stable[winner], 40);
        // Fail that node mid-stream: the fingerprint flip re-keys the
        // remaining traffic exactly as it re-keys the cluster's plans.
        let mut timelines = vec![ClusterTimeline::new(); 3];
        timelines[flip.0] = ClusterTimeline::new()
            .node_down(10.0, NodeIndex(flip.1))
            .unwrap();
        let rekeyed = static_run(timelines);
        assert_ne!(stable, rekeyed, "epoch flip must re-key routing");
        assert!(rekeyed[winner] < 40, "post-flip traffic moved: {rekeyed:?}");
        assert_eq!(rekeyed.iter().sum::<usize>(), 40);
    }

    #[test]
    fn invalid_shapes_are_rejected() {
        let fleet = presets::generated_fleet(2, 1).unwrap();
        let strategy = HidpStrategy::new();
        let ok = regional_burst(4)
            .into_iter()
            .map(|mut r| {
                r.region = 0;
                r
            })
            .collect::<Vec<_>>();
        // Empty scenario.
        assert!(FleetScenario::new(Vec::new())
            .run_streaming(&strategy, &fleet, NodeIndex(1))
            .is_err());
        // Region outside the fleet.
        let mut bad_region = ok.clone();
        bad_region[1].region = 5;
        assert!(FleetScenario::new(bad_region)
            .run_streaming(&strategy, &fleet, NodeIndex(1))
            .is_err());
        // Timeline count mismatch.
        assert!(FleetScenario::new(ok.clone())
            .with_timelines(vec![ClusterTimeline::new()])
            .run_streaming(&strategy, &fleet, NodeIndex(1))
            .is_err());
        // Non-positive round length.
        assert!(FleetScenario::new(ok.clone())
            .with_round_seconds(0.0)
            .run_streaming(&strategy, &fleet, NodeIndex(1))
            .is_err());
        // Leader missing from a cluster.
        assert!(FleetScenario::new(ok)
            .run_streaming(&strategy, &fleet, NodeIndex(64))
            .is_err());
    }

    #[test]
    fn a_round_too_short_for_the_trace_is_rejected() {
        let fleet = presets::generated_fleet(1, 1).unwrap();
        let request = ServingRequest::new(WorkloadModel::EfficientNetB0, 0.5);
        // 0.5 s / 1e-300 s puts the first round boundary beyond 2^53 (and
        // beyond u64): no barrier time can be represented exactly.
        let result = FleetScenario::new(vec![FleetRequest::new(request, 0)])
            .with_round_seconds(1e-300)
            .run_streaming(&HidpStrategy::new(), &fleet, NodeIndex(1));
        assert!(
            matches!(result, Err(CoreError::Infeasible { .. })),
            "{result:?}"
        );
        // A short round that keeps every boundary index exact still runs.
        let summary = FleetScenario::new(vec![FleetRequest::new(request, 0)])
            .with_round_seconds(1e-12)
            .run_streaming(&HidpStrategy::new(), &fleet, NodeIndex(1))
            .unwrap();
        assert_eq!(summary.robustness.completed, 1);
    }

    #[test]
    fn no_fault_robust_fleet_is_bit_identical_to_inert() {
        let fleet = presets::generated_fleet(4, 2).unwrap();
        let strategy = HidpStrategy::new();
        let requests = regional_burst(80);
        for policy in [AdmissionPolicy::Fifo, AdmissionPolicy::EarliestDeadline] {
            for routing in [
                RoutingPolicy::LeastLoaded,
                RoutingPolicy::Locality,
                RoutingPolicy::Random { seed: 11 },
            ] {
                let base = FleetScenario::new(requests.clone())
                    .with_routing(routing)
                    .with_policy(policy)
                    .with_max_inflight(Some(3));
                let inert = base.run_streaming(&strategy, &fleet, NodeIndex(1)).unwrap();
                // Kill semantics armed, full recovery enabled — but no
                // fault timeline ever fires, so nothing may change.
                let robust = base
                    .with_failure_mode(FailureMode::Kill)
                    .with_recovery(RecoveryPolicy::standard())
                    .run_streaming(&strategy, &fleet, NodeIndex(1))
                    .unwrap();
                assert_eq!(inert, robust, "{}/{}", policy.name(), routing.name());
                assert_eq!(robust.robustness, RobustnessStats::all_completed(80));
            }
        }
    }

    #[test]
    fn fleet_failover_reroutes_killed_work_to_surviving_clusters() {
        // Two single-region clusters: locality pins region-0 traffic to
        // cluster 0, which blacks out at t = 0.01 and never recovers.
        let fleet = presets::generated_fleet(2, 2).unwrap();
        let strategy = HidpStrategy::new();
        let nodes = fleet.clusters()[0].len();
        let mut timeline = ClusterTimeline::new();
        for n in 0..nodes {
            timeline = timeline.node_down(0.01, NodeIndex(n)).unwrap();
        }
        // Three region-0 requests: few enough that locality's per-round
        // route-cost hint never spills one to the remote cluster.
        let mut requests: Vec<FleetRequest> = (0..3)
            .map(|_| FleetRequest::new(ServingRequest::new(WorkloadModel::ResNet152, 0.0), 0))
            .collect();
        // Two region-1 requests survive on cluster 1 either way, so the
        // no-recovery baseline still has a latency distribution.
        for _ in 0..2 {
            requests.push(FleetRequest::new(
                ServingRequest::new(WorkloadModel::InceptionV3, 0.0),
                1,
            ));
        }
        let run = |recovery: RecoveryPolicy| {
            FleetScenario::new(requests.clone())
                .with_routing(RoutingPolicy::Locality)
                .with_timelines(vec![timeline.clone(), ClusterTimeline::new()])
                .with_failure_mode(FailureMode::Kill)
                .with_recovery(recovery)
                .run_streaming(&strategy, &fleet, NodeIndex(1))
                .unwrap()
        };

        let abandoned = run(RecoveryPolicy::default());
        assert_eq!(abandoned.robustness.offered, 5);
        assert_eq!(abandoned.robustness.killed, 3);
        assert_eq!(
            abandoned.robustness.lost, 3,
            "no recovery: kills are permanent"
        );
        assert_eq!(abandoned.robustness.completed, 2);
        assert_eq!(abandoned.latency.count, 2);
        assert!(abandoned.robustness.accounts_for_every_request());

        let recovered = run(RecoveryPolicy::standard());
        assert_eq!(recovered.robustness.offered, 5);
        assert_eq!(recovered.robustness.killed, 3);
        assert_eq!(recovered.robustness.retried, 3, "every kill re-routes");
        assert_eq!(recovered.robustness.lost, 0);
        assert_eq!(recovered.robustness.completed, 5);
        assert_eq!(recovered.latency.count, 5);
        assert!(recovered.robustness.accounts_for_every_request());
        // The failover hop pays the cross-region WAN round trip the
        // locality-routed originals avoided.
        assert!(
            recovered.mean_wan_round_trip > abandoned.mean_wan_round_trip,
            "failover pays WAN: {} vs {}",
            recovered.mean_wan_round_trip,
            abandoned.mean_wan_round_trip
        );
    }

    #[test]
    fn wan_degradation_and_stragglers_degrade_the_fleet() {
        let fleet = presets::generated_fleet(3, 2).unwrap();
        let strategy = HidpStrategy::new();
        let requests = regional_burst(40);
        let base = FleetScenario::new(requests.clone())
            .with_routing(RoutingPolicy::Random { seed: 3 })
            .with_failure_mode(FailureMode::Kill)
            .run_streaming(&strategy, &fleet, NodeIndex(1))
            .unwrap();
        // Every delivery inside the window pays 4x its WAN round trip.
        let degraded = FleetScenario::new(requests.clone())
            .with_routing(RoutingPolicy::Random { seed: 3 })
            .with_failure_mode(FailureMode::Kill)
            .with_wan_degradations(vec![WanDegradation {
                start: 0.0,
                end: 1e6,
                factor: 4.0,
            }])
            .run_streaming(&strategy, &fleet, NodeIndex(1))
            .unwrap();
        assert!(
            degraded.mean_wan_round_trip > 3.9 * base.mean_wan_round_trip,
            "degraded {} vs base {}",
            degraded.mean_wan_round_trip,
            base.mean_wan_round_trip
        );
        assert_eq!(degraded.robustness, RobustnessStats::all_completed(40));
        // Straggler windows on every node stretch estimated completions.
        let slowdowns: Vec<Vec<SlowdownWindow>> = fleet
            .clusters()
            .iter()
            .map(|cluster| {
                (0..cluster.len())
                    .map(|n| SlowdownWindow {
                        node: NodeIndex(n),
                        start: 0.0,
                        end: 1e6,
                        factor: 3.0,
                    })
                    .collect()
            })
            .collect();
        let straggling = FleetScenario::new(requests.clone())
            .with_routing(RoutingPolicy::Random { seed: 3 })
            .with_slowdowns(slowdowns)
            .run_streaming(&strategy, &fleet, NodeIndex(1))
            .unwrap();
        assert!(
            straggling.makespan > base.makespan,
            "stragglers {} vs base {}",
            straggling.makespan,
            base.makespan
        );
    }

    #[test]
    fn fleet_rejects_malformed_fault_inputs() {
        let fleet = presets::generated_fleet(2, 1).unwrap();
        let strategy = HidpStrategy::new();
        let ok = regional_burst(4)
            .into_iter()
            .map(|mut r| {
                r.region = 0;
                r
            })
            .collect::<Vec<_>>();
        // Retry backoff must be positive.
        let bad_retry = RecoveryPolicy {
            retry: Some(crate::RetryPolicy {
                backoff_base_s: -1.0,
                ..crate::RetryPolicy::default()
            }),
            ..RecoveryPolicy::default()
        };
        assert!(FleetScenario::new(ok.clone())
            .with_recovery(bad_retry)
            .run_streaming(&strategy, &fleet, NodeIndex(1))
            .is_err());
        // Slowdown shape must match the fleet; windows must name real nodes.
        assert!(FleetScenario::new(ok.clone())
            .with_slowdowns(vec![Vec::new()])
            .run_streaming(&strategy, &fleet, NodeIndex(1))
            .is_err());
        let rogue = SlowdownWindow {
            node: NodeIndex(99),
            start: 0.0,
            end: 1.0,
            factor: 2.0,
        };
        assert!(FleetScenario::new(ok.clone())
            .with_slowdowns(vec![vec![rogue], Vec::new()])
            .run_streaming(&strategy, &fleet, NodeIndex(1))
            .is_err());
        // WAN degradation windows must be well-formed.
        assert!(FleetScenario::new(ok)
            .with_wan_degradations(vec![WanDegradation {
                start: 5.0,
                end: 1.0,
                factor: 2.0,
            }])
            .run_streaming(&strategy, &fleet, NodeIndex(1))
            .is_err());
    }
}
