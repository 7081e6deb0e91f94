//! Plan memoization for streaming workloads.
//!
//! Planning is the expensive half of evaluation — OmniBoost's 400-iteration
//! MCTS in particular — yet workload-mix streams (Fig. 7) cycle through 2–3
//! distinct models, so a 1 000-request stream needs only a handful of
//! distinct plans. [`PlanCache`] memoizes [`DistributedStrategy::plan`]
//! results keyed by everything a plan can depend on: the strategy name, the
//! graph's content fingerprint, the batch size, the leader node and the
//! cluster fingerprint (which covers the availability vector, so node
//! failures invalidate cached plans automatically).
//!
//! Every strategy in the workspace is a deterministic function of that key —
//! even the MCTS baseline reseeds its RNG per call — so a cache hit returns
//! bit-identical plans and changes no simulation result, only its cost.
//!
//! # Concurrency
//!
//! The cache is built for many threads hammering it at once (the
//! [`crate::ParallelSweep`] runner fans independent scenario runs across one
//! shared cache):
//!
//! * The table is split into [`SHARD_COUNT`] shards, each behind its own
//!   `parking_lot::RwLock`, with the shard selected from the key's stored
//!   fingerprints (no locking or hashing of the whole key to route). Warm
//!   lookups take one shard *read* lock — readers proceed in parallel, and
//!   threads working on different keys almost never touch the same shard.
//! * Misses are deduplicated in flight: the first thread to miss a key
//!   publishes a pending slot and plans outside all locks; concurrent misses
//!   on the same key find the slot and block on it instead of planning the
//!   same thing again. Exactly one planner invocation happens per distinct
//!   key, no matter how many threads race (`stats().misses` counts exactly
//!   those invocations, so `misses == len()` once all lookups finish).
//!   Once planning succeeds the entry is *promoted* in place: the pending
//!   slot is replaced by the finished `Arc<ExecutionPlan>`, so steady-state
//!   hits are a read lock, a hash probe and one reference-count increment —
//!   no slot mutex, no allocation.
//! * Hit/miss counters are relaxed atomics; [`PlanCache::plan_tracked`]
//!   additionally reports per-call hit/miss so callers can attribute
//!   lookups to themselves without racing other users of a shared cache.
//! * [`PlanCache::plan_keyed`] probes with a **borrowed** [`PlanKey`], so a
//!   per-request loop (see `Scenario::run_with_cache`) builds one key,
//!   mutates its graph fields per request and never clones the key's
//!   strings on a hit — the key is only cloned when a miss publishes it.
//! * The shard tables hash with [`FixedState`], not std's per-process
//!   random `RandomState`: dropping a table frees its plans in table order,
//!   and with random keys that order — and with it the heap's fragmentation
//!   and a run's peak resident memory — changed from one process to the
//!   next.

use crate::strategy::DistributedStrategy;
use crate::CoreError;
use hidp_dnn::DnnGraph;
use hidp_platform::{Cluster, NodeIndex};
use hidp_sim::ExecutionPlan;
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Number of independent lock shards. A power of two well above the core
/// counts this workspace targets: with uniformly distributed fingerprints,
/// the probability that two concurrently-active keys share a shard stays
/// low, and the per-shard `RwLock` makes same-shard *readers* free anyway.
pub const SHARD_COUNT: usize = 16;

/// Everything a [`DistributedStrategy::plan`] call can depend on.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Strategy display name.
    pub strategy: String,
    /// The strategy's [`DistributedStrategy::cache_config`], which
    /// distinguishes differently-configured instances sharing a display
    /// name (ablation variants, MCTS iteration counts) so they never serve
    /// each other's plans.
    pub strategy_config: String,
    /// [`DnnGraph::fingerprint`] of the request's graph.
    pub graph_fingerprint: u64,
    /// Batch size of the request (also folded into the graph fingerprint;
    /// kept explicit so keys stay debuggable).
    pub batch: usize,
    /// The node the request arrives at.
    pub leader: NodeIndex,
    /// [`Cluster::fingerprint`] of the target cluster, including its
    /// availability vector.
    pub cluster_fingerprint: u64,
}

impl PlanKey {
    /// Builds the cache key for one planning call.
    pub fn new(
        strategy: &dyn DistributedStrategy,
        graph: &DnnGraph,
        cluster: &Cluster,
        leader: NodeIndex,
    ) -> Self {
        Self {
            strategy: strategy.name().to_string(),
            strategy_config: strategy.cache_config(),
            graph_fingerprint: graph.fingerprint(),
            batch: graph.input_shape().batch(),
            leader,
            cluster_fingerprint: cluster.fingerprint(),
        }
    }

    /// The reusable warm-path key for one `(strategy, cluster, leader)`
    /// run: the strategy strings and cluster fingerprint are computed once,
    /// and the graph fields are zeroed for the caller's per-request loop to
    /// overwrite before each [`PlanCache::plan_keyed`] probe. This is the
    /// single definition of the hoisting `Scenario::run_with_cache`, the
    /// warm-path benches and the zero-alloc test all share.
    pub fn for_run(
        strategy: &dyn DistributedStrategy,
        cluster: &Cluster,
        leader: NodeIndex,
    ) -> Self {
        Self {
            strategy: strategy.name().to_string(),
            strategy_config: strategy.cache_config(),
            graph_fingerprint: 0,
            batch: 0,
            leader,
            cluster_fingerprint: cluster.fingerprint(),
        }
    }

    /// The shard this key routes to. Mixes the stored content fingerprints
    /// (already high-entropy FNV-1a hashes) with the leader and batch — the
    /// cheap fields; hashing the strategy strings would cost more than the
    /// collisions they disambiguate, and same-graph-different-strategy keys
    /// sharing a shard is harmless (the shard map still keys on the full
    /// [`PlanKey`]).
    fn shard(&self) -> usize {
        let mut h = self.graph_fingerprint ^ self.cluster_fingerprint.rotate_left(32);
        h ^= (self.leader.0 as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^= (self.batch as u64).rotate_left(16);
        // Final avalanche so the low bits used for shard selection depend on
        // every input bit (splitmix64 finalizer constant).
        h = (h ^ (h >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
        (h >> 33) as usize % SHARD_COUNT
    }
}

/// Hit/miss counters of a [`PlanCache`], also surfaced per evaluation on
/// [`crate::Evaluation::plan_cache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlanCacheStats {
    /// Lookups served from the cache — including lookups that waited for a
    /// concurrent planner invocation on the same key instead of planning
    /// themselves.
    pub hits: u64,
    /// Lookups that invoked the strategy's planner. Under concurrency this
    /// counts *planner invocations*, so `misses` equals the number of
    /// distinct keys planned (plus failed attempts, which insert nothing).
    pub misses: u64,
}

impl PlanCacheStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups served from the cache (0.0 when there were none).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }
}

/// One shard-map entry: a pending slot while planning is in flight, the
/// finished plan afterwards (promotion happens exactly once, by the thread
/// that planned).
#[derive(Debug)]
enum Entry {
    /// Planning is in flight; lookups wait on the slot.
    Pending(Arc<Slot>),
    /// The plan is ready; lookups clone the `Arc` under the read lock.
    Ready(Arc<ExecutionPlan>),
}

/// One shard's table.
type Shard = HashMap<PlanKey, Entry, FixedState>;

/// A slot in the cache: published while planning is in flight, filled
/// exactly once. Waiters block on the condvar instead of re-planning.
#[derive(Debug)]
struct Slot {
    state: Mutex<SlotState>,
    ready: Condvar,
}

#[derive(Debug)]
enum SlotState {
    /// The publishing thread is still planning.
    Planning,
    /// Planning succeeded; every lookup from now on clones this.
    Ready(Arc<ExecutionPlan>),
    /// Planning failed; waiters get the error, the slot is unpublished.
    Failed(CoreError),
}

impl Slot {
    fn pending() -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(SlotState::Planning),
            ready: Condvar::new(),
        })
    }

    /// Blocks until the slot is filled and returns its outcome.
    fn wait(&self) -> Result<Arc<ExecutionPlan>, CoreError> {
        let mut state = self.state.lock().expect("plan slot lock");
        loop {
            match &*state {
                SlotState::Planning => {
                    state = self.ready.wait(state).expect("plan slot lock");
                }
                SlotState::Ready(plan) => return Ok(Arc::clone(plan)),
                SlotState::Failed(e) => return Err(e.clone()),
            }
        }
    }

    /// Fills the slot and wakes all waiters.
    fn fill(&self, outcome: Result<Arc<ExecutionPlan>, CoreError>) {
        let mut state = self.state.lock().expect("plan slot lock");
        *state = match outcome {
            Ok(plan) => SlotState::Ready(plan),
            Err(e) => SlotState::Failed(e),
        };
        drop(state);
        self.ready.notify_all();
    }
}

/// Removes `slot` from `shard` if it is still the published pending entry
/// for `key`. Only ever removes the caller's own slot — a retry may already
/// have published a fresh one under the same key.
fn unpublish(shard: &RwLock<Shard>, key: &PlanKey, slot: &Arc<Slot>) {
    let mut map = shard.write();
    if matches!(map.get(key), Some(Entry::Pending(s)) if Arc::ptr_eq(s, slot)) {
        map.remove(key);
    }
}

/// Unwinding insurance for the thread that published a pending slot: if it
/// panics inside the strategy's planner, `Drop` fills the slot with an
/// error (releasing every waiter — they must never sleep on a slot nobody
/// will fill) and unpublishes it so the key can be re-planned. The happy
/// and error paths [`PendingGuard::defuse`] the guard and publish their own
/// outcome instead.
struct PendingGuard<'a> {
    shard: &'a RwLock<Shard>,
    pending: Option<(PlanKey, Arc<Slot>)>,
}

impl PendingGuard<'_> {
    fn defuse(mut self) -> (PlanKey, Arc<Slot>) {
        self.pending.take().expect("guard is defused at most once")
    }
}

impl Drop for PendingGuard<'_> {
    fn drop(&mut self) {
        if let Some((key, slot)) = self.pending.take() {
            slot.fill(Err(CoreError::Runtime {
                what: format!(
                    "planner panicked while planning `{}` for graph {:#x}",
                    key.strategy, key.graph_fingerprint
                ),
            }));
            unpublish(self.shard, &key, &slot);
        }
    }
}

/// SipHash with fixed keys: the hasher of every map whose drop order frees
/// heap memory (plans, graphs), so that order is the same in every process.
pub(crate) type FixedState = BuildHasherDefault<DefaultHasher>;

/// A memoization table for strategy planning, shareable across scenarios and
/// threads: lookups route to one of [`SHARD_COUNT`] reader-writer-locked
/// shards, warm lookups only ever take a shard *read* lock, and concurrent
/// misses on the same key plan exactly once (see the module docs).
#[derive(Debug, Default)]
pub struct PlanCache {
    shards: [RwLock<Shard>; SHARD_COUNT],
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PlanCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the cached plan for `(strategy, graph, cluster, leader)`,
    /// planning and inserting it on a miss.
    ///
    /// # Errors
    ///
    /// Propagates planning failures, including a planned
    /// [`ExecutionPlan::validate`] failure as [`CoreError::Sim`] (nothing is
    /// inserted in either case).
    pub fn plan(
        &self,
        strategy: &dyn DistributedStrategy,
        graph: &DnnGraph,
        cluster: &Cluster,
        leader: NodeIndex,
    ) -> Result<Arc<ExecutionPlan>, CoreError> {
        self.plan_tracked(strategy, graph, cluster, leader)
            .map(|(plan, _)| plan)
    }

    /// [`PlanCache::plan`] plus whether the lookup hit, so callers (e.g.
    /// [`crate::Scenario::run_with_cache`]) can attribute hits/misses to
    /// themselves without racing other users of a shared cache. A lookup
    /// that waited for another thread's in-flight planning of the same key
    /// reports a hit: it was served without invoking the planner.
    pub fn plan_tracked(
        &self,
        strategy: &dyn DistributedStrategy,
        graph: &DnnGraph,
        cluster: &Cluster,
        leader: NodeIndex,
    ) -> Result<(Arc<ExecutionPlan>, bool), CoreError> {
        self.plan_keyed(
            &PlanKey::new(strategy, graph, cluster, leader),
            strategy,
            graph,
            cluster,
            leader,
        )
    }

    /// Lookup with a caller-built, **borrowed** key, for hot loops that
    /// hoist the loop-invariant key parts (cluster fingerprint, strategy
    /// strings) out of a per-request loop instead of recomputing them each
    /// lookup: build one [`PlanKey`], mutate its
    /// [`graph_fingerprint`](PlanKey::graph_fingerprint) /
    /// [`batch`](PlanKey::batch) fields per request, and pass it by
    /// reference. A hit never clones the key (or anything else beyond the
    /// returned `Arc`); the key is cloned exactly once per distinct key, by
    /// the miss that publishes it. The caller must pass the same
    /// `(strategy, graph, cluster, leader)` the key was built from.
    pub fn plan_keyed(
        &self,
        key: &PlanKey,
        strategy: &dyn DistributedStrategy,
        graph: &DnnGraph,
        cluster: &Cluster,
        leader: NodeIndex,
    ) -> Result<(Arc<ExecutionPlan>, bool), CoreError> {
        let shard = &self.shards[key.shard()];

        // Warm path: a read lock, a hash probe and an `Arc` bump for a
        // promoted entry. Concurrent readers do not block each other, and
        // writers only hold this lock to publish, promote or unpublish an
        // entry — never while planning.
        enum Found {
            Ready(Arc<ExecutionPlan>),
            Wait(Arc<Slot>),
            Missing,
        }
        let found = match shard.read().get(key) {
            Some(Entry::Ready(plan)) => Found::Ready(Arc::clone(plan)),
            Some(Entry::Pending(slot)) => Found::Wait(Arc::clone(slot)),
            None => Found::Missing,
        };
        match found {
            Found::Ready(plan) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok((plan, true));
            }
            Found::Wait(slot) => {
                let plan = slot.wait()?;
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok((plan, true));
            }
            Found::Missing => {}
        }

        // Miss: publish a pending slot under the write lock, re-checking in
        // case another thread published (or even finished) between our read
        // and write.
        enum Claim {
            Hit(Arc<ExecutionPlan>),
            Wait(Arc<Slot>),
            Plan(Arc<Slot>),
        }
        let claim = {
            let mut map = shard.write();
            match map.get(key) {
                Some(Entry::Ready(plan)) => Claim::Hit(Arc::clone(plan)),
                Some(Entry::Pending(slot)) => Claim::Wait(Arc::clone(slot)),
                None => {
                    let slot = Slot::pending();
                    map.insert(key.clone(), Entry::Pending(Arc::clone(&slot)));
                    Claim::Plan(slot)
                }
            }
        };
        let slot = match claim {
            Claim::Hit(plan) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok((plan, true));
            }
            Claim::Wait(slot) => {
                // Lost the publish race: wait on the winner's slot like a hit.
                let plan = slot.wait()?;
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok((plan, true));
            }
            Claim::Plan(slot) => slot,
        };

        // This thread owns the slot: plan outside every lock (planning can
        // take milliseconds — MCTS), then publish the outcome. The guard
        // covers unwinding: if `strategy.plan` panics, the slot must still
        // be filled (waiters would otherwise sleep on the condvar forever)
        // and unpublished — the panic then propagates normally on this
        // thread while waiters get an error.
        self.misses.fetch_add(1, Ordering::Relaxed);
        let guard = PendingGuard {
            shard,
            pending: Some((key.clone(), Arc::clone(&slot))),
        };
        // Validate before publishing: every consumer (the dispatch
        // estimator included, which runs before any engine pass) may then
        // index a cached plan's dependencies without checking them.
        let outcome = strategy
            .plan(graph, cluster, leader)
            .and_then(|plan| plan.validate().map(|()| plan).map_err(CoreError::from));
        match outcome {
            Ok(mut plan) => {
                let (key, slot) = guard.defuse();
                // Stamp the launch batch so the engine's sublinear batch cost
                // model sees how many requests this plan amortises. Strategies
                // stay batch-agnostic; the cache is the one place every fresh
                // plan passes through.
                plan.set_batch(graph.input_shape().batch());
                let plan = Arc::new(plan);
                slot.fill(Ok(Arc::clone(&plan)));
                // Promote the entry in place so every later hit is served
                // straight from the map — no slot mutex on the warm path.
                // Only this thread's own pending slot is replaced; a
                // concurrent unpublish + republish cycle keeps its entry.
                let mut map = shard.write();
                if let Some(entry) = map.get_mut(&key) {
                    if matches!(entry, Entry::Pending(s) if Arc::ptr_eq(s, &slot)) {
                        *entry = Entry::Ready(Arc::clone(&plan));
                    }
                }
                drop(map);
                Ok((plan, false))
            }
            Err(e) => {
                let (key, slot) = guard.defuse();
                slot.fill(Err(e.clone()));
                // Unpublish so the failure is not memoized (matching the
                // pre-sharding behaviour: nothing is inserted on error).
                unpublish(shard, &key, &slot);
                Err(e)
            }
        }
    }

    /// Current hit/miss counters.
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Number of distinct plans currently cached (including slots whose
    /// planning is still in flight).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Whether the cache holds no plans.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all cached plans and resets the counters.
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.write().clear();
        }
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HidpStrategy;
    use hidp_dnn::zoo::WorkloadModel;
    use hidp_platform::presets;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    #[test]
    fn hits_and_misses_are_counted() {
        let cache = PlanCache::new();
        let cluster = presets::paper_cluster();
        let strategy = HidpStrategy::new();
        let graph = WorkloadModel::EfficientNetB0.graph(1);

        let first = cache
            .plan(&strategy, &graph, &cluster, NodeIndex(1))
            .unwrap();
        assert_eq!(cache.stats(), PlanCacheStats { hits: 0, misses: 1 });
        let second = cache
            .plan(&strategy, &graph, &cluster, NodeIndex(1))
            .unwrap();
        assert_eq!(cache.stats(), PlanCacheStats { hits: 1, misses: 1 });
        // The hit returns the very same plan.
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(cache.len(), 1);
        assert!((cache.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn distinct_models_leaders_and_strategies_get_distinct_entries() {
        let cache = PlanCache::new();
        let cluster = presets::paper_cluster();
        let strategy = HidpStrategy::new();
        let b0 = WorkloadModel::EfficientNetB0.graph(1);
        let inception = WorkloadModel::InceptionV3.graph(1);

        cache.plan(&strategy, &b0, &cluster, NodeIndex(1)).unwrap();
        cache
            .plan(&strategy, &inception, &cluster, NodeIndex(1))
            .unwrap();
        cache.plan(&strategy, &b0, &cluster, NodeIndex(0)).unwrap();
        // Batch changes the graph fingerprint too.
        cache
            .plan(
                &strategy,
                &b0.with_batch(2).unwrap(),
                &cluster,
                NodeIndex(1),
            )
            .unwrap();
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.stats().misses, 4);
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn same_name_different_config_gets_distinct_entries() {
        // Ablation variants share the "HiDP" display name but plan
        // differently; cache_config keeps their keys apart.
        let cache = PlanCache::new();
        let cluster = presets::paper_cluster();
        let graph = WorkloadModel::EfficientNetB0.graph(1);
        let full = HidpStrategy::new();
        let model_only = HidpStrategy {
            global: crate::GlobalPartitioner {
                dse: crate::DseAgent::with_policy(crate::DsePolicy::ModelOnly),
                ..crate::GlobalPartitioner::hidp()
            },
            local: crate::LocalPartitioner::hidp(),
        };
        assert_eq!(
            crate::strategy::DistributedStrategy::name(&full),
            crate::strategy::DistributedStrategy::name(&model_only)
        );
        cache.plan(&full, &graph, &cluster, NodeIndex(1)).unwrap();
        cache
            .plan(&model_only, &graph, &cluster, NodeIndex(1))
            .unwrap();
        assert_eq!(cache.stats(), PlanCacheStats { hits: 0, misses: 2 });
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn availability_change_invalidates_by_key() {
        let cache = PlanCache::new();
        let mut cluster = presets::paper_cluster();
        let strategy = HidpStrategy::new();
        let graph = WorkloadModel::InceptionV3.graph(1);

        cache
            .plan(&strategy, &graph, &cluster, NodeIndex(1))
            .unwrap();
        // A node drops out: the cluster fingerprint changes, so the stale
        // plan (which may target the dead node) is not reused.
        cluster.set_available(NodeIndex(3), false).unwrap();
        cache
            .plan(&strategy, &graph, &cluster, NodeIndex(1))
            .unwrap();
        assert_eq!(cache.stats().misses, 2);
        // The node comes back: the original entry applies again.
        cluster.set_available(NodeIndex(3), true).unwrap();
        cache
            .plan(&strategy, &graph, &cluster, NodeIndex(1))
            .unwrap();
        assert_eq!(cache.stats(), PlanCacheStats { hits: 1, misses: 2 });
    }

    #[test]
    fn clear_resets_plans_and_stats() {
        let cache = PlanCache::new();
        let cluster = presets::paper_cluster();
        let strategy = HidpStrategy::new();
        let graph = WorkloadModel::EfficientNetB0.graph(1);
        cache
            .plan(&strategy, &graph, &cluster, NodeIndex(1))
            .unwrap();
        assert!(!cache.is_empty());
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), PlanCacheStats::default());
    }

    #[test]
    fn cached_plans_are_bit_identical_to_fresh_ones() {
        let cache = PlanCache::new();
        let cluster = presets::paper_cluster();
        let strategy = HidpStrategy::new();
        let graph = WorkloadModel::ResNet152.graph(1);
        let cached = cache
            .plan(&strategy, &graph, &cluster, NodeIndex(1))
            .unwrap();
        let fresh =
            crate::strategy::DistributedStrategy::plan(&strategy, &graph, &cluster, NodeIndex(1))
                .unwrap();
        assert_eq!(*cached.as_ref(), fresh);
    }

    /// Delegates to HiDP but stalls inside `plan` long enough that
    /// concurrent misses on the same key reliably overlap, and counts how
    /// often the planner actually ran.
    struct SlowStrategy {
        inner: HidpStrategy,
        invocations: AtomicUsize,
    }

    impl DistributedStrategy for SlowStrategy {
        fn name(&self) -> &str {
            "slow"
        }

        fn plan(
            &self,
            graph: &DnnGraph,
            cluster: &Cluster,
            leader: NodeIndex,
        ) -> Result<ExecutionPlan, CoreError> {
            self.invocations.fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(30));
            self.inner.plan(graph, cluster, leader)
        }
    }

    #[test]
    fn concurrent_misses_on_one_key_plan_exactly_once() {
        const THREADS: usize = 8;
        let cache = PlanCache::new();
        let cluster = presets::paper_cluster();
        let strategy = SlowStrategy {
            inner: HidpStrategy::new(),
            invocations: AtomicUsize::new(0),
        };
        let graph = WorkloadModel::EfficientNetB0.graph(1);
        let barrier = Barrier::new(THREADS);

        let plans: Vec<Arc<ExecutionPlan>> = crossbeam::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|_| {
                        barrier.wait();
                        cache
                            .plan(&strategy, &graph, &cluster, NodeIndex(1))
                            .unwrap()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("no panic"))
                .collect()
        })
        .expect("scope completes");

        // In-flight deduplication: one planner invocation, one entry, and
        // every thread got the same Arc.
        assert_eq!(strategy.invocations.load(Ordering::SeqCst), 1);
        assert_eq!(cache.len(), 1);
        for plan in &plans[1..] {
            assert!(Arc::ptr_eq(&plans[0], plan));
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 1, "exactly one miss (the planner)");
        assert_eq!(stats.hits, THREADS as u64 - 1, "everyone else waited");
        assert_eq!(stats.lookups(), THREADS as u64);
    }

    /// Fails planning after a stall, to exercise error propagation to
    /// in-flight waiters and the unpublish-on-failure path.
    struct FailingStrategy;

    impl DistributedStrategy for FailingStrategy {
        fn name(&self) -> &str {
            "failing"
        }

        fn plan(
            &self,
            _graph: &DnnGraph,
            _cluster: &Cluster,
            _leader: NodeIndex,
        ) -> Result<ExecutionPlan, CoreError> {
            std::thread::sleep(std::time::Duration::from_millis(10));
            Err(CoreError::Infeasible {
                what: "always fails".into(),
            })
        }
    }

    #[test]
    fn planning_failures_reach_waiters_and_are_not_memoized() {
        const THREADS: usize = 4;
        let cache = PlanCache::new();
        let cluster = presets::paper_cluster();
        let graph = WorkloadModel::EfficientNetB0.graph(1);
        let barrier = Barrier::new(THREADS);

        crossbeam::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|_| {
                        barrier.wait();
                        cache.plan(&FailingStrategy, &graph, &cluster, NodeIndex(1))
                    })
                })
                .collect();
            for h in handles {
                assert!(h.join().expect("no panic").is_err());
            }
        })
        .expect("scope completes");

        // The failure was not memoized; a later lookup re-plans (and fails
        // again, still inserting nothing).
        assert!(cache.is_empty());
        assert!(cache
            .plan(&FailingStrategy, &graph, &cluster, NodeIndex(1))
            .is_err());
        assert!(cache.is_empty());
    }

    /// Panics on the first `plan` call, delegates to HiDP afterwards — to
    /// prove a panicking planner neither strands its waiters on the condvar
    /// nor poisons the key for later lookups.
    struct PanickingStrategy {
        inner: HidpStrategy,
        panicked: std::sync::atomic::AtomicBool,
    }

    impl DistributedStrategy for PanickingStrategy {
        fn name(&self) -> &str {
            "panicking"
        }

        fn plan(
            &self,
            graph: &DnnGraph,
            cluster: &Cluster,
            leader: NodeIndex,
        ) -> Result<ExecutionPlan, CoreError> {
            if !self.panicked.swap(true, Ordering::SeqCst) {
                std::thread::sleep(std::time::Duration::from_millis(30));
                panic!("injected planner panic");
            }
            self.inner.plan(graph, cluster, leader)
        }
    }

    #[test]
    fn planner_panic_releases_waiters_and_unpublishes_the_slot() {
        let cache = PlanCache::new();
        let cluster = presets::paper_cluster();
        let strategy = PanickingStrategy {
            inner: HidpStrategy::new(),
            panicked: std::sync::atomic::AtomicBool::new(false),
        };
        let graph = WorkloadModel::EfficientNetB0.graph(1);
        let barrier = Barrier::new(2);

        let waiter_outcome = crossbeam::thread::scope(|s| {
            let planner = s.spawn(|_| {
                barrier.wait();
                // This thread wins the publish race (the waiter sleeps) and
                // panics mid-plan; join() surfaces the panic as Err.
                cache.plan(&strategy, &graph, &cluster, NodeIndex(1))
            });
            let waiter = s.spawn(|_| {
                barrier.wait();
                std::thread::sleep(std::time::Duration::from_millis(10));
                cache.plan(&strategy, &graph, &cluster, NodeIndex(1))
            });
            assert!(planner.join().is_err(), "planner thread must panic");
            waiter.join().expect("waiter must not hang or panic")
        })
        .expect("scope completes");

        // The waiter either observed the guard's error or re-planned after
        // the unpublish (second call succeeds); it must never deadlock.
        match waiter_outcome {
            Err(CoreError::Runtime { what }) => assert!(what.contains("panicked")),
            Ok(_) => {}
            Err(other) => panic!("unexpected waiter error: {other}"),
        }
        // The key is not poisoned: a fresh lookup plans successfully.
        let plan = cache
            .plan(&strategy, &graph, &cluster, NodeIndex(1))
            .expect("key is re-plannable after the panic");
        assert!(!plan.is_empty());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn shard_routing_is_deterministic_and_in_range() {
        let cluster = presets::paper_cluster();
        let strategy = HidpStrategy::new();
        for model in WorkloadModel::ALL {
            let graph = model.graph(1);
            let key = PlanKey::new(&strategy, &graph, &cluster, NodeIndex(1));
            assert!(key.shard() < SHARD_COUNT);
            assert_eq!(key.shard(), key.clone().shard());
        }
    }
}
