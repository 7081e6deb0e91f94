//! The discrete-event cluster simulator.
//!
//! Resources are (a) every processor in the cluster and (b) the wireless
//! link between every pair of distinct nodes. Tasks are scheduled with a
//! deterministic earliest-start policy: among all tasks whose dependencies
//! have finished, the one that can start first (ties broken by submission
//! order) is placed on its resource. Per-resource execution is FIFO,
//! matching the run-queue behaviour of the real middleware. A task's
//! duration and resource come from [`PlanTask::cost`](crate::PlanTask::cost)
//! and its residency from [`PlanTask::nodes`](crate::PlanTask::nodes) — the
//! one rule [`crate::reference`] and the serving tier's dispatch estimator
//! share.
//!
//! The engine is event-driven: a pre-pass interns every resource into a
//! dense index and flattens all plans into one task array with indegree
//! counts and a CSR successor list; the run loop then pops a binary heap of
//! ready tasks keyed by feasible start time, tracks per-resource free times
//! in a flat `Vec<f64>`, and decrements successor indegrees on completion —
//! O(n log n) with no per-step hashing or rescans. The original O(n²)
//! list-scheduling implementation is preserved in [`crate::reference`] and
//! property-tested to produce identical schedules.
//!
//! # The zero-copy warm path
//!
//! Three knobs make steady-state re-simulation allocation-free:
//!
//! * plans are taken as any [`Borrow<ExecutionPlan>`] — pass
//!   `Arc<ExecutionPlan>`s (what [`hidp_core::PlanCache`] hands out) and a
//!   1000-request stream shares a handful of plans instead of deep-copying
//!   each one per request;
//! * [`simulate_stream_in`] runs against a caller-owned [`SimScratch`],
//!   reusing every internal buffer *and* the report's output buffers across
//!   runs ([`simulate_stream`] is the allocating wrapper around a one-shot
//!   scratch);
//! * [`TraceDetail::Summary`] skips materialising the per-task
//!   [`TaskRecord`] trace for consumers that only read latencies, makespan
//!   and energy (every metric except the trace itself stays bit-identical —
//!   [`hidp_platform::EnergyMeter`] accounting is exact in both modes).
//!
//! One caveat on exactness: this engine orders ready tasks by *exact* start
//! time (ties by submission order), while the reference scan treated starts
//! within `1e-15` of each other as ties. Whenever no two contending feasible
//! starts fall within that band of each other without being exactly equal —
//! every workload and property seed exercised so far — the two engines are
//! bit-identical; inside that degenerate sub-ULP band their task order may
//! differ (the reference's epsilon rule is scan-order-dependent and not a
//! total order, so no heap key can reproduce it).

use crate::plan::{ExecutionPlan, Label, Resource, TaskId};
use crate::SimError;
use hidp_platform::{AvailabilityEvent, Cluster, EnergyMeter, NodeIndex, ProcessorAddr};
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// The record of one executed task.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskRecord {
    /// The task id within its plan.
    pub task: TaskId,
    /// Index of the request the task belonged to (0 for single-plan runs).
    pub request: usize,
    /// Task label (interned — cloning shares the plan's text).
    pub name: Label,
    /// Simulation time at which the task started, in seconds.
    pub start: f64,
    /// Simulation time at which the task finished, in seconds.
    pub finish: f64,
    /// Flops executed (zero for transfers).
    pub flops: u64,
    /// Bytes transferred (zero for compute tasks).
    pub bytes: u64,
    /// The processor used (None for transfers).
    pub processor: Option<ProcessorAddr>,
}

impl TaskRecord {
    /// Task duration in seconds.
    pub fn duration(&self) -> f64 {
        self.finish - self.start
    }
}

/// How much of the execution trace a simulation materialises.
///
/// Every aggregate — request completions, latencies, makespan, energy —
/// is computed identically in both modes; the knob only controls whether
/// the per-task [`TaskRecord`] trace is kept.
///
/// * Use [`TraceDetail::Full`] when the trace itself is consumed: timeline
///   plots ([`crate::stats::performance_timeline`]), per-task debugging,
///   the Fig. 6 experiment.
/// * Use [`TraceDetail::Summary`] for metric-only consumers — strategy
///   grids, rate sweeps, Poisson stress — where materialising one record
///   per task is pure allocation cost (the dominant one on long streams).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceDetail {
    /// Keep the per-task trace in [`SimReport::records`] (the default).
    #[default]
    Full,
    /// Leave [`SimReport::records`] empty; aggregates stay exact.
    Summary,
}

/// The result of simulating one or more plans on a cluster.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Per-task execution records, ordered by start time (empty when the
    /// run used [`TraceDetail::Summary`]).
    pub records: Vec<TaskRecord>,
    /// Completion time of each request (seconds since simulation start).
    pub request_completion: Vec<f64>,
    /// Arrival time of each request.
    pub request_arrival: Vec<f64>,
    /// Busy-time accounting used for energy computation.
    pub meter: EnergyMeter,
    /// Time at which the last task finished.
    pub makespan: f64,
}

impl SimReport {
    /// Latency of request `i` (completion − arrival), in seconds.
    pub fn latency(&self, request: usize) -> Option<f64> {
        Some(self.request_completion.get(request)? - self.request_arrival.get(request)?)
    }

    /// Latencies of all requests, in seconds.
    pub fn latencies(&self) -> Vec<f64> {
        (0..self.request_completion.len())
            .filter_map(|i| self.latency(i))
            .collect()
    }

    /// Total energy over the makespan window, in joules.
    ///
    /// # Errors
    ///
    /// Propagates platform lookup failures for unknown processors.
    pub fn total_energy(&self, cluster: &Cluster) -> Result<f64, SimError> {
        Ok(self.meter.total_energy(cluster, self.makespan)?)
    }

    /// Dynamic (workload-attributable) energy in joules.
    ///
    /// # Errors
    ///
    /// Propagates platform lookup failures for unknown processors.
    pub fn dynamic_energy(&self, cluster: &Cluster) -> Result<f64, SimError> {
        Ok(self.meter.dynamic_energy(cluster)?)
    }
}

/// One in-flight request killed by a node failure: emitted by the
/// failure-aware admitted-stream mode ([`simulate_admitted_stream_faulty_in`])
/// instead of a fictitious completion on dead hardware.
///
/// A down-flip at time `t` kills every request that still has **unstarted**
/// work touching the failed node at that instant — tasks that began before
/// the flip run to completion and keep their resource reservations (the
/// abandoned work occupies hardware; nothing is rolled back). The killed
/// request's entry in [`SimReport::request_completion`] is the finish of its
/// last committed task (`0.0` when nothing had started) — consumers must use
/// the failure list, not completions, to classify these requests.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FailureEvent {
    /// Input index of the killed request.
    pub request: usize,
    /// Virtual time of the availability flip that killed it, seconds.
    pub at: f64,
    /// The node whose down-flip killed the request.
    pub node: NodeIndex,
}

/// One entry of a simulated request stream: the arrival time used for
/// latency accounting, the release (admission) time gating when the
/// request's subgraph may start, and the plan.
///
/// Plain `(arrival, plan)` streams release at arrival — the historical
/// behaviour. The serving runtime's admitted streams
/// (`(arrival, admitted, plan)`) release later: queueing delay then shows up
/// as `completion - arrival` growing while the schedule itself only sees the
/// admitted time.
pub(crate) trait StreamEntry {
    /// Arrival time, seconds (latency is measured from here).
    fn arrival(&self) -> f64;
    /// Release gate, seconds: no task of the request starts earlier.
    fn release(&self) -> f64;
    /// The plan serving the request.
    fn plan(&self) -> &ExecutionPlan;
}

impl<P: Borrow<ExecutionPlan>> StreamEntry for (f64, P) {
    fn arrival(&self) -> f64 {
        self.0
    }

    fn release(&self) -> f64 {
        self.0
    }

    fn plan(&self) -> &ExecutionPlan {
        self.1.borrow()
    }
}

impl<P: Borrow<ExecutionPlan>> StreamEntry for (f64, f64, P) {
    fn arrival(&self) -> f64 {
        self.0
    }

    fn release(&self) -> f64 {
        self.1
    }

    fn plan(&self) -> &ExecutionPlan {
        self.2.borrow()
    }
}

/// One flattened task: the plain-data view of a plan task (its
/// [`PlanTask::cost`](crate::PlanTask::cost) with the resource interned).
/// Holds no borrow of the plans, so the flat array persists inside
/// [`SimScratch`] across runs.
#[derive(Debug, Clone, Copy)]
struct TaskMeta {
    request: usize,
    duration: f64,
    resource: Option<u32>,
    processor: Option<ProcessorAddr>,
    /// The task's [`PlanTask::nodes`](crate::PlanTask::nodes). Used by the
    /// failure-aware mode to decide which unstarted tasks a down-flip
    /// invalidates.
    node_a: u32,
    node_b: u32,
}

/// A ready task in the event queue: ordered by feasible start time, with
/// the flat (submission-order) index as tie-break so simultaneous tasks
/// commit in the order they were submitted.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ReadyTask {
    start: f64,
    seq: usize,
}

impl Eq for ReadyTask {}

impl PartialOrd for ReadyTask {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ReadyTask {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Start times are validated finite, so total_cmp is the numeric order.
        self.start
            .total_cmp(&other.start)
            .then(self.seq.cmp(&other.seq))
    }
}

/// Reusable working memory for [`simulate_stream_in`]: the flattened task
/// array, indegree counts, CSR successor lists, the ready heap, per-resource
/// free times *and* the output [`SimReport`]'s buffers.
///
/// Create one per worker thread (it is cheap when empty) and pass it to
/// every simulation that thread runs: after the first run of a given stream
/// shape, subsequent runs perform **zero heap allocations** — every buffer
/// is cleared and refilled in place, and with plans shared via `Arc` and
/// labels interned there is nothing left to copy. `tests/
/// zero_alloc_warm_path.rs` asserts this with a counting allocator, and the
/// CI bench-smoke job re-asserts it on every PR via `exp_warm_path --quick`.
///
/// [`simulate_stream`] is the one-shot wrapper: it builds a fresh scratch,
/// runs once and moves the report out — bit-identical output, allocation
/// cost proportional to the stream.
#[derive(Debug, Default)]
pub struct SimScratch {
    resources: HashMap<Resource, u32>,
    tasks: Vec<TaskMeta>,
    /// ready_time[i]: max(arrival, finish of every completed dependency).
    ready_time: Vec<f64>,
    /// indegree[i]: dependencies of task i not yet finished.
    indegree: Vec<u32>,
    /// Per-request offset of the first flat index, to globalise dep ids.
    request_base: Vec<usize>,
    succ_offsets: Vec<usize>,
    succ: Vec<usize>,
    cursor: Vec<usize>,
    resource_free: Vec<f64>,
    heap: BinaryHeap<Reverse<ReadyTask>>,
    report: SimReport,
    /// Failure events of the last faulty run (empty otherwise).
    failures: Vec<FailureEvent>,
    /// Faulty-mode bookkeeping: request liveness, uncommitted-task counts
    /// per request, per-task committed flags. Untouched on fault-free runs.
    alive: Vec<bool>,
    remaining: Vec<u32>,
    done: Vec<bool>,
}

impl SimScratch {
    /// Creates an empty scratch (no buffers are allocated until first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears every buffer, keeping capacity.
    fn reset(&mut self, total_tasks: usize, request_count: usize) {
        self.resources.clear();
        self.tasks.clear();
        self.tasks.reserve(total_tasks);
        self.ready_time.clear();
        self.ready_time.reserve(total_tasks);
        self.indegree.clear();
        self.indegree.reserve(total_tasks);
        self.request_base.clear();
        self.request_base.reserve(request_count);
        self.heap.clear();
        self.failures.clear();
        self.report.records.clear();
        self.report.request_completion.clear();
        self.report.request_arrival.clear();
        self.report.meter.reset();
        self.report.makespan = 0.0;
    }

    /// The engine proper: validates, flattens, simulates, and leaves the
    /// result in `self.report` (and, when `faults` contains down-flips, the
    /// killed requests in `self.failures`).
    ///
    /// With an empty `faults` slice this is the historical fault-free
    /// engine: the extra bookkeeping is gated on the presence of down
    /// events, and the arithmetic of every commit is untouched — pinned
    /// bit-identical by test.
    fn run<E: StreamEntry>(
        &mut self,
        requests: &[E],
        cluster: &Cluster,
        detail: TraceDetail,
        faults: &[AvailabilityEvent],
    ) -> Result<(), SimError> {
        if requests.is_empty() {
            return Err(SimError::InvalidPlan {
                what: "no requests to simulate".into(),
            });
        }
        let mut prev_fault = 0.0f64;
        for (idx, event) in faults.iter().enumerate() {
            if !(event.time.is_finite() && event.time >= 0.0) {
                return Err(SimError::InvalidPlan {
                    what: format!("fault event {idx} has invalid time {}", event.time),
                });
            }
            if event.time < prev_fault {
                return Err(SimError::InvalidPlan {
                    what: format!("fault events are not sorted by time (event {idx})"),
                });
            }
            prev_fault = event.time;
            cluster.node(event.node)?;
        }
        // Only down-flips kill work; a timeline of pure up events (or none)
        // takes the fault-free path untouched.
        let faulty = faults.iter().any(|e| !e.up);

        // --- Pre-pass: validate, intern resources, flatten tasks. ---------
        let total: usize = requests.iter().map(|e| e.plan().len()).sum();
        self.reset(total, requests.len());

        for (req_idx, entry) in requests.iter().enumerate() {
            let plan = entry.plan();
            let arrival = entry.arrival();
            let release = entry.release();
            if !(arrival.is_finite() && arrival >= 0.0) {
                return Err(SimError::InvalidPlan {
                    what: format!("request {req_idx} has invalid arrival time {arrival}"),
                });
            }
            if !(release.is_finite() && release >= arrival) {
                return Err(SimError::InvalidPlan {
                    what: format!(
                        "request {req_idx} has invalid admitted time {release} \
                         (arrival {arrival})"
                    ),
                });
            }
            // Normalise -0.0 to +0.0: total_cmp orders -0.0 before 0.0, which
            // would break the exact-tie submission-order guarantee for
            // requests arriving at (±)0.0.
            let release = release + 0.0;
            plan.validate()?;
            let batch = plan.batch();
            self.request_base.push(self.tasks.len());
            for task in plan.tasks() {
                let cost = task.cost(cluster, batch)?;
                let resource = cost.resource.map(|r| {
                    let next = self.resources.len() as u32;
                    *self.resources.entry(r).or_insert(next)
                });
                let (node_a, node_b) = task.nodes();
                self.tasks.push(TaskMeta {
                    request: req_idx,
                    duration: cost.duration,
                    resource,
                    processor: cost.processor,
                    node_a: node_a.0 as u32,
                    node_b: node_b.0 as u32,
                });
                self.ready_time.push(release);
                self.indegree.push(task.deps.len() as u32);
            }
        }

        // CSR successor lists: succ[succ_offsets[d]..succ_offsets[d + 1]]
        // holds the flat indices of the tasks depending on flat task d. The
        // dependency ids live in the borrowed plans, so the two fill passes
        // walk the plans again instead of storing per-task borrows.
        let n = self.tasks.len();
        self.succ_offsets.clear();
        self.succ_offsets.resize(n + 1, 0);
        for (req_idx, entry) in requests.iter().enumerate() {
            let base = self.request_base[req_idx];
            for task in entry.plan().tasks() {
                for dep in &task.deps {
                    self.succ_offsets[base + dep.0 + 1] += 1;
                }
            }
        }
        for d in 0..n {
            self.succ_offsets[d + 1] += self.succ_offsets[d];
        }
        self.succ.clear();
        self.succ.resize(self.succ_offsets[n], 0);
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.succ_offsets[..n]);
        let mut flat = 0usize;
        for (req_idx, entry) in requests.iter().enumerate() {
            let base = self.request_base[req_idx];
            for task in entry.plan().tasks() {
                for dep in &task.deps {
                    let d = base + dep.0;
                    self.succ[self.cursor[d]] = flat;
                    self.cursor[d] += 1;
                }
                flat += 1;
            }
        }

        // --- Event loop. --------------------------------------------------
        let Self {
            resources,
            tasks,
            ready_time,
            indegree,
            request_base,
            succ_offsets,
            succ,
            heap,
            resource_free,
            report,
            failures,
            alive,
            remaining,
            done,
            ..
        } = self;
        resource_free.clear();
        resource_free.resize(resources.len(), 0.0);
        report.request_completion.resize(requests.len(), 0.0);
        if detail == TraceDetail::Full {
            report.records.reserve(n);
        }
        if faulty {
            alive.clear();
            alive.resize(requests.len(), true);
            done.clear();
            done.resize(n, false);
            remaining.clear();
            remaining.resize(requests.len(), 0);
            for t in tasks.iter() {
                remaining[t.request] += 1;
            }
        }

        // Heap keys are lower bounds on feasible start: exact once every
        // dependency is finished, except that the resource may become busier
        // after the push — corrected lazily on pop.
        for i in 0..n {
            if indegree[i] == 0 {
                heap.push(Reverse(ReadyTask {
                    start: ready_time[i],
                    seq: i,
                }));
            }
        }

        let mut committed = 0usize;
        let mut skipped = 0usize;
        let mut next_fault = 0usize;
        while let Some(Reverse(entry)) = heap.pop() {
            let i = entry.seq;
            let t = tasks[i];
            if faulty && !alive[t.request] {
                continue;
            }
            if let Some(r) = t.resource {
                // The resource may have advanced past this entry's key since
                // it was pushed; re-queue with the corrected feasible start
                // so the heap order stays the true earliest-start order.
                let feasible = entry.start.max(resource_free[r as usize]);
                if feasible > entry.start {
                    heap.push(Reverse(ReadyTask {
                        start: feasible,
                        seq: i,
                    }));
                    continue;
                }
            }
            let start = entry.start;
            // Apply every availability flip due by this commit's start
            // before committing: commits happen in nondecreasing start
            // order, so no task starting at or after a flip has committed
            // when the flip is applied. A down-flip at `time` kills every
            // request that still has uncommitted work touching the failed
            // node — including tasks starting exactly at the flip instant.
            while next_fault < faults.len() && faults[next_fault].time <= start {
                let event = faults[next_fault];
                next_fault += 1;
                if event.up {
                    continue;
                }
                let v = event.node.0 as u32;
                for (task_idx, m) in tasks.iter().enumerate() {
                    if !done[task_idx] && alive[m.request] && (m.node_a == v || m.node_b == v) {
                        // Tasks are grouped by request in ascending order,
                        // so failures come out in request order per event.
                        alive[m.request] = false;
                        skipped += remaining[m.request] as usize;
                        remaining[m.request] = 0;
                        failures.push(FailureEvent {
                            request: m.request,
                            at: event.time,
                            node: event.node,
                        });
                    }
                }
            }
            if faulty && !alive[t.request] {
                continue;
            }
            let end = start + t.duration;
            if let Some(r) = t.resource {
                resource_free[r as usize] = end;
            }
            if let Some(addr) = t.processor {
                report.meter.record_busy(addr, t.duration)?;
            }
            if end > report.request_completion[t.request] {
                report.request_completion[t.request] = end;
            }
            // Commits happen in non-decreasing start order (every remaining
            // heap key and every future push is ≥ the popped key), so
            // `records` ends up sorted by start with submission-order ties —
            // the same order the reference engine produces.
            if detail == TraceDetail::Full {
                let local = i - request_base[t.request];
                let task = &requests[t.request].plan().tasks()[local];
                let (flops, bytes) = task.work();
                report.records.push(TaskRecord {
                    task: task.id,
                    request: t.request,
                    name: task.name.clone(),
                    start,
                    finish: end,
                    flops,
                    bytes,
                    processor: t.processor,
                });
            }
            committed += 1;
            if faulty {
                done[i] = true;
                remaining[t.request] -= 1;
            }
            for &s in &succ[succ_offsets[i]..succ_offsets[i + 1]] {
                if end > ready_time[s] {
                    ready_time[s] = end;
                }
                indegree[s] -= 1;
                if indegree[s] == 0 {
                    let start = match tasks[s].resource {
                        Some(r) => ready_time[s].max(resource_free[r as usize]),
                        None => ready_time[s],
                    };
                    heap.push(Reverse(ReadyTask { start, seq: s }));
                }
            }
        }
        if committed + skipped != n {
            return Err(SimError::InvalidPlan {
                what: "dependency deadlock: no ready task found".into(),
            });
        }

        report.makespan = report
            .request_completion
            .iter()
            .copied()
            .fold(0.0, f64::max);
        report
            .request_arrival
            .extend(requests.iter().map(StreamEntry::arrival));
        Ok(())
    }
}

/// Simulates a single plan starting at time zero.
///
/// # Errors
///
/// Returns an error when the plan is invalid or references unknown
/// processors/nodes.
pub fn simulate(plan: &ExecutionPlan, cluster: &Cluster) -> Result<SimReport, SimError> {
    simulate_stream(&[(0.0, plan)], cluster)
}

/// Simulates a stream of inference requests, each with an arrival time and a
/// plan. Resources are shared across requests, so a long-running request
/// delays later ones — the effect the paper's Fig. 6/7 experiments measure.
///
/// Plans are taken by [`Borrow`], so `&[(f64, ExecutionPlan)]`,
/// `&[(f64, Arc<ExecutionPlan>)]` and `&[(f64, &ExecutionPlan)]` all work —
/// shared plans are read in place, never copied.
///
/// # Errors
///
/// Returns an error when any plan is invalid, arrival times are not finite
/// and non-negative, or a plan references unknown processors/nodes.
pub fn simulate_stream<P: Borrow<ExecutionPlan>>(
    requests: &[(f64, P)],
    cluster: &Cluster,
) -> Result<SimReport, SimError> {
    simulate_stream_detailed(requests, cluster, TraceDetail::Full)
}

/// [`simulate_stream`] with an explicit [`TraceDetail`], still allocating a
/// fresh report per call.
///
/// # Errors
///
/// Same conditions as [`simulate_stream`].
pub fn simulate_stream_detailed<P: Borrow<ExecutionPlan>>(
    requests: &[(f64, P)],
    cluster: &Cluster,
    detail: TraceDetail,
) -> Result<SimReport, SimError> {
    let mut scratch = SimScratch::new();
    scratch.run(requests, cluster, detail, &[])?;
    Ok(std::mem::take(&mut scratch.report))
}

/// [`simulate_stream`] against caller-owned working memory: every internal
/// buffer and the returned report's buffers live in `scratch` and are reused
/// across calls, so steady-state re-simulation allocates nothing (see
/// [`SimScratch`]). The report borrow is valid until the next run.
///
/// # Errors
///
/// Same conditions as [`simulate_stream`]. On error the scratch stays valid
/// for further runs (its buffers are simply cleared again).
pub fn simulate_stream_in<'s, P: Borrow<ExecutionPlan>>(
    scratch: &'s mut SimScratch,
    requests: &[(f64, P)],
    cluster: &Cluster,
    detail: TraceDetail,
) -> Result<&'s SimReport, SimError> {
    scratch.run(requests, cluster, detail, &[])?;
    Ok(&scratch.report)
}

/// Simulates an **admitted** request stream against caller-owned working
/// memory (see [`SimScratch`]): each entry is `(arrival, admitted, plan)`,
/// and the request's subgraph is released at its admitted time while
/// latency accounting still runs from arrival — `SimReport::latencies` then
/// includes the queueing delay the admission layer imposed. With
/// `admitted == arrival` for every entry this is bit-identical to
/// [`simulate_stream_in`]. The report borrow is valid until the next run.
///
/// # Errors
///
/// Same conditions as [`simulate_stream`], plus an error when any admitted
/// time is non-finite or earlier than its arrival. On error the scratch
/// stays valid for further runs.
pub fn simulate_admitted_stream_in<'s, P: Borrow<ExecutionPlan>>(
    scratch: &'s mut SimScratch,
    requests: &[(f64, f64, P)],
    cluster: &Cluster,
    detail: TraceDetail,
) -> Result<&'s SimReport, SimError> {
    scratch.run(requests, cluster, detail, &[])?;
    Ok(&scratch.report)
}

/// Simulates an **admitted** request stream under a failure timeline — the
/// failure-aware admitted-stream mode — against caller-owned working memory
/// (see [`SimScratch`]).
///
/// `faults` is a time-sorted availability timeline (what
/// [`hidp_platform::ClusterTimeline::events`] yields). When a down-flip at
/// time `t` hits a node, every request that still has **unstarted** work
/// resident on that node ([`PlanTask::nodes`](crate::PlanTask::nodes)) is
/// killed: it surfaces as a [`FailureEvent`] instead of a fictitious
/// completion on dead hardware. Tasks that started before the flip run to
/// completion and keep their resource reservations — the abandoned work
/// occupies real hardware, exactly the cost a recovery policy has to route
/// around. Up-flips never affect in-flight work (new capacity only matters
/// to future planning, which the admission layer re-keys by epoch
/// fingerprint).
///
/// With no down-flips in `faults` this is **bit-identical** to
/// [`simulate_admitted_stream_in`] (pinned by test): the kill bookkeeping is
/// gated on the presence of down events and no commit arithmetic changes.
/// The report and failure borrows are valid until the next run. Failures
/// are ordered by flip time, then request index.
///
/// # Errors
///
/// Same conditions as [`simulate_admitted_stream_in`], plus an error when
/// the fault timeline is unsorted, non-finite, or names an unknown node. On
/// error the scratch stays valid for further runs.
pub fn simulate_admitted_stream_faulty_in<'s, P: Borrow<ExecutionPlan>>(
    scratch: &'s mut SimScratch,
    requests: &[(f64, f64, P)],
    cluster: &Cluster,
    faults: &[AvailabilityEvent],
    detail: TraceDetail,
) -> Result<(&'s SimReport, &'s [FailureEvent]), SimError> {
    scratch.run(requests, cluster, detail, faults)?;
    Ok((&scratch.report, &scratch.failures))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hidp_platform::{presets, ProcessorIndex};

    fn addr(node: usize, proc: usize) -> ProcessorAddr {
        ProcessorAddr {
            node: NodeIndex(node),
            processor: ProcessorIndex(proc),
        }
    }

    #[test]
    fn sequential_chain_adds_durations() {
        let cluster = presets::paper_cluster();
        let mut plan = ExecutionPlan::new();
        let a = plan.add_compute("a", addr(0, 1), 1_000_000_000, 1.0, &[]);
        let t = plan.add_transfer("xfer", NodeIndex(0), NodeIndex(1), 8_000_000, &[a]);
        let b = plan.add_compute("b", addr(1, 2), 1_000_000_000, 1.0, &[t]);
        let _ = b;
        let report = simulate(&plan, &cluster).unwrap();

        let gpu0 = cluster.processor(addr(0, 1)).unwrap();
        let gpu1 = cluster.processor(addr(1, 2)).unwrap();
        let expected = gpu0.compute_time(1_000_000_000, 1.0)
            + cluster
                .network()
                .transfer_time(NodeIndex(0), NodeIndex(1), 8_000_000)
            + gpu1.compute_time(1_000_000_000, 1.0);
        assert!((report.makespan - expected).abs() < 1e-9);
        assert_eq!(report.records.len(), 3);
        assert!((report.latency(0).unwrap() - expected).abs() < 1e-9);
    }

    #[test]
    fn independent_tasks_on_different_processors_overlap() {
        let cluster = presets::paper_cluster();
        let mut plan = ExecutionPlan::new();
        plan.add_compute("a", addr(0, 0), 2_000_000_000, 1.0, &[]);
        plan.add_compute("b", addr(0, 1), 2_000_000_000, 1.0, &[]);
        let report = simulate(&plan, &cluster).unwrap();
        let cpu = cluster.processor(addr(0, 0)).unwrap();
        let slowest = cpu.compute_time(2_000_000_000, 1.0);
        // Parallel execution: makespan is the slower of the two, not the sum.
        assert!((report.makespan - slowest).abs() < 1e-9);
    }

    #[test]
    fn same_processor_tasks_serialise() {
        let cluster = presets::paper_cluster();
        let mut plan = ExecutionPlan::new();
        plan.add_compute("a", addr(0, 1), 1_000_000_000, 1.0, &[]);
        plan.add_compute("b", addr(0, 1), 1_000_000_000, 1.0, &[]);
        let report = simulate(&plan, &cluster).unwrap();
        let gpu = cluster.processor(addr(0, 1)).unwrap();
        let single = gpu.compute_time(1_000_000_000, 1.0);
        assert!((report.makespan - 2.0 * single).abs() < 1e-9);
    }

    #[test]
    fn link_contention_serialises_transfers() {
        let cluster = presets::paper_cluster();
        let mut plan = ExecutionPlan::new();
        plan.add_transfer("x1", NodeIndex(0), NodeIndex(1), 40_000_000, &[]);
        plan.add_transfer("x2", NodeIndex(1), NodeIndex(0), 40_000_000, &[]);
        // Different node pair: can run in parallel with the above.
        plan.add_transfer("x3", NodeIndex(2), NodeIndex(3), 40_000_000, &[]);
        let report = simulate(&plan, &cluster).unwrap();
        let one = cluster
            .network()
            .transfer_time(NodeIndex(0), NodeIndex(1), 40_000_000);
        assert!((report.makespan - 2.0 * one).abs() < 1e-9);
    }

    #[test]
    fn energy_reflects_busy_processors() {
        let cluster = presets::paper_cluster();
        let mut plan = ExecutionPlan::new();
        plan.add_compute("a", addr(1, 2), 6_600_000_000, 1.0, &[]);
        let report = simulate(&plan, &cluster).unwrap();
        let dynamic = report.dynamic_energy(&cluster).unwrap();
        let gpu = cluster.processor(addr(1, 2)).unwrap();
        let expected = (gpu.active_power_w - gpu.idle_power_w) * report.makespan;
        assert!((dynamic - expected).abs() < 1e-6);
        assert!(report.total_energy(&cluster).unwrap() > dynamic);
    }

    #[test]
    fn stream_requests_queue_on_shared_resources() {
        let cluster = presets::paper_cluster();
        let mut plan = ExecutionPlan::new();
        plan.add_compute("a", addr(0, 1), 18_800_000_000, 1.0, &[]);
        // Two identical requests arriving together: the second must wait.
        let report =
            simulate_stream(&[(0.0, plan.clone()), (0.0, plan.clone())], &cluster).unwrap();
        let single = cluster
            .processor(addr(0, 1))
            .unwrap()
            .compute_time(18_800_000_000, 1.0);
        assert!((report.latency(0).unwrap() - single).abs() < 1e-9);
        assert!((report.latency(1).unwrap() - 2.0 * single).abs() < 1e-9);

        // Arriving after the first finished: no queueing delay.
        let report2 = simulate_stream(
            &[(0.0, plan.clone()), (2.0 * single, plan.clone())],
            &cluster,
        )
        .unwrap();
        assert!((report2.latency(1).unwrap() - single).abs() < 1e-9);
    }

    #[test]
    fn shared_arc_plans_match_owned_plans() {
        // The same stream through owned clones and through one shared Arc
        // must produce bit-identical reports — sharing is pure cost removal.
        let cluster = presets::paper_cluster();
        let mut plan = ExecutionPlan::new();
        let a = plan.add_compute("a", addr(0, 1), 900_000_000, 1.0, &[]);
        plan.add_transfer("t", NodeIndex(0), NodeIndex(2), 4_000_000, &[a]);
        let owned: Vec<(f64, ExecutionPlan)> =
            (0..5).map(|i| (i as f64 * 0.01, plan.clone())).collect();
        let shared_plan = std::sync::Arc::new(plan);
        let shared: Vec<(f64, std::sync::Arc<ExecutionPlan>)> = (0..5)
            .map(|i| (i as f64 * 0.01, std::sync::Arc::clone(&shared_plan)))
            .collect();
        let from_owned = simulate_stream(&owned, &cluster).unwrap();
        let from_shared = simulate_stream(&shared, &cluster).unwrap();
        assert_eq!(from_owned, from_shared);
    }

    #[test]
    fn summary_detail_matches_full_metrics_without_records() {
        let cluster = presets::paper_cluster();
        let mut plan = ExecutionPlan::new();
        let a = plan.add_compute("a", addr(0, 1), 900_000_000, 1.0, &[]);
        let t = plan.add_transfer("t", NodeIndex(0), NodeIndex(2), 4_000_000, &[a]);
        plan.add_compute("b", addr(2, 1), 700_000_000, 0.8, &[t]);
        let requests: Vec<(f64, ExecutionPlan)> =
            (0..4).map(|i| (i as f64 * 0.02, plan.clone())).collect();
        let full = simulate_stream_detailed(&requests, &cluster, TraceDetail::Full).unwrap();
        let summary = simulate_stream_detailed(&requests, &cluster, TraceDetail::Summary).unwrap();
        assert!(summary.records.is_empty());
        assert_eq!(full.records.len(), 12);
        // Every aggregate is bit-identical — including exact energy sums.
        assert_eq!(full.request_completion, summary.request_completion);
        assert_eq!(full.request_arrival, summary.request_arrival);
        assert_eq!(full.makespan, summary.makespan);
        assert_eq!(full.meter, summary.meter);
        assert_eq!(
            full.total_energy(&cluster).unwrap(),
            summary.total_energy(&cluster).unwrap()
        );
    }

    #[test]
    fn scratch_reuse_is_bit_identical_across_different_streams() {
        // One scratch, interleaved runs of two differently-shaped streams:
        // every run must match the one-shot wrapper exactly, including after
        // the buffers were sized by a larger run.
        let cluster = presets::paper_cluster();
        let mut small = ExecutionPlan::new();
        small.add_compute("s", addr(0, 0), 500_000_000, 1.0, &[]);
        let mut big = ExecutionPlan::new();
        let a = big.add_compute("a", addr(0, 1), 900_000_000, 1.0, &[]);
        let t = big.add_transfer("t", NodeIndex(0), NodeIndex(3), 4_000_000, &[a]);
        big.add_compute("b", addr(3, 1), 700_000_000, 0.9, &[t]);

        let stream_a: Vec<(f64, ExecutionPlan)> =
            (0..8).map(|i| (i as f64 * 0.01, big.clone())).collect();
        let stream_b = vec![(0.0, small.clone()), (0.3, small.clone())];

        let mut scratch = SimScratch::new();
        for _ in 0..3 {
            for (stream, detail) in [
                (&stream_a, TraceDetail::Full),
                (&stream_b, TraceDetail::Full),
                (&stream_a, TraceDetail::Summary),
            ] {
                let expected = simulate_stream_detailed(stream, &cluster, detail).unwrap();
                let got = simulate_stream_in(&mut scratch, stream, &cluster, detail).unwrap();
                assert_eq!(*got, expected);
            }
        }
    }

    #[test]
    fn scratch_survives_an_erroring_run() {
        let cluster = presets::paper_cluster();
        let mut good = ExecutionPlan::new();
        good.add_compute("g", addr(0, 0), 1_000_000, 1.0, &[]);
        let mut bad = ExecutionPlan::new();
        bad.add_compute("b", addr(9, 0), 1, 1.0, &[]);

        let mut scratch = SimScratch::new();
        let expected = simulate_stream(&[(0.0, good.clone())], &cluster).unwrap();
        assert!(
            simulate_stream_in(&mut scratch, &[(0.0, bad)], &cluster, TraceDetail::Full).is_err()
        );
        let got =
            simulate_stream_in(&mut scratch, &[(0.0, good)], &cluster, TraceDetail::Full).unwrap();
        assert_eq!(*got, expected);
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let cluster = presets::paper_cluster();
        assert!(simulate_stream(&[] as &[(f64, ExecutionPlan)], &cluster).is_err());
        let mut plan = ExecutionPlan::new();
        plan.add_compute("a", addr(9, 0), 1, 1.0, &[]);
        assert!(simulate(&plan, &cluster).is_err());
        let mut plan2 = ExecutionPlan::new();
        plan2.add_compute("a", addr(0, 0), 1, 1.0, &[]);
        assert!(simulate_stream(&[(f64::NAN, plan2)], &cluster).is_err());
    }

    #[test]
    fn records_are_sorted_by_start_time() {
        let cluster = presets::paper_cluster();
        let mut plan = ExecutionPlan::new();
        let a = plan.add_compute("a", addr(0, 0), 1_000_000_000, 1.0, &[]);
        plan.add_compute("b", addr(0, 1), 500_000_000, 1.0, &[]);
        plan.add_compute("c", addr(0, 0), 100_000_000, 1.0, &[a]);
        let report = simulate(&plan, &cluster).unwrap();
        for pair in report.records.windows(2) {
            assert!(pair[0].start <= pair[1].start);
        }
        assert!(report.records.iter().all(|r| r.duration() > 0.0));
    }

    #[test]
    fn equal_start_tasks_commit_in_submission_order() {
        // Three identical tasks on the same processor, all ready at t = 0:
        // the heap must break the tie by submission order, so the records
        // come out a, b, c back to back.
        let cluster = presets::paper_cluster();
        let mut plan = ExecutionPlan::new();
        plan.add_compute("a", addr(0, 1), 1_000_000_000, 1.0, &[]);
        plan.add_compute("b", addr(0, 1), 1_000_000_000, 1.0, &[]);
        plan.add_compute("c", addr(0, 1), 1_000_000_000, 1.0, &[]);
        let report = simulate(&plan, &cluster).unwrap();
        let names: Vec<&str> = report.records.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
        let single = cluster
            .processor(addr(0, 1))
            .unwrap()
            .compute_time(1_000_000_000, 1.0);
        for (i, record) in report.records.iter().enumerate() {
            assert_eq!(record.start, i as f64 * single);
        }
    }

    #[test]
    fn equal_start_requests_commit_in_request_order() {
        // Two single-task requests arriving at the same instant contend for
        // one processor: request 0 must run first (submission order).
        let cluster = presets::paper_cluster();
        let mut plan = ExecutionPlan::new();
        plan.add_compute("only", addr(1, 2), 2_000_000_000, 1.0, &[]);
        let report =
            simulate_stream(&[(0.5, plan.clone()), (0.5, plan.clone())], &cluster).unwrap();
        assert_eq!(report.records[0].request, 0);
        assert_eq!(report.records[1].request, 1);
        assert!(report.latency(0).unwrap() < report.latency(1).unwrap());
    }

    #[test]
    fn negative_zero_arrival_ties_with_positive_zero() {
        // -0.0 is a valid arrival; it must not jump the submission-order
        // queue ahead of a +0.0 arrival (total_cmp orders -0.0 < 0.0, so
        // arrivals are normalised in the pre-pass).
        let cluster = presets::paper_cluster();
        let mut plan = ExecutionPlan::new();
        plan.add_compute("only", addr(0, 1), 1_000_000_000, 1.0, &[]);
        let report =
            simulate_stream(&[(0.0, plan.clone()), (-0.0, plan.clone())], &cluster).unwrap();
        assert_eq!(report.records[0].request, 0);
        assert_eq!(report.records[1].request, 1);
    }

    #[test]
    fn admitted_stream_with_admitted_equal_arrival_is_bit_identical() {
        let cluster = presets::paper_cluster();
        let mut plan = ExecutionPlan::new();
        let a = plan.add_compute("a", addr(0, 1), 900_000_000, 1.0, &[]);
        plan.add_transfer("t", NodeIndex(0), NodeIndex(2), 4_000_000, &[a]);
        let plain: Vec<(f64, ExecutionPlan)> =
            (0..6).map(|i| (i as f64 * 0.03, plan.clone())).collect();
        let gated: Vec<(f64, f64, ExecutionPlan)> =
            plain.iter().map(|(t, p)| (*t, *t, p.clone())).collect();
        for detail in [TraceDetail::Full, TraceDetail::Summary] {
            let from_plain = simulate_stream_detailed(&plain, &cluster, detail).unwrap();
            let mut scratch = SimScratch::new();
            let from_gated =
                simulate_admitted_stream_in(&mut scratch, &gated, &cluster, detail).unwrap();
            assert_eq!(from_plain, *from_gated);
        }
    }

    #[test]
    fn admitted_time_gates_the_start_and_latency_includes_queueing() {
        let cluster = presets::paper_cluster();
        let mut plan = ExecutionPlan::new();
        plan.add_compute("only", addr(0, 1), 1_000_000_000, 1.0, &[]);
        let single = cluster
            .processor(addr(0, 1))
            .unwrap()
            .compute_time(1_000_000_000, 1.0);
        // Arrives at 0.1, admitted at 0.5: tasks start at 0.5, latency is
        // measured from arrival.
        let mut scratch = SimScratch::new();
        let report = simulate_admitted_stream_in(
            &mut scratch,
            &[(0.1, 0.5, plan.clone())],
            &cluster,
            TraceDetail::Full,
        )
        .unwrap();
        assert_eq!(report.records[0].start, 0.5);
        assert!((report.latency(0).unwrap() - (0.4 + single)).abs() < 1e-12);
        assert_eq!(report.request_arrival, vec![0.1]);
    }

    #[test]
    fn admitted_before_arrival_is_rejected() {
        let cluster = presets::paper_cluster();
        let mut plan = ExecutionPlan::new();
        plan.add_compute("only", addr(0, 0), 1, 1.0, &[]);
        let mut scratch = SimScratch::new();
        assert!(simulate_admitted_stream_in(
            &mut scratch,
            &[(1.0, 0.5, plan.clone())],
            &cluster,
            TraceDetail::Full
        )
        .is_err());
        let mut scratch = SimScratch::new();
        assert!(simulate_admitted_stream_in(
            &mut scratch,
            &[(1.0, f64::NAN, plan)],
            &cluster,
            TraceDetail::Full
        )
        .is_err());
    }

    #[test]
    fn faulty_mode_without_down_flips_is_bit_identical() {
        // The fault-free pin: an empty timeline AND a pure up-flip timeline
        // must both reproduce the plain admitted-stream engine exactly.
        let cluster = presets::paper_cluster();
        let mut plan = ExecutionPlan::new();
        let a = plan.add_compute("a", addr(0, 1), 900_000_000, 1.0, &[]);
        let t = plan.add_transfer("t", NodeIndex(0), NodeIndex(2), 4_000_000, &[a]);
        plan.add_compute("b", addr(2, 1), 700_000_000, 0.8, &[t]);
        let stream: Vec<(f64, f64, ExecutionPlan)> = (0..8)
            .map(|i| (i as f64 * 0.02, i as f64 * 0.02 + 0.01, plan.clone()))
            .collect();
        let ups = [
            AvailabilityEvent {
                time: 0.05,
                node: NodeIndex(3),
                up: true,
            },
            AvailabilityEvent {
                time: 0.09,
                node: NodeIndex(0),
                up: true,
            },
        ];
        for detail in [TraceDetail::Full, TraceDetail::Summary] {
            let mut plain_scratch = SimScratch::new();
            let plain =
                simulate_admitted_stream_in(&mut plain_scratch, &stream, &cluster, detail).unwrap();
            for faults in [&[] as &[AvailabilityEvent], &ups] {
                let mut scratch = SimScratch::new();
                let (report, failures) = simulate_admitted_stream_faulty_in(
                    &mut scratch,
                    &stream,
                    &cluster,
                    faults,
                    detail,
                )
                .unwrap();
                assert_eq!(report, plain);
                assert!(failures.is_empty());
            }
        }
    }

    #[test]
    fn down_flip_kills_unstarted_work_and_spares_started_work() {
        let cluster = presets::paper_cluster();
        let mut plan = ExecutionPlan::new();
        plan.add_compute("only", addr(1, 2), 2_000_000_000, 1.0, &[]);
        let single = cluster
            .processor(addr(1, 2))
            .unwrap()
            .compute_time(2_000_000_000, 1.0);
        // Request 0 starts at t = 0 and is mid-flight when node 1 dies;
        // request 1 is queued behind it and has not started: only request 1
        // is killed, request 0 runs to completion.
        let stream = vec![(0.0, 0.0, plan.clone()), (0.0, 0.0, plan.clone())];
        let faults = [AvailabilityEvent {
            time: single * 0.5,
            node: NodeIndex(1),
            up: false,
        }];
        let mut scratch = SimScratch::new();
        let (report, failures) = simulate_admitted_stream_faulty_in(
            &mut scratch,
            &stream,
            &cluster,
            &faults,
            TraceDetail::Full,
        )
        .unwrap();
        assert_eq!(
            failures,
            vec![FailureEvent {
                request: 1,
                at: single * 0.5,
                node: NodeIndex(1),
            }]
        );
        assert_eq!(report.records.len(), 1);
        assert_eq!(report.records[0].request, 0);
        assert!((report.request_completion[0] - single).abs() < 1e-12);
        // The killed request committed nothing.
        assert_eq!(report.request_completion[1], 0.0);
    }

    #[test]
    fn down_flip_at_time_zero_kills_every_resident_request() {
        // Failure at t = 0: nothing has started, so every request touching
        // the node is killed and nothing at all commits there.
        let cluster = presets::paper_cluster();
        let mut plan = ExecutionPlan::new();
        plan.add_compute("only", addr(2, 1), 1_000_000_000, 1.0, &[]);
        let stream = vec![(0.0, 0.0, plan.clone()), (0.1, 0.1, plan.clone())];
        let faults = [AvailabilityEvent {
            time: 0.0,
            node: NodeIndex(2),
            up: false,
        }];
        let mut scratch = SimScratch::new();
        let (report, failures) = simulate_admitted_stream_faulty_in(
            &mut scratch,
            &stream,
            &cluster,
            &faults,
            TraceDetail::Full,
        )
        .unwrap();
        assert_eq!(failures.len(), 2);
        assert_eq!(failures[0].request, 0);
        assert_eq!(failures[1].request, 1);
        assert!(failures.iter().all(|f| f.at == 0.0));
        assert!(report.records.is_empty());
        assert_eq!(report.makespan, 0.0);
    }

    #[test]
    fn transfer_endpoints_count_as_residency() {
        // A request whose only contact with the failed node is a transfer
        // endpoint is still killed — the link's far side is gone.
        let cluster = presets::paper_cluster();
        let mut plan = ExecutionPlan::new();
        let a = plan.add_compute("a", addr(0, 1), 2_000_000_000, 1.0, &[]);
        plan.add_transfer("t", NodeIndex(0), NodeIndex(3), 4_000_000, &[a]);
        let compute = cluster
            .processor(addr(0, 1))
            .unwrap()
            .compute_time(2_000_000_000, 1.0);
        // Node 3 dies while "a" is running on node 0: the transfer to node 3
        // has not started, so the request dies mid-flight.
        let faults = [AvailabilityEvent {
            time: compute * 0.5,
            node: NodeIndex(3),
            up: false,
        }];
        let mut scratch = SimScratch::new();
        let (_, failures) = simulate_admitted_stream_faulty_in(
            &mut scratch,
            &[(0.0, 0.0, plan)],
            &cluster,
            &faults,
            TraceDetail::Summary,
        )
        .unwrap();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].node, NodeIndex(3));
    }

    #[test]
    fn unsorted_or_invalid_fault_timelines_are_rejected() {
        let cluster = presets::paper_cluster();
        let mut plan = ExecutionPlan::new();
        plan.add_compute("only", addr(0, 0), 1, 1.0, &[]);
        let stream = [(0.0, 0.0, plan)];
        let event = |time, node| AvailabilityEvent {
            time,
            node: NodeIndex(node),
            up: false,
        };
        for faults in [
            vec![event(1.0, 0), event(0.5, 1)],
            vec![event(f64::NAN, 0)],
            vec![event(-1.0, 0)],
            vec![event(1.0, 99)],
        ] {
            let mut scratch = SimScratch::new();
            assert!(simulate_admitted_stream_faulty_in(
                &mut scratch,
                &stream,
                &cluster,
                &faults,
                TraceDetail::Summary
            )
            .is_err());
        }
    }

    #[test]
    fn stale_heap_entries_are_requeued_not_dropped() {
        // d1 finishes before d2, so "late" becomes ready (and is pushed)
        // while its processor is still occupied by "early"; the heap entry
        // goes stale when "early" commits and must be re-queued, not run at
        // its original key.
        let cluster = presets::paper_cluster();
        let mut plan = ExecutionPlan::new();
        let d1 = plan.add_compute("d1", addr(0, 0), 100_000_000, 1.0, &[]);
        plan.add_compute("early", addr(0, 1), 2_000_000_000, 1.0, &[]);
        plan.add_compute("late", addr(0, 1), 1_000_000_000, 1.0, &[d1]);
        let report = simulate(&plan, &cluster).unwrap();
        let early = report.records.iter().find(|r| r.name == "early").unwrap();
        let late = report.records.iter().find(|r| r.name == "late").unwrap();
        assert_eq!(late.start, early.finish);
    }
}
