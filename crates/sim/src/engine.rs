//! The discrete-event cluster simulator.
//!
//! Resources are (a) every processor in the cluster and (b) the wireless
//! link between every pair of distinct nodes. Tasks are scheduled with a
//! deterministic earliest-start policy: among all tasks whose dependencies
//! have finished, the one that can start first (ties broken by submission
//! order) is placed on its resource. Per-resource execution is FIFO,
//! matching the run-queue behaviour of the real middleware. A task's
//! duration and resource come from [`CompiledPlan::compile`],
//! the one compiler the serving tier's dispatch estimator also runs;
//! [`crate::reference`] costs each task with
//! [`PlanTask::cost`](crate::PlanTask::cost) directly, so it checks the
//! compile step too.
//!
//! The engine is event-driven. A pre-pass compiles each distinct plan of
//! the stream once into a [`CompiledPlan`] (durations, dense resource ids,
//! dependency and successor lists) and appends, per task, a
//! reference into that table plus an indegree count and a ready time. The
//! run loop then pops a binary heap of ready tasks keyed by feasible start
//! time, tracks per-resource free and busy times in flat `Vec`s, and
//! decrements successor indegrees on completion — O(n log n) with no
//! rescans. The work that does not scale with the in-flight tasks is paid
//! once per plan or once per run:
//!
//! * a plan is validated, costed and interned the first time its address
//!   appears in the stream; every repeat (a shared `Arc` or `&`) reuses the
//!   compiled plan, so hashing happens per distinct plan, not per admitted
//!   request;
//! * request roots enter the ready heap lazily, in release order, just
//!   before the heap minimum reaches them, so the heap holds released work
//!   only;
//! * busy time accumulates per interned processor in a `Vec` and flushes
//!   into the [`EnergyMeter`] once per processor at the end of the run.
//!
//! The original O(n²) list-scheduling implementation is preserved in
//! [`crate::reference`] and property-tested to produce identical schedules.
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

use crate::plan::{CompiledPlan, ExecutionPlan, Label, Resource, TaskId};
use crate::SimError;
use hidp_platform::{Cluster, EnergyMeter, ProcessorAddr};
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

/// One task of a run: the request it serves and its place in that
/// request's compiled plan.
#[derive(Debug, Clone, Copy)]
struct TaskRef {
    request: usize,
    plan: u32,
    local: u32,
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

/// Reusable working memory for [`simulate_stream_in`]: the compiled plans
/// and their address memo, the per-task references into them with
/// indegree counts and ready times, the release order the ready heap is
/// seeded in, the ready heap, per-resource free and busy times *and* the
/// output [`SimReport`]'s buffers.
///
/// Create one per worker thread (it is cheap when empty) and pass it to
/// every simulation that thread runs: after the first run of a given stream
/// shape, subsequent runs perform **zero heap allocations** — every buffer
/// is cleared and refilled in place, and with plans shared via `Arc` and
/// labels interned there is nothing left to copy. `tests/
/// zero_alloc_warm_path.rs` asserts this with a counting allocator.
///
/// [`simulate_stream`] is the one-shot wrapper: it builds a fresh scratch,
/// runs once and moves the report out — bit-identical output, allocation
/// cost proportional to the stream.
#[derive(Debug, Default)]
pub struct SimScratch {
    resources: HashMap<Resource, u32>,
    /// Plan address → index in `plans` of the plan's compiled form.
    memo: HashMap<usize, u32>,
    /// Compiled plans: the first `compiled` are this run's, the rest keep
    /// their buffers for later runs.
    plans: Vec<CompiledPlan>,
    compiled: usize,
    tasks: Vec<TaskRef>,
    /// ready_time[i]: max(arrival, finish of every completed dependency).
    ready_time: Vec<f64>,
    /// indegree[i]: dependencies of task i not yet finished.
    indegree: Vec<u32>,
    /// Per-request index of its first task: task `k` of request `r` is
    /// `request_base[r] + k`.
    request_base: Vec<usize>,
    /// Request indices in (release, index) order: the lazy seeding order.
    order: Vec<usize>,
    resource_free: Vec<f64>,
    /// busy[r]: committed busy seconds of interned processor resource `r`
    /// (`None` until its first commit), flushed into the meter at the end.
    busy: Vec<Option<f64>>,
    heap: BinaryHeap<Reverse<ReadyTask>>,
    report: SimReport,
}

impl SimScratch {
    /// Creates an empty scratch (no buffers are allocated until first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears every buffer, keeping capacity.
    fn reset(&mut self, total_tasks: usize, request_count: usize) {
        self.resources.clear();
        self.memo.clear();
        self.compiled = 0;
        self.tasks.clear();
        self.tasks.reserve(total_tasks);
        self.ready_time.clear();
        self.ready_time.reserve(total_tasks);
        self.indegree.clear();
        self.indegree.reserve(total_tasks);
        self.request_base.clear();
        self.request_base.reserve(request_count);
        self.order.clear();
        self.heap.clear();
        self.report.records.clear();
        self.report.request_completion.clear();
        self.report.request_arrival.clear();
        self.report.meter.reset();
        self.report.makespan = 0.0;
    }

    /// The index in `plans` of `plan`'s compiled form, compiling it on the
    /// first appearance of its address this run. The stream is borrowed
    /// for the whole run, so entries whose plans share an address share
    /// the plan (one `Arc`, one `&`).
    fn plan_index(&mut self, plan: &ExecutionPlan, cluster: &Cluster) -> Result<u32, SimError> {
        let key = std::ptr::from_ref(plan) as usize;
        if let Some(&p) = self.memo.get(&key) {
            return Ok(p);
        }
        if self.compiled == self.plans.len() {
            self.plans.push(CompiledPlan::default());
        }
        self.plans[self.compiled].compile(plan, cluster, &mut self.resources)?;
        let p = self.compiled as u32;
        self.compiled += 1;
        self.memo.insert(key, p);
        Ok(p)
    }

    /// The engine proper: validates, compiles, simulates, and leaves the
    /// result in `self.report`.
    fn run<E: StreamEntry>(
        &mut self,
        requests: &[E],
        cluster: &Cluster,
        detail: TraceDetail,
    ) -> Result<(), SimError> {
        if requests.is_empty() {
            return Err(SimError::InvalidPlan {
                what: "no requests to simulate".into(),
            });
        }

        // --- Pre-pass: validate, compile plans, lay out tasks. -------------
        let total: usize = requests.iter().map(|e| e.plan().len()).sum();
        self.reset(total, requests.len());

        let mut in_order = true;
        let mut last_release = 0.0f64;
        for (req_idx, entry) in requests.iter().enumerate() {
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
            in_order &= release >= last_release;
            last_release = release;
            self.request_base.push(self.tasks.len());
            let p = self.plan_index(entry.plan(), cluster)?;
            let compiled = &self.plans[p as usize];
            let len = compiled.tasks().len();
            self.tasks.extend((0..len as u32).map(|local| TaskRef {
                request: req_idx,
                plan: p,
                local,
            }));
            self.indegree.extend(
                compiled
                    .tasks()
                    .iter()
                    .map(|t| compiled.deps(t).len() as u32),
            );
            self.ready_time.extend(std::iter::repeat_n(release, len));
        }
        // Requests in (release, index) order: the order their roots enter
        // the ready heap.
        self.order.extend(0..requests.len());
        if !in_order {
            let (order, ready_time, request_base) =
                (&mut self.order, &self.ready_time, &self.request_base);
            order.sort_unstable_by(|&a, &b| {
                ready_time[request_base[a]]
                    .total_cmp(&ready_time[request_base[b]])
                    .then(a.cmp(&b))
            });
        }

        // --- Event loop. --------------------------------------------------
        let n = self.tasks.len();
        let Self {
            resources,
            plans,
            tasks,
            ready_time,
            indegree,
            request_base,
            order,
            heap,
            resource_free,
            busy,
            report,
            ..
        } = self;
        resource_free.clear();
        resource_free.resize(resources.len(), 0.0);
        busy.clear();
        busy.resize(resources.len(), None);
        report.request_completion.resize(requests.len(), 0.0);
        if detail == TraceDetail::Full {
            report.records.reserve(n);
        }
        // Heap keys are lower bounds on feasible start: exact once every
        // dependency is finished, except that the resource may become busier
        // after the push — corrected lazily on pop.
        //
        // Roots are seeded lazily, request by request in (release, index)
        // order: before each pop, every unseeded request released at or
        // before the heap minimum (or, on an empty heap, the next request)
        // pushes its roots. Keys `(start, seq)` are distinct, so the pop
        // order depends only on the set of entries, and every root still
        // unseeded has a key above the minimum — the schedule is exactly the
        // one an eagerly seeded heap produces, while the heap holds only
        // released work.
        let mut seeded = 0usize;
        let mut committed = 0usize;
        loop {
            while let Some(&r) = order.get(seeded) {
                let base = request_base[r];
                // Task 0 of every plan is a root (dependencies precede their
                // dependents), so its ready time is the request's release.
                let release = ready_time[base];
                if heap.peek().is_some_and(|top| release > top.0.start) {
                    break;
                }
                seeded += 1;
                let end = request_base.get(r + 1).copied().unwrap_or(n);
                for i in base..end {
                    if indegree[i] == 0 {
                        heap.push(Reverse(ReadyTask {
                            start: ready_time[i],
                            seq: i,
                        }));
                    }
                }
            }
            let Some(Reverse(entry)) = heap.pop() else {
                break;
            };
            let i = entry.seq;
            let t = tasks[i];
            let plan = &plans[t.plan as usize];
            let task = &plan.tasks()[t.local as usize];
            if let Some(r) = task.resource {
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
            let end = start + task.duration;
            if let Some(r) = task.resource {
                resource_free[r as usize] = end;
                if let Some(addr) = task.processor {
                    // The meter's own check, per commit, so an invalid
                    // duration fails exactly where it always has; the
                    // per-processor sums flush into the meter at the end.
                    if task.duration < 0.0 || !task.duration.is_finite() {
                        report.meter.record_busy(addr, task.duration)?;
                    }
                    let slot = &mut busy[r as usize];
                    *slot = Some(slot.unwrap_or(0.0) + task.duration);
                }
            }
            if end > report.request_completion[t.request] {
                report.request_completion[t.request] = end;
            }
            // Commits happen in non-decreasing start order (every remaining
            // heap key and every future push is ≥ the popped key), so
            // `records` ends up sorted by start with submission-order ties —
            // the same order the reference engine produces.
            if detail == TraceDetail::Full {
                let source = &requests[t.request].plan().tasks()[t.local as usize];
                let (flops, bytes) = source.work();
                report.records.push(TaskRecord {
                    task: source.id,
                    request: t.request,
                    name: source.name.clone(),
                    start,
                    finish: end,
                    flops,
                    bytes,
                    processor: task.processor,
                });
            }
            committed += 1;
            let base = request_base[t.request];
            for &local in plan.successors(task) {
                let s = base + local as usize;
                if end > ready_time[s] {
                    ready_time[s] = end;
                }
                indegree[s] -= 1;
                if indegree[s] == 0 {
                    let start = match plan.tasks()[local as usize].resource {
                        Some(r) => ready_time[s].max(resource_free[r as usize]),
                        None => ready_time[s],
                    };
                    heap.push(Reverse(ReadyTask { start, seq: s }));
                }
            }
        }
        if committed != n {
            return Err(SimError::InvalidPlan {
                what: "dependency deadlock: no ready task found".into(),
            });
        }

        // Each processor's busy time summed from 0.0 in commit order — the
        // same additions the meter's map would have made per commit.
        for (resource, &r) in resources.iter() {
            if let (Resource::Processor(addr), Some(seconds)) = (resource, busy[r as usize]) {
                report.meter.record_busy(*addr, seconds)?;
            }
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
    scratch.run(requests, cluster, detail)?;
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
    scratch.run(requests, cluster, detail)?;
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
    scratch.run(requests, cluster, detail)?;
    Ok(&scratch.report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hidp_platform::{presets, NodeIndex, ProcessorIndex};

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
    fn shared_plans_with_unsorted_tied_releases_match_deep_clones() {
        // Two Arc plans shared across an admitted stream whose releases are
        // out of order and tie exactly: the compiled-plan memo and the lazy root
        // seeding must give the same report as the stream with every plan
        // deep-cloned.
        let cluster = presets::paper_cluster();
        let mut chain = ExecutionPlan::new();
        let a = chain.add_compute("a", addr(0, 1), 900_000_000, 1.0, &[]);
        let t = chain.add_transfer("t", NodeIndex(0), NodeIndex(2), 4_000_000, &[a]);
        chain.add_compute("b", addr(2, 1), 700_000_000, 0.8, &[t]);
        let mut fork = ExecutionPlan::new();
        let r = fork.add_compute("r", addr(2, 1), 300_000_000, 1.0, &[]);
        fork.add_compute("x", addr(1, 2), 500_000_000, 1.0, &[r]);
        fork.add_compute("y", addr(0, 0), 200_000_000, 1.0, &[r]);
        let plans = [std::sync::Arc::new(chain), std::sync::Arc::new(fork)];
        let releases = [0.5, 0.0, 0.25, 0.5, 0.0, 0.75, 0.25, 0.5];
        let shared: Vec<(f64, f64, std::sync::Arc<ExecutionPlan>)> = releases
            .iter()
            .enumerate()
            .map(|(i, &t)| (0.0, t, std::sync::Arc::clone(&plans[i % 2])))
            .collect();
        let owned: Vec<(f64, f64, ExecutionPlan)> = shared
            .iter()
            .map(|(arrival, release, plan)| (*arrival, *release, ExecutionPlan::clone(plan)))
            .collect();

        let mut scratch = SimScratch::new();
        let from_shared =
            simulate_admitted_stream_in(&mut scratch, &shared, &cluster, TraceDetail::Full)
                .unwrap()
                .clone();
        let from_owned =
            simulate_admitted_stream_in(&mut scratch, &owned, &cluster, TraceDetail::Full).unwrap();
        assert_eq!(from_shared, *from_owned);
        assert_eq!(from_shared.records.len(), 24);
        // Ties at 0.0 commit in request order: request 1 before request 4.
        let first: Vec<usize> = from_shared.records[..2].iter().map(|r| r.request).collect();
        assert_eq!(first, vec![1, 4]);
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
