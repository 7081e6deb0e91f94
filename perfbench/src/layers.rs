//! Per-layer replays for the traced run.
//!
//! Each layer is timed from outside, by calling its public entry point with
//! the call sequence a pass makes: warm [`PlanCache::plan_keyed`] lookups
//! in admission order, latency-sketch observations over the pass's latency
//! sequence, the event engine over the admitted stream, and the fleet
//! barrier with no-op bodies.

use crate::workload::LEADER;
use crate::{allocations_on_this_thread, median};
use hidp_core::{
    DistributedStrategy, ParallelSweep, PlanCache, PlanKey, ServingEvaluation, ServingScenario,
    ServingScratch,
};
use hidp_dnn::zoo::WorkloadModel;
use hidp_dnn::DnnGraph;
use hidp_platform::Cluster;
use hidp_sim::{
    simulate_admitted_stream_in, ExecutionPlan, LatencyHistogram, ServingMetrics, SimScratch,
    StreamingTail, TraceDetail,
};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Timing repetitions of each replay; the median is reported.
const REPS: usize = 5;

/// Median wall seconds of `REPS` runs of `f`.
fn time_median(mut f: impl FnMut() -> Result<(), String>) -> Result<f64, String> {
    let mut seconds = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let start = Instant::now();
        f()?;
        seconds.push(start.elapsed().as_secs_f64());
    }
    Ok(median(&seconds))
}

/// A records-mode pass kept for replay: its admission log, the plan cache
/// it warmed, and the per-epoch clusters its keys were planned against.
pub struct AdmissionLog {
    evaluation: ServingEvaluation,
    cache: PlanCache,
    /// `(graph, epoch)` of every lookup, in admission order.
    lookups: Vec<(Arc<DnnGraph>, usize)>,
    /// The cluster of each timeline epoch (index 0 is the base cluster).
    epochs: Vec<Cluster>,
    /// `(latency, queueing delay, SLA priority)` per served request, in
    /// observation order (admission order, batch members in order).
    samples: Vec<(f64, f64, usize)>,
}

impl AdmissionLog {
    /// Runs `scenario` once in records mode against a fresh plan cache and
    /// keeps everything the replays need.
    ///
    /// # Errors
    ///
    /// Propagates planning, simulation and timeline errors.
    pub fn record(
        scenario: &ServingScenario,
        cluster: &Cluster,
        strategy: &dyn DistributedStrategy,
    ) -> Result<Self, String> {
        let cache = PlanCache::new();
        let evaluation = scenario
            .run_with_cache_in(
                strategy,
                cluster,
                LEADER,
                &cache,
                &mut ServingScratch::new(),
            )
            .map_err(|e| e.to_string())?;

        let mut epochs = vec![cluster.clone()];
        for event in scenario.config().timeline.events() {
            let mut next = epochs[epochs.len() - 1].clone();
            next.set_available(event.node, event.up)
                .map_err(|e| e.to_string())?;
            epochs.push(next);
        }

        let requests = scenario.requests();
        let mut graphs: HashMap<(WorkloadModel, usize), Arc<DnnGraph>> = HashMap::new();
        let mut lookups = Vec::with_capacity(evaluation.admissions.len());
        let mut samples = Vec::with_capacity(requests.len());
        for batch in &evaluation.admissions {
            let head = &requests[batch.members[0]];
            let combined = head.batch * batch.members.len();
            let graph = graphs
                .entry((head.model, combined))
                .or_insert_with(|| Arc::new(head.model.graph(combined)));
            lookups.push((Arc::clone(graph), batch.epoch));
            for &m in &batch.members {
                let record = &evaluation.records[m];
                samples.push((
                    record.completion - record.arrival,
                    record.admitted - record.arrival,
                    requests[m].sla.priority() as usize,
                ));
            }
        }
        Ok(Self {
            evaluation,
            cache,
            lookups,
            epochs,
            samples,
        })
    }

    /// Requests the log covers.
    pub fn requests(&self) -> usize {
        self.samples.len()
    }

    /// Runs `f(plan, hit)` over the log's lookups, replayed through the warm
    /// cache exactly as the serving loop probes it: one hoisted key whose
    /// graph and cluster fields change per admission.
    fn replay_lookups(
        &self,
        strategy: &dyn DistributedStrategy,
        mut f: impl FnMut(Arc<ExecutionPlan>, bool),
    ) -> Result<(), String> {
        let fingerprints: Vec<u64> = self.epochs.iter().map(Cluster::fingerprint).collect();
        let mut key = PlanKey::for_run(strategy, &self.epochs[0], LEADER);
        for (graph, epoch) in &self.lookups {
            key.graph_fingerprint = graph.fingerprint();
            key.batch = graph.input_shape().batch();
            key.cluster_fingerprint = fingerprints[*epoch];
            let (plan, hit) = self
                .cache
                .plan_keyed(&key, strategy, graph, &self.epochs[*epoch], LEADER)
                .map_err(|e| e.to_string())?;
            f(plan, hit);
        }
        Ok(())
    }

    /// Nanoseconds per warm plan-cache lookup (graph fingerprint read, key
    /// update and `plan_keyed` hit) over the log's lookup sequence.
    ///
    /// # Errors
    ///
    /// Fails when a replayed lookup misses: the replay must be warm.
    pub fn lookup_ns(&self, strategy: &dyn DistributedStrategy) -> Result<f64, String> {
        let mut misses = 0usize;
        let seconds = time_median(|| {
            self.replay_lookups(strategy, |plan, hit| {
                misses += usize::from(!hit);
                black_box(plan);
            })
        })?;
        if misses > 0 {
            return Err(format!("{misses} replayed plan-cache lookups missed"));
        }
        Ok(seconds * 1e9 / self.lookups.len().max(1) as f64)
    }

    /// Nanoseconds per request of the streaming serving loop's observation:
    /// latency, queueing and per-class P² tails (`StreamingTail`).
    pub fn streaming_observe_ns(&self) -> f64 {
        let seconds = time_median(|| {
            let mut latency = StreamingTail::new();
            let mut queueing = StreamingTail::new();
            let mut class = [StreamingTail::new(); 3];
            for &(l, d, c) in &self.samples {
                latency.observe(l);
                queueing.observe(d);
                class[c].observe(l);
            }
            black_box((latency, queueing, class));
            Ok(())
        })
        .expect("observation cannot fail");
        seconds * 1e9 / self.samples.len().max(1) as f64
    }

    /// Nanoseconds per request of the fleet loop's observation: latency and
    /// per-class `LatencyHistogram`s.
    pub fn histogram_observe_ns(&self) -> f64 {
        let mut latency = LatencyHistogram::new();
        let mut class = [
            LatencyHistogram::new(),
            LatencyHistogram::new(),
            LatencyHistogram::new(),
        ];
        let seconds = time_median(|| {
            for &(l, _, c) in &self.samples {
                latency.observe(l);
                class[c].observe(l);
            }
            black_box((&latency, &class));
            Ok(())
        })
        .expect("observation cannot fail");
        seconds * 1e9 / self.samples.len().max(1) as f64
    }

    /// The event engine over the logged admitted stream: `(tasks, ns per
    /// task)`. The replay must reproduce the pass's makespan bit for bit.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors and reports a makespan mismatch.
    pub fn engine(
        &self,
        strategy: &dyn DistributedStrategy,
        cluster: &Cluster,
    ) -> Result<(usize, f64), String> {
        let requests = &self.evaluation.records;
        let mut plans = Vec::with_capacity(self.lookups.len());
        self.replay_lookups(strategy, |plan, _| plans.push(plan))?;
        let stream: Vec<(f64, f64, Arc<ExecutionPlan>)> = self
            .evaluation
            .admissions
            .iter()
            .zip(plans)
            .map(|(batch, plan)| (requests[batch.members[0]].arrival, batch.admitted, plan))
            .collect();
        let tasks: usize = stream.iter().map(|(_, _, plan)| plan.len()).sum();
        let mut scratch = SimScratch::new();
        let mut makespan = 0.0;
        let seconds = time_median(|| {
            let report =
                simulate_admitted_stream_in(&mut scratch, &stream, cluster, TraceDetail::Summary)
                    .map_err(|e| e.to_string())?;
            makespan = report.makespan;
            Ok(())
        })?;
        if makespan != self.evaluation.evaluation.makespan {
            return Err(format!(
                "engine replay makespan {makespan} differs from the pass's {}",
                self.evaluation.evaluation.makespan
            ));
        }
        Ok((tasks, seconds * 1e9 / tasks.max(1) as f64))
    }

    /// Nanoseconds per request of `ServingMetrics::from_records` over the
    /// logged records.
    pub fn records_ns(&self) -> f64 {
        let records = &self.evaluation.records;
        let seconds = time_median(|| {
            black_box(ServingMetrics::from_records(records));
            Ok(())
        })
        .expect("metrics cannot fail");
        seconds * 1e9 / records.len().max(1) as f64
    }
}

/// The fleet barrier alone: `rounds` calls of `ParallelSweep::run_mut` over
/// `items` slots with no-op bodies at `threads` workers. Returns
/// `(µs per round, driving-thread allocations per round)`.
pub fn barrier(rounds: usize, items: usize, threads: usize) -> (f64, f64) {
    let sweep = ParallelSweep::new(threads);
    let mut slots = vec![0u64; items];
    let rounds = rounds.max(1);
    let allocs_before = allocations_on_this_thread();
    let start = Instant::now();
    for _ in 0..rounds {
        sweep.run_mut(&mut slots, |i, slot| {
            *slot = black_box(i as u64);
        });
    }
    let seconds = start.elapsed().as_secs_f64();
    let allocs = allocations_on_this_thread() - allocs_before;
    (seconds * 1e6 / rounds as f64, allocs as f64 / rounds as f64)
}
