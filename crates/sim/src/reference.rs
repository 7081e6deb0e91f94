//! The pre-event-engine O(n²) list scheduler, kept verbatim as a frozen
//! baseline.
//!
//! This is the original implementation of [`crate::simulate_stream`]: every
//! scheduling step rescans all pending tasks and re-resolves dependency
//! finish times through a `HashMap<(usize, TaskId), f64>`. It exists only as
//! the oracle of the old-vs-new equivalence property tests
//! (`tests/engine_equivalence.rs`). New code should call
//! [`crate::simulate_stream`].

use crate::engine::{SimReport, TaskRecord};
use crate::plan::{ExecutionPlan, PlanTask, Resource, TaskId};
use crate::SimError;
use hidp_platform::{Cluster, EnergyMeter, ProcessorAddr};
use std::borrow::Borrow;
use std::collections::HashMap;

/// Simulates a stream of requests with the original earliest-start
/// list-scheduling loop. Produces the same report as
/// [`crate::simulate_stream`], in O(n²). Plans are taken by [`Borrow`] like
/// the event engine's, so both accept the same streams, and task costs come
/// from the same [`PlanTask::cost`]; the scheduling loop itself is
/// unchanged.
///
/// # Errors
///
/// Returns an error when any plan is invalid, arrival times are not finite
/// and non-negative, or a plan references unknown processors/nodes.
pub fn simulate_stream_reference<Pl: Borrow<ExecutionPlan>>(
    requests: &[(f64, Pl)],
    cluster: &Cluster,
) -> Result<SimReport, SimError> {
    if requests.is_empty() {
        return Err(SimError::InvalidPlan {
            what: "no requests to simulate".into(),
        });
    }
    struct Pending<'a> {
        request: usize,
        arrival: f64,
        task: &'a PlanTask,
        duration: f64,
        resource: Option<Resource>,
        processor: Option<ProcessorAddr>,
        flops: u64,
        bytes: u64,
    }

    let mut pending: Vec<Pending<'_>> = Vec::new();
    for (req_idx, (arrival, plan)) in requests.iter().enumerate() {
        if !(arrival.is_finite() && *arrival >= 0.0) {
            return Err(SimError::InvalidPlan {
                what: format!("request {req_idx} has invalid arrival time {arrival}"),
            });
        }
        let plan = plan.borrow();
        plan.validate()?;
        for task in plan.tasks() {
            let cost = task.cost(cluster, plan.batch())?;
            let (flops, bytes) = task.work();
            pending.push(Pending {
                request: req_idx,
                arrival: *arrival,
                task,
                duration: cost.duration,
                resource: cost.resource,
                processor: cost.processor,
                flops,
                bytes,
            });
        }
    }

    // finish[(request, task)] = finish time.
    let mut finish: HashMap<(usize, TaskId), f64> = HashMap::new();
    let mut resource_free: HashMap<Resource, f64> = HashMap::new();
    let mut done = vec![false; pending.len()];
    let mut records: Vec<TaskRecord> = Vec::with_capacity(pending.len());
    let mut meter = EnergyMeter::new();

    for _ in 0..pending.len() {
        // Find the ready task with the earliest feasible start time.
        let mut best: Option<(usize, f64)> = None;
        for (i, p) in pending.iter().enumerate() {
            if done[i] {
                continue;
            }
            let deps_ready = p
                .task
                .deps
                .iter()
                .all(|d| finish.contains_key(&(p.request, *d)));
            if !deps_ready {
                continue;
            }
            let deps_finish = p
                .task
                .deps
                .iter()
                .map(|d| finish[&(p.request, *d)])
                .fold(0.0f64, f64::max);
            let resource_ready = p
                .resource
                .map(|r| resource_free.get(&r).copied().unwrap_or(0.0))
                .unwrap_or(0.0);
            let start = p.arrival.max(deps_finish).max(resource_ready);
            let better = match best {
                None => true,
                Some((_, s)) => start < s - 1e-15,
            };
            if better {
                best = Some((i, start));
            }
        }
        let (idx, start) = best.ok_or_else(|| SimError::InvalidPlan {
            what: "dependency deadlock: no ready task found".into(),
        })?;
        let p = &pending[idx];
        let end = start + p.duration;
        finish.insert((p.request, p.task.id), end);
        if let Some(r) = p.resource {
            resource_free.insert(r, end);
        }
        if let Some(addr) = p.processor {
            meter.record_busy(addr, p.duration)?;
        }
        records.push(TaskRecord {
            task: p.task.id,
            request: p.request,
            name: p.task.name.clone(),
            start,
            finish: end,
            flops: p.flops,
            bytes: p.bytes,
            processor: p.processor,
        });
        done[idx] = true;
    }

    records.sort_by(|a, b| a.start.partial_cmp(&b.start).expect("times are finite"));
    let mut request_completion = vec![0.0f64; requests.len()];
    for ((request, _), end) in &finish {
        if *end > request_completion[*request] {
            request_completion[*request] = *end;
        }
    }
    let makespan = request_completion.iter().copied().fold(0.0, f64::max);
    let request_arrival = requests.iter().map(|(a, _)| *a).collect();

    Ok(SimReport {
        records,
        request_completion,
        request_arrival,
        meter,
        makespan,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate_stream;
    use hidp_platform::{presets, NodeIndex, ProcessorIndex};

    fn addr(node: usize, proc: usize) -> ProcessorAddr {
        ProcessorAddr {
            node: NodeIndex(node),
            processor: ProcessorIndex(proc),
        }
    }

    #[test]
    fn reference_matches_event_engine_on_a_mixed_stream() {
        let cluster = presets::paper_cluster();
        let mut plan = ExecutionPlan::new();
        let a = plan.add_compute("a", addr(0, 1), 900_000_000, 1.0, &[]);
        let t = plan.add_transfer("t", NodeIndex(0), NodeIndex(2), 4_000_000, &[a]);
        plan.add_compute("b", addr(2, 1), 700_000_000, 0.8, &[t]);
        let requests: Vec<(f64, ExecutionPlan)> =
            (0..6).map(|i| (i as f64 * 0.01, plan.clone())).collect();
        let reference = simulate_stream_reference(&requests, &cluster).unwrap();
        let event = simulate_stream(&requests, &cluster).unwrap();
        assert_eq!(reference.records, event.records);
        assert_eq!(reference.request_completion, event.request_completion);
        assert_eq!(reference.makespan, event.makespan);
        assert_eq!(reference.meter, event.meter);
    }

    #[test]
    fn reference_rejects_invalid_input_like_the_event_engine() {
        let cluster = presets::paper_cluster();
        assert!(simulate_stream_reference(&[] as &[(f64, ExecutionPlan)], &cluster).is_err());
        let mut plan = ExecutionPlan::new();
        plan.add_compute("a", addr(9, 0), 1, 1.0, &[]);
        assert!(simulate_stream_reference(&[(0.0, plan)], &cluster).is_err());
    }
}
