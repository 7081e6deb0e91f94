//! The dynamic-programming partitioning search (paper Algorithm 1, lines
//! 4–6 and 8–10).
//!
//! The same routine is used at both hierarchy levels because the arguments
//! are the same in either case: a chain of candidate segments (derived from
//! the DNN's cut points) and a vector of resources with computation and
//! communication rates (nodes with `Ψ{Λ, β}` globally, processors with
//! `ψ{λ, μ}` locally).
//!
//! * [`model_partition_search`] splits the chain into at most `m` contiguous
//!   blocks, assigns each block to a distinct resource (fastest resources
//!   first, mirroring the paper's "largest possible block sizes following the
//!   resource heterogeneity") and minimises the end-to-end latency of one
//!   request, including inter-block activation transfers and the final
//!   result return.
//! * [`data_partition_search`] explores the number of parallel sub-models
//!   `σ` and assigns input fractions proportional to resource rates,
//!   minimising the slowest part (plus synchronisation overhead).
//!
//! # Allocation-free planning
//!
//! Cold planning sits on the per-request hot path (tens to hundreds of µs
//! each; perfbench's `plan.us_p50` and `plan.us_p90` layers measure it), so
//! the searches keep **no per-call allocations**: all tables — the
//! flattened DP cost/choice matrices, the rate-order permutation and the
//! flops prefix sums — live in a [`PlannerScratch`] that is reused across
//! calls. The public entry points
//! borrow a per-thread scratch (a `thread_local!`), so concurrent planners
//! in a [`crate::ParallelSweep`] never contend on scratch memory; callers
//! that want explicit control can pass their own via the `_in` variants.
//! Results are bit-identical to the original nested-`Vec` implementation.

use crate::system_model::Resource;
use crate::CoreError;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;

/// One segment of the layer chain (the span between two consecutive cut
/// points). Blocks are unions of consecutive segments.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChainSegment {
    /// Flops of the segment.
    pub flops: u64,
    /// Bytes of the activation tensor crossing the segment's trailing
    /// boundary (what a pipeline would transfer if it cut here).
    pub boundary_bytes: u64,
}

/// Result of the model-partitioning search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelSearch {
    /// For each block, the index of the last segment it contains.
    pub block_ends: Vec<usize>,
    /// For each block, the index (into the resource slice) it is assigned to.
    pub assignments: Vec<usize>,
    /// Estimated end-to-end latency in seconds.
    pub latency: f64,
}

impl ModelSearch {
    /// Number of blocks chosen.
    pub fn block_count(&self) -> usize {
        self.block_ends.len()
    }
}

/// One parallel share of the data-partitioning search.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DataShare {
    /// Index into the resource slice.
    pub resource: usize,
    /// Fraction of the input assigned to the resource (0, 1].
    pub fraction: f64,
}

/// Result of the data-partitioning search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DataSearch {
    /// The parallel shares (one per participating resource).
    pub shares: Vec<DataShare>,
    /// Estimated end-to-end latency in seconds.
    pub latency: f64,
}

impl DataSearch {
    /// Number of parallel sub-models (`σ`).
    pub fn parallelism(&self) -> usize {
        self.shares.len()
    }
}

/// Total input bytes, output bytes and flops of the workload being searched.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSummary {
    /// Bytes of the tensor entering the workload.
    pub input_bytes: u64,
    /// Bytes of the tensor leaving the workload (returned to the coordinator).
    pub output_bytes: u64,
    /// Total flops.
    pub flops: u64,
    /// Bytes exchanged between neighbouring parts per synchronisation
    /// boundary when the workload is data-partitioned (halo traffic).
    pub sync_bytes: u64,
}

/// Reusable working memory for the DP searches: the flattened cost/choice
/// tables, the resource-order permutation, the flops prefix sums and the
/// per-row running minima. Buffers grow to the largest problem seen and are
/// then reused, so steady-state planning allocates nothing.
///
/// The zero-argument entry points ([`model_partition_search`],
/// [`data_partition_search`]) borrow a per-thread instance; construct one
/// explicitly only to control scratch lifetime yourself (e.g. to keep a
/// dedicated scratch per pinned worker).
#[derive(Debug, Default)]
pub struct PlannerScratch {
    /// Resource indices sorted by descending rate.
    order: Vec<usize>,
    /// `prefix_flops[i]` = total flops of segments `0..i` (length n+1).
    prefix_flops: Vec<u64>,
    /// Flattened `(n+1) × (m+1)` DP cost table, row-major by segment count.
    dp: Vec<f64>,
    /// Flattened choice table; `usize::MAX` marks "no feasible split".
    choice: Vec<usize>,
    /// `min_prev[k]` = min over `jp < j` of `dp[k][jp]`, maintained
    /// incrementally as `j` advances.
    min_prev: Vec<f64>,
}

impl PlannerScratch {
    /// Creates an empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

thread_local! {
    /// Per-thread scratch behind the zero-argument entry points. Planning
    /// never recurses into itself, so the `RefCell` borrow is never
    /// re-entered.
    static SCRATCH: RefCell<PlannerScratch> = RefCell::new(PlannerScratch::new());
}

fn sorted_by_rate_into(order: &mut Vec<usize>, resources: &[Resource]) {
    order.clear();
    order.extend(0..resources.len());
    order.sort_by(|a, b| {
        resources[*b]
            .rate
            .partial_cmp(&resources[*a].rate)
            .expect("rates are finite")
    });
}

/// Splits a chain of segments into at most `resources.len()` contiguous
/// blocks and assigns them to resources, minimising single-request latency.
///
/// The search runs in `O(n² · m)` for `n` segments and `m` resources; with
/// the block-level cut points of the zoo models and a five-node cluster this
/// is a few hundred thousand table updates (the ~15 ms overhead the paper
/// reports). Scratch memory comes from the calling thread's
/// [`PlannerScratch`].
///
/// # Errors
///
/// Returns [`CoreError::Infeasible`] when `segments` or `resources` is empty
/// or any resource has a non-positive rate.
pub fn model_partition_search(
    segments: &[ChainSegment],
    resources: &[Resource],
    workload: WorkloadSummary,
) -> Result<ModelSearch, CoreError> {
    SCRATCH.with(|s| model_partition_search_in(&mut s.borrow_mut(), segments, resources, workload))
}

/// [`model_partition_search`] against a caller-owned [`PlannerScratch`].
///
/// # Errors
///
/// Returns [`CoreError::Infeasible`] when `segments` or `resources` is empty
/// or any resource has a non-positive rate.
pub fn model_partition_search_in(
    scratch: &mut PlannerScratch,
    segments: &[ChainSegment],
    resources: &[Resource],
    workload: WorkloadSummary,
) -> Result<ModelSearch, CoreError> {
    if segments.is_empty() {
        return Err(CoreError::Infeasible {
            what: "model partition search needs at least one segment".into(),
        });
    }
    if resources.is_empty() {
        return Err(CoreError::Infeasible {
            what: "model partition search needs at least one resource".into(),
        });
    }
    if resources.iter().any(|r| r.rate <= 0.0 || r.rate.is_nan()) {
        return Err(CoreError::Infeasible {
            what: "all resources must have a positive computation rate".into(),
        });
    }

    sorted_by_rate_into(&mut scratch.order, resources);
    let n = segments.len();
    let m = resources.len();
    let stride = m + 1;

    // Prefix sums of flops so block flops are O(1).
    scratch.prefix_flops.clear();
    scratch.prefix_flops.reserve(n + 1);
    scratch.prefix_flops.push(0);
    let mut acc = 0u64;
    for seg in segments {
        acc += seg.flops;
        scratch.prefix_flops.push(acc);
    }
    let prefix_flops = &scratch.prefix_flops;
    let block_flops = |first: usize, last: usize| prefix_flops[last + 1] - prefix_flops[first];

    // dp[i·stride + j]: minimal latency to finish segments 0..i using only
    // the first j resources in `order`, where the block ending at segment
    // i-1 ran on resource order[j-1]. Infeasible cells hold f64::INFINITY;
    // choice holds usize::MAX there. The tables are flat reusable buffers —
    // no per-call Vec-of-Vec allocation.
    scratch.dp.clear();
    scratch.dp.resize((n + 1) * stride, f64::INFINITY);
    scratch.choice.clear();
    scratch.choice.resize((n + 1) * stride, usize::MAX);
    scratch.dp[0] = 0.0;
    // min_prev[k] = min over jp < j of dp[k][jp], folded incrementally as j
    // advances — the same left-to-right `min` fold over the same finalized
    // cells the original per-(i,k) rescans performed, so every comparison
    // sees bit-identical values (and the whole search stays O(n²·m) instead
    // of O(n²·m²)).
    scratch.min_prev.clear();
    scratch.min_prev.resize(n + 1, f64::INFINITY);
    for j in 1..=m {
        for k in 0..=n {
            scratch.min_prev[k] = scratch.min_prev[k].min(scratch.dp[k * stride + j - 1]);
        }
        let resource = &resources[scratch.order[j - 1]];
        for i in 1..=n {
            for k in 0..i {
                // Block covers segments k..i-1 (inclusive), runs on resource j-1.
                let best_prev = scratch.min_prev[k];
                if !best_prev.is_finite() {
                    continue;
                }
                // Input to this block: the workload input for the first
                // block, otherwise the boundary activation of segment k-1.
                let input_bytes = if k == 0 {
                    workload.input_bytes
                } else {
                    segments[k - 1].boundary_bytes
                };
                let mut cost = best_prev
                    + resource.transfer_time(input_bytes)
                    + resource.compute_time(block_flops(k, i - 1));
                if i == n {
                    // Return the final result to the coordinator.
                    cost += resource.transfer_time(workload.output_bytes);
                }
                if cost < scratch.dp[i * stride + j] {
                    scratch.dp[i * stride + j] = cost;
                    scratch.choice[i * stride + j] = k;
                }
            }
        }
    }

    // Best over the number of resources actually used.
    let (mut best_j, mut best_latency) = (0usize, f64::INFINITY);
    for (j, &latency) in scratch.dp[n * stride..n * stride + stride]
        .iter()
        .enumerate()
        .skip(1)
    {
        if latency < best_latency {
            best_latency = latency;
            best_j = j;
        }
    }
    if !best_latency.is_finite() {
        return Err(CoreError::Infeasible {
            what: "model partition search found no feasible assignment".into(),
        });
    }

    // Backtrack.
    let mut block_ends_rev = Vec::new();
    let mut assignments_rev = Vec::new();
    let mut i = n;
    let mut j = best_j;
    while i > 0 {
        let k = scratch.choice[i * stride + j];
        debug_assert_ne!(k, usize::MAX, "backtracking follows a feasible path");
        block_ends_rev.push(i - 1);
        assignments_rev.push(scratch.order[j - 1]);
        // Find which jp produced best_prev for dp[k][..j].
        let mut best_jp = 0usize;
        let mut best_val = f64::INFINITY;
        for (jp, &val) in scratch.dp[k * stride..k * stride + j].iter().enumerate() {
            if val < best_val {
                best_val = val;
                best_jp = jp;
            }
        }
        i = k;
        j = best_jp;
        if i == 0 {
            break;
        }
    }
    block_ends_rev.reverse();
    assignments_rev.reverse();
    Ok(ModelSearch {
        block_ends: block_ends_rev,
        assignments: assignments_rev,
        latency: best_latency,
    })
}

/// Explores the number of parallel sub-models `σ` (1 ..= `max_parts`) for
/// data partitioning and returns the fastest configuration. Shares are
/// proportional to resource rates (faster resources take larger slices).
/// Scratch memory comes from the calling thread's [`PlannerScratch`].
///
/// # Errors
///
/// Returns [`CoreError::Infeasible`] when `resources` is empty, rates are
/// non-positive, or `max_parts` is zero.
pub fn data_partition_search(
    resources: &[Resource],
    workload: WorkloadSummary,
    max_parts: usize,
) -> Result<DataSearch, CoreError> {
    SCRATCH.with(|s| data_partition_search_in(&mut s.borrow_mut(), resources, workload, max_parts))
}

/// [`data_partition_search`] against a caller-owned [`PlannerScratch`].
///
/// # Errors
///
/// Returns [`CoreError::Infeasible`] when `resources` is empty, rates are
/// non-positive, or `max_parts` is zero.
pub fn data_partition_search_in(
    scratch: &mut PlannerScratch,
    resources: &[Resource],
    workload: WorkloadSummary,
    max_parts: usize,
) -> Result<DataSearch, CoreError> {
    if resources.is_empty() {
        return Err(CoreError::Infeasible {
            what: "data partition search needs at least one resource".into(),
        });
    }
    if resources.iter().any(|r| r.rate <= 0.0 || r.rate.is_nan()) {
        return Err(CoreError::Infeasible {
            what: "all resources must have a positive computation rate".into(),
        });
    }
    if max_parts == 0 {
        return Err(CoreError::Infeasible {
            what: "data partition search needs max_parts >= 1".into(),
        });
    }

    sorted_by_rate_into(&mut scratch.order, resources);
    // First pass: find the best σ without materialising any share vector
    // (fractions are recomputed on the fly — the arithmetic and iteration
    // order match the materialised version exactly).
    let mut best: Option<(usize, f64)> = None;
    for sigma in 1..=max_parts.min(resources.len()) {
        let selected = &scratch.order[..sigma];
        let total_rate: f64 = selected.iter().map(|&i| resources[i].rate).sum();
        // Latency of the slowest part. Interior parts exchange halos with two
        // neighbours, so charge sync traffic per additional part.
        let mut latency: f64 = 0.0;
        for &idx in selected {
            let resource = &resources[idx];
            let fraction = resources[idx].rate / total_rate;
            let flops = (workload.flops as f64 * fraction) as u64;
            let sync = if sigma == 1 { 0 } else { workload.sync_bytes };
            let part_latency = resource
                .transfer_time((workload.input_bytes as f64 * fraction).ceil() as u64)
                + resource.compute_time(flops + sync / 4)
                + resource.transfer_time(
                    (workload.output_bytes as f64 * fraction).ceil() as u64
                        + if sigma == 1 { 0 } else { sync },
                );
            latency = latency.max(part_latency);
        }
        if best.map(|(_, b)| latency < b).unwrap_or(true) {
            best = Some((sigma, latency));
        }
    }
    // Second pass: materialise the winning configuration (the only
    // allocation of the search — it is the returned result).
    best.map(|(sigma, latency)| {
        let selected = &scratch.order[..sigma];
        let total_rate: f64 = selected.iter().map(|&i| resources[i].rate).sum();
        let shares: Vec<DataShare> = selected
            .iter()
            .map(|&i| DataShare {
                resource: i,
                fraction: resources[i].rate / total_rate,
            })
            .collect();
        DataSearch { shares, latency }
    })
    .ok_or_else(|| CoreError::Infeasible {
        what: "data partition search found no feasible configuration".into(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hidp_platform::NodeIndex;

    fn resource(name: &str, node: usize, rate: f64, comm_rate: f64) -> Resource {
        Resource {
            node: NodeIndex(node),
            processor: None,
            name: name.into(),
            rate,
            comm_rate,
        }
    }

    fn workload(flops: u64) -> WorkloadSummary {
        WorkloadSummary {
            input_bytes: 600_000,
            output_bytes: 4_000,
            flops,
            sync_bytes: 50_000,
        }
    }

    fn uniform_segments(count: usize, flops_each: u64) -> Vec<ChainSegment> {
        (0..count)
            .map(|_| ChainSegment {
                flops: flops_each,
                boundary_bytes: 100_000,
            })
            .collect()
    }

    #[test]
    fn single_resource_model_search_is_one_block() {
        let segments = uniform_segments(10, 1_000_000_000);
        let resources = vec![resource("leader", 0, 1e10, f64::INFINITY)];
        let result =
            model_partition_search(&segments, &resources, workload(10_000_000_000)).unwrap();
        assert_eq!(result.block_count(), 1);
        assert_eq!(result.assignments, vec![0]);
        assert!((result.latency - 1.0).abs() < 1e-9);
    }

    #[test]
    fn free_communication_spreads_blocks_across_resources() {
        let segments = uniform_segments(8, 1_000_000_000);
        // Two equal resources with effectively free communication: splitting
        // would be pointless for a *pipelined* single request (sum of compute
        // is constant), so the search keeps one block on one resource —
        // unless transfers cost nothing AND rates differ. Verify it never
        // does worse than the single-resource answer.
        let resources = vec![
            resource("a", 0, 1e10, f64::INFINITY),
            resource("b", 1, 1e10, 1e12),
        ];
        let result =
            model_partition_search(&segments, &resources, workload(8_000_000_000)).unwrap();
        assert!(result.latency <= 0.8 + 1e-9);
    }

    #[test]
    fn slow_network_keeps_work_on_the_leader() {
        let segments = uniform_segments(6, 2_000_000_000);
        let resources = vec![
            resource("leader", 0, 5e9, f64::INFINITY),
            // Faster node behind a terrible link.
            resource("remote", 1, 50e9, 1e3),
        ];
        let result =
            model_partition_search(&segments, &resources, workload(12_000_000_000)).unwrap();
        assert_eq!(result.assignments, vec![0], "work must stay local");
    }

    #[test]
    fn fast_network_offloads_to_the_faster_node() {
        let segments = uniform_segments(6, 2_000_000_000);
        let resources = vec![
            resource("leader", 0, 5e9, f64::INFINITY),
            resource("remote", 1, 50e9, 1e9),
        ];
        let result =
            model_partition_search(&segments, &resources, workload(12_000_000_000)).unwrap();
        // The remote node must execute at least one block.
        assert!(result.assignments.contains(&1));
        // And the result must beat leader-only execution (2.4 s).
        assert!(result.latency < 12.0 / 5.0);
    }

    #[test]
    fn model_search_rejects_degenerate_inputs() {
        let resources = vec![resource("a", 0, 1e9, f64::INFINITY)];
        assert!(model_partition_search(&[], &resources, workload(1)).is_err());
        let segments = uniform_segments(2, 100);
        assert!(model_partition_search(&segments, &[], workload(1)).is_err());
        let bad = vec![resource("a", 0, 0.0, f64::INFINITY)];
        assert!(model_partition_search(&segments, &bad, workload(1)).is_err());
    }

    #[test]
    fn data_search_fractions_are_rate_proportional() {
        let resources = vec![
            resource("fast", 0, 3e9, f64::INFINITY),
            resource("slow", 1, 1e9, 80e6),
        ];
        let result = data_partition_search(&resources, workload(4_000_000_000), 2).unwrap();
        if result.parallelism() == 2 {
            let fast = result
                .shares
                .iter()
                .find(|s| s.resource == 0)
                .unwrap()
                .fraction;
            let slow = result
                .shares
                .iter()
                .find(|s| s.resource == 1)
                .unwrap()
                .fraction;
            assert!((fast / slow - 3.0).abs() < 1e-9);
            assert!((fast + slow - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn data_search_parallelism_helps_until_comm_dominates() {
        // Large compute, decent network: two parts beat one.
        let resources = vec![
            resource("a", 0, 1e9, f64::INFINITY),
            resource("b", 1, 1e9, 80e6),
        ];
        let heavy = WorkloadSummary {
            input_bytes: 600_000,
            output_bytes: 4_000,
            flops: 20_000_000_000,
            sync_bytes: 100_000,
        };
        let one = data_partition_search(&resources, heavy, 1).unwrap();
        let two = data_partition_search(&resources, heavy, 2).unwrap();
        assert!(two.latency < one.latency);

        // Tiny compute, expensive sync: stays at σ = 1.
        let light = WorkloadSummary {
            input_bytes: 600_000,
            output_bytes: 4_000,
            flops: 10_000_000,
            sync_bytes: 50_000_000,
        };
        let best = data_partition_search(&resources, light, 4).unwrap();
        assert_eq!(best.parallelism(), 1);
    }

    #[test]
    fn data_search_rejects_degenerate_inputs() {
        assert!(data_partition_search(&[], workload(1), 2).is_err());
        let resources = vec![resource("a", 0, 1e9, f64::INFINITY)];
        assert!(data_partition_search(&resources, workload(1), 0).is_err());
        let bad = vec![resource("a", 0, -1.0, f64::INFINITY)];
        assert!(data_partition_search(&bad, workload(1), 1).is_err());
    }

    #[test]
    fn block_ends_are_increasing_and_cover_the_chain() {
        let segments = uniform_segments(12, 500_000_000);
        let resources = vec![
            resource("a", 0, 4e9, f64::INFINITY),
            resource("b", 1, 2e9, 5e8),
            resource("c", 2, 1e9, 5e8),
        ];
        let result =
            model_partition_search(&segments, &resources, workload(6_000_000_000)).unwrap();
        assert_eq!(*result.block_ends.last().unwrap(), 11);
        for pair in result.block_ends.windows(2) {
            assert!(pair[0] < pair[1]);
        }
        assert_eq!(result.block_ends.len(), result.assignments.len());
        // Assignments must be distinct resources.
        let mut sorted = result.assignments.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), result.assignments.len());
    }

    #[test]
    fn reused_scratch_matches_fresh_scratch_bit_for_bit() {
        // The whole point of PlannerScratch: reuse across differently-sized
        // problems must never leak state between searches.
        let mut scratch = PlannerScratch::new();
        let cases: Vec<(Vec<ChainSegment>, Vec<Resource>, u64)> = vec![
            (
                uniform_segments(12, 500_000_000),
                vec![
                    resource("a", 0, 4e9, f64::INFINITY),
                    resource("b", 1, 2e9, 5e8),
                    resource("c", 2, 1e9, 5e8),
                ],
                6_000_000_000,
            ),
            (
                uniform_segments(3, 2_000_000_000),
                vec![
                    resource("a", 0, 5e9, f64::INFINITY),
                    resource("b", 1, 50e9, 1e9),
                ],
                6_000_000_000,
            ),
            (
                uniform_segments(30, 100_000_000),
                vec![resource("a", 0, 1e10, f64::INFINITY)],
                3_000_000_000,
            ),
        ];
        for (segments, resources, flops) in &cases {
            let fresh_model = model_partition_search_in(
                &mut PlannerScratch::new(),
                segments,
                resources,
                workload(*flops),
            )
            .unwrap();
            let reused_model =
                model_partition_search_in(&mut scratch, segments, resources, workload(*flops))
                    .unwrap();
            assert_eq!(fresh_model, reused_model);

            let fresh_data = data_partition_search_in(
                &mut PlannerScratch::new(),
                resources,
                workload(*flops),
                resources.len(),
            )
            .unwrap();
            let reused_data = data_partition_search_in(
                &mut scratch,
                resources,
                workload(*flops),
                resources.len(),
            )
            .unwrap();
            assert_eq!(fresh_data, reused_data);
        }
    }
}
