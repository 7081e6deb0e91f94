//! Model (layer-wise) partitioning: grouping contiguous layers into blocks.
//!
//! Blocks may only end at *cut points* — topological positions where exactly
//! one tensor crosses from the prefix to the suffix of the graph — so that a
//! block hands exactly one activation tensor to its successor.

use crate::graph::{DnnGraph, NodeId};
use crate::DnnError;
use serde::{Deserialize, Serialize};

/// A contiguous group of layers treated as one schedulable unit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerBlock {
    /// Index of this block within its partition.
    pub index: usize,
    /// First node (inclusive, position in topological order).
    pub first: usize,
    /// Last node (inclusive, position in topological order).
    pub last: usize,
    /// Total floating point operations of the block.
    pub flops: u64,
    /// Total parameter bytes that must be resident to run the block.
    pub parameter_bytes: u64,
    /// Bytes of the single tensor this block receives from its predecessor
    /// (the graph input size for the first block).
    pub input_bytes: u64,
    /// Bytes of the single tensor this block hands to its successor
    /// (the network output size for the last block).
    pub output_bytes: u64,
    /// Flops-weighted GPU affinity of the block's layers (0..=1).
    pub gpu_affinity: f64,
}

impl LayerBlock {
    /// Number of layers in the block.
    pub fn len(&self) -> usize {
        self.last - self.first + 1
    }

    /// Whether the block is empty (never true for valid blocks).
    pub fn is_empty(&self) -> bool {
        self.last < self.first
    }
}

/// A complete model-wise partition: an ordered pipeline of [`LayerBlock`]s
/// covering the whole graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelPartition {
    /// The pipeline stages, in execution order.
    pub blocks: Vec<LayerBlock>,
}

impl ModelPartition {
    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether there are no blocks (never true for valid partitions).
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Total flops across all blocks (equals the graph total).
    pub fn total_flops(&self) -> u64 {
        self.blocks.iter().map(|b| b.flops).sum()
    }

    /// Bytes transferred between consecutive blocks (pipeline edges only).
    pub fn transfer_bytes(&self) -> u64 {
        if self.blocks.len() <= 1 {
            0
        } else {
            self.blocks[..self.blocks.len() - 1]
                .iter()
                .map(|b| b.output_bytes)
                .sum()
        }
    }
}

fn block_from_range(graph: &DnnGraph, index: usize, first: usize, last: usize) -> LayerBlock {
    let mut flops = 0u64;
    let mut parameter_bytes = 0u64;
    let mut affinity_weighted = 0.0f64;
    for pos in first..=last {
        let id = NodeId(pos);
        let cost = graph.cost(id).expect("position is within the graph");
        let node = graph.node(id).expect("position is within the graph");
        flops += cost.flops;
        parameter_bytes += cost.parameter_bytes;
        affinity_weighted += node.kind.gpu_affinity() * cost.flops as f64;
    }
    let input_bytes = if first == 0 {
        graph.input_shape().bytes()
    } else {
        graph
            .cost(NodeId(first - 1))
            .expect("predecessor exists")
            .output_bytes
    };
    let output_bytes = graph
        .cost(NodeId(last))
        .expect("position is within the graph")
        .output_bytes;
    let gpu_affinity = if flops == 0 {
        0.5
    } else {
        affinity_weighted / flops as f64
    };
    LayerBlock {
        index,
        first,
        last,
        flops,
        parameter_bytes,
        input_bytes,
        output_bytes,
        gpu_affinity,
    }
}

/// Returns the trivial partition: the whole network as a single block.
pub fn single_block(graph: &DnnGraph) -> ModelPartition {
    ModelPartition {
        blocks: vec![block_from_range(graph, 0, 0, graph.len() - 1)],
    }
}

/// Splits the graph into blocks ending at the given cut points.
///
/// `boundaries` lists the last node of every block except the final one
/// (which always ends at the last layer). Boundaries must be cut points of
/// the graph and strictly increasing.
///
/// # Errors
///
/// Returns [`DnnError::InvalidPartition`] when a boundary is not a cut point,
/// boundaries are not strictly increasing, or a boundary is the last node.
pub fn partition_into_blocks(
    graph: &DnnGraph,
    boundaries: &[NodeId],
) -> Result<ModelPartition, DnnError> {
    let cut_set: std::collections::HashSet<usize> =
        graph.cut_points().iter().map(|id| id.0).collect();
    let mut blocks = Vec::with_capacity(boundaries.len() + 1);
    let mut first = 0usize;
    let mut prev_boundary: Option<usize> = None;
    for boundary in boundaries {
        if boundary.0 >= graph.len() - 1 {
            return Err(DnnError::InvalidPartition {
                what: format!("boundary {boundary} is at or beyond the last layer"),
            });
        }
        if !cut_set.contains(&boundary.0) {
            return Err(DnnError::InvalidPartition {
                what: format!("boundary {boundary} is not a cut point of the graph"),
            });
        }
        if let Some(prev) = prev_boundary {
            if boundary.0 <= prev {
                return Err(DnnError::InvalidPartition {
                    what: format!(
                        "boundaries must be strictly increasing, got {boundary} after n{prev}"
                    ),
                });
            }
        }
        blocks.push(block_from_range(graph, blocks.len(), first, boundary.0));
        first = boundary.0 + 1;
        prev_boundary = Some(boundary.0);
    }
    blocks.push(block_from_range(
        graph,
        blocks.len(),
        first,
        graph.len() - 1,
    ));
    Ok(ModelPartition { blocks })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;

    #[test]
    fn single_block_covers_whole_graph() {
        let g = zoo::small::tiny_cnn(16, 1, 10);
        let p = single_block(&g);
        assert_eq!(p.len(), 1);
        assert_eq!(p.blocks[0].len(), g.len());
        assert_eq!(p.total_flops(), g.total_flops());
        assert_eq!(p.transfer_bytes(), 0);
    }

    #[test]
    fn two_blocks_preserve_total_flops_and_params() {
        let g = zoo::small::tiny_resnet(16, 1, 10);
        // Use the middle cut point.
        let cut = g.cut_points()[g.cut_points().len() / 2];
        let p = partition_into_blocks(&g, &[cut]).unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(p.total_flops(), g.total_flops());
        let total_params: u64 = p.blocks.iter().map(|b| b.parameter_bytes).sum();
        assert_eq!(total_params, g.total_parameter_bytes());
        // The transfer between the blocks equals the cut tensor size.
        assert_eq!(p.transfer_bytes(), g.cost(cut).unwrap().output_bytes);
        // Block input/output chaining is consistent.
        assert_eq!(p.blocks[0].output_bytes, p.blocks[1].input_bytes);
    }

    #[test]
    fn non_cut_point_is_rejected() {
        let g = zoo::small::tiny_resnet(16, 1, 10);
        // Find a node that is not a cut point (inside a residual branch).
        let non_cut = (0..g.len() - 1)
            .map(NodeId)
            .find(|id| !g.cut_points().contains(id))
            .expect("residual graph has non-cut nodes");
        assert!(matches!(
            partition_into_blocks(&g, &[non_cut]),
            Err(DnnError::InvalidPartition { .. })
        ));
    }

    #[test]
    fn boundaries_must_increase() {
        let g = zoo::small::tiny_cnn(16, 1, 10);
        let cuts = g.cut_points();
        assert!(partition_into_blocks(&g, &[cuts[2], cuts[1]]).is_err());
        assert!(partition_into_blocks(&g, &[cuts[1], cuts[1]]).is_err());
    }

    #[test]
    fn last_node_cannot_be_a_boundary() {
        let g = zoo::small::tiny_cnn(16, 1, 10);
        assert!(partition_into_blocks(&g, &[NodeId(g.len() - 1)]).is_err());
    }

    #[test]
    fn blocks_on_resnet152_at_every_cut_point() {
        let g = zoo::resnet152(224, 1);
        let cuts: Vec<NodeId> = g.cut_points().to_vec();
        // Partition at every 10th cut point; totals must be preserved.
        let boundaries: Vec<NodeId> = cuts.iter().step_by(10).copied().collect();
        let boundaries = &boundaries[..boundaries.len().saturating_sub(1)];
        let p = partition_into_blocks(&g, boundaries).unwrap();
        assert_eq!(p.total_flops(), g.total_flops());
        assert_eq!(p.len(), boundaries.len() + 1);
    }

    #[test]
    fn gpu_affinity_is_bounded() {
        let g = zoo::efficientnet_b0(224, 1);
        let p = single_block(&g);
        let a = p.blocks[0].gpu_affinity;
        assert!(a > 0.0 && a <= 1.0);
    }
}
