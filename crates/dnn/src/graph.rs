//! The DNN DAG representation used throughout the HiDP reproduction.
//!
//! The paper models a DNN as a directed acyclic graph whose nodes are layers
//! and whose edges are tensors (§III, *System Model*). [`DnnGraph`] stores
//! exactly that, plus the analytical annotations the partitioners need:
//! per-layer output shapes, flops, parameter bytes and activation bytes.

use crate::layer::{LayerKind, Shape};
use crate::DnnError;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Identifier of a node inside a [`DnnGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub usize);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A single layer instance inside the graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerNode {
    /// Node identifier (index into the graph's node vector).
    pub id: NodeId,
    /// Human-readable name, unique within the graph.
    pub name: String,
    /// The layer descriptor.
    pub kind: LayerKind,
    /// Producers feeding this layer, in argument order.
    pub inputs: Vec<NodeId>,
}

/// Analytical annotations for one node, computed when the graph is built
/// ([`GraphBuilder::build`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeCost {
    /// Output tensor shape.
    pub output_shape: Shape,
    /// Floating point operations to evaluate the node once.
    pub flops: u64,
    /// Parameter storage in bytes.
    pub parameter_bytes: u64,
    /// Output activation size in bytes.
    pub output_bytes: u64,
}

/// An immutable, validated DNN graph with cost annotations.
///
/// Construct one with [`GraphBuilder`] (usually via the model zoo in
/// [`crate::zoo`]).
///
/// ```
/// use hidp_dnn::zoo;
///
/// let vgg = zoo::vgg19(224, 1);
/// assert!(vgg.total_flops() > 1e9 as u64);
/// assert_eq!(vgg.name(), "vgg19");
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DnnGraph {
    name: String,
    nodes: Vec<LayerNode>,
    costs: Vec<NodeCost>,
    topo_order: Vec<NodeId>,
    consumers: Vec<Vec<NodeId>>,
    cut_points: Vec<NodeId>,
    fingerprint: u64,
    /// `prefix_flops[i]` = flops of positions `0..i` (length `len() + 1`),
    /// so any contiguous span's flops are one subtraction.
    prefix_flops: Vec<u64>,
    /// `prefix_output_bytes[i]` = activation bytes of positions `0..i`.
    prefix_output_bytes: Vec<u64>,
}

impl DnnGraph {
    fn new(name: String, nodes: Vec<LayerNode>) -> Result<Self, DnnError> {
        if nodes.is_empty() {
            return Err(DnnError::InvalidGraph {
                what: "graph has no nodes".into(),
            });
        }
        // Validate ids and references.
        let mut names = HashMap::new();
        for (i, node) in nodes.iter().enumerate() {
            if node.id.0 != i {
                return Err(DnnError::InvalidGraph {
                    what: format!("node `{}` has id {} but position {i}", node.name, node.id),
                });
            }
            if names.insert(node.name.clone(), node.id).is_some() {
                return Err(DnnError::InvalidGraph {
                    what: format!("duplicate node name `{}`", node.name),
                });
            }
            if let Some(expected) = node.kind.arity() {
                if node.inputs.len() != expected {
                    return Err(DnnError::InvalidGraph {
                        what: format!(
                            "node `{}` expects {expected} inputs but has {}",
                            node.name,
                            node.inputs.len()
                        ),
                    });
                }
            } else if node.inputs.is_empty() {
                return Err(DnnError::InvalidGraph {
                    what: format!("node `{}` expects at least one input", node.name),
                });
            }
            for dep in &node.inputs {
                if dep.0 >= nodes.len() {
                    return Err(DnnError::UnknownNode { id: dep.0 });
                }
                if dep.0 >= i {
                    return Err(DnnError::InvalidGraph {
                        what: format!(
                            "node `{}` depends on node {} that is not earlier in the build order",
                            node.name, dep.0
                        ),
                    });
                }
            }
        }
        // Builders add nodes in topological order by construction (checked above).
        let topo_order: Vec<NodeId> = nodes.iter().map(|n| n.id).collect();

        // Shape and cost inference.
        let mut costs: Vec<NodeCost> = Vec::with_capacity(nodes.len());
        for node in &nodes {
            let input_shapes: Vec<Shape> = node
                .inputs
                .iter()
                .map(|dep| costs[dep.0].output_shape.clone())
                .collect();
            let output_shape = node.kind.output_shape(&node.name, &input_shapes)?;
            let flops = node.kind.flops(&input_shapes, &output_shape);
            let parameter_bytes = node.kind.parameter_bytes(&input_shapes);
            let output_bytes = output_shape.bytes();
            costs.push(NodeCost {
                output_shape,
                flops,
                parameter_bytes,
                output_bytes,
            });
        }

        // Consumers (reverse edges).
        let mut consumers: Vec<Vec<NodeId>> = vec![Vec::new(); nodes.len()];
        for node in &nodes {
            for dep in &node.inputs {
                consumers[dep.0].push(node.id);
            }
        }

        // Cut points: positions i in topo order such that every edge from
        // {0..=i} into {i+1..} originates at node i. These are the legal
        // model-partition boundaries (exactly one tensor crosses the cut).
        let mut cut_points = Vec::new();
        for (i, node) in nodes.iter().enumerate() {
            if i + 1 == nodes.len() {
                break;
            }
            let mut ok = true;
            for earlier in &nodes[..=i] {
                if earlier.id.0 == i {
                    continue;
                }
                if consumers[earlier.id.0].iter().any(|c| c.0 > i) {
                    ok = false;
                    break;
                }
            }
            if ok {
                cut_points.push(node.id);
            }
        }

        let fingerprint = fingerprint_of(&name, &nodes, &costs);

        // Prefix sums over the topological positions, computed once so the
        // partitioners' per-request chain walks (`chain_segments`,
        // `workload_summary`) read spans in O(1) instead of re-walking
        // `cost()` per call.
        let mut prefix_flops = Vec::with_capacity(costs.len() + 1);
        let mut prefix_output_bytes = Vec::with_capacity(costs.len() + 1);
        prefix_flops.push(0);
        prefix_output_bytes.push(0);
        let (mut flops_acc, mut bytes_acc) = (0u64, 0u64);
        for cost in &costs {
            flops_acc += cost.flops;
            bytes_acc += cost.output_bytes;
            prefix_flops.push(flops_acc);
            prefix_output_bytes.push(bytes_acc);
        }

        Ok(Self {
            name,
            nodes,
            costs,
            topo_order,
            consumers,
            cut_points,
            fingerprint,
            prefix_flops,
            prefix_output_bytes,
        })
    }

    /// The model name (e.g. `"resnet152"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All nodes, indexed by [`NodeId`].
    pub fn nodes(&self) -> &[LayerNode] {
        &self.nodes
    }

    /// Number of layers in the graph.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes (never true for a valid graph).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Looks up a node.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::UnknownNode`] for ids outside the graph.
    pub fn node(&self, id: NodeId) -> Result<&LayerNode, DnnError> {
        self.nodes
            .get(id.0)
            .ok_or(DnnError::UnknownNode { id: id.0 })
    }

    /// Cost annotations of a node.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::UnknownNode`] for ids outside the graph.
    pub fn cost(&self, id: NodeId) -> Result<&NodeCost, DnnError> {
        self.costs
            .get(id.0)
            .ok_or(DnnError::UnknownNode { id: id.0 })
    }

    /// Nodes in topological (construction) order.
    pub fn topo_order(&self) -> &[NodeId] {
        &self.topo_order
    }

    /// Nodes that consume the output of `id`.
    pub fn consumers(&self, id: NodeId) -> &[NodeId] {
        &self.consumers[id.0]
    }

    /// Legal model-partition boundaries: after each of these nodes exactly one
    /// tensor crosses to the rest of the network.
    pub fn cut_points(&self) -> &[NodeId] {
        &self.cut_points
    }

    /// The input node (first node, always `LayerKind::Input`).
    pub fn input(&self) -> &LayerNode {
        &self.nodes[0]
    }

    /// The final node in topological order (the network output).
    pub fn output(&self) -> &LayerNode {
        self.nodes.last().expect("graph is never empty")
    }

    /// Shape of the network input.
    pub fn input_shape(&self) -> &Shape {
        &self.costs[0].output_shape
    }

    /// Shape of the network output.
    pub fn output_shape(&self) -> &Shape {
        &self.costs[self.nodes.len() - 1].output_shape
    }

    /// Total floating point operations for one inference. O(1): read from
    /// the prefix sums computed at construction.
    pub fn total_flops(&self) -> u64 {
        *self.prefix_flops.last().expect("prefix sums are non-empty")
    }

    /// Flops of the contiguous topological span `first..=last`, in O(1)
    /// via the prefix sums computed at construction.
    ///
    /// # Panics
    ///
    /// Panics when `last < first` or `last` is outside the graph — in
    /// release builds too (the explicit assert keeps the documented
    /// contract where a plain subtraction would silently wrap).
    pub fn span_flops(&self, first: usize, last: usize) -> u64 {
        assert!(first <= last, "span {first}..={last} is inverted");
        self.prefix_flops[last + 1] - self.prefix_flops[first]
    }

    /// Activation bytes produced by the contiguous topological span
    /// `first..=last`, in O(1) via the prefix sums computed at construction.
    ///
    /// # Panics
    ///
    /// Panics when `last < first` or `last` is outside the graph — in
    /// release builds too (the explicit assert keeps the documented
    /// contract where a plain subtraction would silently wrap).
    pub fn span_output_bytes(&self, first: usize, last: usize) -> u64 {
        assert!(first <= last, "span {first}..={last} is inverted");
        self.prefix_output_bytes[last + 1] - self.prefix_output_bytes[first]
    }

    /// Total parameter storage in bytes.
    pub fn total_parameter_bytes(&self) -> u64 {
        self.costs.iter().map(|c| c.parameter_bytes).sum()
    }

    /// Total parameter count.
    pub fn total_parameters(&self) -> u64 {
        self.total_parameter_bytes() / 4
    }

    /// Sum of all activation sizes (bytes moved between layers). O(1): read
    /// from the prefix sums computed at construction.
    pub fn total_activation_bytes(&self) -> u64 {
        *self
            .prefix_output_bytes
            .last()
            .expect("prefix sums are non-empty")
    }

    /// Average GPU affinity of the network, weighted by per-layer flops.
    /// Close to 1.0 for dense convolutional networks (VGG), noticeably lower
    /// for depthwise-separable networks (EfficientNet).
    pub fn gpu_affinity(&self) -> f64 {
        let total = self.total_flops().max(1) as f64;
        self.nodes
            .iter()
            .zip(self.costs.iter())
            .map(|(n, c)| n.kind.gpu_affinity() * c.flops as f64)
            .sum::<f64>()
            / total
    }

    /// A content fingerprint of the graph: name, topology and every
    /// cost-model-visible annotation (per-layer category, GPU affinity,
    /// flops, parameter/activation bytes and output shape). Two graphs with
    /// the same fingerprint are indistinguishable to the partitioning
    /// strategies, which plan from exactly these quantities — so plan caches
    /// key on it. Computed once at construction (O(1) to read, so cache
    /// lookups on the streaming hot path cost a hash probe, not a graph
    /// walk) and stable across processes (FNV-1a, no random hash seeds).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Returns a copy of this graph with a different batch size on the input
    /// layer (costs are recomputed).
    ///
    /// # Errors
    ///
    /// Propagates shape errors if a layer cannot handle the new batch.
    pub fn with_batch(&self, batch: usize) -> Result<Self, DnnError> {
        let mut nodes = self.nodes.clone();
        if let LayerKind::Input { shape } = &mut nodes[0].kind {
            *shape = shape.with_batch(batch);
        }
        Self::new(self.name.clone(), nodes)
    }
}

/// Hashes everything the partitioning strategies can observe about a graph.
/// Called once from [`DnnGraph::new`] and stored.
fn fingerprint_of(name: &str, nodes: &[LayerNode], costs: &[NodeCost]) -> u64 {
    let mut h = Fnv64::new();
    h.write_str(name);
    h.write_usize(nodes.len());
    for (node, cost) in nodes.iter().zip(costs.iter()) {
        h.write_str(&node.name);
        h.write_str(node.kind.category());
        h.write_f64(node.kind.gpu_affinity());
        h.write_usize(node.inputs.len());
        for dep in &node.inputs {
            h.write_usize(dep.0);
        }
        h.write_u64(cost.flops);
        h.write_u64(cost.parameter_bytes);
        h.write_u64(cost.output_bytes);
        let dims = cost.output_shape.dims();
        h.write_usize(dims.len());
        for d in dims {
            h.write_usize(d);
        }
    }
    h.finish()
}

/// 64-bit FNV-1a accumulator backing [`DnnGraph::fingerprint`]. `std`'s
/// hashers are randomly seeded per process, so fingerprints roll their own.
///
/// Deliberately duplicates `crates/platform/src/fingerprint.rs`: the two
/// crates are independent (platform models hardware, dnn models networks)
/// and a shared-hasher crate is not worth a new dependency edge for ~40
/// lines of a frozen algorithm. If you change the encoding rules here
/// (e.g. the length prefix), change the platform copy too.
#[derive(Debug, Clone, Copy)]
struct Fnv64(u64);

impl Fnv64 {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write(s.as_bytes());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Incremental builder for [`DnnGraph`], used by the model zoo.
///
/// ```
/// use hidp_dnn::{GraphBuilder, LayerKind, Shape, Window};
/// use hidp_tensor::ops::Activation;
///
/// # fn main() -> Result<(), hidp_dnn::DnnError> {
/// let mut b = GraphBuilder::new("tiny");
/// let input = b.input(Shape::map(1, 3, 8, 8));
/// let conv = b.layer("conv1", LayerKind::Conv {
///     out_channels: 4,
///     window: Window::square(3, 1, 1),
///     activation: Activation::Relu,
/// }, &[input]);
/// let _ = conv;
/// let graph = b.build()?;
/// assert_eq!(graph.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    name: String,
    nodes: Vec<LayerNode>,
}

impl GraphBuilder {
    /// Starts a new graph with the given model name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            nodes: Vec::new(),
        }
    }

    /// Adds the input placeholder. Must be called exactly once, first.
    pub fn input(&mut self, shape: Shape) -> NodeId {
        self.layer("input", LayerKind::Input { shape }, &[])
    }

    /// Adds a layer fed by `inputs` and returns its id.
    pub fn layer(&mut self, name: impl Into<String>, kind: LayerKind, inputs: &[NodeId]) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(LayerNode {
            id,
            name: name.into(),
            kind,
            inputs: inputs.to_vec(),
        });
        id
    }

    /// Number of layers added so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether no layers have been added yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Validates the graph, infers shapes and costs, and freezes it.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::InvalidGraph`] for structural problems and
    /// [`DnnError::ShapeError`] when a layer cannot handle its input shape.
    pub fn build(self) -> Result<DnnGraph, DnnError> {
        DnnGraph::new(self.name, self.nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Window;
    use hidp_tensor::ops::Activation;

    fn chain_graph() -> DnnGraph {
        let mut b = GraphBuilder::new("chain");
        let input = b.input(Shape::map(1, 3, 8, 8));
        let c1 = b.layer(
            "c1",
            LayerKind::Conv {
                out_channels: 4,
                window: Window::square(3, 1, 1),
                activation: Activation::Relu,
            },
            &[input],
        );
        let p = b.layer(
            "pool",
            LayerKind::MaxPool {
                window: Window::square(2, 2, 0),
            },
            &[c1],
        );
        let f = b.layer("flat", LayerKind::Flatten, &[p]);
        let d = b.layer(
            "fc",
            LayerKind::Dense {
                units: 10,
                activation: Activation::Linear,
            },
            &[f],
        );
        b.layer("sm", LayerKind::Softmax, &[d]);
        b.build().unwrap()
    }

    fn residual_graph() -> DnnGraph {
        let mut b = GraphBuilder::new("res");
        let input = b.input(Shape::map(1, 4, 8, 8));
        let c1 = b.layer(
            "c1",
            LayerKind::Conv {
                out_channels: 4,
                window: Window::square(3, 1, 1),
                activation: Activation::Relu,
            },
            &[input],
        );
        let c2 = b.layer(
            "c2",
            LayerKind::Conv {
                out_channels: 4,
                window: Window::square(3, 1, 1),
                activation: Activation::Linear,
            },
            &[c1],
        );
        let add = b.layer("add", LayerKind::Add, &[c1, c2]);
        b.layer(
            "c3",
            LayerKind::Conv {
                out_channels: 8,
                window: Window::square(3, 1, 1),
                activation: Activation::Relu,
            },
            &[add],
        );
        b.build().unwrap()
    }

    #[test]
    fn chain_shapes_and_costs_are_inferred() {
        let g = chain_graph();
        assert_eq!(g.len(), 6);
        assert_eq!(*g.output_shape(), Shape::vector(1, 10));
        assert_eq!(g.input_shape(), &Shape::map(1, 3, 8, 8));
        assert!(g.total_flops() > 0);
        assert!(g.total_parameters() > 0);
        // Every node in a pure chain is a cut point (except the last).
        assert_eq!(g.cut_points().len(), g.len() - 1);
    }

    #[test]
    fn residual_graph_cut_points_skip_branch_interior() {
        let g = residual_graph();
        let cut_names: Vec<&str> = g
            .cut_points()
            .iter()
            .map(|id| g.node(*id).unwrap().name.as_str())
            .collect();
        // After c1 only c1's output crosses the boundary, so c1 IS a cut
        // point. After c2 both c1's and c2's outputs cross (add needs both),
        // so c2 is not.
        assert!(cut_names.contains(&"input"));
        assert!(cut_names.contains(&"add"));
        assert!(cut_names.contains(&"c1"));
        assert!(!cut_names.contains(&"c2"));
    }

    #[test]
    fn consumers_are_reverse_edges() {
        let g = residual_graph();
        let c1 = NodeId(1);
        let consumer_names: Vec<&str> = g
            .consumers(c1)
            .iter()
            .map(|id| g.node(*id).unwrap().name.as_str())
            .collect();
        assert_eq!(consumer_names, vec!["c2", "add"]);
        // Output node has no consumers.
        assert!(g.consumers(g.output().id).is_empty());
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let mut b = GraphBuilder::new("dup");
        let input = b.input(Shape::map(1, 1, 4, 4));
        b.layer("x", LayerKind::BatchNorm, &[input]);
        b.layer("x", LayerKind::BatchNorm, &[input]);
        assert!(matches!(b.build(), Err(DnnError::InvalidGraph { .. })));
    }

    #[test]
    fn wrong_arity_is_rejected() {
        let mut b = GraphBuilder::new("bad");
        let input = b.input(Shape::map(1, 1, 4, 4));
        b.layer("add", LayerKind::Add, &[input]);
        assert!(b.build().is_err());
    }

    #[test]
    fn empty_graph_is_rejected() {
        let b = GraphBuilder::new("empty");
        assert!(b.build().is_err());
    }

    #[test]
    fn unknown_node_lookup_errors() {
        let g = chain_graph();
        assert!(g.node(NodeId(100)).is_err());
        assert!(g.cost(NodeId(100)).is_err());
    }

    #[test]
    fn with_batch_scales_flops_linearly() {
        let g = chain_graph();
        let g4 = g.with_batch(4).unwrap();
        assert_eq!(g4.input_shape().batch(), 4);
        assert_eq!(g4.total_flops(), g.total_flops() * 4);
        // Parameters do not change with batch.
        assert_eq!(g4.total_parameter_bytes(), g.total_parameter_bytes());
    }

    #[test]
    fn gpu_affinity_is_within_unit_interval() {
        let g = chain_graph();
        let a = g.gpu_affinity();
        assert!(a > 0.0 && a <= 1.0);
    }

    #[test]
    fn fingerprint_keys_on_content() {
        let g = chain_graph();
        // Deterministic for identical content.
        assert_eq!(g.fingerprint(), g.fingerprint());
        assert_eq!(g.fingerprint(), chain_graph().fingerprint());
        // Different topology and different batch are distinct.
        assert_ne!(g.fingerprint(), residual_graph().fingerprint());
        assert_ne!(g.fingerprint(), g.with_batch(2).unwrap().fingerprint());
        // So is the model name, with everything else identical.
        fn tiny(name: &str) -> DnnGraph {
            let mut b = GraphBuilder::new(name);
            let input = b.input(Shape::map(1, 1, 4, 4));
            b.layer("bn", LayerKind::BatchNorm, &[input]);
            b.build().unwrap()
        }
        assert_eq!(tiny("a").fingerprint(), tiny("a").fingerprint());
        assert_ne!(tiny("a").fingerprint(), tiny("b").fingerprint());
    }

    #[test]
    fn span_sums_match_per_node_accumulation() {
        for g in [chain_graph(), residual_graph()] {
            assert_eq!(g.span_flops(0, g.len() - 1), g.total_flops());
            assert_eq!(
                g.span_output_bytes(0, g.len() - 1),
                g.total_activation_bytes()
            );
            for first in 0..g.len() {
                for last in first..g.len() {
                    let flops: u64 = (first..=last)
                        .map(|p| g.cost(NodeId(p)).unwrap().flops)
                        .sum();
                    let bytes: u64 = (first..=last)
                        .map(|p| g.cost(NodeId(p)).unwrap().output_bytes)
                        .sum();
                    assert_eq!(g.span_flops(first, last), flops);
                    assert_eq!(g.span_output_bytes(first, last), bytes);
                }
            }
        }
    }

    #[test]
    fn shape_error_reports_layer_name() {
        let mut b = GraphBuilder::new("bad-shape");
        let input = b.input(Shape::map(1, 3, 4, 4));
        b.layer(
            "huge-conv",
            LayerKind::Conv {
                out_channels: 8,
                window: Window::square(9, 1, 0),
                activation: Activation::Relu,
            },
            &[input],
        );
        match b.build() {
            Err(DnnError::ShapeError { layer, .. }) => assert_eq!(layer, "huge-conv"),
            other => panic!("expected shape error, got {other:?}"),
        }
    }
}
