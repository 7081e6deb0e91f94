//! Inference requests: the unit of work HiDP schedules.

use hidp_core::{Scenario, ServingRequest, ServingScenario, SlaClass};
use hidp_dnn::zoo::WorkloadModel;
use hidp_dnn::DnnGraph;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// One DNN inference request: a model, a batch size, an arrival time and the
/// SLA class it is served under.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InferenceRequest {
    /// The DNN model requested.
    pub model: WorkloadModel,
    /// Number of images in the request.
    pub batch: usize,
    /// Arrival time in seconds since the start of the scenario.
    pub arrival: f64,
    /// The SLA class (scheduling priority + latency deadline); only the
    /// serving pipeline consumes it — the static [`Scenario`] path ignores
    /// it.
    pub sla: SlaClass,
}

impl InferenceRequest {
    /// Creates a single-image [`SlaClass::Standard`] request arriving at
    /// `arrival` seconds.
    pub fn new(model: WorkloadModel, arrival: f64) -> Self {
        Self {
            model,
            batch: 1,
            arrival,
            sla: SlaClass::Standard,
        }
    }

    /// Sets the batch size (builder style).
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch.max(1);
        self
    }

    /// Sets the SLA class (builder style).
    pub fn with_sla(mut self, sla: SlaClass) -> Self {
        self.sla = sla;
        self
    }

    /// Builds the analytical graph for this request.
    pub fn graph(&self) -> DnnGraph {
        self.model.graph(self.batch)
    }

    /// Converts a slice of requests into the `(arrival, graph)` pairs the
    /// evaluation pipeline consumes. Each distinct `(model, batch)` graph is
    /// built (zoo construction + cost inference) exactly once — deduplicated
    /// through a hash map, so long streams pay O(n) lookups rather than the
    /// former O(n·k) scan — and **shared** for its repeats: every repeat is
    /// an `Arc` clone of the same graph, not a copy of its layer vectors.
    pub fn to_stream(requests: &[InferenceRequest]) -> Vec<(f64, Arc<DnnGraph>)> {
        let mut built: HashMap<(WorkloadModel, usize), Arc<DnnGraph>> = HashMap::new();
        requests
            .iter()
            .map(|r| {
                let graph = built
                    .entry((r.model, r.batch))
                    .or_insert_with(|| Arc::new(r.graph()));
                (r.arrival, Arc::clone(graph))
            })
            .collect()
    }

    /// Wraps a slice of requests into a runnable [`Scenario`].
    pub fn to_scenario(requests: &[InferenceRequest]) -> Scenario {
        Scenario::stream(Self::to_stream(requests))
    }

    /// Converts requests into the serving runtime's request type (model,
    /// batch, arrival and SLA class carry over one to one).
    pub fn to_serving(requests: &[InferenceRequest]) -> Vec<ServingRequest> {
        requests
            .iter()
            .map(|r| {
                ServingRequest::new(r.model, r.arrival)
                    .with_batch(r.batch)
                    .with_sla(r.sla)
            })
            .collect()
    }

    /// Wraps a slice of requests into a [`ServingScenario`] with the
    /// degenerate default config (FIFO, no batching, unbounded in-flight,
    /// static cluster) — configure admission/batching/failures with its
    /// builder methods.
    pub fn to_serving_scenario(requests: &[InferenceRequest]) -> ServingScenario {
        ServingScenario::new(Self::to_serving(requests))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_builds_its_graph() {
        let r = InferenceRequest::new(WorkloadModel::Vgg19, 1.5).with_batch(2);
        assert_eq!(r.arrival, 1.5);
        assert_eq!(r.batch, 2);
        assert_eq!(r.graph().input_shape().batch(), 2);
        // Batch is clamped to at least one image.
        assert_eq!(
            InferenceRequest::new(WorkloadModel::Vgg19, 0.0)
                .with_batch(0)
                .batch,
            1
        );
    }

    #[test]
    fn to_stream_preserves_order_and_arrivals() {
        let requests = vec![
            InferenceRequest::new(WorkloadModel::EfficientNetB0, 0.0),
            InferenceRequest::new(WorkloadModel::ResNet152, 1.0),
        ];
        let stream = InferenceRequest::to_stream(&requests);
        assert_eq!(stream.len(), 2);
        assert_eq!(stream[0].0, 0.0);
        assert_eq!(stream[1].0, 1.0);
        assert_eq!(stream[1].1.name(), "resnet152");
    }

    #[test]
    fn to_stream_shares_one_graph_per_distinct_model_and_batch() {
        // A cyclic stream must build each (model, batch) graph once and
        // share the same allocation across all its repeats.
        let requests: Vec<InferenceRequest> = (0..9)
            .map(|i| {
                let model = [WorkloadModel::EfficientNetB0, WorkloadModel::InceptionV3][i % 2];
                InferenceRequest::new(model, i as f64 * 0.1).with_batch(1 + i % 2)
            })
            .collect();
        let stream = InferenceRequest::to_stream(&requests);
        assert_eq!(stream.len(), 9);
        for (i, (arrival, graph)) in stream.iter().enumerate() {
            assert_eq!(*arrival, requests[i].arrival);
            assert_eq!(graph.input_shape().batch(), requests[i].batch);
            // Repeats of the same (model, batch) are pointer-equal shares.
            for (j, (_, other)) in stream.iter().enumerate().skip(i + 1) {
                if (requests[i].model, requests[i].batch) == (requests[j].model, requests[j].batch)
                {
                    assert!(Arc::ptr_eq(graph, other), "requests {i} and {j} share");
                }
            }
        }
    }
}
