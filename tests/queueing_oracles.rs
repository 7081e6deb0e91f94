//! Analytical oracle: the serving loop against M/G/1 queueing theory.
//!
//! On the paper cluster with FIFO admission, batch 1 and window 1, each
//! request is served alone, so a request's service time is its model's solo
//! latency and the cluster is one M/G/1 server: Poisson arrivals
//! (`poisson_stream`) and a service time drawn uniformly from the three
//! Mix-5 models' solo latencies. The Pollaczek–Khinchine formula then
//! gives the mean wait in queue, Wq = λE[S²] / (2(1 − ρ)), and the mean
//! sojourn Wq + E[S]. Neither shares code with the simulator.
//!
//! Both completion models are checked: streaming mode, where the dispatch
//! estimator times completions, and records mode, where the event engine
//! does. The service times come from solo runs of each model.
//!
//! The saturation oracle needs no statistics: a backlog released at t = 0
//! keeps a window-1 server busy from the first admission to the last
//! completion, so the makespan is the sum of the admitted plans' solo
//! latencies and the served throughput is the service rate — 1/E[S] at
//! batch 1, b/S(b) for batches of b, where S(b) is the batch-b plan's solo
//! latency.

use hidp::core::{
    AdmissionPolicy, PlanCache, Scenario, ServingRequest, ServingScenario, ServingScratch,
};
use hidp::platform::{presets, Cluster, NodeIndex};
use hidp::workloads::{poisson_stream, InferenceRequest};
use hidp::{HidpStrategy, WorkloadModel};

const LEADER: NodeIndex = NodeIndex(1);

const MODELS: [WorkloadModel; 3] = [
    WorkloadModel::EfficientNetB0,
    WorkloadModel::InceptionV3,
    WorkloadModel::ResNet152,
];

/// Requests per load point: enough for a batch-means standard error within
/// 5% of Wq at ρ = 0.85, where the wait is most autocorrelated, while the
/// file runs in seconds in a debug build.
const REQUESTS: usize = 200_000;

/// Batches for the batch-means confidence interval.
const BATCHES: usize = 12;

/// Two-sided 99.9% Student-t quantile with `BATCHES − 1` = 11 degrees of
/// freedom.
const T_999: f64 = 4.437;

/// The window-1 M/G/1 shape of every run here.
fn mg1(requests: Vec<ServingRequest>) -> ServingScenario {
    ServingScenario::new(requests)
        .with_policy(AdmissionPolicy::Fifo)
        .with_max_batch(1)
        .with_max_inflight(Some(1))
}

/// The mean queueing delay and mean latency each completion model reports,
/// as `[streaming, records]`, plus the records run's per-request (queueing
/// delay, latency) samples in arrival order.
struct Runs {
    mean_queueing: [f64; 2],
    mean_latency: [f64; 2],
    samples: Vec<(f64, f64)>,
}

/// Runs `requests` in both completion models.
fn run_both(requests: Vec<ServingRequest>, cluster: &Cluster, cache: &PlanCache) -> Runs {
    let strategy = HidpStrategy::new();
    let scenario = mg1(requests);
    let streaming = scenario
        .run_streaming_with_cache_in(
            &strategy,
            cluster,
            LEADER,
            cache,
            &mut ServingScratch::new(),
        )
        .expect("streaming run succeeds");
    let records = scenario
        .run_with_cache(&strategy, cluster, LEADER, cache)
        .expect("records run succeeds");
    Runs {
        mean_queueing: [
            streaming.mean_queueing_delay,
            records.serving.mean_queueing_delay,
        ],
        mean_latency: [streaming.latency.mean, records.serving.latency.mean],
        samples: records
            .records
            .iter()
            .map(|r| (r.queueing_delay(), r.latency()))
            .collect(),
    }
}

/// The batch-means standard error of the mean of `values`: the spread of
/// `BATCHES` contiguous batch means, which are nearly independent when a
/// batch is much longer than the queue's correlation time.
fn batch_means_se(values: impl ExactSizeIterator<Item = f64>) -> f64 {
    let per_batch = values.len() / BATCHES;
    let mut means = [0.0f64; BATCHES];
    for (i, v) in values.take(per_batch * BATCHES).enumerate() {
        means[i / per_batch] += v / per_batch as f64;
    }
    let mean = means.iter().sum::<f64>() / BATCHES as f64;
    let var = means.iter().map(|m| (m - mean).powi(2)).sum::<f64>() / (BATCHES - 1) as f64;
    (var / BATCHES as f64).sqrt()
}

#[test]
fn window_one_queueing_matches_pollaczek_khinchine() {
    let cluster = presets::paper_cluster();
    let cache = PlanCache::new();

    // Solo runs: a lone request never queues, and its latency is its
    // model's service time, the same in both completion models.
    let solo: Vec<f64> = MODELS
        .iter()
        .map(|&m| {
            let runs = run_both(vec![ServingRequest::new(m, 0.0)], &cluster, &cache);
            assert_eq!(runs.mean_queueing, [0.0; 2], "{m:?}");
            assert_eq!(runs.mean_latency[0], runs.mean_latency[1], "{m:?}");
            runs.mean_latency[0]
        })
        .collect();
    let mean_s = solo.iter().sum::<f64>() / solo.len() as f64;
    let mean_s2 = solo.iter().map(|s| s * s).sum::<f64>() / solo.len() as f64;

    // Seeds were fixed before any result was looked at.
    for (rho, seed) in [(0.30, 31u64), (0.60, 32), (0.85, 33)] {
        let lambda = rho / mean_s;
        let wq = lambda * mean_s2 / (2.0 * (1.0 - rho));
        let requests =
            InferenceRequest::to_serving(&poisson_stream(&MODELS, lambda, REQUESTS, seed));
        let runs = run_both(requests, &cluster, &cache);
        let queueing_se = batch_means_se(runs.samples.iter().map(|s| s.0));
        let latency_se = batch_means_se(runs.samples.iter().map(|s| s.1));
        // The interval must be tight enough to mean something.
        assert!(
            queueing_se < 0.05 * wq,
            "ρ = {rho}: SE {queueing_se} vs Wq {wq}"
        );

        // The tolerance is the 99.9% batch-means confidence interval of the
        // run's mean. The run starts empty, which biases its mean low by
        // roughly the queue's relaxation time (~150 requests at ρ = 0.85)
        // over the request count: well inside the interval.
        for (m, mode) in ["streaming", "records"].into_iter().enumerate() {
            let (queueing, latency) = (runs.mean_queueing[m], runs.mean_latency[m]);
            assert!(
                (queueing - wq).abs() <= T_999 * queueing_se,
                "{mode} ρ = {rho}: mean queueing {queueing:.5} s vs P-K Wq {wq:.5} s \
                 (SE {queueing_se:.5} s)"
            );
            assert!(
                (latency - (wq + mean_s)).abs() <= T_999 * latency_se,
                "{mode} ρ = {rho}: mean latency {latency:.5} s vs P-K {:.5} s \
                 (SE {latency_se:.5} s)",
                wq + mean_s
            );
        }
    }
}

/// `a` and `b` agree to a relative 1e-9.
fn assert_close(a: f64, b: f64, what: &str) {
    assert!((a - b).abs() <= 1e-9 * b.abs(), "{what}: {a} vs oracle {b}");
}

/// The makespan and served throughput of `scenario` in each completion
/// model, as `[streaming, records]`.
fn makespan_and_throughput(
    scenario: &ServingScenario,
    cluster: &Cluster,
    cache: &PlanCache,
) -> [(f64, f64); 2] {
    let strategy = HidpStrategy::new();
    let streaming = scenario
        .run_streaming_with_cache_in(
            &strategy,
            cluster,
            LEADER,
            cache,
            &mut ServingScratch::new(),
        )
        .expect("streaming run succeeds");
    let records = scenario
        .run_with_cache(&strategy, cluster, LEADER, cache)
        .expect("records run succeeds");
    [
        (streaming.makespan, streaming.requests_per_second()),
        (records.evaluation.makespan, records.requests_per_second()),
    ]
}

#[test]
fn saturated_window_one_backlog_completes_at_the_service_rate() {
    let cluster = presets::paper_cluster();
    let cache = PlanCache::new();
    // S(b): the latency of one batch-b request through the static
    // pipeline, which shares no admission or dispatch code with serving.
    let solo = |model: WorkloadModel, batch: usize| {
        Scenario::single(model.graph(batch))
            .run_with_cache(&HidpStrategy::new(), &cluster, LEADER, &cache)
            .expect("solo run succeeds")
            .latency()
    };

    // Batch 1: a 30-request Mix-5 backlog, served one request at a time.
    let backlog: Vec<ServingRequest> = (0..30)
        .map(|i| ServingRequest::new(MODELS[i % MODELS.len()], 0.0))
        .collect();
    let total: f64 = backlog.iter().map(|r| solo(r.model, 1)).sum();
    let mean_s = total / backlog.len() as f64;
    let runs = makespan_and_throughput(&mg1(backlog), &cluster, &cache);
    for ((makespan, throughput), mode) in runs.into_iter().zip(["streaming", "records"]) {
        assert_close(makespan, total, &format!("{mode} batch 1 makespan"));
        assert_close(
            throughput,
            1.0 / mean_s,
            &format!("{mode} batch 1 throughput"),
        );
    }

    // Batch b: a single-model backlog of 4 full batches.
    for model in MODELS {
        for batch in [2, 4, 8] {
            let backlog = vec![ServingRequest::new(model, 0.0); 4 * batch];
            let scenario = mg1(backlog).with_max_batch(batch);
            let service = solo(model, batch);
            for ((makespan, throughput), mode) in
                makespan_and_throughput(&scenario, &cluster, &cache)
                    .into_iter()
                    .zip(["streaming", "records"])
            {
                let what = format!("{mode} {model:?} batch {batch}");
                assert_close(makespan, 4.0 * service, &format!("{what} makespan"));
                assert_close(
                    throughput,
                    batch as f64 / service,
                    &format!("{what} throughput"),
                );
            }
        }
    }
}
