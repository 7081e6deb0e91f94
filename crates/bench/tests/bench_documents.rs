//! Byte-identity pins for every `BENCH_*.json` document and the `exp_all
//! --json` table dump: one fixed synthetic input per document, rendered
//! through the writer and compared against the exact text the documents
//! have. A determinism check builds the soak, fleet, chaos and drift
//! documents from two independent runs and requires the same bytes, which
//! is what lets the committed documents serve as goldens.

use hidp_bench::*;
use hidp_core::{LatencySummary, RobustnessStats};

fn serving_input() -> (
    Vec<ServingGridPoint>,
    Vec<ServingBatchingPoint>,
    Vec<ServingBatchingPoint>,
) {
    let grid = vec![
        ServingGridPoint {
            policy: "fifo".to_string(),
            max_batch: 1,
            failure: "static".to_string(),
            requests: 240,
            batches: 240,
            epochs: 0,
            makespan_s: 12.5,
            requests_per_second: 19.2,
            p50_ms: 310.25,
            p99_ms: 1020.5,
            mean_queueing_ms: 150.125,
            sla_miss_rate: 0.25,
            premium_p99_ms: 980.0,
        },
        ServingGridPoint {
            policy: "edf-batch4".to_string(),
            max_batch: 4,
            failure: "flap".to_string(),
            requests: 240,
            batches: 75,
            epochs: 4,
            makespan_s: 10.0,
            requests_per_second: 24.0,
            p50_ms: 200.5,
            p99_ms: 700.75,
            mean_queueing_ms: 90.0,
            sla_miss_rate: 0.0,
            premium_p99_ms: 450.5,
        },
    ];
    let batching = vec![
        ServingBatchingPoint {
            max_batch: 1,
            requests: 64,
            batches: 64,
            requests_per_second: 20.0,
            p99_ms: 400.0,
            speedup_vs_unbatched: 1.0,
        },
        ServingBatchingPoint {
            max_batch: 8,
            requests: 64,
            batches: 8,
            requests_per_second: 31.5,
            p99_ms: 250.25,
            speedup_vs_unbatched: 1.575,
        },
    ];
    let batching_compute = vec![ServingBatchingPoint {
        max_batch: 4,
        requests: 64,
        batches: 16,
        requests_per_second: 11.0,
        p99_ms: 800.5,
        speedup_vs_unbatched: 1.1,
    }];
    (grid, batching, batching_compute)
}

fn soak_input() -> Vec<SoakPoint> {
    vec![
        SoakPoint {
            config: "fifo-batch8".to_string(),
            requests: 50000,
            batches: 7000,
            sim_makespan_s: 2800.5,
            sim_requests_per_second: 17.85,
            p50_ms: 420.0,
            p99_ms: 2100.5,
            mean_queueing_ms: 300.25,
            sla_miss_rate: 0.125,
            steady_state_allocs: Some(0),
        },
        SoakPoint {
            config: "edf-batch8".to_string(),
            requests: 50000,
            batches: 6900,
            sim_makespan_s: 2801.0,
            sim_requests_per_second: 17.75,
            p50_ms: 400.0,
            p99_ms: 1900.0,
            mean_queueing_ms: 280.0,
            sla_miss_rate: 0.0625,
            steady_state_allocs: None,
        },
    ]
}

fn fleet_point(routing: &str, allocs: Option<u64>) -> FleetPoint {
    FleetPoint {
        routing: routing.to_string(),
        requests: 12000,
        clusters: 8,
        sim_requests_per_second: 48.25,
        p50_ms: 350.5,
        p99_ms: 1500.0,
        mean_queueing_ms: 120.125,
        mean_wan_ms: 12.5,
        sla_miss_rate: 0.03125,
        busiest_cluster_requests: 2400,
        idlest_cluster_requests: 900,
        steady_state_allocs: allocs,
    }
}

fn fleet_input() -> (Vec<FleetPoint>, FleetPoint) {
    (
        vec![
            fleet_point("random", Some(0)),
            fleet_point("least-loaded", Some(3)),
        ],
        fleet_point("least-loaded", None),
    )
}

fn robustness(offered: u64, lost: u64) -> RobustnessStats {
    RobustnessStats {
        offered,
        completed: offered - lost - 2,
        shed: 1,
        aborted: 1,
        lost,
        killed: 7,
        retried: 5,
        in_flight_at_horizon: 0,
    }
}

fn chaos_input() -> Vec<ChaosPoint> {
    vec![
        ChaosPoint {
            config: "retry-failover".to_string(),
            requests: 8000,
            robustness: robustness(8000, 0),
            sla_goodput: 0.9375,
            p99_ms: 1800.5,
            sla_miss_rate: 0.0625,
            makespan_s: 900.25,
            time_to_first_retry_s: Some(12.75),
            recovery_latency: Some(LatencySummary {
                count: 5,
                p50: 0.5,
                p95: 1.25,
                p99: 1.5,
                mean: 0.75,
            }),
            steady_state_allocs: Some(0),
        },
        ChaosPoint {
            config: "no-recovery".to_string(),
            requests: 8000,
            robustness: robustness(8000, 6),
            sla_goodput: 0.875,
            p99_ms: 1700.0,
            sla_miss_rate: 0.125,
            makespan_s: 899.5,
            time_to_first_retry_s: None,
            recovery_latency: None,
            steady_state_allocs: None,
        },
    ]
}

fn drift_input() -> (Vec<DriftPoint>, DriftBanditReport) {
    let point = |config: &str, replans: u32, allocs: Option<u64>| DriftPoint {
        config: config.to_string(),
        requests: 4000,
        batches: 700,
        p50_ms: 410.5,
        p99_ms: 2050.25,
        sla_miss_rate: 0.1875,
        makespan_s: 400.5,
        dynamic_energy_j: 1234.5,
        total_energy_j: 5678.25,
        replans,
        observations: 98765,
        robustness: RobustnessStats {
            offered: 4000,
            completed: 4000,
            ..RobustnessStats::default()
        },
        steady_state_allocs: allocs,
    };
    (
        vec![
            point("static-drift", 0, Some(0)),
            point("adaptive-drift", 3, None),
        ],
        DriftBanditReport {
            arms: vec!["default".to_string(), "fast-ewma".to_string()],
            pulls: vec![5, 3],
            p99_ms: vec![2050.25, 2100.5],
            best: "default".to_string(),
            episodes: 8,
        },
    )
}

fn tables_input() -> Vec<ExperimentTable> {
    let mut first = ExperimentTable::new(
        "Quote \" backslash \\ newline \n tab \t bell \u{7}",
        "ms",
        vec!["a".to_string(), "b \"c\"".to_string(), "d".to_string()],
    );
    first.push_row("r1", vec![1.0, 250.5, -0.125]);
    first.push_row("r2 \\ x", vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY]);
    let empty = ExperimentTable::new("empty", "-", vec!["x".to_string()]);
    vec![first, empty]
}

/// Writes `document` the way the experiment binaries do and returns the
/// file's text.
fn written(name: &str, document: &Json) -> String {
    let path =
        std::env::temp_dir().join(format!("hidp-bench-golden-{}-{name}", std::process::id()));
    write_bench(&path, document).expect("temp dir is writable");
    let text = std::fs::read_to_string(&path).expect("document was written");
    std::fs::remove_file(&path).expect("document is removable");
    text
}

#[test]
fn bench_serving_document_is_byte_identical() {
    let document = {
        let (grid, batching, compute) = serving_input();
        serving_document(&grid, &batching, &compute, 240)
    };
    assert_eq!(written("serving", &document), GOLDEN_SERVING);
}

#[test]
fn bench_soak_document_is_byte_identical() {
    let document = soak_document(&soak_input());
    assert_eq!(written("soak", &document), GOLDEN_SOAK);
}

#[test]
fn bench_fleet_document_is_byte_identical() {
    let document = {
        let (routing, soak) = fleet_input();
        fleet_document(&routing, &soak)
    };
    assert_eq!(written("fleet", &document), GOLDEN_FLEET);
}

#[test]
fn bench_chaos_document_is_byte_identical() {
    let document = chaos_document(&chaos_input(), 0xC4405);
    assert_eq!(written("chaos", &document), GOLDEN_CHAOS);
}

#[test]
fn bench_drift_document_is_byte_identical() {
    let document = {
        let (points, bandit) = drift_input();
        drift_document(&points, &bandit, 0xD21F7)
    };
    assert_eq!(written("drift", &document), GOLDEN_DRIFT);
}

/// The soak, fleet, chaos and drift documents of one small run of each
/// experiment: the shapes the binaries run, at sizes a debug build runs in
/// seconds.
fn small_run_documents() -> [String; 4] {
    const CHAOS_SEED: u64 = 0xC4405;
    const DRIFT_SEED: u64 = 0xD21F7;
    let soak: Vec<SoakPoint> = soak_points(400, None)
        .into_iter()
        .map(|(point, _)| point)
        .collect();
    let routing = fleet_routing_points(400, 4, 2, 1.8, None);
    let (fleet_soak, _) = fleet_soak_point(400, 4, 2, 1.8, 2);
    let chaos = chaos_points(400, 4, 2, 1.2, CHAOS_SEED, None);
    let drift = drift_points(300, DRIFT_SEED, None);
    let bandit = drift_bandit(300, DRIFT_SEED, 5);
    [
        soak_document(&soak),
        fleet_document(&routing, &fleet_soak),
        chaos_document(&chaos, CHAOS_SEED),
        drift_document(&drift, &bandit, DRIFT_SEED),
    ]
    .map(|document| document.to_string())
}

#[test]
fn bench_documents_are_deterministic_across_runs() {
    let first = small_run_documents();
    let second = small_run_documents();
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(a, b, "two runs rendered different documents");
    }
}

#[test]
fn table_dump_is_byte_identical() {
    assert_eq!(tables_input().to_json().to_string(), GOLDEN_TABLES);
}

#[test]
fn every_perf_table_reads_its_columns_from_the_points() {
    let (grid, batching, _) = serving_input();
    let (routing, _) = fleet_input();
    let (drift, _) = drift_input();
    // Building a table panics on a column key its points do not have.
    let tables = [
        serving_table(&grid),
        serving_batching_table(&batching, "batching"),
        soak_table(&soak_input()),
        fleet_table(&routing),
        chaos_table(&chaos_input()),
        drift_table(&drift),
    ];
    let chaos = &tables[4];
    assert_eq!(chaos.value("no-recovery", "robustness.lost"), Some(6.0));
    assert_eq!(
        chaos.value("retry-failover", "recovery_latency.p99_ms"),
        Some(1500.0)
    );
    let absent = chaos.value("no-recovery", "recovery_latency.p99_ms");
    assert!(absent.is_some_and(f64::is_nan));
    assert_eq!(
        tables[5].value("adaptive-drift", "drift.replans"),
        Some(3.0)
    );
}

const GOLDEN_SERVING: &str = r#"{
  "benchmark": "serving",
  "workload": "bursty Mix-5 traffic: 240 requests in bursts of 8 (one model per burst, 0.4 s apart), SLA classes cycling premium/standard/best_effort, HiDP planning, admission window 2",
  "points": [
    {"policy": "fifo", "max_batch": 1, "failure": "static", "requests": 240, "batches": 240, "epochs": 0, "makespan_s": 12.5, "requests_per_second": 19.2, "p50_ms": 310.25, "p99_ms": 1020.5, "mean_queueing_ms": 150.125, "sla_miss_rate": 0.25, "premium_p99_ms": 980},
    {"policy": "edf-batch4", "max_batch": 4, "failure": "flap", "requests": 240, "batches": 75, "epochs": 4, "makespan_s": 10, "requests_per_second": 24, "p50_ms": 200.5, "p99_ms": 700.75, "mean_queueing_ms": 90, "sla_miss_rate": 0, "premium_p99_ms": 450.5}
  ],
  "batching_workload": "Inception-V3 burst train (bursts of 8, 0.3 s apart), serial dispatch window (max_inflight 1), FIFO",
  "batching": [
    {"max_batch": 1, "requests": 64, "batches": 64, "requests_per_second": 20, "p99_ms": 400, "speedup_vs_unbatched": 1},
    {"max_batch": 8, "requests": 64, "batches": 8, "requests_per_second": 31.5, "p99_ms": 250.25, "speedup_vs_unbatched": 1.575}
  ],
  "batching_compute_workload": "ResNet-152 burst train (bursts of 8, 0.3 s apart), serial dispatch window (max_inflight 1), FIFO — compute-bound, wins via the sublinear batch cost model",
  "batching_compute": [
    {"max_batch": 4, "requests": 64, "batches": 16, "requests_per_second": 11, "p99_ms": 800.5, "speedup_vs_unbatched": 1.1}
  ]
}
"#;

const GOLDEN_SOAK: &str = r#"{
  "benchmark": "soak",
  "workload": "diurnal Mix-5 trace (trough 8 req/s, peak 24 req/s around the ~18 req/s service capacity, 2000 s period, seed 42), SLA classes cycling, HiDP planning, max_batch 8, admission window 4, streaming mode (no per-request records, log-linear latency histograms)",
  "points": [
    {"config": "fifo-batch8", "requests": 50000, "batches": 7000, "sim_makespan_s": 2800.5, "sim_requests_per_second": 17.85, "p50_ms": 420, "p99_ms": 2100.5, "mean_queueing_ms": 300.25, "sla_miss_rate": 0.125, "steady_state_allocs": 0},
    {"config": "edf-batch8", "requests": 50000, "batches": 6900, "sim_makespan_s": 2801, "sim_requests_per_second": 17.75, "p50_ms": 400, "p99_ms": 1900, "mean_queueing_ms": 280, "sla_miss_rate": 0.0625, "steady_state_allocs": null}
  ]
}
"#;

const GOLDEN_FLEET: &str = r#"{
  "benchmark": "fleet",
  "workload": "skewed regional diurnal trace (region weights 4/2/1/..., phase-shifted sinusoidal rates, seed 42), Mix-5 model cycle, SLA classes cycling, HiDP planning, EDF admission, max_batch 8, window 4 per cluster, 1 s router rounds",
  "routing_points": [
    {"routing": "random", "requests": 12000, "clusters": 8, "sim_requests_per_second": 48.25, "p50_ms": 350.5, "p99_ms": 1500, "mean_queueing_ms": 120.125, "mean_wan_ms": 12.5, "sla_miss_rate": 0.03125, "busiest_cluster_requests": 2400, "idlest_cluster_requests": 900, "steady_state_allocs": 0},
    {"routing": "least-loaded", "requests": 12000, "clusters": 8, "sim_requests_per_second": 48.25, "p50_ms": 350.5, "p99_ms": 1500, "mean_queueing_ms": 120.125, "mean_wan_ms": 12.5, "sla_miss_rate": 0.03125, "busiest_cluster_requests": 2400, "idlest_cluster_requests": 900, "steady_state_allocs": 3}
  ],
  "soak": {"routing": "least-loaded", "requests": 12000, "clusters": 8, "sim_requests_per_second": 48.25, "p50_ms": 350.5, "p99_ms": 1500, "mean_queueing_ms": 120.125, "mean_wan_ms": 12.5, "sla_miss_rate": 0.03125, "busiest_cluster_requests": 2400, "idlest_cluster_requests": 900, "steady_state_allocs": null}
}
"#;

const GOLDEN_CHAOS: &str = r#"{
  "benchmark": "chaos",
  "workload": "skewed regional diurnal trace (fleet comparison shape), least-loaded routing, EDF admission, max_batch 8, window 4 per cluster; seeded fault suite: node flaps on every cluster, a correlated rack outage on cluster 0, a straggler window on cluster 1, fleet-wide WAN degradation",
  "fault_seed": 803845,
  "points": [
    {"config": "retry-failover", "requests": 8000, "robustness": {"offered": 8000, "completed": 7998, "shed": 1, "aborted": 1, "lost": 0, "killed": 7, "retried": 5, "in_flight_at_horizon": 0}, "sla_goodput": 0.9375, "p99_ms": 1800.5, "sla_miss_rate": 0.0625, "makespan_s": 900.25, "time_to_first_retry_s": 12.75, "recovery_latency": {"count": 5, "p50_ms": 500, "p95_ms": 1250, "p99_ms": 1500, "mean_ms": 750}, "steady_state_allocs": 0},
    {"config": "no-recovery", "requests": 8000, "robustness": {"offered": 8000, "completed": 7992, "shed": 1, "aborted": 1, "lost": 6, "killed": 7, "retried": 5, "in_flight_at_horizon": 0}, "sla_goodput": 0.875, "p99_ms": 1700, "sla_miss_rate": 0.125, "makespan_s": 899.5, "time_to_first_retry_s": null, "recovery_latency": null, "steady_state_allocs": null}
  ]
}
"#;

const GOLDEN_DRIFT: &str = r#"{
  "benchmark": "drift",
  "workload": "diurnal Mix-5 trace (soak shape), EDF admission, max_batch 8, window 4, paper cluster; seeded drift trace: two thermal throttle ramps (peak 3x), two background-load bursts (1.6x), one network-contention window (2x), leader protected",
  "drift_seed": 860663,
  "points": [
    {"config": "static-drift", "requests": 4000, "batches": 700, "p50_ms": 410.5, "p99_ms": 2050.25, "sla_miss_rate": 0.1875, "makespan_s": 400.5, "dynamic_energy_j": 1234.5, "total_energy_j": 5678.25, "drift": {"replans": 0, "observations": 98765, "energy_j": 1234.5}, "robustness": {"offered": 4000, "completed": 4000, "shed": 0, "aborted": 0, "lost": 0, "killed": 0, "retried": 0, "in_flight_at_horizon": 0}, "steady_state_allocs": 0},
    {"config": "adaptive-drift", "requests": 4000, "batches": 700, "p50_ms": 410.5, "p99_ms": 2050.25, "sla_miss_rate": 0.1875, "makespan_s": 400.5, "dynamic_energy_j": 1234.5, "total_energy_j": 5678.25, "drift": {"replans": 3, "observations": 98765, "energy_j": 1234.5}, "robustness": {"offered": 4000, "completed": 4000, "shed": 0, "aborted": 0, "lost": 0, "killed": 0, "retried": 0, "in_flight_at_horizon": 0}, "steady_state_allocs": null}
  ],
  "bandit": {
    "episodes": 8,
    "best": "default",
    "arms": [
      {"arm": "default", "pulls": 5, "p99_ms": 2050.25},
      {"arm": "fast-ewma", "pulls": 3, "p99_ms": 2100.5}
    ]
  }
}
"#;

const GOLDEN_TABLES: &str = r#"[
  {
    "title": "Quote \" backslash \\ newline \n tab \t bell \u0007",
    "unit": "ms",
    "columns": ["a", "b \"c\"", "d"],
    "rows": [
      ["r1", [1, 250.5, -0.125]],
      ["r2 \\ x", [null, null, null]]
    ]
  },
  {
    "title": "empty",
    "unit": "-",
    "columns": ["x"],
    "rows": [
    ]
  }
]"#;
