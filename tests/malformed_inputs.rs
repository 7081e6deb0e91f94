//! Both tiers validate a cluster loop's inputs through one set of checks,
//! so a malformed input must be rejected the same way everywhere: one
//! table of malformed rows goes through `ServingScenario::run` (records
//! mode), `ServingScenario::run_streaming` and a one-cluster
//! `FleetScenario::run_streaming`, and every entry point must return `Err`
//! without panicking.

use hidp::core::{
    AdaptiveConfig, FailureMode, FleetScenario, RecoveryPolicy, RetryPolicy, ServingRequest,
    ServingScenario,
};
use hidp::platform::{
    presets, Cluster, ClusterTimeline, DriftModel, Fleet, Link, NetworkModel, NodeIndex,
    SlowdownWindow, ThrottleWindow, WanModel,
};
use hidp::workloads::FleetRequest;
use hidp::{HidpStrategy, WorkloadModel};
use std::panic::{catch_unwind, AssertUnwindSafe};

const LEADER: NodeIndex = NodeIndex(1);

/// Everything one row configures, for a single cluster.
struct Inputs {
    cluster: Cluster,
    requests: Vec<ServingRequest>,
    timeline: ClusterTimeline,
    slowdowns: Vec<SlowdownWindow>,
    drift: DriftModel,
    recovery: RecoveryPolicy,
    adaptive: Option<AdaptiveConfig>,
    failures: FailureMode,
}

impl Inputs {
    /// A well-formed records-mode-compatible baseline.
    fn valid() -> Self {
        Self {
            cluster: presets::paper_cluster(),
            requests: (0..4)
                .map(|i| ServingRequest::new(WorkloadModel::EfficientNetB0, i as f64 * 0.1))
                .collect(),
            timeline: ClusterTimeline::new(),
            slowdowns: Vec::new(),
            drift: DriftModel::default(),
            recovery: RecoveryPolicy::default(),
            adaptive: None,
            failures: FailureMode::Ignore,
        }
    }

    fn with_arrival(arrival: f64) -> Self {
        let mut inputs = Self::valid();
        inputs.requests[2].arrival = arrival;
        inputs
    }

    fn serving(&self) -> ServingScenario {
        let scenario = ServingScenario::new(self.requests.clone())
            .with_timeline(self.timeline.clone())
            .with_slowdowns(self.slowdowns.clone())
            .with_drift(self.drift.clone())
            .with_recovery(self.recovery)
            .with_failure_mode(self.failures);
        match self.adaptive {
            Some(adaptive) => scenario.with_adaptive(adaptive),
            None => scenario,
        }
    }

    fn fleet_scenario(&self) -> FleetScenario {
        let requests = self
            .requests
            .iter()
            .map(|&r| FleetRequest::new(r, 0))
            .collect();
        let scenario = FleetScenario::new(requests)
            .with_timelines(vec![self.timeline.clone()])
            .with_slowdowns(vec![self.slowdowns.clone()])
            .with_drifts(vec![self.drift.clone()])
            .with_recovery(self.recovery)
            .with_failure_mode(self.failures);
        match self.adaptive {
            Some(adaptive) => scenario.with_adaptive(adaptive),
            None => scenario,
        }
    }

    fn fleet(&self) -> Fleet {
        let wan = WanModel::uniform(1, Link::new(100.0, 10.0).unwrap()).unwrap();
        Fleet::new(vec![self.cluster.clone()], vec![0], wan).unwrap()
    }

    /// Whether each entry point accepted the inputs: `Some(ok)`, or `None`
    /// when it panicked.
    fn outcomes(&self) -> [(&'static str, Option<bool>); 3] {
        let strategy = HidpStrategy::new();
        let (serving, fleet_scenario, fleet) =
            (self.serving(), self.fleet_scenario(), self.fleet());
        let guard = |run: &dyn Fn() -> bool| catch_unwind(AssertUnwindSafe(run)).ok();
        [
            (
                "ServingScenario::run",
                guard(&|| serving.run(&strategy, &self.cluster, LEADER).is_ok()),
            ),
            (
                "ServingScenario::run_streaming",
                guard(&|| {
                    serving
                        .run_streaming(&strategy, &self.cluster, LEADER)
                        .is_ok()
                }),
            ),
            (
                "FleetScenario::run_streaming",
                guard(&|| {
                    fleet_scenario
                        .run_streaming(&strategy, &fleet, LEADER)
                        .is_ok()
                }),
            ),
        ]
    }
}

fn rows() -> Vec<(&'static str, Inputs)> {
    let unknown = NodeIndex(99);
    let paper = presets::paper_cluster();
    let sixty_five = Cluster::new(
        (0..65).map(|i| paper.nodes()[i % 5].clone()).collect(),
        NetworkModel::paper_wireless(),
    )
    .unwrap();
    let mut rows = vec![
        (
            "empty",
            Inputs {
                requests: Vec::new(),
                ..Inputs::valid()
            },
        ),
        ("NaN arrival", Inputs::with_arrival(f64::NAN)),
        ("negative arrival", Inputs::with_arrival(-1.0)),
        ("infinite arrival", Inputs::with_arrival(f64::INFINITY)),
        (
            "unknown timeline node",
            Inputs {
                timeline: ClusterTimeline::new().node_down(1.0, unknown).unwrap(),
                ..Inputs::valid()
            },
        ),
        (
            "unknown slowdown node",
            Inputs {
                slowdowns: vec![SlowdownWindow {
                    node: unknown,
                    start: 0.0,
                    end: 1.0,
                    factor: 2.0,
                }],
                ..Inputs::valid()
            },
        ),
        (
            "malformed drift",
            Inputs {
                drift: DriftModel {
                    throttles: vec![ThrottleWindow {
                        node: NodeIndex(0),
                        start: 5.0,
                        end: 1.0,
                        from_factor: 1.0,
                        to_factor: 2.0,
                    }],
                    ..DriftModel::default()
                },
                ..Inputs::valid()
            },
        ),
        (
            "invalid retry",
            Inputs {
                recovery: RecoveryPolicy {
                    retry: Some(RetryPolicy {
                        backoff_base_s: -1.0,
                        ..RetryPolicy::default()
                    }),
                    ..RecoveryPolicy::default()
                },
                ..Inputs::valid()
            },
        ),
        (
            "invalid adaptive",
            Inputs {
                adaptive: Some(AdaptiveConfig {
                    ewma_alpha: 0.0,
                    ..AdaptiveConfig::default()
                }),
                ..Inputs::valid()
            },
        ),
        (
            "kill on a 65-node cluster",
            Inputs {
                cluster: sixty_five,
                failures: FailureMode::Kill,
                ..Inputs::valid()
            },
        ),
    ];
    let mut batch_zero = Inputs::valid();
    batch_zero.requests[1].batch = 0;
    rows.push(("batch 0", batch_zero));
    rows
}

#[test]
fn the_valid_baseline_runs_through_every_entry_point() {
    for (entry, outcome) in Inputs::valid().outcomes() {
        assert_eq!(outcome, Some(true), "{entry}");
    }
}

#[test]
fn every_entry_point_rejects_every_malformed_row_without_panicking() {
    for (row, inputs) in rows() {
        for (entry, outcome) in inputs.outcomes() {
            match outcome {
                Some(accepted) => assert!(!accepted, "{entry} accepted the {row} row"),
                None => panic!("{entry} panicked on the {row} row"),
            }
        }
    }
}
