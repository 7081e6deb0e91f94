//! Tests of the benchmark's own code: seeded inputs, metric names, the
//! timing strategy wrapper, and agreement with `BENCHMARK.json`.

use hidp_core::{DistributedStrategy, HidpStrategy};
use perfbench::run::{run, Config, END_TO_END, PER_LAYER};
use perfbench::workload::{
    fleet_trace, serving_trace, Instance, Sizes, Workload, FLEET_THREADS, MODELS,
};
use perfbench::TimedStrategy;
use std::collections::BTreeSet;
use std::time::Instant;

/// The `name` values of one array section (`"end_to_end"`, `"per_layer"`,
/// `"workloads"`) of `BENCHMARK.json`.
fn benchmark_json_names(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits next to perfbench/");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{section}`"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("the section is an array")];
    body.split("\"name\"")
        .skip(1)
        .map(|rest| {
            let value = &rest[rest.find('"').expect("a quoted name") + 1..];
            value[..value.find('"').expect("a closing quote")].to_string()
        })
        .collect()
}

fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn seeds_change_arrivals_but_not_the_request_count_or_mix() {
    let a = serving_trace(6_000, 1);
    let b = serving_trace(6_000, 2);
    assert_eq!(a.len(), b.len());
    assert_ne!(
        a.iter().map(|r| r.arrival).collect::<Vec<_>>(),
        b.iter().map(|r| r.arrival).collect::<Vec<_>>()
    );
    assert_eq!(a, serving_trace(6_000, 1), "a seed replays its trace");
    for trace in [&a, &b] {
        // SLA classes cycle, so their counts are fixed; every model of the
        // mix is drawn with about its uniform share.
        let classes: Vec<usize> = (0..3)
            .map(|c| trace.iter().filter(|r| r.sla.priority() == c).count())
            .collect();
        assert_eq!(classes, vec![2_000; 3]);
        for model in MODELS {
            let share = trace.iter().filter(|r| r.model == model).count() as f64 / 6_000.0;
            assert!((share - 1.0 / 3.0).abs() < 0.03, "{model:?} share {share}");
        }
        assert!(trace.iter().all(|r| r.batch == 1));
    }

    let fa = fleet_trace(4_000, 4, 2, 1);
    let fb = fleet_trace(4_000, 4, 2, 2);
    assert_eq!(fa.len(), fb.len());
    assert_ne!(
        fa.iter().map(|r| r.request.arrival).collect::<Vec<_>>(),
        fb.iter().map(|r| r.request.arrival).collect::<Vec<_>>()
    );
    for trace in [&fa, &fb] {
        let regions: BTreeSet<usize> = trace.iter().map(|r| r.region).collect();
        assert_eq!(regions, BTreeSet::from([0, 1]));
        let models: BTreeSet<String> = trace
            .iter()
            .map(|r| format!("{:?}", r.request.model))
            .collect();
        assert_eq!(models.len(), MODELS.len());
    }
}

#[test]
fn metric_names_are_well_formed_and_unique() {
    let names: Vec<&str> = END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .map(|m| m.0)
        .collect();
    for name in &names {
        assert!(valid_metric_name(name), "bad metric name `{name}`");
    }
    let unique: BTreeSet<&str> = names.iter().copied().collect();
    assert_eq!(unique.len(), names.len(), "metric names repeat");
    assert!(END_TO_END.contains(&("setup_s", "s", "lower")));
}

#[test]
fn benchmark_json_matches_the_code() {
    let workloads = benchmark_json_names("workloads");
    let expected: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, expected);
    let end_to_end = benchmark_json_names("end_to_end");
    assert_eq!(
        end_to_end,
        END_TO_END
            .iter()
            .map(|m| m.0.to_string())
            .collect::<Vec<_>>()
    );
    let per_layer = benchmark_json_names("per_layer");
    assert_eq!(
        per_layer,
        PER_LAYER
            .iter()
            .map(|m| m.0.to_string())
            .collect::<Vec<_>>()
    );
}

#[test]
fn every_listed_metric_is_emitted_on_every_workload() {
    let end_to_end = benchmark_json_names("end_to_end");
    let per_layer = benchmark_json_names("per_layer");
    for workload in Workload::ALL {
        for (trace, listed) in [(false, &end_to_end), (true, &per_layer)] {
            let config = Config {
                workload,
                seed: 7,
                seconds: 0.0,
                trace,
                sizes: Sizes::SMALL,
            };
            let report = run(&config, Instant::now())
                .unwrap_or_else(|e| panic!("{} trace={trace}: {e}", workload.name()));
            let emitted: Vec<String> = report.metrics.iter().map(|m| m.name.to_string()).collect();
            assert_eq!(&emitted, listed, "{} trace={trace}", workload.name());
            assert!(report.metrics.iter().all(|m| m.value.is_finite()));
            assert!(report.attempted > 0);
            if !trace {
                assert!(
                    report.failed_checks.is_empty(),
                    "{}: {:?}",
                    workload.name(),
                    report.failed_checks
                );
            }
        }
    }
}

#[test]
fn timed_strategy_changes_no_result_on_any_workload() {
    let plain = HidpStrategy::new();
    let timed = TimedStrategy::new(HidpStrategy::new());
    assert_eq!(timed.name(), plain.name());
    assert_eq!(timed.cache_config(), plain.cache_config());
    let mut buffer = String::from("stale");
    timed.write_cache_config(&mut buffer);
    assert_eq!(buffer, plain.cache_config());

    for workload in Workload::ALL {
        let cold_pass = |strategy: &dyn DistributedStrategy| {
            Instance::build(workload, 11, &Sizes::SMALL)
                .and_then(|mut instance| instance.pass(strategy, FLEET_THREADS))
                .unwrap_or_else(|e| panic!("{}: {e}", workload.name()))
        };
        let expected = cold_pass(&plain);
        let wrapped = cold_pass(&timed);
        assert_eq!(wrapped, expected, "{}", workload.name());
        assert!(
            !timed.take_calls().is_empty(),
            "{}: a cold pass plans",
            workload.name()
        );
    }
}
