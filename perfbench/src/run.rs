//! One benchmark run: set-up, timed passes, output checks, and (traced)
//! the per-layer replays.

use crate::layers::{self, AdmissionLog};
use crate::workload::{soak_scenario, Instance, Outcome, Sizes, Workload, FLEET_THREADS};
use crate::{allocations_on_this_thread, median, quantile, TimedStrategy};
use hidp_core::{
    DistributedStrategy, HidpStrategy, PlanCache, ServingRequest, ServingScratch, TraceDetail,
};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Fewest timed passes a run makes, whatever `--seconds` says.
pub const MIN_PASSES: usize = 3;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Wall seconds of timed passes.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
    /// Input sizes.
    pub sizes: Sizes,
}

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// The end-to-end metrics, emitted by the untraced run: `(name, unit,
/// better)`.
pub const END_TO_END: [(&str, &str, &str); 3] = [
    ("req_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

/// The per-layer metrics, emitted by the traced run: `(name, unit,
/// better)`.
pub const PER_LAYER: [(&str, &str, &str); 26] = [
    ("workloads.gen_s", "s", "lower"),
    ("plan.calls", "count", "lower"),
    ("plan.us_p50", "us", "lower"),
    ("plan.us_p90", "us", "lower"),
    ("plan.s_total", "s", "lower"),
    ("plan_cache.lookups_per_req", "count/req", "lower"),
    ("plan_cache.hit_ratio", "ratio", "higher"),
    ("plan_cache.lookup_ns", "ns", "lower"),
    ("serving.batch_mean", "req/batch", "higher"),
    ("serving.self_ns_per_req", "ns/req", "lower"),
    ("observe.ns_per_req", "ns/req", "lower"),
    ("sim_engine.tasks_per_req", "tasks/req", "lower"),
    ("sim_engine.ns_per_task", "ns/task", "lower"),
    ("records.ns_per_req", "ns/req", "lower"),
    ("fleet.rounds", "count", "lower"),
    ("fleet.barrier_us_per_round", "us/round", "lower"),
    ("fleet.barrier_allocs_per_round", "allocs/round", "lower"),
    ("fleet.parallel_speedup", "x", "higher"),
    ("adaptive.observations_per_req", "count/req", "lower"),
    ("adaptive.replans", "count", "lower"),
    ("recovery.killed", "count", "lower"),
    ("recovery.retried", "count", "lower"),
    ("recovery.dropped", "count", "lower"),
    ("robust.overhead_ns_per_req", "ns/req", "lower"),
    ("alloc.per_pass", "count", "lower"),
    ("trace.overhead_pct", "%", "lower"),
];

/// The result of one run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Timed passes made (plain and, when traced, timed-strategy).
    pub passes: usize,
    /// Requests offered over the timed passes.
    pub attempted: u64,
    /// Offered requests that did not complete (shed, aborted, lost,
    /// refused) over the timed passes.
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Output checks that failed, by name.
    pub failed_checks: Vec<String>,
    /// Human-readable lines: simulated model outputs and ungated numbers.
    pub notes: Vec<String>,
}

/// Failed output checks, by name, in a stable order.
#[derive(Default)]
struct Checks(BTreeSet<String>);

impl Checks {
    fn require(&mut self, ok: bool, name: &str) {
        if !ok {
            self.0.insert(name.to_string());
        }
    }
}

/// The cost of one timed pass (its outcome is checked, then dropped, so
/// memory does not grow with the pass count).
struct Pass {
    seconds: f64,
    allocs: u64,
}

fn timed_pass(
    instance: &mut Instance,
    strategy: &dyn DistributedStrategy,
    threads: usize,
) -> Result<(Pass, Outcome), String> {
    let allocs_before = allocations_on_this_thread();
    let start = Instant::now();
    let outcome = instance.pass(strategy, threads)?;
    let seconds = start.elapsed().as_secs_f64();
    let allocs = allocations_on_this_thread() - allocs_before;
    Ok((Pass { seconds, allocs }, outcome))
}

/// Peak resident memory of this process (VmHWM), MB; 0 when unreadable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs the benchmark once. `process_start` is when the process started:
/// the first set-up is measured from it.
///
/// # Errors
///
/// Returns a message when inputs cannot be generated or a pass fails
/// outright; failed output checks are reported in [`Report::failed_checks`]
/// instead.
pub fn run(config: &Config, process_start: Instant) -> Result<Report, String> {
    let workload = config.workload;
    let plain = HidpStrategy::new();
    let timed = TimedStrategy::new(HidpStrategy::new());
    let setup_strategy: &dyn DistributedStrategy = if config.trace { &timed } else { &plain };
    let mut checks = Checks::default();

    // Set-up: input generation, scenario construction, cold planning and
    // scratch sizing (the warm pass), repeated; the last one is kept.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut gen_s = Vec::with_capacity(SETUP_REPS);
    let mut plan_calls = Vec::new();
    let mut state = None;
    for rep in 0..SETUP_REPS {
        // Free the previous set-up first, so the peak resident memory holds
        // one instance.
        drop(state.take());
        let start = if rep == 0 {
            process_start
        } else {
            Instant::now()
        };
        let gen_start = Instant::now();
        let mut instance = Instance::build(workload, config.seed, &config.sizes)?;
        gen_s.push(gen_start.elapsed().as_secs_f64());
        timed.take_calls();
        let warm = instance.pass(setup_strategy, 1)?;
        setup_s.push(start.elapsed().as_secs_f64());
        plan_calls = timed.take_calls();
        state = Some((instance, warm));
    }
    let (mut instance, warm) = state.expect("at least one set-up ran");
    let warm_outputs = warm.without_cache_stats();
    let requests = instance.requests();

    // Timed passes, on one thread: with two threads on a shared two-CPU
    // host the fleet's per-round barrier turns every bit of interference
    // into a stall (run-to-run spread measured at 10–24% versus 6% on one
    // thread); the two-thread pass is checked and traced below. The traced
    // run alternates plain and timed-strategy passes so the tracing
    // overhead reads off the same window.
    let deadline = Instant::now() + Duration::from_secs_f64(config.seconds.max(0.0));
    let mut plain_passes: Vec<Pass> = Vec::new();
    let mut traced_passes: Vec<Pass> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut last = None;
    loop {
        let enough = plain_passes.len() >= MIN_PASSES
            && (!config.trace || traced_passes.len() >= MIN_PASSES);
        if enough && Instant::now() >= deadline {
            break;
        }
        let use_timed = config.trace && traced_passes.len() < plain_passes.len();
        let strategy: &dyn DistributedStrategy = if use_timed { &timed } else { &plain };
        let (pass, outcome) = timed_pass(&mut instance, strategy, 1)?;
        let robustness = outcome.robustness();
        attempted += robustness.offered;
        failed += robustness.offered - robustness.completed;
        checks.require(
            robustness.accounts_for_every_request(),
            "RobustnessStats::accounts_for_every_request",
        );
        checks.require(
            robustness.completed == robustness.offered,
            "completed == offered",
        );
        let same = outcome.without_cache_stats() == warm_outputs;
        if use_timed {
            checks.require(same, "timed-strategy pass equals the plain pass");
        } else {
            checks.require(
                same,
                "warm and timed passes equal apart from plan-cache stats",
            );
        }
        if workload.must_not_allocate() {
            checks.require(pass.allocs == 0, "zero timed-pass allocations");
        }
        if use_timed {
            traced_passes.push(pass);
        } else {
            plain_passes.push(pass);
            last = Some(outcome);
        }
    }
    let last = last.expect("at least one plain pass ran");
    timed.take_calls();

    // Fleet: the same inputs on the parallel sweep must give the same
    // summary; the traced run times these passes for the speed-up.
    let mut parallel_s = Vec::new();
    if workload == Workload::Fleet {
        let reps = if config.trace { MIN_PASSES } else { 1 };
        for _ in 0..reps {
            let (pass, outcome) = timed_pass(&mut instance, &plain, FLEET_THREADS)?;
            checks.require(
                outcome.without_cache_stats() == warm_outputs,
                "fleet summary equal at 1 and 2 threads",
            );
            parallel_s.push(pass.seconds);
        }
    }

    // Throughput is the fastest pass: on a shared host interference only
    // ever slows a pass, so the best of N is the steadiest estimate of the
    // program's own speed.
    let rates = |passes: &[Pass]| -> Vec<f64> {
        passes.iter().map(|p| requests as f64 / p.seconds).collect()
    };
    let pass_rates = rates(&plain_passes);
    let req_per_s = quantile(&pass_rates, 1.0);
    let outputs = warm.model_outputs();
    let mut notes = vec![
        format!(
            "{} plain timed passes of {requests} requests: req/s min={} median={} max={}; set-ups s={setup_s:?}",
            plain_passes.len(),
            quantile(&pass_rates, 0.0),
            median(&pass_rates),
            req_per_s,
        ),
        format!(
            "model outputs (simulated; printed, not gated): p50_ms={} p99_ms={} miss_rate={} makespan_s={} energy_j={}",
            outputs.p50_ms, outputs.p99_ms, outputs.miss_rate, outputs.makespan_s, outputs.energy_j
        ),
        format!(
            "error_rate={} ratio (lower is better; (offered - completed) / offered over the timed passes)",
            failed as f64 / attempted.max(1) as f64
        ),
    ];

    let metrics = if config.trace {
        let layer = LayerInputs {
            config,
            instance: &instance,
            last: &last,
            requests,
            plain_pass_s: median(&plain_passes.iter().map(|p| p.seconds).collect::<Vec<_>>()),
            parallel_s: median(&parallel_s),
            gen_s: median(&gen_s),
            plan_calls: &plan_calls,
            alloc_per_pass: median(
                &plain_passes
                    .iter()
                    .map(|p| p.allocs as f64)
                    .collect::<Vec<_>>(),
            ),
            trace_overhead_pct: (1.0 - quantile(&rates(&traced_passes), 1.0) / req_per_s) * 100.0,
            strategy: &plain,
        };
        let metrics = per_layer(&layer, &mut checks, &mut notes)?;
        debug_assert!(metrics
            .iter()
            .map(|m| m.name)
            .eq(PER_LAYER.iter().map(|m| m.0)));
        metrics
    } else {
        let values = [req_per_s, median(&setup_s), peak_rss_mb()];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit, _), value)| Metric { name, unit, value })
            .collect()
    };
    for metric in &metrics {
        checks.require(metric.value.is_finite(), "every metric is finite");
    }

    Ok(Report {
        passes: plain_passes.len() + traced_passes.len(),
        attempted,
        failed,
        metrics,
        failed_checks: checks.0.into_iter().collect(),
        notes,
    })
}

/// What the traced run measured before the layer replays.
struct LayerInputs<'a> {
    config: &'a Config,
    instance: &'a Instance,
    last: &'a Outcome,
    requests: usize,
    plain_pass_s: f64,
    parallel_s: f64,
    gen_s: f64,
    plan_calls: &'a [f64],
    alloc_per_pass: f64,
    trace_overhead_pct: f64,
    strategy: &'a HidpStrategy,
}

/// The records-mode admission log the layer replays run over: the pass
/// itself on `replay`; on the others a soak-shaped records run over (a
/// prefix of) the workload's requests — for `fleet`, every `clusters`-th
/// request on the fleet's first cluster, about one cluster's share.
fn admission_log(inputs: &LayerInputs<'_>) -> Result<AdmissionLog, String> {
    let sizes = &inputs.config.sizes;
    let strategy = inputs.strategy;
    match inputs.instance {
        Instance::Records {
            scenario, cluster, ..
        } => AdmissionLog::record(scenario, cluster, strategy),
        Instance::Streaming {
            scenario, cluster, ..
        } => {
            let prefix = &scenario.requests()[..sizes.log_requests.min(scenario.len())];
            let log = soak_scenario(prefix.to_vec()).with_trace_detail(TraceDetail::Summary);
            AdmissionLog::record(&log, cluster, strategy)
        }
        Instance::Fleet {
            scenario, fleet, ..
        } => {
            let share: Vec<ServingRequest> = scenario
                .requests()
                .iter()
                .step_by(fleet.clusters().len().max(1))
                .take(sizes.log_requests)
                .map(|r| r.request)
                .collect();
            let log = soak_scenario(share).with_trace_detail(TraceDetail::Summary);
            AdmissionLog::record(&log, &fleet.clusters()[0], strategy)
        }
    }
}

fn per_layer(
    inputs: &LayerInputs<'_>,
    checks: &mut Checks,
    notes: &mut Vec<String>,
) -> Result<Vec<Metric>, String> {
    let workload = inputs.config.workload;
    let strategy = inputs.strategy;
    let n = inputs.requests as f64;
    let last = inputs.last;

    let plan_us: Vec<f64> = inputs.plan_calls.iter().map(|s| s * 1e6).collect();
    let plan_s_total: f64 = inputs.plan_calls.iter().sum();
    let cache = last.plan_cache();
    let lookups_per_req = cache.lookups() as f64 / n;

    let log = admission_log(inputs)?;
    let lookup_ns = log.lookup_ns(strategy)?;
    let observe_ns = match workload {
        Workload::Soak | Workload::Chaos => log.streaming_observe_ns(),
        Workload::Fleet => log.histogram_observe_ns(),
        Workload::Replay => 0.0,
    };
    let (tasks, engine_ns_per_task, records_ns) = if workload == Workload::Replay {
        let (tasks, ns) = match inputs.instance {
            Instance::Records { cluster, .. } => log.engine(strategy, cluster)?,
            _ => unreachable!("replay runs in records mode"),
        };
        (tasks, ns, log.records_ns())
    } else {
        (0, 0.0, 0.0)
    };

    let (rounds, barrier_us, barrier_allocs, speedup) = match last {
        Outcome::Fleet(summary) => {
            let clusters = inputs.config.sizes.fleet_clusters;
            let (us, allocs) = layers::barrier(summary.rounds, clusters, FLEET_THREADS);
            (
                summary.rounds as f64,
                us,
                allocs,
                inputs.plain_pass_s / inputs.parallel_s,
            )
        }
        _ => (0.0, 0.0, 0.0, 0.0),
    };

    // Serving self time: the pass minus the replayed layers it contains
    // (on fleet, routing stays in self time).
    let pass_ns = inputs.plain_pass_s * 1e9 / n;
    let mut self_ns = pass_ns - lookups_per_req * lookup_ns - observe_ns;
    if workload == Workload::Replay {
        self_ns -= plan_s_total * 1e9 / n + tasks as f64 * engine_ns_per_task / n + records_ns;
    }
    checks.require(self_ns >= 0.0, "serving.self_ns_per_req >= 0");

    let robust_overhead = if workload == Workload::Chaos {
        let Instance::Streaming {
            scenario, cluster, ..
        } = inputs.instance
        else {
            unreachable!("chaos runs in streaming mode")
        };
        let mut stripped = Instance::Streaming {
            scenario: soak_scenario(scenario.requests().to_vec()),
            cluster: cluster.clone(),
            cache: PlanCache::new(),
            scratch: ServingScratch::new(),
        };
        stripped.pass(strategy, 1)?;
        let mut seconds = Vec::with_capacity(MIN_PASSES);
        for _ in 0..MIN_PASSES {
            seconds.push(timed_pass(&mut stripped, strategy, 1)?.0.seconds);
        }
        (inputs.plain_pass_s - median(&seconds)) * 1e9 / n
    } else {
        0.0
    };

    let (observations, replans) = match last {
        Outcome::Streaming(s) => (s.drift.observations as f64, f64::from(s.drift.replans)),
        Outcome::Fleet(f) => (f.drift.observations as f64, f64::from(f.drift.replans)),
        Outcome::Records(_) => (0.0, 0.0),
    };
    let robustness = last.robustness();
    notes.push(format!(
        "layer replays over {} logged requests; pass {:.1} ns/req",
        log.requests(),
        pass_ns
    ));

    let values = [
        inputs.gen_s,
        plan_us.len() as f64,
        quantile(&plan_us, 0.5),
        quantile(&plan_us, 0.9),
        plan_s_total,
        lookups_per_req,
        cache.hit_rate(),
        lookup_ns,
        n / last.batches().max(1) as f64,
        self_ns,
        observe_ns,
        tasks as f64 / n,
        engine_ns_per_task,
        records_ns,
        rounds,
        barrier_us,
        barrier_allocs,
        speedup,
        observations / n,
        replans,
        robustness.killed as f64,
        robustness.retried as f64,
        robustness.dropped() as f64,
        robust_overhead,
        inputs.alloc_per_pass,
        inputs.trace_overhead_pct,
    ];
    Ok(PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit, _), value)| Metric { name, unit, value })
        .collect())
}
