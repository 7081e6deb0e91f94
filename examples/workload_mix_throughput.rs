//! Workload-mix throughput: reproduce the Fig. 6 / Fig. 7 style streaming
//! experiments — the dynamic scenario (one model every 0.5 s) and the eight
//! workload mixes — and print throughput per strategy.
//!
//! ```sh
//! cargo run --example workload_mix_throughput
//! ```

use hidp::baselines::paper_strategies;
use hidp::platform::{presets, NodeIndex};
use hidp::sim::stats::performance_timeline;
use hidp::workloads::{dynamic_scenario, mixes, InferenceRequest};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cluster = presets::paper_cluster();
    let leader = NodeIndex(1);
    let strategies = paper_strategies();

    // Dynamic scenario (Fig. 6): four models arriving 0.5 s apart.
    println!("dynamic scenario (EfficientNet → Inception → ResNet → VGG, 0.5 s apart):");
    let dynamic = InferenceRequest::to_scenario(&dynamic_scenario()).with_label("dynamic");
    for strategy in &strategies {
        let eval = dynamic.run(strategy.as_ref(), &cluster, leader)?;
        let peak = performance_timeline(&eval.report, 0.5)
            .iter()
            .map(|b| b.gflops_per_second)
            .fold(0.0f64, f64::max);
        println!(
            "  {:<12} completes in {:>5.2} s, peak {:>6.1} GFLOP/s, energy {:>6.1} J",
            eval.strategy, eval.makespan, peak, eval.total_energy
        );
    }

    // Workload mixes (Fig. 7): throughput per 100 s. Each mix's requests
    // are a backlog released at t = 0, so this is service capacity, not the
    // arrival rate.
    println!("\nthroughput over the eight workload mixes [inferences / 100 s]:");
    print!("{:<8}", "mix");
    for strategy in &strategies {
        print!("{:>12}", strategy.name());
    }
    println!();
    for mix in mixes::all_mixes() {
        let scenario = mix.scenario(0.0, 16);
        print!("{:<8}", mix.name());
        for strategy in &strategies {
            let eval = scenario.run(strategy.as_ref(), &cluster, leader)?;
            print!("{:>12.0}", eval.throughput(100.0));
        }
        println!();
    }
    Ok(())
}
