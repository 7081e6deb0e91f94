//! Regenerates every table and figure of the HiDP paper's evaluation and
//! prints them as markdown; `--json` appends the same tables as one JSON
//! array.

use hidp_bench::ToJson;

fn main() {
    let tables = vec![
        hidp_bench::table2_platform(),
        hidp_bench::fig1_partitioning_configs(),
        hidp_bench::fig5_latency(),
        hidp_bench::fig5_energy(),
        hidp_bench::fig6_dynamic_performance(),
        hidp_bench::fig7_mix_throughput(),
        hidp_bench::fig8_node_scaling(),
        hidp_bench::accuracy_equivalence(),
        hidp_bench::dse_overhead(),
        hidp_bench::ablation(),
        hidp_bench::poisson_stress(&[0.5, 1.0, 2.0, 4.0], 48, 42),
        {
            let scenarios = hidp_bench::serving_scenarios(240);
            let evaluations = hidp_bench::serving_evaluations(&scenarios, 0);
            hidp_bench::serving_table(&hidp_bench::serving_points(&scenarios, &evaluations))
        },
        hidp_bench::fleet_table(&hidp_bench::fleet_routing_points(12_000, 8, 4, 1.8, None)),
    ];
    for table in &tables {
        println!("{}", table.to_markdown());
    }
    if std::env::args().any(|a| a == "--json") {
        println!("{}", tables.to_json());
    }
}
