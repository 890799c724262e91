//! E9: NewPR's dummy-step overhead (§4.1: "This extra step in NewPR
//! causes it to incur a greater cost in certain situations, compared to
//! PR."). Dummy steps occur exactly when initial sinks/sources become
//! sinks with the "wrong" parity, so families rich in initial
//! sinks/sources show the largest overhead.
//!
//! ```sh
//! cargo run --release -p lr-bench --bin exp_dummy_overhead
//! ```

use lr_core::alg::FrontierFamily;
use lr_core::work::measure_work;
use lr_graph::{parse, stream, ReversalInstance};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    family: String,
    n: usize,
    pr_steps: usize,
    newpr_steps: usize,
    newpr_dummy: usize,
    overhead_pct: f64,
}

fn inward_star(leaves: usize) -> ReversalInstance {
    // Leaves point at the center; destination is one leaf. The center is
    // an initial sink and every other leaf an initial source — maximal
    // dummy-step density.
    let mut text = String::from("dest 1\n");
    for leaf in 1..=leaves {
        text.push_str(&format!("{leaf} > 0\n"));
    }
    parse::parse_instance(&text).expect("valid star")
}

fn main() {
    println!("E9: NewPR dummy steps vs PR steps (greedy schedule)\n");
    let widths = [26usize, 6, 10, 12, 10, 10];
    lr_bench::print_header(
        &widths,
        &[
            "family",
            "n",
            "PR steps",
            "NewPR steps",
            "dummy",
            "overhead",
        ],
    );
    let mut rows = Vec::new();
    let families: Vec<(String, ReversalInstance)> = vec![
        ("alternating_chain".into(), stream::alternating_chain(65)),
        ("chain_away".into(), stream::chain_away(65)),
        ("inward_star".into(), inward_star(64)),
        ("grid_away".into(), stream::grid_away(8, 8)),
        ("random n=64".into(), stream::random_connected(64, 64, 42)),
    ];
    for (family, inst) in families {
        let pr = measure_work(FrontierFamily::PartialReversal, &inst);
        let np = measure_work(FrontierFamily::NewPr, &inst);
        let overhead = if pr.steps > 0 {
            100.0 * (np.steps as f64 - pr.steps as f64) / pr.steps as f64
        } else {
            0.0
        };
        lr_bench::print_row(
            &widths,
            &[
                family.clone(),
                inst.node_count().to_string(),
                pr.steps.to_string(),
                np.steps.to_string(),
                np.dummy_steps.to_string(),
                format!("{overhead:.1}%"),
            ],
        );
        rows.push(Row {
            family,
            n: inst.node_count(),
            pr_steps: pr.steps,
            newpr_steps: np.steps,
            newpr_dummy: np.dummy_steps,
            overhead_pct: overhead,
        });
    }
    println!("\npaper expectation (§4.1): NewPR = PR plus dummy steps; the overhead is");
    println!("bounded by the number of initial sinks and sources re-stepping.");
    lr_bench::write_results("exp_dummy_overhead", &rows);
}
