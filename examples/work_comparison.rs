//! Work comparison across algorithms and graph families — a compact
//! version of the benchmark harness, reproducing the §1 complexity
//! picture: PR looks far cheaper than FR on typical inputs, yet both hit
//! the same Θ(n_b²) worst case.
//!
//! ```sh
//! cargo run --release --example work_comparison
//! ```

use link_reversal::core::alg::FrontierFamily;
use link_reversal::core::work::{fit_growth_exponent, measure_work};
use link_reversal::graph::{stream, ReversalInstance};

fn family(name: &str, gen: fn(usize) -> ReversalInstance, sizes: &[usize]) {
    println!("--- {name} ---");
    println!("{:>6} {:>10} {:>10} {:>10}", "n", "FR", "PR", "NewPR");
    let mut pts: Vec<(FrontierFamily, Vec<(f64, f64)>)> = [
        FrontierFamily::FullReversal,
        FrontierFamily::PartialReversal,
        FrontierFamily::NewPr,
    ]
    .into_iter()
    .map(|a| (a, Vec::new()))
    .collect();
    for &n in sizes {
        let inst = gen(n);
        let mut row = format!("{n:>6}");
        for (alg, series) in pts.iter_mut() {
            let w = measure_work(*alg, &inst);
            series.push((n as f64, w.total_reversals as f64));
            row.push_str(&format!(" {:>10}", w.total_reversals));
        }
        println!("{row}");
    }
    print!("growth exponents: ");
    for (alg, series) in &pts {
        if series.iter().all(|&(_, y)| y > 0.0) {
            print!("{} ≈ n^{:.2}  ", alg.name(), fit_growth_exponent(series));
        } else {
            print!("{}: no work  ", alg.name());
        }
    }
    println!("\n");
}

fn main() {
    let sizes = [16, 32, 64, 128, 256];
    family(
        "chain away from destination (FR's worst case)",
        stream::chain_away,
        &sizes,
    );
    family(
        "alternating chain (PR's worst case)",
        stream::alternating_chain,
        &sizes,
    );
    family(
        "random connected graphs (seed 1)",
        |n| stream::random_connected(n, n, 1),
        &sizes,
    );
    println!("Takeaway (paper §1): PR is linear where FR is quadratic on the away-chain,");
    println!("but on the alternating chain both fit the same Θ(n²) worst case.");
}
