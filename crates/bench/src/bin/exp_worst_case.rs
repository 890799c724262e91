//! E7: the Θ(n_b²) worst-case total-reversal bound cited in §1 (Busch et
//! al.): FR is quadratic on the away-chain where PR is linear; both are
//! quadratic — and exactly equal — on the alternating chain. The growth
//! exponent is fitted on a log–log scale.
//!
//! ```sh
//! cargo run --release -p lr-bench --bin exp_worst_case
//! ```

use lr_core::alg::FrontierFamily;
use lr_core::work::{fit_growth_exponent, measure_work, WorkRow};
use lr_graph::{stream, ReversalInstance};
use serde::Serialize;

#[derive(Serialize)]
struct FamilyResult {
    family: String,
    rows: Vec<WorkRow>,
    exponents: Vec<(String, f64)>,
}

fn sweep(family: &str, gen: fn(usize) -> ReversalInstance) -> FamilyResult {
    let kinds = [
        FrontierFamily::FullReversal,
        FrontierFamily::PartialReversal,
        FrontierFamily::NewPr,
    ];
    println!("--- {family} ---");
    let widths = [6usize, 6, 12, 12, 12];
    lr_bench::print_header(&widths, &["n", "n_b", "FR", "PR", "NewPR"]);
    let mut rows = Vec::new();
    let mut series: Vec<Vec<(f64, f64)>> = vec![Vec::new(); kinds.len()];
    for &n in &lr_bench::WORK_SIZES {
        let inst = gen(n);
        let mut cells = vec![n.to_string(), inst.initial_bad_nodes().to_string()];
        for (i, &kind) in kinds.iter().enumerate() {
            let row = measure_work(kind, &inst);
            series[i].push((row.n_b.max(1) as f64, row.total_reversals as f64));
            cells.push(row.total_reversals.to_string());
            rows.push(row);
        }
        lr_bench::print_row(&widths, &cells);
    }
    let mut exponents = Vec::new();
    print!("fitted exponents vs n_b: ");
    for (i, &kind) in kinds.iter().enumerate() {
        if series[i].iter().all(|&(_, y)| y > 0.0) {
            let k = fit_growth_exponent(&series[i]);
            print!("{} ≈ n_b^{k:.2}   ", kind.name());
            exponents.push((kind.name().to_string(), k));
        } else {
            print!("{}: zero work   ", kind.name());
            exponents.push((kind.name().to_string(), 0.0));
        }
    }
    println!("\n");
    FamilyResult {
        family: family.to_string(),
        rows,
        exponents,
    }
}

fn main() {
    println!("E7: worst-case total reversals, Θ(n_b²) (paper §1, citing Busch et al.)\n");
    let results = vec![
        sweep(
            "chain away from destination (FR worst case)",
            stream::chain_away,
        ),
        sweep(
            "alternating chain (PR worst case)",
            stream::alternating_chain,
        ),
        sweep("outward star (both linear)", |n| stream::star_away(n - 1)),
    ];

    println!("paper expectation: both FR and PR have Θ(n_b²) worst cases, but on");
    println!("different families; PR 'seems much more efficient' elsewhere (§1).");

    // Sanity assertions so the binary fails loudly if the shape breaks.
    let away = &results[0];
    assert!(
        away.exponents[0].1 > 1.8,
        "FR must be quadratic on away-chain"
    );
    assert!(away.exponents[1].1 < 1.3, "PR must be linear on away-chain");
    let alt = &results[1];
    assert!(alt.exponents[0].1 > 1.8 && alt.exponents[1].1 > 1.8);

    lr_bench::write_results("exp_worst_case", &results);
}
