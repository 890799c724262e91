//! E8: average-case comparison — PR vs FR vs NewPR total reversals on
//! random connected graphs of growing size and density (the "PR seems to
//! be much more efficient than FR" observation of §1).
//!
//! ```sh
//! cargo run --release -p lr-bench --bin exp_pr_vs_fr
//! ```

use lr_core::alg::FrontierFamily;
use lr_core::work::measure_work;
use lr_graph::stream;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    n: usize,
    density: &'static str,
    trials: usize,
    mean_nb: f64,
    fr_mean: f64,
    pr_mean: f64,
    newpr_mean: f64,
    fr_over_pr: f64,
}

fn main() {
    println!("E8: mean total reversals on random connected graphs (10 seeds each)\n");
    let widths = [6usize, 8, 8, 10, 10, 10, 9];
    lr_bench::print_header(
        &widths,
        &["n", "density", "mean_nb", "FR", "PR", "NewPR", "FR/PR"],
    );
    let mut rows = Vec::new();
    for &n in &[16usize, 32, 64, 128, 256] {
        for (density, extra) in [("sparse", n / 4), ("medium", n), ("dense", 3 * n)] {
            let trials = 10;
            let (mut fr, mut pr, mut np, mut nb) = (0.0, 0.0, 0.0, 0.0);
            for seed in 0..trials {
                let inst = stream::random_connected(n, extra, seed as u64 * 7919 + n as u64);
                nb += inst.initial_bad_nodes() as f64;
                fr += measure_work(FrontierFamily::FullReversal, &inst).total_reversals as f64;
                pr += measure_work(FrontierFamily::PartialReversal, &inst).total_reversals as f64;
                np += measure_work(FrontierFamily::NewPr, &inst).total_reversals as f64;
            }
            let t = trials as f64;
            let (fr, pr, np, nb) = (fr / t, pr / t, np / t, nb / t);
            let ratio = if pr > 0.0 { fr / pr } else { f64::NAN };
            lr_bench::print_row(
                &widths,
                &[
                    n.to_string(),
                    density.to_string(),
                    format!("{nb:.1}"),
                    format!("{fr:.1}"),
                    format!("{pr:.1}"),
                    format!("{np:.1}"),
                    format!("{ratio:.2}"),
                ],
            );
            rows.push(Row {
                n,
                density,
                trials,
                mean_nb: nb,
                fr_mean: fr,
                pr_mean: pr,
                newpr_mean: np,
                fr_over_pr: ratio,
            });
        }
    }
    println!("\npaper expectation (§1): PR no worse than FR throughout, with the gap");
    println!("growing on structured instances; NewPR reverses the same edges as PR.");
    lr_bench::write_results("exp_pr_vs_fr", &rows);
}
