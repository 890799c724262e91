//! Convergence **time** (greedy rounds) as distinct from convergence
//! **work** (total reversals): the number of maximal simultaneous steps
//! until the graph is destination-oriented. The literature (Busch et al.,
//! cited in §1) studies both measures; rounds is the wall-clock analogue
//! for a synchronous network.
//!
//! ```sh
//! cargo run --release -p lr-bench --bin exp_convergence
//! ```

use lr_core::alg::FrontierFamily;
use lr_core::engine::{run_engine_frontier, SchedulePolicy, DEFAULT_MAX_STEPS};
use lr_graph::{stream, ReversalInstance};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    family: String,
    n: usize,
    fr_rounds: usize,
    pr_rounds: usize,
    newpr_rounds: usize,
}

fn rounds(family: FrontierFamily, inst: &ReversalInstance) -> usize {
    let mut e = family.engine(inst.clone());
    let stats = run_engine_frontier(e.as_mut(), SchedulePolicy::GreedyRounds, DEFAULT_MAX_STEPS);
    assert!(stats.terminated);
    stats.rounds
}

fn main() {
    println!("convergence time: greedy rounds until destination-oriented\n");
    let widths = [22usize, 6, 10, 10, 12];
    lr_bench::print_header(&widths, &["family", "n", "FR", "PR", "NewPR"]);
    let mut rows = Vec::new();
    for &n in &[16usize, 32, 64, 128, 256] {
        let families: Vec<(String, ReversalInstance)> = vec![
            ("chain_away".into(), stream::chain_away(n)),
            ("alternating_chain".into(), stream::alternating_chain(n)),
            (
                "random_connected".into(),
                stream::random_connected(n, 2 * n, 70_000 + n as u64),
            ),
        ];
        for (family, inst) in families {
            let fr = rounds(FrontierFamily::FullReversal, &inst);
            let pr = rounds(FrontierFamily::PartialReversal, &inst);
            let np = rounds(FrontierFamily::NewPr, &inst);
            lr_bench::print_row(
                &widths,
                &[
                    family.clone(),
                    n.to_string(),
                    fr.to_string(),
                    pr.to_string(),
                    np.to_string(),
                ],
            );
            rows.push(Row {
                family,
                n,
                fr_rounds: fr,
                pr_rounds: pr,
                newpr_rounds: np,
            });
        }
    }
    println!("\nobservation: rounds track the length of the longest reversal");
    println!("dependency chain — linear in n on the chains for both algorithms,");
    println!("logarithmic-ish on dense random graphs.");
    lr_bench::write_results("exp_convergence", &rows);
}
