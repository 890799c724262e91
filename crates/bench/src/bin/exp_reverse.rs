//! E13 (extension): the paper's §6 future work — simulation relations in
//! the **reverse** direction (NewPR → OneStepPR → PR), establishing that
//! the algorithms are equivalent with respect to edge directions.
//!
//! The interesting obligation is the dummy step: it changes no edges, so
//! it is matched by the *empty* OneStepPR sequence, which the paper's
//! relation R cannot tolerate. The weakened relation R⁻ (see
//! `lr_simrel::reverse`) relaxes the parity/list clause exactly at nodes
//! whose relevant initial neighbor set is empty — and is verified here
//! exhaustively.
//!
//! ```sh
//! cargo run --release -p lr-bench --bin exp_reverse [max_exhaustive_n]
//! ```

use lr_graph::stream;
use lr_ioa::schedulers;
use lr_simrel::equivalence_round_trip;
use lr_simrel::model_check::{CheckKind, McOptions};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    relation: String,
    scope: String,
    instances: usize,
    pairs_or_steps: usize,
    verdict: String,
}

fn main() {
    let max_n = lr_bench::max_n_arg(4);
    let mut rows = Vec::new();
    let widths = [34usize, 4, 12, 14, 10];
    println!("E13: reverse simulation relations (the paper's §6 conjecture)\n");
    lr_bench::print_header(&widths, &["relation", "n", "instances", "pairs", "verdict"]);

    for n in 2..=max_n {
        let check = |kind: CheckKind| kind.run(n, &McOptions::default());
        for (name, s) in [
            ("R⁻ : NewPR -> OneStepPR (dummy=ε)", check(CheckKind::RevR)),
            (
                "R'⁻: OneStepPR -> PR (singletons)",
                check(CheckKind::RevRPrime),
            ),
        ] {
            let verdict = if s.verified() { "VERIFIED" } else { "VIOLATED" };
            lr_bench::print_row(
                &widths,
                &[
                    name.to_string(),
                    n.to_string(),
                    s.instances.to_string(),
                    s.states_visited.to_string(),
                    verdict.to_string(),
                ],
            );
            rows.push(Row {
                relation: name.into(),
                scope: format!("exhaustive n={n}"),
                instances: s.instances,
                pairs_or_steps: s.states_visited,
                verdict: verdict.to_string(),
            });
            assert!(s.verified(), "{:?}", s.first_violation);
        }
    }

    println!("\nround-trip equivalence on 100 random instances (n ≤ 12):");
    let mut total_np = 0usize;
    let mut total_pr = 0usize;
    for seed in 0..100u64 {
        let n = 4 + (seed % 9) as usize;
        let inst = stream::random_connected(n, n, 60_000 + seed);
        let report =
            equivalence_round_trip(&inst, &mut schedulers::UniformRandom::seeded(seed), 100_000)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        total_np += report.newpr_steps;
        total_pr += report.pr_steps;
    }
    println!("  {total_np} NewPR steps matched by {total_pr} PR set-actions;");
    println!("  all 100 triples of executions ended in identical directed graphs.");
    rows.push(Row {
        relation: "round trip NewPR→OneStepPR→PR".into(),
        scope: "100 random instances".into(),
        instances: 100,
        pairs_or_steps: total_np,
        verdict: "VERIFIED".into(),
    });

    println!("\nConclusion: combined with the forward direction (exp_simrel), PR and");
    println!("NewPR are equivalent with respect to edge directions — the paper's §6");
    println!("conjecture, mechanically checked (with the necessary weakening of R");
    println!("at dummy-stepping nodes made explicit).");
    lr_bench::write_results("exp_reverse", &rows);
}
