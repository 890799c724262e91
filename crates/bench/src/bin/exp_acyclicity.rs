//! E1 + E6: Theorem 4.3 (NewPR acyclicity) and Theorem 5.5 (PR
//! acyclicity via refinement).
//!
//! Exhaustive over all instances of size ≤ N (default 4), randomized over
//! larger instances.
//!
//! ```sh
//! cargo run --release -p lr-bench --bin exp_acyclicity [max_exhaustive_n]
//! ```

use lr_core::alg::PrSetAutomaton;
use lr_graph::stream;
use lr_ioa::{run, schedulers, Automaton};
use lr_simrel::model_check::{CheckKind, McOptions};
use lr_simrel::refinement::refine_and_check;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    check: String,
    scope: String,
    instances: usize,
    states_or_steps: usize,
    verdict: String,
}

fn main() {
    let max_n = lr_bench::max_n_arg(4);
    let mut rows = Vec::new();

    println!("E1: Theorem 4.3 — NewPR keeps G' acyclic in every reachable state");
    lr_bench::print_header(&[4, 12, 12, 10], &["n", "instances", "states", "verdict"]);
    for n in 2..=max_n {
        let s = CheckKind::NewPr.run(n, &McOptions::default());
        let verdict = if s.verified() { "VERIFIED" } else { "VIOLATED" };
        lr_bench::print_row(
            &[4, 12, 12, 10],
            &[
                n.to_string(),
                s.instances.to_string(),
                s.states_visited.to_string(),
                verdict.to_string(),
            ],
        );
        rows.push(Row {
            check: "Thm 4.3 exhaustive".into(),
            scope: format!("all instances n={n}"),
            instances: s.instances,
            states_or_steps: s.states_visited,
            verdict: verdict.to_string(),
        });
        assert!(s.verified(), "{:?}", s.first_violation);
    }

    println!("\ntermination (the Gafni–Bertsekas guarantee): state graphs are acyclic,");
    println!("so every schedule terminates; the longest execution is the exact");
    println!("worst case over all schedules:");
    lr_bench::print_header(
        &[4, 12, 12, 14],
        &["n", "instances", "states", "longest exec"],
    );
    for n in 2..=max_n.min(4) {
        let s = CheckKind::Termination.run(n, &McOptions::default());
        assert!(s.verified(), "{:?}", s.first_violation);
        lr_bench::print_row(
            &[4, 12, 12, 14],
            &[
                n.to_string(),
                s.instances.to_string(),
                s.states_visited.to_string(),
                s.longest_execution.to_string(),
            ],
        );
        rows.push(Row {
            check: "GB termination (state-graph acyclicity)".into(),
            scope: format!("all instances n={n}"),
            instances: s.instances,
            states_or_steps: s.longest_execution,
            verdict: "VERIFIED".into(),
        });
    }

    println!("\nE6: Theorem 5.5 — PR acyclicity via the R'∘R refinement chain");
    println!("(randomized: 100 random instances up to 12 nodes, every state of all");
    println!(" three matched executions checked for cycles)\n");
    let mut total_states = 0usize;
    let mut total_insts = 0usize;
    for seed in 0..100u64 {
        let n = 4 + (seed % 9) as usize;
        let inst = stream::random_connected(n, n, 10_000 + seed);
        let pr = PrSetAutomaton { inst: &inst };
        let exec = run(&pr, &mut schedulers::UniformRandom::seeded(seed), 100_000);
        assert!(pr.is_quiescent(exec.last_state()));
        let report = refine_and_check(&inst, &exec).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        total_states += report.states_checked;
        total_insts += 1;
    }
    println!("refinement chains verified: {total_insts} (states checked: {total_states})");
    rows.push(Row {
        check: "Thm 5.5 refinement".into(),
        scope: "100 random instances, n in 4..=12".into(),
        instances: total_insts,
        states_or_steps: total_states,
        verdict: "VERIFIED".into(),
    });

    lr_bench::write_results("exp_acyclicity", &rows);
}
