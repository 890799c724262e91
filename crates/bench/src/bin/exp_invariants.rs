//! E2 + E3: Invariants 3.1, 3.2, Corollaries 3.3/3.4 (PR/OneStepPR) and
//! Invariants 4.1, 4.2 (NewPR), exhaustively on small instances and
//! randomized on larger ones.
//!
//! ```sh
//! cargo run --release -p lr-bench --bin exp_invariants [max_exhaustive_n]
//! ```

use lr_core::alg::{NewPrAutomaton, OneStepPrAutomaton};
use lr_core::invariants::{
    check_acyclic, check_cor_3_3, check_cor_3_4, check_inv_3_1, check_inv_3_2, check_inv_4_1,
    check_inv_4_2,
};
use lr_graph::stream;
use lr_ioa::{run, schedulers};
use lr_simrel::model_check::{CheckKind, McOptions};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    check: String,
    scope: String,
    instances: usize,
    states: usize,
    verdict: String,
}

fn main() {
    let max_n = lr_bench::max_n_arg(4);
    let mut rows = Vec::new();
    let widths = [34usize, 4, 12, 12, 10];
    println!("E2/E3: the paper's invariants, exhaustively on all instances of size n\n");
    lr_bench::print_header(&widths, &["check", "n", "instances", "states", "verdict"]);

    for n in 2..=max_n {
        let check = |kind: CheckKind| kind.run(n, &McOptions::default());
        for (name, summary) in [
            (
                "Inv 3.1+3.2+Cor 3.3/3.4 (OneStepPR)",
                check(CheckKind::OneStepPr),
            ),
            ("Inv 3.1+3.2+Cor 3.3/3.4 (PR sets)", check(CheckKind::PrSet)),
            ("Inv 3.1+4.1+4.2+Thm 4.3 (NewPR)", check(CheckKind::NewPr)),
        ] {
            let verdict = if summary.verified() {
                "VERIFIED"
            } else {
                "VIOLATED"
            };
            lr_bench::print_row(
                &widths,
                &[
                    name.to_string(),
                    n.to_string(),
                    summary.instances.to_string(),
                    summary.states_visited.to_string(),
                    verdict.to_string(),
                ],
            );
            rows.push(Row {
                check: name.into(),
                scope: format!("exhaustive n={n}"),
                instances: summary.instances,
                states: summary.states_visited,
                verdict: verdict.to_string(),
            });
            assert!(summary.verified(), "{:?}", summary.first_violation);
        }
    }

    println!("\nrandomized sweep: 200 executions on instances up to 20 nodes");
    let mut states = 0usize;
    for seed in 0..100u64 {
        let n = 6 + (seed % 15) as usize;
        let inst = stream::random_connected(n, n + 4, 20_000 + seed);
        // OneStepPR execution.
        let aut = OneStepPrAutomaton { inst: &inst };
        let exec = run(&aut, &mut schedulers::UniformRandom::seeded(seed), 500_000);
        for s in exec.states() {
            check_inv_3_1(&s.dirs).unwrap();
            check_inv_3_2(&inst, s).unwrap();
            check_cor_3_3(&inst, s).unwrap();
            check_cor_3_4(&inst, s).unwrap();
            check_acyclic(&s.dirs).unwrap();
            states += 1;
        }
        // NewPR execution.
        let aut = NewPrAutomaton { inst: &inst };
        let exec = run(
            &aut,
            &mut schedulers::UniformRandom::seeded(seed ^ 1),
            500_000,
        );
        for s in exec.states() {
            check_inv_3_1(&s.dirs).unwrap();
            check_inv_4_1(&inst, s).unwrap();
            check_inv_4_2(&inst, s).unwrap();
            check_acyclic(&s.dirs).unwrap();
            states += 1;
        }
    }
    println!("randomized states checked: {states} — all invariants held");
    rows.push(Row {
        check: "all invariants (randomized)".into(),
        scope: "200 executions, n in 6..=20".into(),
        instances: 200,
        states,
        verdict: "VERIFIED".into(),
    });

    lr_bench::write_results("exp_invariants", &rows);
}
