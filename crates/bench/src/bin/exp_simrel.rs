//! E4 + E5: the forward-simulation obligations of Lemma 5.1 (R': PR →
//! OneStepPR) and Lemma 5.3 (R: OneStepPR → NewPR), exhaustively over the
//! reachable pair spaces of all small instances (Theorems 5.2/5.4).
//!
//! ```sh
//! cargo run --release -p lr-bench --bin exp_simrel [max_exhaustive_n]
//! ```

use lr_core::alg::{NewPrAutomaton, OneStepPrAutomaton, PrSetAutomaton};
use lr_graph::stream;
use lr_ioa::{run, schedulers};
use lr_simrel::model_check::{CheckKind, McOptions};
use lr_simrel::{r_checker, r_prime_checker};
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
    let widths = [30usize, 4, 12, 14, 10];
    println!("E4/E5: simulation relations, exhaustive over reachable pair spaces\n");
    lr_bench::print_header(&widths, &["relation", "n", "instances", "pairs", "verdict"]);

    for n in 2..=max_n {
        let check = |kind: CheckKind| kind.run(n, &McOptions::default());
        for (name, s) in [
            ("R' : PR -> OneStepPR (Thm 5.2)", check(CheckKind::RPrime)),
            ("R  : OneStepPR -> NewPR (Thm 5.4)", check(CheckKind::R)),
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

    println!("\nrandomized sweep: matched executions on instances up to 14 nodes");
    let mut matched_steps = 0usize;
    for seed in 0..100u64 {
        let n = 5 + (seed % 10) as usize;
        let inst = stream::random_connected(n, n, 30_000 + seed);
        let pr = PrSetAutomaton { inst: &inst };
        let os = OneStepPrAutomaton { inst: &inst };
        let np = NewPrAutomaton { inst: &inst };
        let exec = run(&pr, &mut schedulers::UniformRandom::seeded(seed), 100_000);
        let os_exec = r_prime_checker(&inst)
            .check_execution(&pr, &os, &exec)
            .unwrap_or_else(|e| panic!("R' failed (seed {seed}): {e}"));
        let np_exec = r_checker(&inst)
            .check_execution(&os, &np, &os_exec)
            .unwrap_or_else(|e| panic!("R failed (seed {seed}): {e}"));
        matched_steps += os_exec.len() + np_exec.len();
        assert_eq!(
            os_exec.last_state().dirs.orientation(),
            np_exec.last_state().dirs.orientation()
        );
    }
    println!("matched steps verified: {matched_steps} — both relations held everywhere");
    rows.push(Row {
        relation: "R' then R (randomized)".into(),
        scope: "100 executions, n in 5..=14".into(),
        instances: 100,
        pairs_or_steps: matched_steps,
        verdict: "VERIFIED".into(),
    });

    lr_bench::write_results("exp_simrel", &rows);
}
