//! The paper's numbered claims, checked end-to-end through the public
//! API. Each test names the statement it reproduces.

use link_reversal::core::invariants::{
    check_acyclic, check_cor_3_3, check_cor_3_4, check_inv_3_1, check_inv_3_2, check_inv_4_1,
    check_inv_4_2,
};
use link_reversal::prelude::*;
use link_reversal::simrel::model_check::{CheckKind, McOptions};
use link_reversal::simrel::refinement::refine_and_check;

/// Invariants 3.1/3.2 + Corollaries 3.3/3.4 along long random OneStepPR
/// executions on mid-size graphs (beyond what the exhaustive checker can
/// enumerate).
#[test]
fn section_3_invariants_on_random_executions() {
    for seed in 0..5 {
        let inst = stream::random_connected(15, 15, 2000 + seed);
        let aut = OneStepPrAutomaton { inst: &inst };
        let exec = run(&aut, &mut schedulers::UniformRandom::seeded(seed), 100_000);
        assert!(aut.is_quiescent(exec.last_state()));
        for s in exec.states() {
            check_inv_3_1(&s.dirs).unwrap();
            check_inv_3_2(&inst, s).unwrap();
            check_cor_3_3(&inst, s).unwrap();
            check_cor_3_4(&inst, s).unwrap();
        }
    }
}

/// Invariants 4.1/4.2 and Theorem 4.3 along long random NewPR executions.
#[test]
fn section_4_invariants_on_random_executions() {
    for seed in 0..5 {
        let inst = stream::random_connected(15, 15, 3000 + seed);
        let aut = NewPrAutomaton { inst: &inst };
        let exec = run(&aut, &mut schedulers::UniformRandom::seeded(seed), 100_000);
        assert!(aut.is_quiescent(exec.last_state()));
        for s in exec.states() {
            check_inv_3_1(&s.dirs).unwrap();
            check_inv_4_1(&inst, s).unwrap();
            check_inv_4_2(&inst, s).unwrap();
            check_acyclic(&s.dirs).unwrap();
        }
    }
}

/// Theorems 4.3, 5.2, 5.4 and the §3 invariants, exhaustively on every
/// 3-node instance (the 4-node sweep runs in the experiment binary).
#[test]
fn theorems_exhaustive_on_all_three_node_instances() {
    for kind in [
        CheckKind::NewPr,
        CheckKind::OneStepPr,
        CheckKind::PrSet,
        CheckKind::RPrime,
        CheckKind::R,
    ] {
        assert!(kind.run(3, &McOptions::default()).verified(), "{kind:?}");
    }
}

/// Theorem 5.5 via the full refinement chain PR → OneStepPR → NewPR on
/// random executions with set-valued actions.
#[test]
fn theorem_5_5_refinement_chain() {
    for seed in 0..5 {
        let inst = stream::random_connected(9, 8, 4000 + seed);
        let pr = PrSetAutomaton { inst: &inst };
        let exec = run(&pr, &mut schedulers::UniformRandom::seeded(seed), 10_000);
        let report = refine_and_check(&inst, &exec).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert!(report.states_checked > 0);
    }
}

/// §1's complexity picture: PR linear / FR quadratic on the away-chain;
/// both quadratic (and equal) on the alternating chain.
#[test]
fn section_1_work_complexity_shapes() {
    use link_reversal::core::work::{fit_growth_exponent, measure_work};
    let sizes = [16usize, 32, 64, 128];

    let fit = |family: FrontierFamily, gen: fn(usize) -> ReversalInstance| {
        let pts: Vec<(f64, f64)> = sizes
            .iter()
            .map(|&n| {
                let w = measure_work(family, &gen(n));
                (n as f64, w.total_reversals as f64)
            })
            .collect();
        fit_growth_exponent(&pts)
    };

    let fr_away = fit(FrontierFamily::FullReversal, stream::chain_away);
    let pr_away = fit(FrontierFamily::PartialReversal, stream::chain_away);
    let fr_alt = fit(FrontierFamily::FullReversal, stream::alternating_chain);
    let pr_alt = fit(FrontierFamily::PartialReversal, stream::alternating_chain);

    assert!(
        fr_away > 1.8,
        "FR on away-chain should be quadratic, got {fr_away}"
    );
    assert!(
        pr_away < 1.2,
        "PR on away-chain should be linear, got {pr_away}"
    );
    assert!(
        fr_alt > 1.8,
        "FR on alternating chain should be quadratic, got {fr_alt}"
    );
    assert!(
        pr_alt > 1.8,
        "PR on alternating chain should be quadratic, got {pr_alt}"
    );
}

/// §4.1: NewPR "incurs a greater cost in certain situations" — dummy
/// steps appear exactly when initial sinks/sources re-step, and NewPR's
/// step count equals OneStepPR's plus the dummy count along matched
/// executions.
#[test]
fn section_4_1_dummy_step_accounting() {
    let inst = link_reversal::graph::parse::parse_instance("dest 3\n1 > 0\n2 > 0\n3 > 0").unwrap();
    let os = OneStepPrAutomaton { inst: &inst };
    let np = NewPrAutomaton { inst: &inst };
    let exec = run(&os, &mut schedulers::FirstEnabled, 10_000);
    let matched = r_checker(&inst)
        .check_execution(&os, &np, &exec)
        .expect("R holds");
    let dummies = matched
        .steps()
        .filter(|(pre, &u, post)| {
            pre.dirs.orientation() == post.dirs.orientation() && post.count(u) > pre.count(u)
        })
        .count();
    assert_eq!(matched.len(), exec.len() + dummies);
    assert!(dummies > 0);
}

/// §5's main guarantee, stated observationally: PR, OneStepPR, and NewPR
/// can be driven to the same final directed graph.
#[test]
fn matched_executions_reach_identical_graphs() {
    for seed in 0..5 {
        let inst = stream::random_connected(10, 9, 5000 + seed);
        let pr = PrSetAutomaton { inst: &inst };
        let os = OneStepPrAutomaton { inst: &inst };
        let np = NewPrAutomaton { inst: &inst };
        let exec = run(&pr, &mut schedulers::UniformRandom::seeded(seed), 10_000);
        let os_exec = r_prime_checker(&inst)
            .check_execution(&pr, &os, &exec)
            .unwrap();
        let np_exec = r_checker(&inst)
            .check_execution(&os, &np, &os_exec)
            .unwrap();
        let g1 = exec.last_state().dirs.orientation();
        let g2 = os_exec.last_state().dirs.orientation();
        let g3 = np_exec.last_state().dirs.orientation();
        assert_eq!(g1, g2);
        assert_eq!(g2, g3);
    }
}
