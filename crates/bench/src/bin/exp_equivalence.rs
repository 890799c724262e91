//! E11: cross-validation of the four formulations of each algorithm —
//! list-based PR ≡ triple heights ≡ BLL\[PR\], and FR ≡ pair heights ≡
//! BLL\[FR\] — step-by-step under identical schedules.
//!
//! This validates the substrates: the same reversal sets and the same
//! final graphs, across independent state representations.
//!
//! ```sh
//! cargo run --release -p lr-bench --bin exp_equivalence
//! ```

use lr_core::alg::{BllLabeling, FrontierFamily};
use lr_graph::{stream, ReversalInstance};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    group: &'static str,
    trials: usize,
    steps_compared: usize,
    verdict: &'static str,
}

fn lockstep(inst: &ReversalInstance, families: [FrontierFamily; 3], pick_last: bool) -> usize {
    let mut engines = families.map(|family| family.engine(inst.clone()));
    let mut steps = 0;
    loop {
        let enabled = engines[0].enabled().to_vec();
        for e in &engines[1..] {
            assert_eq!(e.enabled(), enabled, "sink sets diverged");
        }
        let u = if pick_last {
            enabled.last().copied()
        } else {
            enabled.first().copied()
        };
        let Some(u) = u else { break };
        let reference = engines[0].step(u).reversed;
        for e in &mut engines[1..] {
            assert_eq!(e.step(u).reversed, reference, "reversal sets diverged");
        }
        steps += 1;
        assert!(steps < 1_000_000, "runaway");
    }
    let reference = engines[0].orientation();
    for e in &engines[1..] {
        assert_eq!(e.orientation(), reference, "final graphs diverged");
    }
    steps
}

fn main() {
    println!("E11: representation equivalence under identical schedules\n");
    let trials = 25usize;
    let mut pr_steps = 0usize;
    let mut fr_steps = 0usize;
    for seed in 0..trials as u64 {
        let n = 10 + (seed % 30) as usize;
        let inst = stream::random_connected(n, n + seed as usize % 20, 40_000 + seed);
        pr_steps += lockstep(
            &inst,
            [
                FrontierFamily::PartialReversal,
                FrontierFamily::TripleHeights,
                FrontierFamily::Bll(BllLabeling::PartialReversal),
            ],
            seed % 2 == 0,
        );
        fr_steps += lockstep(
            &inst,
            [
                FrontierFamily::FullReversal,
                FrontierFamily::PairHeights,
                FrontierFamily::Bll(BllLabeling::FullReversal),
            ],
            seed % 2 == 1,
        );
    }
    println!("PR ≡ GB-triple ≡ BLL[PR]: {trials} instances, {pr_steps} lockstep steps — IDENTICAL");
    println!("FR ≡ GB-pair   ≡ BLL[FR]: {trials} instances, {fr_steps} lockstep steps — IDENTICAL");
    println!("\n(each step compared: enabled sink sets, reversed edge sets, and the");
    println!(" resulting orientations across all three representations)");
    lr_bench::write_results(
        "exp_equivalence",
        &vec![
            Row {
                group: "PR = GB-triple = BLL[PR]",
                trials,
                steps_compared: pr_steps,
                verdict: "identical",
            },
            Row {
                group: "FR = GB-pair = BLL[FR]",
                trials,
                steps_compared: fr_steps,
                verdict: "identical",
            },
        ],
    );
}
