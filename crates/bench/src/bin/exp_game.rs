//! E10: the game-theoretic FR-vs-PR comparison cited in §1
//! (Charron-Bost, Welch & Widder): FR's equilibrium has the largest
//! social cost; PR, when an equilibrium, achieves the optimum. The
//! observable consequence measured here: PR's social cost never exceeds
//! FR's across the families, with per-node work-vector dominance on
//! structured instances.
//!
//! ```sh
//! cargo run --release -p lr-bench --bin exp_game
//! ```

use lr_core::alg::FrontierFamily;
use lr_core::game::{
    analyze_profiles, compare_social_costs, dominates, work_vector, CostComparison,
};
use lr_graph::{stream, ReversalInstance};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    family: String,
    n: usize,
    comparison: CostComparison,
    pr_dominates_fr: Option<bool>,
}

fn main() {
    println!("E10: social cost (total steps to termination, greedy schedule)\n");
    let widths = [24usize, 6, 6, 10, 10, 10, 9, 12];
    lr_bench::print_header(
        &widths,
        &[
            "family",
            "n",
            "n_b",
            "FR",
            "PR",
            "NewPR",
            "FR/PR",
            "PR dominates",
        ],
    );
    let mut rows = Vec::new();
    let families: Vec<(String, ReversalInstance)> = vec![
        ("chain_away".into(), stream::chain_away(64)),
        ("alternating_chain".into(), stream::alternating_chain(64)),
        ("grid_away".into(), stream::grid_away(8, 8)),
        ("complete_away".into(), stream::complete_away(32)),
        ("star_away".into(), stream::star_away(63)),
        ("random sparse".into(), stream::random_connected(64, 16, 3)),
        ("random dense".into(), stream::random_connected(64, 192, 3)),
    ];
    let mut structured_gap = 0.0f64;
    let mut max_pr_regression = 0.0f64;
    for (family, inst) in families {
        let c = compare_social_costs(&inst);
        let pr_v = work_vector(FrontierFamily::PartialReversal, &inst);
        let fr_v = work_vector(FrontierFamily::FullReversal, &inst);
        let dom = dominates(&pr_v, &fr_v);
        if let Some(r) = c.fr_over_pr() {
            structured_gap = structured_gap.max(r);
            if r < 1.0 {
                max_pr_regression = max_pr_regression.max(1.0 / r);
            }
        }
        lr_bench::print_row(
            &widths,
            &[
                family.clone(),
                c.n.to_string(),
                c.n_b.to_string(),
                c.fr_cost.to_string(),
                c.pr_cost.to_string(),
                c.newpr_cost.to_string(),
                c.fr_over_pr()
                    .map(|r| format!("{r:.2}"))
                    .unwrap_or_else(|| "-".into()),
                match dom {
                    Some(true) => "yes".into(),
                    Some(false) => "no".into(),
                    None => "equal/inc".to_string(),
                },
            ],
        );
        rows.push(Row {
            family,
            n: c.n,
            comparison: c,
            pr_dominates_fr: dom,
        });
    }
    // Equilibrium analysis on small instances: enumerate the whole
    // {Full, Partial}^players profile space.
    println!("\nequilibrium analysis (exhaustive over all 2^players profiles):");
    let widths2 = [24usize, 10, 8, 8, 8, 8, 8, 8];
    lr_bench::print_header(
        &widths2,
        &[
            "instance", "profiles", "FR", "PR", "min", "max", "FR NE?", "PR NE?",
        ],
    );
    for (name, inst) in [
        ("chain_away(9)", stream::chain_away(9)),
        ("alternating_chain(9)", stream::alternating_chain(9)),
        ("star_away(8)", stream::star_away(8)),
        ("random(9, seed 3)", stream::random_connected(9, 7, 3)),
        ("random(9, seed 4)", stream::random_connected(9, 12, 4)),
    ] {
        let a = analyze_profiles(&inst);
        lr_bench::print_row(
            &widths2,
            &[
                name.to_string(),
                a.profiles.to_string(),
                a.fr_cost.to_string(),
                a.pr_cost.to_string(),
                a.min_cost.to_string(),
                a.max_cost.to_string(),
                if a.fr_is_equilibrium { "yes" } else { "NO" }.into(),
                if a.pr_is_equilibrium { "yes" } else { "no" }.into(),
            ],
        );
        assert!(a.fr_is_equilibrium, "FR must be an equilibrium on {name}");
        if a.pr_is_equilibrium {
            assert_eq!(a.pr_cost, a.min_cost, "equilibrium PR must be optimal");
        }
    }

    println!();
    println!("largest FR/PR gap on structured families: {structured_gap:.2}×");
    println!(
        "worst PR regression vs FR (random graphs):  {:.3}×",
        max_pr_regression.max(1.0)
    );
    println!();
    println!("paper expectation (§1, Charron-Bost et al.): FR's profile is always a");
    println!("Nash equilibrium but the costliest one; PR's profile is NOT always an");
    println!("equilibrium (when it is, it's optimal). The observable consequence,");
    println!("reproduced above: PR wins by large factors on structured instances,");
    println!("while on random graphs the two are within a few percent — and PR can");
    println!("even lose slightly, which is exactly why pointwise dominance fails and");
    println!("the game-theoretic framing is needed.");
    lr_bench::write_results("exp_game", &rows);
}
