//! The Charron-Bost game (cited in §1 of the paper): nodes as players,
//! steps as cost, Full vs Partial reversal as strategies. Reproduces
//! "FR is always a Nash equilibrium — the expensive one; PR, when an
//! equilibrium, is globally optimal", by exhaustive enumeration of the
//! profile space on small instances.
//!
//! ```sh
//! cargo run --release --example game_theory
//! ```

use link_reversal::core::game::{
    analyze_profiles, find_profitable_deviation, uniform_profile, Strategy,
};
use link_reversal::graph::stream;

fn main() {
    println!("the reversal game on chain_away(9): 8 players, 256 profiles\n");
    let inst = stream::chain_away(9);
    let analysis = analyze_profiles(&inst);

    println!("social cost of all-Full (FR):     {}", analysis.fr_cost);
    println!("social cost of all-Partial (PR):  {}", analysis.pr_cost);
    println!("global optimum over all profiles: {}", analysis.min_cost);
    println!("worst profile:                    {}", analysis.max_cost);
    println!();
    println!(
        "all-Full a Nash equilibrium?      {}",
        analysis.fr_is_equilibrium
    );
    println!(
        "all-Partial a Nash equilibrium?   {}",
        analysis.pr_is_equilibrium
    );
    println!();

    // FR is an equilibrium: no single node gains by switching.
    let fr = uniform_profile(&inst, Strategy::Full);
    assert_eq!(find_profitable_deviation(&inst, &fr), None);
    println!("verified: no node can unilaterally improve on all-Full, even though");
    println!(
        "it costs {}× the optimum — the \"costliest equilibrium\" of the paper's §1.",
        analysis.fr_cost / analysis.min_cost.max(1)
    );
    assert_eq!(analysis.pr_cost, analysis.min_cost);
    println!("verified: all-Partial achieves the global optimum here, and it is an");
    println!("equilibrium — \"how to play better to work less\".");
}
