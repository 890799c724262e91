//! Mechanized verification of the paper's theorems on every instance of
//! bounded size: all connected graphs × all acyclic orientations × all
//! destinations.
//!
//! ```sh
//! cargo run --release --example model_check        # n = 3 (fast)
//! cargo run --release --example model_check -- 6   # n = 6 (seconds)
//! ```

use link_reversal::simrel::model_check::{parse_size, CheckKind, McOptions};

fn show(name: &str, what: &str, n: usize, kind: CheckKind) {
    let s = kind.run(n, &McOptions::default());
    let verdict = if s.verified() {
        "VERIFIED".to_string()
    } else {
        format!("VIOLATED: {}", s.first_violation.as_deref().unwrap_or("?"))
    };
    println!(
        "{name:<28} {what:<42} instances={:<6} states={:<9} {verdict}",
        s.instances, s.states_visited
    );
}

fn main() {
    let n = std::env::args()
        .nth(1)
        .map_or(Ok(3), |a| parse_size(&a))
        .unwrap_or_else(|e| panic!("{e}"));

    println!("exhaustive model check over ALL instances with {n} nodes\n");

    show(
        "Thm 4.3 + Inv 3.1/4.1/4.2",
        "every reachable NewPR state, every instance",
        n,
        CheckKind::NewPr,
    );
    show(
        "Inv 3.1/3.2 + Cor 3.3/3.4",
        "every reachable OneStepPR state",
        n,
        CheckKind::OneStepPr,
    );
    show(
        "same, set actions",
        "every reachable PR (Algorithm 1) state",
        n,
        CheckKind::PrSet,
    );
    show(
        "Thm 5.2 (R' simulation)",
        "every PR step matched by OneStepPR",
        n,
        CheckKind::RPrime,
    );
    show(
        "Thm 5.4 (R simulation)",
        "every OneStepPR step matched by NewPR",
        n,
        CheckKind::R,
    );

    println!("\nEvery universally-quantified statement in the paper, checked finitely.");
}
