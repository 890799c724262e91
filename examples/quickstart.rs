//! Quickstart: build an instance, run each algorithm, inspect the result.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use link_reversal::prelude::*;

fn main() {
    // A 12-node chain with every edge directed away from the destination:
    // node 0 is the destination, node 11 the only sink.
    let inst = stream::chain_away(12);
    println!(
        "instance: {} nodes, {} edges, destination {}, {} bad nodes\n",
        inst.node_count(),
        inst.csr().edge_count(),
        inst.dest,
        inst.initial_bad_nodes()
    );

    println!(
        "{:>10} {:>8} {:>10} {:>7} {:>7}",
        "algorithm", "steps", "reversals", "rounds", "dummy"
    );
    for family in FrontierFamily::ALL {
        let mut engine = family.engine(inst.clone());
        let stats = run_to_destination_oriented(
            engine.as_mut(),
            SchedulePolicy::GreedyRounds,
            DEFAULT_MAX_STEPS,
        );
        println!(
            "{:>10} {:>8} {:>10} {:>7} {:>7}",
            stats.algorithm, stats.steps, stats.total_reversals, stats.rounds, stats.dummy_steps
        );

        // Every algorithm ends acyclic and destination-oriented — the
        // paper's Theorem 4.3 / 5.5 territory.
        let o = engine.orientation();
        assert!(o.is_acyclic());
        assert!(o.is_destination_oriented(inst.dest));
    }

    // Render the final NewPR graph as DOT for the curious.
    let mut engine = FrontierFamily::NewPr.engine(inst.clone());
    run_to_destination_oriented(
        engine.as_mut(),
        SchedulePolicy::GreedyRounds,
        DEFAULT_MAX_STEPS,
    );
    let o = engine.orientation();
    println!(
        "\nfinal NewPR orientation (DOT):\n{}",
        link_reversal::graph::dot::to_dot(
            &o,
            &link_reversal::graph::dot::DotOptions {
                destination: Some(inst.dest),
                highlight_sinks: true,
                name: Some("converged".into()),
            }
        )
    );
}
