//! Leader election by link reversal: the destination node crashes and the
//! survivors elect a replacement, re-orienting the DAG toward it.
//!
//! ```sh
//! cargo run --example leader_election
//! ```

use link_reversal::graph::stream;
use link_reversal::net::election::ElectionHarness;
use link_reversal::net::sim::LinkConfig;

fn main() {
    let inst = stream::random_connected(16, 18, 99);
    println!(
        "network: {} nodes, {} links; initial leader = destination {}",
        inst.node_count(),
        inst.csr().edge_count(),
        inst.dest
    );

    let mut harness = ElectionHarness::converged(&inst, LinkConfig::default(), 3);
    println!("DAG converged toward the initial leader.");

    println!("\n*** crash! leader {} goes down ***\n", inst.dest);
    harness.crash_leader();
    let report = harness.run(10_000_000);

    println!("new leader elected: {}", report.leader);
    println!("election epoch:     {}", report.epoch);
    println!(
        "reversals to re-orient the surviving DAG: {}",
        report.reversals
    );
    println!(
        "total messages (heights + proposals):     {}",
        report.messages
    );
    println!("\n(the harness verified that every survivor agrees on the leader");
    println!(" and that the surviving graph is destination-oriented toward it)");
}
