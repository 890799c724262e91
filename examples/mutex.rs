//! Mutual exclusion by link reversal: Raymond's token algorithm on a
//! spanning tree. The holder pointers always form a destination-oriented
//! tree whose destination is the token holder — the paper's central
//! property, at work inside a classic mutex protocol.
//!
//! ```sh
//! cargo run --example mutex
//! ```

use link_reversal::graph::{stream, NodeId};
use link_reversal::net::mutex::MutexHarness;
use link_reversal::net::sim::LinkConfig;

fn main() {
    let inst = stream::random_connected(14, 12, 7);
    let root = inst.dest;
    println!(
        "network: {} nodes; token starts at {}",
        inst.node_count(),
        root
    );

    let mut harness = MutexHarness::new(inst.csr().clone(), root, LinkConfig::default(), 5);

    // Three rounds of full contention: every node requests the critical
    // section each round.
    let mut total_requests = 0u64;
    for round in 1..=3 {
        for u in inst.csr().nodes() {
            harness.request(u);
            total_requests += 1;
        }
        let report = harness.run(10_000_000);
        println!(
            "round {round}: {} critical sections served so far, token now at {}, {} messages",
            report.cs_entries, report.final_holder, report.messages
        );
    }

    let final_report = {
        harness.request(NodeId::new(1));
        harness.run(10_000_000)
    };
    assert_eq!(final_report.cs_entries, total_requests + 1);
    println!(
        "\nall {} requests served exactly once; final holder {}",
        total_requests + 1,
        final_report.final_holder
    );
    println!("(the harness verified token uniqueness and that holder pointers");
    println!(" always form a tree oriented toward the token — no cycles, ever)");
}
