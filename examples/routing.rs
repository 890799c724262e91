//! TORA-style routing demo: converge a destination-oriented DAG over a
//! random ad-hoc network, route packets, fail links, reconverge, route
//! again.
//!
//! ```sh
//! cargo run --example routing
//! ```

use link_reversal::graph::{stream, NodeId};
use link_reversal::net::routing::RoutingHarness;
use link_reversal::net::sim::LinkConfig;

fn main() {
    let flat = stream::random_connected(24, 24, 2024);
    let inst = flat.to_instance();
    println!(
        "ad-hoc network: {} nodes, {} links, destination {}",
        inst.node_count(),
        inst.graph.edge_count(),
        inst.dest
    );

    let link = LinkConfig {
        delay: 2,
        jitter: 3,
        loss: 0.0,
    };
    let mut harness = RoutingHarness::converged(&flat, link, 7);
    println!("initial reversal converged; sending one packet from every node…");

    for u in inst.graph.nodes() {
        if u != inst.dest {
            harness.send_packet(u);
        }
    }
    let quiet = harness.run(10_000_000);
    println!(
        "  delivered {}/{} packets, mean hops {:.2}, {} messages total\n",
        quiet.delivered, quiet.injected, quiet.mean_hops, quiet.messages
    );

    // Fail a couple of links — only ones whose removal keeps the graph
    // connected, so the destination stays reachable and the reversal
    // protocol can reconverge (handling true partitions is TORA's
    // partition-detection extension, out of scope here).
    let mut failed: Vec<(NodeId, NodeId)> = Vec::new();
    for (u, v) in inst.graph.edges() {
        if failed.len() == 2 {
            break;
        }
        let mut g = link_reversal::graph::UndirectedGraph::new();
        for w in inst.graph.nodes() {
            g.ensure_node(w);
        }
        for (a, b) in inst.graph.edges() {
            let gone = failed.iter().any(|&(x, y)| (a, b) == (x, y)) || (a, b) == (u, v);
            if !gone {
                g.add_edge(a, b).expect("fresh edge");
            }
        }
        if g.is_connected() {
            println!("failing link {u} – {v}");
            harness.fail_link(u, v);
            failed.push((u, v));
        }
    }
    for u in inst.graph.nodes() {
        if u != inst.dest {
            harness.send_packet(u);
        }
    }
    let churn = harness.run(10_000_000);
    println!(
        "\nafter failures: delivered {}/{} packets ({} dropped by TTL, {} stranded), mean hops {:.2}",
        churn.delivered, churn.injected, churn.dropped, churn.stranded, churn.mean_hops
    );
}
