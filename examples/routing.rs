//! TORA-style routing demo: converge a destination-oriented DAG over a
//! random ad-hoc network, route packets, fail links, reconverge, route
//! again.
//!
//! ```sh
//! cargo run --example routing
//! ```

use link_reversal::graph::{stream, NodeId, Orientation};
use link_reversal::net::routing::RoutingHarness;
use link_reversal::net::sim::LinkConfig;

fn main() {
    let inst = stream::random_connected(24, 24, 2024);
    println!(
        "ad-hoc network: {} nodes, {} links, destination {}",
        inst.node_count(),
        inst.csr().edge_count(),
        inst.dest
    );

    let link = LinkConfig {
        delay: 2,
        jitter: 3,
        loss: 0.0,
    };
    let mut harness = RoutingHarness::converged(&inst, link, 7);
    println!("initial reversal converged; sending one packet from every node…");

    for u in inst.csr().nodes() {
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
    let edges: Vec<(NodeId, NodeId)> = inst
        .init()
        .directed_edges()
        .map(|(t, h)| (t.min(h), t.max(h)))
        .collect();
    let mut failed: Vec<(NodeId, NodeId)> = Vec::new();
    for &(u, v) in &edges {
        if failed.len() == 2 {
            break;
        }
        let kept: Vec<(u32, u32)> = edges
            .iter()
            .filter(|&&e| e != (u, v) && !failed.contains(&e))
            .map(|&(a, b)| (a.raw(), b.raw()))
            .collect();
        let g = Orientation::from_edges(&kept).expect("a simple graph");
        if g.csr().node_count() == inst.node_count() && g.csr().is_connected() {
            println!("failing link {u} – {v}");
            harness.fail_link(u, v);
            failed.push((u, v));
        }
    }
    for u in inst.csr().nodes() {
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
