//! E12: application-level evaluation — TORA-style routing over the
//! reversal-maintained DAG stays loop-free and recovers delivery after
//! link failures (the motivation in the paper's abstract/§1).
//!
//! ```sh
//! cargo run --release -p lr-bench --bin exp_routing
//! ```

use lr_graph::{stream, NodeId, Orientation, ReversalInstance};
use lr_net::routing::RoutingHarness;
use lr_net::sim::LinkConfig;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    n: usize,
    failures: usize,
    injected: u64,
    delivered: u64,
    dropped: u64,
    stranded: u64,
    revisits: u64,
    mean_hops: f64,
    messages: u64,
}

/// Picks up to `k` links whose removal keeps the graph connected.
fn removable_links(inst: &ReversalInstance, k: usize) -> Vec<(NodeId, NodeId)> {
    let edges: Vec<(NodeId, NodeId)> = inst
        .init()
        .directed_edges()
        .map(|(t, h)| (t.min(h), t.max(h)))
        .collect();
    let mut removed: Vec<(NodeId, NodeId)> = Vec::new();
    for &(u, v) in &edges {
        if removed.len() == k {
            break;
        }
        let kept: Vec<(u32, u32)> = edges
            .iter()
            .filter(|&&e| e != (u, v) && !removed.contains(&e))
            .map(|&(a, b)| (a.raw(), b.raw()))
            .collect();
        let trial = Orientation::from_edges(&kept).expect("a simple graph");
        if trial.csr().node_count() == inst.node_count() && trial.csr().is_connected() {
            removed.push((u, v));
        }
    }
    removed
}

fn main() {
    println!("E12: routing delivery under link failures (one packet per node per wave)\n");
    let widths = [6usize, 9, 9, 10, 8, 9, 9, 10, 10];
    lr_bench::print_header(
        &widths,
        &[
            "n",
            "failures",
            "injected",
            "delivered",
            "dropped",
            "stranded",
            "revisits",
            "mean_hops",
            "messages",
        ],
    );
    let mut rows = Vec::new();
    for &n in &[16usize, 32, 64, 128] {
        for failures in [0usize, 2, 4, 8] {
            let inst = stream::random_connected(n, 2 * n, 50_000 + n as u64);
            let mut h = RoutingHarness::converged(&inst, LinkConfig::default(), n as u64);
            for (u, v) in removable_links(&inst, failures) {
                h.fail_link(u, v);
            }
            for u in inst.csr().nodes().filter(|&u| u != inst.dest) {
                h.send_packet(u);
            }
            let r = h.run(50_000_000);
            lr_bench::print_row(
                &widths,
                &[
                    n.to_string(),
                    failures.to_string(),
                    r.injected.to_string(),
                    r.delivered.to_string(),
                    r.dropped.to_string(),
                    r.stranded.to_string(),
                    r.revisits.to_string(),
                    format!("{:.2}", r.mean_hops),
                    r.messages.to_string(),
                ],
            );
            rows.push(Row {
                n,
                failures,
                injected: r.injected,
                delivered: r.delivered,
                dropped: r.dropped,
                stranded: r.stranded,
                revisits: r.revisits,
                mean_hops: r.mean_hops,
                messages: r.messages,
            });
        }
    }
    println!("\nexpectation: near-total delivery (drops only from transient TTL hits");
    println!("during reconvergence); mean hops grows mildly with failures as routes");
    println!("detour around failed links.");
    lr_bench::write_results("exp_routing", &rows);
}
