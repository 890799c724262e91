//! TORA in action: route creation by QRY/UPD flood, local repair by a
//! new reference level, and partition detection by reflection — the full
//! life cycle of link-reversal routing.
//!
//! ```sh
//! cargo run --example tora_partition
//! ```

use link_reversal::graph::{NodeId, Orientation};
use link_reversal::net::sim::LinkConfig;
use link_reversal::net::tora::ToraHarness;

fn n(i: u32) -> NodeId {
    NodeId::new(i)
}

/// Runs the maintenance a link change set off to quiescence.
fn quiesce(tora: &mut ToraHarness) {
    assert!(tora.sim_mut().run_to_quiescence(10_000_000));
}

fn main() {
    // A ring with a tail:   0(D) — 1 — 2 — 3 — 0   and   3 — 4 — 5
    let g = Orientation::from_edges(&[(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 5)]).unwrap();
    let mut tora = ToraHarness::new(g.csr().as_ref().clone(), n(0), LinkConfig::default(), 7);

    println!("phase 1: route creation (QRY floods from nodes 1 and 5)");
    tora.create_route(n(1)); // routes 1 directly below the destination
    tora.create_route(n(5));
    for u in g.csr().nodes() {
        println!("  height[{u}] = {:?}", tora.height(u));
    }
    assert!(tora.routed_nodes_reach_destination());

    println!("\nphase 2: link failure {{0,1}} — node 1 loses its only downstream");
    let before = tora.height(n(1)).unwrap();
    tora.fail_link(n(0), n(1));
    quiesce(&mut tora);
    assert!(tora.routed_nodes_reach_destination());
    let after = tora.height(n(1)).unwrap();
    if after.tau > before.tau {
        println!("  node 1 generated a new reference level: {after:?}");
    } else {
        println!("  node 1 already had a detour; no new level needed: {after:?}");
    }
    println!(
        "  node 1 now routes via node 2: {}",
        after > tora.height(n(2)).unwrap()
    );

    println!("\nphase 3: partition — fail {{3,4}}, stranding {{4,5}}");
    tora.fail_link(n(3), n(4));
    quiesce(&mut tora);
    println!(
        "  node 4 detected the partition: {}",
        tora.partition_detected(n(4))
    );
    println!("  height[4] = {:?} (erased)", tora.height(n(4)));
    println!("  height[5] = {:?} (erased)", tora.height(n(5)));

    println!("\nphase 4: the link heals; node 5 re-requests a route");
    tora.heal_link(n(3), n(4));
    quiesce(&mut tora);
    tora.create_route(n(5));
    assert!(tora.routed_nodes_reach_destination());
    println!("  height[5] = {:?}", tora.height(n(5)));
    println!("\nloop-free at every instant — acyclicity is the paper's Theorem 4.3/5.5");
}
