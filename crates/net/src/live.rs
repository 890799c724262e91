//! The distributed reversal protocol on **real threads**: one OS thread
//! per node, crossbeam channels per link, no global scheduler, no virtual
//! clock.
//!
//! This exists to demonstrate that the convergence and acyclicity
//! guarantees verified on the deterministic simulator do not depend on
//! the simulator: the same sink rule (the distributed protocol's
//! `reverse_if_sink`), run under true nondeterministic interleaving,
//! still converges to a destination-oriented DAG.
//!
//! Quiescence detection uses message counting: a shared counter is
//! incremented before every send and decremented only after the receiving
//! handler (including any sends it performs) finishes. When the counter
//! reads zero there is provably no work left in the system, at which
//! point the supervisor broadcasts `Stop`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::thread;

use crossbeam::channel::{unbounded, Receiver, Sender};
use lr_core::alg::TripleHeight;
use lr_graph::{NodeId, ReversalInstance};
use parking_lot::Mutex;

use crate::reversal::{initial_heights, reverse_if_sink};

enum LiveMsg {
    Height(NodeId, TripleHeight),
    Stop,
}

/// Result of a threaded run.
#[derive(Debug, Clone)]
pub struct LiveReport {
    /// Final height of every node.
    pub heights: BTreeMap<NodeId, TripleHeight>,
    /// Total reversals across all nodes.
    pub reversals: u64,
    /// Total height messages exchanged.
    pub messages: u64,
}

/// Runs the distributed Partial Reversal protocol on one thread per node
/// until global quiescence, returning the converged heights.
///
/// # Panics
///
/// Panics if any node thread panics (which would indicate a protocol
/// bug — e.g. a height decrease).
pub fn run_threaded(inst: &ReversalInstance) -> LiveReport {
    let heights0 = initial_heights(inst);
    let in_flight = Arc::new(AtomicI64::new(0));
    let reversals = Arc::new(AtomicI64::new(0));
    let messages = Arc::new(AtomicI64::new(0));
    let published: Arc<Mutex<BTreeMap<NodeId, TripleHeight>>> =
        Arc::new(Mutex::new(heights0.clone()));

    let mut senders: BTreeMap<NodeId, Sender<LiveMsg>> = BTreeMap::new();
    let mut receivers: BTreeMap<NodeId, Receiver<LiveMsg>> = BTreeMap::new();
    for u in inst.graph.nodes() {
        let (tx, rx) = unbounded();
        senders.insert(u, tx);
        receivers.insert(u, rx);
    }

    let mut handles = Vec::new();
    for u in inst.graph.nodes() {
        let rx = receivers.remove(&u).expect("receiver exists");
        let nbr_senders: BTreeMap<NodeId, Sender<LiveMsg>> = inst
            .graph
            .neighbors(u)
            .map(|v| (v, senders[&v].clone()))
            .collect();
        let my_height = heights0[&u];
        let is_dest = u == inst.dest;
        let in_flight = Arc::clone(&in_flight);
        let reversals = Arc::clone(&reversals);
        let messages = Arc::clone(&messages);
        let published = Arc::clone(&published);
        let nbr_ids: Vec<NodeId> = inst.graph.neighbors(u).collect();

        handles.push(thread::spawn(move || {
            let mut height = my_height;
            let mut known: BTreeMap<NodeId, TripleHeight> = BTreeMap::new();
            let send_all = |h: TripleHeight| {
                for tx in nbr_senders.values() {
                    in_flight.fetch_add(1, Ordering::SeqCst);
                    messages.fetch_add(1, Ordering::SeqCst);
                    tx.send(LiveMsg::Height(u, h)).expect("peer alive");
                }
            };
            // Initial announcement.
            send_all(height);
            loop {
                match rx.recv().expect("channel open") {
                    LiveMsg::Stop => break,
                    LiveMsg::Height(v, h) => {
                        if let Some(old) = known.get(&v) {
                            assert!(h >= *old, "height of {v} decreased");
                        }
                        known.insert(v, h);
                        if !is_dest && reverse_if_sink(&mut height, &known, &nbr_ids) {
                            reversals.fetch_add(1, Ordering::SeqCst);
                            published.lock().insert(u, height);
                            send_all(height);
                        }
                        // The received message is fully processed only
                        // now, after all sends it triggered.
                        in_flight.fetch_sub(1, Ordering::SeqCst);
                    }
                }
            }
        }));
    }

    // Supervisor: wait for quiescence, then stop everyone.
    loop {
        if in_flight.load(Ordering::SeqCst) == 0 {
            // Double-check after a pause to dodge the window between a
            // send being decided and the counter increment.
            thread::sleep(std::time::Duration::from_millis(2));
            if in_flight.load(Ordering::SeqCst) == 0 {
                break;
            }
        }
        thread::yield_now();
    }
    for tx in senders.values() {
        tx.send(LiveMsg::Stop).expect("peer alive");
    }
    for h in handles {
        h.join().expect("node thread panicked");
    }

    let heights = published.lock().clone();
    LiveReport {
        heights,
        reversals: reversals.load(Ordering::SeqCst) as u64,
        messages: messages.load(Ordering::SeqCst) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reversal::orientation_from_heights;
    use lr_graph::{stream, DirectedView};

    #[test]
    fn threads_converge_on_chain() {
        let inst = stream::chain_away(10).to_instance();
        let report = run_threaded(&inst);
        let o = orientation_from_heights(&inst.graph, &report.heights);
        let view = DirectedView::new(&inst.graph, &o);
        assert!(view.is_acyclic());
        assert!(view.is_destination_oriented(inst.dest));
        assert!(report.reversals >= 9);
    }

    #[test]
    fn threads_converge_on_random_graphs() {
        for seed in 0..3 {
            let inst = stream::random_connected(20, 20, 1000 + seed).to_instance();
            let report = run_threaded(&inst);
            let o = orientation_from_heights(&inst.graph, &report.heights);
            let view = DirectedView::new(&inst.graph, &o);
            assert!(view.is_acyclic(), "seed {seed}");
            assert!(
                view.is_destination_oriented(inst.dest),
                "seed {seed}: not destination-oriented"
            );
        }
    }

    #[test]
    fn oriented_instance_needs_no_reversals() {
        let inst = stream::chain_toward(8).to_instance();
        let report = run_threaded(&inst);
        assert_eq!(report.reversals, 0);
        // Exactly the initial announcements: 2 per edge.
        assert_eq!(report.messages, 2 * 7);
    }
}
