//! The distributed reversal protocol on **real threads**: one OS thread
//! per node, one `std::sync::mpsc` channel into each node, no global
//! scheduler, no virtual clock.
//!
//! This exists to demonstrate that the convergence and acyclicity
//! guarantees verified on the deterministic simulator do not depend on
//! the simulator: the same sink rule (the distributed protocol's
//! `reverse_if_sink`), run under true nondeterministic interleaving,
//! still converges to a destination-oriented DAG.
//!
//! Quiescence detection uses message counting: a shared counter is
//! incremented before every send and decremented only after the receiving
//! handler (including any sends it performs) finishes. It starts at one
//! per node, each released once that node's initial announcement is
//! sent, so a thread that has not started yet still counts. When the
//! counter reads zero there is provably no work left in the system, at
//! which point the supervisor broadcasts `Stop`.
//!
//! One thread per node caps the instance: [`run_threaded`] refuses more
//! than [`MAX_THREADED_NODES`] nodes before it opens a channel or
//! spawns a thread.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::thread;

use lr_core::alg::{initial_triple_heights, TripleHeight};
use lr_graph::{NodeId, ReversalInstance};

use crate::reversal::{reverse_if_sink, KnownHeight};

enum LiveMsg {
    Height(NodeId, TripleHeight),
    Stop,
}

/// The most nodes [`run_threaded`] runs, one OS thread each.
pub const MAX_THREADED_NODES: usize = 256;

/// Result of a threaded run.
#[derive(Debug, Clone)]
pub struct LiveReport {
    /// Final height of every node.
    pub heights: BTreeMap<NodeId, TripleHeight>,
    /// The reversals of each node, by dense index.
    pub node_reversals: Vec<u64>,
    /// Total height messages exchanged.
    pub messages: u64,
}

/// Runs the distributed Partial Reversal protocol on one thread per node
/// until global quiescence, returning the converged heights.
///
/// # Errors
///
/// An instance of more than [`MAX_THREADED_NODES`] nodes is an error,
/// returned before any channel or thread exists.
///
/// # Panics
///
/// Panics if any node thread panics (which would indicate a protocol
/// bug — e.g. a height decrease).
pub fn run_threaded(inst: &ReversalInstance) -> Result<LiveReport, String> {
    let csr = inst.csr();
    if csr.node_count() > MAX_THREADED_NODES {
        return Err(format!(
            "the threaded mode runs one thread per node, so at most {MAX_THREADED_NODES} nodes; \
             this instance has {}",
            csr.node_count()
        ));
    }
    let heights0 = initial_triple_heights(inst);
    // One count per node until its initial announcement is sent.
    let in_flight = Arc::new(AtomicI64::new(csr.node_count() as i64));
    let messages = Arc::new(AtomicI64::new(0));
    let published: Arc<Mutex<BTreeMap<NodeId, TripleHeight>>> = Arc::new(Mutex::new(
        csr.nodes().zip(heights0.iter().copied()).collect(),
    ));

    let (senders, receivers): (Vec<Sender<LiveMsg>>, Vec<_>) =
        (0..csr.node_count()).map(|_| channel()).unzip();

    let mut handles = Vec::new();
    for (i, rx) in receivers.into_iter().enumerate() {
        let u = csr.node(i);
        // Neighbors ascending, with their channels; `known[k]` is the
        // `(α, β)` last heard from `nbr_ids[k]`.
        let nbr_ids: Vec<NodeId> = csr
            .neighbor_indices(i)
            .iter()
            .map(|&j| csr.node(j as usize))
            .collect();
        let nbr_senders: Vec<Sender<LiveMsg>> = csr
            .neighbor_indices(i)
            .iter()
            .map(|&j| senders[j as usize].clone())
            .collect();
        let my_height = heights0[i];
        let is_dest = u == inst.dest;
        let in_flight = Arc::clone(&in_flight);
        let messages = Arc::clone(&messages);
        let published = Arc::clone(&published);

        handles.push(thread::spawn(move || {
            let mut height = my_height;
            let mut reversals = 0u64;
            let mut known = vec![KnownHeight::default(); nbr_ids.len()];
            let send_all = |h: TripleHeight| {
                for tx in &nbr_senders {
                    in_flight.fetch_add(1, Ordering::SeqCst);
                    messages.fetch_add(1, Ordering::SeqCst);
                    tx.send(LiveMsg::Height(u, h)).expect("peer alive");
                }
            };
            // Initial announcement, then the node's start-up count.
            send_all(height);
            in_flight.fetch_sub(1, Ordering::SeqCst);
            loop {
                match rx.recv().expect("channel open") {
                    LiveMsg::Stop => break,
                    LiveMsg::Height(v, h) => {
                        let k = nbr_ids.binary_search(&v).expect("sender is a neighbor");
                        if let Some(old) = known[k].get() {
                            assert!((h.alpha, h.beta) >= old, "height of {v} decreased");
                        }
                        known[k] = KnownHeight::of(h);
                        // Every link is live in the threaded mode.
                        let run = known.iter().map(|&s| Some(s));
                        if !is_dest && reverse_if_sink(&mut height, run, |k| nbr_ids[k]) {
                            reversals += 1;
                            published
                                .lock()
                                .expect("no node thread panics while publishing")
                                .insert(u, height);
                            send_all(height);
                        }
                        // The received message is fully processed only
                        // now, after all sends it triggered.
                        in_flight.fetch_sub(1, Ordering::SeqCst);
                    }
                }
            }
            reversals
        }));
    }

    // Supervisor: wait for quiescence, then stop everyone.
    while in_flight.load(Ordering::SeqCst) != 0 {
        thread::yield_now();
    }
    for tx in &senders {
        tx.send(LiveMsg::Stop).expect("peer alive");
    }
    let node_reversals = handles
        .into_iter()
        .map(|h| h.join().expect("node thread panicked"))
        .collect();

    let heights = published
        .lock()
        .expect("every node thread exited cleanly")
        .clone();
    Ok(LiveReport {
        heights,
        node_reversals,
        messages: messages.load(Ordering::SeqCst) as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reversal::orientation_from_heights;
    use lr_graph::stream;

    #[test]
    fn threads_converge_on_chain() {
        let inst = stream::chain_away(10);
        let report = run_threaded(&inst).unwrap();
        let o = orientation_from_heights(inst.init().directed_edges(), &report.heights);
        assert!(o.is_acyclic());
        assert!(o.is_destination_oriented(inst.dest));
        assert!(report.node_reversals.iter().sum::<u64>() >= 9);
    }

    #[test]
    fn threads_converge_on_random_graphs() {
        for seed in 0..3 {
            let inst = stream::random_connected(20, 20, 1000 + seed);
            let report = run_threaded(&inst).unwrap();
            let o = orientation_from_heights(inst.init().directed_edges(), &report.heights);
            assert!(o.is_acyclic(), "seed {seed}");
            assert!(
                o.is_destination_oriented(inst.dest),
                "seed {seed}: not destination-oriented"
            );
        }
    }

    #[test]
    fn oriented_instance_needs_no_reversals() {
        let report = run_threaded(&stream::chain_toward(8)).unwrap();
        assert_eq!(report.node_reversals, [0; 8]);
        // Exactly the initial announcements: 2 per edge.
        assert_eq!(report.messages, 2 * 7);
    }

    #[test]
    fn an_instance_past_the_node_ceiling_is_an_error() {
        // One node past the ceiling: refused before any thread exists.
        let inst = stream::chain_away(MAX_THREADED_NODES + 1);
        let err = run_threaded(&inst).unwrap_err();
        assert_eq!(
            err,
            "the threaded mode runs one thread per node, so at most 256 nodes; \
             this instance has 257"
        );
    }
}
