//! Graph substrate for link-reversal algorithms.
//!
//! This crate provides the structures shared by every other crate in the
//! workspace:
//!
//! * [`UndirectedGraph`] — the fixed communication graph `G = (V, E)` of the
//!   system model (§2 of Radeva & Lynch, *Partial Reversal Acyclicity*).
//!   Nodes and edges are never added or removed during an execution.
//! * [`CsrGraph`] — a flat compressed-sparse-row snapshot of the same
//!   graph with half-edge/twin indexing, built once per instance and used
//!   by the execution engines' hot paths.
//! * [`Orientation`] — a direction assignment for every edge of `G`,
//!   i.e. a directed version `G' = (V, E')`.
//! * [`DirectedView`] — a borrowed directed graph (`G` + `Orientation`) with
//!   the analyses link reversal needs: sinks, acyclicity, topological order,
//!   destination-orientation, reachability.
//! * [`PlaneEmbedding`] — the left-to-right plane embedding of the initial
//!   DAG used by Invariants 4.1 and 4.2 of the paper.
//! * [`ReversalInstance`] — a ready-to-run initial configuration
//!   (graph, initial orientation, destination).
//! * [`stream`] — workload generators: chains, trees, grids, layered DAGs,
//!   bipartite and random connected DAGs, and the worst-case families used
//!   in the benchmark harness. Each streams straight into a flat
//!   [`CsrInstance`]; [`CsrInstance::to_instance`] materializes the map
//!   form.
//! * [`enumerate`] — exhaustive enumeration of small graphs, of all
//!   acyclic orientations, and of one instance per isomorphism class,
//!   used by the model-checking harness.
//!
//! # Quick example
//!
//! ```
//! use lr_graph::{stream, NodeId};
//!
//! // A 5-node chain with every edge initially directed away from the
//! // destination: the classic worst case for link reversal.
//! let inst = stream::chain_away(5).to_instance();
//! let view = inst.view();
//! assert!(view.is_acyclic());
//! assert!(!view.is_destination_oriented(inst.dest));
//! // The far end of the chain is the unique sink.
//! assert_eq!(view.sinks(), vec![NodeId::new(4)]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod csr;
mod directed;
mod embedding;
mod error;
mod instance;
mod node;
mod orientation;
mod undirected;

pub mod dot;
pub mod enumerate;
pub mod parse;
pub mod stream;

pub use csr::{check_slot_capacity, CsrBuilder, CsrGraph, MAX_HALF_EDGES};
pub use directed::DirectedView;
pub use embedding::PlaneEmbedding;
pub use error::GraphError;
pub use instance::ReversalInstance;
pub use node::NodeId;
pub use orientation::{EdgeDir, Orientation};
pub use stream::CsrInstance;
pub use undirected::UndirectedGraph;
