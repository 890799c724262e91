//! Graph substrate for link-reversal algorithms.
//!
//! This crate provides the one instance representation every other crate
//! in the workspace runs on:
//!
//! * [`CsrGraph`] — the fixed communication graph `G = (V, E)` of the
//!   system model (§2 of Radeva & Lynch, *Partial Reversal Acyclicity*)
//!   in compressed-sparse-row form, with half-edge/twin indexing. Nodes
//!   and edges are never added or removed during an execution.
//! * [`Orientation`] — a direction for every edge of `G`, i.e. a directed
//!   version `G' = (V, E')`, as one bit per half-edge slot, with the
//!   analyses link reversal needs: sinks, a topological order,
//!   acyclicity and a witness cycle, and destination-orientation.
//! * [`ReversalInstance`] — the §2 triple (graph, initial acyclic
//!   orientation, destination), built and validated from a list of
//!   directed edges by [`ReversalInstance::from_edges`].
//! * [`parse`] — the text format of instances, and [`dot`] — Graphviz
//!   export.
//! * [`stream`] — workload generators: chains, trees, grids, layered DAGs,
//!   bipartite and random connected DAGs, and the worst-case families used
//!   in the benchmark. Each streams straight into CSR arrays.
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
//! let inst = stream::chain_away(5);
//! let init = inst.init();
//! assert!(init.is_acyclic());
//! assert!(!init.is_destination_oriented(inst.dest));
//! // The far end of the chain is the unique sink.
//! assert_eq!(init.sinks(), vec![NodeId::new(4)]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod csr;
mod error;
mod instance;
mod node;
mod orientation;

pub mod dot;
pub mod enumerate;
pub mod parse;
pub mod stream;

pub use csr::{check_slot_capacity, CsrBuilder, CsrGraph, MAX_HALF_EDGES};
pub use error::GraphError;
pub use instance::ReversalInstance;
pub use node::NodeId;
pub use orientation::{EdgeDir, Orientation};
