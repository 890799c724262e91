//! Distributed message-passing substrate for link reversal.
//!
//! The paper's abstract motivates link reversal through its applications:
//! *"routing protocols and algorithms for solving leader election and
//! mutual exclusion"*. This crate builds that surrounding system:
//!
//! * [`sim`] — a deterministic discrete-event network simulator: per-link
//!   FIFO queues with configurable delay, jitter, and loss; virtual time;
//!   reproducible seeded randomness. It runs on a [`lr_graph::CsrGraph`]:
//!   node state by dense index, and per **half-edge slot** the link's
//!   live bit, config, FIFO clock and the protocol's per-neighbor state
//!   ([`sim::Protocol::Slot`]), which a handler sees as its node's
//!   contiguous run of slots through [`sim::Ctx`].
//! * [`reversal`] — the *distributed* Partial Reversal protocol: each node
//!   knows only its own Gafni–Bertsekas triple height and its neighbors'
//!   last announced heights (one per slot), performs the PR height update
//!   when it finds itself a sink, and gossips the new height. This is the
//!   local-knowledge formulation that actually runs in a network (the
//!   list/parity automata of the paper assume a global scheduler). Its
//!   sink rule is the one the routing, election and threaded modes use.
//! * [`routing`] — TORA-style destination-oriented routing: greedy
//!   downhill forwarding ([`routing::downhill`]) over the
//!   reversal-maintained DAG, with link failures triggering re-reversal
//!   (experiment E12).
//! * [`tora`] — TORA itself (Park & Corson): quintuple heights, routes
//!   created on demand, reference levels after a link loss, and
//!   partition detection with route erasure.
//! * [`election`] — leader election by re-orienting the DAG toward a new
//!   destination when the current leader departs.
//! * [`mutex`] — Raymond's token-based mutual exclusion: the token
//!   holder is the destination of a tree of holder pointers, which
//!   reverse along the token's path.
//! * [`live`] — a threaded mode on `std::sync::mpsc` channels: one OS
//!   thread per node, no global scheduler at all, demonstrating that the
//!   protocol's guarantees don't depend on the simulator's determinism.
//!   It refuses instances of more than [`live::MAX_THREADED_NODES`]
//!   nodes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod election;
pub mod live;
pub mod mutex;
pub mod reversal;
pub mod routing;
pub mod sim;
pub mod tora;
