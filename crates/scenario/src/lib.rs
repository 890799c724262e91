//! `lr-scenario` — the declarative scenario engine.
//!
//! The paper's subject is how link reversal behaves under *dynamic*
//! topology; this crate makes dynamics a first-class, declarative
//! workload instead of hand-written driver code. A JSON spec describes
//! one experiment:
//!
//! * a **topology** — any `lr_graph::stream` family or an inline edge
//!   list ([`spec::TopologySpec`]);
//! * **heterogeneous links** — global delay/jitter/loss defaults plus
//!   per-link overrides ([`spec::LinksSpec`], carried onto
//!   `EventSim::set_link_config`);
//! * a timed **churn schedule** — fail/heal waves, partitions, and
//!   seeded mobility-style random churn ([`spec::ChurnEvent`]);
//! * a **traffic workload** — injection waves from many sources against
//!   the `lr-net` protocols: routing packets, TORA route queries, mutex
//!   critical-section requests ([`spec::TrafficSpec`]);
//! * the sweep dimensions — `seeds × trials`, each run seeded
//!   deterministically ([`spec::derive_run_seed`]).
//!
//! The [`engine`] executes one run and collects metrics after every
//! churn event: convergence time, delivery rate, message counts, route
//! stretch, per-node work distribution, and whether the height-implied
//! orientation stayed acyclic (the paper's theorem, observed under
//! perturbation). The [`sweep`] runner executes the full sweep and
//! emits one [`ScenarioRecord`] row per churn event and run.
//!
//! Specs may also declare a `matrix` section — a grid over protocols,
//! topologies, link configurations, and churn intensities
//! ([`spec::MatrixSpec`]). [`sweep::run_matrix_sweep`] expands the grid
//! into independent cells (`points × seeds × trials`), fans them out
//! over scoped `std` threads, and folds results through the
//! mergeable [`stats`] accumulators in canonical order, so a parallel
//! sweep is bit-identical to a serial one. Each point, and the whole
//! sweep, is summarized in one [`SweepRecord`] row.
//!
//! The [`serve`] module is the resident complement to the batch
//! engine: `lr serve` keeps one protocol instance live and feeds it a
//! streaming open-loop workload (seeded generator and/or newline-JSON
//! feed) through a bounded admission queue, reporting steady-state
//! latency/hops/stretch percentiles that are bit-identical for a fixed
//! seed across runs and thread counts.
//!
//! ```
//! use lr_scenario::spec::ScenarioSpec;
//! use lr_scenario::sweep::{run_sweep, SweepOptions};
//!
//! let spec = ScenarioSpec::from_json(
//!     r#"{
//!         "name": "doc-example",
//!         "topology": {"family": "grid", "rows": 3, "cols": 3},
//!         "churn": [{"at": 50, "fail": [[4, 5]]}],
//!         "traffic": {"packets_per_source": 2, "interval": 10}
//!     }"#,
//! )
//! .unwrap();
//! let outcome = run_sweep(&spec, SweepOptions::default()).unwrap();
//! // 1 start row + 1 churn row + 1 summary row.
//! assert_eq!(outcome.records.len(), 3);
//! assert!(outcome.records.iter().all(|r| r.acyclic));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod serve;
pub mod spec;
pub mod stats;
pub mod sweep;
pub mod topology;

pub use engine::{run_scenario, RunOutcome, ScenarioError, ScenarioRecord};
pub use serve::{
    parse_feed, run_serve, FeedAction, FeedEvent, ServeError, ServeOptions, ServeReport,
};
pub use spec::{MatrixPoint, MatrixSpec, ScenarioSpec, SpecError};
pub use sweep::{
    render_matrix_table, render_table, run_matrix_sweep, run_sweep, MatrixOptions, MatrixOutcome,
    SweepOptions, SweepOutcome, SweepRecord,
};
