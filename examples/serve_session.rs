//! Resident service mode end-to-end: keep a routing instance live and
//! drive it with a seeded open-loop workload plus a scripted churn
//! feed, then print the steady-state latency/hops/stretch report.
//!
//! ```sh
//! cargo run --release --example serve_session
//! ```
//!
//! The same loop backs `lr serve <spec.json>`; this example builds the
//! spec and feed in code to show the library surface. The rendered
//! report is bit-identical across runs and `threads` values — only
//! `ServeReport::elapsed_ns` (not printed here) carries wall-clock time.

use lr_scenario::{parse_feed, run_serve, ScenarioSpec, ServeOptions};

fn main() {
    // An 8×8 grid served by the height-vector routing protocol. The
    // spec is the ordinary scenario schema — any protocol/topology
    // combination that `lr scenario run` accepts will serve.
    let spec = ScenarioSpec::from_json(
        r#"{
            "name": "serve-session-example",
            "protocol": "routing",
            "topology": {"family": "grid", "rows": 8, "cols": 8},
            "seeds": [42]
        }"#,
    )
    .expect("spec parses");

    // A scripted feed: fail a link mid-run, ask for a route while the
    // orientation is re-converging, then heal and ask again. The
    // generator keeps 10 requests/tick arriving around these events.
    let feed = parse_feed(concat!(
        "{\"at\": 20, \"fail\": [0, 1]}\n",
        "{\"at\": 24, \"route\": 63}\n",
        "{\"at\": 40, \"heal\": [0, 1]}\n",
        "{\"at\": 44, \"route\": 63}\n",
    ))
    .expect("feed parses");

    let options = ServeOptions {
        rate: 10,
        duration: 100,
        threads: 2,
        ..ServeOptions::default()
    };

    let report = run_serve(&spec, &options, &feed).expect("serve runs");
    print!("{}", report.render());

    assert_eq!(report.dropped, 0, "this workload fits the default queue");
    assert!(report.answered > 0, "the live orientation answered routes");
}
