//! Step-by-step trace of the paper's algorithms side by side on the same
//! instance: watch PR skip the edges its list protects, and NewPR insert
//! its dummy steps.
//!
//! ```sh
//! cargo run --example trace_steps
//! ```

use link_reversal::core::trace::Trace;
use link_reversal::prelude::*;

fn main() {
    // The star centered on an initial sink with the destination at a
    // leaf: the canonical dummy-step instance from §4.1 of the paper.
    let inst = link_reversal::graph::parse::parse_instance(
        "# star centered on node 0 (initial sink); destination is leaf 3
         dest 3
         1 > 0
         2 > 0
         3 > 0",
    )
    .expect("valid instance");

    println!("instance: star, center n0 is an initial sink, destination n3\n");
    for family in [
        FrontierFamily::FullReversal,
        FrontierFamily::PartialReversal,
        FrontierFamily::NewPr,
    ] {
        let trace = Trace::record(
            &inst,
            family,
            SchedulePolicy::FirstSingle,
            DEFAULT_MAX_STEPS,
        );
        trace.validate().expect("recorded trace must replay");
        println!("{}", trace.render_text());
    }

    // Dump the NewPR run as DOT frames for visualization.
    let trace = Trace::record(
        &inst,
        FrontierFamily::NewPr,
        SchedulePolicy::FirstSingle,
        DEFAULT_MAX_STEPS,
    );
    let frames = trace.render_dot_frames();
    println!(
        "NewPR produced {} DOT frames; first frame:\n{}",
        frames.len(),
        frames[0]
    );
    println!("(pipe each frame through `dot -Tpng` to render an animation)");
}
