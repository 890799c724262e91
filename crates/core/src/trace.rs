//! Execution tracing: drive a family's engine while recording each step,
//! then render the trace as text or as a sequence of Graphviz DOT frames.
//!
//! Used by the examples for demonstration and by tests for debugging —
//! and itself a small reproduction artifact: the rendered trace shows the
//! exact reversal sets the paper's algorithms choose, side by side.

use std::fmt::Write as _;

use lr_graph::{dot, NodeId, Orientation, ReversalInstance};

use crate::alg::{FrontierEngine, FrontierFamily};
use crate::engine::SchedulePolicy;
use crate::ReversalStep;

/// One recorded frame: the step taken and the orientation after it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceFrame {
    /// The step (node, reversed edges, dummy flag).
    pub step: ReversalStep,
    /// Orientation after the step.
    pub after: Orientation,
    /// Sinks (excluding the destination) after the step.
    pub sinks_after: Vec<NodeId>,
}

/// A recorded execution of one engine.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Algorithm name.
    pub algorithm: &'static str,
    /// The instance traced (cloned so the trace is self-contained).
    pub instance: ReversalInstance,
    /// Initial orientation (== `instance.init()`).
    pub initial: Orientation,
    /// The recorded frames, in order.
    pub frames: Vec<TraceFrame>,
}

impl Trace {
    /// Builds `family`'s engine on `inst` and runs it to termination
    /// under `policy`, recording every step.
    ///
    /// # Panics
    ///
    /// Panics if the engine does not terminate within `max_steps`.
    pub fn record(
        inst: &ReversalInstance,
        family: FrontierFamily,
        policy: SchedulePolicy,
        max_steps: usize,
    ) -> Self {
        use rand::rngs::SmallRng;
        use rand::seq::SliceRandom;
        use rand::SeedableRng;

        let mut engine = family.engine(inst.clone());
        let engine = engine.as_mut();
        let algorithm = engine.algorithm_name();
        let initial = engine.orientation();
        let mut frames = Vec::new();
        let mut rng = match policy {
            SchedulePolicy::RandomSingle { seed } => Some(SmallRng::seed_from_u64(seed)),
            _ => None,
        };
        fn record_one(frames: &mut Vec<TraceFrame>, engine: &mut dyn FrontierEngine, u: NodeId) {
            let step = engine.step(u);
            let after = engine.orientation();
            // A trace frame keeps its own copy of the sink set, so the
            // borrowed view is snapshotted deliberately.
            let sinks_after = engine.enabled().to_vec();
            frames.push(TraceFrame {
                step,
                after,
                sinks_after,
            });
        }
        // Reusable greedy-round snapshot of the borrowed enabled view.
        let mut round: Vec<NodeId> = Vec::new();
        loop {
            if engine.is_terminated() {
                break;
            }
            assert!(
                frames.len() < max_steps,
                "{algorithm} did not terminate within {max_steps} steps"
            );
            match policy {
                SchedulePolicy::GreedyRounds => {
                    round.clear();
                    round.extend_from_slice(engine.enabled());
                    for &u in &round {
                        record_one(&mut frames, engine, u);
                    }
                }
                SchedulePolicy::RandomSingle { .. } => {
                    let rng = rng.as_mut().expect("rng for RandomSingle");
                    let u = *engine.enabled().choose(rng).expect("non-empty");
                    record_one(&mut frames, engine, u);
                }
                SchedulePolicy::FirstSingle => {
                    let u = *engine.enabled().first().expect("non-empty");
                    record_one(&mut frames, engine, u);
                }
                SchedulePolicy::LastSingle => {
                    let u = *engine.enabled().last().expect("non-empty");
                    record_one(&mut frames, engine, u);
                }
            }
        }
        Trace {
            algorithm,
            instance: inst.clone(),
            initial,
            frames,
        }
    }

    /// Number of steps recorded.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// `true` when no step was taken (already destination-oriented).
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Total edge reversals.
    pub fn total_reversals(&self) -> usize {
        self.frames.iter().map(|f| f.step.reversal_count()).sum()
    }

    /// Number of dummy steps.
    pub fn dummy_steps(&self) -> usize {
        self.frames.iter().filter(|f| f.step.dummy).count()
    }

    /// A compact human-readable rendering, one line per step.
    ///
    /// ```text
    /// step 1: n3 reverses {n2}            sinks after: [n2]
    /// step 2: n2 reverses {n1}            sinks after: [n1]
    /// ...
    /// ```
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} on {} nodes (dest {}), {} steps, {} reversals, {} dummies",
            self.algorithm,
            self.instance.node_count(),
            self.instance.dest,
            self.len(),
            self.total_reversals(),
            self.dummy_steps()
        );
        for (i, f) in self.frames.iter().enumerate() {
            let targets: Vec<String> = f.step.reversed.iter().map(|v| v.to_string()).collect();
            let kind = if f.step.dummy { " (dummy)" } else { "" };
            let sinks: Vec<String> = f.sinks_after.iter().map(|v| v.to_string()).collect();
            let _ = writeln!(
                out,
                "step {:>3}: {} reverses {{{}}}{kind}  sinks after: [{}]",
                i + 1,
                f.step.node,
                targets.join(", "),
                sinks.join(", ")
            );
        }
        out
    }

    /// Renders the trace as a sequence of DOT digraphs (initial state
    /// plus one frame per step), suitable for `dot -Tpng` batch
    /// rendering.
    pub fn render_dot_frames(&self) -> Vec<String> {
        let mut frames = Vec::with_capacity(self.frames.len() + 1);
        let opts = |name: String| dot::DotOptions {
            destination: Some(self.instance.dest),
            highlight_sinks: true,
            name: Some(name),
        };
        frames.push(dot::to_dot(&self.initial, &opts("initial".into())));
        for (i, f) in self.frames.iter().enumerate() {
            frames.push(dot::to_dot(&f.after, &opts(format!("step_{}", i + 1))));
        }
        frames
    }

    /// Validates the internal consistency of the trace: orientations
    /// evolve exactly by the recorded reversal sets and end
    /// destination-oriented.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency.
    pub fn validate(&self) -> Result<(), String> {
        let mut current = self.initial.clone();
        for (i, f) in self.frames.iter().enumerate() {
            for &v in &f.step.reversed {
                if !current.points_from_to(v, f.step.node) {
                    return Err(format!(
                        "frame {i}: edge {{{}, {v}}} was not incoming before reversal",
                        f.step.node
                    ));
                }
                current
                    .reverse(f.step.node, v)
                    .map_err(|e| format!("frame {i}: {e}"))?;
            }
            if current != f.after {
                return Err(format!(
                    "frame {i}: recorded orientation does not match replay"
                ));
            }
        }
        if !current.is_destination_oriented(self.instance.dest) {
            return Err("trace does not end destination-oriented".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alg::FrontierFamily::{NewPr, PartialReversal};
    use crate::engine::{run_engine_frontier, DEFAULT_MAX_STEPS};
    use lr_graph::stream;

    #[test]
    fn trace_records_and_validates() {
        let inst = stream::chain_away(6);
        let trace = Trace::record(
            &inst,
            PartialReversal,
            SchedulePolicy::FirstSingle,
            DEFAULT_MAX_STEPS,
        );
        assert_eq!(trace.len(), 5);
        assert_eq!(trace.total_reversals(), 5);
        assert_eq!(trace.dummy_steps(), 0);
        trace.validate().expect("trace must replay");
    }

    #[test]
    fn text_rendering_mentions_every_step() {
        let inst = stream::chain_away(4);
        let trace = Trace::record(
            &inst,
            PartialReversal,
            SchedulePolicy::FirstSingle,
            DEFAULT_MAX_STEPS,
        );
        let text = trace.render_text();
        assert!(text.contains("step   1"));
        assert!(text.contains("n3 reverses {n2}"));
        assert!(text.lines().count() > trace.len());
    }

    #[test]
    fn dummy_steps_are_flagged_in_text() {
        let inst = lr_graph::parse::parse_instance("dest 3\n1 > 0\n2 > 0\n3 > 0").unwrap();
        let trace = Trace::record(&inst, NewPr, SchedulePolicy::FirstSingle, DEFAULT_MAX_STEPS);
        assert!(trace.dummy_steps() > 0);
        assert!(trace.render_text().contains("(dummy)"));
        trace.validate().expect("dummy steps replay as no-ops");
    }

    #[test]
    fn dot_frames_cover_initial_plus_steps() {
        let inst = stream::chain_away(4);
        let trace = Trace::record(
            &inst,
            PartialReversal,
            SchedulePolicy::FirstSingle,
            DEFAULT_MAX_STEPS,
        );
        let frames = trace.render_dot_frames();
        assert_eq!(frames.len(), trace.len() + 1);
        assert!(frames[0].contains("digraph initial"));
        assert!(frames[1].contains("digraph step_1"));
    }

    #[test]
    fn empty_trace_on_oriented_instance() {
        let inst = stream::chain_toward(5);
        let trace = Trace::record(
            &inst,
            PartialReversal,
            SchedulePolicy::GreedyRounds,
            DEFAULT_MAX_STEPS,
        );
        assert!(trace.is_empty());
        trace.validate().expect("empty trace is valid");
    }

    #[test]
    fn traces_are_reproducible_for_random_policy() {
        let inst = stream::random_connected(10, 8, 60);
        let policy = SchedulePolicy::RandomSingle { seed: 4 };
        let ta = Trace::record(&inst, PartialReversal, policy, 100_000);
        let tb = Trace::record(&inst, PartialReversal, policy, 100_000);
        assert_eq!(ta.frames, tb.frames);
    }

    /// A recorded trace replays to the same totals the run loop reports.
    #[test]
    fn traces_agree_with_run_stats() {
        for seed in 0..6 {
            let inst = stream::random_connected(14, 12, 9100 + seed);
            let policy = SchedulePolicy::RandomSingle { seed };
            for family in FrontierFamily::ALL {
                let mut e = family.engine(inst.clone());
                let stats = run_engine_frontier(e.as_mut(), policy, DEFAULT_MAX_STEPS);
                let trace = Trace::record(&inst, family, policy, DEFAULT_MAX_STEPS);
                assert_eq!(trace.len(), stats.steps, "{}", family.name());
                assert_eq!(trace.total_reversals(), stats.total_reversals);
                assert_eq!(trace.dummy_steps(), stats.dummy_steps);
                trace.validate().expect("trace replays");
            }
        }
    }
}
