//! Property-based tests over random instances: the paper's safety
//! properties must hold for *every* graph, orientation, destination, and
//! schedule — proptest samples that space far more widely than the
//! hand-picked fixtures.

use link_reversal::core::invariants::{check_acyclic, check_inv_3_1, check_inv_4_1, check_inv_4_2};
use link_reversal::prelude::*;
use proptest::prelude::*;

/// Strategy: a random connected instance with 2..=12 nodes.
fn instance_strategy() -> impl Strategy<Value = ReversalInstance> {
    (2usize..=12, 0usize..=20, any::<u64>())
        .prop_map(|(n, extra, seed)| stream::random_connected(n, extra, seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// NewPR: acyclic in every reachable state under a random schedule
    /// (Theorem 4.3, randomized far beyond the exhaustive sizes).
    #[test]
    fn newpr_acyclic_everywhere(inst in instance_strategy(), sched_seed in any::<u64>()) {
        let aut = NewPrAutomaton { inst: &inst };
        let exec = run(&aut, &mut schedulers::UniformRandom::seeded(sched_seed), 200_000);
        prop_assert!(aut.is_quiescent(exec.last_state()), "NewPR must terminate");
        for s in exec.states() {
            prop_assert!(check_acyclic(&s.dirs).is_ok());
            prop_assert!(check_inv_3_1(&s.dirs).is_ok());
            prop_assert!(check_inv_4_1(&inst, s).is_ok());
            prop_assert!(check_inv_4_2(&inst, s).is_ok());
        }
    }

    /// OneStepPR terminates destination-oriented with acyclicity along
    /// the way (Theorem 5.5, randomized).
    #[test]
    fn onestep_pr_safe_and_live(inst in instance_strategy(), sched_seed in any::<u64>()) {
        let aut = OneStepPrAutomaton { inst: &inst };
        let exec = run(&aut, &mut schedulers::UniformRandom::seeded(sched_seed), 200_000);
        prop_assert!(aut.is_quiescent(exec.last_state()));
        for s in exec.states() {
            prop_assert!(check_acyclic(&s.dirs).is_ok());
        }
        let o = exec.last_state().dirs.orientation();
        prop_assert!(o.is_destination_oriented(inst.dest));
    }

    /// R' and R hold along arbitrary PR executions (Lemmas 5.1/5.3,
    /// randomized).
    #[test]
    fn simulation_relations_hold(inst in instance_strategy(), sched_seed in any::<u64>()) {
        let pr = PrSetAutomaton { inst: &inst };
        let os = OneStepPrAutomaton { inst: &inst };
        let np = NewPrAutomaton { inst: &inst };
        let exec = run(&pr, &mut schedulers::UniformRandom::seeded(sched_seed), 50_000);
        let os_exec = r_prime_checker(&inst).check_execution(&pr, &os, &exec).unwrap();
        let np_exec = r_checker(&inst).check_execution(&os, &np, &os_exec).unwrap();
        prop_assert_eq!(
            os_exec.last_state().dirs.orientation(),
            np_exec.last_state().dirs.orientation()
        );
    }

    /// Work never exceeds the Θ(n_b²) ceiling cited in §1 (with the
    /// small additive slack for NewPR's dummy steps).
    #[test]
    fn work_is_quadratically_bounded(inst in instance_strategy(), seed in any::<u64>()) {
        let nb = inst.initial_bad_nodes();
        let n = inst.node_count();
        for family in FrontierFamily::ALL {
            let mut e = family.engine(inst.clone());
            let policy = SchedulePolicy::RandomSingle { seed };
            let stats = run_engine_frontier(e.as_mut(), policy, 10_000_000);
            prop_assert!(stats.terminated);
            // Loose but universal sanity ceiling: (nb+1)² + n steps.
            prop_assert!(
                stats.steps <= (nb + 1) * (nb + 1) + n,
                "{} took {} steps with nb = {nb}",
                family.name(), stats.steps
            );
        }
    }

    /// Busch–Tirthapura's deterministic-work theorem (cited in §1): the
    /// per-node reversal counts are identical in every execution —
    /// link reversal is an abelian process.
    #[test]
    fn work_is_schedule_independent(inst in instance_strategy(), seed in any::<u64>()) {
        for family in FrontierFamily::ALL {
            let mut reference = None;
            for policy in [
                SchedulePolicy::GreedyRounds,
                SchedulePolicy::RandomSingle { seed },
                SchedulePolicy::FirstSingle,
                SchedulePolicy::LastSingle,
            ] {
                let mut e = family.engine(inst.clone());
                let stats = run_engine_frontier(e.as_mut(), policy, 10_000_000);
                prop_assert!(stats.terminated);
                // The dense work vector is comparable across runs on one
                // instance: every engine shares the same CSR indexing.
                let work = (stats.work, stats.total_reversals);
                match &reference {
                    None => reference = Some(work),
                    Some(r) => prop_assert_eq!(
                        &work, r,
                        "{} work differs across schedules", family.name()
                    ),
                }
            }
        }
    }

    /// The text format round-trips every instance.
    #[test]
    fn instance_text_round_trip(inst in instance_strategy()) {
        let text = link_reversal::graph::parse::to_text(&inst);
        let back = link_reversal::graph::parse::parse_instance(&text).unwrap();
        prop_assert_eq!(back, inst);
    }

    /// The plane embedding — x-coordinates from the initial orientation's
    /// topological order — orients every initial edge left-to-right, the
    /// premise of §4.2's proof setup.
    #[test]
    fn embedding_orients_initial_edges_ltr(inst in instance_strategy()) {
        let order = inst.init().topological_order().expect("the initial DAG");
        let mut x = vec![0; order.len()];
        for (pos, &u) in order.iter().enumerate() {
            x[u] = pos;
        }
        let csr = inst.csr();
        for (t, h) in inst.init().directed_edges() {
            prop_assert!(x[csr.index_of(t).unwrap()] < x[csr.index_of(h).unwrap()]);
        }
    }
}
