//! The game-theoretic comparison of FR and PR cited in §1 of the paper
//! (Charron-Bost, Welch & Widder, *Link reversal: how to play better to
//! work less*, ALGOSENSORS 2009).
//!
//! In that framing each node is a player whose cost is the number of
//! steps it takes before global termination; the **social cost** of an
//! execution is the sum over all nodes. The cited headline: FR's strategy
//! profile is always a Nash equilibrium but has the *largest* social cost
//! among equilibria, while PR — when it is an equilibrium — achieves the
//! global optimum. Experiment E10 reproduces the observable consequence:
//! PR's social cost is never worse than FR's on the benchmark families,
//! with strict separation on the families where FR is quadratic.

use std::collections::BTreeMap;

use lr_graph::{NodeId, ReversalInstance};
use serde::Serialize;

use crate::alg::FrontierFamily;
use crate::engine::{run_engine_frontier, SchedulePolicy, DEFAULT_MAX_STEPS};

/// Per-node step counts of one completed execution.
pub type WorkVector = BTreeMap<NodeId, usize>;

/// Social-cost comparison of two algorithms on one instance.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CostComparison {
    /// Node count.
    pub n: usize,
    /// Initial bad-node count.
    pub n_b: usize,
    /// Social cost (total steps) of Full Reversal under greedy scheduling.
    pub fr_cost: usize,
    /// Social cost of Partial Reversal under greedy scheduling.
    pub pr_cost: usize,
    /// Social cost of NewPR under greedy scheduling (includes dummy
    /// steps, the "greater cost in certain situations" of §4.1).
    pub newpr_cost: usize,
}

impl CostComparison {
    /// `fr_cost / pr_cost` — how much more total work FR's equilibrium
    /// does than PR on this instance (∞-free: returns `None` when PR does
    /// zero work, i.e. the instance starts destination-oriented).
    pub fn fr_over_pr(&self) -> Option<f64> {
        (self.pr_cost > 0).then(|| self.fr_cost as f64 / self.pr_cost as f64)
    }
}

/// Runs FR, PR, and NewPR to termination under greedy scheduling and
/// compares social costs.
///
/// # Panics
///
/// Panics if any algorithm fails to terminate within the default budget.
pub fn compare_social_costs(inst: &ReversalInstance) -> CostComparison {
    let cost = |family: FrontierFamily| {
        let mut e = family.engine(inst.clone());
        let stats =
            run_engine_frontier(e.as_mut(), SchedulePolicy::GreedyRounds, DEFAULT_MAX_STEPS);
        assert!(stats.terminated, "{} did not terminate", family.name());
        stats.social_cost()
    };
    CostComparison {
        n: inst.node_count(),
        n_b: inst.initial_bad_nodes(),
        fr_cost: cost(FrontierFamily::FullReversal),
        pr_cost: cost(FrontierFamily::PartialReversal),
        newpr_cost: cost(FrontierFamily::NewPr),
    }
}

/// The full per-node work vector of one algorithm under greedy
/// scheduling — each player's individual cost in the game.
///
/// # Panics
///
/// Panics if the algorithm fails to terminate within the default budget.
pub fn work_vector(family: FrontierFamily, inst: &ReversalInstance) -> WorkVector {
    let mut e = family.engine(inst.clone());
    let stats = run_engine_frontier(e.as_mut(), SchedulePolicy::GreedyRounds, DEFAULT_MAX_STEPS);
    assert!(stats.terminated, "{} did not terminate", family.name());
    // The node-keyed map is derived here, at the one consumer that needs
    // it — the run itself only fills the dense work vector.
    stats.work_per_node(e.csr())
}

/// A per-node strategy in the (projected) Charron-Bost game: when this
/// node is a sink, does it reverse all incident edges (FR) or only the
/// un-listed ones (PR)?
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Strategy {
    /// Reverse every incident edge.
    Full,
    /// Reverse only edges to neighbors that have not reversed since the
    /// node's last step (the PR rule).
    Partial,
}

impl Strategy {
    /// The other strategy.
    #[must_use]
    pub fn flipped(self) -> Self {
        match self {
            Strategy::Full => Strategy::Partial,
            Strategy::Partial => Strategy::Full,
        }
    }
}

/// A strategy profile: one [`Strategy`] per non-destination node.
pub type Profile = BTreeMap<NodeId, Strategy>;

/// The uniform profile where every node plays `s`.
pub fn uniform_profile(inst: &ReversalInstance, s: Strategy) -> Profile {
    inst.csr()
        .nodes()
        .filter(|&u| u != inst.dest)
        .map(|u| (u, s))
        .collect()
}

/// Runs the mixed-strategy reversal game to termination under the greedy
/// schedule and returns each node's cost (its step count).
///
/// The engine generalizes both algorithms: every node keeps the PR
/// `list` bookkeeping (who reversed toward me since my last step), but
/// only `Partial` players consult it; `Full` players always reverse all
/// incident edges. With a homogeneous profile this reduces exactly to FR
/// or PR.
///
/// # Panics
///
/// Panics if the run exceeds the default step budget (mixed GB-family
/// profiles always terminate) or if the profile is missing a node.
pub fn profile_costs(inst: &ReversalInstance, profile: &Profile) -> WorkVector {
    use std::collections::BTreeSet;

    let mut dirs = crate::MirroredDirs::from_instance(inst);
    let mut lists: BTreeMap<NodeId, BTreeSet<NodeId>> =
        inst.csr().nodes().map(|u| (u, BTreeSet::new())).collect();
    let mut work: WorkVector = inst.csr().nodes().map(|u| (u, 0)).collect();
    let mut steps = 0usize;
    loop {
        let sinks: Vec<NodeId> = inst
            .csr()
            .nodes()
            .filter(|&u| crate::alg::may_step(inst, &dirs, u))
            .collect();
        if sinks.is_empty() {
            return work;
        }
        for u in sinks {
            let strategy = *profile
                .get(&u)
                .unwrap_or_else(|| panic!("profile is missing node {u}"));
            let nbrs: BTreeSet<NodeId> = inst.csr().neighbors(u).collect();
            let targets: Vec<NodeId> = match strategy {
                Strategy::Full => nbrs.iter().copied().collect(),
                Strategy::Partial => {
                    if lists[&u] == nbrs {
                        nbrs.iter().copied().collect()
                    } else {
                        nbrs.difference(&lists[&u]).copied().collect()
                    }
                }
            };
            for &v in &targets {
                dirs.reverse_outward(u, v);
                lists.get_mut(&v).expect("node exists").insert(u);
            }
            lists.get_mut(&u).expect("node exists").clear();
            *work.get_mut(&u).expect("node exists") += 1;
            steps += 1;
            assert!(
                steps < crate::engine::DEFAULT_MAX_STEPS,
                "mixed profile failed to terminate"
            );
        }
    }
}

/// Checks whether `profile` is a Nash equilibrium of the projected game:
/// no single node can strictly lower its own cost by switching strategy.
///
/// Returns `None` if it is an equilibrium, otherwise the first profitable
/// deviation as `(node, cost_now, cost_after_switch)`.
pub fn find_profitable_deviation(
    inst: &ReversalInstance,
    profile: &Profile,
) -> Option<(NodeId, usize, usize)> {
    let base = profile_costs(inst, profile);
    for (&u, &s) in profile {
        let mut deviated = profile.clone();
        deviated.insert(u, s.flipped());
        let alt = profile_costs(inst, &deviated);
        if alt[&u] < base[&u] {
            return Some((u, base[&u], alt[&u]));
        }
    }
    None
}

/// Exhaustive analysis of the profile space (2^players profiles): social
/// cost extremes and equilibrium status of the two uniform profiles.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ProfileAnalysis {
    /// Number of profiles examined.
    pub profiles: usize,
    /// Social cost of all-Full.
    pub fr_cost: usize,
    /// Social cost of all-Partial.
    pub pr_cost: usize,
    /// Minimum social cost over every profile.
    pub min_cost: usize,
    /// Maximum social cost over every profile.
    pub max_cost: usize,
    /// Is all-Full a Nash equilibrium?
    pub fr_is_equilibrium: bool,
    /// Is all-Partial a Nash equilibrium?
    pub pr_is_equilibrium: bool,
}

/// Enumerates all `2^players` profiles (players = non-destination
/// nodes).
///
/// # Panics
///
/// Panics if there are more than 16 players.
pub fn analyze_profiles(inst: &ReversalInstance) -> ProfileAnalysis {
    let players: Vec<NodeId> = inst.csr().nodes().filter(|&u| u != inst.dest).collect();
    assert!(
        players.len() <= 16,
        "2^{} profiles is too many",
        players.len()
    );
    let mut min_cost = usize::MAX;
    let mut max_cost = 0usize;
    let mut profiles = 0usize;
    for mask in 0u32..(1 << players.len()) {
        let profile: Profile = players
            .iter()
            .enumerate()
            .map(|(i, &u)| {
                let s = if mask >> i & 1 == 1 {
                    Strategy::Partial
                } else {
                    Strategy::Full
                };
                (u, s)
            })
            .collect();
        let cost: usize = profile_costs(inst, &profile).values().sum();
        min_cost = min_cost.min(cost);
        max_cost = max_cost.max(cost);
        profiles += 1;
    }
    let fr = uniform_profile(inst, Strategy::Full);
    let pr = uniform_profile(inst, Strategy::Partial);
    ProfileAnalysis {
        profiles,
        fr_cost: profile_costs(inst, &fr).values().sum(),
        pr_cost: profile_costs(inst, &pr).values().sum(),
        min_cost,
        max_cost,
        fr_is_equilibrium: find_profitable_deviation(inst, &fr).is_none(),
        pr_is_equilibrium: find_profitable_deviation(inst, &pr).is_none(),
    }
}

/// Pointwise comparison of two work vectors: `Some(true)` if `a` is
/// dominated by `b` (every node works at most as much in `a`, at least
/// one strictly less), `Some(false)` for the reverse, `None` if
/// incomparable or equal.
pub fn dominates(a: &WorkVector, b: &WorkVector) -> Option<bool> {
    let mut a_leq = true;
    let mut b_leq = true;
    let mut strict_a = false;
    let mut strict_b = false;
    for (u, &wa) in a {
        let wb = *b.get(u).unwrap_or(&0);
        if wa > wb {
            a_leq = false;
            strict_b = true;
        }
        if wb > wa {
            b_leq = false;
            strict_a = true;
        }
    }
    match (a_leq && strict_a, b_leq && strict_b) {
        (true, _) => Some(true),
        (_, true) => Some(false),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lr_graph::stream;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn pr_strictly_beats_fr_on_away_chain() {
        let inst = stream::chain_away(32);
        let c = compare_social_costs(&inst);
        assert!(
            c.pr_cost < c.fr_cost,
            "PR ({}) should beat FR ({}) on the away-chain",
            c.pr_cost,
            c.fr_cost
        );
        assert!(c.fr_over_pr().unwrap() > 1.5);
    }

    #[test]
    fn costs_match_on_star() {
        // On the outward star every leaf steps exactly once under both
        // algorithms.
        let inst = stream::star_away(8);
        let c = compare_social_costs(&inst);
        assert_eq!(c.fr_cost, 8);
        assert_eq!(c.pr_cost, 8);
    }

    #[test]
    fn destination_oriented_instance_costs_zero() {
        let inst = stream::chain_toward(10);
        let c = compare_social_costs(&inst);
        assert_eq!((c.fr_cost, c.pr_cost, c.newpr_cost), (0, 0, 0));
        assert_eq!(c.fr_over_pr(), None);
    }

    #[test]
    fn newpr_cost_at_least_pr_cost() {
        // NewPR takes the same real steps as PR plus dummy steps, so its
        // greedy social cost is ≥ PR's.
        for seed in 0..10 {
            let inst = stream::random_connected(12, 8, 400 + seed);
            let c = compare_social_costs(&inst);
            assert!(
                c.newpr_cost >= c.pr_cost,
                "seed {seed}: NewPR {} < PR {}",
                c.newpr_cost,
                c.pr_cost
            );
        }
    }

    #[test]
    fn work_vectors_sum_to_social_cost() {
        let inst = stream::chain_away(16);
        let c = compare_social_costs(&inst);
        let v = work_vector(FrontierFamily::PartialReversal, &inst);
        assert_eq!(v.values().sum::<usize>(), c.pr_cost);
    }

    #[test]
    fn dominance_comparisons() {
        let a: WorkVector = [(n(0), 1), (n(1), 2)].into();
        let b: WorkVector = [(n(0), 2), (n(1), 2)].into();
        assert_eq!(dominates(&a, &b), Some(true));
        assert_eq!(dominates(&b, &a), Some(false));
        assert_eq!(dominates(&a, &a), None);
        let c: WorkVector = [(n(0), 0), (n(1), 3)].into();
        assert_eq!(dominates(&a, &c), None, "incomparable");
    }

    #[test]
    fn uniform_profiles_reproduce_the_pure_algorithms() {
        for seed in 0..5 {
            let inst = stream::random_connected(10, 8, 700 + seed);
            let fr_profile = profile_costs(&inst, &uniform_profile(&inst, Strategy::Full));
            let fr_direct = work_vector(FrontierFamily::FullReversal, &inst);
            assert_eq!(fr_profile, fr_direct, "all-Full must equal FR");
            let pr_profile = profile_costs(&inst, &uniform_profile(&inst, Strategy::Partial));
            let pr_direct = work_vector(FrontierFamily::PartialReversal, &inst);
            assert_eq!(pr_profile, pr_direct, "all-Partial must equal PR");
        }
    }

    #[test]
    fn fr_profile_is_a_nash_equilibrium_on_small_instances() {
        // Charron-Bost et al. (cited in §1): FR's profile is always an
        // equilibrium — verified here on the projected {Full, Partial}
        // strategy space.
        for inst in [
            stream::chain_away(7),
            stream::alternating_chain(7),
            stream::star_away(5),
            stream::random_connected(8, 6, 31),
            stream::random_connected(8, 12, 32),
        ] {
            let fr = uniform_profile(&inst, Strategy::Full);
            assert_eq!(
                find_profitable_deviation(&inst, &fr),
                None,
                "a node profited from deviating off all-Full"
            );
        }
    }

    #[test]
    fn pr_equilibria_are_globally_optimal_when_they_exist() {
        // The cited optimality claim, projected: whenever all-Partial is
        // an equilibrium, no profile at all has lower social cost.
        for inst in [
            stream::chain_away(8),
            stream::alternating_chain(8),
            stream::random_connected(9, 6, 41),
            stream::random_connected(9, 12, 42),
        ] {
            let a = analyze_profiles(&inst);
            assert!(a.profiles >= 2);
            assert!(a.fr_is_equilibrium, "FR must be an equilibrium");
            if a.pr_is_equilibrium {
                assert_eq!(
                    a.pr_cost, a.min_cost,
                    "an equilibrium PR profile must be globally optimal"
                );
            }
            assert!(a.min_cost <= a.pr_cost && a.pr_cost <= a.max_cost);
        }
    }

    #[test]
    fn deviation_report_contains_real_improvement() {
        // Manufacture a non-equilibrium: on the away-chain every interior
        // node playing Full pays the quadratic ripple; switching the last
        // node to Partial cannot help (it has one neighbor, both
        // strategies coincide), so verify instead via analyze_profiles
        // that min < max (the game is non-trivial).
        let inst = stream::chain_away(7);
        let a = analyze_profiles(&inst);
        assert!(
            a.min_cost < a.max_cost,
            "strategies must matter on the away-chain: {a:?}"
        );
        assert_eq!(a.pr_cost, a.min_cost);
    }

    #[test]
    fn pr_work_vector_dominates_fr_on_away_chain() {
        let inst = stream::chain_away(24);
        let pr = work_vector(FrontierFamily::PartialReversal, &inst);
        let fr = work_vector(FrontierFamily::FullReversal, &inst);
        // PR should be no worse at every node here.
        assert_eq!(dominates(&pr, &fr), Some(true));
    }
}
