//! The paper's invariants as executable, falsifiable predicates.
//!
//! Each function checks one numbered statement from the paper against a
//! concrete state and returns `Ok(())` or a description of the violated
//! quantifier instance. The `*_invariants` constructors package them as
//! [`lr_ioa::Invariant`]s for the model-checking explorer.
//!
//! | paper statement | function |
//! |---|---|
//! | Invariant 3.1 (dir consistency) | [`check_inv_3_1`] |
//! | Invariant 3.2 (list structure, exactly one case) | [`check_inv_3_2`] |
//! | Corollary 3.3 (`list[u] ⊆ in-nbrs ∨ ⊆ out-nbrs`) | [`check_cor_3_3`] |
//! | Corollary 3.4 (sinks: `list[u] ∈ {in-nbrs, out-nbrs}`) | [`check_cor_3_4`] |
//! | Invariant 4.1 (equal parity fixes edge direction) | [`check_inv_4_1`] |
//! | Invariant 4.2 (a–d) (step-count relations) | [`check_inv_4_2`] |
//! | Theorem 4.3 / 5.5 (acyclicity) | [`check_acyclic`] |

use std::collections::BTreeSet;

use lr_graph::{EdgeDir, NodeId, ReversalInstance};
use lr_ioa::Invariant;

use crate::alg::{NewPrAutomaton, NewPrState, OneStepPrAutomaton, Parity, PrSetAutomaton, PrState};
use crate::MirroredDirs;

/// Invariant 3.1: for each edge `{u, v}`, `dir[u, v] = in` iff
/// `dir[v, u] = out`.
///
/// # Errors
///
/// Returns a description of the first inconsistent edge.
pub fn check_inv_3_1(dirs: &MirroredDirs) -> Result<(), String> {
    dirs.check_consistency().map_err(|e| {
        format!(
            "Invariant 3.1: dir[{u},{v}] = {:?} but dir[{v},{u}] = {:?}",
            e.dir_uv,
            e.dir_vu,
            u = e.u,
            v = e.v
        )
    })
}

/// A node set as the violation messages print it: `{n0, n2}`.
fn set(nodes: impl IntoIterator<Item = NodeId>) -> BTreeSet<NodeId> {
    nodes.into_iter().collect()
}

/// One part of Invariant 3.2 for a single node: `all_in_side` plays the
/// role of the "all incoming" set, `list_side` the set the list must
/// match.
fn inv_3_2_part(state: &PrState, u: NodeId, all_in_side: &[NodeId], list_side: &[NodeId]) -> bool {
    let incoming = |&v: &NodeId| state.dirs.dir(u, v) == EdgeDir::In;
    // Both sides of the list equation are ascending.
    all_in_side.iter().all(incoming)
        && state
            .list(u)
            .eq(list_side.iter().copied().filter(|v| incoming(v)))
}

/// Invariant 3.2: for each node `u`, **exactly one** of
///
/// 1. every `w ∈ out-nbrs_u` has `dir[u, w] = in`, and
///    `list[u] = {v ∈ in-nbrs_u : dir[u, v] = in}`;
/// 2. every `w ∈ in-nbrs_u` has `dir[u, w] = in`, and
///    `list[u] = {v ∈ out-nbrs_u : dir[u, v] = in}`.
///
/// # Errors
///
/// Reports the node where zero or both parts hold.
pub fn check_inv_3_2(inst: &ReversalInstance, state: &PrState) -> Result<(), String> {
    for u in inst.csr().nodes() {
        let in_nbrs = inst.initial_in_nbrs(u);
        let out_nbrs = inst.initial_out_nbrs(u);
        let part1 = inv_3_2_part(state, u, &out_nbrs, &in_nbrs);
        let part2 = inv_3_2_part(state, u, &in_nbrs, &out_nbrs);
        if part1 == part2 {
            return Err(format!(
                "Invariant 3.2: at node {u}, part1 = {part1} and part2 = {part2} \
                 (exactly one must hold); list[{u}] = {:?}",
                set(state.list(u))
            ));
        }
    }
    Ok(())
}

/// Corollary 3.3: `list[u] ⊆ in-nbrs_u` or `list[u] ⊆ out-nbrs_u` for all
/// nodes.
///
/// # Errors
///
/// Reports the node whose list straddles both initial neighbor sets.
pub fn check_cor_3_3(inst: &ReversalInstance, state: &PrState) -> Result<(), String> {
    for u in inst.csr().nodes() {
        let in_nbrs = inst.initial_in_nbrs(u);
        let out_nbrs = inst.initial_out_nbrs(u);
        let list_within = |nbrs: &[NodeId]| state.list(u).all(|v| nbrs.contains(&v));
        if !list_within(&in_nbrs) && !list_within(&out_nbrs) {
            return Err(format!(
                "Corollary 3.3: list[{u}] = {:?} is contained in neither \
                 in-nbrs = {:?} nor out-nbrs = {:?}",
                set(state.list(u)),
                set(in_nbrs),
                set(out_nbrs)
            ));
        }
    }
    Ok(())
}

/// Corollary 3.4: whenever `u` is a sink, `list[u] = in-nbrs_u` or
/// `list[u] = out-nbrs_u`.
///
/// # Errors
///
/// Reports the sink whose list equals neither set.
pub fn check_cor_3_4(inst: &ReversalInstance, state: &PrState) -> Result<(), String> {
    for u in inst.csr().nodes() {
        if !state.dirs.is_sink(u) {
            continue;
        }
        let in_nbrs = inst.initial_in_nbrs(u);
        let out_nbrs = inst.initial_out_nbrs(u);
        // The list and both neighbor sets are ascending.
        let list_is = |nbrs: &[NodeId]| state.list(u).eq(nbrs.iter().copied());
        if !list_is(&in_nbrs) && !list_is(&out_nbrs) {
            return Err(format!(
                "Corollary 3.4: sink {u} has list[{u}] = {:?}, equal to \
                 neither in-nbrs = {:?} nor out-nbrs = {:?}",
                set(state.list(u)),
                set(in_nbrs),
                set(out_nbrs)
            ));
        }
    }
    Ok(())
}

/// Whether neighbour `u` lies left of neighbour `v` in the paper's plane
/// embedding of the initial DAG (§4.2), where every initial edge points
/// left to right: exactly when the initial orientation directs `u → v`.
fn is_left_of(inst: &ReversalInstance, u: NodeId, v: NodeId) -> bool {
    inst.init().points_from_to(u, v)
}

/// Is the edge `{u, v}` directed from its left endpoint to its right
/// endpoint?
fn left_to_right(inst: &ReversalInstance, dirs: &MirroredDirs, u: NodeId, v: NodeId) -> bool {
    let (l, r) = if is_left_of(inst, u, v) {
        (u, v)
    } else {
        (v, u)
    };
    dirs.dir(l, r) == EdgeDir::Out
}

/// Every edge `{u, v}` once, as `(u, v)` with `u < v`, in lexicographic
/// order.
fn edges(inst: &ReversalInstance) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
    inst.init()
        .directed_edges()
        .map(|(t, h)| (t.min(h), t.max(h)))
}

/// Invariant 4.1: for neighbors `u, v`,
///
/// * (a) if `parity[u] = parity[v] = even`, the edge is directed left → right;
/// * (b) if `parity[u] = parity[v] = odd`, the edge is directed right → left.
///
/// # Errors
///
/// Reports the offending edge and parities.
pub fn check_inv_4_1(inst: &ReversalInstance, state: &NewPrState) -> Result<(), String> {
    for (u, v) in edges(inst) {
        let (pu, pv) = (state.parity(u), state.parity(v));
        if pu != pv {
            continue;
        }
        let ltr = left_to_right(inst, &state.dirs, u, v);
        match pu {
            Parity::Even if !ltr => {
                return Err(format!(
                    "Invariant 4.1(a): {u} and {v} both have even parity but \
                     edge {{{u},{v}}} is directed right-to-left"
                ));
            }
            Parity::Odd if ltr => {
                return Err(format!(
                    "Invariant 4.1(b): {u} and {v} both have odd parity but \
                     edge {{{u},{v}}} is directed left-to-right"
                ));
            }
            _ => {}
        }
    }
    Ok(())
}

/// Invariant 4.2: for neighbors `u, v` with `count[u] = n`:
///
/// * (a) `count[v] ∈ {n − 1, n, n + 1}`;
/// * (b) if `n` is odd and `v` is to the right of `u`, `count[v] = n`;
/// * (c) if `n` is even and `v` is to the left of `u`, `count[v] = n`;
/// * (d) if `count[u] > count[v]`, the edge is directed `u → v`.
///
/// # Errors
///
/// Reports the first violated clause with the counts involved.
pub fn check_inv_4_2(inst: &ReversalInstance, state: &NewPrState) -> Result<(), String> {
    for (u, v) in edges(inst) {
        // The statement is symmetric; check it from both endpoints.
        for (a, b) in [(u, v), (v, u)] {
            let ca = state.count(a);
            let cb = state.count(b);
            // (a)
            if cb + 1 < ca || cb > ca + 1 {
                return Err(format!(
                    "Invariant 4.2(a): count[{a}] = {ca} but neighbor {b} has \
                     count[{b}] = {cb}"
                ));
            }
            // (b)
            if ca % 2 == 1 && is_left_of(inst, a, b) && cb != ca {
                return Err(format!(
                    "Invariant 4.2(b): count[{a}] = {ca} (odd), {b} is to the \
                     right of {a}, but count[{b}] = {cb} ≠ {ca}"
                ));
            }
            // (c)
            if ca.is_multiple_of(2) && is_left_of(inst, b, a) && cb != ca {
                return Err(format!(
                    "Invariant 4.2(c): count[{a}] = {ca} (even), {b} is to the \
                     left of {a}, but count[{b}] = {cb} ≠ {ca}"
                ));
            }
            // (d)
            if ca > cb && state.dirs.dir(a, b) != EdgeDir::Out {
                return Err(format!(
                    "Invariant 4.2(d): count[{a}] = {ca} > count[{b}] = {cb} \
                     but edge {{{a},{b}}} is not directed {a} → {b}"
                ));
            }
        }
    }
    Ok(())
}

/// Theorem 4.3 / 5.5: the directed graph `G'` of the state is acyclic.
///
/// # Errors
///
/// Reports a concrete directed cycle.
pub fn check_acyclic(dirs: &MirroredDirs) -> Result<(), String> {
    match dirs.orientation().find_cycle() {
        None => Ok(()),
        Some(cycle) => {
            let path: Vec<String> = cycle.iter().map(|n| n.to_string()).collect();
            Err(format!(
                "acyclicity violated: directed cycle {} → (back to start)",
                path.join(" → ")
            ))
        }
    }
}

/// All NewPR invariants (3.1 via the shared dirs, 4.1, 4.2, acyclicity) as
/// explorer-ready [`Invariant`]s over [`NewPrState`].
pub fn newpr_invariants(inst: &ReversalInstance) -> Vec<Invariant<NewPrAutomaton<'_>>> {
    let i2 = inst.clone();
    let i3 = inst.clone();
    vec![
        Invariant::new("Inv 3.1 (dir consistency)", move |s: &NewPrState| {
            check_inv_3_1(&s.dirs)
        }),
        Invariant::new("Inv 4.1 (parity fixes direction)", move |s: &NewPrState| {
            check_inv_4_1(&i2, s)
        }),
        Invariant::new("Inv 4.2 (count relations)", move |s: &NewPrState| {
            check_inv_4_2(&i3, s)
        }),
        Invariant::new("Thm 4.3 (acyclicity)", move |s: &NewPrState| {
            check_acyclic(&s.dirs)
        }),
    ]
}

fn pr_state_checks(inst: &ReversalInstance, s: &PrState) -> Result<(), String> {
    check_inv_3_1(&s.dirs)?;
    check_inv_3_2(inst, s)?;
    check_cor_3_3(inst, s)?;
    check_cor_3_4(inst, s)?;
    check_acyclic(&s.dirs)
}

/// All PR invariants (3.1, 3.2, 3.3, 3.4, acyclicity via Thm 5.5) for the
/// single-step automaton.
pub fn onestep_pr_invariants(inst: &ReversalInstance) -> Vec<Invariant<OneStepPrAutomaton<'_>>> {
    let i2 = inst.clone();
    let i3 = inst.clone();
    let i4 = inst.clone();
    vec![
        Invariant::new("Inv 3.1 (dir consistency)", move |s: &PrState| {
            check_inv_3_1(&s.dirs)
        }),
        Invariant::new("Inv 3.2 (list structure)", move |s: &PrState| {
            check_inv_3_2(&i2, s)
        }),
        Invariant::new("Cor 3.3 (list containment)", move |s: &PrState| {
            check_cor_3_3(&i3, s)
        }),
        Invariant::new("Cor 3.4 (sink lists)", move |s: &PrState| {
            check_cor_3_4(&i4, s)
        }),
        Invariant::new("Thm 5.5 (acyclicity)", move |s: &PrState| {
            check_acyclic(&s.dirs)
        }),
    ]
}

/// Same checks for the set-action automaton (Algorithm 1).
pub fn pr_set_invariants(inst: &ReversalInstance) -> Vec<Invariant<PrSetAutomaton<'_>>> {
    let i1 = inst.clone();
    vec![
        Invariant::new("Inv 3.1–3.4 (PR state structure)", move |s: &PrState| {
            pr_state_checks(&i1, s)
        }),
        Invariant::new("Thm 5.5 (acyclicity)", move |s: &PrState| {
            check_acyclic(&s.dirs)
        }),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alg::{newpr_step, onestep_pr_step};
    use lr_graph::stream;
    use lr_ioa::{run, schedulers, Automaton};

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn all_invariants_hold_initially() {
        let inst = stream::random_connected(10, 8, 1);
        let pr = PrState::initial(&inst);
        let np = NewPrState::initial(&inst);
        assert!(check_inv_3_1(&pr.dirs).is_ok());
        assert!(check_inv_3_2(&inst, &pr).is_ok());
        assert!(check_cor_3_3(&inst, &pr).is_ok());
        assert!(check_cor_3_4(&inst, &pr).is_ok());
        assert!(check_inv_4_1(&inst, &np).is_ok());
        assert!(check_inv_4_2(&inst, &np).is_ok());
        assert!(check_acyclic(&np.dirs).is_ok());
    }

    #[test]
    fn invariants_hold_along_random_pr_execution() {
        let inst = stream::random_connected(9, 7, 2);
        let mut s = PrState::initial(&inst);
        let mut guard = 0;
        loop {
            assert!(check_inv_3_1(&s.dirs).is_ok());
            assert!(check_inv_3_2(&inst, &s).is_ok());
            assert!(check_cor_3_3(&inst, &s).is_ok());
            assert!(check_cor_3_4(&inst, &s).is_ok());
            assert!(check_acyclic(&s.dirs).is_ok());
            let Some(u) = s.dirs.sinks().find(|&u| u != inst.dest) else {
                break;
            };
            onestep_pr_step(&inst, &mut s, u);
            guard += 1;
            assert!(guard < 100_000);
        }
    }

    #[test]
    fn invariants_hold_along_random_newpr_execution() {
        let inst = stream::random_connected(9, 7, 3);
        let mut s = NewPrState::initial(&inst);
        let mut guard = 0;
        loop {
            assert!(check_inv_3_1(&s.dirs).is_ok());
            assert!(check_inv_4_1(&inst, &s).is_ok());
            assert!(check_inv_4_2(&inst, &s).is_ok());
            assert!(check_acyclic(&s.dirs).is_ok());
            let Some(u) = s.dirs.sinks().find(|&u| u != inst.dest) else {
                break;
            };
            newpr_step(&inst, &mut s, u);
            guard += 1;
            assert!(guard < 100_000);
        }
    }

    #[test]
    fn inv_3_1_violation_detected() {
        let inst = stream::chain_away(3);
        let mut s = PrState::initial(&inst);
        // Edge {0,1} is initially 0 → 1, so dir[1,0] = In; claiming Out
        // from node 1's perspective makes the two copies disagree.
        s.dirs.set_one_sided(n(1), n(0), lr_graph::EdgeDir::Out);
        let err = check_inv_3_1(&s.dirs).unwrap_err();
        assert!(err.contains("Invariant 3.1"));
    }

    #[test]
    fn inv_3_2_violation_detected_on_corrupted_list() {
        let inst = stream::chain_away(3);
        let mut s = PrState::initial(&inst);
        // Claim node 1's neighbor 0 reversed when it did not.
        s.insert_into_list(n(1), n(0));
        assert_eq!(
            check_inv_3_2(&inst, &s).unwrap_err(),
            "Invariant 3.2: at node n1, part1 = false and part2 = false \
             (exactly one must hold); list[n1] = {n0}"
        );
    }

    #[test]
    fn cor_3_3_violation_detected_on_straddling_list() {
        let inst = stream::chain_away(3);
        let mut s = PrState::initial(&inst);
        // Node 1 has in-nbr {0} and out-nbr {2}; a list containing both
        // straddles the two sets.
        s.insert_into_list(n(1), n(0));
        s.insert_into_list(n(1), n(2));
        assert_eq!(
            check_cor_3_3(&inst, &s).unwrap_err(),
            "Corollary 3.3: list[n1] = {n0, n2} is contained in neither \
             in-nbrs = {n0} nor out-nbrs = {n2}"
        );
    }

    #[test]
    fn cor_3_4_violation_detected_on_sink_with_partial_list() {
        // Node 2 of 0>1>2 (plus 0>2 to give 2 two in-nbrs) is a sink; a
        // list holding just one of its two in-nbrs equals neither set.
        let inst = lr_graph::parse::parse_instance("dest 0\n0 > 1\n1 > 2\n0 > 2").unwrap();
        let mut s = PrState::initial(&inst);
        s.insert_into_list(n(2), n(0));
        assert_eq!(
            check_cor_3_4(&inst, &s).unwrap_err(),
            "Corollary 3.4: sink n2 has list[n2] = {n0}, equal to neither \
             in-nbrs = {n0, n1} nor out-nbrs = {}"
        );
    }

    #[test]
    fn inv_4_1_violation_detected() {
        let inst = stream::chain_away(3);
        let mut s = NewPrState::initial(&inst);
        // Reverse edge {1,2} without incrementing any count: both ends
        // have even parity but the edge now runs right-to-left.
        s.dirs.reverse_outward(n(2), n(1));
        let err = check_inv_4_1(&inst, &s).unwrap_err();
        assert!(err.contains("4.1(a)"));
    }

    #[test]
    fn inv_4_2a_violation_detected() {
        let inst = stream::chain_away(3);
        let mut s = NewPrState::initial(&inst);
        s.set_count(n(2), 5); // neighbor 1 still has count 0
        assert_eq!(
            check_inv_4_2(&inst, &s).unwrap_err(),
            "Invariant 4.2(a): count[n1] = 0 but neighbor n2 has count[n2] = 5"
        );
    }

    #[test]
    fn inv_4_2d_violation_detected() {
        let inst = stream::chain_away(3);
        let mut s = NewPrState::initial(&inst);
        // count[2] = 1 > count[1] = 0, but the edge {1,2} still points
        // 1 → 2 — (d) demands 2 → 1.
        s.set_count(n(2), 1);
        assert_eq!(
            check_inv_4_2(&inst, &s).unwrap_err(),
            "Invariant 4.2(d): count[n2] = 1 > count[n1] = 0 but edge \
             {n2,n1} is not directed n2 → n1"
        );
    }

    #[test]
    fn acyclicity_violation_reports_cycle() {
        let inst = lr_graph::parse::parse_instance("dest 0\n0 > 1\n1 > 2\n0 > 2").unwrap();
        let mut s = NewPrState::initial(&inst);
        // Manufacture 0 → 1 → 2 → 0 by hand.
        s.dirs.reverse_outward(n(2), n(0));
        let err = check_acyclic(&s.dirs).unwrap_err();
        assert!(err.contains("cycle"));
    }

    #[test]
    fn model_check_newpr_on_small_instance() {
        let inst = stream::chain_away(4);
        let aut = NewPrAutomaton { inst: &inst };
        let invs = newpr_invariants(&inst);
        let report = lr_ioa::explore::explore(&aut, &invs, 1_000_000);
        assert!(report.verified(), "violation: {:?}", report.violation);
        assert!(report.states_visited > 1);
    }

    #[test]
    fn model_check_onestep_pr_on_small_instance() {
        let inst = stream::chain_away(4);
        let aut = OneStepPrAutomaton { inst: &inst };
        let invs = onestep_pr_invariants(&inst);
        let report = lr_ioa::explore::explore(&aut, &invs, 1_000_000);
        assert!(report.verified(), "violation: {:?}", report.violation);
    }

    #[test]
    fn model_check_pr_set_on_small_instance() {
        let inst = stream::star_away(3);
        let aut = PrSetAutomaton { inst: &inst };
        let invs = pr_set_invariants(&inst);
        let report = lr_ioa::explore::explore(&aut, &invs, 1_000_000);
        assert!(report.verified(), "violation: {:?}", report.violation);
    }

    #[test]
    fn explorer_and_executions_agree_on_terminal_states() {
        let inst = stream::random_connected(7, 4, 10);
        let aut = NewPrAutomaton { inst: &inst };
        let exec = run(&aut, &mut schedulers::UniformRandom::seeded(7), 100_000);
        assert!(aut.is_quiescent(exec.last_state()));
        let o = exec.last_state().dirs.orientation();
        assert!(o.is_destination_oriented(inst.dest));
    }
}
