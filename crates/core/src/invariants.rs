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

use lr_graph::{NodeId, ReversalInstance};
use lr_ioa::Invariant;

use crate::alg::{NewPrAutomaton, NewPrState, OneStepPrAutomaton, PrSetAutomaton, PrState};
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

/// One part of Invariant 3.2 at the node of dense index `ui`, read slot
/// by slot: every edge to an initial neighbour on the all-incoming side
/// (the out-neighbours when `all_in_side_is_out`) is incoming and
/// unlisted, and on the other side exactly the incoming edges are
/// listed.
fn inv_3_2_part(
    inst: &ReversalInstance,
    state: &PrState,
    ui: usize,
    all_in_side_is_out: bool,
) -> bool {
    inst.csr().slots(ui).all(|slot| {
        let incoming = !state.dirs.is_out_at(slot);
        if inst.init().is_out(slot) == all_in_side_is_out {
            incoming && !state.listed_at(slot)
        } else {
            state.listed_at(slot) == incoming
        }
    })
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
    let csr = inst.csr();
    for ui in 0..csr.node_count() {
        let part1 = inv_3_2_part(inst, state, ui, true);
        let part2 = inv_3_2_part(inst, state, ui, false);
        if part1 == part2 {
            let u = csr.node(ui);
            return Err(format!(
                "Invariant 3.2: at node {u}, part1 = {part1} and part2 = {part2} \
                 (exactly one must hold); list[{u}] = {:?}",
                set(state.list(u))
            ));
        }
    }
    Ok(())
}

/// Whether every member of `list[u]`, for the node at dense index `ui`,
/// is an initial neighbour on one side: the out-neighbours when `out`,
/// else the in-neighbours.
fn list_within(inst: &ReversalInstance, state: &PrState, ui: usize, out: bool) -> bool {
    inst.csr()
        .slots(ui)
        .all(|slot| !state.listed_at(slot) || inst.init().is_out(slot) == out)
}

/// Whether `list[u]`, for the node at dense index `ui`, is exactly one
/// side of its initial neighbours: the out-neighbours when `out`, else
/// the in-neighbours.
fn list_is(inst: &ReversalInstance, state: &PrState, ui: usize, out: bool) -> bool {
    inst.csr()
        .slots(ui)
        .all(|slot| state.listed_at(slot) == (inst.init().is_out(slot) == out))
}

/// Corollary 3.3: `list[u] ⊆ in-nbrs_u` or `list[u] ⊆ out-nbrs_u` for all
/// nodes.
///
/// # Errors
///
/// Reports the node whose list straddles both initial neighbor sets.
pub fn check_cor_3_3(inst: &ReversalInstance, state: &PrState) -> Result<(), String> {
    let csr = inst.csr();
    for ui in 0..csr.node_count() {
        if !list_within(inst, state, ui, false) && !list_within(inst, state, ui, true) {
            let u = csr.node(ui);
            return Err(format!(
                "Corollary 3.3: list[{u}] = {:?} is contained in neither \
                 in-nbrs = {:?} nor out-nbrs = {:?}",
                set(state.list(u)),
                set(inst.initial_in_nbrs(u)),
                set(inst.initial_out_nbrs(u))
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
    let csr = inst.csr();
    for ui in 0..csr.node_count() {
        if !state.dirs.is_sink_at(ui) {
            continue;
        }
        if !list_is(inst, state, ui, false) && !list_is(inst, state, ui, true) {
            let u = csr.node(ui);
            return Err(format!(
                "Corollary 3.4: sink {u} has list[{u}] = {:?}, equal to \
                 neither in-nbrs = {:?} nor out-nbrs = {:?}",
                set(state.list(u)),
                set(inst.initial_in_nbrs(u)),
                set(inst.initial_out_nbrs(u))
            ));
        }
    }
    Ok(())
}

/// Is the edge of `slot` directed from its left endpoint to its right
/// endpoint, by the left endpoint's copy? In the paper's plane embedding
/// of the initial DAG (§4.2) every initial edge points left to right, so
/// the slot's owner lies left of its neighbour exactly when the slot is
/// initially out.
fn left_to_right(inst: &ReversalInstance, dirs: &MirroredDirs, slot: usize) -> bool {
    let left = if inst.init().is_out(slot) {
        slot
    } else {
        inst.csr().twin(slot)
    };
    dirs.is_out_at(left)
}

/// Invariant 4.1: for neighbors `u, v`,
///
/// * (a) if `parity[u] = parity[v] = even`, the edge is directed left → right;
/// * (b) if `parity[u] = parity[v] = odd`, the edge is directed right → left.
///
/// Edges are checked in lexicographic order, each once from its smaller
/// endpoint's slot.
///
/// # Errors
///
/// Reports the offending edge and parities.
pub fn check_inv_4_1(inst: &ReversalInstance, state: &NewPrState) -> Result<(), String> {
    let csr = inst.csr();
    for ui in 0..csr.node_count() {
        for slot in csr.slots(ui) {
            let vi = csr.target(slot);
            if ui > vi {
                continue;
            }
            let (cu, cv) = (state.count_at(ui), state.count_at(vi));
            if cu % 2 != cv % 2 {
                continue;
            }
            let ltr = left_to_right(inst, &state.dirs, slot);
            let (u, v) = (csr.node(ui), csr.node(vi));
            if cu.is_multiple_of(2) && !ltr {
                return Err(format!(
                    "Invariant 4.1(a): {u} and {v} both have even parity but \
                     edge {{{u},{v}}} is directed right-to-left"
                ));
            }
            if !cu.is_multiple_of(2) && ltr {
                return Err(format!(
                    "Invariant 4.1(b): {u} and {v} both have odd parity but \
                     edge {{{u},{v}}} is directed left-to-right"
                ));
            }
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
/// Edges are checked in lexicographic order, each from its smaller
/// endpoint and then from its larger one.
///
/// # Errors
///
/// Reports the first violated clause with the counts involved.
pub fn check_inv_4_2(inst: &ReversalInstance, state: &NewPrState) -> Result<(), String> {
    let csr = inst.csr();
    for ui in 0..csr.node_count() {
        for slot in csr.slots(ui) {
            let vi = csr.target(slot);
            if ui > vi {
                continue;
            }
            // The statement is symmetric; check it from both endpoints.
            // `ab` is the slot of `(a, b)`, `ba` its twin.
            let twin = csr.twin(slot);
            for (ai, bi, ab, ba) in [(ui, vi, slot, twin), (vi, ui, twin, slot)] {
                let (ca, cb) = (state.count_at(ai), state.count_at(bi));
                let (a, b) = (csr.node(ai), csr.node(bi));
                // (a)
                if cb + 1 < ca || cb > ca + 1 {
                    return Err(format!(
                        "Invariant 4.2(a): count[{a}] = {ca} but neighbor {b} has \
                         count[{b}] = {cb}"
                    ));
                }
                // (b): `b` is right of `a` when `(a, b)` is initially out.
                if ca % 2 == 1 && inst.init().is_out(ab) && cb != ca {
                    return Err(format!(
                        "Invariant 4.2(b): count[{a}] = {ca} (odd), {b} is to the \
                         right of {a}, but count[{b}] = {cb} ≠ {ca}"
                    ));
                }
                // (c)
                if ca.is_multiple_of(2) && inst.init().is_out(ba) && cb != ca {
                    return Err(format!(
                        "Invariant 4.2(c): count[{a}] = {ca} (even), {b} is to the \
                         left of {a}, but count[{b}] = {cb} ≠ {ca}"
                    ));
                }
                // (d)
                if ca > cb && !state.dirs.is_out_at(ab) {
                    return Err(format!(
                        "Invariant 4.2(d): count[{a}] = {ca} > count[{b}] = {cb} \
                         but edge {{{a},{b}}} is not directed {a} → {b}"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Theorem 4.3 / 5.5: the directed graph `G'` of the state is acyclic.
///
/// The verdict comes from a peel of the slot bits; only a failing state
/// builds the orientation, to name a cycle.
///
/// # Errors
///
/// Reports a concrete directed cycle.
pub fn check_acyclic(dirs: &MirroredDirs) -> Result<(), String> {
    if dirs.is_acyclic() {
        return Ok(());
    }
    let cycle = dirs
        .orientation()
        .find_cycle()
        .expect("the peel and the depth-first search agree on a cycle");
    let path: Vec<String> = cycle.iter().map(|n| n.to_string()).collect();
    Err(format!(
        "acyclicity violated: directed cycle {} → (back to start)",
        path.join(" → ")
    ))
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
