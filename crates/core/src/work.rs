//! Work-complexity measurement utilities for the Θ(n_b²) experiments
//! (E7/E8).
//!
//! §1 of the paper cites Busch et al. for a tight Θ(n_b²) bound on the
//! worst-case **total number of reversals** of both FR and PR, where `n_b`
//! counts the nodes with no initial path to the destination. The
//! experiment harness measures total work across instance families of
//! growing size and fits the growth exponent on a log–log scale; a
//! quadratic family should fit an exponent near 2, a linear one near 1.

use lr_graph::ReversalInstance;
use serde::Serialize;

use crate::alg::FrontierFamily;
use crate::engine::{run_engine_frontier, RunStats, SchedulePolicy, DEFAULT_MAX_STEPS};

/// One row of a work-measurement table.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WorkRow {
    /// Algorithm name.
    pub algorithm: &'static str,
    /// Node count of the instance.
    pub n: usize,
    /// Initial bad-node count `n_b`.
    pub n_b: usize,
    /// Total edge reversals until termination.
    pub total_reversals: usize,
    /// Total node steps until termination (includes dummy steps).
    pub steps: usize,
    /// Greedy rounds until termination.
    pub rounds: usize,
    /// NewPR dummy steps.
    pub dummy_steps: usize,
}

/// Runs `family` on `inst` under the greedy schedule and records a
/// table row.
///
/// # Panics
///
/// Panics if the run does not terminate within the default step budget.
pub fn measure_work(family: FrontierFamily, inst: &ReversalInstance) -> WorkRow {
    measure_work_with_policy(family, inst, SchedulePolicy::GreedyRounds)
}

/// Like [`measure_work`] but under an arbitrary policy.
///
/// # Panics
///
/// Panics if the run does not terminate within the default step budget.
pub fn measure_work_with_policy(
    family: FrontierFamily,
    inst: &ReversalInstance,
    policy: SchedulePolicy,
) -> WorkRow {
    let mut engine = family.engine(inst.clone());
    let stats = run_engine_frontier(engine.as_mut(), policy, DEFAULT_MAX_STEPS);
    assert!(stats.terminated, "{} did not terminate", family.name());
    row_from_stats(inst, &stats)
}

fn row_from_stats(inst: &ReversalInstance, stats: &RunStats) -> WorkRow {
    WorkRow {
        algorithm: stats.algorithm,
        n: inst.node_count(),
        n_b: inst.initial_bad_nodes(),
        total_reversals: stats.total_reversals,
        steps: stats.steps,
        rounds: stats.rounds,
        dummy_steps: stats.dummy_steps,
    }
}

/// Exact closed forms for the total greedy-schedule reversal counts on
/// the canonical chain families, discovered empirically and locked in by
/// tests (`closed_forms_match_measurement`). They instantiate the Θ(n_b²)
/// worst-case bound of §1 with exact constants:
///
/// * FR on [`lr_graph::stream::chain_away`]`(n)`: `(n − 1)²`,
/// * PR on the same chain: `n − 1` (each bad node reverses once),
/// * both FR and PR on [`lr_graph::stream::alternating_chain`]`(n)`:
///   `n_b (n_b + 1) / 2` with `n_b = n − 2`.
pub mod closed_forms {
    /// Total FR reversals on `chain_away(n)` under any schedule.
    pub fn fr_chain_away(n: usize) -> usize {
        (n - 1) * (n - 1)
    }

    /// Total PR reversals on `chain_away(n)` under any schedule.
    pub fn pr_chain_away(n: usize) -> usize {
        n - 1
    }

    /// Total reversals (FR **and** PR coincide) on `alternating_chain(n)`.
    pub fn alternating_chain(n: usize) -> usize {
        let nb = n - 2;
        nb * (nb + 1) / 2
    }
}

/// Least-squares slope of `log(y)` against `log(x)` — the growth exponent
/// of `y ≈ c·x^k` over the sampled family.
///
/// Points with `x ≤ 0` or `y ≤ 0` are skipped (zero work parses as "no
/// growth signal", not as `-∞`).
///
/// # Panics
///
/// Panics if fewer than two usable points remain or the `x` values are
/// all equal.
pub fn fit_growth_exponent(points: &[(f64, f64)]) -> f64 {
    let logs: Vec<(f64, f64)> = points
        .iter()
        .filter(|&&(x, y)| x > 0.0 && y > 0.0)
        .map(|&(x, y)| (x.ln(), y.ln()))
        .collect();
    assert!(logs.len() >= 2, "need at least two positive points");
    let n = logs.len() as f64;
    let sx: f64 = logs.iter().map(|p| p.0).sum();
    let sy: f64 = logs.iter().map(|p| p.1).sum();
    let sxx: f64 = logs.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = logs.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    assert!(denom.abs() > f64::EPSILON, "x values must not all be equal");
    (n * sxy - sx * sy) / denom
}

/// Consecutive doubling ratios `y[i+1] / y[i]`; for a size-doubling family
/// a quadratic cost gives ratios near 4, linear near 2.
pub fn doubling_ratios(ys: &[f64]) -> Vec<f64> {
    ys.windows(2).map(|w| w[1] / w[0]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lr_graph::stream;

    #[test]
    fn exact_quadratic_fits_exponent_two() {
        let pts: Vec<(f64, f64)> = (1..=8).map(|i| (i as f64, (i * i) as f64 * 3.0)).collect();
        let k = fit_growth_exponent(&pts);
        assert!((k - 2.0).abs() < 1e-9, "got {k}");
    }

    #[test]
    fn exact_linear_fits_exponent_one() {
        let pts: Vec<(f64, f64)> = (1..=8).map(|i| (i as f64, i as f64 * 7.0)).collect();
        let k = fit_growth_exponent(&pts);
        assert!((k - 1.0).abs() < 1e-9, "got {k}");
    }

    #[test]
    fn zero_work_points_are_skipped() {
        let pts = vec![(1.0, 0.0), (2.0, 4.0), (4.0, 16.0), (8.0, 64.0)];
        let k = fit_growth_exponent(&pts);
        assert!((k - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn too_few_points_panics() {
        fit_growth_exponent(&[(1.0, 1.0)]);
    }

    #[test]
    fn doubling_ratio_of_squares_is_four() {
        let r = doubling_ratios(&[1.0, 4.0, 16.0, 64.0]);
        assert!(r.iter().all(|&x| (x - 4.0).abs() < 1e-9));
    }

    #[test]
    fn fr_is_quadratic_on_away_chain() {
        let sizes = [8usize, 16, 32, 64];
        let pts: Vec<(f64, f64)> = sizes
            .iter()
            .map(|&n| {
                let inst = stream::chain_away(n);
                let row = measure_work(FrontierFamily::FullReversal, &inst);
                assert_eq!(row.n_b, n - 1);
                (row.n_b as f64, row.total_reversals as f64)
            })
            .collect();
        let k = fit_growth_exponent(&pts);
        assert!(
            k > 1.7 && k < 2.3,
            "FR on away-chain should be ~n², got exponent {k}"
        );
    }

    #[test]
    fn pr_is_linear_on_away_chain() {
        let sizes = [8usize, 16, 32, 64];
        let pts: Vec<(f64, f64)> = sizes
            .iter()
            .map(|&n| {
                let inst = stream::chain_away(n);
                let row = measure_work(FrontierFamily::PartialReversal, &inst);
                (row.n_b as f64, row.total_reversals as f64)
            })
            .collect();
        let k = fit_growth_exponent(&pts);
        assert!(k < 1.3, "PR on away-chain should be ~n, got exponent {k}");
    }

    #[test]
    fn closed_forms_match_measurement() {
        for n in [4usize, 8, 16, 33, 64, 100] {
            let away = stream::chain_away(n);
            assert_eq!(
                measure_work(FrontierFamily::FullReversal, &away).total_reversals,
                closed_forms::fr_chain_away(n),
                "FR on chain_away({n})"
            );
            assert_eq!(
                measure_work(FrontierFamily::PartialReversal, &away).total_reversals,
                closed_forms::pr_chain_away(n),
                "PR on chain_away({n})"
            );
            let alt = stream::alternating_chain(n);
            for family in [
                FrontierFamily::FullReversal,
                FrontierFamily::PartialReversal,
            ] {
                assert_eq!(
                    measure_work(family, &alt).total_reversals,
                    closed_forms::alternating_chain(n),
                    "{} on alternating_chain({n})",
                    family.name()
                );
            }
        }
    }

    #[test]
    fn closed_forms_are_schedule_independent_on_chains() {
        // Welch–Walter: on trees the reversal sets are schedule
        // independent; the chain closed forms must hold under every
        // policy.
        let n = 19;
        for policy in [
            SchedulePolicy::GreedyRounds,
            SchedulePolicy::RandomSingle { seed: 13 },
            SchedulePolicy::FirstSingle,
            SchedulePolicy::LastSingle,
        ] {
            let away = stream::chain_away(n);
            let row = measure_work_with_policy(FrontierFamily::FullReversal, &away, policy);
            assert_eq!(row.total_reversals, closed_forms::fr_chain_away(n));
            let alt = stream::alternating_chain(n);
            let row = measure_work_with_policy(FrontierFamily::PartialReversal, &alt, policy);
            assert_eq!(row.total_reversals, closed_forms::alternating_chain(n));
        }
    }

    #[test]
    fn measure_rows_are_consistent() {
        let inst = stream::grid_away(3, 3);
        for family in FrontierFamily::ALL {
            let row = measure_work(family, &inst);
            assert_eq!(row.n, 9);
            assert!(row.steps >= row.rounds);
            assert!(row.total_reversals > 0);
        }
    }
}
