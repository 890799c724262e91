//! Scale tests for the parallel model checker: the n = 5 sweeps that are
//! too slow for the default test pass but are the point of the parallel
//! explorer — run with `--ignored` (or via CI's release `--ignored`
//! step).

use lr_simrel::model_check::{model_check_newpr_sampled_opts, McOptions};

/// Exhaustive NewPR at n = 5 — all 132,150 instances, ~580k states —
/// plus a stride-100 sample, both verified.
#[test]
#[ignore = "n = 5 sweeps take seconds; run with --ignored"]
fn newpr_holds_exhaustively_at_n5() {
    let opts = McOptions::default();

    let exhaustive = model_check_newpr_sampled_opts(5, 1, &opts);
    assert!(
        exhaustive.verified(),
        "violation={:?} truncated={:?}",
        exhaustive.first_violation,
        exhaustive.truncated
    );
    assert_eq!(exhaustive.instances, 132_150);
    assert!(exhaustive.states_visited > 500_000);

    let sampled = model_check_newpr_sampled_opts(5, 100, &opts);
    assert!(sampled.verified());
    assert_eq!(sampled.instances, 132_150usize.div_ceil(100));
}

/// The sampled sweep is bit-identical across outer thread counts at
/// n = 5 too (the n = 3/4 differential suites cover the dense sizes;
/// this extends the guarantee to the size the parallel axis exists for).
#[test]
#[ignore = "n = 5 sweeps take seconds; run with --ignored"]
fn sampled_n5_sweep_bit_identical_across_threads() {
    let serial = model_check_newpr_sampled_opts(5, 200, &McOptions::default());
    assert!(serial.verified());
    for threads in [2usize, 4] {
        let par =
            model_check_newpr_sampled_opts(5, 200, &McOptions::default().with_threads(threads));
        assert_eq!(serial, par, "diverged at threads={threads}");
    }
}
