//! Scale tests for the model checker: the size limit of the exhaustive
//! experiment binaries, and the exhaustive n = 5 NewPR sweep, too slow
//! for the default test pass — run that one with `--ignored` (or via CI's
//! release `--ignored` step).

use std::process::Command;

use lr_simrel::model_check::{CheckKind, McOptions};

/// A size above `MAX_N` (n = 6 would need about 18 GB) exits 1 with an
/// `error:` before any output, in every exhaustive experiment.
#[test]
fn exhaustive_experiments_reject_a_size_above_max_n() {
    for exe in [
        env!("CARGO_BIN_EXE_exp_acyclicity"),
        env!("CARGO_BIN_EXE_exp_invariants"),
        env!("CARGO_BIN_EXE_exp_reverse"),
        env!("CARGO_BIN_EXE_exp_simrel"),
    ] {
        let out = Command::new(exe).arg("6").output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{exe}: {stderr}");
        assert!(
            stderr.contains("error: modelcheck needs a size n in 2..=5, got \"6\""),
            "{exe}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{exe}");
    }
}

/// Exhaustive NewPR at n = 5 — all 132,150 instances — with its state and
/// transition counts pinned, and the same summary at 1 and 2 threads.
#[test]
#[ignore = "the n = 5 sweep takes seconds; run with --ignored"]
fn newpr_holds_exhaustively_at_n5_at_1_and_2_threads() {
    let serial = CheckKind::NewPr.run(5, &McOptions::default());
    assert!(
        serial.verified(),
        "violation={:?} truncated={:?}",
        serial.first_violation,
        serial.truncated
    );
    assert_eq!(
        (serial.instances, serial.states_visited, serial.transitions),
        (132_150, 583_045, 551_280)
    );
    let parallel = CheckKind::NewPr.run(5, &McOptions::default().with_threads(2));
    assert_eq!(serial, parallel);
}
