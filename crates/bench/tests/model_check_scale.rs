//! Scale tests for the model checker: the size limit of the exhaustive
//! experiment binaries, the exhaustive n = 5 NewPR sweep, and the full
//! n = 6 battery, too slow for a debug build — run that one with
//! `--ignored` in release (as CI's release `--ignored` step does).

use std::process::Command;

use lr_simrel::model_check::{CheckKind, McOptions};

/// A size above `MAX_N` (n = 7 has more than 1.5 M isomorphism classes)
/// exits 1 with an `error:` before any output, in every exhaustive
/// experiment.
#[test]
fn exhaustive_experiments_reject_a_size_above_max_n() {
    for exe in [
        env!("CARGO_BIN_EXE_exp_acyclicity"),
        env!("CARGO_BIN_EXE_exp_invariants"),
        env!("CARGO_BIN_EXE_exp_reverse"),
        env!("CARGO_BIN_EXE_exp_simrel"),
    ] {
        let out = Command::new(exe).arg("7").output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{exe}: {stderr}");
        assert!(
            stderr.contains("error: modelcheck needs a size n in 2..=6, got \"7\""),
            "{exe}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{exe}");
    }
}

/// Exhaustive NewPR at n = 5 — all 132,150 instances, through their
/// 1,225 representatives — with its state and transition counts pinned,
/// and the same summary at 1 and 2 threads.
#[test]
fn newpr_holds_exhaustively_at_n5_at_1_and_2_threads() {
    let serial = CheckKind::NewPr.run(5, &McOptions::default());
    assert!(
        serial.verified(),
        "violation={:?} truncated={:?}",
        serial.first_violation,
        serial.truncated
    );
    assert_eq!(
        (
            serial.instances,
            serial.orbits,
            serial.states_visited,
            serial.transitions
        ),
        (132_150, 1_225, 583_045, 551_280)
    );
    let parallel = CheckKind::NewPr.run(5, &McOptions::default().with_threads(2));
    assert_eq!(serial, parallel);
}

/// The whole battery at n = 6: 21,580,572 instances through 32,389
/// representatives, every check verified with its (states, transitions,
/// longest execution) pinned.
#[test]
#[ignore = "the n = 6 battery takes seconds in release; run with --ignored"]
fn the_battery_verifies_at_n6() {
    let pinned = [
        (CheckKind::NewPr, 118_747_458, 125_353_500, 0),
        (CheckKind::OneStepPr, 107_134_578, 107_247_990, 0),
        (CheckKind::PrSet, 107_134_578, 131_302_266, 0),
        (CheckKind::RPrime, 107_134_578, 131_302_266, 0),
        (CheckKind::R, 107_134_578, 107_247_990, 0),
        (CheckKind::RevR, 118_747_458, 125_353_500, 0),
        (CheckKind::RevRPrime, 107_134_578, 107_247_990, 0),
        (CheckKind::Termination, 225_882_036, 0, 15),
    ];
    let opts = McOptions::default().with_threads(2);
    for (kind, states, transitions, longest) in pinned {
        let s = kind.run(6, &opts);
        assert!(s.verified(), "{}: {s:?}", kind.key());
        assert_eq!(
            (
                s.instances,
                s.orbits,
                s.states_visited,
                s.transitions,
                s.longest_execution
            ),
            (21_580_572, 32_389, states, transitions, longest),
            "{}",
            kind.key()
        );
    }
}
