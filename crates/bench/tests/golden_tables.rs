//! Golden stdout of the four experiments that drive the paper's automata:
//! `exp_acyclicity`, `exp_invariants`, `exp_simrel` and `exp_reverse`.
//! Each sweeps every instance exhaustively to n = 4 and then runs seeded
//! random executions on larger instances (up to 20 nodes), so its table
//! pins both the model checker's counts and the automata's behaviour
//! beyond the exhaustive sizes.
//!
//! Each binary runs with no argument from a fresh directory under the
//! system's temp dir, so the `results/` it writes stays out of the tree,
//! and its stdout is compared byte for byte with
//! `tests/golden/<binary>.txt`. On a mismatch the actual output is
//! written under `$CARGO_TARGET_TMPDIR/golden/` and the test names the
//! first differing line; an intended change copies it over the corpus.

use std::path::Path;
use std::process::Command;

fn table_matches_the_golden_corpus(name: &str, exe: &str) {
    let dir = std::env::temp_dir().join(format!("lr_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("a temp dir");
    let out = Command::new(exe).current_dir(&dir).output();
    let _ = std::fs::remove_dir_all(&dir);
    let out = out.expect("the binary runs");
    assert!(
        out.status.success(),
        "{name} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let actual = String::from_utf8(out.stdout).expect("UTF-8 stdout");
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("tests/golden/{name}.txt"));
    let expected = std::fs::read_to_string(&path).unwrap_or_default();
    if actual == expected {
        return;
    }
    let written = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("golden/{name}.txt"));
    std::fs::create_dir_all(written.parent().expect("a directory"))
        .and_then(|()| std::fs::write(&written, &actual))
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", written.display()));
    let (want, got): (Vec<&str>, Vec<&str>) =
        (expected.lines().collect(), actual.lines().collect());
    let line = (0..want.len().max(got.len()))
        .find(|&i| want.get(i) != got.get(i))
        .unwrap_or(want.len().min(got.len()));
    panic!(
        "{name}: first difference on line {}\n  expected: {:?}\n  actual:   {:?}\n\
         the actual output is {}",
        line + 1,
        want.get(line),
        got.get(line),
        written.display()
    );
}

#[test]
fn exp_acyclicity_matches_the_golden_corpus() {
    table_matches_the_golden_corpus("exp_acyclicity", env!("CARGO_BIN_EXE_exp_acyclicity"));
}

#[test]
fn exp_invariants_matches_the_golden_corpus() {
    table_matches_the_golden_corpus("exp_invariants", env!("CARGO_BIN_EXE_exp_invariants"));
}

#[test]
fn exp_simrel_matches_the_golden_corpus() {
    table_matches_the_golden_corpus("exp_simrel", env!("CARGO_BIN_EXE_exp_simrel"));
}

#[test]
fn exp_reverse_matches_the_golden_corpus() {
    table_matches_the_golden_corpus("exp_reverse", env!("CARGO_BIN_EXE_exp_reverse"));
}
