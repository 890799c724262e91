//! `BENCH_pr3.json` … `BENCH_pr10.json` at the repository root are
//! frozen measurement history from before `perfbench` became the
//! benchmark: nothing writes them any more, and this gate keeps them
//! well-formed — each a non-empty JSON array of objects, read with the
//! vendored `serde_json` alone and no per-file row type.

use serde_json::Value;

#[test]
fn frozen_bench_history_parses_as_arrays_of_objects() {
    for pr in 3..=10 {
        let path = format!("{}/BENCH_pr{pr}.json", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let value: Value = serde_json::from_str(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
        let rows = value
            .as_array()
            .unwrap_or_else(|| panic!("{path}: expected an array, found {}", value.kind()));
        assert!(!rows.is_empty(), "{path}: no rows");
        for (i, row) in rows.iter().enumerate() {
            assert!(
                row.as_object().is_some(),
                "{path}: row {i} is {}, not an object",
                row.kind()
            );
        }
    }
}
