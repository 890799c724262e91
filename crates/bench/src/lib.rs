//! Shared plumbing for the experiment binaries.
//!
//! Every experiment in the README's experiment table is regenerated by
//! one binary in `src/bin/` (tables to stdout, machine-readable JSON rows
//! to `results/`). Timing lives in the repository benchmark
//! (`perfbench/`), not here.

use std::fs;
use std::path::PathBuf;

use lr_simrel::model_check::parse_size;
use serde::Serialize;

/// Prints a row of fixed-width columns.
pub fn print_row(widths: &[usize], cells: &[String]) {
    let mut line = String::new();
    for (w, c) in widths.iter().zip(cells) {
        line.push_str(&format!("{c:>w$} ", w = w));
    }
    println!("{}", line.trim_end());
}

/// Prints a header row plus underline.
pub fn print_header(widths: &[usize], names: &[&str]) {
    print_row(
        widths,
        &names.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
    );
    let total: usize = widths.iter().sum::<usize>() + widths.len();
    println!("{}", "-".repeat(total));
}

/// Writes experiment rows as pretty JSON under `results/<name>.json`,
/// creating the directory if needed. Errors are reported but non-fatal —
/// the printed table is the primary artifact.
pub fn write_results<T: Serialize>(name: &str, rows: &T) {
    let dir = PathBuf::from("results");
    if let Err(e) = fs::create_dir_all(&dir) {
        eprintln!("warning: could not create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(rows) {
        Ok(json) => {
            if let Err(e) = fs::write(&path, json) {
                eprintln!("warning: could not write {}: {e}", path.display());
            } else {
                eprintln!("(results saved to {})", path.display());
            }
        }
        Err(e) => eprintln!("warning: could not serialize results: {e}"),
    }
}

/// The largest exhaustive size of a model-checking experiment: `argv[1]`
/// if given, else `default`. An argument [`parse_size`] refuses exits 1
/// with an `error:` before anything runs.
pub fn max_n_arg(default: usize) -> usize {
    std::env::args()
        .nth(1)
        .map_or(Ok(default), |a| parse_size(&a))
        .unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(1)
        })
}

/// Standard size sweep used by the work experiments.
pub const WORK_SIZES: [usize; 6] = [8, 16, 32, 64, 128, 256];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_formatting_aligns() {
        // Smoke test: no panic, correct cell count handling.
        print_header(&[6, 10], &["n", "work"]);
        print_row(&[6, 10], &["8".into(), "123".into()]);
    }
}
