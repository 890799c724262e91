//! Golden outputs of the instance commands: `lr generate` on nine recipe
//! instances, and on each of them `lr run` (six families × four
//! policies), `lr trace` (six families), `lr check` and `lr dot`, all
//! through [`run_cli`] in-process and compared byte for byte with the
//! files under `tests/golden/<instance>/`.
//!
//! The traces of `random 300 11` are stored as an FNV-1a digest plus a
//! line count (`*.digest`); every other output is stored in full. On a
//! mismatch the test writes each differing output to `target/golden/`
//! (same layout), prints its first differing line, and fails. An
//! intended output change copies those files over the corpus.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use link_reversal::cli::run_cli;

/// The recipe instances: `lr generate` arguments.
const INSTANCES: [&[&str]; 9] = [
    &["chain-away", "40"],
    &["chain-toward", "9"],
    &["alternating", "33"],
    &["grid", "7"],
    &["random", "60", "3"],
    &["random", "300", "11"],
    &["complete", "9"],
    &["star", "12"],
    &["star", "1"],
];

/// The instance whose traces are stored as digests.
const DIGESTED: &[&str] = &["random", "300", "11"];

const FAMILIES: [&str; 6] = ["FR", "PR", "NewPR", "GB-pair", "GB-triple", "BLL[PR]"];
const POLICIES: [&str; 4] = ["greedy", "first", "last", "random:7"];

/// One output as stored: the file name and its contents.
struct Golden {
    name: String,
    text: String,
}

/// What `run_cli` prints, or its error as the binary would report it.
fn cli(args: &[&str], stdin: &str) -> String {
    match run_cli(args, stdin.as_bytes()) {
        Ok(out) => out,
        Err(e) => format!("error: {e}\n"),
    }
}

/// A file-name form of a family or policy (`BLL[PR]` → `BLL-PR`,
/// `random:7` → `random-7`).
fn file_part(s: &str) -> String {
    s.replace(['[', ':'], "-").replace(']', "")
}

/// 64-bit FNV-1a.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Every output for one instance, in a fixed order.
fn outputs(generate: &[&str]) -> Vec<Golden> {
    let mut args = vec!["generate"];
    args.extend_from_slice(generate);
    let inst = cli(&args, "");
    let mut out = vec![Golden {
        name: "generate.txt".into(),
        text: inst.clone(),
    }];
    for family in FAMILIES {
        for policy in POLICIES {
            out.push(Golden {
                name: format!("run-{}-{}.txt", file_part(family), file_part(policy)),
                text: cli(&["run", family, policy], &inst),
            });
        }
    }
    for family in FAMILIES {
        let trace = cli(&["trace", family], &inst);
        out.push(if generate == DIGESTED {
            Golden {
                name: format!("trace-{}.digest", file_part(family)),
                text: format!(
                    "fnv1a64 {:016x}\nlines {}\n",
                    fnv1a(&trace),
                    trace.lines().count()
                ),
            }
        } else {
            Golden {
                name: format!("trace-{}.txt", file_part(family)),
                text: trace,
            }
        });
    }
    out.push(Golden {
        name: "check.txt".into(),
        text: cli(&["check"], &inst),
    });
    out.push(Golden {
        name: "dot.txt".into(),
        text: cli(&["dot"], &inst),
    });
    out
}

#[test]
fn instance_commands_match_the_golden_corpus() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let (corpus, actual) = (root.join("tests/golden"), root.join("target/golden"));
    let mut report = String::new();
    let mut compared = 0;
    for generate in INSTANCES {
        let dir = generate.join("-");
        for golden in outputs(generate) {
            compared += 1;
            let path: PathBuf = corpus.join(&dir).join(&golden.name);
            let expected = std::fs::read_to_string(&path).ok();
            if expected.as_deref() == Some(golden.text.as_str()) {
                continue;
            }
            let expected = expected.unwrap_or_default();
            let written = actual.join(&dir).join(&golden.name);
            std::fs::create_dir_all(written.parent().expect("a directory"))
                .and_then(|()| std::fs::write(&written, &golden.text))
                .unwrap_or_else(|e| panic!("cannot write {}: {e}", written.display()));
            let (want, got): (Vec<&str>, Vec<&str>) =
                (expected.lines().collect(), golden.text.lines().collect());
            let line = (0..want.len().max(got.len()))
                .find(|&i| want.get(i) != got.get(i))
                .unwrap_or(want.len().min(got.len()));
            let (want, got) = (want.get(line), got.get(line));
            let line = line + 1;
            let _ = writeln!(
                report,
                "{dir}/{}: first difference on line {line}\n  expected: {want:?}\n  actual:   {got:?}",
                golden.name
            );
        }
    }
    assert!(
        report.is_empty(),
        "golden outputs differ; the actual outputs are under {}\n{report}",
        actual.display()
    );
    assert_eq!(compared, 297);
}

#[test]
#[ignore = "a million-node instance; seconds in a release build, run with --ignored"]
fn a_million_node_grid_runs_through_the_cli() {
    let inst = cli(&["generate", "grid", "1000"], "");
    assert_eq!(
        cli(&["run", "PR"], &inst),
        "algorithm:        PR\n\
         threads:          1\n\
         nodes:            1000000\n\
         initial bad:      999999\n\
         steps:            999999\n\
         total reversals:  1998000\n\
         rounds:           1998\n\
         dummy steps:      0\n\
         acyclic:          true\n\
         dest oriented:    true\n"
    );
}
