//! Golden outputs of the instance commands and of `lr serve`, all run
//! through [`run_cli`] in-process and compared byte for byte with the
//! files under `tests/golden/`.
//!
//! The instance commands run on nine recipe instances: `lr generate`, and
//! on each instance `lr run` (six families × four policies), `lr trace`
//! (six families), `lr check` and `lr dot`, stored under
//! `tests/golden/<instance>/`. The traces of `random 300 11` are stored as
//! an FNV-1a digest plus a line count (`*.digest`); every other output is
//! stored in full. `lr serve` runs `examples/serve/steady_grid.json` with
//! and without the demo feed and, in the `--ignored` tier, the 100k-node
//! grid at rate 10 for 100 ticks with and without the demo feed and
//! under its churn feed, and the 1000 × 1000 grid of
//! `examples/serve/grid_1m.json`, stored under `tests/golden/serve/`. The
//! other four protocols' serve reports, from [`run_serve`], sit beside
//! them: reversal and TORA on the same grid under the demo feed, mutex on
//! a small tree, and election with one `crash_leader`.
//!
//! `lr scenario run` runs each plain shipped spec under
//! `examples/scenarios/`, and `lr scenario sweep --threads 1` the matrix
//! spec, stored under `tests/golden/scenario/`. The table leaves fields
//! out, so each run's records also go there as pretty JSON: the
//! [`run_sweep`] rows, and the [`run_matrix_sweep`] rows and metrics.
//!
//! `lr modelcheck 4` and, in the `--ignored` tier, `lr modelcheck 5` run
//! all eight checks; each table is stored under `tests/golden/modelcheck/`
//! with the header's thread count and the ms column masked, as CI's `sed`
//! masks them.
//!
//! On a mismatch a test writes each differing output to `target/golden/`
//! (same layout), prints its first differing line, and fails. An intended
//! output change copies those files over the corpus.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use link_reversal::cli::run_cli;
use link_reversal::scenario::{
    parse_feed, run_matrix_sweep, run_serve, run_sweep, MatrixOptions, ScenarioSpec, ServeOptions,
    SweepOptions,
};

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

/// Compares each output with its file under `tests/golden/<dir>/`. Every
/// output that differs is written under `target/golden/<dir>/`, and the
/// returned report names its first differing line; an empty report means
/// every output matched.
fn compare(outputs: &[(String, Golden)]) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let (corpus, actual) = (root.join("tests/golden"), root.join("target/golden"));
    let mut report = String::new();
    for (dir, golden) in outputs {
        let path: PathBuf = corpus.join(dir).join(&golden.name);
        let expected = std::fs::read_to_string(&path).ok();
        if expected.as_deref() == Some(golden.text.as_str()) {
            continue;
        }
        let expected = expected.unwrap_or_default();
        let written = actual.join(dir).join(&golden.name);
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
    if !report.is_empty() {
        report.insert_str(
            0,
            &format!(
                "golden outputs differ; the actual outputs are under {}\n",
                actual.display()
            ),
        );
    }
    report
}

#[test]
fn instance_commands_match_the_golden_corpus() {
    let outputs: Vec<(String, Golden)> = INSTANCES
        .iter()
        .flat_map(|generate| {
            let dir = generate.join("-");
            outputs(generate).into_iter().map(move |g| (dir.clone(), g))
        })
        .collect();
    let report = compare(&outputs);
    assert!(report.is_empty(), "{report}");
    assert_eq!(outputs.len(), 297);
}

/// `lr serve` of a shipped spec under `examples/serve/` with `flags`, and
/// with the shipped feed `feed` when one is named; stored as
/// `serve/<spec>[-<feed>].txt`.
fn serve(spec: &str, flags: &[&str], feed: Option<&str>) -> (String, Golden) {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/serve");
    let spec_path = dir.join(format!("{spec}.json"));
    let feed_path = feed.map(|f| dir.join(format!("{f}.ndjson")));
    let mut args = vec!["serve", spec_path.to_str().expect("a UTF-8 path")];
    args.extend_from_slice(flags);
    if let Some(path) = &feed_path {
        args.extend_from_slice(&["--feed", path.to_str().expect("a UTF-8 path")]);
    }
    let name = match feed {
        Some(feed) => format!("{spec}-{feed}.txt"),
        None => format!("{spec}.txt"),
    };
    let text = cli(&args, "");
    ("serve".into(), Golden { name, text })
}

#[test]
fn serve_matches_the_golden_corpus() {
    let flags = ["--rate", "10", "--duration", "100"];
    let outputs = [
        serve("steady_grid", &flags, None),
        serve("steady_grid", &flags, Some("feed_demo")),
    ];
    let report = compare(&outputs);
    assert!(report.is_empty(), "{report}");
}

/// The serve runs of the four protocols besides routing, each at rate 10
/// for 100 ticks, as `(name, spec, feed)`.
fn protocol_serves() -> [(&'static str, String, String); 4] {
    let read = |path: &str| {
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join(path))
            .unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
    };
    let grid = read("examples/serve/steady_grid.json");
    let on_grid = |protocol: &str| grid.replace("\"routing\"", &format!("\"{protocol}\""));
    let demo = read("examples/serve/feed_demo.ndjson");
    let tree = r#"{"name": "serve-mutex-tree", "protocol": "mutex", "seeds": [42],
        "topology": {"family": "inline",
                     "edges": [[0, 1], [0, 2], [1, 3], [1, 4], [2, 5], [2, 6], [5, 7]]}}"#;
    [
        (
            "reversal-steady_grid-feed_demo",
            on_grid("reversal"),
            demo.clone(),
        ),
        ("tora-steady_grid-feed_demo", on_grid("tora"), demo),
        ("mutex-tree", tree.to_string(), String::new()),
        (
            "election-steady_grid-crash_leader",
            on_grid("election"),
            "{\"at\": 30, \"crash_leader\": true}\n".to_string(),
        ),
    ]
}

#[test]
fn every_protocol_serves_the_golden_corpus() {
    let options = ServeOptions {
        rate: 10,
        duration: 100,
        ..ServeOptions::default()
    };
    let outputs: Vec<(String, Golden)> = protocol_serves()
        .into_iter()
        .map(|(name, spec, feed)| {
            let spec = ScenarioSpec::from_json(&spec).expect("a valid spec");
            let feed = parse_feed(&feed).expect("a valid feed");
            let text = match run_serve(&spec, &options, &feed) {
                Ok(report) => report.render(),
                Err(e) => format!("error: {e}\n"),
            };
            let name = format!("{name}.txt");
            ("serve".to_string(), Golden { name, text })
        })
        .collect();
    let report = compare(&outputs);
    assert!(report.is_empty(), "{report}");
}

/// The plain shipped scenario specs under `examples/scenarios/`.
const SCENARIOS: [&str; 6] = [
    "churn_waves",
    "election_crash",
    "lossy_reversal",
    "mutex_contention",
    "partition_heal",
    "tora_churn",
];

/// A shipped spec's path relative to the package root (the directory
/// tests run in), so the path the table header echoes does not depend on
/// where the tree is checked out.
fn scenario_path(spec: &str) -> String {
    format!("examples/scenarios/{spec}.json")
}

fn load_spec(spec: &str) -> ScenarioSpec {
    let path = scenario_path(spec);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    ScenarioSpec::from_json(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Pretty JSON with a final newline.
fn pretty<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string_pretty(value).expect("records serialize") + "\n"
}

#[test]
fn scenario_runs_match_the_golden_corpus() {
    let mut outputs: Vec<(String, Golden)> = Vec::new();
    let mut push = |name: String, text: String| {
        outputs.push(("scenario".into(), Golden { name, text }));
    };
    for spec in SCENARIOS {
        push(
            format!("{spec}.txt"),
            cli(&["scenario", "run", &scenario_path(spec)], ""),
        );
        let outcome = run_sweep(&load_spec(spec), SweepOptions::default()).expect("a run");
        push(format!("{spec}.json"), pretty(&outcome.records));
    }
    let matrix = "matrix_sweep";
    push(
        format!("{matrix}.txt"),
        cli(
            &[
                "scenario",
                "sweep",
                "--threads",
                "1",
                &scenario_path(matrix),
            ],
            "",
        ),
    );
    let outcome = run_matrix_sweep(&load_spec(matrix), MatrixOptions::default()).expect("a sweep");
    push(format!("{matrix}.json"), pretty(&outcome.records));
    push(format!("{matrix}.metrics.txt"), outcome.metrics.render());
    let report = compare(&outputs);
    assert!(report.is_empty(), "{report}");
    assert_eq!(outputs.len(), 15);
}

#[test]
#[ignore = "two 100,489-node serves; under half a second in a release build, run with --ignored"]
fn the_100k_serves_match_the_golden_corpus() {
    let flags = ["--rate", "10", "--duration", "100"];
    let report = compare(&[
        serve("grid_100k", &flags, None),
        serve("grid_100k", &flags, Some("feed_demo")),
    ]);
    assert!(report.is_empty(), "{report}");
}

#[test]
#[ignore = "a 100,489-node serve under churn; under a second in a release build, run with --ignored"]
fn the_100k_churn_serve_matches_the_golden_corpus() {
    let flags = ["--rate", "100", "--duration", "200"];
    let report = compare(&[serve("grid_100k", &flags, Some("feed_churn_100k"))]);
    assert!(report.is_empty(), "{report}");
}

#[test]
#[ignore = "a million-node serve; about two seconds in a release build, run with --ignored"]
fn the_million_node_serve_matches_the_golden_corpus() {
    let flags = ["--rate", "100", "--duration", "200"];
    let report = compare(&[serve("grid_1m", &flags, None)]);
    assert!(report.is_empty(), "{report}");
}

/// Masks what varies between runs of `lr modelcheck`, as CI's `sed` does:
/// the ` (N thread(s))` ending the header, and the ms column before each
/// row's `yes` or `NO` (the column and its padding become ` <ms>`).
fn mask_modelcheck(out: &str) -> String {
    let mask = |line: &str| {
        let header = line
            .strip_suffix(" thread(s))")
            .and_then(|head| head.rsplit_once(" ("))
            .map(|(head, _)| head.to_string());
        let row = || {
            let (rest, verdict) = line.rsplit_once(' ')?;
            let (head, ms) = rest.trim_end().rsplit_once(' ')?;
            let is_ms = ms.contains('.') && ms.bytes().all(|b| b == b'.' || b.is_ascii_digit());
            (matches!(verdict, "yes" | "NO") && is_ms)
                .then(|| format!("{} <ms> {verdict}", head.trim_end()))
        };
        header.or_else(row).unwrap_or_else(|| line.to_string()) + "\n"
    };
    out.lines().map(mask).collect()
}

/// `lr modelcheck <n>`, all eight checks, masked; stored as
/// `modelcheck/n<n>.txt`.
fn modelcheck(n: &str) -> (String, Golden) {
    let text = mask_modelcheck(&cli(&["modelcheck", n], ""));
    let name = format!("n{n}.txt");
    ("modelcheck".into(), Golden { name, text })
}

#[test]
fn the_modelcheck_mask_matches_ci() {
    assert_eq!(
        mask_modelcheck(
            "model check: ... at n = 4 (12 thread(s))\n\
             \x20   check  instances  ms verified\n\
             \x20  R' simulation (Thm 5.2)       1784    12.5       yes\n\
             \x20           x      1        3 1234.0 NO\n\
             \x20           y      1        3 1234 yes\n"
        ),
        "model check: ... at n = 4\n\
         \x20   check  instances  ms verified\n\
         \x20  R' simulation (Thm 5.2)       1784 <ms> yes\n\
         \x20           x      1        3 <ms> NO\n\
         \x20           y      1        3 1234 yes\n"
    );
}

#[test]
fn modelcheck_at_n4_matches_the_golden_corpus() {
    let report = compare(&[modelcheck("4")]);
    assert!(report.is_empty(), "{report}");
}

#[test]
#[ignore = "the n = 5 battery, 132,150 instances; about a second in a release build, run with --ignored"]
fn modelcheck_at_n5_matches_the_golden_corpus() {
    let report = compare(&[modelcheck("5")]);
    assert!(report.is_empty(), "{report}");
}

#[test]
#[ignore = "a million-node instance; seconds in a release build, run with --ignored"]
fn a_million_node_grid_runs_through_the_cli() {
    let inst = cli(&["generate", "grid", "1000"], "");
    assert_eq!(
        cli(&["run", "PR"], &inst),
        "algorithm:        PR\n\
         nodes:            1000000\n\
         initial bad:      999999\n\
         steps:            999999\n\
         total reversals:  1998000\n\
         rounds:           1998\n\
         dummy steps:      0\n\
         acyclic:          true\n\
         dest oriented:    true\n"
    );
    // Full Reversal needs 999,000,000 steps here, so the CLI's budget
    // ends it.
    assert_eq!(
        cli(&["run", "FR"], &inst),
        "error: FR did not terminate within the 50,000,000-step budget: it ran 842 rounds\n"
    );
}
