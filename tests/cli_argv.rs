//! The argument-vector no-panic suite: seeded random and mutated argument
//! vectors go through [`run_cli`], and each must come back `Ok` or
//! `Err`, never as a panic.
//!
//! The vocabulary is every command and scenario subcommand; every flag,
//! both as `--flag value` and `--flag=value`; the algorithm, policy,
//! family, check and `--obs` names; edge-case numbers (sizes past the
//! slot capacity and the memory ceiling, `u64::MAX` and one past it,
//! negative, non-numeric and empty values); tiny spec, feed and trace
//! files in a temp directory, which `--obs-out` also points into; `-` as a
//! feed; and on stdin a small instance, a feed line or garbage.
//! Model-check sizes 5 and 6 are valid but slow, so they are left out;
//! every other vector finishes in milliseconds, and the suite in a few
//! seconds in a debug build.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::{Duration, Instant};

use link_reversal::cli::run_cli;

/// Vectors drawn from scratch: a command head and up to six tokens.
const RANDOM_VECTORS: usize = 1500;
/// Mutants of [`valid_vectors`].
const MUTATED_VECTORS: usize = 3000;

const HEADS: &[&[&str]] = &[
    &["generate"],
    &["run"],
    &["trace"],
    &["check"],
    &["dot"],
    &["scenario"],
    &["scenario", "validate"],
    &["scenario", "run"],
    &["scenario", "sweep"],
    &["modelcheck"],
    &["serve"],
    &["obs"],
    &["obs", "validate"],
    &["help"],
    &["--help"],
    &["-h"],
    &["frobnicate"],
];

const FLAGS: &[&str] = &[
    "--threads",
    "--checks",
    "--smoke",
    "--rate",
    "--duration",
    "--batch",
    "--queue",
    "--seed",
    "--feed",
    "--obs",
    "--obs-out",
    "--engine",
];

const NAMES: &[&str] = &[
    // Algorithms and policies.
    "FR",
    "PR",
    "NewPR",
    "GB-pair",
    "GB-triple",
    "BLL[PR]",
    "greedy",
    "first",
    "last",
    "random:7",
    "random:x",
    // Families.
    "chain-away",
    "chain-toward",
    "alternating",
    "star",
    "grid",
    "complete",
    "random",
    "tree",
    // Check keys and lists.
    "newpr",
    "onestep",
    "prset",
    "rprime",
    "r",
    "revr",
    "revrprime",
    "termination",
    "newpr,r",
    ",",
    // `--obs` modes.
    "off",
    "summary",
    "json",
    "chrome",
    // Subcommands out of place, and `-` as a feed.
    "validate",
    "run",
    "sweep",
    "-",
];

const NUMBERS: &[&str] = &[
    "0",
    "1",
    "2",
    "3",
    "4",
    "7",
    "46000",
    "1000000000",
    "18446744073709551615",
    "18446744073709551616",
    "-1",
    "x",
    "",
];

/// SplitMix64: a fixed-seed stream, so every run draws the same vectors.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

/// The fixture files, by name: a serve-able routing grid, an election
/// spec, a scenario with churn, a matrix spec, a feed, a valid and a
/// broken trace, and a file that is not JSON.
const FIXTURES: &[(&str, &str)] = &[
    (
        "serve.json",
        r#"{"name": "argv-serve", "topology": {"family": "grid", "rows": 3, "cols": 3},
            "settle": 50}"#,
    ),
    (
        "election.json",
        r#"{"name": "argv-election", "protocol": "election",
            "topology": {"family": "grid", "rows": 2, "cols": 3}, "settle": 50}"#,
    ),
    (
        "scenario.json",
        r#"{"name": "argv-scenario", "topology": {"family": "grid", "rows": 3, "cols": 3},
            "churn": [{"at": 5, "fail": [[0, 1]]}, {"at": 20, "heal": [[0, 1]]}],
            "settle": 100, "seeds": [1, 2]}"#,
    ),
    (
        "matrix.json",
        r#"{"name": "argv-matrix", "topology": {"family": "chain-away", "n": 4},
            "churn": [{"at": 5, "random": {"fail": 1}}], "settle": 100,
            "matrix": {"protocol": ["routing", "reversal"], "churn_scale": [1, 2]}}"#,
    ),
    (
        "feed.ndjson",
        "{\"at\": 2, \"fail\": [0, 1]}\n{\"at\": 3, \"route\": 4}\n{\"at\": 5, \"heal\": [0, 1]}\n",
    ),
    (
        "trace.json",
        r#"{"traceEvents": [{"name": "x", "ph": "X", "ts": 1, "dur": 2, "pid": 1, "tid": 1}]}"#,
    ),
    ("bad_trace.json", r#"{"traceEvents": [{"name": 3}]}"#),
    ("garbage.json", "{not json"),
];

/// (Re)writes the fixtures: a vector's `--obs-out` may overwrite one.
fn write_fixtures(dir: &Path) {
    for (name, text) in FIXTURES {
        std::fs::write(dir.join(name), text).expect("write fixture");
    }
}

fn own(argv: &[&str]) -> Vec<String> {
    argv.iter().map(|s| s.to_string()).collect()
}

/// The vectors the mutants start from, each valid as it stands.
fn valid_vectors(file: impl Fn(&str) -> String) -> Vec<Vec<String>> {
    let (serve, scenario, matrix) = (
        file("serve.json"),
        file("scenario.json"),
        file("matrix.json"),
    );
    let (feed, trace, election) = (
        file("feed.ndjson"),
        file("trace.json"),
        file("election.json"),
    );
    let obs_out = file("obs_out.json");
    vec![
        own(&["generate", "grid", "3"]),
        own(&["generate", "random", "7", "2"]),
        own(&["run", "PR", "greedy"]),
        own(&["run", "NewPR", "random:3"]),
        own(&["run", "FR", "--obs", "summary"]),
        own(&["trace", "GB-triple", "first"]),
        own(&["check"]),
        own(&["dot"]),
        own(&["scenario", "validate", &scenario, &matrix]),
        own(&["scenario", "run", "--smoke", &scenario]),
        own(&["scenario", "sweep", "--threads", "2", &matrix]),
        own(&["modelcheck", "3", "--checks", "newpr,r", "--threads", "2"]),
        own(&[
            "serve",
            &serve,
            "--rate",
            "3",
            "--duration",
            "4",
            "--feed",
            &feed,
        ]),
        own(&["serve", &serve, "--feed", "-", "--duration", "7"]),
        own(&[
            "serve",
            &election,
            "--rate=2",
            "--duration=3",
            "--seed",
            "9",
        ]),
        own(&["serve", &serve, "--obs", "chrome", "--obs-out", &obs_out]),
        own(&["obs", "validate", &trace]),
    ]
}

/// Vectors that once ran until killed, tried to allocate tens of GB or
/// asked for a worker per work item; they now finish at once, and run
/// first.
fn edge_vectors(file: impl Fn(&str) -> String) -> Vec<Vec<String>> {
    let (serve, matrix) = (file("serve.json"), file("matrix.json"));
    vec![
        own(&[
            "serve",
            &serve,
            "--rate",
            "18446744073709551615",
            "--duration",
            "2",
        ]),
        own(&[
            "serve",
            &serve,
            "--rate",
            "0",
            "--duration",
            "1000000000000000",
        ]),
        own(&["generate", "complete", "46000"]),
        own(&["generate", "random", "1000000000", "1"]),
        own(&["modelcheck", "4", "--threads", "1000000000"]),
        own(&["run", "PR", "--threads", "1000000000"]),
        own(&["scenario", "sweep", "--threads", "1000000000", &matrix]),
        own(&[
            "serve",
            &serve,
            "--rate",
            "46000",
            "--duration",
            "7",
            "--batch",
            "46000",
            "--threads",
            "1000000000",
        ]),
    ]
}

#[test]
fn random_and_mutated_argument_vectors_never_panic() {
    let dir = std::env::temp_dir().join(format!("lr_argv_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // A relative `--obs-out` path lands in the temp directory too; this
    // binary holds no other test that could mind the changed directory.
    std::env::set_current_dir(&dir).unwrap();
    write_fixtures(&dir);
    let file = |name: &str| dir.join(name).to_str().unwrap().to_string();

    let mut files: Vec<String> = FIXTURES.iter().map(|(name, _)| file(name)).collect();
    files.extend([file("obs_out.json"), file("missing.json"), file("")]);
    let instance = run_cli(&["generate", "alternating", "5"], "".as_bytes()).unwrap();
    let stdins = [
        instance.as_str(),
        "",
        "garbage",
        "dest 0\n0 > 0\n",
        "{\"at\": 1, \"route\": 1}\n",
    ];
    // Any single token: a flag (bare, or with an `=` value), a name, a
    // number or a file.
    let token = |rng: &mut Rng| -> String {
        let value = |rng: &mut Rng| match rng.below(3) {
            0 => rng.pick(NAMES).to_string(),
            1 => rng.pick(NUMBERS).to_string(),
            _ => rng.pick(&files).clone(),
        };
        match rng.below(5) {
            0 => rng.pick(FLAGS).to_string(),
            1 => format!("{}={}", rng.pick(FLAGS), value(rng)),
            _ => value(rng),
        }
    };
    let valid = valid_vectors(file);

    let mut rng = Rng(0x5EED_A26F);
    let mut vectors = edge_vectors(file);
    for _ in 0..RANDOM_VECTORS {
        let head = rng.pick(HEADS);
        let mut argv = own(head);
        for _ in 0..rng.below(7) {
            argv.push(token(&mut rng));
        }
        vectors.push(argv);
    }
    // A third of the mutants keep their shape and swap one value for
    // another of its kind, so many stay valid at edge-case values.
    let same_kind = |rng: &mut Rng, arg: &str| -> Option<String> {
        [NAMES, NUMBERS]
            .into_iter()
            .find(|kind| kind.contains(&arg))
            .map(|kind| rng.pick(kind).to_string())
    };
    for _ in 0..MUTATED_VECTORS {
        let mut argv = rng.pick(&valid).clone();
        if rng.below(3) == 0 {
            let at = rng.below(argv.len());
            if let Some(value) = same_kind(&mut rng, &argv[at]) {
                argv[at] = value;
            }
            vectors.push(argv);
            continue;
        }
        for _ in 0..1 + rng.below(3) {
            let at = rng.below(argv.len() + 1);
            match rng.below(5) {
                0 if at < argv.len() => argv[at] = token(&mut rng),
                1 if at < argv.len() && argv.len() > 1 => {
                    argv.remove(at);
                }
                2 if at + 1 < argv.len() => argv.swap(at, at + 1),
                // Join `--flag value` into `--flag=value`, or split one.
                3 if at + 1 < argv.len() && argv[at].starts_with("--") => {
                    let value = argv.remove(at + 1);
                    argv[at] = format!("{}={value}", argv[at]);
                }
                3 if at < argv.len() && argv[at].contains('=') => {
                    let (flag, value) = argv[at].split_once('=').unwrap();
                    let (flag, value) = (flag.to_string(), value.to_string());
                    argv[at] = flag;
                    argv.insert(at + 1, value);
                }
                _ => argv.insert(at, token(&mut rng)),
            }
        }
        vectors.push(argv);
    }

    let began = Instant::now();
    let (mut ok, mut failed) = (0usize, 0usize);
    let mut panics: Vec<String> = Vec::new();
    let mut slowest = (Duration::ZERO, String::new());
    for argv in &vectors {
        write_fixtures(&dir);
        let stdin = *rng.pick(&stdins);
        let args: Vec<&str> = argv.iter().map(String::as_str).collect();
        let start = Instant::now();
        match catch_unwind(AssertUnwindSafe(|| run_cli(&args, stdin.as_bytes()))) {
            Ok(Ok(_)) => ok += 1,
            Ok(Err(_)) => failed += 1,
            Err(_) => panics.push(format!("{args:?} with stdin {stdin:?}")),
        }
        if start.elapsed() > slowest.0 {
            slowest = (start.elapsed(), format!("{args:?}"));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "{} vectors in {:.2?}: {ok} Ok, {failed} Err; slowest {:.2?} for {}",
        vectors.len(),
        began.elapsed(),
        slowest.0,
        slowest.1
    );
    assert!(
        panics.is_empty(),
        "vectors that panicked:\n{}",
        panics.join("\n")
    );
    // Both outcomes must be common, or the vocabulary has stopped
    // reaching the commands' working paths.
    assert!(ok * 20 > vectors.len() && failed * 20 > vectors.len());
}
