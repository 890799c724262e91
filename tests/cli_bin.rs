//! End-to-end tests of the `lr` binary itself (spawned as a real
//! process, exercising argument handling, stdin plumbing, and exit
//! codes).

use std::io::Write;
use std::process::{Command, Stdio};

fn lr() -> Command {
    Command::new(env!("CARGO_BIN_EXE_lr"))
}

fn run_with_stdin(args: &[&str], stdin: &str) -> (String, String, bool) {
    let mut child = lr()
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    child
        .stdin
        .as_mut()
        .expect("piped")
        .write_all(stdin.as_bytes())
        .expect("write stdin");
    let out = child.wait_with_output().expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn help_prints_usage_and_succeeds() {
    let (stdout, _, ok) = run_with_stdin(&["help"], "");
    assert!(ok);
    assert!(stdout.contains("USAGE"));
}

#[test]
fn help_flags_match_help_command() {
    let (reference, _, _) = run_with_stdin(&["help"], "");
    for flag in ["--help", "-h"] {
        let (stdout, stderr, ok) = run_with_stdin(&[flag], "");
        assert!(ok, "`lr {flag}` must exit 0");
        assert!(stderr.is_empty(), "`lr {flag}` must not write to stderr");
        assert_eq!(stdout, reference, "`lr {flag}` and `lr help` must agree");
    }
    // The help text must document the execution flags and the
    // observability plumbing — a flag the help doesn't mention is a flag
    // users can't find.
    for needle in [
        "--threads N",
        "--obs <off|summary|json|chrome>",
        "--obs-out <path>",
        "lr obs validate",
    ] {
        assert!(reference.contains(needle), "help is missing {needle:?}");
    }
    assert!(
        !reference.contains("--engine"),
        "`lr run` has one substrate"
    );
}

/// The README's smoke-test pipeline: generate a worst-case chain, run
/// the paper's NewPR on it, and land destination-oriented and acyclic.
#[test]
fn newpr_smoke_run_on_chain_16() {
    let (instance, _, ok) = run_with_stdin(&["generate", "chain-away", "16"], "");
    assert!(ok);
    let (stats, stderr, ok) = run_with_stdin(&["run", "NewPR"], &instance);
    assert!(ok, "NewPR run failed: {stderr}");
    assert!(stats.contains("algorithm:        NewPR"));
    assert!(stats.contains("nodes:            16"));
    assert!(stats.contains("acyclic:          true"));
    assert!(stats.contains("dest oriented:    true"));
    // NewPR on the away-chain must do real work: every non-destination
    // node reverses at least once.
    let reversals: usize = stats
        .lines()
        .find_map(|l| l.strip_prefix("total reversals:"))
        .expect("reversal count printed")
        .trim()
        .parse()
        .expect("reversal count parses");
    assert!(reversals >= 15, "expected ≥ 15 reversals, got {reversals}");
}

#[test]
fn generate_then_run_pipeline() {
    let (instance, _, ok) = run_with_stdin(&["generate", "chain-away", "8"], "");
    assert!(ok);
    assert!(instance.starts_with("dest 0"));
    let (stats, _, ok) = run_with_stdin(&["run", "PR"], &instance);
    assert!(ok);
    assert!(stats.contains("total reversals:  7"));
    assert!(stats.contains("dest oriented:    true"));
}

/// `lr run` and `lr trace` take every `FrontierFamily` name, and the
/// help text and the unknown-algorithm error list the same names.
/// `BLL[PR]` reverses exactly Partial Reversal's sets, so it reports
/// PR's counts.
#[test]
fn every_family_name_is_accepted_and_bll_pr_matches_pr() {
    use link_reversal::core::alg::FrontierFamily;

    let (help, _, _) = run_with_stdin(&["help"], "");
    let (_, unknown, _) = run_with_stdin(&["run", "NOPE"], "dest 0\n0 > 1\n");
    for family in FrontierFamily::ALL {
        assert!(help.contains(family.name()), "help lacks {}", family.name());
        assert!(unknown.contains(family.name()), "{unknown}");
    }
    let (instance, _, ok) = run_with_stdin(&["generate", "random", "60", "3"], "");
    assert!(ok);
    let counts = |alg: &str| -> Vec<String> {
        let (stats, stderr, ok) = run_with_stdin(&["run", alg], &instance);
        assert!(ok, "{alg}: {stderr}");
        stats
            .lines()
            .filter(|l| {
                ["steps:", "total reversals:", "rounds:", "dummy steps:"]
                    .iter()
                    .any(|key| l.starts_with(key))
            })
            .map(str::to_owned)
            .collect()
    };
    let pr = counts("PR");
    assert_eq!(pr.len(), 4, "{pr:?}");
    assert_eq!(counts("BLL[PR]"), pr);
    let (trace, stderr, ok) = run_with_stdin(&["trace", "BLL[PR]"], &instance);
    assert!(ok, "{stderr}");
    assert!(trace.starts_with("BLL[PR] on 60 nodes"), "{trace}");
}

/// `--obs` end-to-end: a traced run exports a Chrome trace through a
/// real process, `lr obs validate` accepts it, and the run's own stats
/// are unchanged by recording. This is the same pipeline the CI obs
/// smoke step drives.
#[test]
fn obs_chrome_trace_round_trips_through_the_binary() {
    let trace_path = std::env::temp_dir().join(format!("lr_bin_trace_{}.json", std::process::id()));
    let trace_s = trace_path.to_str().unwrap();
    let (instance, _, ok) = run_with_stdin(&["generate", "grid", "6"], "");
    assert!(ok);
    let (quiet, _, ok) = run_with_stdin(&["run", "PR"], &instance);
    assert!(ok);
    let (traced, stderr, ok) = run_with_stdin(
        &["run", "PR", "--obs", "chrome", "--obs-out", trace_s],
        &instance,
    );
    assert!(ok, "traced run failed: {stderr}");
    assert!(traced.starts_with(&quiet), "recording must only append");
    assert!(traced.contains("chrome trace"), "{traced}");
    let (validated, stderr, ok) = run_with_stdin(&["obs", "validate", trace_s], "");
    assert!(ok, "validate failed: {stderr}");
    assert!(validated.contains(": OK"), "{validated}");
    let text = std::fs::read_to_string(&trace_path).unwrap();
    assert!(text.contains("traceEvents"), "{text}");
    assert!(text.contains("engine.round"), "{text}");
    let _ = std::fs::remove_file(&trace_path);

    // Summary mode appends the table to stdout instead.
    let (summary, stderr, ok) = run_with_stdin(&["run", "PR", "--obs", "summary"], &instance);
    assert!(ok, "summary run failed: {stderr}");
    assert!(summary.contains("observability summary"), "{summary}");
    assert!(summary.contains("engine.steps"), "{summary}");
}

#[test]
fn trace_and_check_and_dot() {
    let (instance, _, _) = run_with_stdin(&["generate", "alternating", "6"], "");
    let (trace, _, ok) = run_with_stdin(&["trace", "NewPR", "first"], &instance);
    assert!(ok);
    assert!(trace.contains("step   1"));
    let (check, _, ok) = run_with_stdin(&["check"], &instance);
    assert!(ok);
    assert!(check.contains("all checks passed"));
    let (dot, _, ok) = run_with_stdin(&["dot"], &instance);
    assert!(ok);
    assert!(dot.contains("digraph"));
}

#[test]
fn scenario_validate_and_smoke_run_the_shipped_examples() {
    let dir = format!("{}/examples/scenarios", env!("CARGO_MANIFEST_DIR"));
    let specs: Vec<String> = std::fs::read_dir(&dir)
        .expect("examples/scenarios exists")
        .map(|e| e.unwrap().path().display().to_string())
        .filter(|p| p.ends_with(".json"))
        .collect();
    assert!(specs.len() >= 2, "at least two shipped example scenarios");
    let mut args = vec!["scenario", "validate"];
    args.extend(specs.iter().map(String::as_str));
    let (out, stderr, ok) = run_with_stdin(&args, "");
    assert!(ok, "validate failed: {stderr}");
    assert_eq!(out.matches(": OK").count(), specs.len(), "{out}");

    // Smoke run. Specs with a matrix section go through `scenario
    // sweep` instead (and `run` refuses them, tested elsewhere). Classified structurally —
    // parsed, not substring-matched — so a spec merely *named*
    // "matrix" would still be routed to `run`.
    let (matrix_specs, run_specs): (Vec<&String>, Vec<&String>) = specs.iter().partition(|p| {
        let text = std::fs::read_to_string(p.as_str()).expect("spec readable");
        lr_scenario::ScenarioSpec::from_json(&text)
            .expect("shipped spec parses")
            .matrix
            .is_some()
    });
    assert!(!run_specs.is_empty(), "plain example scenarios shipped");
    assert!(!matrix_specs.is_empty(), "a matrix example is shipped");
    let mut args = vec!["scenario", "run", "--smoke"];
    args.extend(run_specs.iter().map(|s| s.as_str()));
    let (out, stderr, ok) = run_with_stdin(&args, "");
    assert!(ok, "smoke run failed: {stderr}");
    for spec in &run_specs {
        assert!(
            out.contains(spec.as_str()),
            "missing table for {spec}: {out}"
        );
    }
    assert!(out.contains("summary"));
}

#[test]
fn scenario_sweep_expands_the_matrix_example_to_the_expected_cells() {
    let spec_path = format!(
        "{}/examples/scenarios/matrix_sweep.json",
        env!("CARGO_MANIFEST_DIR")
    );
    // The shipped example declares protocol×2, topology×3, links×2,
    // churn_scale×2 = 24 points; smoke mode runs one cell per point.
    let expected_points = 2 * 3 * 2 * 2;
    let (out, stderr, ok) = run_with_stdin(
        &["scenario", "sweep", "--smoke", "--threads", "2", &spec_path],
        "",
    );
    assert!(ok, "sweep failed: {stderr}");
    // Parse the emitted summary line: "... matrix expanded to K
    // point(s) = C cell(s), N thread(s)".
    let summary = out
        .lines()
        .find(|l| l.contains("matrix expanded to"))
        .unwrap_or_else(|| panic!("no expansion summary in:\n{out}"));
    let number_before = |marker: &str| -> usize {
        let head = summary.split(marker).next().expect("marker present");
        head.split_whitespace()
            .last()
            .expect("number before marker")
            .parse()
            .unwrap_or_else(|_| panic!("unparseable count in {summary:?}"))
    };
    assert_eq!(number_before(" point(s)"), expected_points, "{summary}");
    assert_eq!(
        number_before(" cell(s)"),
        expected_points,
        "smoke = one cell per point: {summary}"
    );
}

#[test]
fn scenario_rejects_malformed_spec_files_with_path_errors() {
    let bad = std::env::temp_dir().join(format!("lr_bin_bad_spec_{}.json", std::process::id()));
    std::fs::write(
        &bad,
        r#"{"name": "x", "topology": {"family": "chain-away", "n": 4},
            "churn": [{"at": 5, "fail": [[0, 3]]}]}"#,
    )
    .unwrap();
    let (_, stderr, ok) = run_with_stdin(&["scenario", "run", bad.to_str().unwrap()], "");
    assert!(!ok, "dangling churn edge must fail");
    assert!(stderr.contains("churn[0]"), "{stderr}");
    assert!(stderr.contains("no link 0-3"), "{stderr}");
    let _ = std::fs::remove_file(&bad);
}

/// A topology whose half-edges overflow the u32 slot index is a spec
/// error at `topology`, exit 1 — never a generator panic (exit 101) or
/// an attempt to allocate the graph.
#[test]
fn scenario_rejects_topologies_over_the_slot_capacity() {
    for (tag, topology) in [
        (
            "grid",
            r#"{"family": "grid", "rows": 100000, "cols": 100000}"#,
        ),
        ("star", r#"{"family": "star", "leaves": 5000000000}"#),
        ("tree", r#"{"family": "tree", "depth": 100}"#),
    ] {
        let spec =
            std::env::temp_dir().join(format!("lr_bin_capacity_{tag}_{}.json", std::process::id()));
        std::fs::write(
            &spec,
            format!(r#"{{"name": "too-big", "topology": {topology}}}"#),
        )
        .unwrap();
        let spec_s = spec.to_str().unwrap();
        for args in [
            &["scenario", "validate", spec_s][..],
            &["scenario", "run", spec_s][..],
            &["serve", spec_s][..],
        ] {
            let out = lr().args(args).output().expect("binary runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
            assert!(stderr.starts_with("error:"), "{args:?}: {stderr}");
            assert!(stderr.contains("topology: "), "{args:?}: {stderr}");
            assert!(stderr.contains("slot-index capacity"), "{args:?}: {stderr}");
        }
        let _ = std::fs::remove_file(&spec);
    }
}

#[test]
fn bad_input_fails_with_message_and_nonzero_exit() {
    let (_, stderr, ok) = run_with_stdin(&["run", "PR"], "garbage input");
    assert!(!ok);
    assert!(stderr.contains("invalid instance"));

    let (_, stderr, ok) = run_with_stdin(&["frobnicate"], "");
    assert!(!ok);
    assert!(stderr.contains("unknown command"));

    let (_, stderr, ok) = run_with_stdin(&["run", "NOPE"], "dest 0\n0 > 1\n");
    assert!(!ok);
    assert!(stderr.contains("unknown algorithm"));

    // The flat engine is the only substrate: `--engine` is an unknown flag.
    let out = lr()
        .args(["run", "PR", "--engine", "map"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(
        String::from_utf8_lossy(&out.stderr).trim_end(),
        "error: unknown flag \"--engine\" for `lr run`"
    );
}

/// The largest node id is an ordinary node on both text inputs that
/// name ids: the instance parser and an inline spec topology.
#[test]
fn node_id_u32_max_is_an_ordinary_node() {
    let (stdout, stderr, ok) = run_with_stdin(&["run", "PR"], "dest 0\n4294967295 > 0\n");
    assert!(ok, "{stderr}");
    assert!(stdout.contains("dest oriented:    true"), "{stdout}");

    let spec = std::env::temp_dir().join(format!("lr_bin_max_id_{}.json", std::process::id()));
    std::fs::write(
        &spec,
        r#"{"name": "max-id",
            "topology": {"family": "inline", "edges": [[0, 4294967295]], "dest": 0}}"#,
    )
    .unwrap();
    let (stdout, stderr, ok) =
        run_with_stdin(&["scenario", "validate", spec.to_str().unwrap()], "");
    assert!(ok, "{stderr}");
    assert!(stdout.contains(": OK"), "{stdout}");
    let _ = std::fs::remove_file(&spec);
}

/// Sizes a generator cannot build are a clean `error:` with exit 1, not
/// a generator assert (exit 101); the star alone is valid at size 1.
#[test]
fn generate_rejects_sizes_below_the_family_minimum() {
    for family in [
        "chain-away",
        "chain-toward",
        "alternating",
        "grid",
        "complete",
        "random",
    ] {
        for size in ["0", "1"] {
            let out = lr()
                .args(["generate", family, size])
                .output()
                .expect("binary runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{family} {size}: {stderr}");
            assert_eq!(
                stderr.trim_end(),
                format!("error: size must be at least 2, got \"{size}\""),
                "{family} {size}"
            );
        }
        let (instance, stderr, ok) = run_with_stdin(&["generate", family, "2"], "");
        assert!(ok, "{family} 2: {stderr}");
        assert!(instance.starts_with("dest 0"), "{family} 2: {instance}");
    }
    let (instance, stderr, ok) = run_with_stdin(&["generate", "star", "1"], "");
    assert!(ok, "star 1: {stderr}");
    assert!(instance.starts_with("dest 0"), "{instance}");
    let out = lr().args(["generate", "star", "0"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("size must be at least 1"));
}

/// Sizes past the CSR's u32 slot capacity are an immediate error naming
/// the family and size — the same check a scenario spec's topology gets —
/// instead of a build that runs until it is killed.
#[test]
fn generate_rejects_sizes_over_the_slot_capacity() {
    for (args, described) in [
        (
            ["generate", "chain-away", "18446744073709551615"],
            "chain-away(n=18446744073709551615)",
        ),
        (
            ["generate", "random", "5000000000"],
            "random(n=5000000000,extra=5000000000,seed=0)",
        ),
        (["generate", "complete", "100000"], "complete(n=100000)"),
    ] {
        let out = lr().args(args).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}");
        assert!(
            stderr.starts_with(&format!("error: {described} is too large: ")),
            "{args:?}: {stderr}"
        );
        assert!(stderr.contains("slot-index capacity"), "{args:?}: {stderr}");
    }
}

/// Satellite contract of the shared numeric-flag parser, end-to-end:
/// every rejection names the flag and echoes the offending value as the
/// user typed it, and `--threads 0` is an explicit error — not a
/// zero-worker hang.
#[test]
fn numeric_flag_errors_name_the_flag_and_echo_the_value() {
    let (_, stderr, ok) = run_with_stdin(&["modelcheck", "3", "--threads", "abc"], "");
    assert!(!ok, "non-numeric --threads must fail");
    assert!(
        stderr.contains("--threads needs a positive integer"),
        "{stderr}"
    );
    assert!(stderr.contains("\"abc\""), "value echoed: {stderr}");
    let (_, stderr, ok) = run_with_stdin(&["modelcheck", "3", "--threads", "0"], "");
    assert!(!ok, "--threads 0 must be rejected, not hang");
    assert!(stderr.contains("--threads must be at least 1"), "{stderr}");
    assert!(stderr.contains("\"0\""), "value echoed: {stderr}");
}

/// Writes a small serve spec next to the other temp fixtures; the
/// examples directory is off limits here because every JSON in it is
/// auto-run by the scenario smoke test above.
fn write_serve_spec(tag: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("lr_bin_serve_{tag}_{}.json", std::process::id()));
    std::fs::write(
        &path,
        r#"{
            "name": "bin-serve",
            "topology": {"family": "grid", "rows": 5, "cols": 5},
            "seeds": [23]
        }"#,
    )
    .unwrap();
    path
}

/// `lr serve` end-to-end: for a fixed seed the full stdout is
/// byte-identical across runs and across `--threads {1, 2, 4}` — the
/// acceptance contract of the resident service mode.
#[test]
fn serve_is_byte_identical_across_runs_and_thread_counts() {
    let spec = write_serve_spec("det");
    let spec_s = spec.to_str().unwrap();
    let args = |threads: &'static str| {
        vec![
            "serve",
            spec_s,
            "--rate",
            "8",
            "--duration",
            "30",
            "--threads",
            threads,
        ]
    };
    let (base, stderr, ok) = run_with_stdin(&args("1"), "");
    assert!(ok, "serve failed: {stderr}");
    assert!(base.contains("serve bin-serve:"), "{base}");
    assert!(base.contains("latency (ticks): p50"), "{base}");
    let (again, _, ok) = run_with_stdin(&args("1"), "");
    assert!(ok);
    assert_eq!(base, again, "same seed, same bytes");
    for threads in ["2", "4"] {
        let (par, stderr, ok) = run_with_stdin(&args(threads), "");
        assert!(ok, "serve --threads {threads} failed: {stderr}");
        assert_eq!(base, par, "--threads {threads} changed the output");
    }
    let _ = std::fs::remove_file(&spec);
}

/// The CI serve-smoke pipeline end-to-end: a feed-driven run with
/// `--obs chrome` exports a trace that `lr obs validate` accepts.
#[test]
fn serve_smoke_with_chrome_trace_round_trips_through_validate() {
    let spec = write_serve_spec("obs");
    let spec_s = spec.to_str().unwrap();
    let trace =
        std::env::temp_dir().join(format!("lr_bin_serve_trace_{}.json", std::process::id()));
    let trace_s = trace.to_str().unwrap();
    let feed = "{\"at\": 3, \"fail\": [0, 1]}\n{\"at\": 9, \"heal\": [0, 1]}\n{\"at\": 12, \"route\": 7}\n";
    let (out, stderr, ok) = run_with_stdin(
        &[
            "serve",
            spec_s,
            "--rate",
            "5",
            "--duration",
            "20",
            "--feed",
            "-",
            "--obs",
            "chrome",
            "--obs-out",
            trace_s,
        ],
        feed,
    );
    assert!(ok, "serve smoke failed: {stderr}");
    assert!(out.contains("feed 1"), "feed route offered: {out}");
    assert!(out.contains("churn events applied 2"), "{out}");
    assert!(out.contains("chrome trace"), "{out}");
    let (validated, stderr, ok) = run_with_stdin(&["obs", "validate", trace_s], "");
    assert!(ok, "validate failed: {stderr}");
    assert!(validated.contains(": OK"), "{validated}");
    let text = std::fs::read_to_string(&trace).unwrap();
    assert!(text.contains("serve.batch"), "{text}");
    assert!(text.contains("serve.settle"), "{text}");
    let _ = std::fs::remove_file(&trace);
    let _ = std::fs::remove_file(&spec);
}

/// `lr modelcheck` end-to-end: the full n = 3 battery verifies through a
/// real process at 2 outer threads.
#[test]
fn modelcheck_battery_verifies_through_the_binary() {
    let (stdout, stderr, ok) = run_with_stdin(&["modelcheck", "3", "--threads", "2"], "");
    assert!(ok, "modelcheck failed: {stderr}");
    assert!(stdout.contains("n = 3"), "{stdout}");
    assert!(stdout.contains("2 thread(s)"), "{stdout}");
    assert!(!stdout.contains(" NO"), "{stdout}");
}
