//! The `lr` command-line interface: generate instances, run algorithms,
//! trace executions, and verify invariants from the shell.
//!
//! The logic lives here (testable: arguments and a stdin reader → output
//! string); `src/bin/lr.rs` is a thin wrapper doing I/O.
//!
//! ```text
//! lr generate chain-away 8            # print an instance in text format
//! lr run PR < instance.txt            # run to termination, print stats
//! lr trace NewPR < instance.txt       # step-by-step trace
//! lr check < instance.txt             # invariants along executions
//! lr dot < instance.txt               # Graphviz of the initial DAG
//! lr scenario validate spec.json      # check a scenario spec
//! lr scenario run spec.json           # run a scenario sweep
//! ```

use std::fmt::Write as _;
use std::io::Read;

use lr_core::alg::FrontierFamily;
use lr_core::engine::{run_engine_frontier, SchedulePolicy, DEFAULT_MAX_STEPS};
use lr_core::invariants::{
    check_acyclic, check_cor_3_3, check_cor_3_4, check_inv_3_1, check_inv_3_2, check_inv_4_1,
    check_inv_4_2,
};
use lr_core::trace::Trace;
use lr_graph::{dot, parse, GraphError, ReversalInstance};
use lr_obs::{ObsMode, ObsSession};

/// A CLI-level error: message for the user, non-zero exit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// The one fallible parse every numeric flag goes through: failures
/// name the flag and echo the offending value, and values below `min`
/// are rejected explicitly — `--threads 0` is an error here, not a
/// zero-worker hang later.
fn parse_flag_u64(flag: &str, value: &str, min: u64) -> Result<u64, CliError> {
    let n: u64 = value
        .parse()
        .map_err(|_| err(format!("{flag} needs a positive integer, got {value:?}")))?;
    if n < min {
        return Err(err(format!("{flag} must be at least {min}, got {value:?}")));
    }
    Ok(n)
}

/// [`parse_flag_u64`] for `usize`-typed flags (thread counts, sizes).
fn parse_flag_usize(flag: &str, value: &str, min: usize) -> Result<usize, CliError> {
    parse_flag_u64(flag, value, min as u64).map(|n| n as usize)
}

/// Usage text.
pub const USAGE: &str = "\
lr — link reversal toolbox (Radeva & Lynch, PODC 2011 reproduction)

USAGE:
    lr generate <family> <n> [seed]   print an instance (families: chain-away,
                                      chain-toward, alternating, star, grid,
                                      complete, random)
    lr run <alg> [policy]             run on the instance from stdin
                                      (algs: FR, PR, NewPR, GB-pair, GB-triple,
                                       BLL[PR];
                                       policies: greedy, first, last, random:<seed>)
    lr trace <alg> [policy]           step-by-step trace of the run
    lr check                          verify the paper's invariants along
                                      PR and NewPR executions on the instance
    lr dot                            Graphviz DOT of the initial orientation
    lr scenario validate <spec>...    parse + validate scenario spec files
    lr scenario run <spec>...         run scenario sweeps (--smoke: first
                                      seed/trial only)
    lr scenario sweep <spec>...       expand the spec's matrix grid and run
                                      every point x seeds x trials cell
                                      (--threads N: parallel workers, merged
                                      rows bit-identical at any N; --smoke)
    lr modelcheck <n>                 exhaustively model-check the paper's
                                      theorems on every instance of size n
                                      (--threads N: instance fan-out, summaries
                                      bit-identical at any N, default 1;
                                      --checks a,b,..: subset by key)
    lr serve <spec>                   resident service mode: settle the spec's
                                      instance once, keep it live, and serve an
                                      open-loop request stream against it
                                      (--rate R: generated route queries per
                                      tick, default 10; --duration T: served
                                      ticks, default 100; --threads N: probe
                                      workers, output bit-identical at any N;
                                      --batch B / --queue Q: admission batch
                                      cap and bounded queue size — overflow is
                                      a counted drop, never a panic; --seed S:
                                      override the spec's first seed;
                                      --feed <path|->: newline-JSON events
                                      {\"at\":T, route|fail|heal|crash|restore|
                                      crash_leader: ...}, `-` reads stdin)
    lr obs validate <trace>...        check files are valid Chrome trace_events
                                      JSON (the CI gate over exported traces)

OBSERVABILITY (run | scenario | modelcheck | serve):
    --obs <off|summary|json|chrome>   record the command with lr-obs (default
                                      off — a single relaxed atomic load on the
                                      hot path): summary appends a span/counter
                                      table, json emits newline-delimited event
                                      records, chrome exports a trace_events
                                      document for chrome://tracing
    --obs-out <path>                  write the json/chrome (and summary) sink
                                      to a file instead of stdout
";

fn parse_alg(s: &str) -> Result<FrontierFamily, CliError> {
    FrontierFamily::ALL
        .into_iter()
        .find(|f| f.name().eq_ignore_ascii_case(s))
        .ok_or_else(|| {
            let names: Vec<&str> = FrontierFamily::ALL.iter().map(|f| f.name()).collect();
            err(format!(
                "unknown algorithm {s:?}; expected one of {}",
                names.join(", ")
            ))
        })
}

fn parse_policy(s: Option<&str>) -> Result<SchedulePolicy, CliError> {
    match s {
        None | Some("greedy") => Ok(SchedulePolicy::GreedyRounds),
        Some("first") => Ok(SchedulePolicy::FirstSingle),
        Some("last") => Ok(SchedulePolicy::LastSingle),
        Some(other) => match other.strip_prefix("random:") {
            Some(seed) => seed
                .parse()
                .map(|seed| SchedulePolicy::RandomSingle { seed })
                .map_err(|_| err(format!("invalid seed in {other:?}"))),
            None => Err(err(format!(
                "unknown policy {other:?}; expected greedy, first, last, or random:<seed>"
            ))),
        },
    }
}

/// Reads all of stdin under a `cli.read` span. Only the commands that
/// consume stdin call it, so `generate` and friends never block on it.
/// Run, trace, check and dot read it before checking their arguments,
/// so a process piping in an instance never meets a closed pipe.
fn read_stdin(stdin: &mut dyn Read) -> Result<String, CliError> {
    let _span = lr_obs::span("cli", "cli.read");
    let mut text = String::new();
    stdin
        .read_to_string(&mut text)
        .map_err(|e| err(format!("could not read stdin: {e}")))?;
    Ok(text)
}

fn parse_stdin_instance(input: &str) -> Result<ReversalInstance, CliError> {
    parse::parse_instance(input).map_err(invalid_instance)
}

fn invalid_instance(e: GraphError) -> CliError {
    err(format!("invalid instance: {e}"))
}

/// The `<alg> [policy]` arguments of `cmd` (run or trace): the family,
/// the policy (greedy when absent), and nothing past them.
fn parse_alg_and_policy(
    cmd: &str,
    args: &[&str],
) -> Result<(FrontierFamily, SchedulePolicy), CliError> {
    let (alg, rest) = args
        .split_first()
        .ok_or_else(|| err(format!("{cmd} needs an algorithm\n\n{USAGE}")))?;
    let family = parse_alg(alg)?;
    let policy = parse_policy(rest.first().copied())?;
    no_more_arguments(rest.get(1..).unwrap_or_default())?;
    Ok((family, policy))
}

/// The error for arguments past the ones a command takes.
fn no_more_arguments(rest: &[&str]) -> Result<(), CliError> {
    match rest.first() {
        Some(extra) => Err(err(format!("unexpected argument {extra:?}"))),
        None => Ok(()),
    }
}

/// Runs one CLI invocation: `args` excludes the program name; `stdin` is
/// the piped input. It is read only by the commands that consume it —
/// run, trace, check, dot, and serve with `--feed -` — under a
/// `cli.read` span, inside the `--obs` session of run and serve.
///
/// # Errors
///
/// Returns a user-facing message for bad arguments, invalid input, or a
/// failed read of `stdin`.
pub fn run_cli(args: &[&str], mut stdin: impl Read) -> Result<String, CliError> {
    let stdin: &mut dyn Read = &mut stdin;
    match args {
        [] | ["help"] | ["--help"] | ["-h"] => Ok(USAGE.to_string()),
        ["generate", rest @ ..] => cmd_generate(rest),
        ["run" | "scenario" | "modelcheck" | "serve", ..] => {
            // The obs-aware commands: `--obs`/`--obs-out` are stripped
            // here, before the per-command parsers see the arguments.
            let (mode, obs_out, inner) = parse_obs_flags(args)?;
            run_with_obs(&inner, stdin, mode, obs_out.as_deref())
        }
        ["trace", rest @ ..] => cmd_trace(rest, stdin),
        ["check", rest @ ..] => cmd_check(rest, stdin),
        ["dot", rest @ ..] => cmd_dot(rest, stdin),
        ["obs", rest @ ..] => cmd_obs(rest),
        [other, ..] => Err(err(format!("unknown command {other:?}\n\n{USAGE}"))),
    }
}

/// Strips `--obs <mode>` / `--obs=<mode>` and `--obs-out <path>` /
/// `--obs-out=<path>` from `args`, returning the mode, the sink path,
/// and the remaining arguments in order.
fn parse_obs_flags<'a>(
    args: &[&'a str],
) -> Result<(ObsMode, Option<String>, Vec<&'a str>), CliError> {
    let parse_mode = |v: &str| {
        ObsMode::parse(v).ok_or_else(|| {
            err(format!(
                "unknown --obs mode {v:?}; expected off, summary, json, or chrome"
            ))
        })
    };
    let mut mode = ObsMode::Off;
    let mut obs_out: Option<String> = None;
    let mut inner: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(&a) = it.next() {
        match a {
            "--obs" => {
                let v = it
                    .next()
                    .ok_or_else(|| err("--obs needs a value (off, summary, json, or chrome)"))?;
                mode = parse_mode(v)?;
            }
            "--obs-out" => {
                let v = it
                    .next()
                    .ok_or_else(|| err("--obs-out needs a file path"))?;
                obs_out = Some((*v).to_string());
            }
            _ => {
                if let Some(v) = a.strip_prefix("--obs=") {
                    mode = parse_mode(v)?;
                } else if let Some(v) = a.strip_prefix("--obs-out=") {
                    obs_out = Some(v.to_string());
                } else {
                    inner.push(a);
                }
            }
        }
    }
    Ok((mode, obs_out, inner))
}

/// Runs an obs-aware command, recording it under `mode` and rendering
/// the session's report through the selected sink: `summary` appends a
/// human table to the command's output (and to `--obs-out` when given),
/// `json`/`chrome` write to `--obs-out` (or append to the output when
/// no path is given). Chrome documents are validated before they are
/// written — `lr obs validate` can never fail on a file this produced.
fn run_with_obs(
    args: &[&str],
    stdin: &mut dyn Read,
    mode: ObsMode,
    obs_out: Option<&str>,
) -> Result<String, CliError> {
    fn dispatch(args: &[&str], stdin: &mut dyn Read) -> Result<String, CliError> {
        match args {
            ["run", rest @ ..] => cmd_run(rest, stdin),
            ["scenario", rest @ ..] => cmd_scenario(rest),
            ["modelcheck", rest @ ..] => cmd_modelcheck(rest),
            ["serve", rest @ ..] => cmd_serve(rest, stdin),
            _ => Err(err(format!("unknown command\n\n{USAGE}"))),
        }
    }
    if mode == ObsMode::Off {
        if obs_out.is_some() {
            return Err(err("--obs-out needs --obs summary, json, or chrome"));
        }
        return dispatch(args, stdin);
    }
    let session = ObsSession::start(mode);
    let result = dispatch(args, stdin);
    // Finish unconditionally so a failed command still lowers the
    // recording level before the error propagates.
    let report = session.finish();
    let mut out = result?;
    let write_sink = |path: &str, text: &str| -> Result<(), CliError> {
        std::fs::write(path, text).map_err(|e| err(format!("cannot write {path}: {e}")))
    };
    match mode {
        ObsMode::Summary => {
            let text = report.render_summary();
            if let Some(path) = obs_out {
                write_sink(path, &text)?;
            }
            out.push('\n');
            out.push_str(&text);
        }
        ObsMode::Json => {
            let text = report.render_json_lines();
            match obs_out {
                Some(path) => {
                    write_sink(path, &text)?;
                    let _ = writeln!(
                        out,
                        "\nobs: {} metric(s), {} event(s) written to {path}",
                        report.metric_count(),
                        report.events.len()
                    );
                }
                None => {
                    out.push('\n');
                    out.push_str(&text);
                }
            }
        }
        ObsMode::Chrome => {
            let text = report.render_chrome_trace();
            let events = lr_obs::validate_chrome_trace(&text)
                .map_err(|e| err(format!("internal error: emitted chrome trace invalid: {e}")))?;
            match obs_out {
                Some(path) => {
                    write_sink(path, &text)?;
                    let _ = writeln!(
                        out,
                        "\nobs: chrome trace with {events} event(s) written to {path} \
                         (load in chrome://tracing or ui.perfetto.dev)"
                    );
                }
                None => {
                    out.push('\n');
                    out.push_str(&text);
                }
            }
        }
        ObsMode::Off => unreachable!("handled above"),
    }
    Ok(out)
}

/// `lr obs validate <trace.json>`: the CI gate over exported Chrome
/// traces.
fn cmd_obs(args: &[&str]) -> Result<String, CliError> {
    match args {
        ["validate", paths @ ..] if !paths.is_empty() => {
            let mut out = String::new();
            for path in paths {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| err(format!("cannot read {path}: {e}")))?;
                let events = lr_obs::validate_chrome_trace(&text)
                    .map_err(|e| err(format!("{path}: invalid Chrome trace: {e}")))?;
                let _ = writeln!(
                    out,
                    "{path}: OK — valid Chrome trace_events JSON with {events} event(s)"
                );
            }
            Ok(out)
        }
        _ => Err(err(format!(
            "obs needs `validate <trace.json>...`\n\n{USAGE}"
        ))),
    }
}

fn cmd_generate(args: &[&str]) -> Result<String, CliError> {
    use lr_scenario::spec::TopologySpec;

    let (family, rest) = args
        .split_first()
        .ok_or_else(|| err(format!("generate needs a family\n\n{USAGE}")))?;
    // Every family but the star needs two nodes (a grid of side 1 has
    // one); the generators assert it.
    let size = |min: usize| -> Result<usize, CliError> {
        let value = rest.first().ok_or_else(|| err("missing size argument"))?;
        parse_flag_usize("size", value, min)
    };
    let seed = rest
        .get(1)
        .map_or(Ok(0u64), |s| parse_flag_u64("seed", s, 0))?;
    no_more_arguments(rest.get(2..).unwrap_or_default())?;
    let spec = match *family {
        "chain-away" => TopologySpec::ChainAway { n: size(2)? },
        "chain-toward" => TopologySpec::ChainToward { n: size(2)? },
        "alternating" => TopologySpec::Alternating { n: size(2)? },
        "star" => TopologySpec::Star { leaves: size(1)? },
        "grid" => {
            let n = size(2)?;
            TopologySpec::Grid { rows: n, cols: n }
        }
        "complete" => TopologySpec::Complete { n: size(2)? },
        "random" => {
            let n = size(2)?;
            TopologySpec::Random {
                n,
                extra_edges: n,
                seed: Some(seed),
            }
        }
        other => return Err(err(format!("unknown family {other:?}"))),
    };
    // The scenario parser's slot-capacity check: an oversize family is an
    // error here instead of a build that runs until it is killed.
    spec.check_capacity().map_err(err)?;
    let inst =
        lr_scenario::topology::build_instance(&spec, seed).map_err(|e| err(e.to_string()))?;
    Ok(parse::to_text(&inst))
}

fn cmd_run(args: &[&str], stdin: &mut dyn Read) -> Result<String, CliError> {
    let text = read_stdin(stdin)?;
    if let Some(flag) = args.iter().find(|a| a.starts_with("--")) {
        return Err(err(format!("unknown flag {flag:?} for `lr run`")));
    }
    let (family, policy) = parse_alg_and_policy("run", args)?;
    let span = lr_obs::span("cli", "cli.parse");
    let lines = parse::read_lines(&text);
    drop((span, text));
    let span = lr_obs::span("cli", "cli.validate");
    let inst = lines.build().map_err(invalid_instance)?;
    drop(span);
    let span = lr_obs::span("cli", "cli.build");
    let (nodes, dest) = (inst.node_count(), inst.dest);
    let initial_bad = inst.initial_bad_nodes();
    let mut engine = family.engine(inst);
    drop(span);
    let stats = run_engine_frontier(engine.as_mut(), policy, DEFAULT_MAX_STEPS);
    if !stats.terminated {
        return Err(err(format!(
            "{} did not terminate within the {}-step budget: it ran {} rounds",
            stats.algorithm,
            grouped(DEFAULT_MAX_STEPS),
            stats.rounds
        )));
    }
    let span = lr_obs::span("cli", "cli.check");
    let orientation = engine.orientation();
    let (acyclic, dest_oriented) = (
        orientation.is_acyclic(),
        orientation.is_destination_oriented(dest),
    );
    drop(span);
    let mut out = String::new();
    let _ = writeln!(out, "algorithm:        {}", stats.algorithm);
    let _ = writeln!(out, "nodes:            {nodes}");
    let _ = writeln!(out, "initial bad:      {initial_bad}");
    let _ = writeln!(out, "steps:            {}", stats.steps);
    let _ = writeln!(out, "total reversals:  {}", stats.total_reversals);
    let _ = writeln!(out, "rounds:           {}", stats.rounds);
    let _ = writeln!(out, "dummy steps:      {}", stats.dummy_steps);
    let _ = writeln!(out, "acyclic:          {acyclic}");
    let _ = writeln!(out, "dest oriented:    {dest_oriented}");
    Ok(out)
}

/// `n` with its digits grouped in threes: `50,000,000`.
fn grouped(n: usize) -> String {
    let digits = n.to_string();
    let mut out = String::new();
    for (k, c) in digits.chars().enumerate() {
        if k > 0 && (digits.len() - k).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

fn cmd_trace(args: &[&str], stdin: &mut dyn Read) -> Result<String, CliError> {
    let text = read_stdin(stdin)?;
    let (family, policy) = parse_alg_and_policy("trace", args)?;
    let inst = parse_stdin_instance(&text)?;
    let trace = Trace::record(&inst, family, policy, DEFAULT_MAX_STEPS);
    trace
        .validate()
        .map_err(|e| err(format!("internal trace inconsistency: {e}")))?;
    Ok(trace.render_text())
}

fn cmd_check(args: &[&str], stdin: &mut dyn Read) -> Result<String, CliError> {
    use lr_core::alg::{newpr_step, onestep_pr_step, NewPrState, PrState};

    let text = read_stdin(stdin)?;
    no_more_arguments(args)?;
    let inst = parse_stdin_instance(&text)?;
    let mut out = String::new();
    let mut states = 0usize;

    // OneStepPR execution, checking §3 invariants at every state.
    let mut pr = PrState::initial(&inst);
    loop {
        check_inv_3_1(&pr.dirs).map_err(err)?;
        check_inv_3_2(&inst, &pr).map_err(err)?;
        check_cor_3_3(&inst, &pr).map_err(err)?;
        check_cor_3_4(&inst, &pr).map_err(err)?;
        check_acyclic(&pr.dirs).map_err(err)?;
        states += 1;
        let Some(u) = pr.dirs.sinks().find(|&u| u != inst.dest) else {
            break;
        };
        onestep_pr_step(&inst, &mut pr, u);
    }
    let _ = writeln!(
        out,
        "OneStepPR: Inv 3.1, 3.2, Cor 3.3/3.4, acyclicity OK in {states} states"
    );

    // NewPR execution, checking §4 invariants at every state.
    let mut np = NewPrState::initial(&inst);
    let mut states = 0usize;
    loop {
        check_inv_3_1(&np.dirs).map_err(err)?;
        check_inv_4_1(&inst, &np).map_err(err)?;
        check_inv_4_2(&inst, &np).map_err(err)?;
        check_acyclic(&np.dirs).map_err(err)?;
        states += 1;
        let Some(u) = np.dirs.sinks().find(|&u| u != inst.dest) else {
            break;
        };
        newpr_step(&inst, &mut np, u);
    }
    let _ = writeln!(
        out,
        "NewPR:     Inv 3.1, 4.1, 4.2, Thm 4.3 acyclicity OK in {states} states"
    );
    let _ = writeln!(out, "all checks passed");
    Ok(out)
}

/// Parsed flags of a `lr scenario <sub>` invocation.
struct ScenarioFlags {
    smoke: bool,
    threads: usize,
    paths: Vec<String>,
}

/// Parses scenario flags against the subcommand's allowlist.
/// `--threads` (sweep only) takes a value, either as the next argument
/// or as `--threads=N`.
fn parse_scenario_flags(
    sub: &str,
    rest: &[&str],
    allowed: &[&str],
) -> Result<ScenarioFlags, CliError> {
    let mut flags = ScenarioFlags {
        smoke: false,
        threads: 1,
        paths: Vec::new(),
    };
    let reject = |flag: &str| -> Result<(), CliError> {
        if allowed.contains(&flag) {
            Ok(())
        } else {
            Err(err(format!(
                "unknown flag {flag:?} for `lr scenario {sub}`"
            )))
        }
    };
    let parse_threads = |value: &str| parse_flag_usize("--threads", value, 1);
    let mut it = rest.iter();
    while let Some(&arg) = it.next() {
        match arg {
            "--smoke" => {
                reject("--smoke")?;
                flags.smoke = true;
            }
            "--threads" => {
                reject("--threads")?;
                let value = it
                    .next()
                    .ok_or_else(|| err("--threads needs a value (worker thread count)"))?;
                flags.threads = parse_threads(value)?;
            }
            a => {
                if let Some(value) = a.strip_prefix("--threads=") {
                    if !allowed.contains(&"--threads") {
                        // Echo the flag as the user typed it, = and all.
                        return Err(err(format!("unknown flag {a:?} for `lr scenario {sub}`")));
                    }
                    flags.threads = parse_threads(value)?;
                } else if a.starts_with("--") {
                    reject(a)?;
                } else {
                    flags.paths.push(a.to_string());
                }
            }
        }
    }
    if flags.paths.is_empty() {
        return Err(err(format!("scenario {sub} needs at least one spec file")));
    }
    Ok(flags)
}

fn cmd_scenario(args: &[&str]) -> Result<String, CliError> {
    use lr_scenario::spec::ScenarioSpec;
    use lr_scenario::sweep::{
        render_matrix_table, render_table, run_matrix_sweep, run_sweep, MatrixOptions, SweepOptions,
    };

    let (sub, rest) = args.split_first().ok_or_else(|| {
        err(format!(
            "scenario needs a subcommand (run | sweep | validate)\n\n{USAGE}"
        ))
    })?;
    let allowed_flags: &[&str] = match *sub {
        "run" => &["--smoke"],
        "sweep" => &["--smoke", "--threads"],
        "validate" => &[],
        other => {
            return Err(err(format!(
                "unknown scenario subcommand {other:?} (expected run, sweep, or validate)"
            )))
        }
    };
    let flags = parse_scenario_flags(sub, rest, allowed_flags)?;
    let paths: Vec<&str> = flags.paths.iter().map(String::as_str).collect();
    // `validate` cross-checks the topology here; `run` leaves that to
    // run_scenario, which validates each (seed, trial) instance anyway
    // — doing both would build every topology twice.
    let load = |path: &str, cross_validate: bool| -> Result<ScenarioSpec, CliError> {
        let text =
            std::fs::read_to_string(path).map_err(|e| err(format!("cannot read {path}: {e}")))?;
        let spec = ScenarioSpec::from_json(&text).map_err(|e| err(format!("{path}: {e}")))?;
        if cross_validate {
            spec.validate().map_err(|e| err(format!("{path}: {e}")))?;
        }
        Ok(spec)
    };
    let mut out = String::new();
    match *sub {
        "validate" => {
            for path in &paths {
                let spec = load(path, true)?;
                let matrix_note = match &spec.matrix {
                    Some(m) => format!(", matrix of {} point(s)", m.point_count()),
                    None => String::new(),
                };
                let _ = writeln!(
                    out,
                    "{path}: OK — scenario {:?} ({} on {}, {} churn event(s), {} seed(s) × {} \
                     trial(s){matrix_note})",
                    spec.name,
                    spec.protocol.name(),
                    spec.topology.family_name(),
                    spec.churn.len(),
                    spec.seeds.len(),
                    spec.trials,
                );
            }
        }
        "run" => {
            let options = SweepOptions { smoke: flags.smoke };
            for path in &paths {
                let spec = load(path, false)?;
                if spec.matrix.is_some() {
                    return Err(err(format!(
                        "{path}: spec declares a matrix; use `lr scenario sweep`"
                    )));
                }
                let outcome = run_sweep(&spec, options).map_err(|e| err(format!("{path}: {e}")))?;
                let _ = writeln!(out, "scenario {:?} ({path})", spec.name);
                out.push_str(&render_table(&outcome.records));
                out.push('\n');
            }
        }
        "sweep" => {
            let options = MatrixOptions {
                threads: flags.threads,
                smoke: flags.smoke,
            };
            for path in &paths {
                let spec = load(path, false)?;
                let outcome =
                    run_matrix_sweep(&spec, options).map_err(|e| err(format!("{path}: {e}")))?;
                let _ = writeln!(
                    out,
                    "sweep {:?} ({path}): matrix expanded to {} point(s) = {} cell(s), \
                     {} thread(s)",
                    spec.name,
                    outcome.points.len(),
                    outcome.cells,
                    flags.threads,
                );
                out.push_str(&render_matrix_table(&outcome.records));
                out.push('\n');
            }
        }
        _ => unreachable!("subcommand checked above"),
    }
    Ok(out)
}

/// `lr serve <spec>`: the resident service mode. Loads a scenario spec
/// (no matrix, churn or traffic section), settles its instance, and
/// serves the open-loop workload — seeded generator plus optional
/// `--feed` newline-JSON events (`-` reads stdin).
fn cmd_serve(args: &[&str], stdin: &mut dyn Read) -> Result<String, CliError> {
    use lr_scenario::serve::{parse_feed, run_serve, ServeOptions};
    use lr_scenario::spec::ScenarioSpec;

    let mut options = ServeOptions::default();
    let mut feed_arg: Option<String> = None;
    let mut path: Option<&str> = None;
    let mut it = args.iter();
    while let Some(&arg) = it.next() {
        // Valued flags, `--flag value` or `--flag=value`.
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) if f.starts_with("--") => (f, Some(v)),
            _ => (arg, None),
        };
        let mut value = |what: &str| -> Result<&str, CliError> {
            match inline {
                Some(v) => Ok(v),
                None => it
                    .next()
                    .copied()
                    .ok_or_else(|| err(format!("{flag} needs a value ({what})"))),
            }
        };
        match flag {
            "--rate" => {
                options.rate = parse_flag_u64("--rate", value("requests per tick")?, 0)?;
            }
            "--duration" => {
                options.duration = parse_flag_u64("--duration", value("served ticks")?, 1)?;
            }
            "--threads" => {
                options.threads = parse_flag_usize("--threads", value("worker thread count")?, 1)?;
            }
            "--batch" => {
                options.batch = parse_flag_usize("--batch", value("admission batch cap")?, 1)?;
            }
            "--queue" => {
                options.queue = parse_flag_usize("--queue", value("bounded queue capacity")?, 1)?;
            }
            "--seed" => {
                options.seed = Some(parse_flag_u64("--seed", value("base seed")?, 0)?);
            }
            "--feed" => {
                feed_arg = Some(value("newline-JSON events path, or - for stdin")?.to_string());
            }
            other if other.starts_with("--") => {
                return Err(err(format!("unknown flag {arg:?} for `lr serve`")));
            }
            _ if path.is_some() => {
                return Err(err(format!("unexpected argument {arg:?}")));
            }
            _ => path = Some(arg),
        }
    }
    // A piped feed is read before the spec can fail, as a piped instance
    // is read before its command's arguments are checked.
    let piped = match feed_arg.as_deref() {
        Some("-") => Some(read_stdin(stdin)?),
        _ => None,
    };
    let path = path.ok_or_else(|| err(format!("serve needs a scenario spec file\n\n{USAGE}")))?;
    let text =
        std::fs::read_to_string(path).map_err(|e| err(format!("cannot read {path}: {e}")))?;
    let spec = ScenarioSpec::from_json(&text).map_err(|e| err(format!("{path}: {e}")))?;
    let feed = match (feed_arg.as_deref(), piped) {
        (None, _) => Vec::new(),
        (Some(_), Some(t)) => parse_feed(&t).map_err(|e| err(format!("--feed -: {e}")))?,
        (Some(p), None) => {
            let t = std::fs::read_to_string(p).map_err(|e| err(format!("cannot read {p}: {e}")))?;
            parse_feed(&t).map_err(|e| err(format!("{p}: {e}")))?
        }
    };
    let report = run_serve(&spec, &options, &feed).map_err(|e| err(format!("{path}: {e}")))?;
    Ok(report.render())
}

fn cmd_modelcheck(args: &[&str]) -> Result<String, CliError> {
    use lr_simrel::model_check::{parse_size, run_battery, CheckKind, McOptions};

    let mut n: Option<usize> = None;
    let mut threads = 1;
    let mut checks: Vec<CheckKind> = CheckKind::ALL.to_vec();
    let parse_threads = |value: &str| parse_flag_usize("--threads", value, 1);
    let parse_checks = |value: &str| -> Result<Vec<CheckKind>, CliError> {
        let kinds: Vec<CheckKind> = value
            .split(',')
            .filter(|s| !s.is_empty())
            .map(|key| {
                CheckKind::from_key(key).ok_or_else(|| {
                    let known: Vec<&str> = CheckKind::ALL.iter().map(|k| k.key()).collect();
                    err(format!(
                        "unknown check {key:?}; expected a comma list of {}",
                        known.join(", ")
                    ))
                })
            })
            .collect::<Result<_, _>>()?;
        if kinds.is_empty() {
            return Err(err("--checks needs at least one check key"));
        }
        Ok(kinds)
    };
    let mut it = args.iter();
    while let Some(&arg) = it.next() {
        match arg {
            "--threads" => {
                let value = it
                    .next()
                    .ok_or_else(|| err("--threads needs a value (worker thread count)"))?;
                threads = parse_threads(value)?;
            }
            "--checks" => {
                let value = it
                    .next()
                    .ok_or_else(|| err("--checks needs a comma-separated list of check keys"))?;
                checks = parse_checks(value)?;
            }
            a => {
                if let Some(value) = a.strip_prefix("--threads=") {
                    threads = parse_threads(value)?;
                } else if let Some(value) = a.strip_prefix("--checks=") {
                    checks = parse_checks(value)?;
                } else if a.starts_with("--") {
                    return Err(err(format!("unknown flag {a:?} for `lr modelcheck`")));
                } else if n.is_some() {
                    return Err(err(format!("unexpected argument {a:?}")));
                } else {
                    n = Some(parse_size(a).map_err(err)?);
                }
            }
        }
    }
    let n = n.ok_or_else(|| err(format!("modelcheck needs a size argument\n\n{USAGE}")))?;
    let opts = McOptions::default().with_threads(threads);

    let battery = run_battery(n, &checks, &opts);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "model check: every connected graph × acyclic orientation × destination at n = {n} \
         ({} thread(s))",
        opts.threads
    );
    let _ = writeln!(out);
    let widths = [28usize, 10, 12, 12, 10, 9];
    let header = [
        "check",
        "instances",
        "states",
        "transitions",
        "ms",
        "verified",
    ];
    let mut line = String::new();
    for (w, c) in widths.iter().zip(header) {
        let _ = write!(line, "{c:>w$} ", w = w);
    }
    let _ = writeln!(out, "{}", line.trim_end());
    let _ = writeln!(
        out,
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + widths.len())
    );
    for row in &battery {
        let mut line = String::new();
        let cells = [
            row.kind.title().to_string(),
            row.summary.instances.to_string(),
            row.summary.states_visited.to_string(),
            row.summary.transitions.to_string(),
            format!("{:.1}", row.elapsed_ns as f64 / 1e6),
            if row.summary.verified() { "yes" } else { "NO" }.to_string(),
        ];
        for (w, c) in widths.iter().zip(cells) {
            let _ = write!(line, "{c:>w$} ", w = w);
        }
        let _ = writeln!(out, "{}", line.trim_end());
    }
    let _ = writeln!(out);

    if let Some(bad) = battery.iter().find(|r| !r.summary.verified()) {
        return Err(err(format!(
            "{} did NOT verify at n = {n}: violation={:?} truncated={:?}\n\n{out}",
            bad.kind.key(),
            bad.summary.first_violation,
            bad.summary.truncated
        )));
    }
    Ok(out)
}

fn cmd_dot(args: &[&str], stdin: &mut dyn Read) -> Result<String, CliError> {
    let text = read_stdin(stdin)?;
    no_more_arguments(args)?;
    let inst = parse_stdin_instance(&text)?;
    Ok(dot::to_dot(
        inst.init(),
        &dot::DotOptions {
            destination: Some(inst.dest),
            highlight_sinks: true,
            name: Some("instance".into()),
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn help_is_shown() {
        let out = run_cli(&[], "".as_bytes()).unwrap();
        assert!(out.contains("USAGE"));
        assert_eq!(run_cli(&["help"], "".as_bytes()).unwrap(), out);
    }

    #[test]
    fn unknown_command_errors_with_usage() {
        let e = run_cli(&["frobnicate"], "".as_bytes()).unwrap_err();
        assert!(e.0.contains("unknown command"));
        assert!(e.0.contains("USAGE"));
    }

    /// A stdin whose every read fails.
    struct BrokenStdin;

    impl Read for BrokenStdin {
        fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
            Err(std::io::Error::other("stdin is closed"))
        }
    }

    #[test]
    fn only_the_commands_that_consume_stdin_read_it() {
        for args in [
            &["generate", "grid", "3"][..],
            &["help"],
            &["modelcheck", "3"],
        ] {
            assert!(run_cli(args, BrokenStdin).is_ok(), "{args:?} read stdin");
        }
        for args in [&["run", "PR"][..], &["trace", "PR"], &["check"], &["dot"]] {
            let e = run_cli(args, BrokenStdin).unwrap_err();
            assert_eq!(e.0, "could not read stdin: stdin is closed", "{args:?}");
        }
        // The read comes first, as for any piped instance.
        let e = run_cli(&["run", "nope"], BrokenStdin).unwrap_err();
        assert!(e.0.starts_with("could not read stdin"), "{e}");
        // Serve reads stdin only for `--feed -`.
        let path = serve_spec("stdin");
        let p = path.to_str().unwrap();
        assert!(run_cli(&["serve", p, "--duration", "2"], BrokenStdin).is_ok());
        let e = run_cli(&["serve", p, "--feed", "-"], BrokenStdin).unwrap_err();
        assert!(e.0.starts_with("could not read stdin"), "{e}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn generate_families() {
        for family in [
            "chain-away",
            "chain-toward",
            "alternating",
            "star",
            "complete",
        ] {
            let out = run_cli(&["generate", family, "5"], "".as_bytes()).unwrap();
            assert!(out.starts_with("dest "), "{family}: {out}");
        }
        let grid = run_cli(&["generate", "grid", "3"], "".as_bytes()).unwrap();
        assert!(grid.lines().count() > 5);
        let a = run_cli(&["generate", "random", "8", "7"], "".as_bytes()).unwrap();
        let b = run_cli(&["generate", "random", "8", "7"], "".as_bytes()).unwrap();
        assert_eq!(a, b, "same seed, same instance");
    }

    #[test]
    fn generate_rejects_bad_input() {
        assert!(run_cli(&["generate"], "".as_bytes()).is_err());
        assert!(run_cli(&["generate", "nope", "5"], "".as_bytes()).is_err());
        assert!(run_cli(&["generate", "chain-away"], "".as_bytes()).is_err());
        assert!(run_cli(&["generate", "chain-away", "x"], "".as_bytes()).is_err());
    }

    /// Sizes within the u32 slot index but past the half-edge memory
    /// ceiling are an error naming the family, before anything is built.
    #[test]
    fn generate_and_scenario_reject_sizes_over_the_memory_ceiling() {
        for (args, described, half_edges) in [
            (
                &["generate", "complete", "46000"][..],
                "complete(n=46000)",
                2_115_954_000u64,
            ),
            (
                &["generate", "random", "1000000000", "1"],
                "random(n=1000000000,extra=1000000000,seed=1)",
                3_999_999_998,
            ),
            (
                &["generate", "chain-away", "134217730"],
                "chain-away(n=134217730)",
                268_435_458,
            ),
        ] {
            let e = run_cli(args, "".as_bytes()).unwrap_err();
            assert_eq!(
                e.0,
                format!(
                    "{described} is too large: {half_edges} half-edges exceed the \
                     268,435,456-half-edge memory ceiling"
                ),
                "{args:?}"
            );
        }
        let spec = std::env::temp_dir().join(format!("lr_cli_ceiling_{}.json", std::process::id()));
        std::fs::write(
            &spec,
            r#"{"name": "too-big", "topology": {"family": "star", "leaves": 134217729}}"#,
        )
        .unwrap();
        let spec_s = spec.to_str().unwrap();
        for args in [
            &["scenario", "validate", spec_s][..],
            &["scenario", "run", spec_s],
            &["serve", spec_s],
        ] {
            let e = run_cli(args, "".as_bytes()).unwrap_err();
            assert!(
                e.0.starts_with(&format!(
                    "{spec_s}: topology: star(leaves=134217729) is too large"
                )),
                "{args:?}: {e}"
            );
            assert!(e.0.ends_with("memory ceiling"), "{args:?}: {e}");
        }
        let _ = std::fs::remove_file(&spec);
    }

    #[test]
    fn run_pipes_generate_output() {
        let inst = run_cli(&["generate", "chain-away", "6"], "".as_bytes()).unwrap();
        let out = run_cli(&["run", "PR"], inst.as_bytes()).unwrap();
        assert!(out.contains("total reversals:  5"));
        assert!(out.contains("dest oriented:    true"));
        let out = run_cli(&["run", "FR", "random:9"], inst.as_bytes()).unwrap();
        assert!(out.contains("total reversals:  25"));
    }

    #[test]
    fn run_rejects_unknown_algorithm_and_policy() {
        let inst = run_cli(&["generate", "chain-away", "4"], "".as_bytes()).unwrap();
        assert!(run_cli(&["run", "XYZ"], inst.as_bytes()).is_err());
        assert!(run_cli(&["run", "PR", "bogus"], inst.as_bytes()).is_err());
        assert!(run_cli(&["run", "PR", "random:abc"], inst.as_bytes()).is_err());
    }

    #[test]
    fn run_rejects_bad_engine_and_threads_flags() {
        let inst = run_cli(&["generate", "chain-away", "4"], "".as_bytes()).unwrap();
        // The flat engine is the only substrate: `--engine` is gone.
        for args in [
            &["run", "PR", "--engine", "map"][..],
            &["run", "PR", "--engine=frontier"],
        ] {
            let e = run_cli(args, inst.as_bytes()).unwrap_err();
            assert!(e.0.contains("unknown flag \"--engine"), "{e}");
        }
        // One run loop: `--threads` is gone too, in both spellings.
        for args in [
            &["run", "PR", "--threads", "2"][..],
            &["run", "PR", "--threads=2"],
        ] {
            let e = run_cli(args, inst.as_bytes()).unwrap_err();
            assert_eq!(e.0, format!("unknown flag {:?} for `lr run`", args[2]));
        }
        let e = run_cli(&["run", "PR", "--frob"], inst.as_bytes()).unwrap_err();
        assert!(e.0.contains("unknown flag"), "{e}");
        let e = run_cli(&["run", "PR", "first", "second"], inst.as_bytes()).unwrap_err();
        assert!(e.0.contains("unexpected argument"), "{e}");
    }

    #[test]
    fn budget_numbers_are_grouped_in_threes() {
        for (n, text) in [
            (0, "0"),
            (999, "999"),
            (1_000, "1,000"),
            (123_456, "123,456"),
            (DEFAULT_MAX_STEPS, "50,000,000"),
        ] {
            assert_eq!(grouped(n), text);
        }
    }

    #[test]
    fn trace_renders_steps() {
        let inst = run_cli(&["generate", "chain-away", "4"], "".as_bytes()).unwrap();
        let out = run_cli(&["trace", "NewPR", "first"], inst.as_bytes()).unwrap();
        assert!(out.contains("step   1"));
        assert!(out.contains("reverses"));
    }

    #[test]
    fn check_verifies_instances() {
        let inst = run_cli(&["generate", "random", "10", "3"], "".as_bytes()).unwrap();
        let out = run_cli(&["check"], inst.as_bytes()).unwrap();
        assert!(out.contains("all checks passed"));
    }

    #[test]
    fn check_rejects_garbage() {
        let e = run_cli(&["check"], "this is not an instance".as_bytes()).unwrap_err();
        assert!(e.0.contains("invalid instance"));
    }

    fn example_spec(name: &str) -> String {
        format!("{}/examples/scenarios/{name}", env!("CARGO_MANIFEST_DIR"))
    }

    #[test]
    fn scenario_validate_accepts_the_shipped_examples() {
        for spec in [
            "churn_waves.json",
            "partition_heal.json",
            "lossy_reversal.json",
        ] {
            let path = example_spec(spec);
            let out = run_cli(&["scenario", "validate", &path], "".as_bytes()).unwrap();
            assert!(out.contains("OK"), "{spec}: {out}");
        }
    }

    #[test]
    fn scenario_run_smoke_produces_rows_without_appending() {
        let path = example_spec("partition_heal.json");
        let out = run_cli(&["scenario", "run", "--smoke", &path], "".as_bytes()).unwrap();
        assert!(out.contains("partition-heal"), "{out}");
        assert!(out.contains("[0] start"), "{out}");
        assert!(out.contains("summary"), "{out}");
        assert!(
            !out.contains("BENCH_"),
            "rows are printed, never persisted: {out}"
        );
    }

    #[test]
    fn scenario_rejects_bad_usage() {
        assert!(run_cli(&["scenario"], "".as_bytes()).is_err());
        assert!(run_cli(&["scenario", "frobnicate", "x.json"], "".as_bytes()).is_err());
        assert!(run_cli(&["scenario", "validate"], "".as_bytes()).is_err());
        assert!(run_cli(
            &["scenario", "validate", "--smoke", "x.json"],
            "".as_bytes()
        )
        .is_err());
        for sub in ["run", "sweep"] {
            let e =
                run_cli(&["scenario", sub, "--no-append", "x.json"], "".as_bytes()).unwrap_err();
            assert!(e.0.contains("unknown flag \"--no-append\""), "{e}");
        }
        let e = run_cli(
            &["scenario", "run", "/nonexistent/spec.json"],
            "".as_bytes(),
        )
        .unwrap_err();
        assert!(e.0.contains("cannot read"), "{e}");
    }

    #[test]
    fn scenario_sweep_smoke_runs_the_matrix_example() {
        let path = example_spec("matrix_sweep.json");
        for threads_args in [&["--threads", "2"][..], &["--threads=2"][..]] {
            let mut args = vec!["scenario", "sweep", "--smoke"];
            args.extend_from_slice(threads_args);
            args.push(&path);
            let out = run_cli(&args, "".as_bytes()).unwrap();
            assert!(
                out.contains("matrix expanded to 24 point(s) = 24 cell(s)"),
                "{out}"
            );
            assert!(out.contains("2 thread(s)"), "{out}");
            // One (right-aligned, hence indented) table row per point
            // plus the whole-sweep roll-up.
            let data_rows = out
                .lines()
                .filter(|l| {
                    l.starts_with(' ')
                        && l.trim_start()
                            .chars()
                            .next()
                            .is_some_and(|c| c.is_ascii_digit())
                })
                .count();
            assert_eq!(data_rows, 25, "24 points + 1 sweep roll-up:\n{out}");
        }
    }

    #[test]
    fn scenario_sweep_rejects_bad_threads() {
        let path = example_spec("matrix_sweep.json");
        let e = run_cli(
            &["scenario", "sweep", "--threads", "0", &path],
            "".as_bytes(),
        )
        .unwrap_err();
        assert!(e.0.contains("at least 1") && e.0.contains("\"0\""), "{e}");
        let e = run_cli(
            &["scenario", "sweep", "--threads", "nope", &path],
            "".as_bytes(),
        )
        .unwrap_err();
        assert!(
            e.0.contains("positive integer") && e.0.contains("\"nope\""),
            "{e}"
        );
        let e = run_cli(&["scenario", "sweep", &path, "--threads"], "".as_bytes()).unwrap_err();
        assert!(e.0.contains("needs a value"), "{e}");
        // --threads belongs to sweep, not run — both spellings, echoed
        // as typed.
        let e = run_cli(&["scenario", "run", "--threads", "2", &path], "".as_bytes()).unwrap_err();
        assert!(e.0.contains("unknown flag"), "{e}");
        let e = run_cli(&["scenario", "run", "--threads=2", &path], "".as_bytes()).unwrap_err();
        assert!(e.0.contains("\"--threads=2\""), "{e}");
    }

    #[test]
    fn scenario_run_redirects_matrix_specs_to_sweep() {
        let path = example_spec("matrix_sweep.json");
        let e = run_cli(&["scenario", "run", "--smoke", &path], "".as_bytes()).unwrap_err();
        assert!(e.0.contains("use `lr scenario sweep`"), "{e}");
    }

    #[test]
    fn scenario_validate_reports_the_matrix_point_count() {
        let path = example_spec("matrix_sweep.json");
        let out = run_cli(&["scenario", "validate", &path], "".as_bytes()).unwrap();
        assert!(out.contains("matrix of 24 point(s)"), "{out}");
    }

    #[test]
    fn scenario_errors_name_the_failing_path() {
        let dir = std::env::temp_dir();
        let bad = dir.join(format!("lr_cli_bad_spec_{}.json", std::process::id()));
        std::fs::write(&bad, r#"{"name": "x", "topology": {"family": "warp"}}"#).unwrap();
        let e = run_cli(
            &["scenario", "validate", bad.to_str().unwrap()],
            "".as_bytes(),
        )
        .unwrap_err();
        assert!(e.0.contains("topology.family"), "{e}");
        assert!(e.0.contains("unknown family"), "{e}");
        let _ = std::fs::remove_file(&bad);
    }

    #[test]
    fn modelcheck_verifies_all_3_node_instances() {
        let out = run_cli(&["modelcheck", "3"], "".as_bytes()).unwrap();
        assert!(out.contains("n = 3"), "{out}");
        assert!(out.contains("54"), "all 54 instances: {out}");
        assert!(out.contains("NewPR invariants"), "{out}");
        assert!(out.contains("termination"), "{out}");
        assert!(out.contains("yes"), "{out}");
        assert!(!out.contains(" NO"), "{out}");
    }

    #[test]
    fn modelcheck_threads_and_checks_flags() {
        for threads_args in [&["--threads", "2"][..], &["--threads=2"][..]] {
            let mut args = vec!["modelcheck", "3", "--checks", "newpr,r"];
            args.extend_from_slice(threads_args);
            let out = run_cli(&args, "".as_bytes()).unwrap();
            assert!(out.contains("2 thread(s)"), "{out}");
            assert!(out.contains("NewPR invariants"), "{out}");
            assert!(out.contains("R simulation"), "{out}");
            assert!(!out.contains("termination"), "--checks subset: {out}");
        }
        let out = run_cli(&["modelcheck", "3", "--checks=prset"], "".as_bytes()).unwrap();
        assert!(out.contains("set actions"), "{out}");
        assert!(
            out.contains("(1 thread(s))"),
            "one thread by default: {out}"
        );
    }

    #[test]
    fn modelcheck_rejects_bad_usage() {
        assert!(run_cli(&["modelcheck"], "".as_bytes()).is_err());
        assert!(run_cli(&["modelcheck", "1"], "".as_bytes()).is_err());
        assert!(run_cli(&["modelcheck", "99"], "".as_bytes()).is_err());
        // n = 7 has more than 1.5 M isomorphism classes to enumerate.
        let e = run_cli(&["modelcheck", "7"], "".as_bytes()).unwrap_err();
        assert!(e.0.contains("2..=6") && e.0.contains("\"7\""), "{e}");
        assert!(run_cli(&["modelcheck", "x"], "".as_bytes()).is_err());
        assert!(run_cli(&["modelcheck", "3", "3"], "".as_bytes()).is_err());
        let e = run_cli(&["modelcheck", "3", "--threads", "0"], "".as_bytes()).unwrap_err();
        assert!(e.0.contains("at least 1") && e.0.contains("\"0\""), "{e}");
        let e = run_cli(&["modelcheck", "3", "--threads", "abc"], "".as_bytes()).unwrap_err();
        assert!(
            e.0.contains("positive integer") && e.0.contains("\"abc\""),
            "{e}"
        );
        let e = run_cli(&["modelcheck", "3", "--threads"], "".as_bytes()).unwrap_err();
        assert!(e.0.contains("needs a value"), "{e}");
        let e = run_cli(&["modelcheck", "3", "--checks", "bogus"], "".as_bytes()).unwrap_err();
        assert!(e.0.contains("unknown check"), "{e}");
        for flag in ["--frob", "--no-append"] {
            let e = run_cli(&["modelcheck", "3", flag], "".as_bytes()).unwrap_err();
            assert!(e.0.contains("unknown flag"), "{e}");
        }
    }

    #[test]
    fn obs_flags_are_parsed_and_stripped() {
        let (mode, out, inner) =
            parse_obs_flags(&["run", "PR", "--obs", "summary", "--obs-out", "t.json"]).unwrap();
        assert_eq!(mode, ObsMode::Summary);
        assert_eq!(out.as_deref(), Some("t.json"));
        assert_eq!(inner, ["run", "PR"]);
        let (mode, out, inner) =
            parse_obs_flags(&["run", "PR", "--obs=chrome", "--obs-out=x"]).unwrap();
        assert_eq!(mode, ObsMode::Chrome);
        assert_eq!(out.as_deref(), Some("x"));
        assert_eq!(inner, ["run", "PR"]);
        let (mode, out, inner) = parse_obs_flags(&["run", "PR", "first"]).unwrap();
        assert_eq!(mode, ObsMode::Off);
        assert_eq!(out, None);
        assert_eq!(inner, ["run", "PR", "first"]);
        assert!(parse_obs_flags(&["run", "--obs", "warp"]).is_err());
        assert!(parse_obs_flags(&["run", "--obs"]).is_err());
        assert!(parse_obs_flags(&["run", "--obs-out"]).is_err());
    }

    #[test]
    fn run_with_obs_summary_appends_a_report() {
        let inst = run_cli(&["generate", "chain-away", "6"], "".as_bytes()).unwrap();
        let out = run_cli(&["run", "PR", "--obs", "summary"], inst.as_bytes()).unwrap();
        assert!(out.contains("total reversals:  5"), "{out}");
        assert!(out.contains("observability summary"), "{out}");
        assert!(out.contains("engine.round"), "{out}");
        assert!(out.contains("engine.steps"), "{out}");
        // The run's stats are unchanged by recording.
        let quiet = run_cli(&["run", "PR"], inst.as_bytes()).unwrap();
        assert!(out.starts_with(&quiet), "obs output must only append");
    }

    #[test]
    fn run_with_obs_chrome_writes_a_valid_trace() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("lr_cli_trace_{}.json", std::process::id()));
        let path_s = path.to_str().unwrap();
        let inst = run_cli(&["generate", "chain-away", "8"], "".as_bytes()).unwrap();
        let out = run_cli(
            &["run", "PR", "--obs", "chrome", "--obs-out", path_s],
            inst.as_bytes(),
        )
        .unwrap();
        assert!(out.contains("chrome trace"), "{out}");
        let validated = run_cli(&["obs", "validate", path_s], "".as_bytes()).unwrap();
        assert!(validated.contains("OK"), "{validated}");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("traceEvents"), "{text}");
        assert!(text.contains("engine.round"), "{text}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn obs_validate_rejects_garbage_and_bad_usage() {
        let e = run_cli(&["obs"], "".as_bytes()).unwrap_err();
        assert!(e.0.contains("validate"), "{e}");
        let e = run_cli(&["obs", "validate"], "".as_bytes()).unwrap_err();
        assert!(e.0.contains("validate"), "{e}");
        let dir = std::env::temp_dir();
        let bad = dir.join(format!("lr_cli_bad_trace_{}.json", std::process::id()));
        std::fs::write(&bad, "{\"traceEvents\": [{\"name\": 3}]}").unwrap();
        let e = run_cli(&["obs", "validate", bad.to_str().unwrap()], "".as_bytes()).unwrap_err();
        assert!(e.0.contains("invalid Chrome trace"), "{e}");
        let _ = std::fs::remove_file(&bad);
    }

    #[test]
    fn obs_out_without_a_recording_mode_is_rejected() {
        let inst = run_cli(&["generate", "chain-away", "4"], "".as_bytes()).unwrap();
        let e = run_cli(&["run", "PR", "--obs-out", "t.json"], inst.as_bytes()).unwrap_err();
        assert!(e.0.contains("--obs-out needs --obs"), "{e}");
    }

    #[test]
    fn modelcheck_with_obs_summary_reports_check_spans() {
        let out = run_cli(&["modelcheck", "3", "--obs", "summary"], "".as_bytes()).unwrap();
        assert!(
            out.contains("all checks passed") || out.contains("n = 3"),
            "{out}"
        );
        assert!(out.contains("modelcheck.check"), "{out}");
        assert!(out.contains("modelcheck.states"), "{out}");
    }

    /// Writes a small serve-able spec to a temp file; returns its path.
    fn serve_spec(tag: &str) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("lr_cli_serve_{tag}_{}.json", std::process::id()));
        std::fs::write(
            &path,
            r#"{
                "name": "cli-serve",
                "topology": {"family": "grid", "rows": 4, "cols": 4},
                "seeds": [11]
            }"#,
        )
        .unwrap();
        path
    }

    #[test]
    fn serve_output_is_deterministic_across_runs_and_threads() {
        let path = serve_spec("det");
        let p = path.to_str().unwrap();
        let base_args = ["serve", p, "--rate", "5", "--duration", "20"];
        let a = run_cli(&base_args, "".as_bytes()).unwrap();
        let b = run_cli(&base_args, "".as_bytes()).unwrap();
        assert_eq!(a, b, "fixed seed, byte-identical output");
        assert!(a.contains("serve cli-serve:"), "{a}");
        assert!(a.contains("latency (ticks): p50"), "{a}");
        for threads in ["2", "4"] {
            let mut args = base_args.to_vec();
            args.extend_from_slice(&["--threads", threads]);
            let par = run_cli(&args, "".as_bytes()).unwrap();
            assert_eq!(par, a, "--threads {threads} must not change the output");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn serve_reads_a_feed_from_stdin() {
        let path = serve_spec("feed");
        let p = path.to_str().unwrap();
        let feed = "{\"at\": 2, \"fail\": [0, 1]}\n{\"at\": 6, \"route\": 3}\n";
        let out = run_cli(
            &["serve", p, "--rate", "0", "--duration", "8", "--feed", "-"],
            feed.as_bytes(),
        )
        .unwrap();
        assert!(out.contains("feed 1"), "one feed route offered: {out}");
        assert!(out.contains("churn events applied 1"), "{out}");
        let bad = run_cli(&["serve", p, "--feed", "-"], "not json".as_bytes()).unwrap_err();
        assert!(bad.0.contains("feed line 1"), "{bad}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn serve_rejects_bad_usage() {
        let path = serve_spec("bad");
        let p = path.to_str().unwrap();
        assert!(run_cli(&["serve"], "".as_bytes()).is_err());
        let e = run_cli(&["serve", p, "--threads", "0"], "".as_bytes()).unwrap_err();
        assert!(e.0.contains("--threads must be at least 1"), "{e}");
        assert!(e.0.contains("\"0\""), "{e}");
        let e = run_cli(&["serve", p, "--rate", "abc"], "".as_bytes()).unwrap_err();
        assert!(
            e.0.contains("--rate needs a positive integer") && e.0.contains("\"abc\""),
            "{e}"
        );
        let e = run_cli(&["serve", p, "--duration=0"], "".as_bytes()).unwrap_err();
        assert!(e.0.contains("--duration must be at least 1"), "{e}");
        // A served window past the virtual clock's range is an error
        // naming the value, not an overflow.
        let e = run_cli(
            &["serve", p, "--duration", "18446744073709551615"],
            "".as_bytes(),
        )
        .unwrap_err();
        assert!(e.0.contains("--duration 18446744073709551615: "), "{e}");
        for flag in ["--frob", "--smoke", "--no-append"] {
            let e = run_cli(&["serve", p, flag], "".as_bytes()).unwrap_err();
            assert!(e.0.contains("unknown flag"), "{flag}: {e}");
        }
        let e = run_cli(&["serve", p, p], "".as_bytes()).unwrap_err();
        assert!(e.0.contains("unexpected argument"), "{e}");
        let e = run_cli(&["serve", "/nonexistent/spec.json"], "".as_bytes()).unwrap_err();
        assert!(e.0.contains("cannot read"), "{e}");
        let _ = std::fs::remove_file(&path);
        // Serve runs no matrix, churn or traffic section: each is an
        // error naming the section and pointing at --rate and --feed.
        let traffic =
            std::env::temp_dir().join(format!("lr_cli_serve_tr_{}.json", std::process::id()));
        std::fs::write(
            &traffic,
            r#"{"name": "t", "topology": {"family": "grid", "rows": 2, "cols": 2},
                "traffic": {"packets_per_source": 2}}"#,
        )
        .unwrap();
        let traffic_path = traffic.to_str().unwrap().to_string();
        for (spec, section) in [
            (example_spec("matrix_sweep.json"), "declares a matrix"),
            (
                example_spec("churn_waves.json"),
                "declares 3 churn event(s)",
            ),
            (traffic_path, "declares a traffic section"),
        ] {
            let e = run_cli(&["serve", &spec, "--rate", "5"], "".as_bytes()).unwrap_err();
            assert!(e.0.starts_with(&format!("{spec}: spec {section}")), "{e}");
            assert!(e.0.contains("--rate") && e.0.contains("--feed"), "{e}");
        }
        let _ = std::fs::remove_file(&traffic);
        // The largest link delay saturates instead of overflowing.
        let slow =
            std::env::temp_dir().join(format!("lr_cli_serve_sl_{}.json", std::process::id()));
        std::fs::write(
            &slow,
            r#"{"name": "slow", "topology": {"family": "grid", "rows": 2, "cols": 2},
                "links": {"delay": 18446744073709551615}}"#,
        )
        .unwrap();
        let out = run_cli(
            &[
                "serve",
                slow.to_str().unwrap(),
                "--rate",
                "2",
                "--duration",
                "5",
            ],
            "".as_bytes(),
        )
        .unwrap();
        assert!(out.contains("answered 0  unroutable 10"), "{out}");
        let _ = std::fs::remove_file(&slow);
    }

    #[test]
    fn serve_workloads_at_the_ceilings_run_and_past_them_error() {
        use lr_scenario::serve::{MAX_SERVE_REQUESTS, MAX_SERVE_TICKS};

        let path = serve_spec("ceiling");
        let p = path.to_str().unwrap();
        let (ticks, requests) = (MAX_SERVE_TICKS.to_string(), MAX_SERVE_REQUESTS.to_string());
        for (rate, duration) in [("0", ticks.as_str()), (requests.as_str(), "1")] {
            let out = run_cli(
                &["serve", p, "--rate", rate, "--duration", duration],
                "".as_bytes(),
            )
            .unwrap();
            assert!(
                out.contains(&format!("rate {rate}/tick × {duration} ticks")),
                "{out}"
            );
        }
        for (args, msg) in [
            (
                &["--rate", "0", "--duration", "1000001"][..],
                "--duration 1000001: serve runs at most 1000000 ticks",
            ),
            (
                &["--rate=10000001", "--duration=1"],
                "--rate 10000001: 10000001 requests per tick × 1 ticks exceed the ceiling of \
                 10000000 generated requests",
            ),
            (
                &["--rate", "18446744073709551615", "--duration", "2"],
                "--rate 18446744073709551615: 18446744073709551615 requests per tick × 2 ticks \
                 exceed the ceiling of 10000000 generated requests",
            ),
            (
                &["--rate", "0", "--duration", "1000000000000000"],
                "--duration 1000000000000000: serve runs at most 1000000 ticks",
            ),
        ] {
            let mut argv = vec!["serve", p];
            argv.extend_from_slice(args);
            let e = run_cli(&argv, "".as_bytes()).unwrap_err();
            assert_eq!(e.0, format!("{p}: {msg}"), "{args:?}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn serve_with_obs_summary_reports_batch_spans() {
        let path = serve_spec("obs");
        let p = path.to_str().unwrap();
        let out = run_cli(
            &[
                "serve",
                p,
                "--rate",
                "3",
                "--duration",
                "10",
                "--obs",
                "summary",
            ],
            "".as_bytes(),
        )
        .unwrap();
        assert!(out.contains("observability summary"), "{out}");
        assert!(out.contains("serve.batch"), "{out}");
        assert!(out.contains("serve.settle"), "{out}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn stray_arguments_on_the_instance_commands_are_errors() {
        let inst = run_cli(&["generate", "chain-away", "4"], "".as_bytes()).unwrap();
        for (args, extra) in [
            (&["check", "extra"][..], "extra"),
            (&["dot", "extra"], "extra"),
            (&["trace", "PR", "first", "extra"], "extra"),
            (&["generate", "grid", "2", "5", "9", "foo"], "9"),
        ] {
            let e = run_cli(args, inst.as_bytes()).unwrap_err();
            assert_eq!(e.0, format!("unexpected argument {extra:?}"), "{args:?}");
        }
    }

    #[test]
    fn run_spans_cover_every_stage() {
        let inst = run_cli(&["generate", "grid", "30"], "".as_bytes()).unwrap();
        let out = run_cli(&["run", "PR", "--obs", "summary"], inst.as_bytes()).unwrap();
        for span in [
            "cli.read",
            "cli.parse",
            "cli.validate",
            "cli.build",
            "engine.run PR",
            "cli.check",
        ] {
            assert!(out.contains(span), "{span} missing from\n{out}");
        }
    }

    #[test]
    fn dot_renders() {
        let inst = run_cli(&["generate", "star", "3"], "".as_bytes()).unwrap();
        let out = run_cli(&["dot"], inst.as_bytes()).unwrap();
        assert!(out.contains("digraph instance"));
        assert!(out.contains("doublecircle"));
    }
}
