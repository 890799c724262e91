#!/usr/bin/env python3
"""The repository benchmark: four workloads, timed end to end and split by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N] [--seconds S]

Run from anywhere inside a checkout of the repository. The first form runs
one workload for about S seconds and prints, as its last line, one JSON
object with the keys `correct`, `attempted`, `failed` and `metrics`. With
`--trace 0` the metrics are the end-to-end ones: wall time, set-up time,
work units per second of the measured phase, and peak resident set, each a
median over fresh processes of the workload binary (a process runs the
workload once, so its wall time and peak resident set belong to that
workload alone). With `--trace 1` they are the per-layer ones, from
processes recording an `lr_obs` session, alternated with untraced processes
that give the tracing overhead. The second form runs every workload
untraced and then traced and prints every table.

`attempted` and `failed` add up the operations of every process: route
requests (failed when dropped or still queued at the end), engine runs
(failed when they hit the step budget) and model checks (failed when
unverified or truncated). An unroutable reply is an answer the protocol
gives mid-cascade; the per-layer `fail_share` counts it with the failures.

The workload binary is the package next to this file; it is built in
release mode into `$CARGO_TARGET_DIR` (default `.bench_build` at the
checkout root), where results and Chrome traces are written too. The
command exits 1 without printing a result when the build, a run, or an
output check fails.

`--smoke` shrinks every workload to a fraction of a second, for
`test_run.py`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Why each workload is here is in BENCHMARK.json and the workload binary.
WORKLOADS = ["serve-steady", "serve-churn", "engine-1m", "modelcheck-n5"]

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]

FAMILIES = ["fr", "pr", "newpr", "gb-pair", "gb-triple", "bll"]
CHECKS = ["newpr", "rprime", "termination"]

PER_LAYER = (
    [
        ("graph.build_s", "s"),
        ("net.settle_s", "s"),
        ("net.msgs", "count"),
        ("serve.batch_s", "s"),
        ("serve.batch_p50_ms", "ms"),
        ("serve.batch_p95_ms", "ms"),
        ("serve.hops", "count"),
        ("serve.hops_per_s", "1/s"),
        ("serve.unattributed_s", "s"),
        ("serve.unroutable", "count"),
        ("serve.churn_events", "count"),
        ("graph.stream_build_s", "s"),
        ("core.init_s", "s"),
    ]
    + [(f"core.run_s.{f}", "s") for f in FAMILIES]
    + [(f"core.steps_per_s.{f}", "1/s") for f in FAMILIES]
    + [(f"core.bytes_per_half_edge.{f}", "B/half-edge") for f in FAMILIES]
    + [
        ("core.round_p50_ms", "ms"),
        ("core.round_p95_ms", "ms"),
        ("core.rounds", "count"),
        ("graph.enumerate_s", "s"),
    ]
    + [(f"simrel.check_s.{c}", "s") for c in CHECKS]
    + [(f"simrel.work_per_s.{c}", "1/s") for c in CHECKS]
    + [
        ("ioa.layers", "count"),
        ("ioa.layer_p95_ms", "ms"),
        ("bench.check_s", "s"),
        ("obs.export_s", "s"),
        ("obs.overhead", "ratio"),
        ("coverage", "ratio"),
        ("uncovered_s", "s"),
        ("fail_share", "ratio"),
        ("cpus", "count"),
    ]
)

# The benchmark's own work in a process: output checks and, when traced,
# writing and validating the Chrome trace.
HARNESS = ["bench.check_s", "obs.export_s"]

# The timers that partition a traced process's wall time; what they leave
# uncovered is process start-up, the serve loop's internal instance build,
# and exit.
COVERING = {
    "serve-steady": ["graph.build_s", "net.settle_s", "serve.batch_s", "serve.unattributed_s"],
    "engine-1m": ["graph.stream_build_s", "core.init_s"] + [f"core.run_s.{f}" for f in FAMILIES],
    "modelcheck-n5": ["graph.enumerate_s"] + [f"simrel.check_s.{c}" for c in CHECKS],
}
COVERING["serve-churn"] = COVERING["serve-steady"]


class BenchError(Exception):
    pass


def target_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def out_dir(kind):
    path = os.path.join(target_dir(), "perfbench", kind)
    os.makedirs(path, exist_ok=True)
    return path


def build():
    """Builds the workload binary and returns its path."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        raise BenchError("building the workload binary failed")
    return os.path.join(target_dir(), "release", "perfbench")


def run_process(binary, workload, seed, smoke, trace_path=None):
    """Runs the workload once in a fresh process; returns its measurements."""
    cmd = [binary, workload, "--seed", str(seed)]
    if trace_path:
        cmd += ["--trace", trace_path]
    if smoke:
        cmd.append("--smoke")
    err_path = os.path.join(out_dir("logs"), f"{workload}.stderr")
    with open(err_path, "w+b") as err:
        began = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=err)
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - began
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        message = err.read().decode(errors="replace").strip()
    if proc.returncode != 0:
        raise BenchError(f"{workload} seed {seed} exited {proc.returncode}: {message}")
    run = json.loads(out.decode().strip().splitlines()[-1])
    run["wall_s"] = wall
    # ru_maxrss is in KiB on Linux.
    run["peak_rss_mb"] = usage.ru_maxrss / 1024
    return run


def same_output(runs, what):
    digests = {r["digest"] for r in runs}
    if len(digests) != 1:
        raise BenchError(f"{what}: runs of one seed rendered {len(digests)} different outputs")


def time_boxed(seconds, step, min_calls):
    """Calls step() until the next call would end past `seconds`, at least `min_calls` times."""
    began = time.perf_counter()
    calls = 0
    while True:
        t = time.perf_counter()
        step()
        calls += 1
        now = time.perf_counter()
        if calls >= min_calls and now - began + (now - t) > seconds:
            return


def end_to_end(binary, workload, seed, seconds, smoke):
    runs = []
    # At least two processes behind every median, whatever --seconds says.
    time_boxed(seconds, lambda: runs.append(run_process(binary, workload, seed, smoke)), 2)
    same_output(runs, workload)
    med = lambda key: statistics.median(key(r) for r in runs)
    metrics = {
        "wall_s": med(lambda r: r["wall_s"]),
        "setup_s": med(lambda r: r["setup_s"]),
        "work_per_s": med(lambda r: r["work"] / r["measured_s"]),
        "peak_rss_mb": med(lambda r: r["peak_rss_mb"]),
    }
    return runs, metrics, END_TO_END


def per_layer(binary, workload, seed, seconds, smoke):
    trace_path = os.path.join(out_dir("traces"), f"{workload}-seed{seed}.json")
    plain, traced = [], []

    def pair():
        plain.append(run_process(binary, workload, seed, smoke))
        traced.append(run_process(binary, workload, seed, smoke, trace_path))

    time_boxed(seconds, pair, 1)
    same_output(plain + traced, f"{workload} traced against untraced")
    names = [name for name, _ in PER_LAYER]
    metrics = {
        name: statistics.median(r["layers"].get(name, 0.0) for r in traced) for name in names
    }
    # The harness's own work is left out of both sides: traced runs check
    # more (every engine family's acyclicity) and export the trace.
    workload_s = lambda r: r["wall_s"] - sum(r["layers"].get(name, 0.0) for name in HARNESS)
    metrics["obs.overhead"] = (
        statistics.median(map(workload_s, traced)) / statistics.median(map(workload_s, plain)) - 1
    )
    wall = statistics.median(r["wall_s"] for r in traced)
    covered = sum(metrics[name] for name in COVERING[workload] + HARNESS)
    metrics["coverage"] = covered / wall
    metrics["uncovered_s"] = wall - covered
    metrics["fail_share"] = traced[0]["unanswered"] / traced[0]["attempted"]
    metrics["cpus"] = traced[0]["cpus"]
    return plain + traced, metrics, PER_LAYER


def run_workload(binary, workload, seed, seconds, trace, smoke):
    measure = per_layer if trace else end_to_end
    runs, metrics, units = measure(binary, workload, seed, seconds, smoke)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    first = runs[0]
    print(
        f"# {workload}, seed {seed}, trace {trace}: {len(runs)} processes, "
        f"cpus {first['cpus']}, attempted {attempted}, failed {failed}"
    )
    if trace:
        print(f"# trace: {runs[-1]['trace_events']} events kept, {runs[-1]['trace_dropped']} dropped")
    for name, unit in units:
        print(f"{workload:<14} {name:<32} {metrics[name]:>16.6g} {unit}")
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }
    record = dict(result, workload=workload, seed=seed, trace=trace, cpus=first["cpus"], runs=runs)
    name = f"{workload}-seed{seed}-trace{trace}.json"
    with open(os.path.join(out_dir("results"), name), "w") as f:
        json.dump(record, f, indent=1)
    return result


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    try:
        binary = build()
        workloads = [args.workload] if args.workload else WORKLOADS
        traces = [args.trace] if args.trace is not None else [0, 1]
        results = [
            run_workload(binary, w, args.seed, args.seconds, t, args.smoke)
            for w in workloads
            for t in traces
        ]
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if len(results) == 1:
        print(json.dumps(results[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
