#!/usr/bin/env python3
"""Tests of the benchmark itself; run with `python3 perfbench/test_run.py`.

They drive `run.py --smoke`, which builds the workload binary and runs every
workload at a fraction of its size, so they take seconds once the binary is
built.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402


def bench(*args, cwd=run.ROOT, env=None):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )


def git_status():
    out = subprocess.run(
        ["git", "status", "--porcelain"], cwd=run.ROOT, capture_output=True, text=True
    )
    return out.stdout if out.returncode == 0 else None


class BenchmarkTest(unittest.TestCase):
    def test_benchmark_json_matches_the_runner(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
            self.assertEqual([(m["name"], m["unit"]) for m in spec[key]], table)

    def test_smoke_run_prints_the_contract_and_leaves_the_tree_clean(self):
        before = git_status()
        for workload in run.WORKLOADS:
            for trace, table in ((0, run.END_TO_END), (1, run.PER_LAYER)):
                args = ["--workload", workload, "--seed", "7", "--seconds", "0"]
                out = bench(*args, "--trace", str(trace), "--smoke")
                self.assertEqual(out.returncode, 0, out.stderr)
                result = json.loads(out.stdout.strip().splitlines()[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                self.assertEqual(
                    {k: v["unit"] for k, v in result["metrics"].items()}, dict(table)
                )
        if before is not None:
            self.assertEqual(git_status(), before, "the benchmark changed the work tree")

    def test_fails_without_the_repository(self):
        # Only BENCHMARK.json and the benchmark's own files: the build
        # cannot find the crates, so no result may be printed.
        alone = os.path.join(run.target_dir(), "perfbench", "alone")
        shutil.rmtree(alone, ignore_errors=True)
        shutil.copytree(
            HERE,
            os.path.join(alone, "perfbench"),
            ignore=shutil.ignore_patterns("Cargo.lock", "__pycache__"),
        )
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), alone)
        env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(alone, ".bench_build"))
        args = ["--workload", "serve-steady", "--seed", "1", "--seconds", "1", "--trace", "0"]
        out = bench(*args, cwd=alone, env=env)
        shutil.rmtree(alone)
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout.strip(), "")

    def test_rejects_unknown_workloads(self):
        out = bench("--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0")
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
