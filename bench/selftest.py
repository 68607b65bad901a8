"""The benchmark's own tests.

    python3 bench/selftest.py

Kept out of the repository's pytest run on purpose (the file name does
not match test_*.py): each test starts real worker and CLI processes.
Covers a small-size smoke run of every workload, traced and untraced; that
every metric BENCHMARK.json names is printed with its unit; that planted
faults (one wrong digest, one wrong expected exit code) raise the failed
ratio above zero; and that a checkout without confrel sources fails
without printing a result.
"""

import argparse
import contextlib
import io
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import plan  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, cwd=ROOT,
                          timeout=600)


def small_run(workload: str, trace: int):
    done = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--size", "small")
    if done.returncode != 0:
        raise AssertionError(done.stderr)
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def args_for(workload: str, size: str) -> argparse.Namespace:
    return run.parse_args(["--workload", workload, "--seed",
                           str(plan.DEFAULT_SEED), "--seconds", "0",
                           "--size", size])


class SmokeAndMetricNames(unittest.TestCase):
    def check(self, trace: int, section: str):
        for workload in plan.WORKLOADS:
            with self.subTest(workload=workload, trace=trace):
                lines, result = small_run(workload, trace)
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], lines)
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                named = {m["name"]: m["unit"] for m in SPEC[section]}
                self.assertEqual(set(result["metrics"]), set(named))
                printed = {line.split()[0]: line.split()[2] for line in lines[1:-1]
                           if len(line.split()) >= 3}
                for name, unit in named.items():
                    self.assertEqual(result["metrics"][name]["unit"], unit)
                    self.assertEqual(printed.get(name), unit, name)
                self.assertIn("failed_ratio", printed)

    def test_untraced_runs_print_every_end_to_end_metric(self):
        self.check(0, "end_to_end")

    def test_traced_runs_print_every_per_layer_metric(self):
        self.check(1, "per_layer")


class PlantedFaults(unittest.TestCase):
    def run_quietly(self, *call):
        with contextlib.redirect_stdout(io.StringIO()):
            return run.benchmark(*call)["result"]

    def test_wrong_digest_fails_a_job(self):
        digests = run.load_digests()
        table = dict(digests["kb-reasoning"])
        table["kb-00"] = "0" * 24
        result = self.run_quietly(args_for("kb-reasoning", "full"),
                                  {"kb-reasoning": table})
        self.assertGreater(result["failed"] / result["attempted"], 0)

    def test_wrong_expected_exit_code_fails_a_job(self):
        _, jobs = plan.cli_batch_round(plan.DEFAULT_SEED, "small")
        jobs[5]["expect"] = 1 - jobs[5]["expect"]
        result = self.run_quietly(args_for("cli-batch", "small"), {}, jobs)
        self.assertGreater(result["failed"] / result["attempted"], 0)


class WithoutSources(unittest.TestCase):
    def test_bare_benchmark_directory_fails_without_a_result(self):
        bare = ROOT / ".bench_work" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            done = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "kb-reasoning",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                capture_output=True, text=True, cwd=bare, timeout=180)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"metrics"', done.stdout)


if __name__ == "__main__":
    unittest.main()
