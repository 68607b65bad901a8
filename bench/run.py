"""confrel benchmark: seeded workloads, checked outputs, end-to-end and
per-layer metrics.

    python3 bench/run.py --workload measure-orders --seed 0 --seconds 30 --trace 0

Workloads (see bench/NOTES.md for why each exists and what it sizes):
  measure-orders  library calls in one worker process: induced orders,
                  axiom batteries, accepted sets, dual/condition, recognizers
  kb-reasoning    library calls in one worker process: preferential
                  closure, entailment with derivations, round trips,
                  decompose/recompose
  cli-batch       one `confrel` subprocess per job, on files written in set-up

Each workload is a closed loop with one client: jobs run one after another,
with at most one child process at a time. A run repeats whole rounds of a
seeded job list until --seconds have passed; an untraced run also goes on
until its tail percentile has ten jobs above it. With --trace 0 the last
line holds the end-to-end metrics; with --trace 1 half the time runs
untraced and half traced, and the last line holds the per-layer metrics.
The last line is one JSON object with the keys correct, attempted, failed,
metrics.

The benchmark exits 2 without a result if the checkout has no confrel
sources under src/, or if set-up or the worker fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import plan  # noqa: E402
import reports  # noqa: E402
import spans  # noqa: E402

SETUP_REPEATS = 5
JOB_TIMEOUT_S = 120
REPORT_PARSE_LIMIT = 1 << 20
DIGESTS = HERE / "digests.json"

END_TO_END_UNITS = {
    "setup_s": "s", "job_p50_s": "s", "job_tail_s": "s",
    "jobs_per_s": "1/s", "peak_rss_mb": "MB",
}
CLI_SUBCOMMANDS = ("gen", "induce", "check-axioms", "accepted",
                   "classify-measure", "close-kb", "entail", "roundtrip",
                   "decompose", "recompose")

# per-layer metric -> span name it sums, from the traced half of a run
BUSY = {
    "relations.check_axiom.busy_s": "relations.check_axiom",
    "relations.dual_condition.busy_s": "relations.dual_condition",
    "relations.accepted.busy_s": "relations.accepted",
    "relations.strict_lift.busy_s": "relations.strict_lift",
    "measures.induce.busy_s": "measures.induce",
    "measures.induce_sup.busy_s": "measures.induce_sup",
    "measures.table_for.busy_s": "measures.table_for",
    "measures.recognizers.busy_s": "measures.recognizers",
    "logic.models.busy_s": "logic.models",
    "preferential.close_p.busy_s": "preferential.close_p",
    "preferential.entails.busy_s": "preferential.entails",
    "preferential.roundtrip.busy_s": "preferential.roundtrip",
    "representation.decompose.busy_s": "representation.decompose",
    "representation.ac_close.busy_s": "representation.ac_close",
    "representation.recompose.busy_s": "representation.recompose",
    "fileio.load.busy_s": "fileio.load",
    "fileio.dump.busy_s": "fileio.dump",
}
CALLS = {
    "relations.check_axiom.calls": "relations.check_axiom",
    "preferential.close_p.calls": "preferential.close_p",
    "representation.ac_close.calls": "representation.ac_close",
    "representation.commit_strict.calls": "representation.commit_strict",
}
COUNTED = {
    "relations.check_axiom.witnesses": "relations.check_axiom",
    "preferential.close_p.pairs": "preferential.close_p",
    "preferential.derivation_steps": "preferential.derivation",
    "representation.decompose.members": "representation.decompose",
}
SHARES = {
    "relations.check_axiom.share": ("relations.check_axiom",),
    "measures.induce.share": ("measures.induce", "measures.induce_sup",
                              "measures.table_for"),
    "preferential.close_p.share": ("preferential.close_p",),
    "fileio.share": ("fileio.load", "fileio.dump"),
}


def per_layer_units() -> dict[str, str]:
    units = {name: "s" for name in BUSY}
    units.update({name: "count" for name in (*CALLS, *COUNTED)})
    units.update({name: "ratio" for name in SHARES})
    units["representation.decompose.share"] = "ratio"
    units.update({"fileio.bytes_in": "bytes", "fileio.bytes_out": "bytes",
                  "cli.startup_s": "s", "cli.exit_mismatches": "count",
                  "trace.overhead_ratio": "ratio",
                  "core.states_max": "count", "core.events": "count",
                  "core.disjoint_pairs": "count",
                  "core.disjoint_triples": "count"})
    units.update({f"cli.{sub}.p50_s": "s" for sub in CLI_SUBCOMMANDS})
    return units


class Fail(Exception):
    """Set-up or a worker failed: no result can be reported."""


# -- helpers ----------------------------------------------------------------

def load_digests() -> dict:
    if DIGESTS.is_file():
        return json.loads(DIGESTS.read_text(encoding="utf-8"))
    return {}


def tail(times: list[float], p: int) -> tuple[float, int]:
    """Nearest-rank p-th percentile and the number of samples above it."""
    ordered = sorted(times)
    k = (p * len(ordered) + 99) // 100 - 1
    return ordered[k], len(ordered) - 1 - k


def min_jobs(args) -> int:
    """Untraced runs go on until the tail percentile has enough samples
    above it; traced runs report no tail."""
    return 0 if args.trace else plan.tail_min_jobs(args.workload)


def timed_child(argv: list[str], what: str) -> float:
    t0 = time.perf_counter()
    done = subprocess.run(argv, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, timeout=JOB_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    if done.returncode != 0:
        raise Fail(f"{what} exited {done.returncode}: "
                   f"{done.stderr.decode(errors='replace').strip()}")
    return elapsed


def worker_argv(mode: str, args) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), mode,
            "--workload", args.workload, "--seed", str(args.seed),
            "--size", args.size]


def setup_times(args, workdir: Path) -> list[float]:
    argv = worker_argv("setup", args) + ["--dir", str(workdir)]
    return [timed_child(argv, "set-up") for _ in range(SETUP_REPEATS)]


def core_sizes(jobs) -> dict[str, int]:
    ns = [job["n"] for job in jobs]
    return {"core.states_max": max(ns),
            "core.events": sum(2 ** n for n in ns),
            "core.disjoint_pairs": sum(3 ** n for n in ns),
            "core.disjoint_triples": sum(4 ** n for n in ns)}


class Ledger:
    """Per-job outcomes across a run: failures, and the digest each job
    gave first, so later rounds must repeat it."""

    def __init__(self, expected: dict | None):
        self.expected = expected
        self.first: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, job_id: str, out_digest, problems: list[str]) -> None:
        self.attempted += 1
        problems = list(problems)
        if out_digest is not None:
            seen = self.first.setdefault(job_id, out_digest)
            if seen != out_digest:
                problems.append("output differs from an earlier round")
            if self.expected is not None:
                want = self.expected.get(job_id)
                if want != out_digest:
                    problems.append(f"digest {out_digest} != recorded {want}")
        if problems:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{job_id}: {'; '.join(problems)}")


# -- library workloads ------------------------------------------------------

def run_library(args, workdir: Path, ledger: Ledger) -> dict:
    setups = setup_times(args, workdir)
    out = workdir / "result.json"
    argv = worker_argv("run", args) + [
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--min-jobs", str(min_jobs(args)), "--out", str(out)]
    done = subprocess.run(argv, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE,
                          timeout=args.seconds + 2 * JOB_TIMEOUT_S)
    if done.returncode != 0:
        raise Fail(f"worker exited {done.returncode}: "
                   f"{done.stderr.decode(errors='replace').strip()}")
    result = json.loads(out.read_text(encoding="utf-8"))
    phases = []
    for phase in result["phases"]:
        times = []
        for rnd, job_id, elapsed, out_digest, problems in phase["records"]:
            ledger.record(job_id, out_digest, problems)
            times.append(elapsed)
        entry = {"traced": phase["traced"], "rounds": phase["rounds"],
                 "times": times}
        if phase["traced"]:
            entry["span_lists"] = [phase["spans"]]
        phases.append(entry)
    jobs = plan.library_round(args.workload, args.seed, args.size)
    return {"setup": setups, "phases": phases, "core": core_sizes(jobs),
            "peak_rss_mb": result["peak_rss_kb"] / 1024}


# -- cli-batch --------------------------------------------------------------

def run_cli_job(job, workdir: Path, traced: bool) -> dict:
    """Run one CLI job in its own process and check what it printed.

    The report goes to a file, never through this process's memory: a child
    starts with its parent's memory high-water mark in its rusage, so the
    benchmark process keeps its own footprint small.
    """
    out_path = workdir / f"{job['id']}.out"
    err_path = workdir / f"{job['id']}.err"
    trace_path = workdir / f"{job['id']}.spans"
    argv = [sys.executable, str(HERE / "cli_shim.py")]
    if traced:
        argv += ["--trace-out", str(trace_path)]
    argv += job["argv"]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, cwd=workdir, stdout=out, stderr=err)
        killer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        t1 = time.monotonic()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    record = {"code": code, "seconds": t1 - t0, "rss_kb": usage.ru_maxrss,
              "bytes_out": out_path.stat().st_size}
    if job["sub"] == "gen" and not job["argv"][1].startswith("--"):
        record["bytes_out"] += (workdir / job["argv"][1]).stat().st_size
    problems = []
    if code != job["expect"]:
        last = err_path.read_text(errors="replace").strip().splitlines()[-1:]
        problems.append(f"exit {code}, expected {job['expect']} "
                        f"{last[0] if last else ''}")
    if code in (0, 1):
        problems += report_problems(out_path, job["sub"])
    h = hashlib.sha256(f"{code}\n".encode())
    with open(out_path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    record["digest"], record["problems"] = h.hexdigest()[:24], problems
    if traced:
        data = json.loads(trace_path.read_text(encoding="utf-8"))
        record["startup"] = data["imported"] - t0
        record["spans"] = data["spans"]
        record["bytes_in"] = data["bytes_in"]
        trace_path.unlink()
    out_path.unlink()
    err_path.unlink()
    return record


def report_problems(path: Path, command: str) -> list[str]:
    if path.stat().st_size <= REPORT_PARSE_LIMIT:
        return reports.report_problems(path.read_bytes(), command)
    done = subprocess.run([sys.executable, str(HERE / "reports.py"),
                           str(path), command], capture_output=True,
                          timeout=JOB_TIMEOUT_S)
    if done.returncode == 0:
        return []
    return [done.stdout.decode(errors="replace").strip() or
            f"report check exited {done.returncode}"]


def run_cli(args, workdir: Path, ledger: Ledger, jobs=None) -> dict:
    if jobs is None:
        _, jobs = plan.cli_batch_round(args.seed, args.size)
    setups = setup_times(args, workdir)
    phase_plan = ([(False, args.seconds / 2), (True, args.seconds / 2)]
                  if args.trace else [(False, args.seconds)])
    needed = min_jobs(args)
    phases = []
    peak_kb = 0
    for traced, seconds in phase_plan:
        times, by_sub, span_lists = [], {}, []
        startups, bytes_in, bytes_out, mismatches = [], 0, 0, 0
        started = time.monotonic()
        rnd = 0
        while True:
            for job in jobs:
                record = run_cli_job(job, workdir, traced)
                ledger.record(job["id"], record["digest"], record["problems"])
                mismatches += record["code"] != job["expect"]
                times.append(record["seconds"])
                by_sub.setdefault(job["sub"], []).append(record["seconds"])
                peak_kb = max(peak_kb, record["rss_kb"])
                if traced:
                    for span in record["spans"]:
                        span[4] = f"{rnd}:{job['id']}"
                    span_lists.append(record["spans"])
                    startups.append(record["startup"])
                    if rnd == 0:
                        bytes_in += record["bytes_in"]
                        bytes_out += record["bytes_out"]
            rnd += 1
            if time.monotonic() - started >= seconds and len(times) >= needed:
                break
        entry = {"traced": traced, "rounds": rnd, "times": times,
                 "by_sub": by_sub, "mismatches": mismatches}
        if traced:
            entry.update(span_lists=span_lists, startups=startups,
                         bytes_in=bytes_in, bytes_out=bytes_out)
        phases.append(entry)
    return {"setup": setups, "phases": phases, "core": core_sizes(jobs),
            "peak_rss_mb": peak_kb / 1024}


# -- metrics ----------------------------------------------------------------

def jobs_per_s(times) -> float:
    return len(times) / sum(times)


def end_to_end(run: dict, workload: str) -> tuple[dict, tuple]:
    times = run["phases"][0]["times"]
    p = plan.TAIL_PERCENTILE[workload]
    value, beyond = tail(times, p)
    metrics = {
        "setup_s": statistics.median(run["setup"]),
        "job_p50_s": statistics.median(times),
        "job_tail_s": value,
        "jobs_per_s": jobs_per_s(times),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    return metrics, (p, len(times), beyond)


def per_layer(run: dict) -> dict:
    untraced, traced = run["phases"]
    rounds = traced["rounds"]
    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    counted: dict[str, int] = {}
    decompose_time = 0.0
    for span_list in traced["span_lists"]:
        for name, t in spans.self_times(span_list).items():
            busy[name] = busy.get(name, 0.0) + t
        decompose_time += spans.outermost_time(span_list,
                                               "representation.decompose")
        for name, start, end, parent, job, count in span_list:
            if job.startswith("0:"):
                calls[name] = calls.get(name, 0) + 1
                counted[name] = counted.get(name, 0) + count
    job_time = sum(traced["times"])
    metrics = {m: busy.get(name, 0.0) / rounds for m, name in BUSY.items()}
    metrics.update({m: calls.get(name, 0) for m, name in CALLS.items()})
    metrics.update({m: counted.get(name, 0) for m, name in COUNTED.items()})
    metrics.update({m: sum(busy.get(n, 0.0) for n in names) / job_time
                    for m, names in SHARES.items()})
    metrics["representation.decompose.share"] = decompose_time / job_time
    metrics["fileio.bytes_in"] = traced.get("bytes_in", 0)
    metrics["fileio.bytes_out"] = traced.get("bytes_out", 0)
    startups = traced.get("startups")
    metrics["cli.startup_s"] = statistics.median(startups) if startups else 0.0
    by_sub = untraced.get("by_sub", {})
    for sub in CLI_SUBCOMMANDS:
        metrics[f"cli.{sub}.p50_s"] = (statistics.median(by_sub[sub])
                                       if sub in by_sub else 0.0)
    metrics["cli.exit_mismatches"] = sum(ph.get("mismatches", 0)
                                         for ph in run["phases"])
    metrics["trace.overhead_ratio"] = (jobs_per_s(traced["times"])
                                       / jobs_per_s(untraced["times"]))
    metrics.update(run["core"])
    return metrics


# -- entry ------------------------------------------------------------------

def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=plan.WORKLOADS)
    parser.add_argument("--seed", type=int, default=plan.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=plan.SIZES, default="full",
                        help="'small' shrinks every input, for smoke tests")
    parser.add_argument("--record-digests", action="store_true",
                        help="run the default seed at full size and store "
                             "its per-job digests in bench/digests.json")
    return parser.parse_args(argv)


def benchmark(args, digests, cli_jobs=None) -> dict:
    """Run one workload; returns the result object, the lines to print and
    the ledger. Outputs are compared with `digests` (a table as in
    digests.json) at the default seed and full size, unless it is None."""
    if not (ROOT / "src" / "confrel" / "__init__.py").is_file():
        raise Fail(f"no confrel sources under {ROOT / 'src'}")
    checked = (digests is not None and args.seed == plan.DEFAULT_SEED
               and args.size == "full")
    ledger = Ledger(digests.get(args.workload, {}) if checked else None)
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "cli-batch":
            run = run_cli(args, workdir, ledger, cli_jobs)
        else:
            run = run_library(args, workdir, ledger)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = [f"workload {args.workload} seed {args.seed} size {args.size} "
             f"seconds {args.seconds:g} trace {args.trace} "
             f"python {platform.python_version()} nproc {os.cpu_count()}"]
    if args.trace:
        values = per_layer(run)
        units = per_layer_units()
    else:
        values, (p, n, beyond) = end_to_end(run, args.workload)
        units = END_TO_END_UNITS
    ratio = ledger.failed / ledger.attempted
    for name, value in values.items():
        note = (f"  (p{p} of {n} jobs, {beyond} beyond)"
                if name == "job_tail_s" else "")
        shown = value if isinstance(value, int) else f"{value:.6g}"
        lines.append(f"{name} {shown} {units[name]}{note}")
    lines.append(f"failed_ratio {ratio:.6g} ratio "
                 f"({ledger.failed} of {ledger.attempted} jobs)")
    lines.extend(f"FAILED {m}" for m in ledger.messages)
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in values},
    }
    return {"result": result, "lines": lines, "ledger": ledger}


def record_digests(args) -> int:
    args.seconds, args.trace, args.size = 0.0, 0, "full"
    args.seed = plan.DEFAULT_SEED
    out = benchmark(args, None)
    if out["ledger"].failed:
        print("\n".join(out["lines"]), file=sys.stderr)
        raise Fail("not recording digests of a round with failed jobs")
    ledger_digests = out["ledger"].first
    table = load_digests()
    table[args.workload] = dict(sorted(ledger_digests.items()))
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
    print(f"recorded {len(ledger_digests)} digests for {args.workload}")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.record_digests:
            return record_digests(args)
        out = benchmark(args, load_digests())
    except (Fail, subprocess.TimeoutExpired) as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 2
    print("\n".join(out["lines"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
