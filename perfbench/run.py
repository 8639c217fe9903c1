"""Closed-loop benchmark of the operpop CLI, end to end and per layer.

One process, one thread: each job is ``operpop.cli.main([...])`` called
in-process on a problem file generated from ``--seed``, and starts after
the previous one finishes.  Every report is checked by code that shares
nothing with the engine (see checks.py).

    python3 perfbench/run.py --workload populate-weyl --seed 1 --seconds 30 --trace 0

``--trace 0`` times passes over the job list until ``--seconds`` would be
exceeded (at least one) and prints the end-to-end metrics.  ``--trace 1``
times one untraced and one traced pass and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans and a host
record are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 1
SETUP_REPEATS = 3
WORKLOADS = ("populate-weyl", "populate-kernel", "solve-verify")

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "results_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# What the traced run is expected to show, printed next to the measured shares.
PREDICTIONS = {
    "populate-weyl": {"liedata": (">=", 0.30), "miura": ("calls", 0), "solutions": ("calls", 0)},
    "populate-kernel": {
        "exactalg": (">=", 0.80),
        "liedata": ("<", 0.05),
        "miura": ("calls", 0),
        "solutions": ("calls", 0),
    },
    "solve-verify": {"liedata": ("<", 0.05)},
}


class SetupError(RuntimeError):
    pass


def import_engine() -> float:
    """Import operpop from the checkout's src/; returns the import time."""
    src = ROOT / "src"
    if not (src / "operpop" / "cli.py").is_file():
        raise SetupError(f"no operpop sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    start = time.perf_counter()
    import operpop.cli  # noqa: F401

    return time.perf_counter() - start


def call(job: workloads.Job) -> tuple[int | None, dict, float, float]:
    """Run one job; returns (exit code, report, wall s, cpu s)."""
    cli = sys.modules["operpop.cli"]
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        code = cli.main(job.argv)
    except Exception:  # a crash is a failed job, not a crashed benchmark
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        return None, {"error": traceback.format_exc()}, wall, cpu
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    try:
        report = json.loads(Path(job.argv[-1]).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        report = {"error": f"unreadable report: {exc}"}
    return code, report, wall, cpu


def build_jobs(workload: str, seed: int, small: bool, workdir: Path) -> list[workloads.Job]:
    """Generate the inputs; for solve-verify, also explore the seed populations."""
    rng = random.Random(seed)
    if workload == "populate-weyl":
        jobs = workloads.populate_weyl(rng, small)
    elif workload == "populate-kernel":
        jobs = workloads.populate_kernel(rng, small)
    else:
        seeds = workloads.solve_verify_seeds(rng, small)
        workloads.write_jobs(seeds, workdir, "seed")
        reports = []
        for job in seeds:
            code, report, _, _ = call(job)
            problems = checks.check_populate(code, report, job.problem)
            if problems:
                raise SetupError(f"set-up populate failed: {problems}")
            reports.append(report)
        jobs = workloads.solve_verify(seeds, reports, small)
    workloads.write_jobs(jobs, workdir, "job")
    return jobs


class Tally:
    """Checks every report and counts jobs, failures and results."""

    def __init__(self, digests: dict, update: bool):
        self.digests = digests
        self.update = update
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, job: workloads.Job, code, report: dict) -> list[str]:
        self.attempted += 1
        if job.command == "populate":
            problems = checks.check_populate(code, report, job.problem)
        elif job.command == "check":
            problems = checks.check_check(code, report)
        else:
            problems = checks.check_solution(code, report)
        digest = checks.result_digest(job.command, report)
        if digest is not None and not problems:
            key = checks.job_key(job.command, job.options, job.problem)
            if self.update:
                self.digests[key] = digest
            elif self.digests.get(key, digest) != digest:
                problems.append("result digest differs from the stored one")
        if problems:
            self.failed += 1
            self.errors.append(f"{job.command} {job.problem['lie_type']}{job.problem['rank']}: {problems}")
        return problems


def results_of(job: workloads.Job, report: dict) -> int:
    """Cells tabled by populate; one per verified solve/verify solution."""
    if job.command == "populate":
        return len(report.get("cells", []))
    return int(job.command in ("solve", "verify"))


def run_pass(jobs, tally: Tally) -> dict:
    gc.collect()
    walls, cpus, results, cells, fallbacks = [], [], 0, 0, 0
    for job in jobs:
        code, report, wall, cpu = call(job)
        walls.append(wall)
        cpus.append(cpu)
        if not tally.check(job, code, report):
            results += results_of(job, report)
            cells += len(report.get("cells", []))
            fallbacks += len(report.get("exceptional", []))
    return {
        "wall_s": sum(walls),
        "cpu_s": sum(cpus),
        "job_wall_s": walls,
        "results": results,
        "cells": cells,
        "fallbacks": fallbacks,
    }


def tail(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile (nearest rank) with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in range(99, 49, -1):
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return None


def fraction_reference_s(n: int = 10000) -> float:
    """A fixed pure-Python Fraction loop, to show host-speed drift."""
    start = time.perf_counter()
    for k in range(1, n):
        if Fraction(k, k + 1) * Fraction(k + 1, k + 2) != Fraction(k, k + 2):
            raise ArithmeticError("Fraction reference loop is wrong")
    return time.perf_counter() - start


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_state() -> dict:
    return {"loadavg": list(os.getloadavg()), "fraction_loop_s": fraction_reference_s()}


def layer_report(workload: str, layer_metrics: dict) -> list[str]:
    """Per-layer self-time shares next to the predictions."""
    total = sum(layer_metrics[f"{layer}.self_s"] for layer in tracing.LAYERS) or 1.0
    lines = [f"{'layer':<11} {'self share':>10} {'busy_s':>9} {'calls':>9}  prediction"]
    for layer in tracing.LAYERS:
        share = layer_metrics[f"{layer}.self_s"] / total
        calls = sum(
            v for k, v in layer_metrics.items() if k.startswith(layer + ".") and k.endswith(".calls")
        )
        verdict = ""
        if layer in PREDICTIONS.get(workload, {}):
            op, bound = PREDICTIONS[workload][layer]
            held = {">=": share >= bound, "<": share < bound, "calls": calls == bound}[op]
            text = f"{calls} calls" if op == "calls" else f"{op} {bound:.0%} of self time"
            verdict = f"{text}: {'held' if held else 'NOT HELD'}"
        lines.append(
            f"{layer:<11} {share:>10.1%} {layer_metrics[f'{layer}.busy_s']:>9.3f} {calls:>9}  {verdict}"
        )
    return lines


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    small: bool = False,
    update_digests: bool = False,
    out: Path = OUT,
) -> dict:
    """One benchmark run; prints a summary and returns the result object."""
    import_s = import_engine()
    out.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "small": small,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "before": host_state(),
    }
    digests = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    tally = Tally(digests, update_digests)
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            jobs = build_jobs(workload, seed, small, Path(tmp))
            setup_times.append(time.perf_counter() - start)
        setup_s = import_s + statistics.median(setup_times)

        passes: list[dict] = []
        started = time.perf_counter()
        while True:
            passes.append(run_pass(jobs, tally))
            longest = max(p["wall_s"] for p in passes)
            if trace or time.perf_counter() - started + longest > seconds:
                break
        if trace:
            tracer = tracing.Tracer()
            with tracer.installed():
                traced = run_pass(jobs, tally)
    if update_digests:
        DIGESTS.write_text(json.dumps(tally.digests, indent=1, sort_keys=True) + "\n")

    job_walls = [w for p in passes for w in p["job_wall_s"]]
    results = sum(p["results"] for p in passes)
    wall = statistics.median(p["wall_s"] for p in passes)
    summary = {
        "passes": len(passes),
        "jobs_per_pass": len(jobs),
        "wall_s": wall,
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "results_per_pass": passes[0]["results"],
        "results_per_s": results / sum(p["wall_s"] for p in passes),
        "setup_s": setup_s,
        "setup_runs_s": setup_times,
        "import_s": import_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "fail_ratio": tally.failed / tally.attempted,
        "job_p50_s": statistics.median(job_walls),
    }
    job_tail = tail(job_walls)
    if job_tail:
        summary["job_tail_s"] = {"percentile": job_tail[0], "value": job_tail[1], "samples": len(job_walls)}

    if trace:
        metrics = layer_metrics(tracer, traced, wall)
        spans_file = out / f"spans-{workload}-s{seed}.csv.gz"
        record["spans"] = tracer.write_spans(spans_file)
        record["spans_file"] = spans_file.name
        summary["traced_wall_s"] = traced["wall_s"]
    else:
        metrics = {name: summary[name] for name in END_TO_END_UNITS}
    units = {name: unit_of(name) for name in metrics}
    record["summary"] = summary
    record["metrics"] = metrics
    record["errors"] = tally.errors
    record["after"] = host_state()
    (out / f"record-{workload}-s{seed}-t{int(trace)}.json").write_text(json.dumps(record, indent=1) + "\n")

    print_summary(record, metrics, units)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def layer_metrics(tracer: tracing.Tracer, traced: dict, untraced_wall: float) -> dict:
    """The tracer's per-function and per-layer metrics plus derived ratios."""
    metrics = tracer.metrics()
    descents = metrics["population.descend_family.calls"]
    metrics["population.cells_per_descent"] = traced["cells"] / descents if descents else 0.0
    metrics["population.fallback_members"] = traced["fallbacks"]
    metrics["solutions.rep_builds"] = (
        metrics["solutions.rep_standard_sl.calls"] + metrics["solutions.rep_standard_sp.calls"]
    )
    metrics["tracing_overhead"] = traced["wall_s"] / untraced_wall
    return metrics


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith(".calls") or name in ("population.fallback_members", "solutions.rep_builds"):
        return "count"
    if name.endswith("_s"):
        return "s"
    return {"exactalg.max_degree": "degree", "exactalg.max_coeff_bits": "bits"}.get(name, "ratio")


def print_summary(record: dict, metrics: dict, units: dict) -> None:
    summary = record["summary"]
    workload = record["workload"]
    print(f"workload {workload}  seed {record['seed']}  trace {record['trace']}  "
          f"python {record['python']}  nproc {record['nproc']}  git {record['git_sha'][:12]}")
    for when in ("before", "after"):
        host = record[when]
        print(f"host {when}: load {host['loadavg']}  fraction loop {host['fraction_loop_s']:.4f} s")
    kind = "cells_per_s" if workload.startswith("populate") else "solutions_per_s"
    print(f"passes {summary['passes']} x {summary['jobs_per_pass']} jobs  "
          f"{kind} {summary['results_per_s']:.4f}  job_p50_s {summary['job_p50_s']:.4f}  "
          f"fail_ratio {summary['fail_ratio']:.4f}")
    if "job_tail_s" in summary:
        job_tail = summary["job_tail_s"]
        print(f"job_tail_s p{job_tail['percentile']} {job_tail['value']:.4f} (n={job_tail['samples']})")
    for error in record["errors"][:10]:
        print(f"FAILED {error}")
    if "spans" in record:
        print("\n".join(layer_report(workload, metrics)))
        print(f"{record['spans']} spans written to {record['spans_file']}")
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--update-digests",
        action="store_true",
        help="store this run's result digests in digests.json instead of checking them",
    )
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), update_digests=args.update_digests)
    except SetupError as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
