"""Smoke test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload at small size with tracing off and on, and checks
that each metric named in BENCHMARK.json is emitted with its unit.  Then
corrupts real reports (one cell dropped, one solution entry changed) and
checks that the benchmark's checks reject them.  Exits 0 when all pass.
"""

from __future__ import annotations

import copy
import json
import sys
import tempfile
from pathlib import Path

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def expect(condition: bool, message: str, failures: list[str]) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        failures.append(message)


def metric_names(failures: list[str], out: Path) -> None:
    wanted = {
        0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
        1: {m["name"]: m["unit"] for m in SPEC["per_layer"]},
    }
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            result = run.run(workload, run.DEFAULT_SEED, 1, bool(trace), small=True, out=out)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == wanted[trace], f"{workload} trace {trace}: metrics and units as named", failures)
            expect(result["correct"] and result["failed"] == 0, f"{workload} trace {trace}: correct", failures)


def corrupted_reports(failures: list[str], out: Path) -> None:
    run.import_engine()
    digests = json.loads(run.DIGESTS.read_text())
    with tempfile.TemporaryDirectory(dir=out) as kernel_dir, tempfile.TemporaryDirectory(dir=out) as solve_dir:
        populate = run.build_jobs("populate-kernel", run.DEFAULT_SEED, False, Path(kernel_dir))[-1]
        solve = next(
            job
            for job in run.build_jobs("solve-verify", run.DEFAULT_SEED, False, Path(solve_dir))
            if job.command == "solve"
        )
        for job, corrupt, what in (
            (populate, lambda r: r["cells"].pop(), "populate report with one cell dropped"),
            (solve, _change_entry, "solve report with one solution entry changed"),
        ):
            code, report, _, _ = run.call(job)
            tally = run.Tally(digests, update=False)
            expect(not tally.check(job, code, report), f"genuine {job.command} report accepted", failures)
            bad = copy.deepcopy(report)
            corrupt(bad)
            expect(bool(tally.check(job, code, bad)), f"{what} rejected", failures)


def _change_entry(report: dict) -> None:
    entry = report["solution"][0][0]
    key = next(iter(entry))
    entry[key] = entry[key] + " + 1"


def main() -> int:
    failures: list[str] = []
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        metric_names(failures, Path(tmp))
        corrupted_reports(failures, Path(tmp))
    print(f"{len(failures)} self-test failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
