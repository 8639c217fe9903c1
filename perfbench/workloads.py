"""Job lists of the benchmark workloads, generated from a seed.

A job is one ``operpop`` CLI call on a generated problem file.  Points are
distinct small integers, so the cost of a job is set by degrees and Weyl
group size rather than by coefficient height, which the seed would
otherwise swing widely.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

# Points are drawn from this range.
POINT_RANGE = range(-2, 3)

# Point sets per weighted problem.  Several per pass average out the
# seed-to-seed swing in the cost of a single point set.
KERNEL_CONFIGS = 6
SOLVE_CONFIGS = 2


@dataclass
class Job:
    command: str
    problem: dict
    options: list[str] = field(default_factory=list)
    argv: list[str] = field(default_factory=list)  # set by write_jobs


def _problem(family: str, rank: int, weights, points) -> dict:
    return {
        "lie_type": family,
        "rank": rank,
        "weights": [list(w) for w in weights],
        "points": [str(z) for z in points],
        "tuple": [["1"] for _ in range(rank)],
    }


def _point_sets(rng: random.Random, n_points: int, count: int) -> list[tuple[int, ...]]:
    """`count` different ordered tuples of distinct points."""
    every = list(itertools.permutations(POINT_RANGE, n_points))
    return rng.sample(every, count)


def populate_weyl(rng: random.Random, small: bool) -> list[Job]:
    """Zero-weight populations: no points, so the seed does not matter."""
    shapes = [("A", 3), ("B", 2)] if small else [("A", 5), ("D", 4)]
    return [Job("populate", _problem(f, r, [], [])) for f, r in shapes]


KERNEL_PROBLEMS = [
    ("G", 2, [[1, 0], [0, 1]]),
    ("C", 3, [[1, 0, 0], [0, 0, 1]]),
    ("B", 2, [[1, 0], [0, 1], [1, 1]]),
]


def populate_kernel(rng: random.Random, small: bool) -> list[Job]:
    """Weighted low-rank populations with high-degree members."""
    problems = KERNEL_PROBLEMS[2:] if small else KERNEL_PROBLEMS
    configs = 1 if small else KERNEL_CONFIGS
    return [
        Job("populate", _problem(f, r, w, points))
        for f, r, w in problems
        for points in _point_sets(rng, len(w), configs)
    ]


SOLVE_PROBLEMS = [
    ("A", 3, [[1, 0, 0], [0, 0, 1]]),
    ("B", 2, [[1, 0], [0, 1]]),
]


def solve_verify_seeds(rng: random.Random, small: bool) -> list[Job]:
    """The populate jobs of the set-up; their cell samples feed solve_verify."""
    problems = SOLVE_PROBLEMS[1:] if small else SOLVE_PROBLEMS
    configs = 1 if small else SOLVE_CONFIGS
    return [
        Job("populate", _problem(f, r, w, points))
        for f, r, w in problems
        for points in _point_sets(rng, len(w), configs)
    ]


def solve_verify(seed_jobs: list[Job], reports: list[dict], small: bool) -> list[Job]:
    """check, solve and verify --path 1 on every cell sample."""
    jobs = []
    for seed_job, report in zip(seed_jobs, reports):
        cells = report["cells"][:2] if small else report["cells"]
        for cell in cells:
            problem = dict(seed_job.problem, tuple=cell["sample"])
            jobs.append(Job("check", problem))
            jobs.append(Job("solve", problem))
            jobs.append(Job("verify", problem, ["--path", "1"]))
    return jobs


def write_jobs(jobs: list[Job], directory: Path, prefix: str) -> None:
    """Write each job's problem file and set its CLI argument list."""
    for n, job in enumerate(jobs):
        src = directory / f"{prefix}{n}.json"
        src.write_text(json.dumps(job.problem), encoding="utf-8")
        out = directory / f"{prefix}{n}.out.json"
        job.argv = [job.command, str(src), *job.options, "--output", str(out)]
