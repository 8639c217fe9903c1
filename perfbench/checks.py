"""Checks on CLI reports that share no code with the engine.

Weyl-group facts come from a hard-coded table of the degrees d_i of W:
|W| is their product, and the number of elements of each length is the
coefficient of q^length in prod_i (1 + q + ... + q^(d_i - 1)).  Each
check returns a list of problems; an empty list means the report passed.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter

# Degrees of the basic invariants of the Weyl group, per (family, rank),
# for the types the workloads populate.
WEYL_DEGREES = {
    ("A", 3): (2, 3, 4),
    ("A", 5): (2, 3, 4, 5, 6),
    ("B", 2): (2, 4),
    ("C", 3): (2, 4, 6),
    ("D", 4): (2, 4, 4, 6),
    ("G", 2): (2, 6),
}


def poincare_coefficients(degrees) -> list[int]:
    """Coefficients of prod_i (1 + q + ... + q^(d_i - 1)), ascending."""
    coeffs = [1]
    for d in degrees:
        out = [0] * (len(coeffs) + d - 1)
        for k, c in enumerate(coeffs):
            for j in range(d):
                out[k + j] += c
        coeffs = out
    return coeffs


def check_populate(code: int, report: dict, problem: dict) -> list[str]:
    """Cell count |W|, length histogram = Poincare polynomial, lengths = word lengths."""
    if code != 0:
        return [f"exit code {code}: {report.get('error')}"]
    degrees = WEYL_DEGREES[(problem["lie_type"], problem["rank"])]
    order = math.prod(degrees)
    cells = report.get("cells", [])
    problems = []
    if report.get("cell_count") != order or len(cells) != order:
        problems.append(f"{len(cells)} cells, |W| = {order}")
    lengths = Counter(cell["length"] for cell in cells)
    histogram = [lengths.get(k, 0) for k in range(max(lengths, default=0) + 1)]
    if histogram != poincare_coefficients(degrees):
        problems.append(f"length histogram {histogram} is not the Poincare polynomial")
    for cell in cells:
        if cell["length"] != len(cell["weyl_word"]):
            problems.append(f"cell {cell['degrees']}: length {cell['length']} != word length")
        if [len(c) - 1 for c in cell["sample"]] != cell["degrees"]:
            problems.append(f"cell {cell['degrees']}: sample degrees differ")
    if len({tuple(cell["degrees"]) for cell in cells}) != len(cells):
        problems.append("repeated degree vectors")
    return problems


def check_solution(code: int, report: dict) -> list[str]:
    if code != 0:
        return [f"exit code {code}: {report.get('error')}"]
    if report.get("verification") != "DY=0: exact":
        return [f"verification {report.get('verification')!r}"]
    if not report.get("solution"):
        return ["empty solution"]
    return []


def check_check(code: int, report: dict) -> list[str]:
    if code != 0:
        return [f"exit code {code}: {report.get('error')}"]
    if report.get("fertile") is not True:
        return ["not fertile"]
    return []


def _sha(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def job_key(command: str, options: list[str], problem: dict) -> str:
    """Identifies a job by its subcommand, options and problem document."""
    return _sha([command, options, problem])[:24]


def result_digest(command: str, report: dict) -> str | None:
    """sha256 of the mathematical content; timing and `exceptional` excluded."""
    if command == "populate":
        fields = ("degrees", "weyl_word", "length", "sample")
        return _sha([[cell[f] for f in fields] for cell in report.get("cells", [])])
    if command in ("solve", "verify"):
        return _sha(report.get("solution"))
    return None
