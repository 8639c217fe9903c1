"""Batch front-end: JSON problem files in, JSON reports out.

Problem file schema (polynomial coefficient lists are ascending):

    {
      "lie_type": "A",
      "rank": 1,
      "weights": [[1], [1]],
      "points": ["0", "1"],
      "tuple": [["1/4", "-1/2", "1"]],
      "path": [1],                      # optional, node indices in 1..rank
      "bethe": [["1/2"]]               # optional explicit coordinates
    }

A rational is a JSON integer or a string "p" or "p/q" such as "-3/7";
booleans, floats, null, lists and objects are not.  `rank`, the weight
coordinates (>= 0) and the `path` entries are integers.  The rank is at
most MAX_RANK = 64, and for each node i, deg T_i (the sum of the i-th
weight coordinates) is at most MAX_T_DEGREE = 256.  Any other field is
rejected.  `--output` is opened before any work.

Subcommands: check, descend, populate, solve, verify.  solve runs the
general builder along the path when one is given (`path` or `--path`, even
an empty one) and on types other than A and B, else the A or B matrix
builder; verify is solve with the path defaulting to the empty one.
Exit codes: 0 success; 1 negative verdict (not fertile, reproduction,
exploration or verification failed); 2 `InputError` (a bad file, document
or option), colliding bethe coordinates or the general builder on G2, F4
or E8, whose duals have no minuscule representation.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
import time
from fractions import Fraction
from typing import Optional, Sequence, TextIO

from .exactalg import Poly
from .critical import (
    BetheConfig,
    CollisionError,
    FertilityError,
    PolyTuple,
    ProblemData,
    bethe_residuals,
    fertility_direction,
    is_generic,
)
from .liedata import CartanError, cartan_data, is_dominant_integral
from .population import ExplorationError, ReproductionError, descend, explore
from .solutions import (
    UnsupportedTypeError,
    VerificationError,
    solution_A,
    solution_BC,
    solution_general,
)


class InputError(ValueError):
    """The problem file, the problem document or an option is malformed."""


FIELDS = ("lie_type", "rank", "weights", "points", "tuple", "path", "bethe")

# Bound on deg T_i.  T_i expands (x - z)^m exactly; at z = 1/3 that takes
# about 1 s for deg T = 256 and 13 s for 1000 (2 vCPU, Python 3.11).
MAX_T_DEGREE = 256

# Bound on the rank.  The inverse Cartan matrix is dense r x r over Q: at
# r = 64 its Gauss-Jordan elimination takes about 1.1 s, and a zero-weight
# A_100 `check` took 11 s and A_200 78 s (2 vCPU, Python 3.11).
MAX_RANK = 64

# Exponent forms such as "1e10000000" are left out: Fraction would spend
# unbounded time expanding them.
_RATIONAL = re.compile(r"\s*[+-]?[0-9]+(/[0-9]+)?\s*")


def _frac(value, where: str) -> Fraction:
    if type(value) is int or isinstance(value, str) and _RATIONAL.fullmatch(value):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):  # over 4300 digits, or "p/0"
            pass
    raise InputError(f"{where}: {value!r} is not an exact rational")


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise InputError(f"{where} must be a list")
    return value


def _index(value, rank: int, where: str) -> int:
    if type(value) is not int or not 1 <= value <= rank:
        raise InputError(f"{where}: {value!r} is not an index in 1..{rank}")
    return value


def parse_problem(doc: dict) -> tuple[ProblemData, PolyTuple, dict]:
    """Validate a problem document; returns (problem, tuple, extras).

    Every check runs before the Cartan data are built, and a failed one
    raises InputError.
    """
    if not isinstance(doc, dict):
        raise InputError("problem document must be a key-value tree")
    unknown = sorted(set(doc) - set(FIELDS))
    if unknown:
        raise InputError(f"unknown fields {unknown}")
    for key in FIELDS[:5]:  # path and bethe are optional
        if key not in doc:
            raise InputError(f"missing field {key!r}")
    rank = doc["rank"]
    if type(rank) is not int or rank < 1:
        raise InputError("rank must be a positive integer")
    weights = []
    for s, w in enumerate(_list(doc["weights"], "weights"), start=1):
        weights.append(tuple(_frac(v, f"weights[{s}]") for v in _list(w, f"weights[{s}]")))
        if len(w) != rank or not is_dominant_integral(weights[-1]):
            raise InputError(f"weights[{s}]: expected {rank} non-negative integers")
    for i, deg_t in enumerate(map(sum, zip(*weights)), start=1):
        if deg_t > MAX_T_DEGREE:
            raise InputError(f"weights: deg T_{i} = {deg_t} exceeds {MAX_T_DEGREE}")
    points = [_frac(z, f"points[{s}]") for s, z in enumerate(_list(doc["points"], "points"), start=1)]
    if len(set(points)) != len(points) or len(points) != len(weights):
        raise InputError("points must be pairwise distinct, one per weight")
    coeff_lists = _list(doc["tuple"], "tuple")
    if len(coeff_lists) != rank:
        raise InputError(f"tuple: expected {rank} coefficient lists")
    if rank > MAX_RANK:
        raise InputError(f"rank {rank} exceeds {MAX_RANK}")
    polys = []
    for i, coeffs in enumerate(coeff_lists, start=1):
        poly = Poly(_frac(c, f"tuple[{i}]") for c in _list(coeffs, f"tuple[{i}]"))
        if poly.is_zero():
            raise InputError(f"tuple[{i}] is the zero polynomial")
        polys.append(poly)

    extras = {}
    if doc.get("path") is not None:
        extras["path"] = [_index(i, rank, "path") for i in _list(doc["path"], "path")]
    if doc.get("bethe") is not None:
        groups = _list(doc["bethe"], "bethe")
        if len(groups) != rank:
            raise InputError("bethe: one coordinate group per node required")
        extras["bethe"] = BetheConfig.of(
            [[_frac(t, "bethe") for t in _list(group, "bethe")] for group in groups]
        )
    if type(doc["lie_type"]) is not str:  # cartan_data is cached, so its arguments must hash
        raise InputError("lie_type must be a family letter A-G")
    try:
        cartan = cartan_data(doc["lie_type"], rank)
    except CartanError as exc:
        raise InputError(str(exc)) from exc
    p = ProblemData(cartan=cartan, weights=tuple(weights), points=tuple(points))
    return p, PolyTuple(polys), extras


def echo_problem(p: ProblemData, y: PolyTuple, extras: dict) -> dict:
    doc = {
        "lie_type": p.cartan.family,
        "rank": p.cartan.rank,
        "weights": [[str(v) for v in w] for w in p.weights],
        "points": [str(z) for z in p.points],
        "tuple": [poly.coeff_strs() for poly in y.polys],
    }
    if "path" in extras:
        doc["path"] = list(extras["path"])
    if "bethe" in extras:
        doc["bethe"] = [[str(t) for t in group] for group in extras["bethe"].coordinates]
    return doc


def _twisted_entry(v) -> dict:
    """{"q_1,...,q_r": coefficient string} for v = coeff * T^q; {} for zero."""
    return {} if v.is_zero() else {",".join(str(e) for e in v.q): str(v.coeff)}


def cmd_check(p: ProblemData, y: PolyTuple, extras: dict, report: dict) -> int:
    generic = is_generic(y, p)
    report["generic"] = bool(generic)
    if generic.reason:
        report["generic_reason"] = generic.reason
    directions = []
    fertile = True
    for i in range(1, p.rank + 1):
        entry = {"direction": i}
        try:
            tilde = fertility_direction(y, i, p)
        except FertilityError as exc:
            entry["fertile"] = False
            entry["error"] = str(exc)
            fertile = False
        else:
            if tilde is None:
                entry["fertile"] = False
                fertile = False
            else:
                entry["fertile"] = True
                entry["canonical"] = tilde.coeff_strs()
        directions.append(entry)
    report["fertile"] = fertile
    report["directions"] = directions
    if "bethe" in extras:
        try:
            residuals = bethe_residuals(extras["bethe"], p)
        except CollisionError as exc:
            report["error"] = str(exc)
            return 2
        report["bethe_residuals"] = [str(v) for v in residuals]
        report["critical"] = all(v == 0 for v in residuals)
    return 0 if fertile else 1


def cmd_descend(p: ProblemData, y: PolyTuple, extras: dict, report: dict, direction: int, param) -> int:
    child = descend(y, direction, param, p)
    report["direction"] = direction
    report["parameter"] = [str(param[0]), str(param[1])]
    report["descendant"] = [q.coeff_strs() for q in child.polys]
    report["descendant_generic"] = bool(is_generic(child, p))
    return 0


def cmd_populate(p: ProblemData, y: PolyTuple, extras: dict, report: dict, max_cells: Optional[int]) -> int:
    summary = explore(y, p, max_cells=max_cells)
    # cells share most entries with their neighbours: render each distinct one once
    strs: dict[Poly, list[str]] = {}
    rows = []
    for degs in sorted(summary.cells):
        cell = summary.cells[degs]
        sample = []
        for q in cell.sample.polys:
            if (s := strs.get(q)) is None:
                s = strs[q] = q.coeff_strs()
            sample.append(s)
        rows.append(
            {
                "degrees": list(degs),
                "weyl_word": list(cell.word),
                "length": cell.dimension,
                "sample": sample,
            }
        )
    report["base_degrees"] = list(summary.base_degrees)
    report["cells"] = rows
    report["cell_count"] = len(rows)
    report["exceptional"] = list(summary.exceptional)
    return 0


def _solve(p: ProblemData, y: PolyTuple, extras: dict, report: dict) -> int:
    path = extras.get("path")
    try:
        if path is None and p.cartan.family == "A":
            builder, entries = "sl", solution_A(y, p).rows
        elif path is None and p.cartan.family == "B":
            builder, entries = "sp", solution_BC(y, p).rows
        else:
            builder, entries = "general", [[v] for v in solution_general(y, path or [], p)]
    except UnsupportedTypeError as exc:
        report["error"] = f"general builder: {exc}"
        return 2
    except (ReproductionError, FertilityError) as exc:
        report["error"] = str(exc)
        return 1
    except VerificationError as exc:
        report["error"] = str(exc)
        report["verification"] = "failed"
        return 1
    report["builder"] = builder
    report["solution"] = [[_twisted_entry(v) for v in row] for row in entries]
    report["verification"] = "DY=0: exact"
    return 0


def cmd_verify(p: ProblemData, y: PolyTuple, extras: dict, report: dict) -> int:
    generic = is_generic(y, p)
    report["generic"] = bool(generic)
    report["oper_pairings"] = "exact"
    try:
        return _solve(p, y, {"path": [], **extras}, report)
    except AssertionError as exc:  # the builder's oper is built first and checks its pairings
        report["oper_pairings"] = str(exc)
        return 1


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises InputError instead of exiting."""

    def error(self, message: str):
        raise InputError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    `parse_args` leaves the parser unchanged and fills a new namespace on
    every call, so one parser serves any number of `main` calls.
    """
    parser = _Parser(
        prog="operpop",
        description="Exact checks, reproduction, population tables and oper solutions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("check", "descend", "populate", "solve", "verify"):
        cmd = sub.add_parser(name)
        cmd.add_argument("file", help="JSON problem file")
        cmd.add_argument("--output", help="write the report to this path instead of stdout")
        if name == "descend":
            cmd.add_argument("--direction", type=int, required=True)
            cmd.add_argument("--param", default="1:0", help="projective parameter c1:c2")
        if name == "populate":
            cmd.add_argument("--max-cells", type=int, default=None)
        if name in ("solve", "verify"):
            cmd.add_argument("--path", default=None, help="comma-separated direction indices")
    return parser


def _request(args: argparse.Namespace) -> tuple[ProblemData, PolyTuple, dict]:
    """Read and check the problem file and the options; raises InputError.

    On return a `--path` has replaced the document's path in the extras,
    and `args.param` of descend is a checked pair of Fractions.
    """
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError: bad JSON or UTF-8, an int over 4300 digits; RecursionError: deep nesting
        raise InputError(f"cannot read problem file: {exc}") from exc
    p, y, extras = parse_problem(doc)
    if getattr(args, "path", None) is not None:
        path = [_frac(v, "--path") for v in args.path.split(",") if v != ""]
        extras["path"] = [_index(int(i) if i.denominator == 1 else i, p.rank, "--path") for i in path]
    if args.command == "descend":
        _index(args.direction, p.rank, "--direction")
        c1, _, c2 = args.param.partition(":")
        args.param = (_frac(c1, "--param"), _frac(c2, "--param"))
        if args.param == (0, 0):
            raise InputError("--param: (0 : 0) is not a projective parameter")
    if args.command == "populate" and args.max_cells is not None and args.max_cells < 1:
        raise InputError("--max-cells must be at least 1")
    return p, y, extras


def main(argv: Optional[Sequence[str]] = None) -> int:
    started = time.perf_counter()
    report: dict = {}
    output = None
    try:
        args = build_parser().parse_args(argv)
        report["command"] = args.command
        if args.output:
            try:  # append mode: the problem file may be the report path; _emit truncates
                output = open(args.output, "a", encoding="utf-8")
            except OSError as exc:
                raise InputError(f"cannot open --output: {exc}") from exc
        p, y, extras = _request(args)
    except InputError as exc:
        report["error"] = str(exc)
        _emit(report, output, started)
        return 2
    report["problem"] = echo_problem(p, y, extras)
    try:
        if args.command == "check":
            code = cmd_check(p, y, extras, report)
        elif args.command == "descend":
            code = cmd_descend(p, y, extras, report, args.direction, args.param)
        elif args.command == "populate":
            code = cmd_populate(p, y, extras, report, args.max_cells)
        elif args.command == "solve":
            code = _solve(p, y, extras, report)
        else:
            code = cmd_verify(p, y, extras, report)
    except (ReproductionError, FertilityError, CollisionError, ExplorationError) as exc:
        report["error"] = str(exc)
        code = 1
    _emit(report, output, started)
    return code


def _emit(report: dict, output: Optional[TextIO], started: float) -> None:
    report["elapsed_s"] = round(time.perf_counter() - started, 6)
    text = json.dumps(report)  # one line: without indent, json uses its C encoder
    if output is None:
        try:
            print(text, flush=True)
        except BrokenPipeError:
            # the reader closed stdout (`operpop populate f4.json | head`): point
            # it at devnull, so that the flush at interpreter exit raises nothing
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
    else:
        with output:
            output.truncate(0)
            output.write(text + "\n")


if __name__ == "__main__":
    sys.exit(main())
