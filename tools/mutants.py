"""Mutation sweep over the checks of `src/operpop`.

Each mutant is a one-line edit (file, old text, new text) of a check or a
kernel step.  It is applied to a fresh copy of the repository, and the named
test files run there with `pytest -x`; a failing test kills it.  An
equivalent mutant (one no test can kill, because the behaviour is unchanged)
carries the one-line reason.  A change that adds a check adds its mutant.

    python tools/mutants.py           # every mutant, about 2 minutes
    python tools/mutants.py M5 M13    # the named ones

M1, M5, M8, M10 and M13 keep the numbers of the first hand-run sweep.

Prints one line per mutant: killed with the first failing test, survived,
or stale (the old text no longer occurs exactly once).  Exits 1 if a mutant
that is not equivalent survives or is stale.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple, Optional

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "README.md", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    file: str  # under src/operpop
    old: str
    new: str
    tests: tuple[str, ...]  # pytest arguments: files or node ids
    equivalent: Optional[str] = None


POPULATION = ("tests/test_population.py",)
BETHE = ("tests/test_sympy_oracles.py::test_population_samples_satisfy_the_bethe_divisibility",)
EXACT = ("tests/test_exactalg.py", "tests/test_sympy_oracles.py")

MUTANTS = (
    # M1 (`_validate_rep` without its nilpotency check) left with the check itself
    Mutant(
        "fertility-squarefree-check", "critical.py", "    if not squarefree(y[i - 1]):\n", "    if False:\n",
        ("tests/test_critical.py", *POPULATION),
    ),
    Mutant(
        "genericity-squarefree-check", "critical.py", "        if not squarefree(y[i]):\n", "        if False:\n",
        ("tests/test_critical.py", *POPULATION),
    ),
    Mutant(
        "genericity-linked-edge", "critical.py", "if p.cartan.a[i][j] != 0 and poly_gcd",
        "if p.cartan.a[i][j] == 0 and poly_gcd", ("tests/test_critical.py", *POPULATION),
    ),
    # the lowering-descent scan: a member u + c y_i has the degree of y_i, not of the cell
    Mutant("M5", "population.py", "    if degree > key[i - 1]:", "    if True:", POPULATION),
    Mutant(
        "degree-prediction-check", "population.py", "(degree := u.degree()) != ckey[i - 1]:",
        "(degree := u.degree()) != ckey[i - 1] and False:", POPULATION,
    ),
    Mutant(
        "child-genericity-shortcut", "population.py", "return squarefree(entry) if sample_generic",
        "return True if sample_generic", POPULATION,
    ),
    Mutant(
        "M8", "population.py", "jump = 1 if ckey[i - 1] > key[i - 1]", "jump = 1 if ckey[i - 1] >= key[i - 1]",
        POPULATION, equivalent="equal degrees at i mean ckey == key, which is already seen",
    ),
    Mutant(
        "rep-ef-bracket-check", "solutions.py", "            if _bracket(rep.E[i], rep.F[j]) != rhs:",
        "            if False:", ("tests/test_solutions.py",),
    ),
    Mutant("M10", "cli.py", "if deg_t > MAX_T_DEGREE:", "if deg_t > MAX_T_DEGREE + 1:", ("tests/test_cli.py",)),
    Mutant("rank-bound", "cli.py", "if rank > MAX_RANK:", "if rank > MAX_RANK + 1:", ("tests/test_cli.py",)),
    Mutant(
        "verify-check", "solutions.py", "    if _identity_holds(partial(_residuals",
        "    if True or _identity_holds(partial(_residuals", ("tests/test_solutions.py", "tests/test_cli.py"),
    ),
    # one entry's numerator left off the column's common denominator
    Mutant(
        "common-denominator-skips-a-cofactor", "solutions.py", "[v.num if v.den == den else",
        "[v.num if v.den == den or v is col[-1] else", ("tests/test_solutions.py",),
    ),
    Mutant("M13", "critical.py", "            if v in p.points:", "            if False:", ("tests/test_critical.py",)),
    Mutant(
        "oper-pairing-check", "miura.py", "        if not _identity_holds(partial(_pairing_residual",
        "        if False and not _identity_holds(partial(_pairing_residual",
        ("tests/test_miura.py", "tests/test_cli.py"),
    ),
    # labels always from the walk, and `_orbit` taking a None step for a point
    Mutant(
        "labels-from-walk", "population.py", "    if dropped or seed.degrees != base_degrees:", "    if False:",
        POPULATION,
    ),
    Mutant(
        "orbit-none-is-a-point", "liedata.py", "if image is not None and image not in seen:", "if image not in seen:",
        ("tests/test_liedata.py", *POPULATION),
    ),
    Mutant(
        "rhs-drops-constant-entry", "critical.py", "        if e:\n            N = y[j - 1]",
        "        if e and y[j - 1].degree():\n            N = y[j - 1]",
        ("tests/test_critical.py", "tests/test_solutions.py"),
    ),
    Mutant(
        "memo-key-without-links", "population.py", "descent = (i, sample[i - 1], *[sample[j] for j in linked[i - 1]])",
        "descent = (i, sample[i - 1])", POPULATION,
    ),
    Mutant(
        "squarefree-degree-1", "exactalg.py", "poly_gcd(f, f.derivative()).degree() == 0",
        "poly_gcd(f, f.derivative()).degree() <= 1", EXACT,
    ),
    Mutant(
        "type-a-paths-reversed", "solutions.py", "[range(i, p.rank + 1) for i in range(1, p.rank + 2)]",
        "[range(p.rank, i - 1, -1) for i in range(1, p.rank + 2)]", ("tests/test_solutions.py",),
    ),
    Mutant(
        "rhs-sign", "solutions.py", "RatFunc(step.rhs, entries[step.index - 1] * step.diagonal)",
        "RatFunc(-step.rhs, entries[step.index - 1] * step.diagonal)", ("tests/test_solutions.py",),
    ),
    # the exact quotient: a step whose top coefficient lc(h) does not divide, and the final remainder
    Mutant(
        "gcd-no-trial-division", "exactalg.py", "        if r:\n            return None\n",
        "        if False:\n            return None\n", EXACT,
    ),
    Mutant(
        "exact-quotient-no-remainder", "exactalg.py", "    if any(rem[:n]):\n        return None\n",
        "    if False:\n        return None\n", EXACT,
    ),
    Mutant(
        "gcd-xi-4", "exactalg.py", "k = (1 + min(max(map(abs, F)), max(map(abs, G)))).bit_length() + 17", "k = 2",
        EXACT,
    ),
    # the identity decision: every identity zero, and x = 2^k below the root bound
    Mutant("identity-always-zero", "exactalg.py", "    return not any(formula(*values))", "    return True", EXACT),
    Mutant("identity-exponent-unbounded", "exactalg.py", "    k = (bound + 1).bit_length()", "    k = 2", EXACT),
    Mutant("quotient-constant-lc-e", "exactalg.py", "lead ** (e + 1) * f._den", "lead ** e * f._den", EXACT),
    Mutant("partner-no-residual", "exactalg.py", "    if any(rem):\n", "    if False:\n", EXACT),
    # one coefficient off, each against the Bethe divisibility oracle alone
    Mutant("partner-coefficient", "exactalg.py", "        u[k] = c\n", "        u[k] = c + (k == 0)\n", BETHE),
    Mutant(
        "canonical-partner-coefficient", "critical.py", "return None if u is None else u.monic()",
        "return None if u is None else (u + Poly.one()).monic()", BETHE,
    ),
    # the report path after `_verify`, against the D Y = 0 report oracle alone
    Mutant(
        "twist-keys-reversed", "cli.py", '",".join(str(e) for e in v.q)', '",".join(str(e) for e in reversed(v.q))',
        ("tests/test_sympy_oracles.py",),
    ),
)


def run(m: Mutant) -> tuple[str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for part in COPIED:
            source = ROOT / part
            if source.is_dir():
                shutil.copytree(source, copy / part, ignore=shutil.ignore_patterns("__pycache__", "out"))
            else:
                shutil.copy(source, copy / part)
        target = copy / "src" / "operpop" / m.file
        text = target.read_text()
        if text.count(m.old) != 1:
            return "stale", f"{m.old!r} does not occur once in {m.file}"
        target.write_text(text.replace(m.old, m.new))
        env = {**os.environ, "PYTHONPATH": str(copy / "src")}
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *m.tests]
        proc = subprocess.run(argv, cwd=copy, env=env, capture_output=True, text=True)
    if proc.returncode == 0:
        return "survived", f"equivalent: {m.equivalent}" if m.equivalent else ""
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.M)
    return "killed", failed.group(1) if failed else f"exit {proc.returncode}"


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    bad = 0
    for m in MUTANTS:
        if names and m.name not in names:
            continue
        outcome, detail = run(m)
        bad += outcome == "stale" or (outcome == "survived" and not m.equivalent)
        print(f"{m.name:32} {outcome:8} {detail}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
