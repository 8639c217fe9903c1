"""Shared desk-scale problems and curated rational critical points.

The curated configurations were derived by solving the critical-point
system by hand (they are all weighted-average / two-node eliminations);
the tests recheck them through `bethe_residuals`, so nothing is trusted.
"""

from fractions import Fraction as F

import pytest
import sympy

from operpop.exactalg import Poly
from operpop.critical import PolyTuple, problem


def sympy_matrix(entries, n):
    """The n x n sympy matrix with the given (row, col, value) entries."""
    return sympy.SparseMatrix(n, n, {(a, b): sympy.Rational(v) for a, b, v in entries})


def sympy_diag(values):
    return sympy.diag(*[sympy.Rational(v) for v in values])


@pytest.fixture(scope="session")
def half_problem():
    """sl_2, weights (1),(1) at 0,1; critical tuple (x - 1/2)."""
    return problem("A", 1, [[1], [1]], [0, 1])


@pytest.fixture(scope="session")
def half_tuple():
    return PolyTuple([Poly([F(-1, 2), 1])])


@pytest.fixture(scope="session")
def a2_problem():
    """sl_3, weights (1,0)@0 and (0,1)@1; critical tuple (x-1/3, x-2/3)."""
    return problem("A", 2, [[1, 0], [0, 1]], [0, 1])


@pytest.fixture(scope="session")
def a2_tuple():
    return PolyTuple([Poly([F(-1, 3), 1]), Poly([F(-2, 3), 1])])


@pytest.fixture(scope="session")
def b2_problem():
    """so_5, weights (1,0)@0 and (0,1)@5; critical tuple (x-2, x-4)."""
    return problem("B", 2, [[1, 0], [0, 1]], [0, 5])


@pytest.fixture(scope="session")
def b2_tuple():
    return PolyTuple([Poly([-2, 1]), Poly([-4, 1])])


@pytest.fixture(scope="session")
def a3_problem():
    """sl_4, weights (1,0,0) at 0 and 1; critical tuple (x-1/2, 1, 1)."""
    return problem("A", 3, [[1, 0, 0], [1, 0, 0]], [0, 1])


@pytest.fixture(scope="session")
def a3_tuple():
    return PolyTuple([Poly([F(-1, 2), 1]), Poly.one(), Poly.one()])


# Rational-root critical configurations: (family, rank, weights, points,
# bethe coordinate groups).  Each was obtained by hand from the two-term
# eliminations of the critical system.
CURATED_CRITICAL = {
    "A1": [
        ("A", 1, [[1], [1]], ["0", "1"], [["1/2"]]),
        ("A", 1, [[1], [3]], ["0", "1"], [["1/4"]]),
        ("A", 1, [[3], [1]], ["0", "1"], [["3/4"]]),
        ("A", 1, [[1], [1]], ["0", "3"], [["3/2"]]),
        ("A", 1, [[2], [2]], ["0", "1"], [["1/2"]]),
    ],
    "A2": [
        ("A", 2, [[1, 0], [0, 1]], ["0", "1"], [["1/3"], ["2/3"]]),
        ("A", 2, [[1, 0], [0, 1]], ["0", "3"], [["1"], ["2"]]),
        ("A", 2, [[1, 0], [0, 1]], ["0", "-3"], [["-1"], ["-2"]]),
        ("A", 2, [[0, 1], [1, 0]], ["0", "3"], [["2"], ["1"]]),
        ("A", 2, [[1, 0], [1, 0]], ["0", "1"], [["1/2"], []]),
    ],
    "B2": [
        ("B", 2, [[1, 0], [0, 1]], ["0", "5"], [["2"], ["4"]]),
        ("B", 2, [[1, 0], [0, 1]], ["0", "5/2"], [["1"], ["2"]]),
        ("B", 2, [[0, 1], [1, 0]], ["0", "5"], [["3"], ["1"]]),
        ("B", 2, [[1, 0], [1, 0]], ["0", "1"], [["1/2"], []]),
        ("B", 2, [[0, 1], [0, 1]], ["0", "1"], [[], ["1/2"]]),
    ],
}


# Cases for the twisted-field residual (test_solutions) and the oper oracle
# (test_miura): problem and tuple fixtures, or family and rank of a
# zero-weight problem; a path.
RESIDUAL_CASES = {
    "half": (("half_problem", "half_tuple"), [1]),
    "a2": (("a2_problem", "a2_tuple"), [1, 2]),
    "a3": (("a3_problem", "a3_tuple"), [1, 2, 3]),
    "b2": (("b2_problem", "b2_tuple"), [2, 1]),
    "a3_zero_weight": (("A", 3), [3, 2, 1]),
    "b3_zero_weight": (("B", 3), [1, 2, 3]),
    "c3_zero_weight": (("C", 3), [3, 2, 1]),
    "d4_zero_weight": (("D", 4), [2, 1, 3, 4]),
}


def residual_case(name, request):
    """(problem, tuple, path) of a RESIDUAL_CASES entry."""
    (first, second), path = RESIDUAL_CASES[name]
    if isinstance(second, int):
        return problem(first, second), PolyTuple.constants(second), path
    return request.getfixturevalue(first), request.getfixturevalue(second), path
