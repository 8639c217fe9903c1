"""Exact engine for master-function critical points, their populations,
the attached Miura opers, and explicit matrix solutions of D Y = 0."""

from .exactalg import (
    Poly,
    RatFunc,
    integrate_shape,
    log_derivative,
    poly_gcd,
    rational_antiderivative,
    squarefree,
    wronskian,
    wronskian_partner,
)
from .liedata import CartanData, cartan_data, degrees_for, langlands_dual, shifted_action, weyl_length
from .critical import (
    PolyTuple,
    ProblemData,
    bethe_residuals,
    build_T,
    fertility_direction,
    is_fertile,
    is_generic,
    newton_seed,
)
from .population import DescendantFamily, ReproductionPath, cell_of, descend, explore, reproduce_path
from .miura import (
    MiuraOper,
    TwistContext,
    TwistedFunc,
    deform,
    miura_from_tuple,
    reduced_tuple,
    reduced_wronskian_check,
    riccati_residual,
    riccati_solutions,
)
from .solutions import (
    MatrixRep,
    TwistedMatrix,
    apply_miura,
    fold_to_A,
    nested_bracket,
    rep_minuscule,
    rep_standard_sl,
    rep_standard_sp,
    solution_A,
    solution_BC,
    solution_general,
)

__version__ = "0.1.0"
