"""Exact Diophantine approximation over the Hecke group H4.

Everything is computed in exact arithmetic over Z[√2] and quadratic surds
above Q(√2); floating point appears only in advisory decimal renderings.
"""

from .exact_field import QRt2, Surd, ZRt2, quad_root, surd_mobius
from .hecke_group import (
    H4Fraction,
    Mat2,
    canonicalize,
    canonicalize_pair,
    ford_tangent,
    generators,
    membership,
)
from .h4_expansion import (
    Expansion,
    FiniteWord,
    PeriodicStream,
    RuleStream,
    detect_period,
    normalize_alpha,
)
from .rosen_cf import (
    CFExpansion,
    RosenDigit,
    dual_rosen_convergents,
    dual_rosen_digits,
    rosen_convergents,
    rosen_digits,
    select_M,
    select_N,
)
from .best_approx import (
    BestApprox,
    best_approximations,
    legendre_classify,
    oracle_best_approximations,
    successor_case,
)
from .uniform_approx import (
    KResult,
    UniformRecord,
    dirichlet_sweep,
    dirichlet_witness,
    k_exact,
    k_numeric,
    optimality_check,
    uniform_sequence,
)

__all__ = [
    "QRt2", "Surd", "ZRt2", "quad_root", "surd_mobius",
    "H4Fraction", "Mat2", "canonicalize", "canonicalize_pair", "ford_tangent",
    "generators", "membership",
    "Expansion", "FiniteWord", "PeriodicStream", "RuleStream",
    "detect_period", "normalize_alpha",
    "CFExpansion", "RosenDigit", "dual_rosen_convergents", "dual_rosen_digits",
    "rosen_convergents", "rosen_digits", "select_M", "select_N",
    "BestApprox", "best_approximations", "legendre_classify",
    "oracle_best_approximations", "successor_case",
    "KResult", "UniformRecord", "dirichlet_sweep", "dirichlet_witness",
    "k_exact", "k_numeric", "optimality_check", "uniform_sequence",
]
