"""Exact exterior calculus on Lie-group coframes and invariant
split-G2 structures on a rank-two split symplectic homogeneous space.

Everything is computed over exact scalars: rationals, integer-primitive
polynomials in a fixed parameter alphabet, and quotients of those.  No
floating point enters any check.
"""

from . import catalog, errors, exterior, g2, invariants, liealg, report, scalars, textio
from .exterior import Form, SymTensor2, Vector, interior, sym_product
from .g2 import (
    Metric7,
    TorsionSet,
    bryant_residual,
    calibrate_vol_scale,
    compatibility_defect,
    hodge_star,
    lambda2_14_basis,
    torsion_solve,
)
from .invariants import invariant_form3, invariant_sym2
from .liealg import BasisChange, LieAlgebra, Subspace, change_basis, sp2_build
from .scalars import Polynomial, RationalFunction, parse_scalar, render_scalar

__version__ = "0.1.0"

__all__ = [
    "BasisChange",
    "Form",
    "LieAlgebra",
    "Metric7",
    "Polynomial",
    "RationalFunction",
    "Subspace",
    "SymTensor2",
    "TorsionSet",
    "Vector",
    "bryant_residual",
    "calibrate_vol_scale",
    "catalog",
    "change_basis",
    "compatibility_defect",
    "errors",
    "exterior",
    "g2",
    "hodge_star",
    "interior",
    "invariant_form3",
    "invariant_sym2",
    "invariants",
    "liealg",
    "parse_scalar",
    "render_scalar",
    "report",
    "scalars",
    "sp2_build",
    "sym_product",
    "textio",
    "torsion_solve",
    "__version__",
]
