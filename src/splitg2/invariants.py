"""Spaces of invariant tensors on the horizontal coframe.

A tensor with constant components descends to the quotient by the
vertical subgroup exactly when its Lie derivative along every vertical
frame vector vanishes.  That condition is linear in the components, so
each space of invariant tensors is the exact kernel of a sparse linear
system over the rationals.  The solvers here build that system, compute
a deterministic echelon kernel basis and re-verify every basis element
before returning it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Iterable, Optional, Sequence

from . import _linalg, scalars
from .errors import DimensionMismatch, InternalInconsistency
from .exterior import Form, SymTensor2
from .liealg import LieAlgebra

_F0 = Fraction(0)
_F1 = Fraction(1)


class SolutionSpace:
    """Kernel of a linear system, carried both as coordinate vectors and
    as reconstructed tensor objects.

    The basis is the deterministic echelon basis of the kernel; displayed
    families from the literature are compared by span membership, not by
    matching this basis element-for-element.
    """

    __slots__ = ("vectors", "basis", "_coordinatize")

    def __init__(self, vectors, build, coordinatize):
        self.vectors = [list(v) for v in vectors]
        self.basis = [build(v) for v in self.vectors]
        self._coordinatize = coordinatize

    @property
    def dimension(self) -> int:
        return len(self.vectors)

    def combination_for(self, obj) -> Optional[list]:
        """Coefficients expressing obj over the basis, or None."""
        target = self._coordinatize(obj)
        return _linalg.solve_in_span(self.vectors, target, len(target))

    def contains(self, obj) -> bool:
        return self.combination_for(obj) is not None


def kernel_rows(columns: Sequence[dict]) -> list:
    """Rows of sum_c x_c * columns[c] = 0, where each column maps a
    component key to its coefficient: one row per component key, in
    sorted key order, with zero entries and empty rows skipped."""
    rows = []
    for comp in sorted(set().union(*columns)):
        row = {}
        for col, column in enumerate(columns):
            v = column.get(comp)
            if v is not None and not scalars.is_zero(v):
                row[col] = v
        if row:
            rows.append(row)
    return rows


# -- invariant tensor solvers -------------------------------------------------


def _sym2_unknowns(k: int) -> list:
    return [(i, j) for i in range(1, k + 1) for j in range(i, k + 1)]


def _form3_unknowns(k: int) -> list:
    return list(combinations(range(1, k + 1), 3))


def invariant_sym2(
    algebra: LieAlgebra, verticals: Iterable[int], k: int
) -> SolutionSpace:
    """All g = g_{uv} e^u (.) e^v with u,v <= k killed by every vertical
    Lie derivative.  The derivative may stick out of the horizontal
    block, so vanishing is imposed on all components."""
    _check_split(algebra, verticals, k)
    pairs = _sym2_unknowns(k)
    rows = []
    for a in sorted(set(verticals)):
        rows += kernel_rows([
            algebra.lie_derivative_sym2(a, SymTensor2(algebra.dim, {p: _F1})).entries
            for p in pairs
        ])

    def build(vec) -> SymTensor2:
        return SymTensor2(algebra.dim, dict(zip(pairs, vec)))

    def coordinatize(tensor: SymTensor2) -> list:
        if tensor.dim != algebra.dim:
            raise DimensionMismatch("tensor dimension mismatch")
        leftover = set(tensor.entries) - set(pairs)
        if leftover:
            raise DimensionMismatch(f"entries outside the horizontal block: {leftover}")
        return [tensor.entries.get(p, _F0) for p in pairs]

    space = SolutionSpace(_linalg.kernel_basis(rows, len(pairs)), build, coordinatize)
    for tensor in space.basis:
        for a in sorted(set(verticals)):
            if not algebra.lie_derivative_sym2(a, tensor).is_zero():
                raise InternalInconsistency("solved tensor fails invariance recheck")
    return space


def invariant_form3(
    algebra: LieAlgebra, verticals: Iterable[int], k: int
) -> SolutionSpace:
    """All horizontal 3-forms killed by every vertical Lie derivative."""
    _check_split(algebra, verticals, k)
    keys = _form3_unknowns(k)
    rows = []
    for a in sorted(set(verticals)):
        rows += kernel_rows([
            algebra.lie_derivative_form(a, Form.monomial(algebra.dim, key)).terms
            for key in keys
        ])

    def build(vec) -> Form:
        return Form(algebra.dim, 3, dict(zip(keys, vec)))

    def coordinatize(form: Form) -> list:
        if form.degree != 3:
            raise DimensionMismatch("expected a 3-form")
        keyset = set(keys)
        leftover = set(form.terms) - keyset
        if leftover:
            raise DimensionMismatch(f"terms outside the horizontal block: {leftover}")
        return [form.terms.get(key, _F0) for key in keys]

    space = SolutionSpace(_linalg.kernel_basis(rows, len(keys)), build, coordinatize)
    for form in space.basis:
        for a in sorted(set(verticals)):
            if not algebra.lie_derivative_form(a, form).is_zero():
                raise InternalInconsistency("solved form fails invariance recheck")
    return space


def _check_split(algebra: LieAlgebra, verticals: Iterable[int], k: int) -> None:
    if not 1 <= k <= algebra.dim:
        raise ValueError(f"bad horizontal count {k}")
    for a in verticals:
        if not k < a <= algebra.dim:
            raise ValueError(f"vertical index {a} not in {k + 1}..{algebra.dim}")
