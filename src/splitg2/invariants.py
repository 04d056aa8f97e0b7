"""Spaces of invariant tensors on the horizontal coframe.

A tensor with constant components descends to the quotient by the
vertical subgroup exactly when its Lie derivative along every vertical
frame vector vanishes.  That condition is linear in the components, so
each space of invariant tensors is the exact kernel of a sparse linear
system over the rationals.  `SolutionSpace` is that kernel for any
linear map on tensors, built from the map's columns, which
`_linalg.transpose` turns into the rows of the system: a deterministic
echelon basis, the basis tensors, and one checked reader of tensor
coordinates.  Forms and symmetric 2-tensors are read alike, through the
`terms` map of their shared core (`exterior.Tensor`); only their kind,
(type name, frame dimension, degree), tells the spaces apart.  The
invariant solvers here (and `g2.lambda2_14_basis`) are calls to it; they
re-verify every basis element before returning.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterable, Optional, Sequence

from . import _linalg
from .errors import DimensionMismatch, InternalInconsistency
from .exterior import Form, SymTensor2
from .liealg import LieAlgebra

_F0 = Fraction(0)
_F1 = Fraction(1)


def _kind(tensor) -> tuple:
    """(type name, frame dimension, degree) of a form or a symmetric 2-tensor."""
    return type(tensor).__name__, tensor.dim, tensor.degree


class SolutionSpace:
    """Kernel of a linear map on the tensors with components at `keys`,
    carried both as coordinate vectors over `keys` and as tensors.

    `columns[c]` is the image of the unit tensor at `keys[c]`, a map from
    row keys to coefficients (`_linalg.transpose` turns the columns into
    the rows of the kernel system), and `make` builds a tensor
    from a {key: value} map.  The basis is the deterministic echelon basis
    of the kernel; displayed families from the literature are compared by
    span membership, not by matching this basis element-for-element.
    """

    __slots__ = ("vectors", "basis", "_keys", "_kind")

    def __init__(self, keys: Sequence, columns: Sequence[dict],
                 make: Callable[[dict], object]):
        self._keys = tuple(keys)
        self.vectors = _linalg.kernel_basis(_linalg.transpose(columns),
                                             len(self._keys))
        self.basis = [make(dict(zip(self._keys, v))) for v in self.vectors]
        self._kind = _kind(make({}))

    @property
    def dimension(self) -> int:
        return len(self.vectors)

    def _coordinates(self, tensor) -> list:
        """The components of `tensor` at `keys`; DimensionMismatch unless
        it is a tensor of the basis kind, frame dimension and degree with
        no component off `keys`."""
        if _kind(tensor) != self._kind:
            raise DimensionMismatch("expected a {} on dimension {} of degree {}, got a "
                                    "{} on dimension {} of degree {}".format(
                                        *self._kind, *_kind(tensor)))
        comps = tensor.terms
        leftover = set(comps).difference(self._keys)
        if leftover:
            raise DimensionMismatch(f"components outside the solved block: "
                                    f"{sorted(leftover)}")
        return [comps.get(key, _F0) for key in self._keys]

    def combination_for(self, tensor) -> Optional[list]:
        """Coefficients expressing `tensor` over the basis, or None."""
        target = self._coordinates(tensor)
        return _linalg.solve_in_span(self.vectors, target, len(target))

    def contains(self, tensor) -> bool:
        return self.combination_for(tensor) is not None


# -- invariant tensor solvers -------------------------------------------------


def _invariant_space(algebra: LieAlgebra, verticals: Iterable[int], k: int,
                     keys: Sequence, make, derivative) -> SolutionSpace:
    """The tensors `make` builds on `keys` that `derivative(a, tensor)`
    kills for every vertical a.  The derivative may stick out of the
    horizontal block, so vanishing is imposed on all its components: the
    rows are keyed (vertical, component), verticals ascending."""
    _check_split(algebra, verticals, k)
    verticals = sorted(set(verticals))
    columns = [{(a, comp): v
                for a in verticals
                for comp, v in derivative(a, make({key: _F1})).terms.items()}
               for key in keys]
    space = SolutionSpace(keys, columns, make)
    for tensor in space.basis:
        for a in verticals:
            if not derivative(a, tensor).is_zero():
                raise InternalInconsistency("solved tensor fails invariance recheck")
    return space


def invariant_sym2(
    algebra: LieAlgebra, verticals: Iterable[int], k: int
) -> SolutionSpace:
    """All g = g_{uv} e^u (.) e^v with u,v <= k killed by every vertical
    Lie derivative."""
    pairs = [(i, j) for i in range(1, k + 1) for j in range(i, k + 1)]
    return _invariant_space(algebra, verticals, k, pairs,
                            lambda entries: SymTensor2(algebra.dim, entries),
                            algebra.lie_derivative_sym2)


def invariant_form3(
    algebra: LieAlgebra, verticals: Iterable[int], k: int
) -> SolutionSpace:
    """All horizontal 3-forms killed by every vertical Lie derivative."""
    return _invariant_space(algebra, verticals, k,
                            list(combinations(range(1, k + 1), 3)),
                            lambda terms: Form(algebra.dim, 3, terms),
                            algebra.lie_derivative_form)


def _check_split(algebra: LieAlgebra, verticals: Iterable[int], k: int) -> None:
    if not 1 <= k <= algebra.dim:
        raise ValueError(f"bad horizontal count {k}")
    for a in verticals:
        if not k < a <= algebra.dim:
            raise ValueError(f"vertical index {a} not in {k + 1}..{algebra.dim}")
