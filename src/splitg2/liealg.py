"""Lie algebras given by structure constants, and the constructions on
them used throughout the package: Jacobi validation, Killing form,
basis change, the coframe differential, Lie derivatives of invariant
tensors, fibration checks and distribution growth.

Conventions.  Structure constants are stored sparsely for ordered pairs
J < K as [e_J, e_K] = sum_I c^I_JK e_I.  The differential acts on the
dual coframe by d e^I = -(1/2) c^I_JK e^J ^ e^K and extends as an
antiderivation; Lie derivatives along basis vectors use the Cartan
formula on forms and the coframe weight rule L_a e^I = -c^I_aK e^K,
extended as a derivation, on symmetric 2-tensors.  All computations are
algebraic identities in the structure constants: they hold at the
identity of any group carrying the coframe, and by invariance
everywhere.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from . import kernels, scalars, _linalg
from .errors import (
    DimensionMismatch,
    InternalInconsistency,
    NotAFibration,
    NotInvariant,
    SingularMatrix,
    ValidationError,
)
from .exterior import Form, SymTensor2, Vector, fold, interior

_F0 = Fraction(0)
_F1 = Fraction(1)
_EMPTY = MappingProxyType({})  # shared stand-in for a missing column


class LieAlgebra:
    """Finite-dimensional Lie algebra over exact scalars.

    `brackets` maps ordered index pairs (J, K), J < K, to sparse maps
    I -> c^I_JK; the outer map and each inner map are read-only views
    (`types.MappingProxyType`), which cannot be pickled, and nothing in
    the package pickles or deep-copies an algebra.  Instances are
    immutable after construction; the coframe differentials, the
    columns of every ad(e_a), the differentials d e^K of the monomials
    met so far and the Jacobi report are cached lazily.  So one instance
    serves every document of the same table: `textio` hands the algebra
    it built last to the next document with the same alphabet, dimension
    and bracket lines, and keeps no other.
    """

    __slots__ = ("dim", "brackets", "_dcoframe", "_dcolumns", "_adcolumns",
                 "_jacobi", "__weakref__")

    def __init__(self, dim: int, brackets: Mapping):
        if dim < 1:
            raise ValueError("dimension must be positive")
        clean = {}
        for (j, k), comps in brackets.items():
            j, k = int(j), int(k)
            if not (1 <= j < k <= dim):
                raise ValueError(f"bad bracket pair ({j},{k}) for dim {dim}")
            inner = {}
            for i, c in comps.items():
                i = int(i)
                if not 1 <= i <= dim:
                    raise ValueError(f"bad bracket target {i}")
                c = scalars.as_scalar(c)
                if not scalars.is_zero(c):
                    inner[i] = c
            if inner:
                clean[(j, k)] = MappingProxyType(inner)
        self.dim = dim
        self.brackets = MappingProxyType(clean)
        self._dcoframe = None
        self._dcolumns = {}
        self._adcolumns = None
        self._jacobi = None

    # -- brackets -------------------------------------------------------

    def bracket_basis(self, j: int, k: int) -> Mapping:
        """[e_j, e_k] as a sparse component map (any index order); for
        j < k the bracket table's own read-only map."""
        if j == k:
            return _EMPTY
        if j < k:
            return self.brackets.get((j, k), _EMPTY)
        comps = self.brackets.get((k, j), {})
        return {i: -c for i, c in comps.items()}

    def _ad_columns(self) -> dict:
        """{a: {k: [e_a, e_k]}}: the nonzero columns of every ad(e_a), k
        ascending, built on first use.  Read-only: the columns of ordered
        pairs are the bracket table's own maps."""
        if self._adcolumns is None:
            ad: dict = {}
            for j, k in sorted(self.brackets):
                comps = self.brackets[(j, k)]
                ad.setdefault(j, {})[k] = comps
                ad.setdefault(k, {})[j] = {i: -c for i, c in comps.items()}
            self._adcolumns = ad
        return self._adcolumns

    def _ad(self, a: int) -> dict:
        """The nonzero columns {k: [e_a, e_k]} of ad(e_a), k ascending."""
        return self._ad_columns().get(a, _EMPTY)

    def bracket(self, x: Vector, y: Vector) -> Vector:
        """Bracket of two frame vectors, extended bilinearly.

        The sum runs over the nonzero components x_a and y_k only and
        reads each [e_a, e_k] from the cached ad(e_a) columns (`_ad`), so
        the work follows the nonzeros of x and y, not the whole bracket
        table.  It serves every scalar type; quotients of polynomials stay
        unreduced, so their representatives follow this order of
        summation."""
        if x.dim != self.dim or y.dim != self.dim:
            raise DimensionMismatch("vector dimension does not match algebra")
        xs, ys = x.components, y.components
        ad = self._ad_columns()
        sums: dict = {}
        for a, xa in enumerate(xs, 1):
            if xa and a in ad:
                for k, col in ad[a].items():
                    yk = ys[k - 1]
                    if yk:
                        w = xa * yk
                        for i, c in col.items():
                            sums[i] = sums.get(i, _F0) + w * c
        return Vector([sums.get(i, _F0) for i in range(1, self.dim + 1)])

    # -- validation -----------------------------------------------------

    def jacobi_check(self) -> "JacobiReport":
        """Exact Jacobi test, read off d(d e^i) = 0 on the coframe.

        d(d e^i) = sum_m d e^m ^ (e_m -| d e^i), and its coefficient on
        e^{jkl}, j < k < l, is the e_i component of [[e_j, e_k], e_l] +
        [[e_k, e_l], e_j] + [[e_l, e_j], e_k]: d^2 = 0 on the Maurer-Cartan
        coframe is the Jacobi identity (Chevalley-Eilenberg).  Each
        d(d e^i) is `mc_differential` of the coframe differential d e^i,
        the expression the d-squared records of the commands evaluate, and
        only its nonzero coefficients are kept, so memory follows the
        violating triples rather than the square of the dimension.
        Returns a report carrying the maximum-violation triple (largest
        defect, ties broken lexicographically) when the identity fails;
        computed on first call and kept with the algebra.
        """
        if self._jacobi is not None:
            return self._jacobi
        defects: dict = {}
        for i in range(1, self.dim + 1):
            dd = self.mc_differential(self.coframe_differential(i))
            for key, c in dd.terms.items():
                defects.setdefault(key, {})[i] = c
        worst = None
        for triple in sorted(defects):
            size = _defect_size(defects[triple])
            if worst is None or size > worst[0]:
                worst = (size, triple)
        if worst is None:
            self._jacobi = JacobiReport(True, None, None)
        else:
            self._jacobi = JacobiReport(False, worst[1], defects[worst[1]])
        return self._jacobi

    # -- invariants of the algebra ---------------------------------------

    def killing(self) -> SymTensor2:
        """Killing tensor K_JL = (1/12) sum_{I,K} c^I_JK c^K_LI."""
        n = self.dim
        ad = [{(i, k): c for k, col in self._ad(a).items() for i, c in col.items()}
              for a in range(1, n + 1)]
        twelfth = Fraction(1, 12)
        entries = {}
        for j in range(1, n + 1):
            aj = ad[j - 1]
            for l in range(j, n + 1):
                al = ad[l - 1]
                total = _F0
                for (i, m), c in aj.items():
                    c2 = al.get((m, i))
                    if c2 is not None:
                        total = total + c * c2
                total = total * twelfth
                if not scalars.is_zero(total):
                    entries[(j, l)] = total
        return SymTensor2(n, entries)

    # -- coframe differential ---------------------------------------------

    def coframe_differential(self, index: int) -> Form:
        """d e^index as a 2-form."""
        if self._dcoframe is None:
            d = [dict() for _ in range(self.dim + 1)]
            for (j, k), comps in self.brackets.items():
                for i, c in comps.items():
                    d[i][(j, k)] = -c
            self._dcoframe = [None] + [
                Form(self.dim, 2, d[i]) for i in range(1, self.dim + 1)
            ]
        return self._dcoframe[index]

    def _dcolumn(self, key: tuple) -> dict:
        """d e^key as {key: coefficient}, from d e^I = -(1/2) c^I_JK e^J ^ e^K
        extended as an antiderivation; built on first use."""
        column = self._dcolumns.get(key)
        if column is None:
            buckets: dict = {}
            for t, idx in enumerate(key):
                rest = key[:t] + key[t + 1 :]
                for pair, u in self.coframe_differential(idx).terms.items():
                    merged = kernels.merge_indices(pair, rest)
                    if merged is None:
                        continue
                    mkey, sign = merged
                    if t % 2:
                        sign = -sign
                    buckets.setdefault(mkey, []).append(u if sign > 0 else -u)
            column = fold(buckets)
            self._dcolumns[key] = column
        return column

    def mc_differential(self, form: Form) -> Form:
        """Exterior differential of an invariant form: the sum of
        coeff * d e^key over its terms, each d e^key cached per algebra."""
        if form.dim != self.dim:
            raise DimensionMismatch("form dimension does not match algebra")
        buckets: dict = {}
        for key, coeff in form.terms.items():
            for mkey, u in self._dcolumn(key).items():
                buckets.setdefault(mkey, []).append(coeff * u)
        return Form.raw(form.dim, form.degree + 1, fold(buckets))

    # -- Lie derivatives ---------------------------------------------------

    def lie_derivative_form(self, a: int, form: Form) -> Form:
        """L_{e_a} via the Cartan formula i_a d + d i_a."""
        e_a = Vector.basis(self.dim, a)
        return interior(e_a, self.mc_differential(form)) + self.mc_differential(
            interior(e_a, form)
        )

    def lie_derivative_sym2(self, a: int, tensor: SymTensor2) -> SymTensor2:
        """L_{e_a} on a symmetric 2-tensor in coframe components."""
        if tensor.dim != self.dim:
            raise DimensionMismatch("tensor dimension does not match algebra")
        return SymTensor2(self.dim, _sym_accumulate(self, a, tensor))

    # -- fibration structure -------------------------------------------------

    def horizontal_integrability(self, k: int) -> bool:
        """True when d e^mu ^ e^1 ^ ... ^ e^k = 0 for every mu <= k."""
        if not 1 <= k <= self.dim:
            raise ValueError(f"bad horizontal count {k}")
        top = Form.monomial(self.dim, tuple(range(1, k + 1)))
        for mu in range(1, k + 1):
            if not self.coframe_differential(mu).wedge(top).is_zero():
                return False
        return True

    def leaf_restriction(self, k: int) -> list:
        """Differentials of the vertical coframe with horizontal legs removed.

        Requires the horizontal integrability test to pass.
        """
        if not self.horizontal_integrability(k):
            raise NotAFibration(f"coframe fails integrability at k={k}")
        out = []
        for mu in range(k + 1, self.dim + 1):
            d = self.coframe_differential(mu)
            kept = {key: c for key, c in d.terms.items() if key[0] > k}
            out.append(Form(self.dim, 2, kept))
        return out


def _sym_accumulate(algebra: LieAlgebra, a: int, tensor: SymTensor2) -> dict:
    """Components of -(A^T g + g A) with A^i_k = c^i_ak.

    Only the entries (k, l), k <= l, that some nonzero c^i_ak g_il or
    g_ki c^i_al reaches are visited, in ascending order, so the work
    follows the nonzeros of A and g rather than the square of the
    dimension."""
    cols = algebra._ad(a)
    g: dict = {}
    for (i, j), v in tensor.terms.items():
        g.setdefault(i, {})[j] = v
        g.setdefault(j, {})[i] = v
    reached = set()
    for k, col in cols.items():
        for i in col:
            for l in g.get(i, ()):
                reached.add((k, l) if k <= l else (l, k))
    out = {}
    for kk, ll in sorted(reached):
        total = _F0
        for i, c in cols.get(kk, {}).items():
            v = g.get(i, {}).get(ll)
            if v is not None:
                total = total - c * v
        for i, c in cols.get(ll, {}).items():
            v = g.get(kk, {}).get(i)
            if v is not None:
                total = total - v * c
        if not scalars.is_zero(total):
            out[(kk, ll)] = total
    return out


def _defect_size(defect: dict):
    try:
        return sum(abs(Fraction(c)) for c in defect.values())
    except (TypeError, ValueError):
        return Fraction(sum(1 for _ in defect))


class JacobiReport(namedtuple("JacobiReport", ("ok", "triple", "defect"))):
    __slots__ = ()

    def __str__(self) -> str:
        if self.ok:
            return "pass"
        body = ", ".join(
            f"e_{i}: {scalars.render_scalar(c)}" for i, c in sorted(self.defect.items())
        )
        return f"violation at {self.triple}: {body}"


class BasisChange:
    """Invertible change of basis; rows express new vectors in the old basis."""

    __slots__ = ("dim", "matrix", "_inverse", "_inverse_rows")

    def __init__(self, matrix: Sequence[Sequence]):
        rows = tuple(tuple(Fraction(x) for x in row) for row in matrix)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("basis change matrix must be square")
        self.dim = n
        self.matrix = rows
        # row c of the inverse expresses the old unit vector e_c over the rows
        units = [[_F1 if c == d else _F0 for d in range(n)] for c in range(n)]
        self._inverse = _linalg.solve_in_span_many(rows, units, n)
        if None in self._inverse:
            raise SingularMatrix("basis change matrix is singular")
        # the nonzero entries (d, inverse[c][d]) of each row c of the inverse
        self._inverse_rows = tuple(tuple((d, v) for d, v in enumerate(row) if v)
                                   for row in self._inverse)

    @classmethod
    def permutation(cls, images: Sequence[int]) -> "BasisChange":
        """new_i = old_{images[i-1]}"""
        n = len(images)
        rows = [[0] * n for _ in range(n)]
        for i, img in enumerate(images):
            rows[i][img - 1] = 1
        return cls(rows)

    def new_vector(self, i: int) -> Vector:
        return Vector(self.matrix[i - 1])

    def old_to_new(self, coords: Sequence) -> list:
        """Re-express an old-basis coordinate row in the new basis.

        Only nonzero coordinates and nonzero entries of the inverse are
        visited; each new coordinate still sums its terms in ascending
        old index, starting from 0."""
        out = [_F0] * self.dim
        for c, row in enumerate(self._inverse_rows):
            x = coords[c]
            if not scalars.is_zero(x):
                for d, v in row:
                    out[d] = out[d] + x * v
        return out


def change_basis(algebra: LieAlgebra, change: BasisChange) -> LieAlgebra:
    """Structure constants in the new basis."""
    if change.dim != algebra.dim:
        raise DimensionMismatch("basis change dimension does not match algebra")
    n = algebra.dim
    brackets = {}
    for a in range(1, n + 1):
        va = change.new_vector(a)
        for b in range(a + 1, n + 1):
            w = algebra.bracket(va, change.new_vector(b))
            brackets[(a, b)] = dict(enumerate(change.old_to_new(w.components), 1))
    return LieAlgebra(n, brackets)


# -- matrix realizations -----------------------------------------------------


def _mat_comm(x, y):
    """The commutator xy - yx of two square matrices."""
    n = range(len(x))
    return [[sum(x[i][k] * y[k][j] - y[i][k] * x[k][j] for k in n) for j in n]
            for i in n]


def algebra_from_matrices(matrices: Sequence) -> LieAlgebra:
    """Structure constants of a list of square matrices closed under
    commutators and linearly independent.

    One elimination of the generator entries serves every pair: the
    commutators ride along as right-hand sides."""
    n = len(matrices)
    size = len(matrices[0])
    cells = [(i, j) for i in range(size) for j in range(size)]
    flat = [[m[i][j] for i, j in cells] for m in matrices]
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    comms = [_mat_comm(matrices[a], matrices[b]) for a, b in pairs]
    solutions = _linalg.solve_in_span_many(
        flat, [[comm[i][j] for i, j in cells] for comm in comms], size * size)
    brackets = {}
    for (a, b), coords in zip(pairs, solutions):
        if coords is None:
            raise ValidationError(
                f"commutator of generators {a + 1},{b + 1} leaves the span"
            )
        brackets[(a + 1, b + 1)] = dict(enumerate(coords, 1))
    return LieAlgebra(n, brackets)


def _sp2_parameter_matrix(a: Sequence):
    """The defining 4x4 matrix, linear in ten parameters (1-based input)."""
    return (
        (a[5], a[7], a[9], 2 * a[10]),
        (-a[4], a[6], a[8], a[9]),
        (a[2], a[3], -a[6], -a[7]),
        (-2 * a[1], a[2], a[4], -a[5]),
    )


def sp2_matrices() -> tuple:
    """The ten 4x4 generator matrices E_I, with integer entries."""
    return tuple(_sp2_parameter_matrix([int(i == j) for j in range(11)])
                 for i in range(1, 11))


@lru_cache(maxsize=None)
def sp2_build() -> LieAlgebra:
    """The rank-two split symplectic algebra in its defining basis E_1..E_10.

    Structure constants are extracted from exact 4x4 commutators; the
    extraction is verified by re-assembling each commutator, so a wrong
    parameter matrix cannot slip through silently.  Built once and
    shared: `LieAlgebra` is immutable.
    """
    mats = sp2_matrices()
    algebra = algebra_from_matrices(mats)
    for (j, k), comps in algebra.brackets.items():
        lhs = _mat_comm(mats[j - 1], mats[k - 1])
        acc = [_F0] * 11
        for i, c in comps.items():
            acc[i] = c
        if _sp2_parameter_matrix(acc) != tuple(tuple(r) for r in lhs):
            raise InternalInconsistency(f"bracket ({j},{k}) readback failed")
    return algebra


# -- subspaces and distributions ----------------------------------------------


class Subspace:
    """Subspace of the frame space.  Its basis is the first maximal
    linearly independent subset of its generators, in their order: each
    generator not in the span of those before it (`_linalg.independent`)."""

    __slots__ = ("dim", "basis")

    def __init__(self, dim: int, generators: Iterable[Vector]):
        generators = list(generators)
        if any(g.dim != dim for g in generators):
            raise DimensionMismatch("generator dimension mismatch")
        picked = _linalg.independent([g.components for g in generators])
        self.dim = dim
        self.basis = tuple(generators[i] for i in picked)

    @classmethod
    def span(cls, dim: int, *vectors) -> "Subspace":
        return cls(dim, [v if isinstance(v, Vector) else Vector(v) for v in vectors])

    @property
    def rank(self) -> int:
        return len(self.basis)

    def contains(self, v: Vector) -> bool:
        if v.is_zero() and v.dim == self.dim:
            return True
        coords = _linalg.solve_in_span(
            [list(b.components) for b in self.basis], list(v.components), self.dim
        )
        return coords is not None

    def sum(self, other: "Subspace") -> "Subspace":
        if other.dim != self.dim:
            raise DimensionMismatch("subspace dimension mismatch")
        return Subspace(self.dim, list(self.basis) + list(other.basis))

    def __str__(self) -> str:
        return "span(" + "; ".join(str(b) for b in self.basis) + ")"


def ad_invariance_check(
    algebra: LieAlgebra, dist: Subspace, stabilizer: Subspace
) -> bool:
    """True when [stabilizer, dist] lies inside dist + stabilizer."""
    total = dist.sum(stabilizer)
    for h in stabilizer.basis:
        for d in dist.basis:
            if not total.contains(algebra.bracket(h, d)):
                return False
    return True


def growth_vector(
    algebra: LieAlgebra, dist: Subspace, stabilizer: Subspace
) -> list:
    """Dimensions of the bracket-generated flag of `dist` modulo the
    stabilizer, ending at the first repetition."""
    if not ad_invariance_check(algebra, dist, stabilizer):
        raise NotInvariant("distribution is not stabilizer-invariant")
    h_rank = stabilizer.rank
    current = dist
    dims = [current.sum(stabilizer).rank - h_rank]
    while True:
        gens = list(current.basis)
        for d in dist.basis:
            for x in current.basis:
                w = algebra.bracket(d, x)
                if not w.is_zero():
                    gens.append(w)
        nxt = Subspace(algebra.dim, gens)
        rank = nxt.sum(stabilizer).rank - h_rank
        if rank == dims[-1]:
            return dims
        dims.append(rank)
        current = nxt
