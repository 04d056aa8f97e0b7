"""G2-structure machinery on a 7-dimensional coframe: metric bookkeeping,
pseudo-Riemannian Hodge star, the compatibility pairing between a metric
and a 3-form, irreducible-component membership tests, and the exact
solution of the first-order torsion equations

    d phi    = tau0 * (star phi) + 3 tau1 ^ phi + star tau3
    d star phi = 4 tau1 ^ (star phi) + tau2 ^ phi

subject to tau2 ^ star phi = 0 and tau3 ^ phi = 0, tau3 ^ star phi = 0.

Volume convention.  The volume form is vol = c * e^{1...7} with c a
positive rational.  sqrt|det g| is irrational for the metrics of
interest, so the metric volume is not representable in the exact field;
c is configurable instead, and `calibrate_vol_scale` pins down the value
a reference computation used.  Solved torsions transform along c by
exact scaling laws (tau0, tau3 scale with c; tau2 with 1/c; tau1 fixed),
so no information is lost by the choice.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import lcm
from typing import Tuple

from . import _linalg, kernels, scalars
from .errors import (
    Degenerate,
    DegreeMismatch,
    DimensionMismatch,
    InternalInconsistency,
    ValidationError,
    WrongDimension,
    ZeroReference,
)
from .exterior import Form, SymTensor2, Vector, fold, interior
from .invariants import SolutionSpace
from .liealg import LieAlgebra

_F0 = Fraction(0)
_F1 = Fraction(1)
_DIM = 7
_TOP = tuple(range(1, 8))
_SINGLES = tuple(range(1, _DIM + 1))
_PAIRS = tuple(combinations(_SINGLES, 2))
_TRIPLES = tuple(combinations(_SINGLES, 3))
_SINGLE_KEYS = tuple((i,) for i in _SINGLES)
_UNIT_TRIPLES = tuple(Form.monomial(_DIM, t) for t in _TRIPLES)  # e^t, t in _TRIPLES


@cache
def _merge_table(key_degree: int, form_degree: int) -> dict:
    """{k: {t: (k + t, sign of e^k ^ e^t)}} over the disjoint index keys
    of the given degrees; built on first use."""
    return {
        k: {t: merged
            for t in combinations(_SINGLES, form_degree)
            if (merged := kernels.merge_indices(k, t)) is not None}
        for k in combinations(_SINGLES, key_degree)
    }


@cache
def _complement(key: tuple) -> tuple:
    """(rest, sign): the increasing complement of `key` in 1..7 and the
    sign of e^key ^ e^rest against e^{1...7}."""
    rest = tuple(i for i in _SINGLES if i not in key)
    return rest, kernels.merge_indices(key, rest)[1]


@cache
def _mask(key: tuple) -> int:
    """The index set of `key` as a bit mask, bit i - 1 for index i."""
    return sum(1 << (i - 1) for i in key)


def _row_block(start: int, degree: int) -> dict:
    """Row index of each degree-`degree` key, keys in lexicographic order."""
    return {key: start + idx
            for idx, key in enumerate(combinations(_SINGLES, degree))}


# the row of each key in the five row blocks of `TorsionSystem`
_ROWS_DPHI = _row_block(0, 4)            # rows 0..34
_ROWS_DSTAR = _row_block(35, 5)          # rows 35..55; rows 0..55 are Bryant rows
_ROWS_TAU2_STAR = _row_block(56, 6)      # rows 56..62
_ROWS_TAU3_PHI = _row_block(63, 6)       # rows 63..69
_ROWS_TAU3_STAR = {_TOP: 70}

# the columns of each torsion form among the unknowns of `TorsionSystem`
_COLUMNS = {"tau0": range(1), "tau1": range(1, 8), "tau2": range(8, 29),
            "tau3": range(29, 64)}


class Metric7:
    """Nondegenerate symmetric 2-tensor on the 7-dimensional frame with
    exact rational entries.

    Besides `tensor`, the tensor it was given, whose `terms` are a
    read-only view, g is held in one form: the integer rows of D g, D the
    lcm of the denominators of g (`_scale`, `_int_rows`).  Everything
    derived from g is read off signed minors of D g, each expanded once
    (`_minor`): the determinant `det`, the inertia (`signature`) and the
    unit-scale Hodge stars of the unit monomials (`_unit_star`), each a
    read-only form that `hodge_star` hands out at unit scale."""

    __slots__ = ("tensor", "det", "_unit_stars", "_scale", "_int_rows",
                 "_minors")

    def __init__(self, tensor: SymTensor2):
        if tensor.dim != _DIM:
            raise DimensionMismatch(f"metric must live on dimension {_DIM}")
        for key, v in tensor.terms.items():
            if not isinstance(v, (int, Fraction)):
                raise ValidationError(f"metric entry {key} is not rational: {v!r}")
        self.tensor = tensor
        self._unit_stars = {}
        self._minors = {}
        # the nonzero entries of D g by row, as (column bit, integer) in
        # column order; frozen, because the minors and unit stars
        # cached from them must not go stale
        self._scale = lcm(*(x.denominator for x in tensor.terms.values()))
        rows = [{} for _ in _SINGLES]
        for (i, j), x in tensor.terms.items():
            x = x.numerator * (self._scale // x.denominator)
            rows[i - 1][1 << (j - 1)] = rows[j - 1][1 << (i - 1)] = x
        self._int_rows = tuple(tuple(sorted(row.items())) for row in rows)
        full = _mask(_SINGLES)
        self.det = Fraction(self._minor(full, full), self._scale ** _DIM)
        if self.det == 0:
            raise Degenerate("metric determinant is zero")

    @property
    def matrix(self) -> tuple:
        """g as a tuple of row tuples, built from `tensor` on each access
        (`perfbench/layers.py` keys repeated calls on it)."""
        return tuple(tuple(row) for row in self.tensor.to_matrix())

    def _unit_star(self, key: tuple) -> Form:
        """Unit-scale star of the monomial e^key, its keys in lexicographic
        order; built on first use and kept, one form per key.

        Expanding the defining identity of `hodge_star`, the coefficient
        at `out` is e^key ^ g(e_u1) ^ ... ^ g(e_uk) read at e^{1...7}, u
        running over `out`: only the covectors e^j with j in rest, the
        complement of key, survive, so it is sign(key, rest) times the
        minor det g[out, rest]."""
        star = self._unit_stars.get(key)
        if star is None:
            rest, sign = _complement(key)
            cols = _mask(rest)
            den = self._scale ** len(rest)
            column = {}
            for out in combinations(_SINGLES, len(rest)):
                m = self._minor(_mask(out), cols)
                if m:
                    column[out] = Fraction(m if sign > 0 else -m, den)
            star = self._unit_stars[key] = Form.raw(_DIM, len(rest), column)
        return star

    def _minor(self, rows: int, cols: int) -> int:
        """det(D g)[rows, cols], D = `_scale`, for index sets of one size
        given as bit masks (`_mask`), by expansion along the first row
        that skips zero entries; memoised, so each minor is expanded once."""
        if not rows:
            return 1
        m = self._minors.get((rows, cols))
        if m is None:
            low = rows & -rows
            below = rows ^ low
            m = 0
            for bit, x in self._int_rows[low.bit_length() - 1]:
                if cols & bit:
                    t = x * self._minor(below, cols ^ bit)
                    # the column's position among cols fixes the sign
                    m = m - t if (cols & (bit - 1)).bit_count() & 1 else m + t
            self._minors[(rows, cols)] = m
        return m

    def signature(self) -> Tuple[int, int]:
        """Inertia (plus, minus) by Descartes' rule of signs, which is exact
        for the real-rooted characteristic polynomial of a symmetric
        matrix: det(t + D g) = sum of E_k t^(7-k), E_k the sum of the k x k
        principal minors of D g, so the sign changes of E_0, ..., E_7
        (zeros skipped) count the negative eigenvalues; det g != 0 makes
        every other eigenvalue positive."""
        sums = [0] * (_DIM + 1)
        for s in range(1 << _DIM):
            sums[s.bit_count()] += self._minor(s, s)
        nonzero = [x for x in sums if x]
        minus = sum(a * b < 0 for a, b in zip(nonzero, nonzero[1:]))
        return _DIM - minus, minus


def _top_coefficient(low: Form, high: Form):
    """The coefficient of e^{1...7} in low ^ high, deg low + deg high = 7:
    each term of `low` paired with the term of `high` at its complement
    (`_complement`), summed in the order of `low`."""
    bucket = []
    for key, x in low.terms.items():
        rest, sign = _complement(key)
        y = high.terms.get(rest)
        if y is not None:
            bucket.append(x * y if sign > 0 else -(x * y))
    return fold({_TOP: bucket}).get(_TOP, _F0) if bucket else _F0


def compatibility_defect(metric: Metric7, phi: Form) -> SymTensor2:
    """B - 3g, where (e_u -| phi)^(e_v -| phi)^phi = B_uv e^{1...7}.

    Zero exactly when the pair satisfies the compatibility normalization
    with volume e^{1...7} and factor 3.  B is read off seven wedges, each
    2-form e_u -| phi against the 5-form (e_v -| phi)^phi.  An unreduced
    quotient renders by the grouping of its sums, so when phi has a
    quotient coefficient, each nonzero entry of the defect is summed
    again as the 4-form (e_u -| phi)^(e_v -| phi) against phi: the
    grouping whose text the `input.compatibility` record reports.
    """
    _expect(phi, 3)
    hooked = [None] + [interior(Vector.basis(_DIM, m), phi) for m in _SINGLES]
    fives = [None] + [hooked[v].wedge(phi) for v in _SINGLES]
    entries = {(u, v): _top_coefficient(hooked[u], fives[v])
               for u in _SINGLES for v in range(u, _DIM + 1)}
    defect = SymTensor2(_DIM, entries) - metric.tensor * 3
    if defect.is_zero() or not any(
            isinstance(c, scalars.RationalFunction) and c.den != 1
            for c in phi.terms.values()):
        return defect
    for u, v in defect.terms:
        entries[(u, v)] = _top_coefficient(hooked[u].wedge(hooked[v]), phi)
    return SymTensor2(_DIM, entries) - metric.tensor * 3


def hodge_star(metric: Metric7, lam: Form, vol_scale=_F1) -> Form:
    """Hodge dual with respect to vol = vol_scale * e^{1...7}.

    The star of each monomial e^I comes from the defining identity

        (star e^I)(e_u1, ..., e_u(7-p)) e^{1...7} = e^I ^ g(e_u1) ^ ... ^ g(e_u(7-p))

    whose right-hand side is sign(I, J) det g[u, J] e^{1...7}, J the
    complement of I; `Metric7._unit_star` reads each star e^I off these
    minors and caches it per metric.  The star is linear,
    so star lam is the sum of lam_I * star e^I, divided by vol_scale; the
    contributions to each output coefficient go through `exterior.fold`,
    as those of `Form.wedge` do.  At unit scale, the case of every point
    request and of `verify-paper`, the sums are the result as they stand
    and no coefficient is divided, and the star of a unit monomial e^I
    (coefficient the rational 1) is the form cached on the metric itself."""
    c = Fraction(vol_scale)
    if c == 0:
        raise Degenerate("volume scale must be nonzero")
    if lam.dim != _DIM:
        raise DimensionMismatch(f"form must live on dimension {_DIM}")
    if c == 1 and len(lam.terms) == 1:
        (key, coeff), = lam.terms.items()
        if type(coeff) is Fraction and coeff == 1:
            return metric._unit_star(key)
    buckets = {}
    for key, coeff in lam.terms.items():
        for out, v in metric._unit_star(key).terms.items():
            buckets.setdefault(out, []).append(coeff * v)
    # lexicographic keys, the order in which downstream sums meet the terms
    out = fold({key: buckets[key] for key in sorted(buckets)})
    if c != 1:
        out = {k: v / c for k, v in out.items()}
    return Form.raw(_DIM, _DIM - lam.degree, out)


def lambda2_14_basis(phi: Form, star_phi: Form) -> SolutionSpace:
    """The 14-dimensional component of 2-forms: kernel of a |-> a ^ star phi."""
    _expect(phi, 3)
    _expect(star_phi, 4)
    space = SolutionSpace(
        _PAIRS, [Form.monomial(_DIM, pair).wedge(star_phi).terms for pair in _PAIRS],
        lambda terms: Form(_DIM, 2, terms))
    if space.dimension != 14:
        raise WrongDimension(
            f"2-form kernel has dimension {space.dimension}, expected 14"
        )
    return space


def lambda3_27_check(alpha: Form, phi: Form, star_phi: Form) -> bool:
    """True iff alpha ^ phi = 0 and alpha ^ star phi = 0 exactly."""
    _expect(alpha, 3)
    return alpha.wedge(phi).is_zero() and alpha.wedge(star_phi).is_zero()


class TorsionSet(namedtuple("TorsionSet", ("tau0", "tau1", "tau2", "tau3"))):
    """The four torsion forms of a structure, in its own coframe."""

    __slots__ = ()

    def rescale(self, s) -> "TorsionSet":
        """Torsions of the same structure at volume scale s*c.

        Scaling the volume form by s divides the Hodge star by s, so the
        structure equations hold with (s tau0, tau1, tau2 / s, s tau3).
        The law is exact on representatives too: the torsion system at
        scale s*c is the one at c with rows and columns scaled by nonzero
        constants, so the elimination takes the same pivots, and each
        solved quotient keeps its denominator while its numerator scales
        by the constant.  The result holds the same tau1 object, which is
        safe to share: a form's `terms` refuse assignment."""
        s = Fraction(s)
        if s <= 0:
            raise ValidationError("scale factor must be a positive rational")
        return TorsionSet(
            tau0=self.tau0 * s,
            tau1=self.tau1,
            tau2=self.tau2 * (1 / s),
            tau3=self.tau3 * s,
        )

    def map_coefficients(self, fn) -> "TorsionSet":
        """The torsions with `fn` applied to tau0 and to every coefficient
        of tau1, tau2 and tau3 (`Form.map_coefficients`, which drops the
        coefficients `fn` sends to zero)."""
        return TorsionSet(fn(self.tau0), self.tau1.map_coefficients(fn),
                          self.tau2.map_coefficients(fn),
                          self.tau3.map_coefficients(fn))

    def lowest_terms(self) -> "TorsionSet":
        """The same torsions with each coefficient in lowest terms
        (`scalars.lowest_terms`).  `rescale` only scales contents, so it
        commutes with this reduction."""
        return self.map_coefficients(scalars.lowest_terms)


class TorsionSystem:
    """The assembled linear system for the torsion unknowns.

    Unknown order: tau0; tau1 components 1..7; tau2 components over
    index pairs in lexicographic order; tau3 components over triples.
    Rows 0..55 are the two structure equations (35 + 21 component rows);
    rows 56..70 are the membership constraints (7 + 7 + 1).  The
    right-hand side sits at column `width`.  The system holds no
    context: `check_torsions` takes the algebra, metric, 3-form and
    volume scale from the caller.
    """

    __slots__ = ("rows", "bryant_count", "_rank", "_kernel_dims")

    width = 1 + len(_SINGLES) + len(_PAIRS) + len(_TRIPLES)

    def __init__(self, rows, bryant_count):
        self.rows = rows
        self.bryant_count = bryant_count
        self._rank = None  # of the coefficient matrix, once known
        self._kernel_dims = None

    def solution(self) -> TorsionSet:
        """Unique exact solution, unpacked into the four torsion forms and
        not yet checked.  Non-uniqueness or inconsistency of the system
        signals a non-generic 3-form or a coframe mismatch and is raised,
        never patched over."""
        x = _linalg.solve_unique(self.rows, self.width)
        self._rank = self.width
        tau1 = Form(_DIM, 1, {(i,): v for i, v in zip(_SINGLES, x[1:8])})
        tau2 = Form(_DIM, 2, dict(zip(_PAIRS, x[8:29])))
        tau3 = Form(_DIM, 3, dict(zip(_TRIPLES, x[29:])))
        return TorsionSet(x[0], tau1, tau2, tau3)

    def membership_kernel_dims(self) -> dict:
        """{torsion form: dimension of the kernel of the membership rows on
        its unknowns (`_COLUMNS`)}, 1, 7, 14 and 27 for a generic 3-form;
        computed once.  Each membership row reads the unknowns of one form,
        so each dimension is the form's count of unknowns less the rank of
        its block, of at most 8 rows.  The tau2 block holds the columns
        e^{ij} ^ star phi: its kernel is the component of 2-forms that
        `lambda2_14_basis` spans."""
        if self._kernel_dims is None:
            blocks = {name: [] for name in _COLUMNS}
            # the membership rows carry no right-hand side
            for row in filter(None, self.rows[self.bryant_count :]):
                name = next(n for n, cols in _COLUMNS.items() if min(row) in cols)
                cols = _COLUMNS[name]
                if max(row) not in cols:
                    raise InternalInconsistency(
                        "a membership row mixes torsion components")
                blocks[name].append({c - cols.start: v for c, v in row.items()})
            self._kernel_dims = {
                name: len(cols) - _linalg.rank(blocks[name], len(cols))
                for name, cols in _COLUMNS.items()}
        return self._kernel_dims

    def membership_kernel_rank(self) -> int:
        """Rank of the Bryant rows B on the kernel of the membership rows M.

        For A = [B; M], ker A is ker B intersected with ker M, so by
        rank-nullity this is rank A - rank M, rank M read off
        `membership_kernel_dims`.  rank A is full once `solution()` has
        solved the system uniquely, even if a check of the solution then
        failed; otherwise it is one elimination of the system, without its
        right-hand side, which would swell through a symbolic elimination."""
        if self._rank is None:
            width = self.width
            self._rank = _linalg.rank(
                [{c: v for c, v in row.items() if c < width} for row in self.rows],
                width)
        return self._rank - self.width + sum(self.membership_kernel_dims().values())


def _expect(form: Form, degree: int) -> None:
    if form.dim != _DIM:
        raise DimensionMismatch(f"form must live on dimension {_DIM}")
    if form.degree != degree:
        raise DegreeMismatch(f"expected a {degree}-form, got degree {form.degree}")


def _descended_differential(algebra: LieAlgebra, form: Form) -> Form:
    """d(form) computed upstairs, checked to have no vertical legs."""
    lifted = form.extend(algebra.dim)
    d = algebra.mc_differential(lifted)
    for key in d.terms:
        if key and key[-1] > _DIM:
            raise ValidationError(
                "form does not descend: differential has vertical components"
            )
    return d.restrict(_DIM)


def torsion_linear_system(
    algebra: LieAlgebra, metric: Metric7, phi: Form, vol_scale=_F1
) -> TorsionSystem:
    """Assemble the 71-row exact system for the 64 torsion unknowns."""
    _expect(phi, 3)
    star_phi = hodge_star(metric, phi, vol_scale)
    d_phi = _descended_differential(algebra, phi)
    d_star_phi = _descended_differential(algebra, star_phi)

    width = TorsionSystem.width
    rows = [{} for _ in range(71)]

    def scatter(block, col, form, factor=None):
        """Enter the terms of one column form into the rows of its block;
        a form holds no zero terms, so no entry is zero."""
        for key, v in form.terms.items():
            rows[block[key]][col] = v if factor is None else factor * v

    def scatter_wedges(block, col, keys, form, factor=None):
        """Enter the columns e^k ^ form, k in `keys`, from `col` on.  Each
        term e^t of the form lands at one key k + t, so no entry sums
        anything and the merge table replaces the wedges."""
        table = _merge_table(len(keys[0]), form.degree)
        for k in keys:
            merges = table[k]
            for t, v in form.terms.items():
                hit = merges.get(t)
                if hit is not None:
                    key, sign = hit
                    if sign < 0:
                        v = -v
                    rows[block[key]][col] = v if factor is None else factor * v
            col += 1

    # columns are entered in ascending order, so every row lists its
    # entries by column
    # d phi = tau0 star phi + 3 tau1 ^ phi + star tau3: one row per 4-key
    scatter(_ROWS_DPHI, 0, star_phi)
    scatter_wedges(_ROWS_DPHI, 1, _SINGLE_KEYS, phi, 3)
    for idx, unit in enumerate(_UNIT_TRIPLES):
        scatter(_ROWS_DPHI, 29 + idx, hodge_star(metric, unit, vol_scale))
    scatter(_ROWS_DPHI, width, d_phi)

    # d star phi = 4 tau1 ^ star phi + tau2 ^ phi: one row per 5-key
    scatter_wedges(_ROWS_DSTAR, 1, _SINGLE_KEYS, star_phi, 4)
    scatter_wedges(_ROWS_DSTAR, 8, _PAIRS, phi)
    scatter(_ROWS_DSTAR, width, d_star_phi)

    # tau2 ^ star phi = 0: one row per 6-key
    scatter_wedges(_ROWS_TAU2_STAR, 8, _PAIRS, star_phi)

    # tau3 ^ phi = 0: one row per 6-key; tau3 ^ star phi = 0: the top row
    scatter_wedges(_ROWS_TAU3_PHI, 29, _TRIPLES, phi)
    scatter_wedges(_ROWS_TAU3_STAR, 29, _TRIPLES, star_phi)

    return TorsionSystem(rows, 56)


def torsion_solve(
    algebra: LieAlgebra, metric: Metric7, phi: Form, vol_scale=_F1
) -> TorsionSet:
    """Unique exact solution of the torsion equations, checked by
    `check_torsions`."""
    system = torsion_linear_system(algebra, metric, phi, vol_scale)
    return check_torsions(algebra, metric, phi, system.solution(), vol_scale)


def bryant_residual(
    algebra: LieAlgebra,
    metric: Metric7,
    phi: Form,
    torsions: TorsionSet,
    vol_scale=_F1,
) -> Tuple[Form, Form]:
    """Defects of both structure equations by direct substitution.

    Recomputes star phi, d phi, d star phi and star tau3 through the
    public operations and shares no state with the rows of the
    `TorsionSystem` that produced the torsions."""
    star_phi = hodge_star(metric, phi, vol_scale)
    d_phi = _descended_differential(algebra, phi)
    d_star_phi = _descended_differential(algebra, star_phi)
    star_tau3 = hodge_star(metric, torsions.tau3, vol_scale)
    res1 = d_phi - (
        star_phi * torsions.tau0 + torsions.tau1.wedge(phi) * 3 + star_tau3
    )
    res2 = d_star_phi - (
        torsions.tau1.wedge(star_phi) * 4 + torsions.tau2.wedge(phi)
    )
    return res1, res2


def check_torsions(algebra: LieAlgebra, metric: Metric7, phi: Form,
                   torsions: TorsionSet, vol_scale) -> TorsionSet:
    """`torsions`, once confirmed at volume scale `vol_scale`: by
    `bryant_residual`, which substitutes them into both structure
    equations through the public operations and shares no state with the
    rows of a `TorsionSystem`, and by the tau2 and tau3 component
    memberships.  A failed check raises InternalInconsistency."""
    res1, res2 = bryant_residual(algebra, metric, phi, torsions, vol_scale)
    if not (res1.is_zero() and res2.is_zero()):
        raise InternalInconsistency("solved torsions fail the structure equations")
    star_phi = hodge_star(metric, phi, vol_scale)
    if not torsions.tau2.wedge(star_phi).is_zero():
        raise InternalInconsistency("tau2 escapes its 14-dimensional component")
    if not lambda3_27_check(torsions.tau3, phi, star_phi):
        raise InternalInconsistency("tau3 escapes its 27-dimensional component")
    return torsions


def calibrate_vol_scale(reference_tau0, torsions_at_unit_scale: TorsionSet) -> Fraction:
    """The volume scale c* at which the solved tau0 meets the reference.

    tau0 scales linearly with the volume scale, so c* is the exact
    quotient reference / tau0(c=1).  The quotient must be a rational
    constant, also when both inputs carry parameters."""
    ref = scalars.as_scalar(reference_tau0)
    if scalars.is_zero(ref):
        raise ZeroReference("reference tau0 is zero")
    t0 = scalars.as_scalar(torsions_at_unit_scale.tau0)
    if scalars.is_zero(t0):
        raise ValidationError("cannot calibrate: solved tau0 vanishes at c=1")
    value = _constant_quotient(ref, t0)
    if value is None:
        raise ValidationError("calibration quotient is not constant")
    return value


def _constant_quotient(ref, t0):
    """ref / t0 as a Fraction when the quotient is constant, else None."""
    ratio = ref / t0
    if isinstance(ratio, Fraction):
        return ratio
    if isinstance(ratio, scalars.Polynomial):
        return ratio.constant_value() if ratio.is_constant() else None
    # unreduced quotient: constant k iff num == k * den, k read off at
    # the denominator's leading monomial
    num, den = ratio.num, ratio.den
    lead = den.leading_exponent()
    k = num.coefficient(lead) / den.coefficient(lead)
    if num == den * k:
        return k
    return None
