"""Exact linear algebra: a sparse Gauss-Jordan engine that works over the
rationals or over a polynomial ring.  Both domains clear denominators
first and then eliminate fraction free, by cross-multiplication row
updates followed by content normalization: rational rows become
primitive integer rows (exact gcds, no Fraction arithmetic), polynomial
rows become Polynomial entries with integer contents of gcd 1 and no
common monomial factor (no polynomial division, no polynomial gcd).
Both row updates add through `kernels.poly_axpy`.  A rational row is an
integer map keyed by column, so its update is one `poly_axpy` of the two
rows followed by the division by their content.  A polynomial row
update runs on integer term maps: each entry is its integer content
times its packed-key term map, products go through `scalars.mul_terms`
and sums through `poly_axpy`, and one integer normaliser (`_poly_row`)
divides the result by the gcd of all its coefficients and by the common
monomial.  A polynomial pivot row that holds only its pivot forces its
unknown to zero, so its update drops the column from the other rows and
multiplies none of them by the pivot: fraction-free elimination scales
rows by factors it does not need (E. H. Bareiss, Math. Comp. 22, 1968),
and the Ml torsion system has 11 such rows.  Quotients appear only when
a solution is read off (`div`).

Rows are dicts from column index to nonzero entries.  Columns
0..width-1 are unknowns; any higher column indices are carried along,
which is how augmented right-hand sides travel through the elimination.
Two pivot orders exist: `row_reduce` takes the columns in ascending
order (deterministic echelon forms and kernel bases, used by `rank`,
`independent`, `kernel_basis`, `solve_in_span[_many]` and rational
`solve_unique`), and
`row_reduce_min_fill` follows a Markowitz rule, used only for
polynomial `solve_unique`, where a fixed order lets entries swell.

Every solver eliminates through `_eliminate`, which detects the domain,
prepares the rows and pivots them.  `rank` counts the pivots and
`independent` reads them as the indices of the first maximal linearly
independent subset of a list of vectors; the other solvers read each
solution, one per right-hand-side column (or per free column for a
kernel basis), off the pivot rows with `_read_off`.  Systems given by
columns (vectors, spans with their targets, the images of unit tensors)
become sparse rows through one `transpose`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, inf, lcm

from . import kernels, scalars
from .errors import DimensionMismatch, InconsistentSystem, NonUniqueSolution
from .scalars import Polynomial, RationalFunction

_F0 = Fraction(0)
_F1 = Fraction(1)


# -- domains for the sparse engine ------------------------------------------


class FractionDomain:
    """Rational rows held as primitive integer rows (see `prepare_rows`);
    cross-multiplication elimination, each update one `kernels.poly_axpy`
    of two rows keyed by column.

    A row and its integer multiple have the same solution set and the
    same nonzero pattern, so pivots, solutions and kernel bases are those
    of classical elimination over the rationals."""

    def size(self, entry) -> int:
        return 1

    def combine(self, p, row, f, prow, col):
        """p'*row - f'*prow with p' = p/g, f' = f/g, g = gcd(p, f), divided
        by its content: one `kernels.poly_axpy` on the integer rows.  The
        two entries at col cancel (p'f - f'p = 0) and drop out, and the
        other keys keep the order row's first, then prow's new ones."""
        g = gcd(p, f)
        return _primitive(kernels.poly_axpy(p // g, row, -(f // g), prow))

    def div(self, a, b):
        return Fraction(a, b)


def _primitive(row: dict) -> dict:
    """An integer row divided by the gcd of its entries."""
    g = gcd(*row.values())
    if g > 1:
        return {c: v // g for c, v in row.items()}
    return row


def _integer_row(row: dict) -> dict:
    """A rational row times the lcm of its denominators, divided by the
    gcd of the result: the primitive integer row with the same nonzero
    pattern, zeros dropped."""
    den = lcm(*(v.denominator for v in row.values()))
    return _primitive({c: v.numerator * (den // v.denominator)
                       for c, v in row.items() if v})


class PolyDomain:
    """Row entries are Polynomials with integer contents, gcd 1 over the
    row, and no common monomial factor (see `_poly_row`);
    cross-multiplication elimination on their integer term maps."""

    def __init__(self, alphabet: tuple):
        self.alphabet = alphabet

    def size(self, entry) -> int:
        return len(entry.terms)

    def combine(self, p, row, f, prow, col):
        """p*row - f*prow with col removed, divided by its integer and
        monomial content.  Each entry is carried as an integer multiplier
        times a primitive term map: a product is the product of the
        multipliers times `scalars.mul_terms` of the maps, and only an
        entry present in both rows needs `kernels.poly_axpy` and a gcd.

        A pivot row that holds only its pivot says p*x = 0, so x = 0 over
        the field of rational functions: the update drops col from row
        and renormalizes it, with no product by p.  The row then lacks
        the factor p that the cross-multiplication puts in, which can move
        later pivots and so the printed representatives, never the values."""
        if len(prow) == 1:
            return _poly_row({c: (v.content.numerator, v.terms)
                              for c, v in row.items() if c != col}, self.alphabet)
        width = len(self.alphabet)
        mul = scalars.mul_terms
        cp, tp = p.content.numerator, p.terms
        cf, tf = -f.content.numerator, f.terms
        out = {}
        for c, v in row.items():
            if c != col:
                out[c] = (cp * v.content.numerator, mul(tp, v.terms, width))
        for c, v in prow.items():
            if c == col:
                continue
            k, t = cf * v.content.numerator, mul(tf, v.terms, width)
            cur = out.get(c)
            if cur is None:
                out[c] = (k, t)
            else:
                g = gcd(cur[0], k)
                t = kernels.poly_axpy(cur[0] // g, cur[1], k // g, t)
                if t:
                    h, t = scalars.canonical_terms(t)
                    out[c] = (g * h, t)
                else:
                    del out[c]
        return _poly_row(out, self.alphabet)

    def div(self, a, b):
        return RationalFunction.make(a, b)


def _poly_row(entries: dict, alphabet: tuple) -> dict:
    """{col: Polynomial} from {col: (k, terms)}, k a nonzero int and terms
    a primitive term map with positive leading coefficient, divided by
    the gcd of the k (the gcd of all coefficients) and by the monomial
    dividing every term; entry order and term order are kept."""
    if not entries:
        return {}
    width = len(alphabet)
    g = gcd(*(k for k, _ in entries.values()))
    shift = scalars._min_key([scalars._min_key(t, width)
                              for _, t in entries.values()], width)
    out = {}
    for c, (k, t) in entries.items():
        if shift:
            t = {e - shift: v for e, v in t.items()}
        out[c] = Polynomial(alphabet, Fraction(k // g), t)
    return out


def clear_row_denominators(row: dict, alphabet: tuple) -> dict:
    """Turn mixed scalar entries into Polynomial entries times one common
    (dropped) denominator, normalized as `PolyDomain` rows are; preserves
    the row's solution set.

    Invariant while scanning: out[k] == original[k] * cleared, where
    `cleared` is the product of the denominators met so far.
    """
    out = {}
    cleared = Polynomial(alphabet, _F1, {0: 1})
    for c in sorted(row):
        v = row[c]
        if isinstance(v, (int, Fraction)):
            if not v:
                continue
            out[c] = cleared * v
        elif isinstance(v, Polynomial):
            if v.is_zero():
                continue
            out[c] = v * cleared
        elif isinstance(v, RationalFunction):
            if v.is_zero():
                continue
            if v.den.is_constant():
                out[c] = (v.num / v.den.constant_value()) * cleared
            else:
                for k in out:
                    out[k] = out[k] * v.den
                out[c] = v.num * cleared
                cleared = cleared * v.den
        else:
            raise TypeError(f"not a scalar entry: {v!r}")
    den = lcm(*(v.content.denominator for v in out.values()))
    return _poly_row({c: (v.content.numerator * (den // v.content.denominator),
                          v.terms)
                      for c, v in out.items()}, alphabet)


def row_reduce(rows: list, width: int, domain) -> dict:
    """Full Gauss-Jordan elimination in place; returns {pivot col: row index}.

    Columns are pivoted in ascending order, which fixes the echelon form
    (and hence kernel bases) deterministically.
    """
    pivots: dict = {}
    pivot_rows = set()
    for col in range(width):
        best = None
        for r, row in enumerate(rows):
            if r in pivot_rows:
                continue
            e = row.get(col)
            if e is None:
                continue
            key = (domain.size(e), len(row), r)
            if best is None or key < best[0]:
                best = (key, r)
        if best is None:
            continue
        r = best[1]
        pivots[col] = r
        pivot_rows.add(r)
        prow = rows[r]
        p = prow[col]
        for r2 in range(len(rows)):
            if r2 == r:
                continue
            row2 = rows[r2]
            f = row2.get(col)
            if f is None:
                continue
            rows[r2] = domain.combine(p, row2, f, prow, col)
    return pivots


def _tally(counts: dict, row: dict, width: int, step: int) -> bool:
    """Add `step` to the count of each unknown in `row`; True if it has one."""
    held = False
    for c in row:
        if c < width:
            counts[c] = counts.get(c, 0) + step
            held = True
    return held


def row_reduce_min_fill(rows: list, width: int, domain) -> dict:
    """Full Gauss-Jordan with a fill-minimizing pivot order.

    Each step picks the entry with the smallest Markowitz cost
    (row nonzeros - 1) * (column nonzeros - 1), breaking ties by entry
    size, then column, then row index, so the run is deterministic.  The
    pivot order (and on singular systems the pivot set) differs from
    `row_reduce`; eliminated values do not.  Intended for solves where
    every unknown must end up pivoted, where it avoids the severe
    intermediate blowup a fixed column order can cause over polynomial
    entries.

    Column nonzeros are counted over the live rows (not pivoted, holding
    an unknown).  A pivoted column is eliminated from every other row, so
    the counts change only in the rows that `combine` rewrites.
    """
    pivots: dict = {}
    counts: dict = {}
    live = {r for r, row in enumerate(rows) if _tally(counts, row, width, 1)}
    while live:
        best = (inf,)
        for r in live:
            row = rows[r]
            weight = len(row) - 1
            for c in row:
                if c < width:
                    cost = weight * (counts[c] - 1)
                    if cost <= best[0]:
                        best = min(best, (cost, domain.size(row[c]), c, r))
        col, r = best[2], best[3]
        pivots[col] = r
        live.discard(r)
        prow = rows[r]
        _tally(counts, prow, width, -1)
        p = prow[col]
        for r2, row2 in enumerate(rows):
            f = row2.get(col)
            if f is None or r2 == r:
                continue
            rows[r2] = domain.combine(p, row2, f, prow, col)
            if r2 in live:
                _tally(counts, row2, width, -1)
                if not _tally(counts, rows[r2], width, 1):
                    live.discard(r2)
    return pivots


def detect_domain(rows):
    """FractionDomain unless some entry carries parameters."""
    for row in rows:
        for v in row.values():
            if isinstance(v, (Polynomial, RationalFunction)):
                return PolyDomain(v.alphabet)
    return FractionDomain()


def prepare_rows(rows, domain):
    """Copy rows, dropping zeros: primitive integer rows for the rational
    domain, cleared denominators for the polynomial domain."""
    if isinstance(domain, PolyDomain):
        return [clear_row_denominators(row, domain.alphabet) for row in rows]
    return [_integer_row(row) for row in rows]


def _eliminate(rows, width: int, poly_reduce):
    """(domain, work, pivots): the domain of `rows`, their prepared copy
    eliminated in place, and its pivots.  Polynomial rows are pivoted by
    `poly_reduce`, rational rows always by `row_reduce`."""
    domain = detect_domain(rows)
    work = prepare_rows(rows, domain)
    reduce = poly_reduce if isinstance(domain, PolyDomain) else row_reduce
    return domain, work, reduce(work, width, domain)


def _read_off(domain, work, pivots, k, width):
    """The solution held in column k of the eliminated rows: its entry in
    each pivot row over that row's pivot, zero where it has none."""
    x = [_F0] * width
    for col, r in pivots.items():
        row = work[r]
        b = row.get(k)
        if b is not None:
            x[col] = domain.div(b, row[col])
    return x


def transpose(columns) -> list:
    """The sparse rows of the matrix whose column c is `columns[c]`, a map
    from row key to value (a list enters as `dict(enumerate(v))`): one
    row per key, keys sorted, zeros and empty rows skipped, each row's
    entries in column order."""
    rows: dict = {}
    for c, column in enumerate(columns):
        for key, v in column.items():
            if v:
                rows.setdefault(key, {})[c] = v
    return [rows[key] for key in sorted(rows)]


def rank(rows, width: int) -> int:
    return len(_eliminate(rows, width, row_reduce)[2])


def independent(vectors) -> list:
    """Ascending indices of the first maximal linearly independent subset
    of `vectors`: each vector that is not in the span of those before it.
    With the vectors as columns, those are the pivot columns of one
    elimination in ascending column order."""
    rows = transpose([dict(enumerate(v)) for v in vectors])
    return sorted(_eliminate(rows, len(vectors), row_reduce)[2])


def kernel_basis(rows, width: int) -> list:
    """Basis of the homogeneous kernel, one vector per free column.

    The basis is deterministic: free columns in ascending order, each
    basis vector has 1 at its free column.
    """
    domain, work, pivots = _eliminate(rows, width, row_reduce)
    basis = []
    for fc in range(width):
        if fc not in pivots:
            # x_fc = 1 moves column fc, negated, to the right-hand side
            vec = [-v for v in _read_off(domain, work, pivots, fc, width)]
            vec[fc] = _F1
            basis.append(vec)
    return basis


def solve_unique(rows, width: int) -> list:
    """Solve an augmented system (RHS at column index `width`) that is
    required to have exactly one solution.

    Rational systems are eliminated in ascending column order
    (`row_reduce`): a unique rational solution is a tuple of canonical
    Fractions, so the order cannot change it, and the ascending scan is
    the cheaper one.  Polynomial systems take the fill-minimizing order
    (`row_reduce_min_fill`): a fixed column order can make intermediate
    rows explode there.  Since quotients stay unreduced, the pivot order
    and the update rule of `PolyDomain.combine` (a pivot alone in its row
    drops its column unscaled) also fix the representatives that get
    printed.  The order decides which columns a `NonUniqueSolution` names
    as free.
    """
    domain, work, pivots = _eliminate(rows, width, row_reduce_min_fill)
    if len(pivots) < width:
        free = [c for c in range(width) if c not in pivots]
        raise NonUniqueSolution(f"free unknowns at columns {free}")
    pivot_rows = set(pivots.values())
    for r, row in enumerate(work):
        if r not in pivot_rows and row:
            raise InconsistentSystem("zero row with nonzero right-hand side")
    return _read_off(domain, work, pivots, width, width)


def solve_in_span(span_rows: list, target: list, width: int):
    """Coefficients expressing `target` over `span_rows`, or None.

    Both span vectors and the target are coordinate lists of length
    `width` over any one scalar domain; any other length raises
    DimensionMismatch.
    """
    return solve_in_span_many(span_rows, [target], width)[0]


def solve_in_span_many(span_rows: list, targets: list, width: int) -> list:
    """`solve_in_span` for each of several targets, in one elimination:
    the targets travel as right-hand-side columns, and each solution (or
    None) is read off the pivot rows."""
    vectors = [*span_rows, *targets]
    if any(len(v) != width for v in vectors):
        raise DimensionMismatch(f"span vectors and targets must have length {width}")
    n = len(span_rows)
    domain, work, pivots = _eliminate(
        transpose([dict(enumerate(v)) for v in vectors]), n, row_reduce)
    pivot_rows = set(pivots.values())
    # after the elimination a row without a pivot holds right-hand sides only
    outside = {k for r, row in enumerate(work) if r not in pivot_rows for k in row}
    return [None if k in outside else _read_off(domain, work, pivots, k, n)
            for k in range(n, n + len(targets))]
