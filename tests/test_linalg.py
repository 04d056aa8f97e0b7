"""Sparse exact linear algebra against a dense Gaussian oracle."""

import random
from fractions import Fraction
from itertools import permutations
from math import gcd, lcm

import pytest

from splitg2 import _linalg, catalog, scalars, textio
from splitg2._linalg import (
    FractionDomain,
    PolyDomain,
    detect_domain,
    kernel_basis,
    prepare_rows,
    rank,
    row_reduce,
    row_reduce_min_fill,
    solve_in_span,
    solve_unique,
)
from splitg2.errors import (
    Degenerate,
    InconsistentSystem,
    NonUniqueSolution,
    SingularMatrix,
    ValidationError,
)
from splitg2.exterior import SymTensor2, Vector
from splitg2.liealg import BasisChange, Subspace
from splitg2.scalars import Polynomial, RationalFunction

from splitg2.g2 import Metric7, torsion_linear_system

from conftest import (
    ALPHABET,
    dense_kernel,
    dense_rref,
    random_fraction,
    random_polynomial,
    random_scalar,
    slice_document,
)


def random_sparse(rng, nrows, width, density=0.5):
    rows = []
    for _ in range(nrows):
        row = {}
        for c in range(width):
            if rng.random() < density:
                v = random_fraction(rng)
                if v:
                    row[c] = v
        rows.append(row)
    return rows


def to_dense(rows, width):
    return [[row.get(c, Fraction(0)) for c in range(width)] for row in rows]


# -- determinant and inverse ------------------------------------------------------


def permanent_style_det(m):
    # Leibniz expansion: 5040 terms at n = 7, about 0.1 s
    n = len(m)
    total = Fraction(0)
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        prod = Fraction(1)
        for i in range(n):
            prod *= m[i][perm[i]]
        total += sign * prod
    return total


def test_det_matches_leibniz(rng):
    """`Metric7.det`, read off the integer minors, against the Leibniz sum."""
    for density in (1.0, 0.6, 0.4, 1.0, 0.6, 0.4):
        m = [[Fraction(0)] * 7 for _ in range(7)]
        for i in range(7):
            for j in range(i, 7):
                if rng.random() < density:
                    m[i][j] = m[j][i] = random_fraction(rng)
        want = permanent_style_det(m)
        tensor = SymTensor2(7, {(i + 1, j + 1): m[i][j]
                                for i in range(7) for j in range(i, 7)})
        if want:
            assert Metric7(tensor).det == want
        else:
            with pytest.raises(Degenerate):
                Metric7(tensor)


def test_det_singular(rng):
    # g = A^T diag(d) A with A of rank 6: dense and singular
    a = [[rng.randint(-3, 3) for _ in range(7)] for _ in range(6)]
    d = [random_fraction(rng, nonzero=True) for _ in range(6)]
    m = [[sum((d[k] * a[k][i] * a[k][j] for k in range(6)), Fraction(0))
          for j in range(7)] for i in range(7)]
    assert permanent_style_det(m) == 0
    tensor = SymTensor2(7, {(i + 1, j + 1): m[i][j]
                            for i in range(7) for j in range(i, 7)})
    with pytest.raises(Degenerate, match="^metric determinant is zero$"):
        Metric7(tensor)


def test_inverse_round_trip(rng):
    """A basis change re-expresses each new vector as its unit vector."""
    changes = [catalog.scenario(name).basis for name in ("Ml", "Ms")]
    while len(changes) < 12:
        m = [[random_fraction(rng) for _ in range(3)] for _ in range(3)]
        if rank([dict(enumerate(r)) for r in m], 3) == 3:
            changes.append(BasisChange(m))
    for change in changes:
        n = change.dim
        assert [change.old_to_new(change.new_vector(i).components)
                for i in range(1, n + 1)] == [[Fraction(int(i == j)) for j in range(n)]
                                              for i in range(n)]


def test_inverse_rejects_singular():
    m = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]]
    with pytest.raises(SingularMatrix, match="^basis change matrix is singular$"):
        BasisChange(m)


# -- rank and kernel vs the dense oracle -------------------------------------------


def test_rank_matches_dense(rng):
    for _ in range(25):
        nrows = rng.randint(1, 6)
        width = rng.randint(1, 6)
        rows = random_sparse(rng, nrows, width)
        want, _ = dense_rref(to_dense(rows, width))
        assert rank(rows, width) == want


def test_kernel_matches_dense(rng):
    for _ in range(25):
        nrows = rng.randint(1, 5)
        width = rng.randint(1, 6)
        rows = random_sparse(rng, nrows, width)
        dense = to_dense(rows, width)
        want = dense_kernel(dense, width)
        got = kernel_basis(rows, width)
        assert got == want


def test_kernel_vectors_annihilate(rng):
    for _ in range(15):
        rows = random_sparse(rng, 4, 6)
        for vec in kernel_basis(rows, 6):
            for row in rows:
                s = sum((v * vec[c] for c, v in row.items()), Fraction(0))
                assert s == 0


# -- unique solve ------------------------------------------------------------------


def attach_rhs(rows, width, rhs):
    out = []
    for row, b in zip(rows, rhs):
        row = dict(row)
        if b:
            row[width] = b
        out.append(row)
    return out


def test_solve_unique_recovers_solution(rng):
    for _ in range(20):
        width = rng.randint(1, 5)
        # build a full-rank square system by rejection
        while True:
            m = [[random_fraction(rng) for _ in range(width)] for _ in range(width)]
            if rank([dict(enumerate(r)) for r in m], width) == width:
                break
        x = [random_fraction(rng) for _ in range(width)]
        rhs = [sum((m[i][j] * x[j] for j in range(width)), Fraction(0))
               for i in range(width)]
        rows = [{c: v for c, v in enumerate(m[i]) if v} for i in range(width)]
        assert solve_unique(attach_rhs(rows, width, rhs), width) == x


def test_solve_unique_rejects_underdetermined():
    rows = [{0: Fraction(1), 1: Fraction(1), 2: Fraction(3)}]
    with pytest.raises(NonUniqueSolution):
        solve_unique(rows, 2)


def test_solve_unique_rejects_inconsistent():
    rows = [
        {0: Fraction(1), 1: Fraction(2)},
        {0: Fraction(2), 1: Fraction(5)},
    ]
    with pytest.raises(InconsistentSystem):
        solve_unique(rows, 1)


def test_min_fill_agrees_with_fixed_order(rng):
    # both eliminations must produce the same unique solution
    for _ in range(10):
        width = rng.randint(2, 5)
        while True:
            m = [[random_fraction(rng) for _ in range(width)] for _ in range(width)]
            if rank([dict(enumerate(r)) for r in m], width) == width:
                break
        x = [random_fraction(rng) for _ in range(width)]
        rhs = [sum((m[i][j] * x[j] for j in range(width)), Fraction(0))
               for i in range(width)]
        rows = [{c: v for c, v in enumerate(m[i]) if v} for i in range(width)]
        aug = attach_rhs(rows, width, rhs)
        dom = FractionDomain()

        work1 = prepare_rows(aug, dom)
        p1 = row_reduce(work1, width, dom)
        work2 = prepare_rows(aug, dom)
        p2 = row_reduce_min_fill(work2, width, dom)
        assert len(p1) == len(p2) == width

        def extract(work, pivots):
            out = [Fraction(0)] * width
            for col, r in pivots.items():
                b = work[r].get(width, 0)
                out[col] = Fraction(b, work[r][col])
            return out

        assert extract(work1, p1) == extract(work2, p2) == x


def rescan_min_fill(rows, width, domain):
    """Reference for `row_reduce_min_fill`: the same Markowitz rule, with
    every column count rebuilt from all rows at every step."""
    pivots: dict = {}
    pivot_rows = set()
    while True:
        col_count: dict = {}
        for r, row in enumerate(rows):
            if r in pivot_rows:
                continue
            for c in row:
                if c < width and c not in pivots:
                    col_count[c] = col_count.get(c, 0) + 1
        best = None
        choice = None
        for r, row in enumerate(rows):
            if r in pivot_rows:
                continue
            live = [c for c in row if c < width and c not in pivots]
            if not live:
                continue
            weight = len(row) - 1
            for c in live:
                key = (
                    weight * (col_count[c] - 1),
                    domain.size(row[c]),
                    c,
                    r,
                )
                if best is None or key < best:
                    best = key
                    choice = (c, r)
        if choice is None:
            return pivots
        col, r = choice
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


def assert_min_fill_parity(rows, width, domain):
    ref = [dict(r) for r in rows]
    got = [dict(r) for r in rows]
    assert row_reduce_min_fill(got, width, domain) == rescan_min_fill(ref, width, domain)
    # same entries in the same order, so symbolic entries keep their form
    assert [list(r.items()) for r in got] == [list(r.items()) for r in ref]


def test_min_fill_parity_random_fraction_systems(rng):
    for _ in range(40):
        width = rng.randint(1, 8)
        rows = random_sparse(rng, rng.randint(1, 10), width + 1, rng.choice((0.2, 0.5)))
        domain = FractionDomain()
        assert_min_fill_parity(prepare_rows(rows, domain), width, domain)


def test_min_fill_parity_random_polynomial_systems(rng):
    domain = PolyDomain(ALPHABET)
    for _ in range(15):
        width = rng.randint(1, 4)
        rows = []
        for _ in range(rng.randint(1, 5)):
            row = {}
            for c in range(width + 1):
                if rng.random() < 0.5:
                    v = random_polynomial(rng, max_terms=2, max_exp=2)
                    if not v.is_zero():
                        row[c] = v
            rows.append(row)
        assert_min_fill_parity(prepare_rows(rows, domain), width, domain)


def torsion_work_rows(sc, phi):
    system = torsion_linear_system(sc.algebra, sc.metric, phi)
    domain = detect_domain(system.rows)
    return prepare_rows(system.rows, domain), system.width, domain


def test_min_fill_parity_symbolic_ml():
    sc = catalog.scenario("Ml")
    rows, width, domain = torsion_work_rows(sc, sc.phi_family)
    assert isinstance(domain, PolyDomain)
    assert_min_fill_parity(rows, width, domain)


def test_min_fill_parity_ml_points():
    sc = catalog.scenario("Ml")
    rng = random.Random(5)
    for _ in range(3):
        point = {"a": random_fraction(rng, nonzero=True),
                 "p": random_fraction(rng, nonzero=True),
                 "q": random_fraction(rng)}
        if point["q"] == 1:  # excluded from the family
            continue
        phi = sc.phi_family.map_coefficients(lambda c: scalars.specialize(c, point))
        rows, width, domain = torsion_work_rows(sc, phi)
        assert isinstance(domain, FractionDomain)
        assert_min_fill_parity(rows, width, domain)


# -- rational solve in ascending order against the min-fill order ----------------


def min_fill_solve(rows, width):
    """Reference for rational `solve_unique`: the same solve with the
    fill-minimizing pivot order that polynomial systems keep."""
    domain = detect_domain(rows)
    work = prepare_rows(rows, domain)
    pivots = row_reduce_min_fill(work, width, domain)
    if len(pivots) < width:
        free = [c for c in range(width) if c not in pivots]
        raise NonUniqueSolution(f"free unknowns at columns {free}")
    pivot_rows = set(pivots.values())
    if any(row for r, row in enumerate(work) if r not in pivot_rows):
        raise InconsistentSystem("zero row with nonzero right-hand side")
    x = [Fraction(0)] * width
    for col, r in pivots.items():
        b = work[r].get(width)
        x[col] = Fraction(0) if b is None else domain.div(b, work[r][col])
    return x


def solve_outcome(solve, rows, width):
    """The typed solution, or the class of the exception raised."""
    try:
        return [(type(v), v) for v in solve(rows, width)]
    except (NonUniqueSolution, InconsistentSystem) as exc:
        return type(exc)


def seeded_rational_systems(rng, cases):
    """(rows, width, solution) for augmented systems that are unique,
    underdetermined or inconsistent by construction (solution None unless
    unique), plus unconstrained random ones."""
    for _ in range(cases):
        width = rng.randint(1, 7)
        kind = rng.choice(("unique", "deficient", "inconsistent", "random"))
        if kind == "random":
            rows = random_sparse(rng, rng.randint(0, width + 3), width + 1, 0.4)
            yield rows, width, None
            continue
        rank_ = width if kind != "deficient" else rng.randint(0, width - 1)
        basis = random_sparse(rng, rank_, width, 0.6)
        while rank(basis, width) != rank_:
            basis = random_sparse(rng, rank_, width, 0.6)
        x = [random_fraction(rng) for _ in range(width)]

        def with_rhs(row):
            b = sum((v * x[c] for c, v in row.items()), Fraction(0))
            return {**row, width: b} if b else row

        rows = [with_rhs(b) for b in basis]
        for _ in range(rng.randint(0, 3)):  # dependent rows
            combo = {}
            for b in basis:
                k = random_fraction(rng)
                for c, v in b.items():
                    combo[c] = combo.get(c, Fraction(0)) + k * v
            rows.append(with_rhs({c: v for c, v in combo.items() if v}))
        if kind == "inconsistent":
            bad = dict(rng.choice(rows))
            bad[width] = bad.get(width, Fraction(0)) + random_fraction(rng, nonzero=True)
            rows.append({c: v for c, v in bad.items() if v})
        rng.shuffle(rows)
        yield rows, width, x if kind == "unique" else None


def test_rational_solve_matches_min_fill_order():
    outcomes = []
    for rows, width, x in seeded_rational_systems(random.Random(1013), 300):
        got = solve_outcome(solve_unique, rows, width)
        assert got == solve_outcome(min_fill_solve, rows, width)
        if x is not None:
            assert got == [(Fraction, v) for v in x]
        outcomes.append(got)
    # the sample reaches every outcome
    assert any(isinstance(x, list) for x in outcomes)
    assert {x for x in outcomes if isinstance(x, type)} == {NonUniqueSolution,
                                                           InconsistentSystem}


@pytest.mark.parametrize("name", ["Ml", "Ms"])
def test_rational_solve_matches_min_fill_order_at_points(name):
    sc = catalog.scenario(name)
    rng = random.Random(f"solve-parity:{name}")
    excluded = set(sc.exclusions)
    for _ in range(4):
        point = {}
        for p in sc.alphabet:
            v = random_fraction(rng, nonzero=True)
            while (p, v) in excluded:
                v = random_fraction(rng, nonzero=True)
            point[p] = v
        phi = sc.phi_family.map_coefficients(lambda c: scalars.specialize(c, point))
        system = torsion_linear_system(sc.algebra, sc.metric, phi)
        got = solve_outcome(solve_unique, system.rows, system.width)
        assert isinstance(got, list)
        assert got == solve_outcome(min_fill_solve, system.rows, system.width)


# -- span membership ---------------------------------------------------------------


def test_solve_in_span_positive(rng):
    for _ in range(15):
        width = rng.randint(2, 6)
        nspan = rng.randint(1, 3)
        span = [[random_fraction(rng) for _ in range(width)] for _ in range(nspan)]
        coeffs = [random_fraction(rng) for _ in range(nspan)]
        target = [sum((coeffs[i] * span[i][j] for i in range(nspan)), Fraction(0))
                  for j in range(width)]
        got = solve_in_span(span, target, width)
        assert got is not None
        rebuilt = [sum((got[i] * span[i][j] for i in range(nspan)), Fraction(0))
                   for j in range(width)]
        assert rebuilt == target


def test_solve_in_span_negative():
    span = [[Fraction(1), Fraction(0), Fraction(0)]]
    target = [Fraction(0), Fraction(1), Fraction(0)]
    assert solve_in_span(span, target, 3) is None


def test_solve_in_span_many_matches_one_target_at_a_time(rng):
    # several right-hand sides in one elimination give each target the
    # solution (or None) of its own elimination; spans may be dependent
    for _ in range(40):
        width = rng.randint(2, 7)
        nspan = rng.randint(1, 4)
        span = [[random_fraction(rng) for _ in range(width)] for _ in range(nspan)]
        targets = []
        for _ in range(rng.randint(1, 5)):
            if rng.random() < 0.5:
                coeffs = [random_fraction(rng) for _ in range(nspan)]
                targets.append([sum((coeffs[i] * span[i][j] for i in range(nspan)),
                                    Fraction(0)) for j in range(width)])
            else:
                targets.append([random_fraction(rng) for _ in range(width)])
        got = _linalg.solve_in_span_many(span, targets, width)
        want = [solve_in_span(span, target, width) for target in targets]
        assert [None if v is None else [(type(c), c) for c in v] for v in got] == \
            [None if v is None else [(type(c), c) for c in v] for v in want]
        span_rank = dense_rref(span)[0]
        for target, coeffs in zip(targets, got):
            assert (coeffs is not None) == (dense_rref(span + [target])[0] == span_rank)
            if coeffs is not None:
                assert [sum((coeffs[i] * span[i][j] for i in range(nspan)), Fraction(0))
                        for j in range(width)] == target


# -- integer rows against classical rational elimination ---------------------------


class RationalRowDomain:
    """Reference for `FractionDomain`: rows of Fractions and the classical
    update row - (f/p)*prow, as rational rows were eliminated before they
    were held as integer rows."""

    def size(self, entry):
        return 1

    def combine(self, p, row, f, prow, col):
        ratio = f / p
        out = {c: v for c, v in row.items() if c != col}
        for c, v in prow.items():
            if c == col:
                continue
            nxt = out.get(c, Fraction(0)) - ratio * v
            if nxt:
                out[c] = nxt
            else:
                out.pop(c, None)
        return out

    def div(self, a, b):
        return a / b


def rational_rows(rows, domain):
    """Reference for `prepare_rows` on rational rows: Fractions, zeros dropped."""
    return [{c: Fraction(v) for c, v in row.items() if v} for row in rows]


def mixed_sparse(rng, nrows, width):
    """Sparse rows of int and Fraction entries, empty rows included."""
    rows = []
    for _ in range(nrows):
        row = {}
        if rng.random() < 0.8:
            for c in range(width):
                if rng.random() < 0.4:
                    v = random_fraction(rng)
                    row[c] = int(v) if v.denominator == 1 and rng.random() < 0.5 else v
        rows.append(row)
    return rows


def elimination_results(rng_state, cases):
    """Every rational entry point on the seeded random systems, as
    (type, value) pairs so that an int cannot pass for a Fraction."""
    rng = random.Random(rng_state)

    def typed(vec):
        return None if vec is None else [(type(v), v) for v in vec]

    out = []
    for _ in range(cases):
        width = rng.randint(1, 6)
        rows = mixed_sparse(rng, rng.randint(0, 7), width)
        out.append(rank(rows, width))
        out.append([typed(v) for v in kernel_basis(rows, width)])
        aug = mixed_sparse(rng, rng.randint(width, width + 3), width + 1)
        try:
            out.append(typed(solve_unique(aug, width)))
        except (NonUniqueSolution, InconsistentSystem) as exc:
            out.append(type(exc))
        span = [[row.get(c, 0) for c in range(width)] for row in rows]
        target = [rng.choice((0, 1, Fraction(-2, 3))) for _ in range(width)]
        if span and rng.random() < 0.5:
            target = [sum((Fraction(k) * vec[c] for k, vec in enumerate(span)),
                          Fraction(0)) for c in range(width)]
        out.append(typed(solve_in_span(span, target, width)))
        gens = [Vector([row.get(c, 0) for c in range(width)]) for row in rows]
        out.append([str(b) for b in Subspace(width, gens).basis])
    return out


def test_integer_rows_match_rational_elimination(monkeypatch):
    got = elimination_results(41, 200)
    with monkeypatch.context() as m:
        m.setattr(_linalg, "FractionDomain", RationalRowDomain)
        m.setattr(_linalg, "prepare_rows", rational_rows)
        want = elimination_results(41, 200)
    assert got == want
    # the sample reaches unique, underdetermined and inconsistent systems
    solves = want[2::5]
    assert any(isinstance(x, list) for x in solves)
    assert {x for x in solves if isinstance(x, type)} == {NonUniqueSolution,
                                                          InconsistentSystem}


def test_prepared_rational_rows_are_primitive_integer_rows(rng):
    for _ in range(100):
        rows = mixed_sparse(rng, 4, 6)
        for row, prepared in zip(rows, prepare_rows(rows, FractionDomain())):
            assert prepared.keys() == {c for c, v in row.items() if v}
            assert all(type(v) is int for v in prepared.values())
            assert not prepared or gcd(*prepared.values()) == 1
            # a positive multiple of the original row
            if prepared:
                k = next(iter(prepared))
                scale = prepared[k] / Fraction(row[k])
                assert scale > 0
                assert all(v == scale * row[c] for c, v in prepared.items())


# -- polynomial domain ---------------------------------------------------------------


def test_poly_solve_two_by_two():
    # [[a, 1], [0, a]] x = [a + 1, a]  =>  x = (1, 1), valid whenever a != 0
    a = Polynomial.variable(("a",), "a")
    one = Polynomial.constant(("a",), 1)
    rows = [
        {0: a, 1: one, 2: a + one},
        {1: a, 2: a},
    ]
    x = solve_unique(rows, 2)
    assert scalars.equals(x[0], one)
    assert scalars.equals(x[1], one)


def test_poly_kernel():
    # row (a, -1): kernel spanned by (1, a)
    a = Polynomial.variable(("a",), "a")
    rows = [{0: a, 1: Polynomial.constant(("a",), -1)}]
    basis = kernel_basis(rows, 2)
    assert len(basis) == 1
    v0, v1 = basis[0]
    # a*v0 - v1 == 0
    prod = scalars.as_scalar(a)
    lhs = scalars.scalar_sum([prod * v0, v1 * scalars.as_scalar(-1)])
    assert scalars.is_zero(lhs)


def test_poly_rank_with_rational_entries():
    a = Polynomial.variable(("a",), "a")
    one = Polynomial.constant(("a",), 1)
    half_a = RationalFunction.make(a, Polynomial.constant(("a",), 2))
    rows = [{0: half_a, 1: one}, {0: a, 1: Polynomial.constant(("a",), 2)}]
    # second row is 2x the first: rank 1
    assert rank(rows, 2) == 1


# -- integer polynomial rows against Polynomial arithmetic ---------------------------


def reference_normalize_row(row, alphabet):
    """Reference for the integer row normaliser: divide a polynomial row by
    its rational content and its monomial content in Polynomial arithmetic."""
    if not row:
        return row
    num_gcd = 0
    den_lcm = 1
    lo = None
    for entry in row.values():
        c = entry.content
        num_gcd = gcd(num_gcd, c.numerator)
        den_lcm = lcm(den_lcm, c.denominator)
        e = entry.min_exponents()
        lo = list(e) if lo is None else [min(x, y) for x, y in zip(lo, e)]
    scale = Fraction(num_gcd, den_lcm)
    shift = tuple(lo)
    if scale == 1 and not any(shift):
        return row
    out = {}
    for c, entry in row.items():
        entry = Polynomial(alphabet, entry.content / scale, entry.terms)
        if any(shift):
            entry = entry.monomial_shift(shift)
        out[c] = entry
    return out


def reference_clear_row(row, alphabet):
    """Reference for `clear_row_denominators`: the same clearing, normalized
    by `reference_normalize_row`."""
    out = {}
    cleared = Polynomial.constant(alphabet, 1)
    for c in sorted(row):
        v = scalars.as_scalar(row[c])
        if scalars.is_zero(v):
            continue
        if isinstance(v, Fraction):
            out[c] = Polynomial.constant(alphabet, v) * cleared
        elif isinstance(v, Polynomial):
            out[c] = v * cleared
        elif v.den.is_constant():
            out[c] = (v.num / v.den.constant_value()) * cleared
        else:
            for k in out:
                out[k] = out[k] * v.den
            out[c] = v.num * cleared
            cleared = cleared * v.den
    return reference_normalize_row(out, alphabet)


class PolynomialRowDomain(PolyDomain):
    """Reference for `PolyDomain.combine`: the update p*row - f*prow in
    Polynomial arithmetic, as polynomial rows were eliminated before they
    were held as integer term maps."""

    def combine(self, p, row, f, prow, col):
        out = {c: p * v for c, v in row.items() if c != col}
        for c, v in prow.items():
            if c == col:
                continue
            cur = out.get(c)
            nxt = cur - f * v if cur is not None else -(f * v)
            if nxt.is_zero():
                out.pop(c, None)
            else:
                out[c] = nxt
        return reference_normalize_row(out, self.alphabet)


def layout(rows):
    """Every entry in order, with its content and its terms in order."""
    return [[(c, type(v.content), v.content, list(v.terms.items()))
             for c, v in row.items()] for row in rows]


def assert_poly_elimination_parity(rows, width, reduce):
    """The integer eliminator gives the entries of the Polynomial reference
    in the same order, after `prepare_rows` and after `reduce`."""
    alphabet = detect_domain(rows).alphabet
    got = prepare_rows(rows, PolyDomain(alphabet))
    want = [reference_clear_row(row, alphabet) for row in rows]
    assert layout(got) == layout(want)
    pivots = reduce(got, width, PolyDomain(alphabet))
    assert pivots == reduce(want, width, PolynomialRowDomain(alphabet))
    assert layout(got) == layout(want)
    return pivots


def test_poly_elimination_matches_polynomial_arithmetic(rng):
    pivoted = 0
    for _ in range(40):
        width = rng.randint(1, 5)
        rows = []
        for _ in range(rng.randint(1, 6)):
            row = {}
            for c in range(width + 1):
                if rng.random() < 0.5:
                    row[c] = rng.choice((
                        random_polynomial(rng, max_terms=3, max_exp=3),
                        random_scalar(rng), random_fraction(rng),
                        rng.randint(-3, 3)))
            rows.append(row)
        rows.append({0: Polynomial.variable(ALPHABET, "a")})  # polynomial domain
        for reduce in (row_reduce, row_reduce_min_fill):
            pivoted += len(assert_poly_elimination_parity(rows, width, reduce))
    assert pivoted > 100


def ml_slice(slope):
    """The Ml scenario on the slice p = slope*a, from its document."""
    return catalog.from_document(textio.parse_scenario(slice_document(slope)))


@pytest.mark.parametrize("name, vol_scale", [
    ("Ml", 1), ("Ml", Fraction(7, 3)), ("Ms", 1), ("Ml slice", 1)])
def test_poly_elimination_matches_polynomial_arithmetic_on_torsion_rows(
        name, vol_scale):
    sc = ml_slice(3) if name == "Ml slice" else catalog.scenario(name)
    system = torsion_linear_system(sc.algebra, sc.metric, sc.phi_family, vol_scale)
    assert isinstance(detect_domain(system.rows), PolyDomain)
    pivots = assert_poly_elimination_parity(system.rows, system.width,
                                            row_reduce_min_fill)
    assert len(pivots) == system.width


def test_field_overflow_in_the_eliminator_raises():
    # the pivot a^20000 times the entry a^20000 + 1 needs exponent 40000,
    # past the field limit of 32767
    a = Polynomial.variable(("a",), "a")
    big = a ** 20000
    rows = [{0: big, 1: 1}, {0: 1, 1: big + 1}]
    for entry in (lambda: rank(rows, 2), lambda: solve_unique(rows, 1)):
        with pytest.raises(ValidationError, match="exceeds the limit"):
            entry()
