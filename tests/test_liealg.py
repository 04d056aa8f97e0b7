"""Lie algebra layer: structure constants, differentials, subspaces."""

import random
import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest

from splitg2 import _linalg, catalog, kernels, scalars
from splitg2.errors import (
    DimensionMismatch,
    NotAFibration,
    NotInvariant,
    SingularMatrix,
    ValidationError,
)
from splitg2.exterior import Form, SymTensor2, Vector, sym_product
from splitg2.g2 import hodge_star
from splitg2.liealg import (
    BasisChange,
    LieAlgebra,
    Subspace,
    _defect_size,
    _mat_comm,
    _sym_accumulate,
    ad_invariance_check,
    algebra_from_matrices,
    change_basis,
    growth_vector,
    sp2_build,
    sp2_matrices,
)

from conftest import random_fraction, random_polynomial


def so3():
    return LieAlgebra(3, {
        (1, 2): {3: 1},
        (2, 3): {1: 1},
        (1, 3): {2: -1},
    })


def heisenberg3():
    return LieAlgebra(3, {(1, 2): {3: 1}})


def random_table(rng, dim, density=0.4):
    brackets = {}
    for j in range(1, dim + 1):
        for k in range(j + 1, dim + 1):
            comps = {}
            for i in range(1, dim + 1):
                if rng.random() < density:
                    c = rng.randint(-3, 3)
                    if c:
                        comps[i] = c
            if comps:
                brackets[(j, k)] = comps
    return brackets


# -- construction ------------------------------------------------------------------


def test_bracket_antisymmetry():
    g = so3()
    x = Vector([1, 2, 0])
    y = Vector([0, 1, -1])
    assert (g.bracket(x, y) + g.bracket(y, x)).is_zero()


def pairwise_bracket(algebra, x, y):
    """Reference for `LieAlgebra.bracket`: the sum over every pair J < K of
    the bracket table, (x_J y_K - x_K y_J) [e_J, e_K], in table order."""
    acc = [Fraction(0)] * algebra.dim
    for (j, k), comps in algebra.brackets.items():
        w = x[j] * y[k] - x[k] * y[j]
        if scalars.is_zero(w):
            continue
        for i, c in comps.items():
            acc[i - 1] = acc[i - 1] + w * c
    return Vector(acc)


def random_vector(rng, dim, density):
    return Vector([random_fraction(rng) if rng.random() < density else 0
                   for _ in range(dim)])


def bracket_algebras():
    rng = random.Random(5)
    yield "sp2", sp2_build()
    yield "Ml", catalog.scenario("Ml").algebra
    yield "Ms", catalog.scenario("Ms").algebra
    for dim in (3, 7, 12):
        yield f"random{dim}", LieAlgebra(dim, random_table(rng, dim))
    table = random_table(rng, 6)
    yield "random6-fractions", LieAlgebra(6, {
        pair: {i: Fraction(c, rng.randint(1, 9)) for i, c in comps.items()}
        for pair, comps in table.items()})


@pytest.mark.parametrize("name, algebra", list(bracket_algebras()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_sparse_bracket_matches_the_pairwise_sum(name, algebra):
    rng = random.Random(f"bracket:{name}")
    n = algebra.dim
    for density in (0.1, 0.25, 0.5, 0.75, 1.0):
        for _ in range(12):
            x = random_vector(rng, n, density)
            y = random_vector(rng, n, density)
            got = algebra.bracket(x, y)
            assert got.components == pairwise_bracket(algebra, x, y).components
            assert all(type(c) is Fraction for c in got.components)
            assert (got + algebra.bracket(y, x)).is_zero()
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            got = algebra.bracket(Vector.basis(n, a), Vector.basis(n, b))
            want = algebra.bracket_basis(a, b)
            assert got.components == tuple(want.get(i, Fraction(0))
                                           for i in range(1, n + 1))


def test_symbolic_bracket_keeps_the_pairwise_order():
    """Non-rational vectors and structure constants give the value of the
    sum over the table's pairs; quotients stay unreduced, so the value is
    compared, not the rendering."""
    rng = random.Random(11)
    alphabet = ("a", "p", "q")
    g = sp2_build()

    def symbolic():
        return Vector([scalars.parse_scalar(
            f"({random_polynomial(rng)})/(a + {rng.randint(1, 5)})", alphabet)
            if rng.random() < 0.5 else random_fraction(rng)
            for _ in range(g.dim)])

    symbolic_table = LieAlgebra(4, {
        pair: {i: scalars.parse_scalar(f"{c}/(p - {i})", alphabet)
               for i, c in comps.items()}
        for pair, comps in random_table(rng, 4, 0.6).items()})
    cases = [(g, symbolic(), symbolic()) for _ in range(6)]
    cases += [(symbolic_table, random_vector(rng, 4, 0.8),
               random_vector(rng, 4, 0.8)) for _ in range(6)]
    for algebra, x, y in cases:
        got = algebra.bracket(x, y)
        want = pairwise_bracket(algebra, x, y)
        assert all(scalars.equals(a, b)
                   for a, b in zip(got.components, want.components))


def pairwise_change_basis(algebra, change):
    """Reference for `change_basis` over `pairwise_bracket`."""
    n = algebra.dim
    brackets = {}
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            w = pairwise_bracket(algebra, change.new_vector(a), change.new_vector(b))
            brackets[(a, b)] = dict(enumerate(change.old_to_new(w.components), 1))
    return LieAlgebra(n, brackets)


def dense_old_to_new(change, coords):
    """Reference for `BasisChange.old_to_new`: every (old, new) index pair."""
    inv = change._inverse
    out = []
    for d in range(change.dim):
        total = Fraction(0)
        for c in range(change.dim):
            if not scalars.is_zero(coords[c]) and inv[c][d]:
                total = total + coords[c] * inv[c][d]
        out.append(total)
    return out


def test_sparse_old_to_new_matches_the_dense_sum():
    rng = random.Random(23)
    alphabet = ("a", "p", "q")
    changes = [catalog.scenario(name).basis for name in ("Ml", "Ms")]
    changes.append(BasisChange([[rng.randint(-2, 2) for _ in range(5)]
                                for _ in range(5)]))
    for change in changes:
        for _ in range(10):
            coords = [random_fraction(rng) if rng.random() < 0.5 else 0
                      for _ in range(change.dim)]
            got = change.old_to_new(coords)
            want = dense_old_to_new(change, coords)
            assert got == want and list(map(type, got)) == list(map(type, want))
            symbolic = [scalars.parse_scalar(
                f"({random_polynomial(rng)})/(q + {rng.randint(1, 4)})", alphabet)
                if rng.random() < 0.5 else Fraction(0) for _ in range(change.dim)]
            assert ([scalars.render_scalar(x) for x in change.old_to_new(symbolic)]
                    == [scalars.render_scalar(x)
                        for x in dense_old_to_new(change, symbolic)])


def test_change_basis_matches_the_pairwise_reference():
    g = sp2_build()
    changes = [catalog.scenario(name).basis for name in ("Ml", "Ms")]
    rng = random.Random(17)
    while len(changes) < 6:
        density = rng.choice((0.2, 0.5, 1.0))
        try:
            changes.append(BasisChange(
                [[rng.randint(-3, 3) if rng.random() < density else 0
                  for _ in range(g.dim)] for _ in range(g.dim)]))
        except SingularMatrix:
            continue
    for change in changes:
        got = change_basis(g, change)
        assert got.brackets == pairwise_change_basis(g, change).brackets
    for name in ("Ml", "Ms"):
        assert (change_basis(g, catalog.scenario(name).basis).brackets
                == catalog.scenario(name).algebra.brackets)


def test_bracket_pair_validation():
    with pytest.raises(ValueError):
        LieAlgebra(3, {(2, 1): {3: 1}})
    with pytest.raises(ValueError):
        LieAlgebra(3, {(1, 2): {4: 1}})


def test_jacobi_ok_for_so3():
    assert so3().jacobi_check().ok


def test_jacobi_violation_message():
    bad = LieAlgebra(3, {(1, 2): {3: 1}, (1, 3): {1: 1}})
    report = bad.jacobi_check()
    assert not report.ok
    assert str(report) == "violation at (1, 2, 3): e_3: -1"


def dense_jacobi(g):
    """Reference Jacobi check: visits every one of the C(dim, 3) triples."""
    worst = None
    n = g.dim
    for j in range(1, n + 1):
        for k in range(j + 1, n + 1):
            for l in range(k + 1, n + 1):
                defect = {}
                for x, y, z in ((j, k, l), (k, l, j), (l, j, k)):
                    for m, c in g.bracket_basis(x, y).items():
                        for i, c2 in g.bracket_basis(m, z).items():
                            v = defect.get(i, Fraction(0)) + c * c2
                            if v:
                                defect[i] = v
                            else:
                                defect.pop(i, None)
                if defect:
                    size = _defect_size(defect)
                    if worst is None or size > worst[0]:
                        worst = (size, (j, k, l), defect)
    if worst is None:
        return True, None, None
    return False, worst[1], worst[2]


def test_jacobi_matches_dense_reference(rng):
    sp2 = sp2_build()
    algebras = [so3(), heisenberg3(), sp2,
                catalog.scenario("Ml").algebra, catalog.scenario("Ms").algebra,
                LieAlgebra(16, sp2.brackets)]
    for _ in range(12):
        # shift one structure constant, possibly on a pair sp2 leaves zero
        table = {pair: dict(row) for pair, row in sp2.brackets.items()}
        j, k = sorted(rng.sample(range(1, 11), 2))
        i = rng.randint(1, 10)
        row = table.setdefault((j, k), {})
        row[i] = row.get(i, 0) + rng.choice((-2, -1, 1, Fraction(1, 2)))
        algebras.append(LieAlgebra(rng.choice((10, 13)), table))
    for _ in range(8):
        algebras.append(LieAlgebra(6, random_table(rng, 6, density=0.15)))
    failures = 0
    for g in algebras:
        report = g.jacobi_check()
        assert (report.ok, report.triple, report.defect) == dense_jacobi(g)
        failures += not report.ok
    assert failures >= 10


def test_jacobi_reads_cached_ad_columns(monkeypatch, rng):
    # no bracket_basis call: every bracket comes from the ad(e_a) columns,
    # without a copied or negated component map per visited triple
    calls = []
    original = LieAlgebra.bracket_basis

    def spy(self, j, k):
        calls.append((j, k))
        return original(self, j, k)

    table = {pair: dict(row) for pair, row in sp2_build().brackets.items()}
    table[(2, 9)][5] += 1
    fresh = [LieAlgebra(10, table), LieAlgebra(12, sp2_build().brackets),
             LieAlgebra(6, random_table(rng, 6, density=0.3))]
    want = [dense_jacobi(g) for g in fresh]
    assert calls == []  # the spy is not installed yet
    monkeypatch.setattr(LieAlgebra, "bracket_basis", spy)
    got = [g.jacobi_check() for g in fresh]
    assert calls == []
    assert [(r.ok, r.triple, r.defect) for r in got] == want
    assert not got[0].ok


def test_jacobi_memory_stays_quadratic():
    # a bracket on every consecutive pair makes about dim^2 / 2 candidate
    # triples; only those of one smallest index are held at a time
    n = 120
    g = LieAlgebra(n, {(j, j + 1): {1: Fraction(1)} for j in range(1, n)})
    tracemalloc.start()
    try:
        report = g.jacobi_check()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.triple == (2, 3, 4)
    assert peak < 500_000


# -- Killing form -------------------------------------------------------------------


def test_killing_so3():
    # the ad-trace form is -2 I; killing() applies the 1/12 normalization
    k = so3().killing()
    want = SymTensor2(3, {(1, 1): Fraction(-1, 6), (2, 2): Fraction(-1, 6),
                          (3, 3): Fraction(-1, 6)})
    assert (k - want).is_zero()


def test_sp2_build_is_built_once():
    assert sp2_build() is sp2_build()


def test_killing_matches_trace_oracle(rng):
    g = sp2_build()
    k = g.killing()
    for _ in range(6):
        j = rng.randint(1, 10)
        l = rng.randint(j, 10)
        # tr(ad_j ad_l) computed from dense ad matrices
        def ad(a):
            m = [[Fraction(0)] * 10 for _ in range(10)]
            for col in range(1, 11):
                for i, c in g.bracket_basis(a, col).items():
                    m[i - 1][col - 1] = Fraction(c)
            return m
        aj, al = ad(j), ad(l)
        trace = sum(sum(aj[r][s] * al[s][r] for s in range(10)) for r in range(10))
        assert k.entry(j, l) == trace / 12


def test_killing_heisenberg_is_zero():
    assert heisenberg3().killing().is_zero()


def test_killing_symmetric_under_basis_change(rng):
    # K' = B K B^T when rows of B express new vectors in the old basis
    g = so3()
    for _ in range(10):
        while True:
            rows = [[random_fraction(rng) for _ in range(3)] for _ in range(3)]
            try:
                change = BasisChange(rows)
            except SingularMatrix:
                continue
            break
        h = change_basis(g, change)
        kb = h.killing().to_matrix()
        k = g.killing().to_matrix()
        b = change.matrix
        want = [[sum(b[i][r] * k[r][s] * b[j][s] for r in range(3)
                     for s in range(3)) for j in range(3)] for i in range(3)]
        assert kb == want


# -- coframe differential ------------------------------------------------------------


def test_coframe_differential_so3():
    g = so3()
    assert (g.coframe_differential(1) - Form(3, 2, {(2, 3): -1})).is_zero()
    assert (g.coframe_differential(2) - Form(3, 2, {(1, 3): 1})).is_zero()
    assert (g.coframe_differential(3) - Form(3, 2, {(1, 2): -1})).is_zero()


def test_d_squared_zero_iff_jacobi(rng):
    # the differential squares to zero exactly on Jacobi tables
    hits = {True: 0, False: 0}
    for _ in range(40):
        dim = rng.randint(3, 5)
        g = LieAlgebra(dim, random_table(rng, dim))
        flat = all(
            g.mc_differential(g.coframe_differential(i)).is_zero()
            for i in range(1, dim + 1)
        )
        ok = g.jacobi_check().ok
        assert flat == ok
        hits[ok] += 1
    # the sample must exercise both directions
    assert hits[True] > 0 and hits[False] > 0


def test_mc_differential_is_antiderivation(rng):
    g = sp2_build()
    for _ in range(10):
        a = Form.monomial(10, (rng.randint(1, 5),)) * random_fraction(rng)
        b = Form.monomial(10, tuple(sorted(rng.sample(range(1, 11), 2))))
        lhs = g.mc_differential(a.wedge(b))
        rhs = g.mc_differential(a).wedge(b) - a.wedge(g.mc_differential(b))
        assert (lhs - rhs).is_zero()


def termwise_mc_differential(algebra, form):
    """Reference differential: every term re-derives d e^key from the
    coframe differentials, term by term, with no cached columns."""
    buckets = {}
    for key, coeff in form.terms.items():
        for t, idx in enumerate(key):
            rest = key[:t] + key[t + 1:]
            for pair, u in algebra.coframe_differential(idx).terms.items():
                merged = kernels.merge_indices(pair, rest)
                if merged is None:
                    continue
                mkey, sign = merged
                if t % 2:
                    sign = -sign
                v = coeff * u
                if sign < 0:
                    v = -v
                buckets.setdefault(mkey, []).append(v)
    out = {}
    for mkey, bucket in buckets.items():
        total = bucket[0] if len(bucket) == 1 else scalars.scalar_sum(bucket)
        if not scalars.is_zero(total):
            out[mkey] = total
    return out


def random_form(rng, dim, degree, coefficient, density):
    """About `density` of the degree-`degree` monomials, so that the
    differentials of distinct terms meet at common keys."""
    return Form(dim, degree, {key: coefficient()
                              for key in combinations(range(1, dim + 1), degree)
                              if rng.random() < density})


def symbolic_coefficients(rng):
    """Fractions, polynomials and quotients over two shared denominators,
    so that terms meet both equal and distinct denominators."""
    dens = []
    while len(dens) < 2:
        den = random_polynomial(rng, max_terms=2, max_exp=2)
        if den:
            dens.append(den)

    def draw():
        kind = rng.randrange(3)
        if kind == 0:
            return random_fraction(rng, nonzero=True)
        if kind == 1:
            return random_polynomial(rng)
        return scalars.RationalFunction.make(random_polynomial(rng), rng.choice(dens))

    return draw


@pytest.mark.parametrize("name", ["Ms", "Ml", "sp2"])
def test_cached_differential_matches_termwise(name):
    g = sp2_build() if name == "sp2" else catalog.scenario(name).algebra
    rng = random.Random(808)
    forms = []
    for degree in range(g.dim + 1):
        for density in (0.1, 0.5):
            forms.append(random_form(rng, g.dim, degree,
                                     lambda: random_fraction(rng, nonzero=True), density))
            forms.append(random_form(rng, g.dim, degree, symbolic_coefficients(rng),
                                     density))
    if name != "sp2":
        sc = catalog.scenario(name)
        forms += [sc.phi_family.extend(g.dim),
                  hodge_star(sc.metric, sc.phi_family).extend(g.dim)]
    for w in forms:
        got = g.mc_differential(w)
        want = termwise_mc_differential(g, w)
        assert got.degree == w.degree + 1
        assert got.terms.keys() == want.keys()
        assert all(scalars.equals(v, want[k]) for k, v in got.terms.items())
        # the same representatives, not only the same values
        assert ({k: str(v) for k, v in got.terms.items()}
                == {k: str(v) for k, v in want.items()})
        assert g.mc_differential(got).is_zero()


def test_mc_differential_dimension_guard():
    with pytest.raises(DimensionMismatch):
        so3().mc_differential(Form.monomial(4, (1,)))


# -- Lie derivatives ------------------------------------------------------------------


def test_lie_derivative_coframe_weight_rule(rng):
    # L_a e^I = -c^I_aK e^K
    g = sp2_build()
    for _ in range(10):
        a = rng.randint(1, 10)
        i = rng.randint(1, 10)
        got = g.lie_derivative_form(a, Form.monomial(10, (i,)))
        want_terms = {}
        for kk in range(1, 11):
            lo, hi = min(a, kk), max(a, kk)
            if lo == hi:
                continue
            c = g.brackets.get((lo, hi), {}).get(i, 0)
            if a > kk:
                c = -c
            if c:
                want_terms[(kk,)] = -Fraction(c)
        assert (got - Form(10, 1, want_terms)).is_zero()


def test_lie_derivative_commutes_with_d(rng):
    g = sp2_build()
    for _ in range(8):
        keys = tuple(sorted(rng.sample(range(1, 11), 2)))
        w = Form.monomial(10, keys) * random_fraction(rng)
        a = rng.randint(1, 10)
        lhs = g.lie_derivative_form(a, g.mc_differential(w))
        rhs = g.mc_differential(g.lie_derivative_form(a, w))
        assert (lhs - rhs).is_zero()


def test_lie_derivative_sym2_product_rule(rng):
    # must agree with the derivation extension of the coframe rule
    g = sp2_build()
    for _ in range(8):
        alpha = Form(10, 1, {(rng.randint(1, 10),): random_fraction(rng, nonzero=True)})
        beta = Form(10, 1, {(rng.randint(1, 10),): random_fraction(rng, nonzero=True)})
        a = rng.randint(1, 10)
        lhs = g.lie_derivative_sym2(a, sym_product(alpha, beta))
        rhs = (sym_product(g.lie_derivative_form(a, alpha), beta)
               + sym_product(alpha, g.lie_derivative_form(a, beta)))
        assert (lhs - rhs).is_zero()


def dense_sym_accumulate(algebra, a, tensor):
    """Reference for `_sym_accumulate`: every entry (k, l), k <= l, summed
    over the dense matrix of the tensor."""
    n = algebra.dim
    g = tensor.to_matrix()
    cols = [{}] + [algebra.bracket_basis(a, k) for k in range(1, n + 1)]
    out = {}
    for kk in range(1, n + 1):
        for ll in range(kk, n + 1):
            total = Fraction(0)
            for i, c in cols[kk].items():
                v = g[i - 1][ll - 1]
                if not scalars.is_zero(v):
                    total = total - c * v
            for i, c in cols[ll].items():
                v = g[kk - 1][i - 1]
                if not scalars.is_zero(v):
                    total = total - v * c
            if not scalars.is_zero(total):
                out[(kk, ll)] = total
    return out


@pytest.mark.parametrize("name", ["Ms", "Ml", "sp2", "random"])
def test_sparse_sym_lie_derivative_matches_dense(name):
    rng = random.Random(909)
    if name == "random":
        g = LieAlgebra(6, random_table(rng, 6))
    else:
        g = sp2_build() if name == "sp2" else catalog.scenario(name).algebra
    pairs = list(combinations(range(1, g.dim + 1), 2)) + [(i, i) for i in range(1, g.dim + 1)]
    for density in (0.05, 0.3):
        for coefficient in (lambda: random_fraction(rng, nonzero=True),
                            symbolic_coefficients(rng)):
            tensor = SymTensor2(g.dim, {p: coefficient() for p in pairs
                                        if rng.random() < density})
            for a in range(1, g.dim + 1):
                got = _sym_accumulate(g, a, tensor)
                want = dense_sym_accumulate(g, a, tensor)
                # the same entries in the same order, with the same representatives
                assert ([(k, type(v), str(v)) for k, v in got.items()]
                        == [(k, type(v), str(v)) for k, v in want.items()])


def test_killing_is_ad_invariant():
    g = sp2_build()
    k = g.killing()
    for a in range(1, 11):
        assert g.lie_derivative_sym2(a, k).is_zero()


# -- basis change ----------------------------------------------------------------------


def test_permutation_basis_change():
    g = heisenberg3()
    # cycle e1 -> e2 -> e3 -> e1: new_1 = old_2, new_2 = old_3, new_3 = old_1
    h = change_basis(g, BasisChange.permutation([2, 3, 1]))
    # [new_2, new_3] = [old_3, old_1] = -old_3... = 0? no: [e3, e1] = 0
    # only surviving bracket: [new_3, new_1] = [old_1, old_2] = old_3 = new_2
    assert h.brackets == {(1, 3): {2: Fraction(-1)}}


def test_scaling_basis_change():
    g = heisenberg3()
    h = change_basis(g, BasisChange([[2, 0, 0], [0, 1, 0], [0, 0, 1]]))
    # [2 e1, e2] = 2 e3
    assert h.brackets == {(1, 2): {3: Fraction(2)}}


def test_basis_change_round_trip(rng):
    g = so3()
    while True:
        rows = [[random_fraction(rng) for _ in range(3)] for _ in range(3)]
        try:
            change = BasisChange(rows)
        except SingularMatrix:
            continue
        break
    h = change_basis(g, change)
    assert h.jacobi_check().ok
    back = change_basis(h, BasisChange(change._inverse))
    assert back.brackets == g.brackets


def test_singular_change_rejected():
    with pytest.raises(SingularMatrix):
        BasisChange([[1, 1], [1, 1]])


# -- the ten-dimensional algebra --------------------------------------------------------


def test_sp2_dimensions_and_jacobi():
    g = sp2_build()
    assert g.dim == 10
    assert g.jacobi_check().ok


def test_sp2_killing_nondegenerate():
    from splitg2._linalg import rank

    k = sp2_build().killing().to_matrix()
    assert rank([dict(enumerate(row)) for row in k], 10) == 10


# -- structure constants of matrix sets ------------------------------------------------


def per_pair_brackets(matrices):
    """The bracket table with one `solve_in_span` per pair of generators:
    the reference for the single elimination of `algebra_from_matrices`."""
    n, size = len(matrices), len(matrices[0])
    flat = [[m[i][j] for i in range(size) for j in range(size)] for m in matrices]
    brackets = {}
    for a in range(n):
        for b in range(a + 1, n):
            comm = _mat_comm(matrices[a], matrices[b])
            target = [comm[i][j] for i in range(size) for j in range(size)]
            coords = _linalg.solve_in_span(flat, target, size * size)
            if coords is None:
                raise ValidationError(
                    f"commutator of generators {a + 1},{b + 1} leaves the span")
            brackets[(a + 1, b + 1)] = dict(enumerate(coords, 1))
    return brackets


def unit_matrix(size, i, j):
    m = [[Fraction(0)] * size for _ in range(size)]
    m[i][j] = Fraction(1)
    return m


def matmul(x, y):
    return [[sum((x[i][k] * y[k][j] for k in range(len(y))), Fraction(0))
             for j in range(len(y[0]))] for i in range(len(x))]


def so3_matrices():
    return [[[Fraction(v) for v in row] for row in m] for m in (
        ((0, 0, 0), (0, 0, -1), (0, 1, 0)),
        ((0, 0, 1), (0, 0, 0), (-1, 0, 0)),
        ((0, -1, 0), (1, 0, 0), (0, 0, 0)),
    )]


def sl2_matrices():
    h = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(-1)]]
    return [h, unit_matrix(2, 0, 1), unit_matrix(2, 1, 0)]


def upper_triangular_matrices():
    return [unit_matrix(3, i, j) for i in range(3) for j in range(i, 3)]


def conjugated_sp2_matrices():
    p = [[Fraction(v) for v in row] for row in
         ((2, 1, 0, 0), (0, Fraction(1, 3), 1, 0), (0, 0, 1, -1), (1, 0, 0, Fraction(5, 2)))]
    q = BasisChange(p)._inverse
    return [matmul(matmul(p, [list(r) for r in m]), q) for m in sp2_matrices()]


def typed_table(brackets):
    return {pair: {i: (type(c), c) for i, c in comps.items()}
            for pair, comps in brackets.items()}


@pytest.mark.parametrize("build", [sp2_matrices, so3_matrices, sl2_matrices,
                                   upper_triangular_matrices,
                                   conjugated_sp2_matrices],
                         ids=lambda build: build.__name__)
def test_algebra_from_matrices_matches_per_pair_solves(build):
    matrices = build()
    algebra = algebra_from_matrices(matrices)
    want = LieAlgebra(len(matrices), per_pair_brackets(matrices))
    assert typed_table(algebra.brackets) == typed_table(want.brackets)
    assert algebra.jacobi_check().ok
    # each bracket reassembles its commutator
    size = len(matrices[0])
    for (a, b), comps in algebra.brackets.items():
        acc = [[sum((c * matrices[i - 1][r][s] for i, c in comps.items()), Fraction(0))
                for s in range(size)] for r in range(size)]
        comm = _mat_comm(matrices[a - 1], matrices[b - 1])
        assert acc == [list(row) for row in comm]


def test_conjugated_sp2_keeps_the_structure_constants():
    conjugated = algebra_from_matrices(conjugated_sp2_matrices())
    assert typed_table(conjugated.brackets) == typed_table(sp2_build().brackets)


def test_algebra_from_matrices_names_the_first_pair_leaving_the_span():
    # [e, f] and [f, g] leave the span; [h, e], [h, f], [h, g], [e, g] stay
    matrices = [unit_matrix(3, 0, 0), unit_matrix(3, 0, 1), unit_matrix(3, 1, 0),
                unit_matrix(3, 0, 2)]
    with pytest.raises(ValidationError) as want:
        per_pair_brackets(matrices)
    with pytest.raises(ValidationError) as got:
        algebra_from_matrices(matrices)
    assert str(got.value) == str(want.value)
    assert str(got.value) == "commutator of generators 2,3 leaves the span"


# -- fibrations and leaves ----------------------------------------------------------------


def product_with_so3():
    # abelian plane times so(3); verticals live at indices 3..5
    return LieAlgebra(5, {
        (3, 4): {5: 1},
        (4, 5): {3: 1},
        (3, 5): {4: -1},
    })


def test_horizontal_integrability():
    assert product_with_so3().horizontal_integrability(2)


def test_not_a_fibration():
    g = LieAlgebra(4, {(3, 4): {1: 1}})
    assert not g.horizontal_integrability(2)
    with pytest.raises(NotAFibration):
        g.leaf_restriction(2)


# -- subspaces and growth ---------------------------------------------------------------------


def test_subspace_echelon_basis():
    s = Subspace.span(3, [2, 0, 0], [1, 1, 0], [3, 1, 0])
    assert s.rank == 2
    assert s.contains(Vector([5, -7, 0]))
    assert not s.contains(Vector([0, 0, 1]))


def test_subspace_sum():
    a = Subspace.span(3, [1, 0, 0])
    b = Subspace.span(3, [0, 0, 2])
    assert a.sum(b).rank == 2


def test_heisenberg_growth():
    g = heisenberg3()
    dist = Subspace.span(3, [1, 0, 0], [0, 1, 0])
    stab = Subspace(3, [])
    assert growth_vector(g, dist, stab) == [2, 3]


def test_growth_stops_at_stabilization():
    g = so3()
    dist = Subspace.span(3, [1, 0, 0], [0, 1, 0])
    stab = Subspace(3, [])
    assert growth_vector(g, dist, stab) == [2, 3]


def test_growth_requires_invariance():
    g = so3()
    dist = Subspace.span(3, [1, 0, 0])
    stab = Subspace.span(3, [0, 1, 0])
    # [e2, e1] = -e3 is not in dist + stab
    assert not ad_invariance_check(g, dist, stab)
    with pytest.raises(NotInvariant):
        growth_vector(g, dist, stab)
