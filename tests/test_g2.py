"""Metric, Hodge star, compatibility and the torsion solver."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from splitg2 import _linalg, catalog, cli, scalars, textio
from splitg2.errors import (
    Degenerate,
    DegreeMismatch,
    DimensionMismatch,
    InconsistentSystem,
    InternalInconsistency,
    NonUniqueSolution,
    ValidationError,
    ZeroReference,
)
from splitg2.exterior import Form, SymTensor2, Vector, fold, interior
from splitg2.g2 import (
    Metric7,
    TorsionSet,
    _complement,
    _descended_differential,
    bryant_residual,
    calibrate_vol_scale,
    check_torsions,
    compatibility_defect,
    hodge_star,
    lambda2_14_basis,
    lambda3_27_check,
    torsion_linear_system,
    torsion_solve,
)
from splitg2.report import Report

from conftest import (
    random_fraction,
    random_polynomial,
    random_scalar,
    run_python,
    slice_document,
)

TOP = tuple(range(1, 8))


def euclidean():
    return Metric7(SymTensor2(7, {(i, i): 1 for i in range(1, 8)}))


def split_diag():
    return Metric7(SymTensor2(7, {(i, i): 1 if i <= 3 else -1 for i in range(1, 8)}))


@pytest.fixture(scope="module")
def ml():
    return catalog.scenario("Ml")


@pytest.fixture(scope="module")
def ms():
    return catalog.scenario("Ms")


def specialize_form(form, alphabet, point):
    return form.map_coefficients(
        lambda c: scalars.specialize(scalars.as_scalar(c), point)
    )


@pytest.fixture(scope="module")
def ms_at_2(ms):
    phi = specialize_form(ms.phi_family, ms.alphabet, {"q": Fraction(2)})
    return ms.metric, phi


# -- Metric7 -----------------------------------------------------------------------


def test_metric_validation():
    with pytest.raises(DimensionMismatch):
        Metric7(SymTensor2(6, {(1, 1): 1}))
    with pytest.raises(Degenerate):
        Metric7(SymTensor2(7, {(1, 1): 1}))
    entries = {(i, i): 1 for i in range(2, 8)}
    entries[(1, 1)] = scalars.Polynomial.variable(("a",), "a")
    with pytest.raises(ValidationError):
        Metric7(SymTensor2(7, entries))


def test_metric_inverse_and_det():
    m = split_diag()
    assert m.det == 1


def test_metric_matrix_is_frozen():
    # the integer rows of D g, which the cached minors and star columns
    # are read from, cannot be changed in place
    m = split_diag()
    assert m._int_rows == tuple(((1 << (i - 1), 1 if i <= 3 else -1),)
                                for i in TOP)
    with pytest.raises(TypeError):
        m._int_rows[0] = ()
    with pytest.raises(TypeError):
        m._int_rows[0][0] = (1, 2)
    assert m.signature() == (3, 4)


def test_metric_keeps_its_own_copy_of_the_tensor():
    tensor = SymTensor2(7, {(i, i): 1 for i in TOP})
    phi = Form(7, 3, {(1, 2, 3): 1, (1, 4, 5): 1, (2, 4, 6): 1})
    m = Metric7(tensor)
    defect = compatibility_defect(m, phi)
    vol6 = Form(7, 6, {TOP[1:]: 1})
    star = hodge_star(m, vol6)
    # the entries are a read-only view, so the metric can hold the
    # caller's tensor: g, det g, the inertia, the cached star columns and
    # the defect all stay on the g the metric was built from
    with pytest.raises(TypeError):
        tensor.terms[(1, 1)] = Fraction(5)
    assert m.tensor.entry(1, 1) == 1
    assert (m.det, m.signature()) == (1, (7, 0))
    assert hodge_star(m, vol6) == star == Form(7, 1, {(1,): 1})
    assert compatibility_defect(m, phi) == defect


def test_signature_diagonal():
    assert euclidean().signature() == (7, 0)
    assert split_diag().signature() == (3, 4)


def test_signature_hyperbolic_block():
    # e^1 (.) e^2 pairing contributes (1, 1)
    entries = {(i, i): 1 for i in range(3, 8)}
    entries[(1, 2)] = Fraction(1, 2)
    m = Metric7(SymTensor2(7, entries))
    assert m.signature() == (6, 1)


def congruent_metric(rng):
    """(g, det g, inertia) for g = P^T Delta P, Delta diagonal and
    P = B T Pi: B block diagonal with hyperbolic blocks [[1, 1], [1, -1]]
    and integer 1 x 1 blocks, T unit upper triangular or the identity, Pi
    a permutation.  det P = det B * sign(Pi), and by Sylvester's law of
    inertia g has the inertia of Delta: no elimination is involved.

    A hyperbolic block turns the pair (a, -a) of Delta into
    [[0, 2a], [2a, 0]], so g has zero diagonal entries when T is the
    identity, as the anti-diagonal catalogue metrics do; some of those
    have trace 0, so the sum E_1 of the 1 x 1 principal minors vanishes."""
    wanted = rng.randint(0, 7)
    pairs = rng.randint(0, min(3, wanted, 7 - wanted))
    delta = []
    for _ in range(pairs):
        a = random_fraction(rng, nonzero=True)
        delta += [a, -a]
    singles = 7 - 2 * pairs
    negative = set(rng.sample(range(singles), wanted - pairs))
    ks = [rng.choice((-2, -1, 1, 2, 3)) for _ in range(singles)]
    delta += [abs(random_fraction(rng, nonzero=True)) * (-1 if i in negative else 1)
              for i in range(singles)]
    triangular = rng.random() < 0.5
    if not triangular and singles > 1 and rng.random() < 0.5:
        rest = sum(k * k * d for k, d in zip(ks, delta[2 * pairs:-1]))
        if rest:
            delta[-1] = -rest / ks[-1] ** 2
    b = [[0] * 7 for _ in range(7)]
    for p in range(pairs):
        b[2 * p][2 * p] = b[2 * p][2 * p + 1] = b[2 * p + 1][2 * p] = 1
        b[2 * p + 1][2 * p + 1] = -1
    for i, k in enumerate(ks, 2 * pairs):
        b[i][i] = k
    t = [[1 if i == j else rng.randint(-2, 2) if i < j and triangular else 0
          for j in range(7)] for i in range(7)]
    perm = list(range(7))
    rng.shuffle(perm)
    sign = (-1) ** sum(perm[i] > perm[j] for i, j in combinations(range(7), 2))
    bt = [[sum(b[i][k] * t[k][j] for k in range(7)) for j in range(7)]
          for i in range(7)]
    p = [[bt[i][perm.index(j)] for j in range(7)] for i in range(7)]
    det_p = (-2) ** pairs * sign
    for k in ks:
        det_p *= k
    det = Fraction(det_p * det_p)
    for d in delta:
        det *= d
    g = [[sum((p[k][i] * delta[k] * p[k][j] for k in range(7)), Fraction(0))
          for j in range(7)] for i in range(7)]
    # a trace-0 adjustment above may have changed the sign count
    minus = sum(d < 0 for d in delta)
    return g, det, (7 - minus, minus)


def test_det_and_signature_by_congruence(rng):
    """`Metric7.det` and `signature()` on seeded g = P^T Delta P, against
    det P^2 det Delta and the inertia of Delta."""
    seen = {"inertia": set(), "zero diagonal": 0, "trace 0": 0,
            "denominators": 0}
    for _ in range(160):
        g, det, inertia = congruent_metric(rng)
        m = Metric7(SymTensor2(7, {(i, j): g[i - 1][j - 1]
                                   for i in TOP for j in TOP if i <= j}))
        assert (m.det, m.signature()) == (det, inertia)
        seen["inertia"].add(inertia)
        seen["zero diagonal"] += any(not g[i][i] for i in range(7))
        seen["trace 0"] += not sum(g[i][i] for i in range(7))
        seen["denominators"] += m._scale > 1
    # every inertia, and the cases that separate the rule from its slips
    assert seen["inertia"] == {(7 - k, k) for k in range(8)}
    assert min(seen["zero diagonal"], seen["trace 0"], seen["denominators"]) >= 5


def test_scenario_metrics(ml, ms):
    assert ml.metric.det == Fraction(-1, 4)
    assert ms.metric.det == -2
    assert ml.metric.signature() == (4, 3)
    assert ms.metric.signature() == (4, 3)


# -- Hodge star --------------------------------------------------------------------


def test_star_euclidean_hand_values():
    m = euclidean()
    assert hodge_star(m, Form.monomial(7, (1,))).terms == {
        (2, 3, 4, 5, 6, 7): Fraction(1)
    }
    assert hodge_star(m, Form.monomial(7, (2,))).terms == {
        (1, 3, 4, 5, 6, 7): Fraction(-1)
    }
    assert hodge_star(m, Form.monomial(7, (1, 2))).terms == {
        (3, 4, 5, 6, 7): Fraction(1)
    }
    top = tuple(range(1, 8))
    assert hodge_star(m, Form.monomial(7, top)).terms == {(): Fraction(1)}
    assert hodge_star(m, Form(7, 0, {(): Fraction(1)})).terms == {top: Fraction(1)}


def dense_det(rows):
    """Determinant of a dense square Fraction matrix by Gaussian
    elimination; written independently of `Metric7._minor` on purpose."""
    m = [list(map(Fraction, row)) for row in rows]
    det = Fraction(1)
    for col in range(len(m)):
        piv = next((r for r in range(col, len(m)) if m[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, len(m)):
            f = m[r][col] / m[col][col]
            if f:
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return det


def closed_form_star(metric, key, c):
    """(star e^I)_J = sgn(I, I^c) * det g[J, I^c] / c, by determinants."""
    comp = tuple(i for i in TOP if i not in key)
    perm = key + comp
    inversions = sum(1 for i, j in combinations(range(7), 2) if perm[i] > perm[j])
    sign = -1 if inversions % 2 else 1
    terms = {}
    for out in combinations(TOP, len(comp)):
        det = dense_det([[metric.tensor.entry(j, k) for k in comp]
                         for j in out])
        if det:
            terms[out] = sign * det / c
    return terms


def lowered(metric, i):
    """The 1-form g(e_i, .) in coframe components."""
    return Form(7, 1, {(j,): metric.tensor.entry(i, j) for j in TOP})


def star_by_identity(metric, lam, c=1):
    """The star straight from its defining identity, one wedge chain per
    output key: (star lam)(e_u1, ..., e_uk) vol = lam ^ g(e_u1) ^ ... ^ g(e_uk)."""
    out = {}
    for key in combinations(TOP, 7 - lam.degree):
        w = lam
        for u in key:
            w = w.wedge(lowered(metric, u))
        coeff = w.coefficient(TOP)
        if not scalars.is_zero(scalars.as_scalar(coeff)):
            out[key] = coeff / Fraction(c)
    return Form(7, 7 - lam.degree, out)


def test_star_matches_closed_form_on_all_monomials(ml, ms):
    for metric in (ml.metric, ms.metric, euclidean(), split_diag()):
        for c in (Fraction(1), Fraction(3), Fraction(-2, 5)):
            for p in range(8):
                for key in combinations(TOP, p):
                    got = hodge_star(metric, Form.monomial(7, key), c).terms
                    assert got == closed_form_star(metric, key, c), (key, c)


def test_star_matches_defining_identity_on_symbolic_forms(ml, ms, rng):
    for sc in (ml, ms):
        for c in (1, Fraction(3)):
            want = star_by_identity(sc.metric, sc.phi_family, c)
            got = hodge_star(sc.metric, sc.phi_family, c)
            assert got == want
            assert str(got) == str(want)
    for degree in (2, 3):
        keys = list(combinations(TOP, degree))
        lam = Form(7, degree, {k: random_scalar(rng, nonzero=True)
                               for k in rng.sample(keys, 4)})
        for metric in (ml.metric, split_diag()):
            assert hodge_star(metric, lam, 3) == star_by_identity(metric, lam, 3)


def wedge_identity_columns(metric):
    """Reference for `Metric7._star_column`: every unit-scale monomial star
    column from the defining identity of `hodge_star`,
    (star e^I)(e_u1, ..., e_uk) e^{1...7} = e^I ^ g(e_u1) ^ ... ^ g(e_uk),
    the wedge chains g(e_u1) ^ ... ^ g(e_uk) shared between all I.  Of a
    chain only its term at the complement J of I survives the wedge with
    e^I, which gives that term times the sign of e^I ^ e^J."""
    chains = {(): Form(7, 0, {(): 1})}
    for k in range(1, 8):
        for out in combinations(TOP, k):
            chains[out] = chains[out[:-1]].wedge(lowered(metric, out[-1]))
    columns = {}
    for p in range(8):
        for key in combinations(TOP, p):
            rest = tuple(i for i in TOP if i not in key)
            sign = Form.monomial(7, key).wedge(Form.monomial(7, rest)).terms[TOP]
            column = columns[key] = {}
            for out in combinations(TOP, 7 - p):
                c = chains[out].terms.get(rest)
                if c:
                    column[out] = sign * c
    return columns


def seeded_dense_metrics(rng, count):
    """Nondegenerate symmetric 7x7 rational metrics with no zero entry."""
    out = []
    while len(out) < count:
        entries = {(i, j): random_fraction(rng, height=3, nonzero=True)
                   for i in range(1, 8) for j in range(i, 8)}
        try:
            out.append(Metric7(SymTensor2(7, entries)))
        except Degenerate:
            continue
    return out


def test_star_columns_match_the_wedge_identity(ml, ms):
    metrics = [ml.metric, ms.metric, euclidean(), split_diag()]
    metrics += seeded_dense_metrics(random.Random(12), 20)
    for metric in metrics:
        want = wedge_identity_columns(metric)
        assert len(want) == 128
        for key, column in want.items():
            got = metric._star_column(key)
            # same values in the same key order, all Fractions
            assert list(got.items()) == list(column.items()), key
            assert all(type(v) is Fraction for v in got.values())


def test_star_is_linear(rng):
    m = euclidean()
    for _ in range(5):
        keys = list(combinations(range(1, 8), 2))
        a = Form(7, 2, {k: random_fraction(rng) for k in rng.sample(keys, 3)})
        b = Form(7, 2, {k: random_fraction(rng) for k in rng.sample(keys, 3)})
        s = random_fraction(rng)
        lhs = hodge_star(m, a * s + b)
        rhs = hodge_star(m, a) * s + hodge_star(m, b)
        assert (lhs - rhs).is_zero()


def test_double_star_multiplies_by_det_over_scale_squared(rng, ms):
    # this star normalizes against the fixed frame volume, so the
    # composite picks up det g / c^2 rather than just the sign
    for metric in (euclidean(), split_diag(), ms.metric):
        for p, c in ((1, Fraction(1)), (2, Fraction(3)), (3, Fraction(2, 5))):
            key = tuple(sorted(rng.sample(range(1, 8), p)))
            a = Form.monomial(7, key)
            ss = hodge_star(metric, hodge_star(metric, a, c), c)
            assert (ss - a * (metric.det / c ** 2)).is_zero()


def test_star_volume_scale():
    m = euclidean()
    a = Form.monomial(7, (1, 4))
    assert (hodge_star(m, a, 3) - hodge_star(m, a) * Fraction(1, 3)).is_zero()


def test_star_rejects_zero_scale():
    with pytest.raises(Degenerate):
        hodge_star(euclidean(), Form.monomial(7, (1,)), 0)


def test_star_pairing_recovers_norm(rng):
    # a ^ star a = |a|^2 vol for 1-forms in the Euclidean metric
    m = euclidean()
    comps = [random_fraction(rng) for _ in range(7)]
    a = Form(7, 1, {(i + 1,): c for i, c in enumerate(comps) if c})
    w = a.wedge(hodge_star(m, a))
    want = sum(c * c for c in comps)
    assert w.coefficient(tuple(range(1, 8))) == want


# -- compatibility -----------------------------------------------------------------


def test_compatibility_identically_zero(ml, ms):
    assert compatibility_defect(ml.metric, ml.phi_family).is_zero()
    assert compatibility_defect(ms.metric, ms.phi_family).is_zero()


def test_compatibility_cubic_scaling(ms_at_2, ms):
    # B is cubic in phi: scaling phi by 2 leaves defect 3*(8-1)*g
    metric, phi = ms_at_2
    defect = compatibility_defect(metric, phi * 2)
    assert (defect - metric.tensor * 21).is_zero()


def test_compatibility_detects_perturbation(ms_at_2):
    metric, phi = ms_at_2
    assert not compatibility_defect(metric, phi + Form.monomial(7, (1, 2, 3))).is_zero()


def wedge_compatibility_defect(metric, phi):
    """Reference for `compatibility_defect`: B_uv read off the full wedge
    (e_u -| phi) ^ (e_v -| phi) ^ phi."""
    hooked = [None] + [interior(Vector.basis(7, m), phi) for m in range(1, 8)]
    entries = {(u, v): hooked[u].wedge(hooked[v]).wedge(phi).coefficient(TOP)
               for u in range(1, 8) for v in range(u, 8)}
    return SymTensor2(7, entries) - metric.tensor * 3


def pairwise_compatibility_defect(metric, phi):
    """Reference for `compatibility_defect`: B_uv from the 28 wedges
    (e_u -| phi) ^ (e_v -| phi), u <= v, each 4-form term paired with the
    term of phi at its complement."""
    hooked = [None] + [interior(Vector.basis(7, m), phi) for m in range(1, 8)]
    entries = {}
    for u in range(1, 8):
        for v in range(u, 8):
            bucket = []
            for key, x in hooked[u].wedge(hooked[v]).terms.items():
                rest, sign = _complement(key)
                y = phi.terms.get(rest)
                if y is not None:
                    bucket.append(x * y if sign > 0 else -(x * y))
            entries[(u, v)] = fold({TOP: bucket}).get(TOP, Fraction(0))
    return SymTensor2(7, entries) - metric.tensor * 3


def test_compatibility_defect_matches_the_full_wedge(ml, ms, ms_at_2, rng):
    """The seven 5-forms (e_v -| phi) ^ phi give the defect of the full
    wedge and of the 28 pairwise wedges, entry order and text included:
    on both families, seeded points of them, and seeded nonzero bumps,
    rational at the points, rational functions and polynomials on the
    families."""
    cases = [ms_at_2, (ms_at_2[0], ms_at_2[1] + Form.monomial(7, (1, 2, 3)))]
    for sc in (ml, ms):
        cases.append((sc.metric, sc.phi_family))
        for _ in range(3):
            point = {name: random_fraction(rng, nonzero=True) + 2
                     for name in sc.alphabet}
            phi = specialize_form(sc.phi_family, sc.alphabet, point)
            keys = rng.sample(list(combinations(TOP, 3)), 3)
            bump = Form(7, 3, {k: random_fraction(rng, nonzero=True) for k in keys})
            cases += [(sc.metric, phi), (sc.metric, phi + bump)]
        for _ in range(3):
            keys = rng.sample(list(combinations(TOP, 3)), 3)
            bump = Form(7, 3, {k: random_scalar(rng, sc.alphabet, nonzero=True)
                               for k in keys})
            cases.append((sc.metric, sc.phi_family + bump))
        cases.append((sc.metric, sum(
            (gen * random_polynomial(rng, sc.alphabet)
             for _, gen in sc.expected.form_family), Form.zero(7, 3))))
    failing = []
    for metric, phi in cases:
        got = compatibility_defect(metric, phi)
        for reference in (wedge_compatibility_defect, pairwise_compatibility_defect):
            want = reference(metric, phi)
            assert list(got.terms) == list(want.terms)
            assert got == want
            assert str(got) == str(want)
        if not got.is_zero():
            failing.append(all(isinstance(c, Fraction) for c in got.terms.values()))
    # nonzero defects: 7 rational, 8 symbolic
    assert failing.count(True) == 7 and failing.count(False) == 8


# -- the 2-form and 3-form components -------------------------------------------------


def test_lambda2_14(ms_at_2):
    metric, phi = ms_at_2
    star_phi = hodge_star(metric, phi)
    space = lambda2_14_basis(phi, star_phi)
    assert space.dimension == 14
    for alpha in space.basis:
        assert alpha.wedge(star_phi).is_zero()


def test_lambda3_27_rejects_phi(ms_at_2):
    metric, phi = ms_at_2
    star_phi = hodge_star(metric, phi)
    assert not lambda3_27_check(phi, phi, star_phi)


# -- torsion -----------------------------------------------------------------------------


def test_torsion_system_shape(ms_at_2):
    metric, phi = ms_at_2
    system = torsion_linear_system(catalog.scenario("Ms").algebra, metric, phi)
    assert system.width == 64
    assert system.bryant_count == 56
    assert len(system.rows) == 71
    # the tau2 membership block holds the columns e^{ij} ^ star phi
    assert (system.membership_kernel_dims()["tau2"]
            == lambda2_14_basis(phi, hodge_star(metric, phi)).dimension)
    assert system.membership_kernel_rank() == 49


def full_kernel_rank(system):
    """Reference for `TorsionSystem.membership_kernel_rank`: the kernel of
    all membership rows as one system, dense, with every Bryant row
    projected through every kernel vector."""
    kernel = _linalg.kernel_basis(system.rows[system.bryant_count:], system.width)
    rows = []
    for row in system.rows[: system.bryant_count]:
        new_row = {}
        for s, vec in enumerate(kernel):
            total = Fraction(0)
            for c, v in row.items():
                if c < system.width and vec[c]:
                    total = total + v * vec[c]
            if not scalars.is_zero(total):
                new_row[s] = total
        rows.append(new_row)
    return _linalg.rank(rows, len(kernel))


def seeded_systems():
    """(context, system) at two seeded points of each scenario for each
    volume scale 1, 3 and 7/3: the torsion system and the (algebra,
    metric, phi, volume scale) it was built from."""
    from splitg2.cli import _sample_point

    out = []
    for name in ("Ml", "Ms"):
        sc = catalog.scenario(name)
        rng = random.Random(f"rank:{name}")
        for c in (Fraction(1), Fraction(3), Fraction(7, 3)):
            for _ in range(2):
                phi = specialize_form(sc.phi_family, sc.alphabet,
                                      _sample_point(rng, sc))
                context = (sc.algebra, sc.metric, phi, c)
                out.append((context, torsion_linear_system(*context)))
    return out


def symbolic_system(sc):
    """(context, system) of the scenario's family at volume scale 1."""
    context = (sc.algebra, sc.metric, sc.phi_family, Fraction(1))
    return context, torsion_linear_system(*context)


def fresh_copy(system, rows=None, bryant_count=None):
    """A system that has not been solved or ranked; over the same rows
    unless others are given."""
    from splitg2.g2 import TorsionSystem

    return TorsionSystem(
        system.rows if rows is None else rows,
        system.bryant_count if bryant_count is None else bryant_count)


def checked_solution(context, system):
    """The solution of `system`, checked by `check_torsions` in the
    context it was built in."""
    algebra, metric, phi, c = context
    return check_torsions(algebra, metric, phi, system.solution(), c)


def solve_attempted(context, system):
    """A fresh copy of `system` whose checked torsion solve has run, and
    succeeded or failed."""
    tried = fresh_copy(system)
    try:
        checked_solution(context, tried)
    except (NonUniqueSolution, InconsistentSystem, InternalInconsistency):
        pass
    return tried


def test_block_rank_matches_the_full_kernel(ml, ms):
    """The seeded systems and the symbolic Ml and Ms ones, ranked as built
    and after their torsion solve."""
    symbolic = [symbolic_system(sc) for sc in (ml, ms)]
    for context, system in seeded_systems() + symbolic:
        want = full_kernel_rank(system)
        assert want == 49
        assert system.membership_kernel_rank() == want
        solved = fresh_copy(system)
        checked_solution(context, solved)
        assert solved.membership_kernel_rank() == want


def test_block_rank_matches_the_full_kernel_below_49(ms):
    """Systems made rank-deficient: Bryant rows dropped, an unknown's
    entries dropped from the Bryant rows only, or from every row (then
    the membership rows no longer constrain it and the kernel grows).
    Each is ranked as built and after its torsion solve was attempted."""
    variant = fresh_copy

    def without(rows, cols):
        return [{c: v for c, v in row.items() if c not in cols} for row in rows]

    seen = set()
    systems = seeded_systems()[::3] + [symbolic_system(ms)]
    for context, system in systems:
        rows, n = system.rows, system.bryant_count
        variants = [
            variant(system, rows[1:], n - 1),
            variant(system, rows[:20] + rows[n:], 20),
            variant(system, rows[:35] + rows[n:], 35),
            variant(system, rows[35:], n - 35),
            variant(system, without(rows[:n], {0}) + rows[n:], n),
            variant(system, without(rows[:n], {29}) + rows[n:], n),
            variant(system, without(rows[:n], range(1, 8)) + rows[n:], n),
            variant(system, without(rows[:n], range(40, 64)) + rows[n:], n),
            variant(system, without(rows, {29, 40}), n),
            variant(system, without(rows, range(8, 29)), n),
        ]
        for v in variants:
            want = full_kernel_rank(v)
            assert v.membership_kernel_rank() == want
            assert solve_attempted(context, v).membership_kernel_rank() == want
            seen.add(want)
    assert min(seen) < 30 and len(seen - {49}) >= 4, seen


def rowwise_torsion_rows(algebra, metric, phi, vol_scale=1):
    """Reference assembly: every row probes every unknown for its key."""
    singles = tuple(range(1, 8))
    pairs = tuple(combinations(singles, 2))
    triples = tuple(combinations(singles, 3))
    zero = Fraction(0)
    star_phi = hodge_star(metric, phi, vol_scale)
    d_phi = _descended_differential(algebra, phi)
    d_star_phi = _descended_differential(algebra, star_phi)
    col_t1 = {i: 1 + idx for idx, i in enumerate(singles)}
    col_t2 = {p: 8 + idx for idx, p in enumerate(pairs)}
    col_t3 = {t: 29 + idx for idx, t in enumerate(triples)}
    width = 64

    def mono(key):
        return Form.monomial(7, key)

    e1_phi = {i: mono((i,)).wedge(phi) for i in singles}
    e1_star = {i: mono((i,)).wedge(star_phi) for i in singles}
    e2_phi = {p: mono(p).wedge(phi) for p in pairs}
    e2_star = {p: mono(p).wedge(star_phi) for p in pairs}
    e3_phi = {t: mono(t).wedge(phi) for t in triples}
    e3_star = {t: mono(t).wedge(star_phi) for t in triples}
    star_e3 = {t: hodge_star(metric, mono(t), vol_scale) for t in triples}

    def put(row, col, v):
        if not scalars.is_zero(scalars.as_scalar(v)):
            row[col] = v

    rows = []
    for key in combinations(singles, 4):
        row = {}
        put(row, 0, star_phi.terms.get(key, zero))
        for i in singles:
            put(row, col_t1[i], 3 * e1_phi[i].terms.get(key, zero))
        for t in triples:
            put(row, col_t3[t], star_e3[t].terms.get(key, zero))
        put(row, width, d_phi.terms.get(key, zero))
        rows.append(row)
    for key in combinations(singles, 5):
        row = {}
        for i in singles:
            put(row, col_t1[i], 4 * e1_star[i].terms.get(key, zero))
        for p in pairs:
            put(row, col_t2[p], e2_phi[p].terms.get(key, zero))
        put(row, width, d_star_phi.terms.get(key, zero))
        rows.append(row)
    bryant_count = len(rows)
    for key in combinations(singles, 6):
        row = {}
        for p in pairs:
            put(row, col_t2[p], e2_star[p].terms.get(key, zero))
        rows.append(row)
    for key in combinations(singles, 6):
        row = {}
        for t in triples:
            put(row, col_t3[t], e3_phi[t].terms.get(key, zero))
        rows.append(row)
    row = {}
    for t in triples:
        put(row, col_t3[t], e3_star[t].terms.get(TOP, zero))
    rows.append(row)
    return rows, bryant_count


def test_torsion_rows_match_rowwise_assembly(ml, ms):
    rng = random.Random(11)
    point = {"a": random_fraction(rng, nonzero=True),
             "p": random_fraction(rng, nonzero=True), "q": Fraction(-2, 7)}
    ml_at_point = specialize_form(ml.phi_family, ml.alphabet, point)
    cases = [(ml, ml.phi_family, 1), (ms, ms.phi_family, 1),
             (ml, ml_at_point, 1), (ml, ml.phi_family, 3),
             (ms, ms.phi_family, Fraction(7, 3))]
    for sc, phi, c in cases:
        system = torsion_linear_system(sc.algebra, sc.metric, phi, c)
        rows, bryant_count = rowwise_torsion_rows(sc.algebra, sc.metric, phi, c)
        assert system.bryant_count == bryant_count == 56
        # entry for entry, in the same column order within each row
        assert ([[(k, type(v), v) for k, v in row.items()] for row in system.rows]
                == [[(k, type(v), v) for k, v in row.items()] for row in rows])


def test_setup_builds_no_merge_table():
    # the benchmark's set-up steps, in a fresh interpreter: the assembly's
    # merge tables are built by the first torsion system, never before
    code = ("import splitg2\n"
            "from splitg2 import catalog, g2, liealg\n"
            "catalog.scenario('Ml'); catalog.scenario('Ms'); liealg.sp2_build()\n"
            "print(g2._merge_table.cache_info().currsize)\n")
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"


def test_torsion_solution_matches_goldens(ms):
    point = {"q": Fraction(2)}
    phi = specialize_form(ms.phi_family, ms.alphabet, point)
    got = torsion_solve(ms.algebra, ms.metric, phi)
    want0 = scalars.parse_scalar(ms.expected.tau0, ())
    assert scalars.equals(scalars.as_scalar(got.tau0), want0)
    assert got.tau1.is_zero() and got.tau2.is_zero()
    for key, text in ms.expected.tau3.items():
        val = scalars.specialize(scalars.parse_scalar(text, ms.alphabet), point)
        assert scalars.equals(scalars.as_scalar(got.tau3.terms.get(key, 0),), val)


def test_torsion_scaling_law(ms_at_2, ms, rng):
    metric, phi = ms_at_2
    base = torsion_solve(ms.algebra, metric, phi)
    for s in (Fraction(3), Fraction(2, 5)):
        scaled = torsion_solve(ms.algebra, metric, phi, s)
        want = base.rescale(s)
        assert scalars.equals(scalars.as_scalar(scaled.tau0),
                              scalars.as_scalar(want.tau0))
        assert (scaled.tau1 - want.tau1).is_zero()
        assert (scaled.tau2 - want.tau2).is_zero()
        assert (scaled.tau3 - want.tau3).is_zero()


# A two-step nilpotent algebra with the standard 3-form and the metric
# 2 delta that the form induces: unlike the catalogue families, whose tau2
# vanishes, all four of its torsions are nonzero.
TWO_STEP = """\
format: splitg2-scenario 1
alphabet: a b
dim: 7
bracket: 1 2 7 a
bracket: 1 3 6 1
bracket: 3 4 7 b
horizontal: 7
""" + "".join(f"metric: {i} {i} 2\n" for i in range(1, 8)) + """\
phi: 1 2 3 1
phi: 1 4 5 1
phi: 1 6 7 1
phi: 2 4 6 1
phi: 2 5 7 -1
phi: 3 4 7 -1
phi: 3 5 6 -1
"""

SLICE_SLOPES = tuple(random.Random(2323).sample([k for k in range(-6, 7) if k], 2))
SCALE_CASES = ("Ml", "Ms", *(f"slice-p{k}a" for k in SLICE_SLOPES), "two-step")


def scale_law_case(case):
    if case in ("Ml", "Ms"):
        return catalog.scenario(case)
    if case == "two-step":
        return textio.parse_scenario(TWO_STEP)
    return textio.parse_scenario(slice_document(int(case[len("slice-p"):-1])))


def seeded_scales():
    """2, 7/3, 1/5 and 13, and four seeded scales besides 1 and these."""
    scales = [Fraction(2), Fraction(7, 3), Fraction(1, 5), Fraction(13)]
    rng = random.Random(23)
    while len(scales) < 8:
        c = Fraction(rng.randint(1, 40), rng.randint(1, 12))
        if c != 1 and c not in scales:
            scales.append(c)
    return scales


def rendered(torsions, vol):
    """The text and JSON reports of `torsion` on these torsions."""
    rep = Report("torsion", "case")
    cli._torsion_records(rep, "torsion", torsions, None)
    rep.payload["torsion"] = cli._torsion_payload(torsions, vol)
    return rep.render("text"), rep.render("json")


@pytest.mark.parametrize("case", SCALE_CASES)
def test_rescaled_unit_torsions_render_as_a_direct_elimination(case):
    """The unit-scale elimination taken to scale c by the scaling law
    renders byte for byte as the elimination at c, in text and JSON."""
    sc = scale_law_case(case)
    unit = sc.unit_torsions
    for c in seeded_scales():
        got = check_torsions(sc.algebra, sc.metric, sc.phi_family,
                             unit.rescale(c), c)
        want = torsion_solve(sc.algebra, sc.metric, sc.phi_family, c)
        assert rendered(got, c) == rendered(want, c), c


@pytest.mark.parametrize("case", SCALE_CASES)
def test_check_torsions_rejects_a_broken_scaling_law(case):
    """At c = 2: tau0 left unscaled, or tau2 times c instead of over c,
    fails the check.  tau2 vanishes on the catalogue families and their
    slices, where the second control cannot bite."""
    sc = scale_law_case(case)
    args = sc.algebra, sc.metric, sc.phi_family
    c = Fraction(2)
    unit = sc.unit_torsions
    law = unit.rescale(c)
    assert check_torsions(*args, law, c) is law
    with pytest.raises(InternalInconsistency):
        check_torsions(*args, TorsionSet(unit.tau0, law.tau1, law.tau2, law.tau3), c)
    wrong_tau2 = TorsionSet(law.tau0, law.tau1, unit.tau2 * c, law.tau3)
    assert unit.tau2.is_zero() == (case != "two-step")
    if unit.tau2.is_zero():
        assert check_torsions(*args, wrong_tau2, c) is wrong_tau2
    else:
        with pytest.raises(InternalInconsistency):
            check_torsions(*args, wrong_tau2, c)


def torsion_coefficients(torsions):
    """(key, coefficient) pairs: tau0, then the terms of each form."""
    out = [(("tau0",), torsions.tau0)]
    for name in ("tau1", "tau2", "tau3"):
        out += [((name, k), v) for k, v in getattr(torsions, name).terms.items()]
    return out


def torsion_terms(torsions):
    """Numerator plus denominator terms over every coefficient."""
    return sum(len(v.num.terms) + len(v.den.terms)
               if isinstance(v, scalars.RationalFunction) else 1
               for _, v in torsion_coefficients(torsions))


@pytest.mark.parametrize("case", ("Ml", "Ms", *(f"slice-p{k}a" for k in SLICE_SLOPES)))
def test_checked_torsions_keep_every_value(case):
    """The lowest-terms copy that the checks read holds the values of the
    rendered unit torsions, coefficient by coefficient, in no more terms;
    on Ml it needs 145 terms instead of 812, as many as the goldens."""
    sc = scale_law_case(case)
    unit, low = sc.unit_torsions, sc.checked_torsions
    before, after = torsion_coefficients(unit), torsion_coefficients(low)
    assert len(before) == len(after)
    for (key, v), (key2, w) in zip(before, after):
        assert key == key2 and scalars.equals(v, w), key
    assert torsion_terms(low) <= torsion_terms(unit)
    if case == "Ml":
        assert (torsion_terms(unit), torsion_terms(low)) == (812, 145)


@pytest.mark.parametrize("case", ("Ml", f"slice-p{SLICE_SLOPES[0]}a", "two-step"))
def test_check_torsions_rejects_tampered_lowest_terms(case):
    """Negative controls on the lowest-terms copy at c = 2: one tau3
    coefficient plus 1, or tau0 twice over, fails the check, and so does
    tau2 times c instead of over c where tau2 is nonzero (the two-step
    document; tau2 vanishes on Ml and its slices)."""
    sc = scale_law_case(case)
    args = sc.algebra, sc.metric, sc.phi_family
    c = Fraction(2)
    law = sc.checked_torsions.rescale(c)
    assert check_torsions(*args, law, c) is law
    key, coeff = next(iter(law.tau3.terms.items()))
    tau3 = law.tau3 + Form(7, 3, {key: Fraction(1)})
    assert tau3.terms[key] == coeff + 1
    with pytest.raises(InternalInconsistency):
        check_torsions(*args, TorsionSet(law.tau0, law.tau1, law.tau2, tau3), c)
    with pytest.raises(InternalInconsistency):
        check_torsions(*args, TorsionSet(law.tau0 * 2, law.tau1, law.tau2, law.tau3), c)
    wrong_tau2 = TorsionSet(law.tau0, law.tau1, sc.checked_torsions.tau2 * c, law.tau3)
    if law.tau2.is_zero():
        assert case != "two-step"
        assert check_torsions(*args, wrong_tau2, c) is wrong_tau2
    else:
        with pytest.raises(InternalInconsistency):
            check_torsions(*args, wrong_tau2, c)


def test_rescale_guards():
    t = TorsionSet(Fraction(1), Form.zero(7, 1), Form.zero(7, 2), Form.zero(7, 3))
    with pytest.raises(ValidationError):
        t.rescale(0)
    with pytest.raises(ValidationError):
        t.rescale(-2)


def test_torsion_rejects_nondescending(ms):
    with pytest.raises(ValidationError):
        torsion_solve(ms.algebra, ms.metric, Form.monomial(7, (1, 2, 3)))


def test_torsion_rejects_degenerate_form(ms):
    with pytest.raises(NonUniqueSolution):
        torsion_solve(ms.algebra, ms.metric, Form.zero(7, 3))


def test_bryant_residual_negative_control(ms_at_2, ms):
    metric, phi = ms_at_2
    sol = torsion_solve(ms.algebra, metric, phi)
    res1, res2 = bryant_residual(ms.algebra, metric, phi, sol)
    assert res1.is_zero() and res2.is_zero()
    tampered = TorsionSet(scalars.as_scalar(sol.tau0) + 1,
                          sol.tau1, sol.tau2, sol.tau3)
    res1, _ = bryant_residual(ms.algebra, metric, phi, tampered)
    assert not res1.is_zero()


def test_tau3_lies_in_27(ms_at_2, ms):
    metric, phi = ms_at_2
    sol = torsion_solve(ms.algebra, metric, phi)
    star_phi = hodge_star(metric, phi)
    assert lambda3_27_check(sol.tau3, phi, star_phi)


# -- calibration ----------------------------------------------------------------------------


def test_calibrate_recovers_scale(ms_at_2, ms):
    metric, phi = ms_at_2
    base = torsion_solve(ms.algebra, metric, phi)
    ref = scalars.as_scalar(base.tau0) * 2
    assert calibrate_vol_scale(ref, base) == 2


def test_calibrate_zero_reference(ms_at_2, ms):
    metric, phi = ms_at_2
    base = torsion_solve(ms.algebra, metric, phi)
    with pytest.raises(ZeroReference):
        calibrate_vol_scale(Fraction(0), base)


def test_calibrate_nonconstant_quotient(ms_at_2, ms):
    metric, phi = ms_at_2
    base = torsion_solve(ms.algebra, metric, phi)
    ref = scalars.Polynomial.variable(("q",), "q")
    with pytest.raises(ValidationError):
        calibrate_vol_scale(ref, base)


def test_calibrate_symbolic_constant_quotient(ml):
    # parameter-carrying tau0 against twice itself gives exactly 2
    sol = torsion_solve(ml.algebra, ml.metric, ml.phi_family)
    ref = scalars.as_scalar(sol.tau0) * 2
    assert calibrate_vol_scale(ref, sol) == 2


def test_degree_guards(ms):
    with pytest.raises(DegreeMismatch):
        compatibility_defect(ms.metric, Form.monomial(7, (1, 2)))
    with pytest.raises(DimensionMismatch):
        hodge_star(ms.metric, Form.monomial(6, (1,)))
