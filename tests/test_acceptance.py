"""Acceptance gate: the eleven headline checks at their stated limits.

Each criterion is a single test function, so a verbose pytest run emits
exactly one pass/fail line per criterion.  Limits are wall-time upper
bounds measured around the computation itself; all value comparisons
are exact."""

import random
import time
from fractions import Fraction

import pytest

import props
from conftest import sliced_phi
from splitg2 import catalog, kernels, scalars
from splitg2.exterior import Form, SymTensor2
from splitg2.g2 import (
    TorsionSet,
    bryant_residual,
    calibrate_vol_scale,
    compatibility_defect,
    hodge_star,
    lambda2_14_basis,
    lambda3_27_check,
    torsion_linear_system,
    torsion_solve,
)
from splitg2.invariants import invariant_form3, invariant_sym2
from splitg2.liealg import ad_invariance_check, change_basis, growth_vector, sp2_build

SEED = 20260815


@pytest.fixture(scope="session", autouse=True)
def warm_catalog():
    # scenario construction validates fixtures; keep it out of timed windows
    catalog.scenario("Ml")
    catalog.scenario("Ms")


class Timer:
    def __init__(self, limit):
        self.limit = limit

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc == (None, None, None):
            assert self.elapsed < self.limit, (
                f"wall time {self.elapsed:.2f}s exceeds limit {self.limit}s"
            )


def parse_over(sc, text):
    return scalars.parse_scalar(text, sc.alphabet)


def form_matches_table(sc, form, table, point=None):
    """Exact per-component equality of a solved form against a text table."""
    want = {}
    for key, text in table.items():
        val = parse_over(sc, text)
        if point is not None:
            val = scalars.specialize(val, point)
        if not scalars.is_zero(val):
            want[key] = val
    if set(form.terms) != set(want):
        return False
    return all(
        scalars.equals(scalars.as_scalar(form.terms[k]), want[k])
        for k in want
    )


def sample_point(rng, sc):
    excluded = {}
    for name, value in sc.exclusions:
        excluded.setdefault(name, set()).add(value)
    point = {}
    for name in sc.alphabet:
        while True:
            f = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            if f not in excluded.get(name, set()):
                point[name] = f
                break
    return point


def specialized_phi(sc, point):
    return sc.phi_family.map_coefficients(
        lambda c: scalars.specialize(scalars.as_scalar(c), point)
    )


def calibrated_scale(sc, base):
    """Volume scale fixed by the reference value of tau0 at its point."""
    point = {k: Fraction(v) for k, v in sc.expected.tau0_reference_point.items()}
    ref = Fraction(sc.expected.tau0_reference_value)
    t0 = scalars.specialize(scalars.as_scalar(base.tau0), point)
    probe = TorsionSet(t0, base.tau1, base.tau2, base.tau3)
    return calibrate_vol_scale(ref, probe)


def test_criterion_01_commutator_table():
    with Timer(1.0):
        g = sp2_build()
        listed = 0
        for (j, k), comps in catalog.COMMUTATORS.items():
            got = g.bracket_basis(j, k)
            assert got == {i: Fraction(c) for i, c in comps.items()}, (j, k)
            listed += len(comps)
        assert len(catalog.COMMUTATORS) == 28
        for j in range(1, 11):
            for k in range(j + 1, 11):
                if (j, k) not in catalog.COMMUTATORS:
                    assert g.bracket_basis(j, k) == {}, (j, k)


def test_criterion_02_killing_three_bases():
    with Timer(1.0):
        assert (sp2_build().killing() - catalog.KILLING_MATRIX_BASIS).is_zero()
        ml = catalog.scenario("Ml")
        ms = catalog.scenario("Ms")
        assert (ml.algebra.killing() - catalog.KILLING_LONG_BASIS).is_zero()
        assert (ms.algebra.killing() - catalog.KILLING_SHORT_BASIS).is_zero()


def test_criterion_03_structure_equations_and_d_squared():
    with Timer(1.0):
        base = sp2_build()
        for name in ("Ml", "Ms"):
            sc = catalog.scenario(name)
            rebuilt = change_basis(base, sc.basis)
            assert rebuilt.brackets == sc.algebra.brackets, name
            for i, table in sc.expected.coframe_differentials.items():
                want = catalog.mc_form(10, table)
                assert (sc.algebra.coframe_differential(i) - want).is_zero(), (name, i)
            for i in range(1, 11):
                dd = sc.algebra.mc_differential(sc.algebra.coframe_differential(i))
                assert dd.is_zero(), (name, i)


def test_criterion_04_invariant_space_dimensions():
    with Timer(5.0):
        want = {"Ml": (7, 10), "Ms": (4, 5)}
        for name, (dim_sym, dim_form) in want.items():
            sc = catalog.scenario(name)
            sym = invariant_sym2(sc.algebra, sc.verticals, sc.horizontal)
            tri = invariant_form3(sc.algebra, sc.verticals, sc.horizontal)
            assert sym.dimension == dim_sym, name
            assert tri.dimension == dim_form, name
            for label, tensor in sc.expected.metric_family:
                assert sym.contains(tensor.extend(10)), (name, label)
            for label, form in sc.expected.form_family:
                assert tri.contains(form.extend(10)), (name, label)


def test_criterion_05_compatibility_identically_and_sampled():
    with Timer(30.0):
        rng = random.Random(SEED)
        for name in ("Ml", "Ms"):
            sc = catalog.scenario(name)
            assert compatibility_defect(sc.metric, sc.phi_family).is_zero(), name
            for _ in range(5):
                point = sample_point(rng, sc)
                phi = specialized_phi(sc, point)
                assert compatibility_defect(sc.metric, phi).is_zero(), (name, point)


def test_criterion_06_short_scenario_torsion():
    with Timer(30.0):
        sc = catalog.scenario("Ms")
        base = torsion_solve(sc.algebra, sc.metric, sc.phi_family)

        # coclosed identically in q at any constant scale
        star_phi = hodge_star(sc.metric, sc.phi_family)
        assert sc.algebra.mc_differential(star_phi.extend(10)).is_zero()

        # tau1 = tau2 = 0 for every volume scale: direct solves at three
        # scales plus the exact linear scaling law connecting all others
        for s in (Fraction(1), Fraction(3), Fraction(2, 5)):
            sol = (base if s == 1 else
                   torsion_solve(sc.algebra, sc.metric, sc.phi_family, s))
            assert sol.tau1.is_zero(), s
            assert sol.tau2.is_zero(), s
            want = base.rescale(s)
            assert scalars.equals(scalars.as_scalar(sol.tau0),
                                  scalars.as_scalar(want.tau0))
            assert (sol.tau3 - want.tau3).is_zero()

        # with the calibrated scale: tau0 = -18/7 and tau3 as displayed
        cstar = calibrated_scale(sc, base)
        assert str(cstar) == sc.expected.vol_scale
        final = base.rescale(cstar)
        assert scalars.equals(scalars.as_scalar(final.tau0),
                              parse_over(sc, "-18/7"))
        assert form_matches_table(sc, final.tau3, sc.expected.tau3)


def test_criterion_07_long_scenario_torsion_symbolic(monkeypatch):
    products = []  # len(a)*len(b) for each kernels.poly_mul call
    real = kernels.poly_mul

    def count(a, b):
        products.append(len(a) * len(b))
        return real(a, b)

    with Timer(180.0):
        sc = catalog.scenario("Ml")
        # full three-parameter symbolic solve; no sampled fallback needed
        monkeypatch.setattr(kernels, "poly_mul", count)
        base = torsion_solve(sc.algebra, sc.metric, sc.phi_family)
        monkeypatch.undo()
        # the work of the solve and its checks, which the time bound only
        # caps: scaling the rows by a pivot alone in its row, as the
        # eliminator once did, makes 2,473 calls and 279,267 term products
        assert (len(products), sum(products)) == (2288, 79071)
        assert base.tau2.is_zero()
        assert form_matches_table(sc, base.tau1, sc.expected.tau1)

        cstar = calibrated_scale(sc, base)
        assert str(cstar) == sc.expected.vol_scale
        final = base.rescale(cstar)
        assert scalars.equals(scalars.as_scalar(final.tau0),
                              parse_over(sc, sc.expected.tau0))
        assert form_matches_table(sc, final.tau3, sc.expected.tau3)

        # the p = 2a slice kills tau1; on it and off it (p = 3a) the
        # family's torsions restricted to the slice are those of the
        # sliced family, solved on its own
        for subs, coclosed in (({"p": "2*a"}, True), ({"p": "3*a"}, False)):
            sliced_sol = torsion_solve(sc.algebra, sc.metric,
                                       sliced_phi(sc, subs))
            assert sliced_sol.tau1.is_zero() == coclosed
            for got, want in ((base.tau1, sliced_sol.tau1),
                              (base.tau2, sliced_sol.tau2)):
                assert catalog.restrict_form(got, sc.alphabet, subs) == want


def test_criterion_08_bryant_residual_from_displays():
    # direct substitution of the published torsions, bypassing the solver
    ms = catalog.scenario("Ms")
    ms_torsions = TorsionSet(
        parse_over(ms, ms.expected.tau0),
        ms.form_from_table(1, ms.expected.tau1),
        ms.form_from_table(2, ms.expected.tau2),
        ms.form_from_table(3, ms.expected.tau3),
    )
    res1, res2 = bryant_residual(ms.algebra, ms.metric, ms.phi_family,
                                 ms_torsions, Fraction(ms.expected.vol_scale))
    assert res1.is_zero() and res2.is_zero()

    ml = catalog.scenario("Ml")
    ml_torsions = TorsionSet(
        parse_over(ml, ml.expected.tau0),
        ml.form_from_table(1, ml.expected.tau1),
        ml.form_from_table(2, ml.expected.tau2),
        ml.form_from_table(3, ml.expected.tau3),
    )
    res1, res2 = bryant_residual(ml.algebra, ml.metric, ml.phi_family,
                                 ml_torsions, Fraction(ml.expected.vol_scale))
    assert res1.is_zero() and res2.is_zero()


def test_criterion_09_decomposition_dimensions():
    rng = random.Random(SEED + 9)
    for name in ("Ml", "Ms"):
        sc = catalog.scenario(name)
        for _ in range(2):
            point = sample_point(rng, sc)
            phi = specialized_phi(sc, point)
            star_phi = hodge_star(sc.metric, phi)
            assert lambda2_14_basis(phi, star_phi).dimension == 14, (name, point)
            system = torsion_linear_system(sc.algebra, sc.metric, phi)
            assert system.membership_kernel_rank() == 49, (name, point)
            sol = torsion_solve(sc.algebra, sc.metric, phi)
            assert lambda3_27_check(sol.tau3, phi, star_phi), (name, point)


def test_criterion_10_distribution_facts():
    g = sp2_build()
    spaces = catalog.named_subspaces()
    info_lines = []
    for name, fact in catalog.DISTRIBUTION_FACTS.items():
        dist = spaces[name]
        stab = spaces[fact.stabilizer]
        assert ad_invariance_check(g, dist, stab), name
        growth = growth_vector(g, dist, stab)
        if fact.integrable:
            assert growth == [dist.rank], name
        else:
            # reported alongside the external claim, never asserted
            claim = ",".join(str(x) for x in fact.claimed_growth)
            computed = ",".join(str(x) for x in growth)
            info_lines.append(f"[info] {name}: computed ({computed}), "
                              f"claimed ({claim})")
    assert len(info_lines) == 2
    for line in info_lines:
        print(line)


def test_criterion_11_property_suites_and_negative_control():
    assert props.check_field_axioms(seed=SEED) > 0
    assert props.check_wedge_interior_laws(seed=SEED) > 0
    assert props.check_lie_derivative_commutes_with_d(seed=SEED) > 0
    assert props.check_star_scaling(seed=SEED) > 0
    assert props.corrupted_jacobi_exit_code() != 0
