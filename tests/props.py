"""Seeded property checks shared by the property tests and the
acceptance suite.  Each function raises AssertionError on violation and
returns the number of cases it checked, so callers can confirm the
sampling actually ran."""

import random
from fractions import Fraction
from itertools import combinations

from splitg2 import catalog, scalars
from splitg2.exterior import Form, Vector, interior
from splitg2.g2 import hodge_star, torsion_solve
from splitg2.liealg import sp2_build

from conftest import run_splitg2


def _fraction(rng, nonzero=False):
    while True:
        f = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if f or not nonzero:
            return f


def _scalar(rng, alphabet=("a", "p", "q")):
    def poly():
        terms = {}
        for _ in range(rng.randint(1, 3)):
            e = tuple(rng.randint(0, 2) for _ in alphabet)
            c = rng.randint(-6, 6)
            if c:
                terms[e] = c
        return scalars.Polynomial.from_terms(alphabet, terms)

    num = poly()
    den = poly()
    if den.is_zero():
        den = scalars.Polynomial.constant(alphabet, 1)
    return scalars.RationalFunction.make(num, den)


def check_field_axioms(seed=0, rounds=30) -> int:
    """Commutativity, associativity, distributivity, inverses."""
    rng = random.Random(seed)
    checked = 0
    for _ in range(rounds):
        x, y, z = _scalar(rng), _scalar(rng), _scalar(rng)
        assert scalars.equals(x + y, y + x)
        assert scalars.equals(x * y, y * x)
        assert scalars.equals((x + y) + z, x + (y + z))
        assert scalars.equals((x * y) * z, x * (y * z))
        assert scalars.equals(x * (y + z), x * y + x * z)
        assert scalars.is_zero(x - x)
        if not scalars.is_zero(y):
            assert scalars.equals((x / y) * y, x)
        checked += 1
    return checked


def _random_form(rng, dim, degree):
    keys = list(combinations(range(1, dim + 1), degree))
    terms = {}
    for key in rng.sample(keys, min(len(keys), rng.randint(1, 4))):
        c = _fraction(rng)
        if c:
            terms[key] = c
    return Form(dim, degree, terms)


def check_wedge_interior_laws(seed=0, rounds=30) -> int:
    """Graded anticommutativity, associativity, and the antiderivation
    law for the interior product."""
    rng = random.Random(seed)
    checked = 0
    for _ in range(rounds):
        dim = rng.randint(5, 7)
        da = rng.randint(1, 2)
        db = rng.randint(1, 2)
        a = _random_form(rng, dim, da)
        b = _random_form(rng, dim, db)
        sign = -1 if (da * db) % 2 else 1
        assert (a.wedge(b) - b.wedge(a) * sign).is_zero()
        c = _random_form(rng, dim, 1)
        assert (a.wedge(b).wedge(c) - a.wedge(b.wedge(c))).is_zero()
        v = Vector([_fraction(rng) for _ in range(dim)])
        isign = -1 if da % 2 else 1
        lhs = interior(v, a.wedge(b))
        rhs = interior(v, a).wedge(b) + a.wedge(interior(v, b)) * isign
        assert (lhs - rhs).is_zero()
        assert interior(v, interior(v, a.wedge(b))).is_zero()
        checked += 1
    return checked


def check_lie_derivative_commutes_with_d(seed=0, rounds=12) -> int:
    """L_a d = d L_a on the ten-dimensional coframe."""
    rng = random.Random(seed)
    g = sp2_build()
    checked = 0
    for _ in range(rounds):
        degree = rng.randint(1, 2)
        w = _random_form(rng, 10, degree)
        a = rng.randint(1, 10)
        lhs = g.lie_derivative_form(a, g.mc_differential(w))
        rhs = g.mc_differential(g.lie_derivative_form(a, w))
        assert (lhs - rhs).is_zero()
        checked += 1
    return checked


def check_star_scaling(seed=0, rounds=6) -> int:
    """star_c = star_1 / c, and the induced torsion rescaling law."""
    rng = random.Random(seed)
    sc = catalog.scenario("Ms")
    phi = sc.phi_family.map_coefficients(
        lambda c: scalars.specialize(scalars.as_scalar(c),
                                     {"q": Fraction(2)})
    )
    checked = 0
    for _ in range(rounds):
        s = _fraction(rng, nonzero=True)
        if s <= 0:
            s = -s
        key = tuple(sorted(rng.sample(range(1, 8), rng.randint(1, 3))))
        a = Form.monomial(7, key)
        lhs = hodge_star(sc.metric, a, s)
        rhs = hodge_star(sc.metric, a) * (1 / s)
        assert (lhs - rhs).is_zero()
        checked += 1
    base = torsion_solve(sc.algebra, sc.metric, phi)
    for s in (Fraction(3), Fraction(2, 5)):
        scaled = torsion_solve(sc.algebra, sc.metric, phi, s)
        want = base.rescale(s)
        assert scalars.equals(scalars.as_scalar(scaled.tau0),
                              scalars.as_scalar(want.tau0))
        assert (scaled.tau2 - want.tau2).is_zero()
        assert (scaled.tau3 - want.tau3).is_zero()
        checked += 1
    return checked


def corrupted_jacobi_exit_code() -> int:
    """Exit status of a negative-control run in a fresh process."""
    return run_splitg2("verify-paper", "--corrupt", "1,5,1").returncode
