"""Frame independence: a builtin scenario re-framed on its horizontal legs
gives the same torsion, pulled back.

The new frame vectors are e'_i = sum_j A_ij e_j for i, j <= 7, the
verticals 8..10 stay, and A is a seeded unimodular integer matrix.  The
structure constants go through `liealg.change_basis`; phi, g and the
torsions pull back by A, e^j = sum_i A_ij e'^i.  det A = 1 keeps the
volume form e^{1...7}, so tau0 is unchanged and tau1, tau2 and tau3 are
the pullbacks of the old ones.  The re-framed algebra keeps its Jacobi
and fibration verdicts and the dimensions of its invariant spaces, which
hold the pulled-back g and phi.  No result is compared as pinned bytes.

The volume law: scaling row 1 of A by d gives det A = d, and then
e^{1...7} = d e'^{1...7}.  The pulled-back metric A g A^T is no longer
compatible with the pulled-back phi, d A g A^T is, and the torsions are
those of the old frame, pulled back, at volume scale d^5: the stars of
3-forms under d A g A^T with vol = d^5 e'^{1...7} are the stars under
A g A^T with vol = d e'^{1...7}."""

import random
from fractions import Fraction

import pytest

from splitg2 import catalog, scalars
from splitg2.exterior import Form, SymTensor2
from splitg2.g2 import Metric7, compatibility_defect, torsion_solve
from splitg2.invariants import invariant_form3, invariant_sym2
from splitg2.liealg import BasisChange, change_basis

DIM = 7


def unimodular(seed, steps=6):
    """A seeded integer matrix of determinant 1: the identity after
    `steps` row operations row_i += k * row_j, k in {-2, -1, 1, 2}."""
    rng = random.Random(seed)
    rows = [[int(i == j) for j in range(DIM)] for i in range(DIM)]
    for _ in range(steps):
        i, j = rng.sample(range(DIM), 2)
        k = rng.choice((-2, -1, 1, 2))
        rows[i] = [x + k * y for x, y in zip(rows[i], rows[j])]
    return rows


def transpose(a):
    return [list(col) for col in zip(*a)]


def pull_back(form, a):
    """The form in the coframe e'^i, substituting e^j = sum_i a_ij e'^i."""
    legs = [None] + [Form(DIM, 1, {(i + 1,): a[i][j] for i in range(DIM) if a[i][j]})
                     for j in range(DIM)]
    out = Form(DIM, form.degree, {})
    for key, coeff in form.terms.items():
        term = legs[key[0]]
        for j in key[1:]:
            term = term.wedge(legs[j])
        out = out + term * coeff
    return out


def pull_back_metric(metric, a):
    """g'_ij = sum_kl a_ik a_jl g_kl for i <= j."""
    g = [[0] * DIM for _ in range(DIM)]
    for (i, j), v in metric.tensor.terms.items():
        g[i - 1][j - 1] = g[j - 1][i - 1] = v
    entries = {(i + 1, j + 1): sum(a[i][k] * g[k][l] * a[j][l]
                                   for k in range(DIM) for l in range(DIM))
               for i in range(DIM) for j in range(i, DIM)}
    return Metric7(SymTensor2(DIM, {k: v for k, v in entries.items() if v}))


def reframe(sc, a, phi):
    """(algebra, metric, phi) of the scenario `sc` with the 3-form `phi`,
    in the frame e'_i = sum_j a_ij e_j of its horizontal legs."""
    n = sc.algebra.dim
    full = [[Fraction(a[i][j]) if i < DIM and j < DIM else Fraction(int(i == j))
             for j in range(n)] for i in range(n)]
    return (change_basis(sc.algebra, BasisChange(full)),
            pull_back_metric(sc.metric, a), pull_back(phi, a))


CASES = [
    ("Ml", {"a": Fraction(2), "p": Fraction(1), "q": Fraction(5)}, 19),
    ("Ms", {"q": Fraction(3)}, 23),
]

# (invariant S^2 m*, invariant Lambda^3 m*) dimensions of each quotient
DIMENSIONS = {"Ml": (7, 10), "Ms": (4, 5)}


@pytest.mark.parametrize("name, point, seed", CASES)
def test_torsions_are_frame_independent(name, point, seed):
    sc = catalog.scenario(name)
    a = unimodular(seed)
    assert a != transpose(a)
    phi = sc.phi_family.map_coefficients(lambda c: scalars.specialize(c, point))
    old = torsion_solve(sc.algebra, sc.metric, phi)
    algebra, metric, phi2 = reframe(sc, a, phi)
    assert compatibility_defect(metric, phi2).is_zero()
    new = torsion_solve(algebra, metric, phi2)
    assert new.tau0 == old.tau0
    for field in ("tau1", "tau2", "tau3"):
        assert getattr(new, field) == pull_back(getattr(old, field), a), field
    # the control: pulled back by the transpose, the torsions differ
    assert any(getattr(new, field) != pull_back(getattr(old, field), transpose(a))
               for field in ("tau1", "tau3"))


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("name, point, seed", CASES)
def test_torsions_follow_the_volume_law(name, point, seed, d):
    """A frame of determinant d: the metric d A g A^T is the compatible
    one, and at volume scale d^5 tau0 is unchanged and tau1, tau2, tau3
    are the A-pullbacks.  tau2 is zero on both families, so the 1/c
    scaling of tau2 (`TorsionSet.rescale`) is not exercised here."""
    sc = catalog.scenario(name)
    a = unimodular(seed)
    a[0] = [d * x for x in a[0]]
    phi = sc.phi_family.map_coefficients(lambda c: scalars.specialize(c, point))
    old = torsion_solve(sc.algebra, sc.metric, phi)
    assert old.tau2.is_zero()
    algebra, pulled, phi2 = reframe(sc, a, phi)
    assert not compatibility_defect(pulled, phi2).is_zero()
    metric = Metric7(pulled.tensor * d)
    assert compatibility_defect(metric, phi2).is_zero()
    new = torsion_solve(algebra, metric, phi2, Fraction(d) ** 5)
    assert new.tau0 == old.tau0
    for field in ("tau1", "tau2", "tau3"):
        assert getattr(new, field) == pull_back(getattr(old, field), a), field
    assert any(getattr(new, field) != pull_back(getattr(old, field), transpose(a))
               for field in ("tau1", "tau3"))


@pytest.mark.parametrize("name, point, seed", CASES)
def test_verdicts_and_invariant_spaces_are_frame_independent(name, point, seed):
    """The re-framed algebra passes Jacobi and fibration, its invariant
    spaces keep their dimensions, and they hold the pulled-back metric and
    phi; phi pulled back by the transpose is not invariant."""
    sc = catalog.scenario(name)
    a = unimodular(seed)
    phi = sc.phi_family.map_coefficients(lambda c: scalars.specialize(c, point))
    algebra, metric, phi2 = reframe(sc, a, phi)
    assert algebra.jacobi_check().ok
    assert algebra.horizontal_integrability(DIM)
    sym = invariant_sym2(algebra, sc.verticals, DIM)
    tri = invariant_form3(algebra, sc.verticals, DIM)
    assert (sym.dimension, tri.dimension) == DIMENSIONS[name]
    assert sym.contains(metric.tensor.extend(algebra.dim))
    assert tri.contains(phi2.extend(algebra.dim))
    # the control: pulled back by the transpose, phi is not invariant
    assert not tri.contains(pull_back(phi, transpose(a)).extend(algebra.dim))
