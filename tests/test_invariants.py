"""Invariant tensor spaces as exact kernels."""

from fractions import Fraction

import pytest

from splitg2 import catalog
from splitg2.errors import DimensionMismatch
from splitg2.exterior import Form, SymTensor2
from splitg2.invariants import SolutionSpace, invariant_form3, invariant_sym2
from splitg2.liealg import LieAlgebra


def euclidean3():
    """so(3) acting on an abelian 3-space; verticals at 4..6."""
    g = LieAlgebra(6, {
        (4, 5): {6: 1},
        (5, 6): {4: 1},
        (4, 6): {5: -1},
        (2, 4): {3: -1},
        (3, 4): {2: 1},
        (3, 5): {1: -1},
        (1, 5): {3: 1},
        (1, 6): {2: -1},
        (2, 6): {1: 1},
    })
    assert g.jacobi_check().ok
    return g


def trivial_action():
    """Abelian plane times so(3); the verticals ignore the plane."""
    return LieAlgebra(5, {
        (3, 4): {5: 1},
        (4, 5): {3: 1},
        (3, 5): {4: -1},
    })


# -- rotation-invariant tensors on the euclidean algebra ------------------------


def test_rotation_invariant_metrics_are_round():
    space = invariant_sym2(euclidean3(), (4, 5, 6), 3)
    assert space.dimension == 1
    round_metric = SymTensor2(6, {(1, 1): 1, (2, 2): 1, (3, 3): 1})
    assert space.contains(round_metric)
    assert space.combination_for(round_metric) is not None
    squashed = SymTensor2(6, {(1, 1): 1, (2, 2): 1, (3, 3): 2})
    assert not space.contains(squashed)


def test_rotation_invariant_3forms_are_volume():
    space = invariant_form3(euclidean3(), (4, 5, 6), 3)
    assert space.dimension == 1
    vol = Form(6, 3, {(1, 2, 3): Fraction(5)})
    coeffs = space.combination_for(vol)
    assert coeffs is not None and len(coeffs) == 1


def test_trivial_action_keeps_everything():
    g = trivial_action()
    assert invariant_sym2(g, (3, 4, 5), 2).dimension == 3
    assert invariant_form3(g, (3, 4, 5), 2).dimension == 0


def test_zero_space_membership():
    # the so(3) fiber itself admits no invariant horizontal metric except 0
    g = euclidean3()
    space = invariant_sym2(g, (4, 5, 6), 3)
    zero = SymTensor2(6, {})
    assert space.contains(zero)


# -- guards ----------------------------------------------------------------------


def test_vertical_range_guard():
    g = trivial_action()
    with pytest.raises(ValueError):
        invariant_sym2(g, (2, 4, 5), 2)
    with pytest.raises(ValueError):
        invariant_sym2(g, (3,), 9)


def test_coordinatize_rejects_nonhorizontal():
    g = trivial_action()
    space = invariant_sym2(g, (3, 4, 5), 2)
    with pytest.raises(DimensionMismatch):
        space.contains(SymTensor2(5, {(1, 4): 1}))
    fspace = invariant_form3(euclidean3(), (4, 5, 6), 3)
    with pytest.raises(DimensionMismatch):
        fspace.contains(Form(6, 3, {(1, 2, 6): 1}))
    with pytest.raises(DimensionMismatch):
        fspace.contains(Form(6, 2, {(1, 2): 1}))
    # a 3-form on the 7-dimensional horizontal coframe, not on the frame of
    # the algebra, is rejected as the metric reader rejects its metric
    ml = catalog.scenario("Ml")
    with pytest.raises(DimensionMismatch):
        invariant_form3(ml.algebra, ml.verticals, 7).contains(ml.phi_family)
    with pytest.raises(DimensionMismatch):
        invariant_sym2(ml.algebra, ml.verticals, 7).contains(ml.metric.tensor)


def test_forms_and_tensors_are_told_apart_by_type():
    """A 2-form and a symmetric 2-tensor on the same frame, with the same
    key and degree, differ only in type: each is rejected by the space of
    the other kind."""
    sym = invariant_sym2(trivial_action(), (3, 4, 5), 2)
    forms = SolutionSpace([(1, 2)], [{}], lambda terms: Form(5, 2, terms))
    two_form, tensor = Form(5, 2, {(1, 2): 1}), SymTensor2(5, {(1, 2): 1})
    assert (two_form.dim, two_form.degree) == (tensor.dim, tensor.degree)
    assert forms.contains(two_form) and sym.contains(tensor)
    with pytest.raises(DimensionMismatch):
        sym.contains(two_form)
    with pytest.raises(DimensionMismatch):
        forms.contains(tensor)


# -- the two quotient scenarios ------------------------------------------------------


@pytest.mark.parametrize("name", ["Ml", "Ms"])
def test_scenario_dimensions(name):
    sc = catalog.scenario(name)
    sym = invariant_sym2(sc.algebra, sc.verticals, sc.horizontal)
    tri = invariant_form3(sc.algebra, sc.verticals, sc.horizontal)
    assert sym.dimension == sc.expected.dimensions["invariant-metrics"]
    assert tri.dimension == sc.expected.dimensions["invariant-3-forms"]


@pytest.mark.parametrize("name", ["Ml", "Ms"])
def test_scenario_families_in_span(name):
    sc = catalog.scenario(name)
    sym = invariant_sym2(sc.algebra, sc.verticals, sc.horizontal)
    tri = invariant_form3(sc.algebra, sc.verticals, sc.horizontal)
    for _, tensor in sc.expected.metric_family:
        assert sym.contains(tensor.extend(sc.algebra.dim))
    for _, form in sc.expected.form_family:
        assert tri.contains(form.extend(sc.algebra.dim))

