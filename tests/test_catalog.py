"""Fixture tables: the algebra, the two scenarios, their reference data."""

from fractions import Fraction

import pytest

from splitg2 import catalog, scalars
from splitg2.errors import PoleAtPoint
from splitg2.exterior import Form
from splitg2.g2 import compatibility_defect
from splitg2.liealg import ad_invariance_check, sp2_build

from conftest import sliced_phi


def test_commutator_table_matches_builder():
    g = sp2_build()
    for (j, k), comps in catalog.COMMUTATORS.items():
        want = {i: Fraction(c) for i, c in comps.items()}
        assert g.bracket_basis(j, k) == want, (j, k)
    # unlisted pairs must be abelian
    for j in range(1, 11):
        for k in range(j + 1, 11):
            if (j, k) not in catalog.COMMUTATORS:
                assert g.bracket_basis(j, k) == {}


def test_shared_maps_are_read_only():
    """The scenario's metric tensor and the bracket table are handed out
    without copies: an assignment into one raises instead of changing the
    cached fixtures.  So are the values that every later request shares:
    the unit and lowest-terms torsion forms, the cached coframe
    differentials and the compatibility defect."""
    entries = catalog.scenario("Ms").metric.tensor.terms
    brackets = sp2_build().brackets
    for target, key in ((entries, (1, 1)), (brackets, (1, 2)), (brackets[(1, 5)], 3)):
        with pytest.raises(TypeError):
            target[key] = Fraction(5)
    assert (1, 1) not in entries and (1, 2) not in brackets
    assert brackets[(1, 5)] == {1: 2}
    sc = catalog.scenario("Ms")
    shared = [sc.unit_torsions.tau1, sc.unit_torsions.tau3,
              sc.checked_torsions.tau1, sc.checked_torsions.tau3,
              sc.algebra.coframe_differential(1), sc.defect]
    assert sc.algebra.coframe_differential(1) is shared[4]
    for tensor in shared:
        before = tensor.terms.copy()
        for key in (next(iter(before), (1,)), (9, 10)):
            with pytest.raises(TypeError):
                tensor.terms[key] = Fraction(5)
        assert tensor.terms == before


def test_killing_matrix_basis():
    assert (sp2_build().killing() - catalog.KILLING_MATRIX_BASIS).is_zero()


@pytest.mark.parametrize("name", ["Ml", "Ms"])
def test_scenario_killing(name):
    sc = catalog.scenario(name)
    want = (catalog.KILLING_LONG_BASIS if name == "Ml"
            else catalog.KILLING_SHORT_BASIS)
    assert (sc.algebra.killing() - want).is_zero()


def test_scenario_cache():
    assert catalog.scenario("Ml") is catalog.scenario("Ml")
    with pytest.raises(KeyError):
        catalog.scenario("bogus")


@pytest.mark.parametrize("name", ["Ml", "Ms"])
def test_structure_equations_match_tables(name):
    sc = catalog.scenario(name)
    for i, table in sc.expected.coframe_differentials.items():
        want = catalog.mc_form(10, table)
        assert (sc.algebra.coframe_differential(i) - want).is_zero(), i


@pytest.mark.parametrize("name", ["Ml", "Ms"])
def test_leaf_differentials_match_tables(name):
    sc = catalog.scenario(name)
    got = sc.algebra.leaf_restriction(sc.horizontal)
    by_index = dict(zip(sc.verticals, got))
    for i, table in sc.expected.leaf_differentials.items():
        want = catalog.mc_form(10, table)
        assert (by_index[i] - want).is_zero(), i


@pytest.mark.parametrize("name", ["Ml", "Ms"])
def test_phi_display_route_agrees_with_family(name):
    # two independent transcriptions of the same display must coincide
    sc = catalog.scenario(name)
    display = sc.form_from_table(3, sc.expected.phi_display)
    assert (sc.phi_family - display).is_zero()


@pytest.mark.parametrize("name", ["Ml", "Ms"])
def test_family_combination_rebuilds_phi(name):
    sc = catalog.scenario(name)
    rebuilt = catalog.family_combination(
        sc.expected.form_family, sc.expected.solution_relations, sc.alphabet
    )
    assert (rebuilt - sc.phi_family).is_zero()


@pytest.mark.parametrize("name", ["Ml", "Ms"])
def test_fixture_is_compatible(name):
    sc = catalog.scenario(name)
    assert compatibility_defect(sc.metric, sc.phi_family).is_zero()


def test_substitute_parameters_whole_words():
    out = catalog.substitute_parameters("p + pq + q", {"p": "2*a", "q": "0"})
    assert out == "(2*a) + pq + (0)"


def test_sliced_phi_drops_parameter():
    sc = catalog.scenario("Ml")
    sliced = sliced_phi(sc, {"p": "2*a"})
    for coeff in sliced.terms.values():
        assert scalars.as_scalar(coeff).alphabet == ("a", "q")
    # the slice is the family at p = 2a: check one coefficient
    sliced_point = {"a": Fraction(3), "q": Fraction(2)}
    full_point = {"a": Fraction(3), "p": Fraction(6), "q": Fraction(2)}
    for key, coeff in sliced.terms.items():
        got = scalars.specialize(scalars.as_scalar(coeff), sliced_point)
        want = scalars.specialize(
            scalars.as_scalar(sc.phi_family.terms[key]), full_point
        )
        assert got == want


def test_restrict_form_on_a_slice():
    sc = catalog.scenario("Ml")
    for subs in ({"p": "2*a"}, {"q": "a+p"}):
        restricted = catalog.restrict_form(sc.phi_family, sc.alphabet, subs)
        assert restricted == sliced_phi(sc, subs)
    # a slice through every parameter leaves rational coefficients
    point = catalog.restrict_form(sc.phi_family, sc.alphabet,
                                  {"a": "1", "p": "2", "q": "3"})
    assert all(isinstance(c, Fraction) for c in point.terms.values())
    assert point == sliced_phi(sc, {"a": "1", "p": "2", "q": "3"})
    # a denominator of the family vanishes on the slice q = 1
    with pytest.raises(PoleAtPoint, match="vanishes on the slice"):
        catalog.restrict_form(sc.phi_family, sc.alphabet, {"q": "1"})


def test_named_subspaces_shape():
    spaces = catalog.named_subspaces()
    assert set(spaces) == {"sl2_l", "sl2_s", "D_l1", "D_l2", "D_s1", "D_s2"}
    for s in spaces.values():
        assert s.rank == 3
    g = sp2_build()
    for name, fact in catalog.DISTRIBUTION_FACTS.items():
        assert ad_invariance_check(g, spaces[name], spaces[fact.stabilizer])


def test_stabilizers_are_subalgebras():
    g = sp2_build()
    spaces = catalog.named_subspaces()
    for name in ("sl2_l", "sl2_s"):
        s = spaces[name]
        for x in s.basis:
            for y in s.basis:
                assert s.contains(g.bracket(x, y)), name


def test_algebra_text_round_trips():
    """Reading back the `dim:` and `bracket:` lines gives the sp2 algebra."""
    g = sp2_build()
    dims, brackets = [], {}
    for line in catalog.algebra_text().splitlines():
        if line.startswith("dim:"):
            dims.append(int(line.split()[1]))
        elif line.startswith("bracket:"):
            j, k, i, c = line.split()[1:]
            brackets.setdefault((int(j), int(k)), {})[int(i)] = Fraction(c)
    assert dims == [g.dim]
    assert brackets == g.brackets


@pytest.mark.parametrize("name", ["Ml", "Ms"])
def test_expected_tau_tables_parse(name):
    sc = catalog.scenario(name)
    exp = sc.expected
    scalars.parse_scalar(exp.tau0, sc.alphabet)
    for table in (exp.tau1, exp.tau2, exp.tau3):
        for key, text in table.items():
            assert len(key) in (1, 2, 3)
            scalars.parse_scalar(text, sc.alphabet)
    assert Fraction(exp.vol_scale) > 0


def test_exclusions_are_parseable():
    for name in ("Ml", "Ms"):
        sc = catalog.scenario(name)
        for pname, value in sc.exclusions:
            assert pname in sc.alphabet
            assert isinstance(value, Fraction)
