"""Sparse exterior algebra: wedge, interior product, symmetric tensors."""

import ast
import copy
import pickle
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

import splitg2
from splitg2 import scalars
from splitg2.errors import DegreeMismatch, DimensionMismatch
from splitg2.exterior import Form, SymTensor2, Vector, interior, sym_product

from conftest import random_fraction, random_scalar


def random_form(rng, dim, degree, symbolic=False):
    keys = list(combinations(range(1, dim + 1), degree))
    terms = {}
    for key in rng.sample(keys, min(len(keys), rng.randint(0, 4))):
        coeff = (random_scalar(rng) if symbolic else random_fraction(rng))
        if not scalars.is_zero(coeff):
            terms[key] = coeff
    return Form(dim, degree, terms)


def random_vector(rng, dim):
    return Vector([random_fraction(rng) for _ in range(dim)])


# -- construction and normalization --------------------------------------------


def test_unsorted_key_rejected():
    with pytest.raises(ValueError):
        Form(4, 2, {(2, 1): Fraction(3)})


def test_repeated_index_rejected():
    with pytest.raises(ValueError):
        Form(4, 2, {(1, 1): Fraction(1)})


def test_zero_coefficients_dropped():
    assert Form(4, 1, {(1,): Fraction(0)}).is_zero()


def test_out_of_range_index():
    with pytest.raises(ValueError):
        Form(3, 1, {(4,): Fraction(1)})


def test_degree_mismatch_on_add():
    with pytest.raises(DegreeMismatch):
        Form.monomial(4, (1,)) + Form.monomial(4, (1, 2))


def test_dimension_mismatch_on_wedge():
    with pytest.raises(DimensionMismatch):
        Form.monomial(4, (1,)).wedge(Form.monomial(5, (2,)))


# -- wedge oracle: a hand-expanded product --------------------------------------


def test_wedge_hand_computed():
    # (e^1^e^2 + 2 e^3^e^4) ^ (e^1^e^3 - e^2^e^4)
    a = Form(4, 2, {(1, 2): 1, (3, 4): 2})
    b = Form(4, 2, {(1, 3): 1, (2, 4): -1})
    # e^12^e^13 = 0, e^12^e^24 = 0, e^34^e^13 = 0, and
    # e^12 ^ -e^24 = 0; survivors: e^12^e^34 absent from b... none with
    # matching disjoint supports except none: product is zero
    assert a.wedge(b).is_zero()


def test_wedge_hand_computed_nonzero():
    a = Form(5, 1, {(1,): 2, (3,): 1})
    b = Form(5, 2, {(2, 4): 1, (4, 5): -3})
    got = a.wedge(b)
    want = Form(5, 3, {(1, 2, 4): 2, (1, 4, 5): -6,
                       (2, 3, 4): -1, (3, 4, 5): -3})
    assert (got - want).is_zero()
    # e^3 ^ e^{2,4}: moving e^3 past e^2 gives one swap, hence -1


def test_wedge_sign_from_shuffle():
    a = Form.monomial(6, (2, 5))
    b = Form.monomial(6, (1, 3))
    # sorting (2,5,1,3) -> (1,2,3,5) needs 3 transpositions
    assert a.wedge(b).terms == {(1, 2, 3, 5): Fraction(-1)}


def test_wedge_graded_anticommutativity(rng):
    for _ in range(30):
        dim = rng.randint(2, 6)
        da = rng.randint(0, dim)
        db = rng.randint(0, dim)
        a = random_form(rng, dim, da)
        b = random_form(rng, dim, db)
        sign = -1 if (da * db) % 2 else 1
        assert (a.wedge(b) - b.wedge(a) * sign).is_zero()


def test_wedge_associativity(rng):
    for _ in range(20):
        dim = rng.randint(2, 6)
        a = random_form(rng, dim, rng.randint(0, 2))
        b = random_form(rng, dim, rng.randint(0, 2))
        c = random_form(rng, dim, rng.randint(0, 2))
        if a.degree + b.degree + c.degree > dim:
            continue
        assert (a.wedge(b).wedge(c) - a.wedge(b.wedge(c))).is_zero()


def test_wedge_bilinearity(rng):
    for _ in range(20):
        dim = rng.randint(2, 5)
        a = random_form(rng, dim, 1)
        b = random_form(rng, dim, 1)
        c = random_form(rng, dim, 1)
        s = random_fraction(rng)
        lhs = a.wedge(b * s + c)
        rhs = a.wedge(b) * s + a.wedge(c)
        assert (lhs - rhs).is_zero()


def test_wedge_symbolic_coefficients(rng):
    for _ in range(10):
        a = random_form(rng, 5, 1, symbolic=True)
        b = random_form(rng, 5, 2, symbolic=True)
        ab = a.wedge(b)
        ba = b.wedge(a)
        assert (ab - ba).is_zero()


def test_square_of_odd_form_vanishes(rng):
    for _ in range(15):
        a = random_form(rng, 6, rng.choice((1, 3)), symbolic=rng.random() < 0.4)
        assert a.wedge(a).is_zero()


# -- interior product ------------------------------------------------------------


def test_interior_hand_computed():
    v = Vector.basis(4, 2)
    a = Form(4, 3, {(1, 2, 3): Fraction(5)})
    got = interior(v, a)
    # e_2 hits the middle slot: sign (-1)^1
    assert got.terms == {(1, 3): Fraction(-5)}


def test_interior_antiderivation(rng):
    for _ in range(25):
        dim = rng.randint(2, 6)
        da = rng.randint(1, max(1, dim - 2))
        db = rng.randint(1, dim - da)
        a = random_form(rng, dim, da)
        b = random_form(rng, dim, db)
        v = random_vector(rng, dim)
        sign = -1 if da % 2 else 1
        lhs = interior(v, a.wedge(b))
        rhs = interior(v, a).wedge(b) + a.wedge(interior(v, b)) * sign
        assert (lhs - rhs).is_zero()


def test_interior_twice_vanishes(rng):
    for _ in range(15):
        dim = rng.randint(2, 6)
        a = random_form(rng, dim, rng.randint(2, dim))
        v = random_vector(rng, dim)
        assert interior(v, interior(v, a)).is_zero()


def test_interior_on_zero_form():
    assert interior(Vector.basis(3, 1), Form.zero(3, 0)).is_zero()


# -- symmetric tensors -----------------------------------------------------------


def test_sym_product_polarization():
    e1 = Form.monomial(3, (1,))
    e2 = Form.monomial(3, (2,))
    t = sym_product(e1, e2)
    # off-diagonal entries store half the displayed coefficient
    assert t.terms == {(1, 2): Fraction(1, 2)}
    assert sym_product(e1, e1).terms == {(1, 1): Fraction(1)}


def test_sym_product_symmetric(rng):
    for _ in range(15):
        a = random_form(rng, 5, 1)
        b = random_form(rng, 5, 1)
        assert (sym_product(a, b) - sym_product(b, a)).is_zero()


def test_symtensor_display_coefficient_doubles_offdiagonal():
    t = SymTensor2(3, {(1, 2): Fraction(3, 2)})
    assert "3*" in str(t)


def test_symtensor_matrix_round_trip():
    t = SymTensor2(3, {(1, 1): 2, (1, 3): -1, (2, 2): 5})
    m = t.to_matrix()
    assert m[0][2] == m[2][0] == -1
    assert m[0][0] == 2 and m[1][1] == 5 and m[2][2] == 0


def test_symtensor_key_normalization():
    t = SymTensor2(3, {(3, 1): 4})
    assert t.terms == {(1, 3): Fraction(4)}


# -- extension and restriction ----------------------------------------------------


def test_form_extend_restrict_round_trip():
    a = Form(3, 2, {(1, 3): 7})
    up = a.extend(6)
    assert up.dim == 6 and up.terms == a.terms
    assert up.restrict(3).terms == a.terms


def test_restrict_rejects_out_of_range():
    a = Form(5, 2, {(1, 5): 1})
    with pytest.raises(ValueError):
        a.restrict(3)


# -- the shared coefficient-map core ----------------------------------------------

# coefficient text -> how one term with that coefficient renders
TERM_TEXT = [
    ("1", "{b}"),
    ("-1", "-{b}"),
    ("-1/2", "-1/2*{b}"),
    ("-a", "-a*{b}"),
    ("a + 1", "(a + 1)*{b}"),
]


@pytest.mark.parametrize("text,shape", TERM_TEXT, ids=[t for t, _ in TERM_TEXT])
def test_forms_and_tensors_share_term_rendering(text, shape):
    c = scalars.parse_scalar(text, ("a",))
    assert str(Form(3, 2, {(1, 2): c})) == shape.format(b="e^{1 2}")
    assert str(Form(3, 0, {(): c})) == text  # a constant has no basis to attach
    assert str(SymTensor2(3, {(2, 2): c})) == shape.format(b="(e^2)^2")
    # an off-diagonal entry g_12 is shown as the coefficient of e^1 (.) e^2
    assert str(SymTensor2(3, {(1, 2): c / 2})) == shape.format(b="e^1(.)e^2")


def test_equality_by_value_on_shared_keys_and_by_difference_otherwise():
    a = scalars.parse_scalar("a", ("a",))
    f = Form(3, 1, {(1,): a, (2,): 1})
    assert f != Form(3, 1, {(1,): a}) and Form(3, 1, {(1,): a}) != f
    assert f == Form(3, 1, {(2,): 1}) + Form(3, 1, {(1,): a})
    t = SymTensor2(3, {(1, 2): a, (3, 3): 1})
    assert t != SymTensor2(3, {(1, 2): a}) and SymTensor2(3, {(1, 2): a}) != t
    assert t == SymTensor2(3, {(3, 3): 1}) + SymTensor2(3, {(1, 2): a})
    # quotients are never reduced: equal values may be stored differently
    unreduced = scalars.parse_scalar("(a^2 - 1)/(a - 1)", ("a",))
    reduced = scalars.parse_scalar("a + 1", ("a",))
    assert str(unreduced) != str(reduced)
    assert Form(3, 1, {(1,): unreduced}) == Form(3, 1, {(1,): reduced})
    assert SymTensor2(3, {(1, 2): unreduced}) == SymTensor2(3, {(1, 2): reduced})
    assert Form(3, 1, {(1,): unreduced}) != Form(3, 1, {(1,): a})
    assert SymTensor2(3, {(1, 2): unreduced}) != SymTensor2(3, {(1, 2): a})


def test_raw_construction_stays_in_exterior():
    """Unchecked construction of forms and tensors goes through `raw`."""
    offenders = []
    for path in sorted(Path(splitg2.__file__).parent.glob("*.py")):
        if path.name == "exterior.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Attribute) and node.attr == "__new__"):
                continue
            owner = ast.unparse(node.value)
            if owner in ("Form", "SymTensor2") or owner.endswith(
                    (".Form", ".SymTensor2")):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_copies_and_pickles_keep_value_representation_and_read_only_terms():
    """A view cannot be pickled: copies, deep copies and pickles rebuild
    through the unchecked constructor, with equal terms in the same order
    and the same unreduced representatives, still read-only."""
    c = scalars.parse_scalar("(a^2 - 1)/(a - 1)", ("a",))
    for obj in (Form(4, 2, {(1, 2): c, (3, 4): Fraction(-2, 3)}),
                SymTensor2(4, {(2, 3): 5, (1, 1): c})):
        for clone in (copy.copy(obj), copy.deepcopy(obj),
                      pickle.loads(pickle.dumps(obj))):
            assert type(clone) is type(obj) and clone is not obj
            assert (clone.dim, clone.degree) == (obj.dim, obj.degree)
            assert clone == obj and str(clone) == str(obj)
            assert list(clone.terms) == list(obj.terms)
            with pytest.raises(TypeError):
                clone.terms[(1, 2)] = Fraction(1)


def test_str_is_deterministic(rng):
    a = random_form(rng, 6, 2, symbolic=True)
    assert str(a) == str(a)
    assert str(Form.zero(6, 2)) == "0"
