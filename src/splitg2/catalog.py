"""Built-in validated fixtures: the rank-2 split symplectic algebra, its two
quotient scenarios, and the reference results the verification commands
replay.

All expected scalar values are stored as rendered expression strings and
parsed at comparison time, so the golden data stays human-diffable.  The
two scenarios are built once each by the one builder `_fixture`, from
their own basis, metric, 3-form family and goldens, validated (Jacobi,
fibration integrability, compatibility) and cached immutable.  They are
`textio.Scenario`s, the type a parsed input document has too, and
`validation` checks either.
"""

import re
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Mapping, Tuple

from . import liealg, scalars, textio
from .errors import (
    InternalInconsistency,
    NotAFibration,
    PoleAtPoint,
    ValidationError,
)
from .exterior import Form, SymTensor2, Vector
from .g2 import Metric7
from .liealg import BasisChange, Subspace
from .textio import Scenario

_F1 = Fraction(1)
_HALF = Fraction(1, 2)

# Nonzero brackets [x_J, x_K], J < K, of the defining matrix basis.  Every
# pair absent from this table commutes.
COMMUTATORS = {
    (1, 5): {1: 2},
    (1, 7): {2: -2},
    (1, 9): {4: -2},
    (1, 10): {5: 4},
    (2, 4): {1: 1},
    (2, 5): {2: 1},
    (2, 6): {2: 1},
    (2, 7): {3: 2},
    (2, 8): {4: 1},
    (2, 9): {5: -1, 6: -1},
    (2, 10): {7: -2},
    (3, 4): {2: -1},
    (3, 6): {3: 2},
    (3, 8): {6: -1},
    (3, 9): {7: -1},
    (4, 5): {4: 1},
    (4, 6): {4: -1},
    (4, 7): {5: 1, 6: -1},
    (4, 9): {8: -2},
    (4, 10): {9: -2},
    (5, 7): {7: 1},
    (5, 9): {9: 1},
    (5, 10): {10: 2},
    (6, 7): {7: -1},
    (6, 8): {8: 2},
    (6, 9): {9: 1},
    (7, 8): {9: 1},
    (7, 9): {10: 1},
}

# Normalized Killing form (1/12 of the trace form) in each of the three
# bases, as symmetric tensors on the 10-dimensional frame.
KILLING_MATRIX_BASIS = SymTensor2(
    10, {(1, 10): -2, (2, 9): 1, (3, 8): _HALF, (4, 7): -1, (5, 5): 1, (6, 6): 1}
)
KILLING_LONG_BASIS = SymTensor2(
    10, {(4, 4): 1, (3, 5): -1, (2, 6): _HALF, (1, 7): 1, (9, 9): 1, (8, 10): -2}
)
KILLING_SHORT_BASIS = SymTensor2(
    10, {(4, 4): 2, (3, 5): -1, (2, 6): _HALF, (1, 7): -2, (9, 9): 2, (8, 10): 1}
)

# Coframe differentials d e^I = sum over J < K of m[(J,K)] e^J ^ e^K in the
# basis adapted to the long-root quotient.
MC_LONG = {
    1: {(1, 4): -1, (1, 9): -1, (2, 3): 1, (5, 8): -2},
    2: {(1, 5): -2, (2, 4): -2},
    3: {(1, 6): -1, (3, 4): 1, (3, 9): -1, (7, 8): -2},
    4: {(1, 7): 1, (2, 6): 1, (3, 5): 1},
    5: {(1, 10): 2, (2, 7): 1, (4, 5): 1, (5, 9): 1},
    6: {(3, 7): 2, (4, 6): -2},
    7: {(3, 10): 2, (4, 7): -1, (5, 6): -1, (7, 9): 1},
    8: {(1, 3): -1, (8, 9): -2},
    9: {(1, 7): 1, (3, 5): -1, (8, 10): -4},
    10: {(5, 7): -1, (9, 10): -2},
}

# The same system in the basis adapted to the short-root quotient.
MC_SHORT = {
    1: {(1, 4): 2, (1, 9): -2, (3, 8): 1},
    2: {(2, 4): -2, (2, 9): -2, (5, 8): 2},
    3: {(1, 10): 2, (3, 4): 2, (6, 8): 1},
    4: {(1, 7): 2, (2, 6): _HALF, (3, 5): 1},
    5: {(2, 10): 1, (4, 5): 2, (7, 8): -2},
    6: {(3, 10): 2, (4, 6): -2, (6, 9): 2},
    7: {(4, 7): 2, (5, 10): -1, (7, 9): 2},
    8: {(1, 5): 2, (2, 3): 1, (8, 9): -2},
    9: {(1, 7): -2, (2, 6): _HALF, (8, 10): 1},
    10: {(3, 7): 2, (5, 6): -1, (9, 10): -2},
}

# Fiber systems: the coframe differentials restricted to a leaf of the
# vertical foliation (horizontal legs set to zero), at original indices.
LEAF_LONG = {8: {(8, 9): -2}, 9: {(8, 10): -4}, 10: {(9, 10): -2}}
LEAF_SHORT = {8: {(8, 9): -2}, 9: {(8, 10): 1}, 10: {(9, 10): -2}}


def mc_form(dim: int, table: Mapping) -> Form:
    """Golden differential table entry as a 2-form."""
    return Form(dim, 2, dict(table))


# Expected behaviour of one named rank-3 distribution.
DistributionFact = namedtuple("DistributionFact",
                              ("stabilizer", "integrable", "claimed_growth"))


DISTRIBUTION_FACTS = {
    "D_l1": DistributionFact("sl2_l", False, (2, 3)),
    "D_l2": DistributionFact("sl2_l", False, (2, 3)),
    "D_s1": DistributionFact("sl2_s", True, None),
    "D_s2": DistributionFact("sl2_s", True, None),
}


# Reference results for one scenario, scalar values as text.
Expected = namedtuple("Expected", (
    "dimensions", "coframe_differentials", "leaf_differentials", "killing",
    "metric_family", "form_family", "solution_relations", "phi_display",
    "metric_det", "tau0", "tau1", "tau2", "tau3", "vol_scale",
    "tau0_reference_point", "tau0_reference_value", "coclosed",
    "coclosed_slice"))


def validation(sc: Scenario) -> Iterator[Tuple[str, str, bool, str, str]]:
    """(check, claim, ok, computed, expected) records of the Jacobi,
    fibration and, given a metric and a 3-form, compatibility checks; each
    check runs when its record is asked for, so a caller can stop early.
    The compatibility record reads `Scenario.defect`, so the defect a
    fixture was validated with is the one its reports show."""
    jac = sc.algebra.jacobi_check()
    yield ("jacobi", "structure constants satisfy the Jacobi identity",
           jac.ok, "pass" if jac.ok else str(jac), "pass")
    fib = sc.algebra.horizontal_integrability(sc.horizontal)
    yield ("fibration", "horizontal coframe block is integrable",
           fib, "integrable" if fib else "not integrable", "integrable")
    defect = sc.defect
    if defect is not None:
        ok = defect.is_zero()
        yield ("compatibility", "metric and 3-form are compatible",
               ok, "defect 0" if ok else f"defect {defect}", "defect 0")


def _validate(scenario: Scenario) -> Scenario:
    """A builtin fixture must pass `validation`; raise at the first failure."""
    for check, _, ok, computed, _ in validation(scenario):
        if not ok:
            error = NotAFibration if check == "fibration" else InternalInconsistency
            raise error(f"fixture fails {check}: {computed}")
    if scenario.phi_family.dim != scenario.horizontal:
        raise ValidationError("3-form does not live on the horizontal coframe")
    return scenario


_ML_TAU3 = {
    (1, 2, 5): "3/28*(2*a-p)^2 + 8*a*p/(7*(q-1))",
    (1, 2, 7): "(11*p^2+16*a*p-12*a^2+3*q*(2*a-p)^2)/(28*p)",
    (1, 4, 5): "-(44*a^2+16*a*p-3*p^2+3*q*(2*a-p)^2)/(28*a)",
    (1, 4, 7): "((7-4*q)*(2*a+p)^2-3*q^2*(2*a-p)^2)/(28*a*p)",
    (1, 5, 6): "(3*p^2*(q-1)^2-12*a*p*(q^2-1)+4*a^2*(31+22*q+3*q^2))/(112*a^2)",
    (1, 6, 7): "-((q^2-1)*(44*a^2+16*a*p-3*p^2+3*q*(2*a-p)^2))/(112*a^2*p)",
    (2, 3, 5): "(12*a^2-16*a*p-11*p^2-3*q*(2*a-p)^2)/(28*p)",
    (2, 3, 7): "-(12*a^2*(q-1)^2-12*a*p*(q^2-1)+p^2*(31+22*q+3*q^2))/(28*p^2)",
    (2, 4, 6): "(4*a*p*(6-q)+(4*a^2+p^2)*(q-1))/(14*a*p)",
    (3, 4, 5): "((7-4*q)*(2*a+p)^2-3*q^2*(2*a-p)^2)/(28*a*p)",
    (3, 4, 7): "((q^2-1)*(12*a^2-16*a*p-11*p^2-3*q*(2*a-p)^2))/(28*a*p^2)",
    (3, 5, 6): "((q^2-1)*(44*a^2+16*a*p-3*p^2+3*q*(2*a-p)^2))/(112*a^2*p)",
    (3, 6, 7): "((q^2-1)*(q+1)*(12*a^2-44*a*p+3*p^2-3*q*(2*a-p)^2))/(112*a^2*p^2)",
}

_ML_TAU1 = {
    (2,): "-1/4*(2*a-p)",
    (4,): "1/8*(2*a-p)*(2*a+p)*(q-1)/(a*p)",
    (6,): "1/8*(2*a-p)*(q^2-1)/(a*p)",
}

# Family coefficient names follow the free constants of the invariant-space
# solution; the relations pin the dependent ones on the compatible locus.
_ML_RELATIONS = {
    "a": "a",
    "p": "p",
    "q": "q",
    "b": "1/2",
    "f": "a*p/(1-q)",
    "h": "a*(q-1)/p",
    "r": "(q^2-1)/p",
    "s": "p*(1-q)/(4*a)",
    "t": "(1-q^2)/(4*a)",
    "u": "(q^2-1)*(q+1)/(4*a*p)",
}

_MS_RELATIONS = {"a": "1/2", "b": "0", "h": "0", "q": "q", "p": "1/q"}

# The fully-substituted 3-form displays, transcribed independently of the
# relations above; equality of the two routes is one of the replayed checks.
_ML_PHI_DISPLAY = {
    (1, 2, 5): "a*p/(1-q)",
    (2, 3, 5): "a",
    (1, 2, 7): "-a",
    (1, 4, 5): "p",
    (1, 4, 7): "q",
    (3, 4, 5): "q",
    (1, 5, 6): "p*(1-q)/(4*a)",
    (3, 5, 6): "(1-q^2)/(4*a)",
    (1, 6, 7): "-(1-q^2)/(4*a)",
    (2, 3, 7): "a*(q-1)/p",
    (2, 4, 6): "1/2",
    (3, 4, 7): "(q^2-1)/p",
    (3, 6, 7): "(q^2-1)*(q+1)/(4*a*p)",
}

_MS_PHI_DISPLAY = {
    (1, 4, 7): "2",
    (2, 4, 6): "1/2",
    (3, 4, 5): "1",
    (1, 3, 6): "q",
    (2, 5, 7): "1/q",
}


def _metric_generators_long() -> tuple:
    return (
        ("g22", SymTensor2(7, {(2, 2): 1})),
        ("g24", SymTensor2(7, {(2, 4): 1})),
        ("g44", SymTensor2(7, {(4, 4): 1})),
        ("g35", SymTensor2(7, {(3, 5): 1, (1, 7): -1})),
        ("g26", SymTensor2(7, {(2, 6): 1})),
        ("g46", SymTensor2(7, {(4, 6): 1})),
        ("g66", SymTensor2(7, {(6, 6): 1})),
    )


def _metric_generators_short() -> tuple:
    return (
        ("g33", SymTensor2(7, {(3, 3): 1, (1, 6): -1})),
        ("g44", SymTensor2(7, {(4, 4): 1})),
        ("g55", SymTensor2(7, {(5, 5): 1, (2, 7): 1})),
        ("g26", SymTensor2(7, {(3, 5): -2, (2, 6): 1, (1, 7): -4})),
    )


def _form_generators_long() -> tuple:
    return (
        ("f", Form(7, 3, {(1, 2, 5): 1})),
        ("a", Form(7, 3, {(2, 3, 5): 1, (1, 2, 7): -1})),
        ("p", Form(7, 3, {(1, 4, 5): 1})),
        ("q", Form(7, 3, {(1, 4, 7): 1, (3, 4, 5): 1})),
        ("s", Form(7, 3, {(1, 5, 6): 1})),
        ("t", Form(7, 3, {(3, 5, 6): 1, (1, 6, 7): -1})),
        ("h", Form(7, 3, {(2, 3, 7): 1})),
        ("b", Form(7, 3, {(2, 4, 6): 1})),
        ("r", Form(7, 3, {(3, 4, 7): 1})),
        ("u", Form(7, 3, {(3, 6, 7): 1})),
    )


def _form_generators_short() -> tuple:
    return (
        ("a", Form(7, 3, {(1, 4, 7): 4, (2, 4, 6): 1, (3, 4, 5): 2})),
        ("b", Form(7, 3, {(1, 5, 6): 2, (2, 3, 6): 1, (1, 3, 7): -4})),
        ("q", Form(7, 3, {(1, 3, 6): 1})),
        ("h", Form(7, 3, {(2, 5, 6): 1, (1, 5, 7): -4, (2, 3, 7): -2})),
        ("p", Form(7, 3, {(2, 5, 7): 1})),
    )


def family_combination(
    generators: tuple, relations: Mapping[str, str], alphabet: tuple
) -> Form:
    """Sum of relation(name) * generator over the family generators."""
    total = None
    for name, gen in generators:
        coeff = scalars.parse_scalar(relations[name], alphabet)
        part = gen * coeff
        total = part if total is None else total + part
    return total


def substitute_parameters(text: str, substitutions: Mapping[str, str]) -> str:
    """Replace whole-word parameter names by parenthesized expressions."""
    pattern = re.compile(
        "|".join(rf"\b{re.escape(name)}\b" for name in substitutions)
    )
    return pattern.sub(lambda match: "(" + substitutions[match.group(0)] + ")", text)


def restrict_form(form: Form, alphabet: tuple,
                  substitutions: Mapping[str, str]) -> Form:
    """`form` on the parameter slice `substitutions`, over the leftover
    alphabet.

    The numerator and the denominator of each coefficient are rendered,
    substituted textually (`substitute_parameters`) and parsed again, so
    a coefficient restricts exactly where its denominator stays nonzero
    on the slice; a denominator that vanishes there raises PoleAtPoint
    naming it.  Denominators are unreduced, so a vanishing one may hold
    a factor that the numerator cancels: the restriction is then
    undecided, not proof of a pole.
    """
    rest = tuple(p for p in alphabet if p not in substitutions)

    def on_slice(x):
        return scalars.parse_scalar(substitute_parameters(str(x), substitutions),
                                    rest)

    def restrict(x):
        if not isinstance(x, scalars.RationalFunction):
            return on_slice(x)
        den = on_slice(x.den)
        if scalars.is_zero(den):
            raise PoleAtPoint(f"denominator {x.den} vanishes on the slice")
        return on_slice(x.num) / den

    return form.map_coefficients(restrict)


def _fixture(name, alphabet, basis, metric, generators, relations, exclusions,
             **expected) -> Scenario:
    """The validated quotient `name` of sp(2, R), in the basis `basis`.

    The algebra is the matrix-basis algebra in `basis`, the metric is
    `metric` on the seven horizontal legs, and phi is the family
    combination of the 3-form `generators` under `relations`; the
    verticals are 8, 9 and 10.  The `Expected` record takes the
    generators and relations as its form family and solution relations,
    volume scale 1 and the remaining fields from `expected`."""
    return _validate(Scenario(
        name=name,
        alphabet=alphabet,
        algebra=liealg.change_basis(liealg.sp2_build(), basis),
        basis=basis,
        horizontal=7, verticals=(8, 9, 10),
        metric=Metric7(metric),
        phi_family=family_combination(generators, relations, alphabet),
        exclusions=exclusions,
        expected=Expected(form_family=generators, solution_relations=relations,
                          vol_scale="1", **expected),
    ))


@lru_cache(maxsize=None)
def scenario_Ml() -> Scenario:
    """Quotient by the long-root subalgebra, 3-parameter structure family."""
    return _fixture(
        "Ml", ("a", "p", "q"),
        BasisChange.permutation((2, 3, 4, 6, 7, 8, 9, 1, 5, 10)),
        SymTensor2(7, {(4, 4): 1, (3, 5): -1, (2, 6): _HALF, (1, 7): 1}),
        _form_generators_long(), _ML_RELATIONS,
        (("a", Fraction(0)), ("p", Fraction(0)), ("q", Fraction(1))),
        dimensions={"invariant-metrics": 7, "invariant-3-forms": 10},
        coframe_differentials=MC_LONG,
        leaf_differentials=LEAF_LONG,
        killing=KILLING_LONG_BASIS,
        metric_family=_metric_generators_long(),
        phi_display=_ML_PHI_DISPLAY,
        metric_det="-1/4",
        tau0="6/7*((2*a-p)^2*q-(2*a+p)^2)/(a*p)",
        tau1=_ML_TAU1,
        tau2={},
        tau3=_ML_TAU3,
        tau0_reference_point={"a": "1", "p": "1", "q": "0"},
        tau0_reference_value="-54/7",
        coclosed=False,
        coclosed_slice={"p": "2*a"},
    )


@lru_cache(maxsize=None)
def scenario_Ms() -> Scenario:
    """Quotient by the short-root subalgebra, 1-parameter structure family."""
    return _fixture(
        "Ms", ("q",),
        BasisChange([
            [1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            [0, 0, 1, 0, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, 1, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, -1, 1, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 1, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 0, 1, 0, 0],
            [0, 0, 0, 0, 0, 0, 0, 0, 0, 1],
            [0, 1, 0, 0, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 1, 1, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 0, 0, 1, 0],
        ]),
        SymTensor2(7, {(4, 4): 2, (3, 5): -1, (2, 6): _HALF, (1, 7): -2}),
        _form_generators_short(), _MS_RELATIONS,
        (("q", Fraction(0)),),
        dimensions={"invariant-metrics": 4, "invariant-3-forms": 5},
        coframe_differentials=MC_SHORT,
        leaf_differentials=LEAF_SHORT,
        killing=KILLING_SHORT_BASIS,
        metric_family=_metric_generators_short(),
        phi_display=_MS_PHI_DISPLAY,
        metric_det="-2",
        tau0="-18/7",
        tau1={},
        tau2={},
        tau3={
            (1, 4, 7): "8/7",
            (2, 4, 6): "2/7",
            (3, 4, 5): "4/7",
            (1, 3, 6): "-3/7*q",
            (2, 5, 7): "-3/(7*q)",
        },
        tau0_reference_point={"q": "1"},
        tau0_reference_value="-18/7",
        coclosed=True,
        coclosed_slice=None,
    )


def scenario(name: str) -> Scenario:
    builders = {"Ml": scenario_Ml, "Ms": scenario_Ms}
    if name not in builders:
        raise KeyError(f"unknown scenario {name!r}; choose from {sorted(builders)}")
    return builders[name]()


def _unit(i: int) -> Vector:
    return Vector.basis(10, i)


@lru_cache(maxsize=None)
def named_subspaces() -> dict:
    """The six distinguished subspaces in matrix-basis coordinates."""
    comps = [0] * 10
    comps[4], comps[5] = 1, 1
    short_cartan = Vector([Fraction(c) for c in comps])
    return {
        "sl2_l": Subspace.span(10, _unit(1), _unit(5), _unit(10)),
        "sl2_s": Subspace.span(10, _unit(2), short_cartan, _unit(9)),
        "D_l1": Subspace.span(10, _unit(2), _unit(3), _unit(7)),
        "D_l2": Subspace.span(10, _unit(4), _unit(8), _unit(9)),
        "D_s1": Subspace.span(10, _unit(1), _unit(4), _unit(8)),
        "D_s2": Subspace.span(10, _unit(3), _unit(7), _unit(10)),
    }


def algebra_text() -> str:
    """The matrix-basis algebra as a structured-text fixture."""
    return textio.render_algebra(liealg.sp2_build(), "sp2")
