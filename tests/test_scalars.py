"""Exact scalar arithmetic: construction, field laws, parsing, rendering.

The main oracle is evaluation: every symbolic identity is also checked
after specializing the parameters to random rationals, where plain
Fraction arithmetic decides the answer independently of the polynomial
code paths.
"""

import gc
import random
import re
import time
from fractions import Fraction
from math import gcd, lcm, prod

import pytest

from splitg2 import catalog, g2, kernels, scalars
from splitg2.errors import AlphabetMismatch, ParseError, PoleAtPoint, ValidationError
from splitg2.exterior import Form, fold
from splitg2.scalars import Polynomial, RationalFunction

from conftest import ALPHABET, random_fraction, random_polynomial, random_scalar

A = ALPHABET


def poly(text):
    return scalars.parse_scalar(text, A)


def sample_point(rng):
    return {name: random_fraction(rng) for name in A}


# -- polynomial canonical form ------------------------------------------------


def test_polynomial_content_is_extracted():
    x = Polynomial.from_terms(A, {(1, 0, 0): Fraction(4, 3),
                                  (0, 1, 0): Fraction(2, 3)})
    assert x.content == Fraction(2, 3)
    primitive = Polynomial.from_terms(A, {(1, 0, 0): 2, (0, 1, 0): 1})
    assert primitive.content == 1
    assert x.terms == primitive.terms


def test_polynomial_leading_coefficient_positive():
    x = Polynomial.from_terms(A, {(2, 0, 0): -3, (0, 0, 1): 6})
    # lex-leading term is a^2; its primitive coefficient must be +1
    lead = max(x.terms)
    assert x.terms[lead] > 0
    assert x.content < 0


def test_polynomial_zero_has_no_terms():
    x = Polynomial.from_terms(A, {(1, 1, 0): 5})
    x = x + Polynomial.from_terms(A, {(1, 1, 0): -5})
    assert x.is_zero() and x.content == 0 and x.terms == {}


def test_hand_product():
    # (a + p)(a - p) = a^2 - p^2
    left = poly("a + p") * poly("a - p")
    assert scalars.equals(left, poly("a^2 - p^2"))


def test_binomial_cube():
    assert scalars.equals(poly("(q + 1)^3"), poly("q^3 + 3*q^2 + 3*q + 1"))


def test_packed_keys_match_tuple_reference(rng):
    width = len(A)
    top = scalars._LOW

    def exponent():
        return rng.choice((0, top, rng.randint(0, 5), rng.randint(0, top)))

    for _ in range(200):
        exps = sorted({tuple(exponent() for _ in A)
                       for _ in range(rng.randint(1, 6))})
        keys = [scalars._pack(e, width) for e in exps]
        assert [scalars._unpack(k, width) for k in keys] == exps
        # integer order of keys is lexicographic order of exponent tuples
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
        x = Polynomial.from_terms(A, {e: rng.randint(1, 9) for e in exps})
        assert x.leading_exponent() == max(exps)
        lo = tuple(min(column) for column in zip(*exps))
        assert scalars._min_key(x.terms, width) == scalars._pack(lo, width)
        shifted = x._divide_monomial(scalars._pack(lo, width))
        for e in exps:
            down = tuple(u - v for u, v in zip(e, lo))
            assert shifted.coefficient(down) == x.coefficient(e)
        below = [k for k in range(width) if lo[k] < top]
        if below:
            i = rng.choice(below)
            with pytest.raises(ValueError, match="does not divide"):
                x._divide_monomial(
                    scalars._pack(lo[:i] + (lo[i] + 1,) + lo[i + 1:], width))


def test_exponent_field_overflow_raises():
    top = scalars._LOW
    with pytest.raises(ValidationError):
        Polynomial.from_terms(A, {(0, top + 1, 0): 1})
    x = Polynomial.from_terms(A, {(0, top, 0): 1})
    assert (x * Polynomial.variable(A, "a")).leading_exponent() == (1, top, 0)
    with pytest.raises(ValidationError):
        x * Polynomial.variable(A, "p")
    # the last field overflows into no neighbour, still caught
    last = Polynomial.from_terms(A, {(0, 0, top): 1, (0, 0, 0): 1})
    with pytest.raises(ValidationError):
        last * last
    with pytest.raises(ValidationError):
        Polynomial.variable(A, "q") ** (1 << 20)


# -- rational function normal form --------------------------------------------


def test_fraction_denominator_content_folded():
    x = RationalFunction.make(Polynomial.variable(A, "a"),
                              Polynomial.constant(A, 2))
    assert x.den.content == 1
    assert x.num.content == Fraction(1, 2)


def test_fraction_monomial_cancellation():
    x = poly("(a*p) / (a*q)")
    # the common monomial factor a is removed on construction
    assert x.num.terms == Polynomial.variable(A, "p").terms
    assert x.den.terms == Polynomial.variable(A, "q").terms


def test_unreduced_representatives_compare_equal():
    # (q^2 - 1)/(q - 1) and (q + 1) are different representatives
    x = poly("(q^2 - 1)/(q - 1)")
    y = poly("q + 1")
    assert x.num.terms != getattr(y, "terms", None)
    assert scalars.equals(x, y)
    assert x == y


def test_fractions_are_unhashable():
    with pytest.raises(TypeError):
        hash(poly("a/p"))


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RationalFunction.make(Polynomial.variable(A, "a"),
                              Polynomial.constant(A, 0))


def test_alphabet_mismatch_rejected():
    with pytest.raises(AlphabetMismatch):
        scalars.parse_scalar("a", ("a",)) + scalars.parse_scalar("b", ("b",))


# -- field laws, decided by specialization ------------------------------------


def test_field_axioms_sampled():
    rng = random.Random(101)
    for _ in range(40):
        x = random_scalar(rng)
        y = random_scalar(rng)
        z = random_scalar(rng)
        assert scalars.equals(x + y, y + x)
        assert scalars.equals(x * y, y * x)
        assert scalars.equals((x + y) + z, x + (y + z))
        assert scalars.equals((x * y) * z, x * (y * z))
        assert scalars.equals(x * (y + z), x * y + x * z)
        assert scalars.equals(x + (-x), scalars.as_scalar(0))
        if not scalars.is_zero(y):
            assert scalars.equals((x / y) * y, x)


def test_arithmetic_matches_fraction_evaluation():
    rng = random.Random(202)
    for _ in range(40):
        x = random_scalar(rng)
        y = random_scalar(rng)
        for op in ("add", "sub", "mul"):
            combined = getattr(x, f"__{op}__")(y)
            point = sample_point(rng)
            try:
                lhs = scalars.specialize(combined, point)
                rx = scalars.specialize(x, point)
                ry = scalars.specialize(y, point)
            except PoleAtPoint:
                continue
            rhs = {"add": rx + ry, "sub": rx - ry, "mul": rx * ry}[op]
            assert lhs == rhs


def convolve(x, y):
    """Reference product: the convolution kernel on the primitive maps."""
    terms = kernels.poly_mul(x.terms, y.terms)
    return (x.content * y.content if terms else Fraction(0)), terms


def test_constant_factors_and_powers_keep_the_canonical_form(rng):
    one = Polynomial.constant(A, 1)
    for _ in range(100):
        x = random_polynomial(rng)
        c = Polynomial.constant(A, random_fraction(rng))
        for left, right in ((x, c), (c, x), (x, one), (one, x), (x, x)):
            got = left * right
            assert (got.content, got.terms) == convolve(left, right)
        power = (one.content, one.terms)
        for n in range(5):
            got = x ** n
            assert (got.content, got.terms) == power
            power = convolve(Polynomial(A, *power), x)


def test_constants_and_variables_are_in_normal_form():
    one = Polynomial.constant(A, 1)

    def parts(x):
        return x.num.content, x.num.terms, x.den.content, x.den.terms

    for value in (0, 3, Fraction(-2, 7)):
        want = RationalFunction.make(Polynomial.constant(A, value), one)
        assert parts(RationalFunction.constant(list(A), value)) == parts(want)
    for name in A:
        want = RationalFunction.make(Polynomial.variable(A, name), one)
        assert parts(scalars.parse_scalar(name, A)) == parts(want)
    with pytest.raises(ValueError):
        RationalFunction.constant(("a", "a"), 1)


# -- rational operands ----------------------------------------------------------


def num(text):
    """The polynomial an expression without a quotient parses to."""
    x = poly(text)
    assert x.den == 1
    return x.num


def parts(x):
    """Every stored part of a scalar: content, term map and denominator."""
    if isinstance(x, RationalFunction):
        return "quotient", parts(x.num), parts(x.den)
    assert type(x) is Polynomial and type(x.content) is Fraction
    return x.alphabet, x.content, x.terms


def operand_cases(rng):
    """Seeded polynomials and quotients (over 1, and over denominators
    with a monomial factor), each with the rational operands to combine
    it with: zero, ±1, negative ints and Fractions, and one that cancels
    its constant term."""
    monomial = num("a*p^2")
    polys = [Polynomial.constant(A, 0), Polynomial.constant(A, Fraction(-3, 2)),
             num("a + 1"), num("-2*a^2*q + 4/3*p"), num("a - p/5 - 1")]
    polys += [random_polynomial(rng, max_terms=5) for _ in range(40)]
    one = Polynomial.constant(A, 1)
    quotients = [RationalFunction.make(x, one) for x in polys[:12]]
    for _ in range(30):
        n, d = random_polynomial(rng), random_polynomial(rng, max_terms=3)
        if d:
            quotients.append(RationalFunction.make(n, d))
            quotients.append(RationalFunction.make(n, d * monomial))
    quotients.append(RationalFunction.make(num("2*p + 2*q"), num("p + q")))
    for x in polys + quotients:
        top = x.num if isinstance(x, RationalFunction) else x
        yield x, [0, 1, -1, 3, -7, Fraction(2, 3), Fraction(-5, 4), Fraction(-2),
                  random_fraction(rng, nonzero=True), -top.coefficient((0, 0, 0))]


def test_rational_operands_keep_the_generic_representation(rng):
    """Arithmetic with an int or Fraction works on the content.  The
    reference boxes the operand as a constant, as the operators once did,
    and every stored part must come out the same, not only the value."""
    checked = 0
    for x, ks in operand_cases(rng):
        for k in ks:
            if isinstance(x, Polynomial):
                c = Polynomial.constant(A, k)
                pairs = [(x * k, x * c), (k * x, c * x)]
                if x:
                    pairs.append((k / x, RationalFunction.make(c, x)))
            else:
                c = RationalFunction.constant(A, k)
                pairs = [(x * k, x * c), (k * x, c * x)]
                if k:
                    pairs.append((x / k, x / c))
                if x:
                    pairs.append((k / x, c / x))
            pairs += [(x + k, x + c), (k + x, c + x), (x - k, x - c), (k - x, c - x)]
            for got, want in pairs:
                assert parts(got) == parts(want), (x, k)
            assert (x == k) == (x == c)
            checked += len(pairs)
    assert checked > 3000


def reference_poly_sub(self, other):
    """`Polynomial.__sub__` as it once was, with its own operand dispatch:
    the reference for subtraction as addition of the negation."""
    p = self._coerce(other)
    if p is None:
        if isinstance(other, (int, Fraction)):
            return self._add_rational(-other)
        return NotImplemented
    return self + (-p)


def reference_poly_rsub(self, other):
    if isinstance(other, (int, Fraction)):
        return (-self)._add_rational(other)
    return NotImplemented


def reference_ratfunc_sub(self, other):
    q = self._lift(other)
    if q is None:
        if isinstance(other, (int, Fraction)):
            return self._add_rational(-other)
        return NotImplemented
    return self + (-q)


def reference_ratfunc_rsub(self, other):
    q = self._lift(other)
    if q is None:
        if isinstance(other, (int, Fraction)):
            return (-self)._add_rational(other)
        return NotImplemented
    return q + (-self)


REFERENCE_SUB = {Polynomial: (reference_poly_sub, reference_poly_rsub),
                 RationalFunction: (reference_ratfunc_sub, reference_ratfunc_rsub)}


def reference_difference(x, y):
    """x - y through the reference bodies, dispatched as the interpreter
    does for unrelated types: x's __sub__, then y's __rsub__."""
    got = NotImplemented
    if type(x) in REFERENCE_SUB:
        got = REFERENCE_SUB[type(x)][0](x, y)
    if got is NotImplemented and type(y) in REFERENCE_SUB:
        got = REFERENCE_SUB[type(y)][1](y, x)
    if got is NotImplemented:
        raise TypeError(f"unsupported operand types for -: {type(x)}, {type(y)}")
    return got


def test_subtraction_adds_the_negation_as_the_reference_subtracts(rng):
    """Every stored part of a difference, in both orders, equals what the
    subtraction bodies with their own dispatch gave: scalars against
    ints and Fractions, and scalars against scalars."""
    cases = list(operand_cases(rng))
    items = [x for x, _ in cases]
    pairs = [(x, k) for x, ks in cases for k in ks]
    for shift in (0, 1, 7, 29):
        pairs += zip(items, items[shift:] + items[:shift])
    for x, y in pairs:
        for left, right in ((x, y), (y, x)):
            assert parts(left - right) == parts(reference_difference(left, right)), (
                left, right)
    assert len(pairs) > 1000
    # a mismatched alphabet: the same error, with the same message
    other = ("a", "p")
    narrow = [Polynomial.variable(other, "a"), scalars.parse_scalar("a/(p + 1)", other)]
    for x in (num("a + q"), poly("a/(p*q - 1)")):
        for y in narrow:
            for left, right in ((x, y), (y, x)):
                with pytest.raises(AlphabetMismatch) as want:
                    reference_difference(left, right)
                with pytest.raises(AlphabetMismatch, match=re.escape(str(want.value))):
                    left - right
    # an unsupported operand is a TypeError either way round
    for x in (num("a + q"), poly("a/(p*q - 1)")):
        for bad in (None, Form.monomial(7, (1, 2, 3))):
            for left, right in ((x, bad), (bad, x)):
                with pytest.raises(TypeError):
                    reference_difference(left, right)
                with pytest.raises(TypeError):
                    left - right


def test_a_zero_rational_divisor_raises():
    for x in (poly("a"), poly("a/p"), num("a")):
        for zero in (0, Fraction(0)):
            with pytest.raises(ZeroDivisionError, match="^division by zero scalar$"):
                x / zero
    for x in (Polynomial.constant(A, 0), RationalFunction.constant(A, 0)):
        with pytest.raises(ZeroDivisionError, match="^division by zero scalar$"):
            Fraction(3) / x
    for text in ("(a/p)/0", "a/(p - p)", "(a/p)/(2 - 2)", "3/(a - a)"):
        with pytest.raises(ParseError) as err:
            scalars.parse_scalar(text, A)
        assert str(err.value) == f"division by zero in {text!r}"


def test_rational_operands_build_no_constant(monkeypatch):
    """Guard: arithmetic with a rational operand, a polynomial power, and
    rendering a quotient over 1, box the operand neither as a constant
    Polynomial nor as a constant RationalFunction."""
    x = poly("(3*a - p*q)/(7*p)")
    y = num("2*a^2 - q")
    over_one = poly("a*q - 1/2")
    calls = []
    for cls in (Polynomial, RationalFunction):
        raw = cls.__dict__["constant"].__func__

        def spy(owner, alphabet, value, raw=raw):
            calls.append(owner.__name__)
            return raw(owner, alphabet, value)
        monkeypatch.setattr(cls, "constant", classmethod(spy))
    k = Fraction(-5, 3)
    product = x * k
    results = [x / k, y * k, y + k, y == 1, x + k, x - k, k - x, k * y,
               y - k, k - y, over_one + k, 3 / y, x == k, y ** 3]
    assert str(over_one) == "a*q - 1/2" and str(x) == "(3/7*a - 1/7*p*q)/p"
    assert calls == []
    assert str(product) == "(-5/7*a + 5/21*p*q)/p" and results[3] is False
    assert results[-1] == y * y * y
    # the spies see the boxing of the old route
    assert product == x * RationalFunction.constant(A, k)
    assert calls == ["RationalFunction", "Polynomial"]


def old_render(x):
    """Reference for `Polynomial.__str__`: each coefficient rendered from
    its own Fraction, as before the text was built from integers."""
    if not x.content:
        return "0"
    parts = []
    width = len(x.alphabet)
    for e in sorted(x.terms, reverse=True):
        coeff = x.content * x.terms[e]
        mono = "*".join(name if k == 1 else f"{name}^{k}"
                        for name, k in zip(x.alphabet, scalars._unpack(e, width))
                        if k)
        if not mono:
            body = str(abs(coeff))
        elif abs(coeff) == 1:
            body = mono
        else:
            body = f"{abs(coeff)}*{mono}"
        parts.append(("- " if coeff < 0 else "+ ") + body)
    text = " ".join(parts)
    if text.startswith("+ "):
        text = text[2:]
    elif text.startswith("- "):
        text = "-" + text[2:]
    return text


def test_rendering_matches_the_per_term_fraction_reference(rng):
    polys = [Polynomial.constant(A, 0), num("1"), num("-1"), num("a - p + q - 1"),
             num("-a^3*p*q^2 + 1/2"), num("-2/3*a - 4/9"),
             Polynomial.variable(("a", "b2", "long_name"), "long_name") ** 3]
    for _ in range(300):
        x = random_polynomial(rng, max_terms=6, max_exp=4)
        polys += [x, -x, x * random_fraction(rng, nonzero=True), x + 1, x - 1]
    sc = catalog.scenario("Ml")
    for c in (Fraction(1), Fraction(5, 3)):
        tau = g2.torsion_solve(sc.algebra, sc.metric, sc.phi_family, c)
        for v in [tau.tau0] + [v for f in (tau.tau1, tau.tau2, tau.tau3)
                               for v in f.terms.values()]:
            polys += [v.num, v.den]
    assert len(polys) > 1500
    for x in polys:
        assert str(x) == old_render(x)


def test_evaluate_matches_termwise_fractions(rng):
    for _ in range(200):
        x = random_polynomial(rng, max_terms=6, max_exp=4)
        point = {name: random_fraction(rng) for name in A}
        want = Fraction(0)
        for key, c in x.terms.items():
            term = x.content * c
            for name, k in zip(A, scalars._unpack(key, len(A))):
                term *= point[name] ** k
            want += term
        assert x.evaluate(point) == want


def test_power_and_negation():
    x = poly("a - 2*q")
    assert scalars.equals(x ** 3, x * x * x)
    assert scalars.equals(-x, x * -1)


# -- specialization ------------------------------------------------------------


def test_specialize_simple():
    x = poly("(2*a - p)^2 / q")
    assert scalars.specialize(x, {"a": Fraction(1), "p": Fraction(2),
                                  "q": Fraction(5)}) == 0
    assert scalars.specialize(x, {"a": 1, "p": 1, "q": 2}) == Fraction(1, 2)


def test_specialize_pole():
    with pytest.raises(PoleAtPoint):
        scalars.specialize(poly("a/(q - 1)"), {"a": 1, "p": 1, "q": 1})


def test_specialize_needs_all_names():
    with pytest.raises(ValueError):
        scalars.specialize(poly("a + q"), {"a": Fraction(1)})


def test_removable_singularity_is_still_a_pole():
    # unreduced fractions evaluate the stored denominator, so a formally
    # cancellable zero still raises
    x = poly("(q^2 - 1)/(q - 1)")
    with pytest.raises(PoleAtPoint):
        scalars.specialize(x, {"a": 0, "p": 0, "q": 1})


# -- grouped summation ---------------------------------------------------------


def test_scalar_sum_matches_pairwise():
    rng = random.Random(303)
    for _ in range(25):
        values = [random_scalar(rng) for _ in range(rng.randint(0, 6))]
        total = scalars.scalar_sum(values)
        naive = scalars.as_scalar(0)
        for v in values:
            naive = naive + v
        assert scalars.equals(total, naive)


def test_scalar_sum_mixed_types():
    values = [Fraction(1, 2), poly("a"), 1, poly("p/q")]
    total = scalars.scalar_sum(values)
    assert scalars.equals(total, poly("3/2 + a + p/q"))


# -- parsing and rendering ------------------------------------------------------


def test_parse_rational():
    assert scalars.parse_rational("-3/4") == Fraction(-3, 4)
    assert scalars.parse_rational("17") == 17
    # constant expressions fold to their value
    assert scalars.parse_rational("3/4 + 1") == Fraction(7, 4)
    with pytest.raises(ParseError):
        scalars.parse_rational("3//4")
    with pytest.raises(ParseError):
        scalars.parse_rational("a")


def test_parse_rejects_unknown_name():
    with pytest.raises(ParseError):
        scalars.parse_scalar("a + z", A)


def test_parse_rejects_garbage():
    for text in ("", "a +", "(a", "a ** 2", "1/(0)"):
        with pytest.raises((ParseError, ZeroDivisionError)):
            scalars.parse_scalar(text, A)
    # integer literals take the ASCII digits 0-9 only
    for text, char in (("2²", "²"), ("٣*a", "٣"), ("1٠", "٠")):
        with pytest.raises(ParseError, match=f"^unexpected character {char!r} in"):
            scalars.parse_scalar(text, A)


@pytest.mark.parametrize("text,value", [("0", 0), ("007", 7), ("-12", -12),
                                        ("9" * 400, int("9" * 400))])
def test_parse_integer(text, value):
    assert scalars.parse_integer(text) == value


@pytest.mark.parametrize("text", ["", "-", "+3", " 7", "1_0", "٣", "２", "--1", "1e3",
                                  "7" * 5000],
                         ids=["empty", "minus", "plus", "space", "underscore",
                              "arabic-indic", "fullwidth", "double-minus", "float",
                              "past-int-digit-limit"])
def test_parse_integer_takes_an_optional_minus_and_ascii_digits(text):
    with pytest.raises(ParseError) as err:
        scalars.parse_integer(text)
    assert str(err.value) == f"bad integer {text!r}"


def test_parse_bounds_nesting():
    n = scalars.MAX_NESTING
    # parentheses and unary signs share one depth count
    assert scalars.equals(scalars.parse_scalar("(" * n + "a" + ")" * n, A), poly("a"))
    assert scalars.equals(scalars.parse_scalar("-(" * (n // 2) + "a" + ")" * (n // 2), A),
                          poly("a"))
    assert scalars.parse_scalar("-" * n + "3", ()) == 3
    # one level past the limit, or far past it, is a ParseError rather than
    # a RecursionError
    for text in ("(" * (n + 1) + "a" + ")" * (n + 1), "+" * (n + 1) + "a",
                 "(" * 200 + "a" + ")" * 200, "-" * 1000 + "a"):
        with pytest.raises(ParseError, match=f"nesting exceeds the limit {n}"):
            scalars.parse_scalar(text, A)


def test_render_parse_round_trip():
    rng = random.Random(404)
    for _ in range(60):
        x = random_scalar(rng)
        text = scalars.render_scalar(x)
        back = scalars.parse_scalar(text, A)
        assert scalars.equals(back, x), text


def test_render_is_deterministic():
    x = poly("(3*a - p*q)/(7*p)")
    assert scalars.render_scalar(x) == scalars.render_scalar(x)


def test_product_denominator_stays_grouped():
    x = poly("q/(a*p)")
    text = scalars.render_scalar(x)
    assert scalars.equals(scalars.parse_scalar(text, A), x)
    # a bare a*p suffix would reparse as (q/a)*p
    assert "/(" in text


def test_constant_value():
    assert poly("(2*a)/(4*a)").constant_value() == Fraction(1, 2)
    with pytest.raises(ValueError):
        poly("a/p").constant_value()


def test_as_scalar_converts_only_ints():
    x = Fraction(3, 4)
    assert scalars.as_scalar(x) is x
    two = scalars.as_scalar(2)
    assert type(two) is Fraction and two == Fraction(2)
    p = poly("a + 1")
    assert scalars.as_scalar(p) is p
    with pytest.raises(TypeError):
        scalars.as_scalar(0.5)


# -- typed parse against an evaluation entirely in RationalFunctions -------------


def parse_all_rational_functions(text, alphabet=()):
    """Reference for `parse_scalar`: every literal and sub-expression is a
    RationalFunction over a nonempty alphabet, as before the parser kept
    the smallest scalar kind (no bound on constant powers)."""
    alphabet = scalars._check_alphabet(alphabet)
    toks = scalars._Tokens(text)
    depth = 0

    def nested(parse):
        nonlocal depth
        if depth == scalars.MAX_NESTING:
            raise ParseError(f"nesting exceeds the limit {scalars.MAX_NESTING}")
        depth += 1
        v = parse()
        depth -= 1
        return v

    def atom():
        kind, val = toks.take() if toks.peek() is not None else (None, None)
        if kind == "int":
            try:
                n = int(val)
            except ValueError:
                raise ParseError(f"integer literal of {len(val)} digits is too long") from None
            return RationalFunction.constant(alphabet, n) if alphabet else Fraction(n)
        if kind == "name":
            if val not in alphabet:
                raise ParseError(f"unknown parameter {val!r} in {text!r}")
            return RationalFunction.make(Polynomial.variable(alphabet, val),
                                         Polynomial.constant(alphabet, 1))
        if kind == "(":
            v = nested(expr)
            if toks.peek() != ")":
                raise ParseError(f"missing ')' in {text!r}")
            toks.take()
            return v
        raise ParseError(f"unexpected token in {text!r}")

    def power():
        v = atom()
        if toks.peek() == "^":
            toks.take()
            kind, val = toks.take() if toks.peek() is not None else (None, None)
            if kind != "int":
                raise ParseError(f"'^' needs an integer exponent in {text!r}")
            if len(val.lstrip("0")) > 3 or int(val) > scalars.MAX_POWER:
                raise ParseError(
                    f"exponent {val} exceeds the limit {scalars.MAX_POWER} in {text!r}")
            v = v ** int(val)
        return v

    def factor():
        if toks.peek() == "-":
            toks.take()
            return -nested(factor)
        if toks.peek() == "+":
            toks.take()
            return nested(factor)
        return power()

    def term():
        v = factor()
        while toks.peek() in ("*", "/"):
            op, _ = toks.take()
            w = factor()
            try:
                v = v * w if op == "*" else v / w
            except ZeroDivisionError as exc:
                raise ParseError(f"division by zero in {text!r}") from exc
        return v

    def expr():
        v = term()
        while toks.peek() in ("+", "-"):
            op, _ = toks.take()
            w = term()
            v = v + w if op == "+" else v - w
        return v

    value = expr()
    if toks.peek() is not None:
        raise ParseError(f"trailing input in {text!r}")
    return value


def parse_outcome(parse, text, alphabet):
    """What a parse gives, in a comparable form: the exception's class and
    message, a Fraction, or the alphabet, contents and term maps of the
    numerator and denominator."""
    try:
        value = parse(text, alphabet)
    except (ParseError, ValidationError, ValueError) as exc:
        return type(exc), str(exc)
    if isinstance(value, Fraction):
        return Fraction, value
    assert type(value) is RationalFunction
    return (RationalFunction, value.alphabet,
            value.num.content, value.num.terms, value.den.content, value.den.terms)


def catalogue_strings(sc):
    """Every scalar string of a builtin scenario's goldens and relations,
    with the alphabet each is parsed over."""
    exp = sc.expected
    texts = [exp.tau0, exp.metric_det, exp.vol_scale, exp.tau0_reference_value]
    for table in (exp.tau1, exp.tau2, exp.tau3, exp.phi_display,
                  exp.solution_relations, exp.tau0_reference_point,
                  exp.coclosed_slice or {}):
        texts.extend(table.values())
    # the rendered structure family, as a scenario document carries it
    texts.extend(scalars.render_scalar(c) for c in sc.phi_family.terms.values())
    out = [(text, sc.alphabet) for text in texts]
    if exp.coclosed_slice:  # the slice relations, over the leftover alphabet
        rest = tuple(p for p in sc.alphabet if p not in exp.coclosed_slice)
        out.extend((catalog.substitute_parameters(rel, exp.coclosed_slice), rest)
                   for rel in exp.solution_relations.values())
    return out


@pytest.mark.parametrize("name", ["Ml", "Ms"])
def test_typed_parse_matches_rational_function_parse_on_the_catalogue(name):
    strings = catalogue_strings(catalog.scenario(name))
    assert len(strings) > 10
    for text, alphabet in strings:
        want = parse_outcome(parse_all_rational_functions, text, alphabet)
        assert parse_outcome(scalars.parse_scalar, text, alphabet) == want, text


def random_expression(rng, names, depth=0):
    """Random expression text over `names`: literals (zero included),
    unknown names, unary signs, + - * /, powers and parentheses."""
    roll = rng.random()
    if depth >= 4 or roll < 0.3:
        if names and rng.random() < 0.5:
            return rng.choice(names) if rng.random() < 0.95 else "z"
        return str(rng.choice((0, 0, 1, 2, 3, 5, 12, 100)))
    if roll < 0.4:
        return rng.choice("-+") + random_expression(rng, names, depth + 1)
    if roll < 0.55:
        inner = random_expression(rng, names, depth + 1)
        return f"({inner})^{rng.randint(0, 4)}"
    if roll < 0.65:
        return "(" + random_expression(rng, names, depth + 1) + ")"
    op = rng.choice("+-*//")
    return (random_expression(rng, names, depth + 1) + f" {op} "
            + random_expression(rng, names, depth + 1))


def test_typed_parse_matches_rational_function_parse_on_random_expressions():
    rng = random.Random(7321)
    alphabets = [(), ("q",), ("a", "p", "q")]
    seen = set()
    for idx in range(360):
        alphabet = alphabets[idx % 3]
        text = random_expression(rng, alphabet)
        if idx % 10 == 0:  # constants only, over any alphabet
            text = random_expression(rng, ())
        if idx % 17 == 0:  # a division by a zero sub-expression
            zero = f"({alphabet[0]} - {alphabet[0]})" if alphabet else "(2 - 2)"
            text = f"{text} / {zero}"
        want = parse_outcome(parse_all_rational_functions, text, alphabet)
        assert parse_outcome(scalars.parse_scalar, text, alphabet) == want, text
        seen.add(want[0] if isinstance(want[0], type) and issubclass(
            want[0], Exception) else (want[0], bool(alphabet)))
        if want[0] is ParseError and "division by zero" in want[1]:
            seen.add("division by zero")
    # the sample reaches rationals, rational functions, unknown names and
    # divisions by zero
    assert {(Fraction, False), (RationalFunction, True), ParseError,
            "division by zero"} <= seen


def test_parse_leaves_no_reference_cycles():
    """Reference counting frees every parse, failing ones included: a
    cycle per parse would leave its tokens and literals to the cyclic
    collector, whose full passes then stall some later, unrelated call."""
    gc.collect()
    gc.disable()
    try:
        for text in ("3/4", "-(a - 2*p)^2/(q + 1) + 7", "((a*p - q)/(a + 1))^3"):
            scalars.parse_scalar(text, A)
            scalars.parse_scalar("(2 + 3)*5^2", ())
        for text in ("(a + 1", "1/(a - a)", "z + 1"):
            try:
                scalars.parse_scalar(text, A)
            except ParseError:
                pass
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_constant_powers_are_bounded():
    assert scalars.parse_rational("(2^64)^64") == 2 ** 4096
    for text in ("((2^64)^64)^64", "((2^64)^64)^64 - 1", "1/((3^64)^64)^64"):
        with pytest.raises(ParseError, match="power exceeds the limit of 65536 bits"):
            scalars.parse_rational(text)
    with pytest.raises(ParseError, match="power exceeds"):
        scalars.parse_scalar("a * ((2^64)^64)^64", A)


def counted_products(monkeypatch):
    """Patch `kernels.poly_mul` to record len(a) * len(b) of each product
    it makes; returns the list of records."""
    products = []
    real = kernels.poly_mul

    def count(a, b):
        products.append(len(a) * len(b))
        return real(a, b)

    monkeypatch.setattr(kernels, "poly_mul", count)
    return products


def test_polynomial_products_are_bounded_before_expansion(monkeypatch):
    letters = tuple("abcdefgh")
    factor = "(1+a+b+c+d+e+f+g+h)"
    products = counted_products(monkeypatch)
    # eight factors have 12,870 terms; the ninth would pass 16,384
    assert len(scalars.parse_scalar("*".join([factor] * 8), letters).num.terms) == 12870
    eight = (len(products), sum(products))
    assert eight == (7, 102951)
    products.clear()
    start = time.process_time()
    with pytest.raises(ParseError, match="product exceeds the limit of 16384 terms"):
        scalars.parse_scalar("*".join([factor] * 12), letters)
    elapsed = time.process_time() - start
    # the work of the eight-factor product: the ninth is never expanded
    assert (len(products), sum(products)) == eight
    assert elapsed < 0.1
    apq = ("a", "p", "q")
    # a product is bounded as the equal power is
    assert len(scalars.parse_scalar("*".join(["(1+a+p+q)^8"] * 4), apq).num.terms) == 6545
    assert len(scalars.parse_scalar("(1+a)^64*(1+a)^64*(1+a)^64", apq).num.terms) == 193
    # a monomial factor only shifts the other one
    assert len(scalars.parse_scalar("a*((1+a+p+q)^8)^4", apq).num.terms) == 6545
    # (X+a)^16, X of 1,000 digits: 17 terms of up to 53,150 bits; two
    # factors parse to 33 terms of 3.5M bits, a third passes the bits
    big = "(" + "7" * 1000 + "+a)^16"
    assert len(scalars.parse_scalar(big + "*" + big, apq).num.terms) == 33
    for text in ("*".join(["(1+a+b+c)^16"] * 4),
                 "1/(" + "*".join([factor] * 12) + ")",
                 "*".join([factor] * 6) + "/(2+a)*" + "*".join([factor] * 6),
                 "/".join(["1", *[factor] * 12]),
                 "+".join(f"1/({k}+a+b+c+d+e+f+g+h)" for k in range(1, 13)),
                 # 3,003 terms of up to 24,000 bits: past the bits
                 "*".join(["(" + "7" * 1200 + "+a+b+c+d+e+f+g+h)^3"] * 2),
                 "*".join([big] * 8)):
        start = time.process_time()
        with pytest.raises(ParseError, match="product exceeds the limit"):
            scalars.parse_scalar(text, letters)
        assert time.process_time() - start < 1.0, text


def test_dense_product_past_the_guard_bit_raises():
    # a^0..a^255 squares to 511 terms; with a^16384 added, a^16384 * a^16384
    # sets the guard bit of the first field
    alphabet = ("a", "q")
    exps = {(i, 0): 1 for i in range(256)}
    x = Polynomial.from_terms(alphabet, exps)
    assert len((x * x).terms) == 511
    y = Polynomial.from_terms(alphabet, {**exps, (1 << 14, 0): 1})
    with pytest.raises(ValidationError, match="exceeds the limit"):
        y * y


def test_polynomial_powers_are_bounded_before_expansion(monkeypatch):
    apq = ("a", "p", "q")
    assert len(scalars.parse_scalar("((1+a+p+q)^8)^4", apq).num.terms) == 6545
    assert len(scalars.parse_scalar("((1+a+p)^20)^3", apq).num.terms) == 1891
    assert len(scalars.parse_scalar("a^64*p^64", apq).num.terms) == 1
    assert scalars.parse_scalar("(p - p)^0", apq) == 1
    # a quotient bounds its numerator and its denominator
    assert len(scalars.parse_scalar("((1+a)/(2+q))^32", apq).den.terms) == 33
    products = counted_products(monkeypatch)
    # the work up to the rejection, (poly_mul calls, term products): the
    # power past the limit is never expanded
    for text, work in (("((1+a+p+q)^16)^4", (4, 28566)),
                       ("1/((1+a+p+q)^16)^4", (4, 28566)),
                       ("((1+a+p+q)^16/(1+a))^4", (4, 28566)),
                       ("((1+a)/(2+(1+a+p+q)^4))^16", (2, 116)),
                       ("((1+a)^64)^64", (6, 1497))):
        products.clear()
        start = time.process_time()
        with pytest.raises(ParseError, match="power exceeds the limit of 16384 terms"):
            scalars.parse_scalar(text, apq)
        assert time.process_time() - start < 1.0
        assert (len(products), sum(products)) == work, text


# -- lowest terms ------------------------------------------------------------


def terms_of(x):
    """Numerator plus denominator terms of a scalar."""
    if isinstance(x, RationalFunction):
        return len(x.num.terms) + len(x.den.terms)
    return len(x.terms) if isinstance(x, Polynomial) else 1


def test_lowest_terms_keeps_the_value_of_seeded_common_factors(rng):
    """(G*A)/(G*B) over (a, p, q) comes back as the same value in no more
    terms, and on all 200 seeded triples in at most the terms of A/B: the
    heuristic misses none of them."""
    def nonconstant():
        while True:
            p = random_polynomial(rng, max_terms=4, max_exp=2)
            if not p.is_constant():
                return p

    reduced = shrunk = 0
    for _ in range(200):
        g, a, b = nonconstant(), nonconstant(), nonconstant()
        x = RationalFunction.make(g * a, g * b)
        y = scalars.lowest_terms(x)
        assert y == x
        assert terms_of(y) <= terms_of(x)
        reduced += terms_of(y) <= terms_of(RationalFunction.make(a, b))
        shrunk += terms_of(y) < terms_of(x)
    assert reduced == 200
    assert shrunk > 150  # a monomial G cancels in make() already


def test_lowest_terms_returns_its_argument_when_nothing_divides():
    apq = ("a", "p", "q")
    a_plus_p = Polynomial.variable(apq, "a") + Polynomial.variable(apq, "p")
    over_three = RationalFunction.make(a_plus_p, Polynomial.constant(apq, 3))
    assert over_three.den == 1
    for x in (Fraction(-3, 7), a_plus_p, over_three,
              scalars.parse_scalar("(a + p)/(q + 1)", apq),
              # the images of both share 2^(8W) - 1, which divides neither
              scalars.parse_scalar("(q - p)/(p*q - 1)", apq)):
        assert scalars.lowest_terms(x) is x
    x = scalars.parse_scalar("(a^2 - 1)/(a*q - q)", apq)
    y = scalars.lowest_terms(x)
    assert (str(y), y == x) == ("(a + 1)/q", True)


def test_lowest_terms_past_the_size_bound_takes_no_gcd(monkeypatch):
    """Work counted, not timed: a quotient whose packed image would exceed
    kernels.GCD_MAX_BOX bytes comes back without a single heuristic step;
    the same shape inside the box is reduced."""
    steps = []
    gcd_at = kernels._gcd_at
    monkeypatch.setattr(kernels, "_gcd_at",
                        lambda *args: steps.append(1) or gcd_at(*args))
    apq = ("a", "p", "q")

    def quotient(n):
        return scalars.parse_scalar(
            f"((a^{n} + 1)*(p^{n} + q))/((a^{n} + 1)*(q^{n} + 2))", apq)

    small = quotient(4)
    assert str(scalars.lowest_terms(small)) == "(p^4 + q)/(q^4 + 2)"
    assert steps == [1]
    big = quotient(40)  # 41^3 cells of one byte
    assert 41 ** 3 > kernels.GCD_MAX_BOX
    assert scalars.lowest_terms(big) is big
    assert steps == [1]


def test_equal_representatives_compare_without_a_product(monkeypatch):
    alphabet = ("a", "q")
    x, y = (scalars.parse_scalar("(a+1)/(a-q)", alphabet) for _ in range(2))
    z = scalars.parse_scalar("(a+1)*(a+2)/((a-q)*(a+2))", alphabet)
    assert (x.num, x.den) == (y.num, y.den) != (z.num, z.den)
    calls = []
    real = kernels.poly_mul
    monkeypatch.setattr(kernels, "poly_mul", lambda p, q: calls.append(1) or real(p, q))
    assert x == y
    assert calls == []
    assert x == z and z == x
    assert calls


# -- integer-first content arithmetic against the Fraction formulas ----------

# The reference computes every content step in Fractions, as the rules did
# before they went through integers; the terms come from the same kernels.


def reference_canon(scale, ints):
    if not ints or not scale:
        return Polynomial(A, Fraction(0), {})
    g, ints = scalars.canonical_terms(ints)
    return Polynomial(A, scale * g, ints)


def reference_add_scaled(x, c2, t2):
    c1 = x.content
    g = Fraction(gcd(c1.numerator, c2.numerator), lcm(c1.denominator, c2.denominator))
    return reference_canon(g, kernels.poly_axpy(int(c1 / g), x.terms, int(c2 / g), t2))


def reference_sum(x, y):
    """x + y for a Polynomial x and a Polynomial, int or Fraction y."""
    if isinstance(y, Polynomial):
        if not x.content:
            return y
        if not y.content:
            return x
        return reference_add_scaled(x, y.content, y.terms)
    if not y:
        return x
    if not x.content:
        return Polynomial(A, Fraction(y), {0: 1})
    return reference_add_scaled(x, y, {0: 1})


def reference_negation(y):
    if isinstance(y, Polynomial):
        return Polynomial(A, -y.content, y.terms) if y.content else y
    return -y


def reference_product(x, y):
    """x * y for a Polynomial x and a Polynomial, int or Fraction y."""
    if isinstance(y, Polynomial):
        if not x.content or not y.content:
            return Polynomial(A, Fraction(0), {})
        return Polynomial(A, x.content * y.content,
                          scalars.mul_terms(x.terms, y.terms, len(A)))
    if not y or not x.content:
        return Polynomial(A, Fraction(0), {})
    return Polynomial(A, x.content * y, x.terms)


def reference_value(x, point):
    vals = [Fraction(point[name]) for name in A]
    exps = [scalars._unpack(e, len(A)) for e in x.terms]
    degs = [max(col) for col in zip(*exps)]
    total = 0
    for exp, c in zip(exps, x.terms.values()):
        for v, k, d in zip(vals, exp, degs):
            c *= v.numerator**k * v.denominator ** (d - k)
        total += c
    return x.content * Fraction(total, prod(v.denominator**d for v, d in zip(vals, degs)))


def reference_specialize(x, point):
    d = reference_value(x.den, point)
    if not d:
        raise PoleAtPoint("pole")
    return reference_value(x.num, point) / d


def content_cases(rng):
    """Seeded polynomials with integral, non-integral, negative and zero
    contents, and the rational operands to combine them with."""
    polys = [Polynomial.constant(A, 0), Polynomial.constant(A, 5),
             Polynomial.constant(A, Fraction(-3, 2)), num("a + 1"),
             num("6*a - 4*q"), num("-2*a^2*q + 4/3*p")]
    for _ in range(40):
        x = random_polynomial(rng, max_terms=5)
        polys += [x, -x, x * x.content.denominator, x * -3 * x.content.denominator]
    rationals = [0, 1, -1, 6, -7, Fraction(2, 3), Fraction(-5, 4), Fraction(-4),
                 random_fraction(rng, nonzero=True)]
    return polys, rationals


def same_polynomial(got, want):
    return (type(got.content) is Fraction and parts(got) == parts(want)
            and str(got) == str(want))


def test_integer_first_content_rules_match_the_fraction_formulas(rng):
    polys, rationals = content_cases(rng)
    assert {x.content.denominator == 1 for x in polys} == {True, False}
    assert any(x.content < 0 for x in polys) and any(not x for x in polys)
    pairs = [(x, y) for x in polys for y in polys[::7]]
    pairs += [(x, k) for x in polys for k in rationals]
    for x, y in pairs:
        assert same_polynomial(x + y, reference_sum(x, y)), (x, y)
        assert same_polynomial(x - y, reference_sum(x, reference_negation(y))), (x, y)
        assert same_polynomial(x * y, reference_product(x, y)), (x, y)
    assert len(pairs) > 3000
    for _ in range(200):
        ints = {rng.randrange(1 << 20): rng.choice((-1, 1)) * rng.randint(1, 60)
                for _ in range(rng.randint(0, 5))}
        for num_, den in ((rng.choice((-1, 1)) * rng.randint(1, 20), rng.randint(1, 12)),
                          (7, 1), (-1, 1)):
            got = scalars._canon(A, num_, den, dict(ints))
            assert same_polynomial(got, reference_canon(Fraction(num_, den), dict(ints)))


def test_integer_first_values_match_the_fraction_formulas(rng):
    polys, _ = content_cases(rng)
    points = [sample_point(rng) for _ in range(6)]
    points += [{"a": 1, "p": -2, "q": 0}, {"a": Fraction(0), "p": Fraction(3, 7),
                                           "q": Fraction(-1, 2)}]
    for x in polys:
        for point in points:
            got = x.evaluate(point)
            assert type(got) is Fraction and got == reference_value(x, point)
    quotients = [RationalFunction.make(x, y) for x, y in zip(polys, polys[7:]) if y]
    quotients.append(poly("(a - p)^2/(a - p)"))
    poles = 0
    for x in quotients:
        for point in points + [{"a": 2, "p": 2, "q": 5}]:
            try:
                want = reference_specialize(x, point)
            except PoleAtPoint:
                poles += 1
                with pytest.raises(PoleAtPoint):
                    x.specialize(point)
                continue
            got = x.specialize(point)
            assert type(got) is Fraction and got == want and str(got) == str(want)
    assert len(quotients) > 100 and poles


def reference_star(metric, lam, c):
    """The Hodge star with every coefficient divided by the scale c."""
    buckets = {}
    for key, coeff in lam.terms.items():
        for out, v in metric._star_column(key).items():
            buckets.setdefault(out, []).append(coeff * v)
    out = fold({key: buckets[key] for key in sorted(buckets)})
    return Form.raw(7, 7 - lam.degree, {k: v / Fraction(c) for k, v in out.items()})


@pytest.mark.parametrize("name", ["Ml", "Ms"])
def test_unit_scale_star_matches_the_division_route(name):
    sc = catalog.scenario(name)
    phi = sc.phi_family
    point = {n: Fraction(k + 2, 3) for k, n in enumerate(sc.alphabet)}
    forms = {"quotient": phi, "polynomial": phi.map_coefficients(lambda c: c.num),
             "fraction": phi.map_coefficients(lambda c: scalars.specialize(c, point))}
    kinds = {"quotient": RationalFunction, "polynomial": Polynomial,
             "fraction": Fraction}
    for kind, lam in forms.items():
        assert {type(c) for c in lam.terms.values()} == {kinds[kind]}
        for form in (lam, g2.hodge_star(sc.metric, lam)):
            for c in (1, Fraction(1), 2):
                got, want = g2.hodge_star(sc.metric, form, c), reference_star(
                    sc.metric, form, c)
                assert str(got) == str(want), (kind, c)
                assert [(k, type(v)) for k, v in got.terms.items()] == [
                    (k, type(v)) for k, v in want.terms.items()]
