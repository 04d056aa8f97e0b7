"""Exact scalar arithmetic over a fixed parameter alphabet.

Three scalar kinds appear throughout the package:

* rationals, represented by `fractions.Fraction` (arbitrary precision,
  canonical lowest terms, positive denominator, str() renders "n/d" and
  omits "/1");
* `Polynomial`, a sparse multivariate polynomial over a fixed, ordered
  alphabet of parameter names, stored as one rational content factor
  times a primitive integer term map keyed by packed exponent vectors;
* `RationalFunction`, an unreduced numerator/denominator pair of
  polynomials.

Arithmetic never brings a rational function to lowest terms, so every
rendered value is the representative the arithmetic produced.  Equality
is decided by cross-multiplication, which is exact because polynomials
are canonical.  The only normalizations arithmetic applies are value
preserving and cheap: rational content extraction, cancellation of a
common monomial factor, and folding the denominator's content into the
numerator so denominators are primitive with positive leading
coefficient.  A multivariate gcd is computed in one place only:
`lowest_terms` divides out a heuristic gcd, verified by exact division,
from a copy that checks read and reports never render.

A polynomial's content is always a `Fraction`, but the arithmetic on
contents runs on their integer numerators and denominators, and each
result builds one `Fraction`, its content or value: a sum scales both
term maps by integers (`Polynomial._add_scaled`), a product of two
integral contents is built from the product of the ints (`_product`),
and a value at a point is one integer quotient (`Polynomial._value`).
Python's `Fraction` operators normalise every intermediate step, which
is where most of the time goes when the contents are integers.

An int or Fraction operand of a Polynomial or RationalFunction operator
is never boxed as a constant scalar: a product or quotient scales the
content of the (numerator) polynomial, and a sum inserts the constant
term into the term map.  Each result has exactly the content, term map
and denominator that the constant scalar would have given.

`parse_scalar` builds each literal, each parenthesised group and each
whole text once per memo, keyed by its tokens (hash-consing: Filliatre
and Conchon, "Type-safe modular hash-consing", ML Workshop 2006).  A
memo serves one text, or one batch of texts over one alphabet that its
caller parses together (the golden strings of a scenario, one catalogue
table, the coefficients of one restricted form), and is dropped with
it, so no parsed value outlives its request.  A group is reused only
where parsing it again would stay within MAX_NESTING, so the limits and
the error messages are those of a fresh parse.

Monomials are ordered lexicographically by exponent vector in the
declared alphabet order.  Scalars from different alphabets never mix;
combining them raises AlphabetMismatch.

A term-map key is the whole exponent vector packed into one int, one
field of `kernels.FIELD` bits per variable with the first alphabet
variable in the highest field (Monagan and Pearce, "Polynomial division
using dynamic arrays, heaps, and packed exponent vectors", CASC 2007).
Integer order is then lexicographic order and a monomial product is one
integer addition.  The top bit of each field is a guard that is clear in
every stored key, so a sum of two valid keys never carries into a
neighbouring field; a product that sets a guard bit raises
ValidationError instead of wrapping.  The field width is defined once,
in `kernels`, because the Kronecker codec of `kernels.poly_gcd` reads
key fields, only through `kernels._columns`, and builds keys, only
through `kernels._cell_keys`.  Apart from that, only this module packs or
unpacks keys, and the public methods take and return exponent tuples.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, lru_cache, reduce
from math import comb, gcd, lcm, prod
from operator import or_
from typing import Iterable, Mapping, Union

from . import kernels
from .errors import AlphabetMismatch, ParseError, PoleAtPoint, ValidationError

_F0 = Fraction(0)
_F1 = Fraction(1)

Scalar = Union[Fraction, "Polynomial", "RationalFunction"]


_FIELD = kernels.FIELD
_LIMIT = 1 << (_FIELD - 1)  # exponents stay below the guard bit
_LOW = _LIMIT - 1
_ONE = {0: 1}  # term map of every nonzero constant


@cache
def _guard(width: int) -> int:
    """Mask of the guard bit of each of `width` fields."""
    return sum(_LIMIT << (_FIELD * i) for i in range(width))


def _pack(exp: tuple, width: int) -> int:
    """Key of an exponent vector of length `width`."""
    if len(exp) != width or any(x < 0 for x in exp):
        raise ValueError(f"bad exponent vector {exp}")
    key = 0
    for x in exp:
        if x >= _LIMIT:
            raise ValidationError(f"exponent {x} exceeds the limit {_LOW}")
        key = (key << _FIELD) | x
    return key


def _unpack(key: int, width: int) -> tuple:
    """Exponent vector of a key."""
    out = [0] * width
    for i in range(width - 1, -1, -1):
        out[i] = key & _LOW
        key >>= _FIELD
    return tuple(out)


def _check_fields(keys, width: int) -> None:
    """ValidationError when a key produced by addition overflowed a field."""
    if reduce(or_, keys, 0) & _guard(width):
        raise ValidationError(f"a product exponent exceeds the limit {_LOW}")


def mul_terms(a: dict, b: dict, width: int) -> dict:
    """Term map of the product of two primitive term maps in `width`
    variables.  Every product of packed keys is formed here: a constant
    map {0: 1} only hands back the other operand, any other pair goes
    through `kernels.poly_mul` and the guard-bit check."""
    if a == _ONE:
        return b
    if b == _ONE:
        return a
    t = kernels.poly_mul(a, b)
    _check_fields(t, width)
    return t


def canonical_terms(ints: dict) -> tuple:
    """(g, ints / g) for a nonempty integer term map, g the gcd of its
    coefficients signed like its lexicographically leading one, so the
    returned map is primitive with positive leading coefficient."""
    g = kernels.term_gcd(ints)
    if ints[max(ints)] < 0:
        g = -g
    if g != 1:
        ints = {e: c // g for e, c in ints.items()}
    return g, ints


def _min_key(keys, width: int) -> int:
    """Key of the componentwise minimum of nonempty `keys`.

    Fieldwise min without unpacking: with the guard bits of `lo` set, the
    subtraction leaves a field's guard bit set exactly where that field
    of `lo` is at least the one of `e`; the guard is then widened into a
    mask selecting those fields from `e`.
    """
    if 0 in keys:
        return 0
    g = _guard(width)
    it = iter(keys)
    lo = next(it)
    for e in it:
        sel = ((lo | g) - e) & g
        lo ^= (lo ^ e) & (sel - (sel >> (_FIELD - 1)))
        if not lo:
            break
    return lo


def _check_alphabet(alphabet) -> tuple:
    """The alphabet as a tuple of distinct identifiers, each of which
    `parse_scalar` reads back as one name; ValueError otherwise."""
    alphabet = tuple(alphabet)
    for name in alphabet:
        if not (isinstance(name, str) and _is_name(name)):
            raise ValueError(f"bad parameter name {name!r}")
    if len(set(alphabet)) != len(alphabet):
        raise ValueError("repeated parameter name")
    return alphabet


@lru_cache(maxsize=256)  # every scalar operation checks its alphabet
def _is_name(name: str) -> bool:
    # str.isidentifier also takes names the tokenizer stops inside, such
    # as one with a combining accent or a letter-like symbol
    try:
        return name.isidentifier() and _Tokens(name).items == [("name", name)]
    except ParseError:
        return False


class Polynomial:
    """Sparse polynomial with exact rational coefficients.

    The coefficient of an exponent vector e is ``content * terms[key]``,
    `key` being e packed into one int (see the module docstring), where
    `terms` is primitive (integer gcd 1) and its lexicographically
    leading coefficient is positive; the sign and scale live in
    `content`.  The zero polynomial has content 0 and no terms.
    Instances are immutable.

    `content` is a `Fraction`.  Arithmetic computes it through integers
    and builds one `Fraction` per result, never one per step (see the
    module docstring).

    Unlike `exterior.Tensor.terms`, `terms` stays a plain dict, which
    nothing may write into once it is wrapped: the polynomial kernels
    pay for a read-only view.  A warm slice-document request builds
    about 5,500 polynomials and calls `mul_terms` about 106,000 times,
    each comparing maps against {0: 1}.  With `terms` wrapped in
    `types.MappingProxyType`, the benchmark's symbolic-solves workload
    took 33.4-34.8 ms CPU per request against 31.5-33.2 ms with dicts,
    worse in each of four alternating 10 s pairs (2-vCPU x86 host,
    CPython 3.11).
    """

    __slots__ = ("alphabet", "content", "terms", "_hash")

    def __init__(self, alphabet: tuple, content: Fraction, terms: dict):
        # private raw constructor, inputs must already be canonical
        self.alphabet = alphabet
        self.content = content
        self.terms = terms
        self._hash = None

    # -- construction -------------------------------------------------

    @classmethod
    def constant(cls, alphabet: Iterable[str], value) -> "Polynomial":
        alphabet = _check_alphabet(alphabet)
        value = Fraction(value)
        if not value:
            return cls(alphabet, _F0, {})
        return cls(alphabet, value, {0: 1})

    @classmethod
    def variable(cls, alphabet: Iterable[str], name: str) -> "Polynomial":
        alphabet = _check_alphabet(alphabet)
        if name not in alphabet:
            raise ValueError(f"{name!r} is not in the alphabet {alphabet}")
        return _variable(alphabet, name)

    @classmethod
    def from_terms(cls, alphabet: Iterable[str], mapping: Mapping) -> "Polynomial":
        """Build from an exponent-vector -> rational coefficient map."""
        alphabet = _check_alphabet(alphabet)
        width = len(alphabet)
        acc: dict = {}
        for exp, coeff in mapping.items():
            key = _pack(tuple(int(x) for x in exp), width)
            coeff = Fraction(coeff)
            if not coeff:
                continue
            prev = acc.get(key, _F0) + coeff
            if prev:
                acc[key] = prev
            else:
                acc.pop(key, None)
        if not acc:
            return cls(alphabet, _F0, {})
        den = 1
        for c in acc.values():
            den = lcm(den, c.denominator)
        ints = {e: c.numerator * (den // c.denominator) for e, c in acc.items()}
        return _canon(alphabet, 1, den, ints)

    # -- predicates and accessors -------------------------------------

    def is_zero(self) -> bool:
        return not self.content

    def __bool__(self) -> bool:
        return bool(self.content)

    def is_constant(self) -> bool:
        t = self.terms
        return not t or (len(t) == 1 and 0 in t)

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial."""
        if not self.content:
            return _F0
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return self.content * self.terms[0]

    def coefficient(self, exp: tuple) -> Fraction:
        c = self.terms.get(_pack(tuple(exp), len(self.alphabet)))
        return self.content * c if c is not None else _F0

    def leading_exponent(self) -> tuple:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return _unpack(max(self.terms), len(self.alphabet))

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other):
        """`other` if it is a Polynomial over the same alphabet, else None;
        each operator tests for a rational operand only after this (see
        `as_scalar`)."""
        if isinstance(other, Polynomial):
            if other.alphabet != self.alphabet:
                raise AlphabetMismatch(
                    f"alphabets differ: {self.alphabet} vs {other.alphabet}"
                )
            return other
        return None

    def _add_scaled(self, c2, t2) -> "Polynomial":
        """self + c2*t2 for a nonzero self, a nonzero rational c2 and a
        primitive term map t2.  Both contents are multiples of
        g = gcd(n1, n2)/lcm(d1, d2), by the integers (n1/gcd)(lcm/d1) and
        (n2/gcd)(lcm/d2), so the sum is g times an integer map."""
        c1 = self.content
        n1, d1, n2, d2 = c1.numerator, c1.denominator, c2.numerator, c2.denominator
        gn, gd = gcd(n1, n2), lcm(d1, d2)
        t = kernels.poly_axpy((n1 // gn) * (gd // d1), self.terms,
                              (n2 // gn) * (gd // d2), t2)
        return _canon(self.alphabet, gn, gd, t)

    def _add_rational(self, k) -> "Polynomial":
        """self + k for an int or Fraction k: k enters as the term map of
        the constant 1, scaled, and no constant polynomial is built."""
        if not k:
            return self
        if not self.content:
            return Polynomial(self.alphabet, Fraction(k), {0: 1})
        return self._add_scaled(k, _ONE)

    def __add__(self, other):
        p = self._coerce(other)
        if p is None:
            if isinstance(other, (int, Fraction)):
                return self._add_rational(other)
            return NotImplemented
        if not self.content:
            return p
        if not p.content:
            return self
        return self._add_scaled(p.content, p.terms)

    __radd__ = __add__

    def __neg__(self):
        if not self.content:
            return self
        return Polynomial(self.alphabet, -self.content, self.terms)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        p = self._coerce(other)
        if p is None:
            if isinstance(other, (int, Fraction)):
                if not other or not self.content:
                    return Polynomial(self.alphabet, _F0, {})
                return Polynomial(self.alphabet, _product(self.content, other),
                                  self.terms)
            return NotImplemented
        other = p
        if not self.content or not other.content:
            return Polynomial(self.alphabet, _F0, {})
        # Gauss: a product of primitive maps is primitive, and the lex
        # leading coefficient stays positive, so no renormalization.
        t = mul_terms(self.terms, other.terms, len(self.alphabet))
        return Polynomial(self.alphabet, _product(self.content, other.content), t)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers take nonnegative integers")
        out = _one(self.alphabet)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __truediv__(self, other):
        if isinstance(other, Polynomial):
            return RationalFunction.make(self, other)
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            if not other:
                raise ZeroDivisionError("division by zero scalar")
            return Polynomial(self.alphabet, self.content / other, self.terms)
        return NotImplemented

    def __rtruediv__(self, other):
        """The quotient other / self of a rational `other`, normalized as
        `RationalFunction.make` would normalize it."""
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if not self.content:
            raise ZeroDivisionError("division by zero scalar")
        a = self.alphabet
        if not other:
            return RationalFunction(a, Polynomial(a, _F0, {}), _one(a))
        # the monomial factor of self stays: the numerator's key is 0
        den = self if self.content == 1 else Polynomial(a, _F1, self.terms)
        return RationalFunction(a, Polynomial(a, other / self.content, {0: 1}), den)

    def evaluate(self, point: Mapping[str, Fraction]) -> Fraction:
        """Exact value at a rational point covering the whole alphabet."""
        num, den = self._value(point)
        return Fraction(num, den)

    def _value(self, point: Mapping[str, Fraction]) -> tuple:
        """(num, den), two ints with den > 0, whose quotient is the value
        at `point`, summed over integers."""
        vals = []
        for name in self.alphabet:
            if name not in point:
                raise ValueError(f"no value for parameter {name!r}")
            v = point[name]
            vals.append(v if type(v) is Fraction else Fraction(v))
        # over the denominator prod d_i^D_i (D_i: degree in i) terms are ints
        width = len(vals)
        exps = [_unpack(e, width) for e in self.terms]
        degs = [max(col) for col in zip(*exps)]
        total = 0
        for exp, c in zip(exps, self.terms.values()):
            for v, k, d in zip(vals, exp, degs):
                if k:
                    c *= v.numerator**k
                if k != d:
                    c *= v.denominator ** (d - k)
            total += c
        den = prod(v.denominator**d for v, d in zip(vals, degs))
        return self.content.numerator * total, self.content.denominator * den

    def _divide_monomial(self, s: int) -> "Polynomial":
        """Divide every term by the monomial with key `s`."""
        if not s:
            return self
        g = _guard(len(self.alphabet))
        terms = {}
        for e, c in self.terms.items():
            # a field of e below the one of s borrows into its guard bit
            e2 = e - s
            if e2 < 0 or e2 & g:
                raise ValueError("monomial does not divide every term")
            terms[e2] = c
        return Polynomial(self.alphabet, self.content, terms)

    # -- comparison and rendering --------------------------------------

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return (
                self.alphabet == other.alphabet
                and self.content == other.content
                and self.terms == other.terms
            )
        if isinstance(other, RationalFunction):
            return other == self
        if isinstance(other, (int, Fraction)):
            if not other:
                return not self.content
            return self.content == other and self.terms == _ONE
        return NotImplemented

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.alphabet, self.content, frozenset(self.terms.items())))
            self._hash = h
        return h

    def __str__(self) -> str:
        if not self.content:
            return "0"
        parts = []
        width = len(self.alphabet)
        fields = [(name, _FIELD * (width - 1 - i))
                  for i, name in enumerate(self.alphabet)]
        # the coefficient n*t/d of a term t is in lowest terms once n*t and
        # d are divided by gcd(t, d), content n/d being in lowest terms
        n, d = self.content.numerator, self.content.denominator
        terms = self.terms
        for e in sorted(terms, reverse=True):
            t = terms[e]
            num = n * t
            sign = "+ "
            if num < 0:
                sign, num = "- ", -num
            g = gcd(t, d)
            coeff = str(num // g) if g == d else f"{num // g}/{d // g}"
            factors = []
            for name, shift in fields:
                k = (e >> shift) & _LOW
                if k:
                    factors.append(name if k == 1 else f"{name}^{k}")
            mono = "*".join(factors)
            if not mono:
                body = coeff
            elif num == d:
                body = mono
            else:
                body = f"{coeff}*{mono}"
            parts.append(sign + body)
        text = " ".join(parts)
        if text.startswith("+ "):
            text = text[2:]
        elif text.startswith("- "):
            text = "-" + text[2:]
        return text

    def __repr__(self) -> str:
        return f"Polynomial({self})"


def _variable(alphabet: tuple, name: str) -> Polynomial:
    """The polynomial `name` over a checked alphabet holding it."""
    shift = _FIELD * (len(alphabet) - 1 - alphabet.index(name))
    return Polynomial(alphabet, _F1, {1 << shift: 1})


def _one(alphabet: tuple) -> Polynomial:
    """The constant polynomial 1, the denominator of a quotient over 1."""
    return Polynomial(alphabet, _F1, {0: 1})


def _canon(alphabet: tuple, num: int, den: int, ints: dict) -> Polynomial:
    """Canonical polynomial (num/den) * ints from two nonzero ints,
    den > 0, and an integer map; the content is the one Fraction built."""
    if not ints:
        return Polynomial(alphabet, _F0, {})
    g, ints = canonical_terms(ints)
    return Polynomial(alphabet, Fraction(num * g) if den == 1 else
                      Fraction(num * g, den), ints)


def _product(x, y) -> Fraction:
    """x * y for a Fraction x and an int or Fraction y; an integral
    product is built from its int, without a normalising gcd."""
    if x.denominator == 1 == y.denominator:
        return Fraction(x.numerator * y.numerator)
    return x * y


class RationalFunction:
    """Quotient of two polynomials, deliberately kept unreduced.

    The denominator is never the zero polynomial and is normalized to be
    primitive with positive leading coefficient (its content is folded
    into the numerator); a common monomial factor of numerator and
    denominator is cancelled.  Arithmetic takes no gcd, so structurally
    different representatives of the same value are normal; `==`
    compares values by cross-multiplication, after a check that needs no
    product for two equal representatives.  Only `lowest_terms` divides
    out a common factor, on copies that checks read.
    """

    __slots__ = ("alphabet", "num", "den")

    def __init__(self, alphabet: tuple, num: Polynomial, den: Polynomial):
        # private raw constructor, use make()
        self.alphabet = alphabet
        self.num = num
        self.den = den

    @classmethod
    def make(cls, num: Polynomial, den: Polynomial) -> "RationalFunction":
        if num.alphabet != den.alphabet:
            raise AlphabetMismatch(
                f"alphabets differ: {num.alphabet} vs {den.alphabet}"
            )
        if den.is_zero():
            raise ZeroDivisionError("division by zero scalar")
        alphabet = num.alphabet
        if num.is_zero():
            return cls(alphabet, num, _one(alphabet))
        width = len(alphabet)
        shift = _min_key(den.terms, width)
        if shift:
            shift = _min_key((_min_key(num.terms, width), shift), width)
        if shift:
            num = num._divide_monomial(shift)
            den = den._divide_monomial(shift)
        if den.content != 1:
            num = Polynomial(alphabet, num.content / den.content, num.terms)
            den = Polynomial(alphabet, _F1, den.terms)
        return cls(alphabet, num, den)

    @classmethod
    def constant(cls, alphabet: Iterable[str], value) -> "RationalFunction":
        num = Polynomial.constant(alphabet, value)  # over 1: make() would keep it
        return cls(num.alphabet, num, _one(num.alphabet))

    # -- predicates -----------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def constant_value(self) -> Fraction:
        return self.num.constant_value() / self.den.constant_value()

    # -- arithmetic -----------------------------------------------------

    def _lift(self, other):
        """`other` as a RationalFunction over the same alphabet if it is one
        or a Polynomial, else None; as in `Polynomial._coerce`, each
        operator tests for a rational operand only after this."""
        if isinstance(other, RationalFunction):
            if other.alphabet != self.alphabet:
                raise AlphabetMismatch(
                    f"alphabets differ: {self.alphabet} vs {other.alphabet}"
                )
            return other
        if isinstance(other, Polynomial):
            if other.alphabet != self.alphabet:
                raise AlphabetMismatch(
                    f"alphabets differ: {self.alphabet} vs {other.alphabet}"
                )
            return RationalFunction(self.alphabet, other, _one(self.alphabet))
        return None

    # A quotient that make() built, or one over 1, is normalized: its
    # denominator has content 1, and each parameter is missing from some
    # term of the numerator or of the denominator.  Scaling the numerator
    # keeps that, and so does adding k times the denominator to it (a
    # numerator term without a parameter that every denominator term has
    # cannot cancel), so a rational operand needs neither a constant
    # quotient nor make().

    def _add_rational(self, k) -> "RationalFunction":
        """self + k for an int or Fraction k."""
        if not k:
            return self
        num, den = self.num, self.den
        num = num + k if den.terms == _ONE else num + den * k
        if not num.content:
            return RationalFunction(self.alphabet, num, _one(self.alphabet))
        return RationalFunction(self.alphabet, num, den)

    def __add__(self, other):
        q = self._lift(other)
        if q is None:
            if isinstance(other, (int, Fraction)):
                return self._add_rational(other)
            return NotImplemented
        if self.den == q.den:
            return RationalFunction.make(self.num + q.num, self.den)
        return RationalFunction.make(
            self.num * q.den + q.num * self.den, self.den * q.den
        )

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(self.alphabet, -self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        q = self._lift(other)
        if q is None:
            if isinstance(other, (int, Fraction)):
                a = self.alphabet
                if not other:
                    return RationalFunction(a, Polynomial(a, _F0, {}), _one(a))
                return RationalFunction(a, self.num * other, self.den)
            return NotImplemented
        return RationalFunction.make(self.num * q.num, self.den * q.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        q = self._lift(other)
        if q is None:
            if isinstance(other, (int, Fraction)):
                if not other:
                    raise ZeroDivisionError("division by zero scalar")
                return RationalFunction(self.alphabet, self.num / other, self.den)
            return NotImplemented
        if q.num.is_zero():
            raise ZeroDivisionError("division by zero scalar")
        return RationalFunction.make(self.num * q.den, self.den * q.num)

    def __rtruediv__(self, other):
        q = self._lift(other)
        if q is None:
            if isinstance(other, (int, Fraction)):
                if not self.num.content:
                    raise ZeroDivisionError("division by zero scalar")
                return RationalFunction.make(self.den * other, self.num)
            return NotImplemented
        return q / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise ValueError("powers take integers")
        if n < 0:
            return RationalFunction.make(self.den, self.num) ** (-n)
        return RationalFunction.make(self.num**n, self.den**n)

    def specialize(self, point: Mapping[str, Fraction]) -> Fraction:
        """Exact value at a rational point; PoleAtPoint on a zero denominator."""
        dn, dd = self.den._value(point)
        if not dn:
            raise PoleAtPoint(f"denominator {self.den} vanishes at {dict(point)}")
        nn, nd = self.num._value(point)
        return Fraction(nn * dd, nd * dn)

    # -- comparison and rendering ----------------------------------------

    def __eq__(self, other):
        q = self._lift(other)
        if q is None:
            if isinstance(other, (int, Fraction)):
                return self.num == self.den * other
            return NotImplemented
        if self.num == q.num and self.den == q.den:
            return True
        return self.num * q.den == q.num * self.den

    __hash__ = None  # unreduced representatives must not be dict keys

    def __str__(self) -> str:
        if self.den == 1:
            return str(self.num)
        num = str(self.num)
        den = str(self.den)
        if len(self.num.terms) > 1 or self.num.content < 0:
            num = f"({num})"
        # a product denominator must stay grouped: x/a*p reparses as x*p/a
        if any(ch in den for ch in " */+-"):
            den = f"({den})"
        return f"{num}/{den}"

    def __repr__(self) -> str:
        return f"RationalFunction({self})"


# -- module-level helpers ------------------------------------------------


# The metaclass of Fraction is ABCMeta, so isinstance against Fraction is
# a Python-level call for any other type: the helpers below, and every
# operator above, test the polynomial kinds first.


def as_scalar(value) -> Scalar:
    """Coerce ints to Fractions; pass every other scalar through unchanged."""
    if isinstance(value, (RationalFunction, Polynomial, Fraction)):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"not a scalar: {value!r}")


def is_zero(x) -> bool:
    if isinstance(x, (RationalFunction, Polynomial)):
        return x.is_zero()
    if isinstance(x, (int, Fraction)):
        return not x
    raise TypeError(f"not a scalar: {x!r}")


def equals(x, y) -> bool:
    """Value equality across scalar kinds, by cross-multiplication."""
    if isinstance(y, (Polynomial, RationalFunction)):
        return y == x
    return x == y


def specialize(x, point: Mapping[str, Fraction]) -> Fraction:
    """Evaluate any scalar kind at a rational point."""
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, Fraction):
        return x
    if isinstance(x, Polynomial):
        return x.evaluate(point)
    if isinstance(x, RationalFunction):
        return x.specialize(point)
    raise TypeError(f"not a scalar: {x!r}")


def scalar_sum(values):
    """Sum a sequence of scalars, grouping quotients by equal denominator.

    Grouping keeps unreduced denominators from compounding when many
    addends share structurally identical denominators.
    """
    frac_part = _F0
    poly_part = None
    groups: dict = {}
    order = []
    for v in values:
        if isinstance(v, RationalFunction):
            if v.den in groups:
                groups[v.den] = groups[v.den] + v.num
            else:
                groups[v.den] = v.num
                order.append(v.den)
        elif isinstance(v, Polynomial):
            poly_part = v if poly_part is None else poly_part + v
        elif isinstance(v, (int, Fraction)):
            frac_part += v
        else:
            raise TypeError(f"not a scalar: {v!r}")
    total = None
    for den in order:
        rf = RationalFunction.make(groups[den], den)
        total = rf if total is None else total + rf
    if poly_part is not None:
        total = poly_part if total is None else total + poly_part
    if total is None:
        return frac_part
    return total if not frac_part else total + frac_part


def lowest_terms(x):
    """`x` with numerator and denominator divided by a verified common
    divisor (`kernels.poly_gcd`), the same value; `x` itself when it is
    a Fraction, a Polynomial or a quotient over a constant, or when the
    heuristic finds no divisor."""
    if not isinstance(x, RationalFunction) or x.den.terms == _ONE:
        return x
    found = kernels.poly_gcd(x.num.terms, x.den.terms)
    if found is None or found[0] == _ONE:
        return x
    _, num, den = found
    a = x.alphabet
    return RationalFunction.make(Polynomial(a, x.num.content, num),
                                 Polynomial(a, x.den.content, den))


# -- scalar expression parsing --------------------------------------------


# Largest exponent `parse_scalar` accepts after '^'; the catalogue needs 3.
MAX_POWER = 64
# Largest bit length of the numerator or denominator a power of a rational
# may reach in `parse_scalar`; nested powers of a constant otherwise grow
# doubly exponentially ("((2^64)^64)^64" already has 262,145 bits).
MAX_POWER_BITS = 1 << 16
# Most terms, and most bits over all coefficients, that a power of a
# polynomial may reach in `parse_scalar`, bounded before it is expanded
# (`_power_size`).  "((1+a+p+q)^8)^4" (6,545 terms) parses; the terms
# stop "((1+a+p+q)^16)^4" (47,905 terms) and the bits "((1+a)^64)^64"
# (4,097 terms of up to 4,090 bits), each seconds of CPU otherwise.  The
# same limits bound a product (`_check_product`): the product of twelve
# factors (1+a+b+c+d+e+f+g+h) stops at the ninth, where it would pass
# 16,384 terms, instead of expanding 125,970 terms in 0.7 s, and a product
# of factors (X+a)^16, X of 4,000 digits, stops at the second on the bits,
# each further factor costing seconds of CPU otherwise.
MAX_POWER_TERMS = 1 << 14
MAX_POWER_SIZE = 1 << 22
# Deepest nesting of parentheses and unary signs `parse_scalar` accepts; the
# catalogue's strings need 4.  The parser recurses once per level, so the
# limit also keeps it well inside the interpreter's recursion limit.
MAX_NESTING = 32


def _degree(p: Polynomial) -> int:
    width = len(p.alphabet)
    return max(sum(_unpack(k, width)) for k in p.terms)


def _monomials(degree: int, *polys: Polynomial) -> int:
    """The monomials of total degree at most `degree` in the parameters
    that occur in `polys`: a bound on the terms of a polynomial of that
    degree built from them."""
    width = len(polys[0].alphabet)
    used = reduce(or_, (k for p in polys for k in p.terms), 0)
    w = sum(1 for x in _unpack(used, width) if x)
    return comb(degree + w, w)


def _norm_bits(p: Polynomial) -> int:
    return sum(map(abs, p.terms.values())).bit_length()


def _coefficient_bits(p: Polynomial) -> int:
    return max(map(int.bit_length, p.terms.values()))


def _power_size(p: Polynomial, n: int) -> tuple:
    """Upper bounds on the terms of p**n and on the bits of all its
    coefficients, from p alone.

    The terms are at most the multisets of n terms of p and, computed only
    when that count is past MAX_POWER_TERMS, at most the monomials of
    total degree n * deg p in the parameters p contains.  Each
    coefficient of the integer map of p**n is below ||terms||_1^n.
    """
    terms = comb(len(p.terms) + n - 1, n)
    if terms > MAX_POWER_TERMS:
        terms = min(terms, _monomials(n * _degree(p), p))
    return terms, terms * n * _norm_bits(p)


def _check_product(a, b, text: str) -> None:
    """Raise ParseError when the product a*b of two Polynomials (None
    stands for a constant) would pass MAX_POWER_TERMS terms or MAX_POWER_SIZE
    coefficient bits, before it is expanded.

    A monomial factor (coefficient 1 in a primitive map) only shifts the
    keys of the other.  Otherwise the product has at most n = len(a) *
    len(b) terms, and for n up to MAX_POWER_TERMS each coefficient of its
    integer map sums at most sqrt(n) <= 2**7 products, so it has at most
    bits(a) + bits(b) + 7 bits, bits being those of the largest
    coefficient; catalogue-sized operands pass on that one comparison.
    Past it, the finer bounds decide: the terms are also at most the
    monomials of total degree deg a + deg b in their parameters, and each
    coefficient is at most ||a||_1 * ||b||_1."""
    if a is None or b is None or len(a.terms) < 2 or len(b.terms) < 2:
        return
    n = len(a.terms) * len(b.terms)
    if n <= MAX_POWER_TERMS and n * (
        _coefficient_bits(a) + _coefficient_bits(b) + 7
    ) <= MAX_POWER_SIZE:
        return
    n = min(n, _monomials(_degree(a) + _degree(b), a, b))
    if n > MAX_POWER_TERMS or n * (_norm_bits(a) + _norm_bits(b)) > MAX_POWER_SIZE:
        raise ParseError(
            f"product exceeds the limit of {MAX_POWER_TERMS} terms "
            f"or {MAX_POWER_SIZE} coefficient bits in {text!r}"
        )


def _parts(x) -> tuple:
    """(numerator, denominator) as Polynomials, None for a constant part,
    which only scales what it multiplies."""
    if isinstance(x, RationalFunction):
        return x.num, x.den
    return (None if isinstance(x, Fraction) else x), None


def _check_operation(v, op: str, w, text: str) -> None:
    """`_check_product` on every product of numerators and denominators
    that v op w expands; a Fraction only scales the other operand.

    Two Polynomials, the parser's common case, skip the split into parts:
    their quotient expands no product."""
    if type(v) is Polynomial and type(w) is Polynomial:
        if op == "*":
            _check_product(v, w, text)
        return
    vn, vd = _parts(v)
    wn, wd = _parts(w)
    if op == "*":
        _check_product(vn, wn, text)
        _check_product(vd, wd, text)
    elif op == "/":
        _check_product(vn, wd, text)
        _check_product(vd, wn, text)
    elif vd != wd:  # a sum over distinct denominators cross-multiplies
        _check_product(vn, wd, text)
        _check_product(wn, vd, text)
        _check_product(vd, wd, text)


# the digits of an integer literal; str.isdigit takes the digits of any script
_DIGITS = frozenset("0123456789")


class _Tokens:
    """The tokens of a text as (kind, value) pairs, their values alone
    (`vals`, the memo keys of `_Parser`) and, for each '(' that has one,
    the position of its matching ')' (`close`)."""

    def __init__(self, text: str):
        self.text = text
        self.items = []
        self.close = {}
        opened = []
        i = 0
        n = len(text)
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch in _DIGITS:
                j = i
                while j < n and text[j] in _DIGITS:
                    j += 1
                self.items.append(("int", text[i:j]))
                i = j
                continue
            if ch.isalpha() or ch == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.items.append(("name", text[i:j]))
                i = j
                continue
            if ch in "+-*/^()":
                if ch == "(":
                    opened.append(len(self.items))
                elif ch == ")" and opened:
                    self.close[opened.pop()] = len(self.items)
                self.items.append((ch, ch))
                i += 1
                continue
            raise ParseError(f"unexpected character {ch!r} in {text!r}")
        self.vals = [val for _, val in self.items]
        self.pos = 0

    def peek(self):
        return self.items[self.pos][0] if self.pos < len(self.items) else None

    def take(self):
        item = self.items[self.pos]
        self.pos += 1
        return item


def parse_scalar(text: str, alphabet: Iterable[str] = (), memo=None) -> Scalar:
    """Parse an exact scalar expression.

    Grammar: integers, parameter names, + - * / ^, parentheses; ^ takes a
    nonnegative integer exponent of at most MAX_POWER and binds tighter
    than unary minus, a power of a rational stays within MAX_POWER_BITS,
    and a power of a polynomial (of the numerator and the denominator of
    a quotient) is bounded to MAX_POWER_TERMS terms and MAX_POWER_SIZE
    coefficient bits before it is expanded, as is each product of
    polynomials that a product, a quotient or a sum of quotients expands
    (`_check_product`).  Parentheses and unary signs nest at most
    MAX_NESTING deep.
    Returns a Fraction when the alphabet is empty, else a
    RationalFunction over the alphabet.

    Sub-expressions are evaluated in the smallest scalar kind: a
    Fraction until a parameter enters, a Polynomial until something is
    divided by a non-constant polynomial, and only then a
    RationalFunction; the result is lifted once at the end.  All three
    kinds are canonical and a RationalFunction over 1 combines exactly
    like its numerator, so the numerator and denominator returned are the
    ones an evaluation entirely in RationalFunctions would give.

    Scalars are immutable, so a parse builds each literal, each
    parenthesised group and the whole text once: `memo` maps the token
    of a literal to its value, and the tokens of a group or of a whole
    text to its value and the nesting depth it reached below its start.
    A group is reused only where parsing it again would stay within
    MAX_NESTING, so every limit and every error message is the one a
    fresh parse gives.  By default the memo serves this text alone; a
    caller that parses a batch of texts over one alphabet passes one dict
    to every call of the batch and drops it with the batch.
    """
    return _Parser(text, _check_alphabet(alphabet),
                   {} if memo is None else memo).parse()


class _Parser:
    """Recursive descent for `parse_scalar`, one instance per text.

    Methods rather than nested closures: closures that call each other
    form a reference cycle per parse, and every parse's tokens and
    literals would then wait for the cyclic collector, whose full passes
    land on whichever later request happens to trigger them."""

    def __init__(self, text: str, alphabet: tuple, memo: dict):
        self.text = text
        self.alphabet = alphabet
        self.toks = _Tokens(text)
        self.memo = memo
        self.depth = 0
        self.peak = 0  # the deepest nesting reached so far

    def parse(self) -> Scalar:
        alphabet = self.alphabet
        key = tuple(self.toks.vals)
        hit = self.memo.get(key)
        if hit is None:
            value = self.expr()
            if self.toks.peek() is not None:
                raise ParseError(f"trailing input in {self.text!r}")
            self.memo[key] = value, self.peak
        else:
            value = hit[0]
        if not alphabet:
            return value
        if isinstance(value, Fraction):
            return RationalFunction.constant(alphabet, value)
        if isinstance(value, Polynomial):
            return RationalFunction(alphabet, value, _one(alphabet))
        return value

    def nested(self, parse):
        if self.depth == MAX_NESTING:
            raise ParseError(f"nesting exceeds the limit {MAX_NESTING}")
        self.depth += 1
        self.peak = max(self.peak, self.depth)
        v = parse()
        self.depth -= 1
        return v

    def group(self):
        """The value of the parenthesised group whose '(' was just taken:
        reused from the memo when its tokens were parsed before and this
        depth plus the depth they reached stays within MAX_NESTING."""
        toks, depth = self.toks, self.depth
        end = toks.close.get(toks.pos - 1)
        key = None if end is None else tuple(toks.vals[toks.pos:end])
        hit = self.memo.get(key)
        if hit is not None and depth + 1 + hit[1] <= MAX_NESTING:
            toks.pos = end + 1
            self.peak = max(self.peak, depth + 1 + hit[1])
            return hit[0]
        outer, self.peak = self.peak, depth
        v = self.nested(self.expr)
        if toks.peek() != ")":
            raise ParseError(f"missing ')' in {self.text!r}")
        toks.take()
        if key is not None:
            self.memo[key] = v, self.peak - depth - 1
        self.peak = max(outer, self.peak)
        return v

    def literal(self, kind, val):
        if kind == "int":
            try:
                return Fraction(int(val))
            except ValueError:  # beyond the interpreter's digit limit
                raise ParseError(
                    f"integer literal of {len(val)} digits is too long"
                ) from None
        if val not in self.alphabet:
            raise ParseError(f"unknown parameter {val!r} in {self.text!r}")
        return _variable(self.alphabet, val)

    def atom(self):
        toks = self.toks
        kind, val = toks.take() if toks.peek() is not None else (None, None)
        if kind == "int" or kind == "name":
            v = self.memo.get(val)
            if v is None:
                v = self.memo[val] = self.literal(kind, val)
            return v
        if kind == "(":
            return self.group()
        raise ParseError(f"unexpected token in {self.text!r}")

    def power(self):
        toks, text = self.toks, self.text
        v = self.atom()
        if toks.peek() == "^":
            toks.take()
            kind, val = toks.take() if toks.peek() is not None else (None, None)
            if kind != "int":
                raise ParseError(f"'^' needs an integer exponent in {text!r}")
            # the length test keeps int() off digit strings of any size
            if len(val.lstrip("0")) > 3 or int(val) > MAX_POWER:
                raise ParseError(
                    f"exponent {val} exceeds the limit {MAX_POWER} in {text!r}"
                )
            n = int(val)
            if isinstance(v, Fraction) and n * max(
                v.numerator.bit_length(), v.denominator.bit_length()
            ) > MAX_POWER_BITS:
                raise ParseError(
                    f"power exceeds the limit of {MAX_POWER_BITS} bits in {text!r}"
                )
            parts = (v.num, v.den) if isinstance(v, RationalFunction) else (v,)
            for f in parts:
                # a power of a monomial stays one term with coefficient 1
                if not isinstance(f, Polynomial) or len(f.terms) < 2:
                    continue
                terms, size = _power_size(f, n)
                if terms > MAX_POWER_TERMS or size > MAX_POWER_SIZE:
                    raise ParseError(
                        f"power exceeds the limit of {MAX_POWER_TERMS} terms "
                        f"or {MAX_POWER_SIZE} coefficient bits in {text!r}"
                    )
            v = v**n
        return v

    def divide(self, v, w):
        # a constant divisor becomes a Fraction, so that only a
        # non-constant one makes a RationalFunction denominator
        if isinstance(w, Polynomial) and w.is_constant():
            w = w.constant_value()
        return v / w

    def factor(self):
        toks = self.toks
        if toks.peek() == "-":
            toks.take()
            return -self.nested(self.factor)
        if toks.peek() == "+":
            toks.take()
            return self.nested(self.factor)
        return self.power()

    def term(self):
        toks, text = self.toks, self.text
        v = self.factor()
        while toks.peek() in ("*", "/"):
            op, _ = toks.take()
            w = self.factor()
            if not (isinstance(v, Fraction) or isinstance(w, Fraction)):
                _check_operation(v, op, w, text)
            try:
                v = v * w if op == "*" else self.divide(v, w)
            except ZeroDivisionError as exc:
                raise ParseError(f"division by zero in {text!r}") from exc
        return v

    def expr(self):
        toks, text = self.toks, self.text
        v = self.term()
        while toks.peek() in ("+", "-"):
            op, _ = toks.take()
            w = self.term()
            if isinstance(v, RationalFunction) or isinstance(w, RationalFunction):
                _check_operation(v, op, w, text)
            v = v + w if op == "+" else v - w
        return v


def parse_rational(text: str) -> Fraction:
    """Parse a plain rational expression with no parameters."""
    value = parse_scalar(text, ())
    assert isinstance(value, Fraction)
    return value


def parse_integer(text: str) -> int:
    """Parse an integer written as an optional '-' and the ASCII digits
    0-9; anything else, and a value past the interpreter's digit limit
    for int(), is a ParseError.  int() alone also takes underscores,
    surrounding spaces, a '+' and the digits of any script."""
    digits = text[1:] if text[:1] == "-" else text
    if digits.isascii() and digits.isdigit():
        try:
            return int(text)
        except ValueError:  # beyond the interpreter's digit limit
            pass
    raise ParseError(f"bad integer {text!r}")


def render_scalar(x) -> str:
    """Canonical text rendering used in reports and golden files."""
    if isinstance(x, int):
        x = Fraction(x)
    if isinstance(x, (Fraction, Polynomial, RationalFunction)):
        return str(x)
    raise TypeError(f"not a scalar: {x!r}")
