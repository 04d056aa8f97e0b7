"""Sparse exterior algebra over an n-dimensional coframe.

`Form` and `SymTensor2` share one core, `Tensor`: a frame dimension, a
degree and `terms`, a map from 1-based index keys to nonzero scalar
coefficients, with one linear structure over it.  A `Form` of degree p
keys its terms by strictly increasing index tuples of length p; a
degree-0 form has the single key ().  A `SymTensor2` has degree 2 and
keys the matrix entry g_ij at (i, j) with i <= j.  A `Vector` holds n
scalar components against the dual frame.

All values are immutable, and `terms` enforces it: it is a read-only
view, so an assignment into it raises TypeError.  Every operation
returns fresh objects and never stores a zero coefficient.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping

from . import kernels, scalars
from .errors import DegreeMismatch, DimensionMismatch

_F0 = Fraction(0)
_F1 = Fraction(1)


def _symbolic(terms: Mapping) -> bool:
    return any(not isinstance(c, (int, Fraction)) for c in terms.values())


def _check_key(dim: int, key) -> tuple:
    key = tuple(int(i) for i in key)
    if any(not 1 <= i <= dim for i in key):
        raise ValueError(f"indices {key} out of range 1..{dim}")
    if any(a >= b for a, b in zip(key, key[1:])):
        raise ValueError(f"indices {key} must be strictly increasing")
    return key


# -- the sparse coefficient-map core ------------------------------------------


def fold(buckets: Mapping) -> dict:
    """{key: sum of its contribution list}, in the order of `buckets`,
    zero sums dropped.  A lone contribution is kept as it is; longer lists
    go through `scalars.scalar_sum`, which groups quotients by denominator
    so that unreduced denominators do not compound pairwise."""
    out = {}
    for key, bucket in buckets.items():
        total = bucket[0] if len(bucket) == 1 else scalars.scalar_sum(bucket)
        if not scalars.is_zero(total):
            out[key] = total
    return out


def _sum_maps(a: Mapping, b: Mapping, sign: int = 1) -> dict:
    """a + sign * b for sign +-1, zero sums dropped."""
    out = a.copy()
    for key, coeff in b.items():
        if sign < 0:
            coeff = -coeff
        cur = out.get(key)
        if cur is None:
            out[key] = coeff
        else:
            cur = cur + coeff
            if scalars.is_zero(cur):
                del out[key]
            else:
                out[key] = cur
    return out


def _scaled(terms: Mapping, scalar) -> dict:
    scalar = scalars.as_scalar(scalar)
    if scalars.is_zero(scalar):
        return {}
    return {k: c * scalar for k, c in terms.items()}


def _equal_maps(a: Mapping, b: Mapping) -> bool:
    """Value equality: shared keys compare by `scalars.equals`, since
    unreduced quotients store equal values differently; otherwise the
    difference decides."""
    if a.keys() != b.keys():
        return not _sum_maps(a, b, -1)
    return all(scalars.equals(c, b[k]) for k, c in a.items())


def _term_text(coeff, basis: str) -> str:
    """One rendered term coeff * basis; an empty basis is the constant."""
    c = scalars.render_scalar(coeff)
    if not basis:
        return c
    if c == "1":
        return basis
    if c == "-1":
        return f"-{basis}"
    simple_negative = c.startswith("-") and not any(op in c[1:] for op in " +-")
    if any(op in c for op in " +-/") and not simple_negative:
        return f"({c})*{basis}"
    return f"{c}*{basis}"


class Tensor:
    """The sparse core that `Form` and `SymTensor2` share: a frame
    dimension, a degree and `terms`, a read-only view
    (`types.MappingProxyType`) of index keys to nonzero scalars, so a
    tensor can be cached and handed out without copies.  A view cannot
    be pickled: copies, deep copies and pickles go through `raw` with a
    fresh dict."""

    __slots__ = ("dim", "degree", "terms")

    @classmethod
    def raw(cls, dim: int, degree: int, terms: dict):
        """Unchecked construction: keys valid for the class and `degree`,
        nonzero scalars, in a dict that nothing else writes."""
        t = cls.__new__(cls)
        t.dim, t.degree, t.terms = dim, degree, MappingProxyType(terms)
        return t

    def __reduce__(self):
        return self.raw, (self.dim, self.degree, self.terms.copy())

    # -- linear structure ------------------------------------------------

    def _check_compatible(self, other: "Tensor"):
        if type(other) is not type(self):
            raise TypeError(f"not a {type(self).__name__}: {other!r}")
        if self.dim != other.dim:
            raise DimensionMismatch(f"dimensions {self.dim} != {other.dim}")
        if self.degree != other.degree:
            raise DegreeMismatch(f"degrees {self.degree} != {other.degree}")

    def __add__(self, other):
        self._check_compatible(other)
        return self.raw(self.dim, self.degree, _sum_maps(self.terms, other.terms))

    def __sub__(self, other):
        self._check_compatible(other)
        return self.raw(self.dim, self.degree, _sum_maps(self.terms, other.terms, -1))

    def __neg__(self):
        return self.raw(self.dim, self.degree, _sum_maps({}, self.terms, -1))

    def __mul__(self, scalar):
        return self.raw(self.dim, self.degree, _scaled(self.terms, scalar))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.dim == other.dim and self.degree == other.degree
                and _equal_maps(self.terms, other.terms))

    __hash__ = None

    # -- change of frame -----------------------------------------------------

    def restrict(self, dim: int):
        """Reinterpret over the first `dim` frame legs.

        Every stored index must already lie in 1..dim.
        """
        for key in self.terms:
            if key and key[-1] > dim:
                raise DimensionMismatch(f"component {key} sticks out of 1..{dim}")
        return self.raw(dim, self.degree, self.terms.copy())

    def extend(self, dim: int):
        """Reinterpret over a larger frame."""
        if dim < self.dim:
            raise DimensionMismatch(f"cannot extend dimension {self.dim} to {dim}")
        return self.raw(dim, self.degree, self.terms.copy())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


class Form(Tensor):
    """Alternating form with exact scalar coefficients."""

    __slots__ = ()

    def __init__(self, dim: int, degree: int, terms: Mapping):
        if not 0 <= degree <= dim:
            raise DegreeMismatch(f"degree {degree} out of range 0..{dim}")
        clean = {}
        for key, coeff in terms.items():
            key = _check_key(dim, key)
            if len(key) != degree:
                raise DegreeMismatch(f"key {key} does not have degree {degree}")
            coeff = scalars.as_scalar(coeff)
            if scalars.is_zero(coeff):
                continue
            if key in clean:
                raise ValueError(f"duplicate key {key}")
            clean[key] = coeff
        self.dim, self.degree, self.terms = dim, degree, MappingProxyType(clean)

    @classmethod
    def zero(cls, dim: int, degree: int) -> "Form":
        return cls(dim, degree, {})

    @classmethod
    def monomial(cls, dim: int, indices: Iterable[int], coeff=1) -> "Form":
        indices = tuple(indices)
        return cls(dim, len(indices), {indices: coeff})

    # -- exterior operations ----------------------------------------------

    def wedge(self, other: "Form") -> "Form":
        if not isinstance(other, Form):
            raise TypeError(f"not a form: {other!r}")
        if self.dim != other.dim:
            raise DimensionMismatch(f"dimensions {self.dim} != {other.dim}")
        degree = self.degree + other.degree
        if degree > self.dim:
            # wedges past the top degree vanish; report them at top degree
            return Form.zero(self.dim, self.dim)
        if _symbolic(self.terms) or _symbolic(other.terms):
            # fold contribution lists with denominator grouping so that
            # unreduced quotients do not compound pairwise
            out = fold(kernels.wedge_collect(self.terms, other.terms))
        else:
            # zero sums are dropped by the merge; rational products of
            # nonzero terms are nonzero
            out = kernels.wedge_terms(self.terms, other.terms)
        return Form.raw(self.dim, degree, out)

    def coefficient(self, indices: Iterable[int]):
        key = _check_key(self.dim, indices)
        return self.terms.get(key, _F0)

    def map_coefficients(self, fn) -> "Form":
        out = {}
        for k, c in self.terms.items():
            v = scalars.as_scalar(fn(c))
            if not scalars.is_zero(v):
                out[k] = v
        return Form.raw(self.dim, self.degree, out)

    def __str__(self) -> str:
        return " + ".join(
            _term_text(self.terms[k], "e^{" + " ".join(map(str, k)) + "}" if k else "")
            for k in sorted(self.terms)
        ) or "0"


class Vector:
    """Frame vector with exact scalar components (1-based access)."""

    __slots__ = ("dim", "components")

    def __init__(self, components: Iterable):
        comps = [scalars.as_scalar(c) for c in components]
        self.dim = len(comps)
        self.components = tuple(comps)

    @classmethod
    def basis(cls, dim: int, index: int) -> "Vector":
        if not 1 <= index <= dim:
            raise ValueError(f"index {index} out of range 1..{dim}")
        v = cls.__new__(cls)
        v.dim = dim
        v.components = (_F0,) * (index - 1) + (_F1,) + (_F0,) * (dim - index)
        return v

    def __getitem__(self, index: int):
        if not 1 <= index <= self.dim:
            raise IndexError(f"index {index} out of range 1..{self.dim}")
        return self.components[index - 1]

    def __add__(self, other: "Vector") -> "Vector":
        if self.dim != other.dim:
            raise DimensionMismatch(f"dimensions {self.dim} != {other.dim}")
        return Vector([a + b for a, b in zip(self.components, other.components)])

    def __neg__(self) -> "Vector":
        return Vector([-a for a in self.components])

    def __sub__(self, other: "Vector") -> "Vector":
        return self + (-other)

    def __mul__(self, scalar) -> "Vector":
        scalar = scalars.as_scalar(scalar)
        return Vector([a * scalar for a in self.components])

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return all(scalars.is_zero(c) for c in self.components)

    def __eq__(self, other):
        if not isinstance(other, Vector):
            return NotImplemented
        return self.dim == other.dim and all(
            scalars.equals(a, b) for a, b in zip(self.components, other.components)
        )

    __hash__ = None

    def __str__(self) -> str:
        body = ", ".join(scalars.render_scalar(c) for c in self.components)
        return f"[{body}]"

    def __repr__(self) -> str:
        return f"Vector({self})"


class SymTensor2(Tensor):
    """Sparse symmetric 2-tensor of degree 2; `terms` (i, j) with i <= j
    holds g_ij."""

    __slots__ = ()

    def __init__(self, dim: int, entries: Mapping):
        clean = {}
        for (i, j), value in entries.items():
            i, j = int(i), int(j)
            if not (1 <= i <= dim and 1 <= j <= dim):
                raise ValueError(f"indices ({i},{j}) out of range 1..{dim}")
            if i > j:
                i, j = j, i
            value = scalars.as_scalar(value)
            if scalars.is_zero(value):
                continue
            if (i, j) in clean:
                raise ValueError(f"duplicate entry ({i},{j})")
            clean[(i, j)] = value
        self.dim, self.degree, self.terms = dim, 2, MappingProxyType(clean)

    def entry(self, i: int, j: int):
        if i > j:
            i, j = j, i
        return self.terms.get((i, j), _F0)

    def to_matrix(self) -> list:
        """Dense dim x dim matrix of entries."""
        n = self.dim
        m = [[_F0] * n for _ in range(n)]
        for (i, j), v in self.terms.items():
            m[i - 1][j - 1] = v
            if i != j:
                m[j - 1][i - 1] = v
        return m

    def __str__(self) -> str:
        return " + ".join(
            _term_text(v, f"(e^{i})^2") if i == j
            else _term_text(v * 2, f"e^{i}(.)e^{j}")
            for (i, j), v in sorted(self.terms.items())
        ) or "0"


# -- operations ------------------------------------------------------------


def interior(vector: Vector, form: Form) -> Form:
    """Interior product; an antiderivation of degree -1."""
    if vector.dim != form.dim:
        raise DimensionMismatch(f"dimensions {vector.dim} != {form.dim}")
    if form.degree == 0:
        return Form.zero(form.dim, 0)
    buckets: dict = {}
    comps = vector.components
    for key, coeff in form.terms.items():
        for t, idx in enumerate(key):
            comp = comps[idx - 1]
            if scalars.is_zero(comp):
                continue
            sub = key[:t] + key[t + 1 :]
            v = coeff * comp
            if t % 2:
                v = -v
            buckets.setdefault(sub, []).append(v)
    return Form.raw(form.dim, form.degree - 1, fold(buckets))


def sym_product(a: Form, b: Form) -> SymTensor2:
    """Symmetric product of two 1-forms; e^i (.) e^j has entries 1/2."""
    if a.degree != 1 or b.degree != 1:
        raise DegreeMismatch("symmetric product takes two 1-forms")
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimensions {a.dim} != {b.dim}")
    half = Fraction(1, 2)
    acc: dict = {}
    for (i,), ca in a.terms.items():
        for (j,), cb in b.terms.items():
            v = ca * cb
            if i != j:
                v = v * half
            key = (i, j) if i <= j else (j, i)
            cur = acc.get(key)
            acc[key] = v if cur is None else cur + v
    return SymTensor2(a.dim, acc)
