"""Sparse exterior algebra over an n-dimensional coframe.

A `Form` of degree p stores a map from strictly increasing 1-based index
tuples of length p to nonzero scalar coefficients; a degree-0 form has
the single key ().  A `Vector` holds n scalar components against the
dual frame.  `SymTensor2` is a sparse symmetric 2-tensor storing matrix
entries g_ij at keys (i, j) with i <= j.

All values are immutable; every operation returns fresh objects and
never stores a zero coefficient.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from . import kernels, scalars
from .errors import DegreeMismatch, DimensionMismatch

_F0 = Fraction(0)


def _symbolic(terms: Mapping) -> bool:
    return any(not isinstance(c, (int, Fraction)) for c in terms.values())


def _check_key(dim: int, key) -> tuple:
    key = tuple(int(i) for i in key)
    if any(not 1 <= i <= dim for i in key):
        raise ValueError(f"indices {key} out of range 1..{dim}")
    if any(a >= b for a, b in zip(key, key[1:])):
        raise ValueError(f"indices {key} must be strictly increasing")
    return key


class Form:
    """Alternating form with exact scalar coefficients."""

    __slots__ = ("dim", "degree", "terms")

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
        self.dim = dim
        self.degree = degree
        self.terms = clean

    @classmethod
    def zero(cls, dim: int, degree: int) -> "Form":
        return cls(dim, degree, {})

    @classmethod
    def monomial(cls, dim: int, indices: Iterable[int], coeff=1) -> "Form":
        indices = tuple(indices)
        return cls(dim, len(indices), {indices: coeff})

    # -- linear structure ------------------------------------------------

    def _check_compatible(self, other: "Form"):
        if not isinstance(other, Form):
            raise TypeError(f"not a form: {other!r}")
        if self.dim != other.dim:
            raise DimensionMismatch(f"dimensions {self.dim} != {other.dim}")
        if self.degree != other.degree:
            raise DegreeMismatch(f"degrees {self.degree} != {other.degree}")

    def __add__(self, other):
        self._check_compatible(other)
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            cur = out.get(key)
            if cur is None:
                out[key] = coeff
            else:
                cur = cur + coeff
                if scalars.is_zero(cur):
                    del out[key]
                else:
                    out[key] = cur
        f = Form.__new__(Form)
        f.dim, f.degree, f.terms = self.dim, self.degree, out
        return f

    def __neg__(self):
        f = Form.__new__(Form)
        f.dim, f.degree = self.dim, self.degree
        f.terms = {k: -c for k, c in self.terms.items()}
        return f

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, scalar):
        scalar = scalars.as_scalar(scalar)
        f = Form.__new__(Form)
        f.dim, f.degree = self.dim, self.degree
        if scalars.is_zero(scalar):
            f.terms = {}
        else:
            f.terms = {k: c * scalar for k, c in self.terms.items()}
        return f

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        if self.dim != other.dim or self.degree != other.degree:
            return False
        if set(self.terms) != set(other.terms):
            return (self - other).is_zero()
        return all(
            scalars.equals(c, other.terms[k]) for k, c in self.terms.items()
        )

    __hash__ = None

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
            collected = kernels.wedge_collect(self.terms, other.terms)
            out = {}
            for k, bucket in collected.items():
                total = scalars.scalar_sum(bucket)
                if not scalars.is_zero(total):
                    out[k] = total
        else:
            merged = kernels.wedge_terms(self.terms, other.terms)
            out = {k: c for k, c in merged.items() if not scalars.is_zero(c)}
        f = Form.__new__(Form)
        f.dim, f.degree, f.terms = self.dim, degree, out
        return f

    def coefficient(self, indices: Iterable[int]):
        key = _check_key(self.dim, indices)
        return self.terms.get(key, _F0)

    def map_coefficients(self, fn) -> "Form":
        out = {}
        for k, c in self.terms.items():
            v = fn(c)
            v = scalars.as_scalar(v)
            if not scalars.is_zero(v):
                out[k] = v
        f = Form.__new__(Form)
        f.dim, f.degree, f.terms = self.dim, self.degree, out
        return f

    def restrict(self, dim: int) -> "Form":
        """Reinterpret over the first `dim` coframe legs.

        Every stored index must already lie in 1..dim.
        """
        for key in self.terms:
            if key and key[-1] > dim:
                raise DimensionMismatch(
                    f"term e^{{{ ' '.join(map(str, key)) }}} sticks out of 1..{dim}"
                )
        return Form(dim, self.degree, self.terms)

    def extend(self, dim: int) -> "Form":
        """Reinterpret over a larger coframe."""
        if dim < self.dim:
            raise DimensionMismatch(f"cannot extend dimension {self.dim} to {dim}")
        return Form(dim, self.degree, self.terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for key in sorted(self.terms):
            c = scalars.render_scalar(self.terms[key])
            if key == ():
                parts.append(c)
                continue
            basis = "e^{" + " ".join(str(i) for i in key) + "}"
            if c == "1":
                parts.append(basis)
            elif c == "-1":
                parts.append(f"-{basis}")
            elif any(op in c for op in " +-/") and not _is_simple_negative(c):
                parts.append(f"({c})*{basis}")
            else:
                parts.append(f"{c}*{basis}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"Form({self})"


def _is_simple_negative(c: str) -> bool:
    return c.startswith("-") and not any(op in c[1:] for op in " +-")


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
        return cls([1 if i == index else 0 for i in range(1, dim + 1)])

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


class SymTensor2:
    """Sparse symmetric 2-tensor; entries(i, j) with i <= j hold g_ij."""

    __slots__ = ("dim", "entries")

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
        self.dim = dim
        self.entries = clean

    @classmethod
    def zero(cls, dim: int) -> "SymTensor2":
        return cls(dim, {})

    def entry(self, i: int, j: int):
        if i > j:
            i, j = j, i
        return self.entries.get((i, j), _F0)

    def _check_compatible(self, other: "SymTensor2"):
        if not isinstance(other, SymTensor2):
            raise TypeError(f"not a symmetric tensor: {other!r}")
        if self.dim != other.dim:
            raise DimensionMismatch(f"dimensions {self.dim} != {other.dim}")

    def __add__(self, other):
        self._check_compatible(other)
        out = dict(self.entries)
        for key, value in other.entries.items():
            cur = out.get(key)
            if cur is None:
                out[key] = value
            else:
                cur = cur + value
                if scalars.is_zero(cur):
                    del out[key]
                else:
                    out[key] = cur
        t = SymTensor2.__new__(SymTensor2)
        t.dim, t.entries = self.dim, out
        return t

    def __neg__(self):
        t = SymTensor2.__new__(SymTensor2)
        t.dim = self.dim
        t.entries = {k: -v for k, v in self.entries.items()}
        return t

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, scalar):
        scalar = scalars.as_scalar(scalar)
        t = SymTensor2.__new__(SymTensor2)
        t.dim = self.dim
        if scalars.is_zero(scalar):
            t.entries = {}
        else:
            t.entries = {k: v * scalar for k, v in self.entries.items()}
        return t

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other):
        if not isinstance(other, SymTensor2):
            return NotImplemented
        if self.dim != other.dim:
            return False
        return (self - other).is_zero() if set(self.entries) != set(
            other.entries
        ) else all(
            scalars.equals(v, other.entries[k]) for k, v in self.entries.items()
        )

    __hash__ = None

    def to_matrix(self) -> list:
        """Dense dim x dim matrix of entries."""
        n = self.dim
        m = [[_F0] * n for _ in range(n)]
        for (i, j), v in self.entries.items():
            m[i - 1][j - 1] = v
            if i != j:
                m[j - 1][i - 1] = v
        return m

    def restrict(self, dim: int) -> "SymTensor2":
        """Same tensor on a smaller frame; entries must not stick out."""
        for (i, j) in self.entries:
            if j > dim:
                raise DimensionMismatch(f"entry ({i},{j}) outside 1..{dim}")
        return SymTensor2(dim, self.entries)

    def extend(self, dim: int) -> "SymTensor2":
        """Same tensor on a larger frame."""
        if dim < self.dim:
            raise DimensionMismatch(f"cannot extend dim {self.dim} to {dim}")
        return SymTensor2(dim, self.entries)

    def __str__(self) -> str:
        if not self.entries:
            return "0"
        parts = []
        for (i, j) in sorted(self.entries):
            v = self.entries[(i, j)]
            shown = v if i == j else v * 2
            c = scalars.render_scalar(shown)
            basis = f"(e^{i})^2" if i == j else f"e^{i}(.)e^{j}"
            if c == "1":
                parts.append(basis)
            elif c == "-1":
                parts.append(f"-{basis}")
            elif any(op in c for op in " +-/") and not _is_simple_negative(c):
                parts.append(f"({c})*{basis}")
            else:
                parts.append(f"{c}*{basis}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"SymTensor2({self})"


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
    out = {}
    for sub, bucket in buckets.items():
        total = bucket[0] if len(bucket) == 1 else scalars.scalar_sum(bucket)
        if not scalars.is_zero(total):
            out[sub] = total
    f = Form.__new__(Form)
    f.dim, f.degree, f.terms = form.dim, form.degree - 1, out
    return f


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
