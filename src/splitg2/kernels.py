"""Compute kernels for term maps and wedge merges.

Term maps are dicts from monomial keys to nonzero ints.  The kernels never
look inside a key: adding two keys must give the key of the product
monomial, which `scalars` arranges by packing each exponent vector into
one int.  Index maps are dicts from strictly increasing index tuples to
coefficient objects supporting +, *, unary - and truth testing.
"""

from math import gcd


def backend_name() -> str:
    """Name of the kernel implementation; there is one, pure Python."""
    return "py"


def term_gcd(terms):
    """gcd of the absolute coefficient values, 0 for the empty map."""
    g = 0
    for c in terms.values():
        g = gcd(g, c)
        if g == 1:
            return 1
    return g


def poly_mul(a, b):
    """Convolution of two integer term maps."""
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            v = out.get(e)
            if v is None:
                out[e] = ca * cb
            else:
                v += ca * cb
                if v:
                    out[e] = v
                else:
                    del out[e]
    return out


def poly_axpy(ma, a, mb, b):
    """ma*a + mb*b for integer term maps and nonzero int multipliers."""
    out = {}
    for e, c in a.items():
        out[e] = ma * c
    for e, c in b.items():
        v = out.get(e)
        if v is None:
            out[e] = mb * c
        else:
            v += mb * c
            if v:
                out[e] = v
            else:
                del out[e]
    return out


def merge_indices(i, j):
    """Merge two strictly increasing index tuples.

    Returns (merged, sign) where sign is the parity of the shuffle, or
    None when the tuples share an index.
    """
    if not i:
        return j, 1
    if not j:
        return i, 1
    out = []
    swaps = 0
    x = 0
    y = 0
    ni = len(i)
    nj = len(j)
    while x < ni and y < nj:
        u = i[x]
        v = j[y]
        if u == v:
            return None
        if u < v:
            out.append(u)
            x += 1
        else:
            out.append(v)
            y += 1
            swaps += ni - x
    while x < ni:
        out.append(i[x])
        x += 1
    while y < nj:
        out.append(j[y])
        y += 1
    return tuple(out), (1 if swaps % 2 == 0 else -1)


def wedge_terms(a, b):
    """Wedge-product merge of two index maps."""
    out = {}
    for ia, ca in a.items():
        for ib, cb in b.items():
            m = merge_indices(ia, ib)
            if m is None:
                continue
            key, sign = m
            v = ca * cb
            if sign < 0:
                v = -v
            cur = out.get(key)
            if cur is None:
                out[key] = v
            else:
                cur = cur + v
                if cur:
                    out[key] = cur
                else:
                    del out[key]
    return out


def wedge_collect(a, b):
    """Wedge-product merge keeping per-key contribution lists.

    Callers fold each list themselves; deferring the summation lets
    quotient coefficients be grouped by denominator instead of compounding
    pairwise."""
    out = {}
    for ia, ca in a.items():
        for ib, cb in b.items():
            m = merge_indices(ia, ib)
            if m is None:
                continue
            key, sign = m
            v = ca * cb
            if sign < 0:
                v = -v
            bucket = out.get(key)
            if bucket is None:
                out[key] = [v]
            else:
                bucket.append(v)
    return out
