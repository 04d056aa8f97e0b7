"""Compute kernels for term maps and wedge merges.

Term maps are dicts from monomial keys to nonzero ints.  A key is an
exponent vector packed into one int, FIELD bits per variable with the
first variable in the highest field; this module owns the field width
and `scalars` packs and unpacks keys with it.  Adding two keys gives the
key of the product monomial.  Index maps are dicts from strictly
increasing index tuples to coefficient objects supporting +, *, unary -
and truth testing.

`poly_mul` convolves two maps term by term and never looks inside a key.

`poly_gcd` is the heuristic gcd (B. Char, K. Geddes, G. Gonnet,
"GCDHEU: heuristic polynomial GCD algorithm based on integer GCD
computation", J. Symb. Comp. 7, 1989) by Kronecker substitution: both
maps are evaluated at one large power of two, each becoming one int with
a fixed-width slot per cell of their exponent box, the integer gcd of
the two images is read back as a candidate, and the candidate is kept
only once it divides both maps exactly.  Its codec: `_columns` reads the
exponent fields of keys, `_pack` writes a map into slots, `_slots` reads
balanced slots back, and `_cell_keys` gives the key of each slot.  This
module reads key fields only through `_columns` and builds keys only
through `_cell_keys`.

`poly_axpy` adds multiples of two maps of nonzero ints whatever their
keys, so it is also the rational row update of `_linalg`, whose rows
are integer maps keyed by column.  `merge_indices` takes the sign of a
wedge merge as the parity of the inversions between two index tuples,
and `wedge_terms` and `wedge_collect` merge whole index maps with it.
"""

from math import gcd, prod

FIELD = 16  # bits per exponent field of a packed key
_MASK = (1 << FIELD) - 1

# `poly_gcd` evaluates at xi = 2^(8W) for a slot width of W bytes, first
# with 2^(8W) > 2 max(|a|, |b|) + 2, above the GCDHEU bound
# 2 min(|a|, |b|) + 2 and wide enough for every coefficient to fill one
# slot, then up to GCD_TRIES - 1 more times one byte wider.  It gives up,
# taking no integer gcd, once an image would exceed GCD_MAX_BOX bytes:
# CPython's integer gcd is quadratic in the operand size (seeded 16 KB
# operands take 19 ms on a 2-vCPU x86 host, 64 KB ones 0.39 s), and the
# quotients of a document whose coefficients swell would pack into
# megabytes.  The Ml torsion quotients, the largest the catalogue makes,
# pack into at most 153 cells of 3 bytes.
GCD_TRIES = 3
GCD_MAX_BOX = 1 << 14


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
    """Product of two integer term maps, by term-by-term convolution with
    the shorter map in the outer loop."""
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


def _columns(m, shifts):
    """The exponent field at each shift of every key of `m`, in key order:
    the only place this module reads a key's fields."""
    return [[(k >> s) & _MASK for k in m] for s in shifts]


def _pack(m, cols, lows, radix, width):
    """One int holding coefficient c of `m` in slot t of `width` bytes, t
    the mixed-radix cell of its exponents less `lows` (field 0 least
    significant, so cell order is key order); `cols` are the exponent
    fields of `m` (`_columns`).  Negative coefficients are packed into a
    second int that is subtracted."""
    cells = [0] * len(m)
    place = 1
    for col, lo, d in zip(cols, lows, radix):
        if d > 1:
            cells = [t + (e - lo) * place for t, e in zip(cells, col)]
            place *= d
    empty = bytes(width)
    pos = [empty] * place
    neg = None
    for t, c in zip(cells, m.values()):
        if c > 0:
            pos[t] = c.to_bytes(width, "little")
        else:
            if neg is None:
                neg = [empty] * place
            neg[t] = (-c).to_bytes(width, "little")
    v = int.from_bytes(b"".join(pos), "little")
    if neg is not None:
        v -= int.from_bytes(b"".join(neg), "little")
    return v


def _cell_keys(shifts, radix):
    """The key of every cell of the mixed-radix box `radix` whose lowest
    cell has key 0, in cell order: the only place this module builds
    keys."""
    keys = [0]
    for s, d in zip(shifts, radix):
        if d > 1:
            keys = [k + (e << s) for e in range(d) for k in keys]
    return keys


def _slots(n, width, keys):
    """The term map whose image at 2^(8 width) is `n`, read off the
    balanced digits of `n` in len(keys) slots of `width` bytes, slot t
    the coefficient of keys[t]; None when `n` needs more slots.  Adding
    the bias 2^(8W-1) to every slot leaves no borrow between slots, so
    each slot reads back as one unsigned W-byte value; a slot equal to
    the bias is zero."""
    zero = bytes(width - 1) + b"\x80"
    n += int.from_bytes(zero * len(keys), "little")
    if n < 0 or n.bit_length() > 8 * width * len(keys):
        return None
    raw = n.to_bytes(width * len(keys), "little")
    half = 1 << (8 * width - 1)
    frm = int.from_bytes
    return {
        k: frm(c, "little") - half
        for k, c in zip(keys, [raw[o : o + width] for o in range(0, len(raw), width)])
        if c != zero
    }


def poly_gcd(a, b):
    """(g, a / g, b / g) for a common divisor g of two nonzero primitive
    integer term maps, g primitive with positive leading coefficient and
    free of monomial factors, g = {0: 1} when the heuristic finds the maps
    coprime; None when it misses or the images would exceed GCD_MAX_BOX
    bytes.  Every divisor it returns was confirmed by `poly_mul`."""
    top = max(max(a), max(b)).bit_length()
    shifts = range(0, top or 1, FIELD)
    cols_a = _columns(a, shifts)
    cols_b = _columns(b, shifts)
    # every divisor and quotient of a map lies in the box of both
    radix = [max(max(ca), max(cb)) + 1 for ca, cb in zip(cols_a, cols_b)]
    size = prod(radix)
    norm = max(max(map(abs, a.values())), max(map(abs, b.values())))
    first = (2 * norm + 2).bit_length() // 8 + 1
    for width in range(first, first + GCD_TRIES):
        if size * width > GCD_MAX_BOX:
            return None
        out = _gcd_at(a, b, cols_a, cols_b, shifts, radix, width)
        if out is not None:
            return out
    return None


def _gcd_at(a, b, cols_a, cols_b, shifts, radix, width):
    """One GCDHEU step of `poly_gcd` at xi = 2^(8 width): the candidate
    read off the integer gcd of the two images, with both quotients, or
    None unless, for each map, the candidate's image divides the map's,
    the quotient reads back from its digits, and times the candidate it
    gives the map.

    The candidate is made primitive and cleared of its monomial content:
    monomials in different variables map to powers of the same xi, so the
    integer gcd picks up spurious powers of xi, which read back as
    monomial factors.  Its leading coefficient is the top balanced digit
    of a positive integer, so it is positive already."""
    zeros = [0] * len(radix)
    keys = _cell_keys(shifts, radix)
    img_a = _pack(a, cols_a, zeros, radix, width)
    img_b = _pack(b, cols_b, zeros, radix, width)
    g = _slots(gcd(img_a, img_b), width, keys)
    if g is None:
        return None
    cols = _columns(g, shifts)
    lows = [min(col) for col in cols]
    monomial = sum(lo << s for lo, s in zip(lows, shifts))
    content = term_gcd(g)
    g = {k - monomial: c // content for k, c in g.items()}
    if g == {0: 1}:
        return g, a, b
    img_g = _pack(g, cols, lows, radix, width)
    quotients = []
    for m, img_m in ((a, img_a), (b, img_b)):
        q, r = divmod(img_m, img_g)
        q = None if r else _slots(q, width, keys)
        if q is None or poly_mul(q, g) != m:
            return None
        quotients.append(q)
    return (g, *quotients)


def poly_axpy(ma, a, mb, b):
    """ma*a + mb*b for maps of nonzero ints (term maps, or the integer
    rows of `_linalg.FractionDomain`) and nonzero int multipliers.  The
    keys of `a` come first, in their order, then the new keys of `b`; a
    zero sum is dropped."""
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

    Returns (merged, sign), or None when the tuples share an index.
    merged is sorted(i + j), and sign is (-1)^k for the k inversions of
    the concatenation i + j, the pairs a in i, b in j with a > b: the
    parity of the shuffle that sorts e^i ^ e^j.
    """
    k = 0
    for a in i:
        for b in j:
            if a > b:
                k += 1
            elif a == b:
                return None
    return tuple(sorted(i + j)), -1 if k & 1 else 1


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
