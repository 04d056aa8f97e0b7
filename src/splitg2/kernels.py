"""Compute kernels for term maps and wedge merges.

Term maps are dicts from monomial keys to nonzero ints.  A key is an
exponent vector packed into one int, FIELD bits per variable with the
first variable in the highest field; this module owns the field width
and `scalars` packs and unpacks keys with it.  Adding two keys gives the
key of the product monomial.  Index maps are dicts from strictly
increasing index tuples to coefficient objects supporting +, *, unary -
and truth testing.

`poly_mul` has two routes with the same result.  When the shorter
operand has fewer than DENSE_MIN_TERMS terms it convolves the two maps
term by term and never looks inside a key.  Otherwise it reads the keys:
it takes the per-field exponent ranges of both maps and, when the
product's exponent box packs into at most DENSE_MAX_BYTES bytes per term
product of the convolution and DENSE_MAX_BOX bytes in all, multiplies
by Kronecker substitution: each
map becomes one int with a fixed-width slot per box cell, the two ints
are multiplied once, and the slots of the product are read back
(R. Fateman, "Can you save time in multiplying polynomials by encoding
them as integers?", 2010; D. Harvey, "Faster polynomial multiplication
via multipoint Kronecker substitution", J. Symb. Comp. 44, 2009).

`poly_gcd` is the heuristic gcd (B. Char, K. Geddes, G. Gonnet,
"GCDHEU: heuristic polynomial GCD algorithm based on integer GCD
computation", J. Symb. Comp. 7, 1989) on the same packing: both maps are
evaluated at one large power of two, the integer gcd of the two images
is read back as a candidate, and the candidate is kept only once it
divides both maps exactly.
"""

from math import gcd, prod

FIELD = 16  # bits per exponent field of a packed key
_MASK = (1 << FIELD) - 1

# `poly_mul` takes the dense route when the shorter operand has at least
# DENSE_MIN_TERMS terms and the packed product takes at most
# DENSE_MAX_BYTES bytes per term product of the convolution and at most
# DENSE_MAX_BOX bytes in all.  CPython multiplies big ints by Karatsuba,
# so the packed product's cost grows faster than its size: at 0.9 bytes
# per product, seeded one-variable maps with 100-bit coefficients lose
# to the convolution from a box of about 180 KB (8-bit ones already at
# 56 KB), while the largest box the torsion solves pack takes 25 KB.
DENSE_MIN_TERMS = 16
DENSE_MAX_BYTES = 1
DENSE_MAX_BOX = 1 << 16

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
    """Product of two integer term maps: the dense route for two large
    operands in a small enough exponent box, else the convolution."""
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    if len(a) >= DENSE_MIN_TERMS:
        out = _dense_mul(a, b)
        if out is not None:
            return out
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


def _dense_mul(a, b):
    """`poly_mul` by Kronecker substitution; None when the packed box
    would take more than DENSE_MAX_BYTES bytes per term product or more
    than DENSE_MAX_BOX bytes.

    Field i of the product spans lo_i .. lo_i + D_i - 1, with lo_i the sum
    of the operands' lowest exponents and D_i the sum of their exponent
    ranges plus one; cell t of the box is the mixed-radix number with
    digit e_i - lo_i in radix D_i, field 0 least significant, so cell
    order is key order.  A slot of W bytes holds |coefficient| <
    min(len)·max|a|·max|b| < 2^(8W-2).  Negative coefficients are packed
    into a second int that is subtracted, and adding 2^(8W-1) to every
    slot of the product leaves no borrow between slots, so each slot reads
    back as one unsigned W-byte value; a slot equal to the bias is zero.
    """
    top = max(max(a), max(b)).bit_length()
    shifts = range(0, top or 1, FIELD)
    cols_a = [[(k >> s) & _MASK for k in a] for s in shifts]
    cols_b = [[(k >> s) & _MASK for k in b] for s in shifts]
    radix = []
    size = 1
    base = 0  # key of the lowest cell
    for s, ca, cb in zip(shifts, cols_a, cols_b):
        lo_a = min(ca)
        lo_b = min(cb)
        d = max(ca) - lo_a + max(cb) - lo_b + 1
        radix.append(d)
        size *= d
        base += (lo_a + lo_b) << s
    bits = (
        max(map(abs, a.values())).bit_length()
        + max(map(abs, b.values())).bit_length()
        + len(a).bit_length()
    )
    width = (bits + 9) // 8  # bits + 2, rounded up to whole bytes
    box = size * width
    if box > DENSE_MAX_BOX or box > DENSE_MAX_BYTES * len(a) * len(b):
        return None
    prod = _pack(a, cols_a, radix, width, size) * _pack(b, cols_b, radix, width, size)
    zero = bytes(width - 1) + b"\x80"
    half = 1 << (8 * width - 1)
    raw = (prod + int.from_bytes(zero * size, "little")).to_bytes(
        width * size, "little"
    )
    keys = [base]
    for s, d in zip(shifts, radix):
        if d > 1:
            keys = [k + (e << s) for e in range(d) for k in keys]
    frm = int.from_bytes
    return {
        k: frm(c, "little") - half
        for k, c in zip(keys, [raw[o : o + width] for o in range(0, len(raw), width)])
        if c != zero
    }


def _pack(m, cols, radix, width, size, relative=True):
    """One int holding coefficient c of `m` in slot t of `width` bytes, t
    the mixed-radix cell of its exponents, relative to the map's lowest
    unless `relative` is false."""
    cells = [0] * len(m)
    place = 1
    for col, d in zip(cols, radix):
        if d > 1:
            lo = min(col) if relative else 0
            cells = [t + (e - lo) * place for t, e in zip(cells, col)]
            place *= d
    empty = bytes(width)
    pos = [empty] * size
    neg = None
    for t, c in zip(cells, m.values()):
        if c > 0:
            pos[t] = c.to_bytes(width, "little")
        else:
            if neg is None:
                neg = [empty] * size
            neg[t] = (-c).to_bytes(width, "little")
    v = int.from_bytes(b"".join(pos), "little")
    if neg is not None:
        v -= int.from_bytes(b"".join(neg), "little")
    return v


def poly_gcd(a, b):
    """(g, a / g, b / g) for a common divisor g of two nonzero primitive
    integer term maps, g primitive with positive leading coefficient and
    free of monomial factors, g = {0: 1} when the heuristic finds the maps
    coprime; None when it misses or the images would exceed GCD_MAX_BOX
    bytes.  Every divisor it returns was confirmed by `poly_mul`."""
    top = max(max(a), max(b)).bit_length()
    shifts = range(0, top or 1, FIELD)
    cols_a = [[(k >> s) & _MASK for k in a] for s in shifts]
    cols_b = [[(k >> s) & _MASK for k in b] for s in shifts]
    # every divisor and quotient of a map lies in the box of both
    radix = [max(max(ca), max(cb)) + 1 for ca, cb in zip(cols_a, cols_b)]
    size = prod(radix)
    norm = max(max(map(abs, a.values())), max(map(abs, b.values())))
    width = (2 * norm + 2).bit_length() // 8 + 1
    for _ in range(GCD_TRIES):
        if size * width > GCD_MAX_BOX:
            return None
        out = _gcd_at(a, b, cols_a, cols_b, shifts, radix, width)
        if out is not None:
            return out
        width += 1
    return None


def _gcd_at(a, b, cols_a, cols_b, shifts, radix, width):
    """One GCDHEU step of `poly_gcd` at xi = 2^(8 width): the candidate
    read off the integer gcd of the two images, with both quotients, or
    None unless, for each map, the candidate's image divides the map's,
    the quotient reads back from its digits, and times the candidate it
    gives the map."""
    size = prod(radix)
    img_a = _pack(a, cols_a, radix, width, size, False)
    img_b = _pack(b, cols_b, radix, width, size, False)
    g = _unpack_digits(gcd(img_a, img_b), width, shifts, radix, True)
    if g is None:
        return None
    if g == {0: 1}:
        return g, a, b
    img_g = _pack(g, [[(k >> s) & _MASK for k in g] for s in shifts],
                  radix, width, size, False)
    quotients = []
    for m, img_m in ((a, img_a), (b, img_b)):
        q, r = divmod(img_m, img_g)
        q = None if r else _unpack_digits(q, width, shifts, radix, False)
        if q is None or poly_mul(q, g) != m:
            return None
        quotients.append(q)
    return (g, *quotients)


def _unpack_digits(n, width, shifts, radix, divisor):
    """The term map whose image at 2^(8 width) is `n`, read off the
    balanced digits of `n` through the mixed-radix box `radix`; None when
    a digit falls outside the box.  As a `divisor` the map is made
    primitive with positive leading coefficient and cleared of its
    monomial content: monomials in different variables map to powers of
    the same 2^(8 width), so the integer gcd picks up spurious powers of
    it, which read back as monomial factors."""
    n_slots = (abs(n).bit_length() + 8 * width) // (8 * width) + 1
    zero = bytes(width - 1) + b"\x80"
    half = 1 << (8 * width - 1)
    raw = (n + int.from_bytes(zero * n_slots, "little")).to_bytes(
        width * n_slots, "little"
    )
    frm = int.from_bytes
    digits = {
        t: frm(c, "little") - half
        for t, c in enumerate(raw[o : o + width] for o in range(0, len(raw), width))
        if c != zero
    }
    if not digits or max(digits) >= prod(radix):
        return None
    exps = []
    for t in digits:
        e = []
        for d in radix:
            t, x = divmod(t, d)
            e.append(x)
        exps.append(e)
    lows = [0] * len(radix)
    content = 1
    if divisor:
        lows = [min(col) for col in zip(*exps)]
        content = term_gcd(digits)
        if digits[max(digits)] < 0:
            content = -content
    out = {}
    for e, c in zip(exps, digits.values()):
        out[sum((x - lo) << s for x, lo, s in zip(e, lows, shifts))] = c // content
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
