"""Compute kernels: term-map arithmetic on packed monomial keys checked
against tuple-exponent oracles, and wedge-merge sign oracles."""

from fractions import Fraction
from itertools import combinations
from math import gcd

from splitg2 import kernels
from splitg2.scalars import _pack, _unpack

WIDTH = 3


def random_exponent_map(rng, width=WIDTH, nterms=4):
    """Exponent tuple -> nonzero int; the oracle side of the kernel tests."""
    out = {}
    for _ in range(nterms):
        e = tuple(rng.randint(0, 3) for _ in range(width))
        c = rng.randint(-20, 20)
        if c:
            out[e] = c
    return out


def packed(terms, width=WIDTH):
    return {_pack(e, width): c for e, c in terms.items()}


def random_index_map(rng, dim=7, degree=2, nterms=4, coeffs=Fraction):
    keys = list(combinations(range(1, dim + 1), degree))
    out = {}
    for key in rng.sample(keys, min(len(keys), nterms)):
        c = coeffs(rng.randint(-9, 9), rng.randint(1, 9))
        if c:
            out[key] = c
    return out


def inversion_sign(seq):
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def test_backend_name_is_py():
    assert kernels.backend_name() == "py"


def test_term_gcd_oracle(rng):
    for _ in range(20):
        terms = packed(random_exponent_map(rng))
        want = 0
        for c in terms.values():
            want = gcd(want, abs(c))
        assert kernels.term_gcd(terms) == want
    assert kernels.term_gcd({}) == 0


def reference_merge_indices(i, j):
    """`merge_indices` as a two-pointer merge that counts, for each index
    of j taken, the indices of i still ahead of it: the form it had before
    the sign was read as an inversion count."""
    if not i:
        return j, 1
    if not j:
        return i, 1
    out = []
    swaps = x = y = 0
    while x < len(i) and y < len(j):
        if i[x] == j[y]:
            return None
        if i[x] < j[y]:
            out.append(i[x])
            x += 1
        else:
            out.append(j[y])
            y += 1
            swaps += len(i) - x
    out.extend(i[x:])
    out.extend(j[y:])
    return tuple(out), (1 if swaps % 2 == 0 else -1)


def increasing_tuples(top):
    return [t for n in range(top + 1) for t in combinations(range(1, top + 1), n)]


def test_merge_indices_sign_is_shuffle_parity(rng):
    for _ in range(60):
        n = rng.randint(0, 4)
        m = rng.randint(0, 4)
        pool = rng.sample(range(1, 12), n + m)
        i = tuple(sorted(pool[:n]))
        j = tuple(sorted(pool[n:]))
        got = kernels.merge_indices(i, j)
        assert got is not None
        merged, sign = got
        assert merged == tuple(sorted(i + j))
        assert sign == inversion_sign(i + j)
    # every pair of increasing tuples over 1..7, collisions included
    tuples = increasing_tuples(7)
    collisions = 0
    for i in tuples:
        for j in tuples:
            want = reference_merge_indices(i, j)
            assert kernels.merge_indices(i, j) == want
            collisions += want is None
    assert 0 < collisions < len(tuples) ** 2
    # and a seeded sample over 1..10
    tuples = increasing_tuples(10)
    for _ in range(3000):
        i, j = rng.choice(tuples), rng.choice(tuples)
        assert kernels.merge_indices(i, j) == reference_merge_indices(i, j)


def test_merge_indices_collision():
    assert kernels.merge_indices((1, 3), (3, 5)) is None


def test_wedge_terms_matches_naive(rng):
    for _ in range(20):
        a = random_index_map(rng, degree=rng.randint(1, 3))
        b = random_index_map(rng, degree=rng.randint(1, 3))
        naive = {}
        for ia, ca in a.items():
            for ib, cb in b.items():
                if set(ia) & set(ib):
                    continue
                key = tuple(sorted(ia + ib))
                naive[key] = naive.get(key, 0) + inversion_sign(ia + ib) * ca * cb
        naive = {k: v for k, v in naive.items() if v}
        assert kernels.wedge_terms(a, b) == naive


def test_wedge_collect_folds_to_wedge_terms(rng):
    for _ in range(10):
        a = random_index_map(rng, degree=2)
        b = random_index_map(rng, degree=2)
        collected = kernels.wedge_collect(a, b)
        folded = {}
        for key, bucket in collected.items():
            total = sum(bucket)
            if total:
                folded[key] = total
        assert folded == kernels.wedge_terms(a, b)


def test_poly_mul_matches_tuple_convolution(rng):
    for _ in range(20):
        a = random_exponent_map(rng)
        b = random_exponent_map(rng)
        naive = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                naive[e] = naive.get(e, 0) + ca * cb
        naive = {e: c for e, c in naive.items() if c}
        assert kernels.poly_mul(packed(a), packed(b)) == packed(naive)
    assert kernels.poly_mul({}, packed(a)) == {}


def test_poly_mul_distributes(rng):
    for _ in range(10):
        a = packed(random_exponent_map(rng))
        b = packed(random_exponent_map(rng))
        c = packed(random_exponent_map(rng))
        lhs = kernels.poly_mul(a, kernels.poly_axpy(1, b, 1, c))
        rhs = kernels.poly_axpy(1, kernels.poly_mul(a, b), 1, kernels.poly_mul(a, c))
        assert lhs == rhs


def test_poly_axpy_cancellation():
    a = packed({(1, 0): 3, (0, 1): -2}, width=2)
    assert kernels.poly_axpy(2, a, -2, a) == {}
    assert kernels.poly_axpy(1, a, 1, {}) == a


# -- poly_mul against a reference convolution -----------------------------------


def convolution(a, b):
    """Term-by-term convolution of two packed maps, written apart from
    `poly_mul`: the reference result."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def seeded_map(rng, width, nterms, bits):
    """Packed map of at most `nterms` terms over `width` fields with mixed
    coefficient signs of up to `bits` bits.  Up to three fields spread
    over a few exponents, the others are zero or fixed at one exponent;
    leading fields are zero on a coin flip."""
    lead = rng.randint(1, width - 1) if width > 1 and rng.random() < 0.5 else 0
    spread = set(rng.sample(range(lead, width), min(3, width - lead)))
    fields = []
    for i in range(width):
        if i in spread:
            fields.append((rng.randint(0, 3), rng.randint(1, 6)))
        elif i < lead or rng.random() < 0.5:
            fields.append((0, 0))
        else:
            fields.append((rng.randint(1, 9000), 0))
    out = {}
    for _ in range(nterms):
        e = tuple(lo + rng.randint(0, span) for lo, span in fields)
        out[_pack(e, width)] = rng.choice((-1, 1)) * rng.randint(1, 1 << bits)
    return out


def test_poly_mul_matches_the_convolution(rng):
    pairs = []
    for width in range(1, 9):
        for bits in (3, 65, 193):
            for sizes in ((15, 21), (16, 16), (17, 48), (48, 32)):
                a = seeded_map(rng, width, sizes[0], bits)
                b = seeded_map(rng, width, sizes[1], bits)
                pairs.append((a, b, convolution(a, b)))
    for a, b, want in pairs:
        assert kernels.poly_mul(a, b) == want
        assert kernels.poly_mul(b, a) == want


def test_poly_mul_on_small_and_degenerate_operands(rng):
    big = seeded_map(rng, 3, 40, 200)
    cases = [({0: 5}, {0: -3}), ({0: 1}, big), (big, {0: -(1 << 300)}),
             ({_pack((2, 0, 7), 3): -1}, {_pack((0, 5, 1), 3): 1 << 70}),
             ({_pack((1, 0, 0), 3): 1, 0: -1}, {_pack((1, 0, 0), 3): 1, 0: 1}),
             (big, big)]
    for a, b in cases:
        assert kernels.poly_mul(a, b) == convolution(a, b)
    assert kernels.poly_mul({}, big) == kernels.poly_mul(big, {}) == {}
    assert kernels.poly_mul({}, {}) == {}


# -- the heuristic gcd ----------------------------------------------------------


def primitive(m):
    g = kernels.term_gcd(m)
    return {e: c // g for e, c in m.items()}


def test_poly_gcd_contract(rng):
    """On seeded (G*A, G*B) in 1-3 fields, with mixed signs and monomial
    factors on A and B, a returned divisor is primitive, leads with a
    positive coefficient, carries no monomial factor, and times each
    quotient gives back its map."""
    found = nontrivial = 0
    for _ in range(150):
        width = rng.randint(1, 3)

        def seeded(nterms):
            return {_pack(tuple(rng.randint(0, 2) for _ in range(width)), width):
                    rng.choice((-1, 1)) * rng.randint(1, 30)
                    for _ in range(nterms)}

        def monomial():
            return {_pack(tuple(rng.randint(0, 2) for _ in range(width)), width):
                    rng.choice((-1, 1))}

        g0 = seeded(rng.randint(2, 4))
        a = primitive(kernels.poly_mul(g0, kernels.poly_mul(seeded(3), monomial())))
        b = primitive(kernels.poly_mul(g0, kernels.poly_mul(seeded(3), monomial())))
        if not a or not b:
            continue
        out = kernels.poly_gcd(a, b)
        if out is None:
            continue
        found += 1
        g, qa, qb = out
        assert kernels.term_gcd(g) == 1
        assert g[max(g)] > 0
        exps = [_unpack(e, width) for e in g]
        assert all(min(col) == 0 for col in zip(*exps))
        assert kernels.poly_mul(qa, g) == a
        assert kernels.poly_mul(qb, g) == b
        nontrivial += g != {0: 1}
    assert found >= 140 and nontrivial >= 120, (found, nontrivial)


def test_poly_gcd_of_coprime_maps_and_a_miss():
    """A coprime pair comes back whole under {0: 1}.  (q - p) and
    (p q - 1) both vanish at p = q = 1, so their images share the factor
    xi - 1, which divides neither map: the heuristic misses them."""
    p, q = _pack((1, 0), 2), _pack((0, 1), 2)
    a = {p: 1, 0: 1}
    b = {q: 2, 0: -1}
    assert kernels.poly_gcd(a, b) == ({0: 1}, a, b)
    assert kernels.poly_gcd({q: 1, p: -1}, {p + q: 1, 0: -1}) is None
