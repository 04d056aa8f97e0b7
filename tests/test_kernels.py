"""Backend kernels: pure-Python vs compiled parity, sign oracles."""

import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from splitg2 import _kernels_py as pyk
from splitg2 import kernels

try:
    from splitg2 import _kernels_c as ck
except ImportError:
    ck = None

needs_c = pytest.mark.skipif(ck is None, reason="compiled kernels not built")


def random_exponent_map(rng, width=3, nterms=4):
    out = {}
    for _ in range(nterms):
        e = tuple(rng.randint(0, 3) for _ in range(width))
        c = rng.randint(-20, 20)
        if c:
            out[e] = c
    return out


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


# -- semantics of the pure backend ---------------------------------------------------


def test_term_gcd_oracle(rng):
    for _ in range(20):
        terms = random_exponent_map(rng)
        want = 0
        for c in terms.values():
            want = gcd(want, abs(c))
        assert pyk.term_gcd(terms) == want
    assert pyk.term_gcd({}) == 0


def test_merge_indices_sign_is_shuffle_parity(rng):
    for _ in range(60):
        n = rng.randint(0, 4)
        m = rng.randint(0, 4)
        pool = rng.sample(range(1, 12), n + m)
        i = tuple(sorted(pool[:n]))
        j = tuple(sorted(pool[n:]))
        got = pyk.merge_indices(i, j)
        assert got is not None
        merged, sign = got
        assert merged == tuple(sorted(i + j))
        assert sign == inversion_sign(i + j)


def test_merge_indices_collision():
    assert pyk.merge_indices((1, 3), (3, 5)) is None


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
        assert pyk.wedge_terms(a, b) == naive


def test_wedge_collect_folds_to_wedge_terms(rng):
    for _ in range(10):
        a = random_index_map(rng, degree=2)
        b = random_index_map(rng, degree=2)
        collected = pyk.wedge_collect(a, b)
        folded = {}
        for key, bucket in collected.items():
            total = sum(bucket)
            if total:
                folded[key] = total
        assert folded == pyk.wedge_terms(a, b)


def test_poly_mul_distributes(rng):
    for _ in range(10):
        a = random_exponent_map(rng)
        b = random_exponent_map(rng)
        c = random_exponent_map(rng)
        lhs = pyk.poly_mul(a, pyk.poly_axpy(1, b, 1, c))
        rhs = pyk.poly_axpy(1, pyk.poly_mul(a, b), 1, pyk.poly_mul(a, c))
        assert lhs == rhs


def test_poly_axpy_cancellation():
    a = {(1, 0): 3, (0, 1): -2}
    assert pyk.poly_axpy(2, a, -2, a) == {}
    assert pyk.poly_axpy(1, a, 1, {}) == a


# -- compiled twin parity --------------------------------------------------------------


@needs_c
def test_c_backend_importable():
    assert kernels.backend_name() in ("c", "py")


@needs_c
def test_parity_term_gcd(rng):
    for _ in range(25):
        terms = random_exponent_map(rng)
        assert ck.term_gcd(terms) == pyk.term_gcd(terms)
    assert ck.term_gcd({}) == pyk.term_gcd({})


@needs_c
def test_parity_poly_mul_and_axpy(rng):
    for _ in range(25):
        a = random_exponent_map(rng)
        b = random_exponent_map(rng)
        assert ck.poly_mul(a, b) == pyk.poly_mul(a, b)
        ma = rng.choice((-3, -1, 1, 2, 5))
        mb = rng.choice((-2, -1, 1, 4))
        assert ck.poly_axpy(ma, a, mb, b) == pyk.poly_axpy(ma, a, mb, b)


@needs_c
def test_parity_merge_indices(rng):
    cases = [((), ()), ((1,), ()), ((), (2,)), ((1, 2), (1, 3))]
    for _ in range(60):
        n = rng.randint(0, 4)
        m = rng.randint(0, 4)
        i = tuple(sorted(rng.sample(range(1, 12), n)))
        j = tuple(sorted(rng.sample(range(1, 12), m)))
        cases.append((i, j))
    for i, j in cases:
        assert ck.merge_indices(i, j) == pyk.merge_indices(i, j), (i, j)


@needs_c
def test_parity_wedge(rng):
    for _ in range(25):
        da, db = rng.randint(1, 3), rng.randint(1, 3)
        a = random_index_map(rng, degree=da)
        b = random_index_map(rng, degree=db)
        assert ck.wedge_terms(a, b) == pyk.wedge_terms(a, b)
        got = ck.wedge_collect(a, b)
        want = pyk.wedge_collect(a, b)
        assert {k: sorted(map(str, v)) for k, v in got.items()} == {
            k: sorted(map(str, v)) for k, v in want.items()
        }


@needs_c
def test_parity_wedge_with_polynomial_coefficients(rng):
    from splitg2.scalars import Polynomial

    alphabet = ("a", "q")
    def poly(rng):
        terms = {}
        for _ in range(2):
            terms[(rng.randint(0, 2), rng.randint(0, 2))] = rng.randint(-4, 4)
        return Polynomial.from_terms(alphabet, terms)

    for _ in range(10):
        a = {k: poly(rng) for k in [(1, 2), (3, 4)]}
        b = {k: poly(rng) for k in [(5, 6), (2, 7)]}
        got = ck.wedge_terms(a, b)
        want = pyk.wedge_terms(a, b)
        assert set(got) == set(want)
        for key in got:
            assert (got[key] - want[key]).is_zero()


def test_env_selection_runs_both_lanes():
    import os
    import subprocess
    import sys

    code = (
        "from splitg2 import kernels; print(kernels.backend_name())"
    )
    for lane in ("py", "c"):
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=dict(os.environ, SPLITG2_KERNELS=lane),
        )
        if lane == "c" and proc.returncode != 0:
            pytest.skip("compiled kernels not built")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == lane
