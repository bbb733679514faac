"""Determinant, rank and kernel over exact rationals.

The Bareiss elimination path is checked against a naive cofactor expansion
defined right here, so the two routes stay independent.
"""
import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seaweed._kernels import pure
from seaweed.exact import RatMatrix, det, inverse, kernel_basis, rank

try:
    from seaweed._kernels import _fast
except ImportError:
    _fast = None


def cofactor_det(rows):
    """Textbook Laplace expansion along the first row."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for c in range(n):
        if rows[0][c] == 0:
            continue
        minor = [r[:c] + r[c + 1 :] for r in rows[1:]]
        sign = -1 if c % 2 else 1
        total += sign * Fraction(rows[0][c]) * cofactor_det(minor)
    return total


rational = st.fractions(
    min_value=Fraction(-30), max_value=Fraction(30), max_denominator=6
)


def square_matrix(side):
    return st.lists(
        st.lists(rational, min_size=side, max_size=side), min_size=side, max_size=side
    )


# ---------------------------------------------------------------------------
# determinant
# ---------------------------------------------------------------------------

def test_det_of_two_by_two():
    assert det(RatMatrix.from_rows([[1, 2], [3, 4]])) == -2


def test_det_with_fractions():
    m = RatMatrix.from_rows(
        [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 5)]]
    )
    assert det(m) == Fraction(1, 60)


def test_det_identity_and_empty():
    assert det(RatMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 1
    assert det(RatMatrix(0, 0, ())) == 1


def test_det_rejects_non_square():
    with pytest.raises(ValueError):
        det(RatMatrix.from_rows([[1, 2, 3], [4, 5, 6]]))


def test_det_singular():
    assert det(RatMatrix.from_rows([[1, 2], [2, 4]])) == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(square_matrix))
def test_det_matches_cofactor_expansion(rows):
    assert det(RatMatrix.from_rows(rows)) == cofactor_det(rows)


def _random_skew(rng, n, bound=50):
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = Fraction(rng.randint(-bound, bound))
            rows[i][j] = v
            rows[j][i] = -v
    return rows


def test_skew_odd_determinant_vanishes():
    rng = random.Random(5)
    for n in (1, 3, 5, 7, 9):
        for _ in range(5):
            assert det(RatMatrix.from_rows(_random_skew(rng, n))) == 0


def test_skew_even_determinant_is_a_perfect_square():
    rng = random.Random(6)
    for n in (2, 4, 6, 8, 10):
        for _ in range(5):
            d = det(RatMatrix.from_rows(_random_skew(rng, n)))
            assert d >= 0
            assert isqrt(d.numerator) ** 2 == d.numerator
            assert isqrt(d.denominator) ** 2 == d.denominator


# ---------------------------------------------------------------------------
# rank and kernel
# ---------------------------------------------------------------------------

def test_rank_examples():
    assert rank(RatMatrix.from_rows([[1, 2], [2, 4]])) == 1
    assert rank(RatMatrix.from_rows([[0, 0], [0, 0]])) == 0
    assert rank(RatMatrix.from_rows([[1, 0], [0, 1]])) == 2
    assert rank(RatMatrix.from_rows([[1, 2, 3], [4, 5, 6]])) == 2
    # a Kirillov matrix with a one-dimensional kernel
    assert rank(RatMatrix.from_rows([[0, 1, 1], [-1, 0, 0], [-1, 0, 0]])) == 2


def test_kernel_simple_line():
    kb = kernel_basis(RatMatrix.from_rows([[1, 2], [2, 4]]))
    assert kb == [(2, -1)]


def test_kernel_of_zero_matrix_is_standard_basis():
    kb = kernel_basis(RatMatrix.from_rows([[0, 0, 0], [0, 0, 0], [0, 0, 0]]))
    assert kb == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda r: st.integers(1, 5).flatmap(
            lambda c: st.lists(
                st.lists(rational, min_size=c, max_size=c), min_size=r, max_size=r
            )
        )
    )
)
def test_rank_plus_nullity_and_kernel_membership(rows):
    m = RatMatrix.from_rows(rows)
    kb = kernel_basis(m)
    assert rank(m) + len(kb) == m.cols
    for vec in kb:
        for r in rows:
            assert sum(Fraction(a) * b for a, b in zip(r, vec)) == 0
        # normalization: integer entries, no common factor, positive leading
        lead = next(x for x in vec if x != 0)
        assert lead > 0
        assert all(x == int(x) for x in vec)


def test_kernel_vectors_are_primitive():
    kb = kernel_basis(RatMatrix.from_rows([[Fraction(1, 3), Fraction(2, 3)]]))
    assert kb == [(2, -1)]


# ---------------------------------------------------------------------------
# inverse
# ---------------------------------------------------------------------------

def test_inverse_examples():
    assert inverse(RatMatrix.from_rows([[1, 0], [0, 1]])) == RatMatrix.from_rows(
        [[1, 0], [0, 1]]
    )
    assert inverse(RatMatrix.from_rows([[0, 2], [4, 0]])) == RatMatrix.from_rows(
        [[0, Fraction(1, 4)], [Fraction(1, 2), 0]]
    )
    assert inverse(RatMatrix.from_rows([[1, 2], [2, 4]])) is None
    assert inverse(RatMatrix(0, 0, ())) == RatMatrix(0, 0, ())
    with pytest.raises(ValueError):
        inverse(RatMatrix.from_rows([[1, 2, 3], [4, 5, 6]]))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(square_matrix))
def test_inverse_exists_exactly_when_det_is_nonzero(rows):
    inv = inverse(RatMatrix.from_rows(rows))
    assert (inv is None) == (cofactor_det(rows) == 0)
    if inv is not None:
        n = len(rows)
        for i in range(n):
            for j in range(n):
                entry = sum(Fraction(rows[i][k]) * inv.at(k, j) for k in range(n))
                assert entry == (1 if i == j else 0)


# ---------------------------------------------------------------------------
# backend parity
# ---------------------------------------------------------------------------

def _random_int_rows(rng, r, c, bound=10**6):
    return [[rng.randint(-bound, bound) for _ in range(c)] for _ in range(r)]


@pytest.mark.skipif(_fast is None, reason="compiled backend not built")
def test_pure_and_compiled_backends_agree():
    rng = random.Random(99)
    for _ in range(10):
        r = rng.randint(1, 8)
        c = rng.randint(1, 8)
        rect = _random_int_rows(rng, r, c)
        sq = _random_int_rows(rng, r, r)
        assert pure.det_int(sq) == _fast.det_int(sq)
        assert pure.rank_int(rect) == _fast.rank_int(rect)
        assert pure.echelon_int(rect) == _fast.echelon_int(rect)
        p = 2147483647
        assert pure.rank_mod(rect, p) == _fast.rank_mod(rect, p)


def test_rank_mod_matches_exact_rank_on_small_entries():
    rng = random.Random(7)
    p = 2147483647
    for _ in range(20):
        rows = _random_int_rows(rng, rng.randint(1, 7), rng.randint(1, 7), bound=40)
        assert pure.rank_mod(rows, p) == pure.rank_int(rows)


def test_kernels_do_not_mutate_input():
    rows = [[1, 2], [3, 4]]
    snapshot = [r[:] for r in rows]
    pure.det_int(rows)
    pure.rank_int(rows)
    pure.echelon_int(rows)
    pure.rank_mod(rows, 2147483647)
    assert rows == snapshot


def test_seaweed_pure_env_forces_fallback():
    import os
    import subprocess
    import sys

    probe = "import seaweed; print(seaweed.BACKEND)"
    env = dict(os.environ, SEAWEED_PURE="1")
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True
    )
    assert out.stdout.strip() == "pure"
    env.pop("SEAWEED_PURE")
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True
    )
    expected = "pure" if _fast is None else "compiled"
    assert out.stdout.strip() == expected
