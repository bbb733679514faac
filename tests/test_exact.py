"""Determinant, rank and kernel over exact rationals.

The Bareiss elimination paths are checked against a naive cofactor expansion
and a Fraction Gaussian elimination defined right here, so the routes stay
independent.
"""
import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seaweed
from seaweed import _kernels
from seaweed._kernels import pure
from seaweed.exact import RatMatrix, det, inverse, kernel_basis, rank


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
# sparse determinant kernel
# ---------------------------------------------------------------------------

def fraction_det(rows):
    """Gaussian elimination over Fractions, first nonzero entry as pivot."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    d = Fraction(1)
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k]), None)
        if p is None:
            return Fraction(0)
        if p != k:
            a[k], a[p] = a[p], a[k]
            d = -d
        d *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            if f:
                for j in range(k, n):
                    a[i][j] -= f * a[k][j]
    return d


def reference_det(rows):
    return cofactor_det(rows) if len(rows) <= 6 else fraction_det(rows)


small = st.integers(-3, 3)


@st.composite
def sparse_rows(draw, n):
    """0-4 nonzeros per row, entries in [-3, 3], often on the whole diagonal."""
    nonzero = small.filter(bool)
    diagonal = draw(st.booleans())
    rows = []
    for i in range(n):
        row = [0] * n
        entries = st.dictionaries(st.integers(0, n - 1), nonzero, max_size=4 - diagonal)
        for c, x in draw(entries).items():
            row[c] = x
        if diagonal:
            row[i] = draw(nonzero)
        rows.append(row)
    return rows


def dense_rows(n):
    big = st.integers(-(10**6), 10**6)
    return st.lists(st.lists(big, min_size=n, max_size=n), min_size=n, max_size=n)


@st.composite
def bordered_skew_rows(draw, m):
    """[[0, v^T], [-v, S]] with S skew, the shape of a bordered Kirillov matrix."""
    v = draw(st.lists(small, min_size=m, max_size=m))
    rows = [[0, *v]] + [[-x] + [0] * m for x in v]
    for _ in range(draw(st.integers(0, 2 * m))):
        i, j = draw(st.lists(st.integers(1, m), min_size=2, max_size=2, unique=True))
        x = draw(small)
        rows[i][j] = x
        rows[j][i] = -x
    return rows


@st.composite
def singular_rows(draw, n):
    """A repeated row or a zero column in a sparse or dense matrix."""
    rows = draw(st.one_of(sparse_rows(n), dense_rows(n)))
    i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    if draw(st.booleans()):
        rows[j] = rows[i][:]
    else:
        for row in rows:
            row[j] = 0
    return rows


@st.composite
def det_inputs(draw):
    """(rows, singular) with a random row and column permutation applied."""
    rows, singular = draw(
        st.one_of(
            st.integers(0, 30).flatmap(sparse_rows).map(lambda r: (r, False)),
            st.integers(0, 12).flatmap(dense_rows).map(lambda r: (r, False)),
            st.integers(2, 25).flatmap(bordered_skew_rows).map(lambda r: (r, False)),
            st.integers(2, 14).flatmap(singular_rows).map(lambda r: (r, True)),
        )
    )
    n = len(rows)
    rp = draw(st.permutations(range(n)))
    cp = draw(st.permutations(range(n)))
    return [[rows[i][j] for j in cp] for i in rp], singular


@settings(max_examples=300, deadline=None)
@given(det_inputs())
def test_sparse_det_matches_independent_references(case):
    rows, singular = case
    snapshot = [r[:] for r in rows]
    got = pure.det_int(rows)
    assert got == reference_det(rows)
    if singular:
        assert got == 0
    assert rows == snapshot


# ---------------------------------------------------------------------------
# rank kernels: the skew-symmetric elimination and the embedding
# ---------------------------------------------------------------------------

MOD_PRIME = 2147483647


def fraction_rank(rows):
    """Gaussian elimination over Fractions: the number of pivot columns."""
    a = [[Fraction(x) for x in row] for row in rows]
    m = len(a[0]) if a else 0
    r = 0
    for c in range(m):
        p = next((i for i in range(r, len(a)) if a[i][c]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        for i in range(r + 1, len(a)):
            f = a[i][c] / a[r][c]
            if f:
                for j in range(c, m):
                    a[i][j] -= f * a[r][j]
        r += 1
    return r


def _random_skew_rows(rng, n):
    """Entries in [-3, 3] or +-10^6 at a random density, or a low-rank sum of
    u v^T - v u^T. Sparse u, v leave rows that a pivot step does not touch
    next to rows that it does, where a rank that is not full exposes any
    update that is not a congruence."""
    a = [[0] * n for _ in range(n)]
    kind = rng.choice(["small", "big", "low"])
    density = rng.random() / (2 if kind == "low" else 1)

    def entry(bound):
        return rng.randint(-bound, bound) if rng.random() < density else 0

    if kind == "low":
        for _ in range(rng.randint(2, max(2, n // 3))):
            u = [entry(9) for _ in range(n)]
            v = [entry(9) for _ in range(n)]
            for i in range(n):
                for j in range(n):
                    a[i][j] += u[i] * v[j] - v[i] * u[j]
    else:
        bound = 3 if kind == "small" else 10**6
        for i in range(n):
            for j in range(i + 1, n):
                a[i][j] = entry(bound)
                a[j][i] = -a[i][j]
    perm = list(range(n))
    rng.shuffle(perm)
    return [[a[i][j] for j in perm] for i in perm]


@st.composite
def rank_inputs(draw):
    """(rows, skew): skew matrices of size 0-30 under a symmetric permutation,
    near-skew ones (one entry off, or a nonzero diagonal) and rectangular
    ones, half of them of low rank."""
    rng = draw(st.randoms(use_true_random=False))
    kind = draw(st.sampled_from(["skew", "skew", "near", "rect"]))
    if kind == "rect":
        r, c = rng.sample(range(1, 13), 2)
        inner = rng.randint(1, min(r, c)) if rng.random() < 0.5 else None
        if inner is None:
            bound = rng.choice([3, 10**6])
            rows = [[rng.randint(-bound, bound) * (rng.random() < 0.5) for _ in range(c)]
                    for _ in range(r)]
        else:
            b = [[rng.randint(-3, 3) for _ in range(inner)] for _ in range(r)]
            d = [[rng.randint(-3, 3) for _ in range(c)] for _ in range(inner)]
            rows = [[sum(x * y for x, y in zip(row, col)) for col in zip(*d)] for row in b]
        return rows, False
    rows = _random_skew_rows(rng, rng.randint(0 if kind == "skew" else 1, 30))
    if kind == "near":
        i = rng.randrange(len(rows))
        j = i if rng.random() < 0.5 else rng.randrange(len(rows))
        rows[i][j] += rng.choice([-1, 1]) * rng.randint(1, 10**6)
    return rows, kind == "skew"


@settings(max_examples=300, deadline=None)
@given(rank_inputs())
def test_rank_kernels_match_fraction_rank(case):
    rows, skew = case
    snapshot = [r[:] for r in rows]
    assert pure._is_skew(rows) == skew
    expected = fraction_rank(rows)
    assert pure.rank_int(rows) == expected
    assert pure.rank_mod(rows, MOD_PRIME) == expected
    assert rows == snapshot


# ---------------------------------------------------------------------------
# the kernel path
# ---------------------------------------------------------------------------

def test_kernels_are_the_pure_functions():
    assert seaweed.BACKEND == "pure"
    for name in ("det_int", "echelon_int", "rank_int", "rank_mod"):
        assert getattr(_kernels, name) is getattr(pure, name)


def _random_int_rows(rng, r, c, bound=10**6):
    return [[rng.randint(-bound, bound) for _ in range(c)] for _ in range(r)]


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
