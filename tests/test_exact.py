"""Determinant, rank and kernel over exact rationals.

The Bareiss elimination paths are checked against a naive cofactor expansion
and a Fraction Gaussian elimination defined right here, so the routes stay
independent.
"""
import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

import seaweed
from seaweed import _kernels, liealg
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


def _random_skew(rng, n, bound=50, max_den=1):
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = Fraction(rng.randint(-bound, bound), rng.randint(1, max_den))
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


def test_rational_skew_matrix_takes_the_skew_kernels(monkeypatch):
    # one common denominator keeps the integer rows skew, so det and rank
    # never reach the dense Bareiss loop
    def dense(rows):
        raise AssertionError("dense Bareiss on a skew matrix")

    monkeypatch.setattr(pure, "_bareiss", dense)
    monkeypatch.setattr(pure, "echelon_int", dense)
    rng = random.Random(8)
    for n in range(1, 8):
        for _ in range(4):
            rows = _random_skew(rng, n, bound=9, max_den=4)
            m = RatMatrix.from_rows(rows)
            assert det(m) == cofactor_det(rows)
            assert rank(m) == fraction_rank(rows)


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


@st.composite
def permuted_diagonal_rows(draw, n):
    """P D for a permutation matrix P and a nonzero diagonal D: the dense
    Bareiss loop swaps rows at up to n - 1 steps."""
    rows = [[0] * n for _ in range(n)]
    for i, j in enumerate(draw(st.permutations(range(n)))):
        rows[i][j] = draw(st.integers(-(10**6), 10**6).filter(bool))
    return rows


@st.composite
def triangular_rows(draw, n):
    """Upper triangular with a nonzero diagonal; ``det_inputs``' row
    permutation then puts its pivot rows out of order."""
    rows = [[draw(small) if j > i else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        rows[i][i] = draw(small.filter(bool))
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
            st.integers(1, 12).flatmap(permuted_diagonal_rows).map(lambda r: (r, False)),
            st.integers(1, 12).flatmap(triangular_rows).map(lambda r: (r, False)),
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


weight = st.integers(-5, 5).filter(bool)


def _skew_from_edges(draw, n, edges):
    """The n x n skew matrix with a drawn nonzero a[i][j] = -a[j][i] on each edge."""
    rows = [[0] * n for _ in range(n)]
    for i, j in edges:
        x = draw(weight)
        rows[i][j] = x
        rows[j][i] = -x
    return rows


@st.composite
def tree_skew(draw):
    """A forest's weighted adjacency: a row with one nonzero always exists,
    so every pivot is a peel."""
    n = draw(st.integers(0, 20))
    edges = [(k, draw(st.integers(0, k - 1))) for k in range(1, n) if draw(st.integers(0, 9))]
    return _skew_from_edges(draw, n, edges)


@st.composite
def leafless_skew(draw):
    """A cycle through every index plus chords: every row starts with two
    or more nonzeros, so the elimination opens with 2 x 2 steps."""
    n = draw(st.integers(3, 16))
    edges = {(k, (k + 1) % n) for k in range(n)}
    for _ in range(draw(st.integers(0, 2 * n))):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        if (j, i) not in edges:
            edges.add((i, j))
    return _skew_from_edges(draw, n, sorted(edges))


@st.composite
def bridged_triangles_skew(draw):
    """Triangles {0, 1, 2} and {3, 4, 5} joined by the edge 2-3. The step on
    a degree-2 pair of one triangle leaves its third index a leaf; peeling
    it with 3 (or 2) leaves the other triangle's two stale rows as leaves."""
    edges = [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)]
    return _skew_from_edges(draw, 6, edges)


@st.composite
def low_rank_skew(draw):
    """Sum of r < n/2 terms u v^T - v u^T, an even-sized skew matrix of rank
    at most 2r < n, so det = 0."""
    n = 2 * draw(st.integers(2, 6))
    rows = [[0] * n for _ in range(n)]
    vec = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    for _ in range(draw(st.integers(1, n // 2 - 1))):
        u, v = draw(vec), draw(vec)
        for i in range(n):
            for j in range(n):
                rows[i][j] += u[i] * v[j] - v[i] * u[j]
    return rows


SKEW_FAMILIES = {
    "tree": tree_skew(),
    "leafless": leafless_skew(),
    "triangles": bridged_triangles_skew(),
    "low_rank": low_rank_skew(),
}


@st.composite
def skew_det_inputs(draw):
    """(rows, family): one permutation applied to rows and columns alike, so
    the matrix stays skew; "near" changes one entry of a skew matrix, which
    leaves it not skew."""
    family = draw(st.sampled_from([*SKEW_FAMILIES, "near"]))
    if family == "near":
        rows = draw(st.one_of(tree_skew(), leafless_skew()))
        assume(rows)
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        rows[i][j] += draw(weight)
    else:
        rows = draw(SKEW_FAMILIES[family])
    n = len(rows)
    perm = draw(st.permutations(range(n)))
    return [[rows[i][j] for j in perm] for i in perm], family


def _is_skew(rows):
    return all(rows[i][j] == -rows[j][i] for i in range(len(rows)) for j in range(len(rows)))


@settings(max_examples=300, deadline=None)
@given(skew_det_inputs())
def test_skew_det_is_the_pfaffian_squared(case):
    rows, family = case
    snapshot = [r[:] for r in rows]
    got = pure.det_int(rows)
    assert got == reference_det(rows)
    assert _is_skew(rows) is (family != "near")
    if family != "near":
        assert got == 0 if len(rows) % 2 else isqrt(got) ** 2 == got
    if family == "low_rank":
        assert got == 0
    assert rows == snapshot


def test_skew_det_peels_a_stale_row_after_a_step():
    # bridged triangles with a[0][1] = 3: the step on (0, 1) leaves prev = 3,
    # row 2 a leaf of 3, and rows 3, 4, 5 at stamp 1; after 2 and 3 are
    # peeled, row 4 or 5 is a leaf whose stored entry is a third of its value
    rows = [[0] * 6 for _ in range(6)]
    for (i, j), x in {(0, 1): 3, (0, 2): 1, (1, 2): 2, (2, 3): 5, (3, 4): 1,
                      (3, 5): -1, (4, 5): 7}.items():
        rows[i][j] = x
        rows[j][i] = -x
    # the only perfect matching is {01, 23, 45}
    assert pure.det_int(rows) == (3 * 5 * 7) ** 2 == fraction_det(rows)


# ---------------------------------------------------------------------------
# rank kernels: the exact skew elimination and the packed mod-p rank
# ---------------------------------------------------------------------------

ORACLE_PRIME = liealg._PRIME


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


# no shrink phase: shrinking a failing 30 x 30 draw takes about a minute, and
# the unshrunk draw already names the kernel at fault
@settings(
    max_examples=300, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate)
)
@given(rank_inputs())
def test_rank_kernels_match_fraction_rank(case):
    rows, skew = case
    snapshot = [r[:] for r in rows]
    assert pure._is_skew(rows) == skew
    expected = fraction_rank(rows)
    assert pure.rank_int(rows) == expected
    assert len(pure.echelon_int(rows)[1]) == expected
    if skew:
        assert pure.rank_mod(rows, ORACLE_PRIME) == modp_rank(rows, ORACLE_PRIME)
    else:
        with pytest.raises(ValueError, match="not skew"):
            pure.rank_mod(rows, ORACLE_PRIME)
    assert rows == snapshot


def _wedge(a, u, v):
    """a += u v^T - v u^T, a rank-2 skew term."""
    for k, row in enumerate(a):
        for l in range(len(row)):
            row[l] += u[k] * v[l] - v[k] * u[l]


def _planted(rng):
    """planted_skew's matrix, with its pivot partner s and each other row's
    form: {k: "P" | "Q" | "both" | "neither"} for k not in {n-1, s}."""
    n = rng.randint(6, 18)
    s = rng.randint(4, n - 2)
    bound = rng.choice([3, 10**6])

    def nonzero():
        return rng.choice([-1, 1]) * rng.randint(1, bound)

    forms = ["P", "Q", "both", "neither"]
    forms += [rng.choice(forms) for _ in range(s - 4)]
    rng.shuffle(forms)
    forms += [rng.choice(["Q", "neither"]) for _ in range(s + 1, n - 1)]
    others = [k for k in range(n - 1) if k != s]
    y = [0] * n
    z = [0] * n
    for k, form in zip(others, forms):
        if form in ("P", "both"):
            y[k] = nonzero()
        if form in ("Q", "both"):
            z[k] = nonzero()
    y[s] = rng.choice([-1, 1]) * rng.randint(2, max(2, bound))
    zero = {k for k, form in zip(others, forms) if form == "neither" and rng.random() < 0.5}
    live = [k for k in others if k not in zero]
    a = [[0] * n for _ in range(n)]
    for _ in range(rng.randint(0, len(live) // 2)):
        u = [0] * n
        v = [0] * n
        for k in live:
            if rng.random() < 0.4:
                u[k] = nonzero()
            if rng.random() < 0.4:
                v[k] = nonzero()
        _wedge(a, u, v)
    e = [0] * n
    e[n - 1] = 1
    _wedge(a, e, y)
    e = [0] * n
    e[s] = 1
    _wedge(a, e, z)
    return a, s, dict(zip(others, forms)), zero


@st.composite
def planted_skew(draw):
    """A skew matrix whose first pivot step in ``_skew_rank`` meets every
    row update form, on a low-rank remainder.

    The last index n-1 pivots with s, the last nonzero of its row. With
    a = e(n-1) ^ y + e(s) ^ z + R, where R is a few sparse rank-2 terms that
    vanish on n-1 and s, row n-1 is y and row s is z away from n-1 and s, so
    y[k] and z[k] are P[k] and Q[k]. Below s the rows get P only, Q only,
    both and neither (a rescale by the pivot |y[s]| >= 2); above s, where
    y is zero by the choice of s, Q only or neither. Some rows of the
    "neither" kind are zero rows, and the remainder's own pivots meet the
    forms again at random."""
    a, _, _, zero = _planted(draw(st.randoms(use_true_random=False)))
    return a, zero


@st.composite
def stale_skew(draw):
    """planted_skew's matrix on the indices below h, under m >= 2 pivot
    pairs that ``_skew_rank`` takes first, so that rows skipped for two or
    more steps are read at each place the kernel reads a row.

    Pair t is (h+2t+1, h+2t) with a pivot entry of size >= 2, taken from the
    top down. Its upper index is coupled to a few rows below h and its lower
    index to nothing else, so a step updates those rows (by a scale, without
    fill, which keeps the planted part's rank) and skips every other row:
    the skipped ones keep their stamps. No pair touches the planted pivot
    row h-1, its partner s, one row below s that the planted step updates,
    or one Q-only row above s when there is one. These are read stale after
    all m steps: as the pivot row, as the partner row, when updated, and
    through Q's column tail. Each later pair's own rows are read stale as
    pivot and partner rows, and the coupled rows reach the planted step
    with stamps of every age. Returns (rows, the untouched planted rows,
    h)."""
    rng = draw(st.randoms(use_true_random=False))
    planted, s, form, _ = _planted(rng)
    h = len(planted)
    m = rng.randint(2, 4)
    n = h + 2 * m
    bound = rng.choice([3, 10**6])
    keep = {h - 1, s, rng.choice([k for k in form if k < s and form[k] != "neither"])}
    above = [k for k in form if k > s and form[k] == "Q"]
    if above:
        keep.add(rng.choice(above))
    coupled = [k for k in range(h) if k not in keep]
    a = [row + [0] * (2 * m) for row in planted] + [[0] * n for _ in range(2 * m)]
    for t in range(m):
        x, y = h + 2 * t + 1, h + 2 * t
        c = rng.choice([-1, 1]) * rng.randint(2, max(2, bound))
        a[x][y], a[y][x] = c, -c
        for k in rng.sample(coupled, rng.randint(0, min(3, len(coupled)))):
            v = rng.choice([-1, 1]) * rng.randint(1, bound)
            a[x][k], a[k][x] = v, -v
    return a, keep, h


@settings(max_examples=200, deadline=None)
@given(planted_skew())
def test_skew_rank_update_forms_match_fraction_rank(case):
    rows, zero = case
    snapshot = [r[:] for r in rows]
    assert pure._is_skew(rows)
    assert all(not any(rows[k]) for k in zero)
    assert pure.rank_int(rows) == fraction_rank(rows)
    assert rows == snapshot


@settings(max_examples=300, deadline=None)
@given(stale_skew())
def test_skew_rank_reads_stale_rows_at_their_true_scale(case):
    """Rows that pivot steps only rescale keep a stamp in ``_skew_rank``
    and are scaled when read; a read that skips that scale breaks the exact
    division or the congruence, and with it the rank."""
    rows, keep, h = case
    assert pure._is_skew(rows)
    assert all(not any(rows[k][h:]) for k in keep)
    snapshot = [r[:] for r in rows]
    assert pure.rank_int(rows) == fraction_rank(rows)
    assert rows == snapshot


def _permuted(rng, rows):
    """P A P^T for a random permutation matrix P."""
    perm = list(range(len(rows)))
    rng.shuffle(perm)
    return [[rows[i][j] for j in perm] for i in perm]


@settings(max_examples=150, deadline=None)
@given(planted_skew(), st.randoms(use_true_random=False))
def test_both_ranks_survive_a_simultaneous_permutation_of_planted_input(case, rng):
    """The index oracle eliminates in a basis order of its choosing: a
    congruence, which keeps the rank over Q and mod p."""
    rows, _ = case
    moved = _permuted(rng, rows)
    assert pure.rank_int(moved) == pure.rank_int(rows) == fraction_rank(rows)
    assert pure.rank_mod(moved, ORACLE_PRIME) == pure.rank_mod(rows, ORACLE_PRIME)


# Small p, where the rank mod p is often below the rational rank, the index
# oracle's 2^24 - 3, the previous oracle prime 2^27 - 39, and 679093949, the
# largest prime whose slots fit one 64-bit word at 40 rows, so that the slots
# of the largest inputs run close to the word's bound.
MOD_PRIMES = (2, 3, 5, 7, 65537, 2**24 - 3, 2**27 - 39, 679093949)


def modp_rank(rows, p):
    """Rank mod p by plain row reduction over the residues."""
    a = [[x % p for x in row] for row in rows]
    rank = 0
    for c in range(len(a[0]) if a else 0):
        piv = next((r for r in range(rank, len(a)) if a[r][c]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = pow(a[rank][c], -1, p)
        for r in range(rank + 1, len(a)):
            f = a[r][c] * inv % p
            if f:
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank


@st.composite
def modp_rank_inputs(draw):
    """(rows, p): skew matrices of size 0-40, sparse to fully dense, of full
    or low rank. Entries are often multiples of p or one below them (residue
    p - 1, the largest), next to entries of any size and sign."""
    p = draw(st.sampled_from(MOD_PRIMES))
    rng = draw(st.randoms(use_true_random=False))
    density = rng.choice([1.0, 1.0, rng.random()])

    def entry():
        if rng.random() >= density:
            return 0
        kind = rng.random()
        if kind < 0.2:
            return p * rng.randint(-2, 2)
        if kind < 0.5:
            return p * rng.randint(-2, 2) - 1
        return rng.randint(-(p**2), p**2)

    n = rng.randint(0, 40)
    a = [[0] * n for _ in range(n)]
    if n and rng.random() < 0.3:
        # a sum of a few rank-2 skew terms u v^T - v u^T
        for _ in range(rng.randint(1, max(1, n // 4))):
            u = [entry() for _ in range(n)]
            v = [entry() for _ in range(n)]
            for i in range(n):
                for j in range(n):
                    a[i][j] += u[i] * v[j] - v[i] * u[j]
    else:
        for i in range(n):
            for j in range(i + 1, n):
                a[i][j] = entry()
                a[j][i] = -a[i][j]
    return a, p


@settings(max_examples=300, deadline=None)
@given(modp_rank_inputs())
def test_rank_mod_matches_modp_row_reduction(case):
    rows, p = case
    snapshot = [r[:] for r in rows]
    assert pure.rank_mod(rows, p) == modp_rank(rows, p)
    assert rows == snapshot


@settings(max_examples=100, deadline=None)
@given(modp_rank_inputs(), st.randoms(use_true_random=False))
def test_both_ranks_survive_a_simultaneous_permutation_of_modp_input(case, rng):
    rows, p = case
    moved = _permuted(rng, rows)
    assert pure.rank_mod(moved, p) == pure.rank_mod(rows, p)
    assert pure.rank_int(moved) == pure.rank_int(rows)


def test_rank_mod_reads_a_slot_past_2_63():
    """Three pivot pairs (7, 6), (5, 4), (3, 2) each add 2 (p-1)^2 to row 1's
    slot 0, the largest a step can add, at p = 1518500213, the largest prime
    whose slots fit one word at 8 rows. The slot is 0 mod p, so row 1 is a
    zero row and the rank is 6, but it is read at 6 (p-1)^2 + p - 6 >= 2^63:
    a signed or narrower slot gives another rank."""
    p = 1518500213
    assert (p - 1) + 8 * (p - 1) ** 2 < 2**64
    assert 6 * (p - 1) ** 2 + p - 6 >= 2**63
    upper = {(1, 0): -6}
    for i in (7, 5, 3):
        j = i - 1
        upper.update({(i, j): 1, (i, 0): -1, (i, 1): 1, (j, 0): -1, (j, 1): -1})
    rows = [[0] * 8 for _ in range(8)]
    for (i, j), x in upper.items():
        rows[i][j] = x
        rows[j][i] = -x
    assert pure.rank_mod(rows, p) == modp_rank(rows, p) == 6


# ---------------------------------------------------------------------------
# the kernel path
# ---------------------------------------------------------------------------

def test_kernels_are_the_pure_functions():
    assert seaweed.BACKEND == "pure"
    for name in ("det_int", "echelon_int", "rank_int", "rank_mod"):
        assert getattr(_kernels, name) is getattr(pure, name)


def test_rank_mod_matches_exact_rank_on_small_entries():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(1, 12)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rng.randint(-40, 40) * (rng.random() < 0.6)
                rows[j][i] = -rows[i][j]
        assert pure.rank_mod(rows, ORACLE_PRIME) == pure.rank_int(rows)
    with pytest.raises(ValueError, match="not skew"):
        pure.rank_mod([[1, 2], [3, 4]], ORACLE_PRIME)


def test_kernels_do_not_mutate_input():
    skew = [[0, 2, -1, 0], [-2, 0, 3, 1], [1, -3, 0, 4], [0, -1, -4, 0]]
    for rows in ([[1, 2], [3, 4]], skew):
        snapshot = [r[:] for r in rows]
        pure.det_int(rows)
        pure.rank_int(rows)
        pure.echelon_int(rows)
        if rows is skew:
            pure.rank_mod(rows, ORACLE_PRIME)
        else:
            with pytest.raises(ValueError):
                pure.rank_mod(rows, ORACLE_PRIME)
        assert rows == snapshot
