"""Structure-constant algebras: brackets, Kirillov form, index, contactness.

The exterior-algebra volume coefficient is checked against an in-test
Pfaffian oracle (recursive expansion), which pins both its square relation
to the bordered determinant and its sign.
"""
import random
from fractions import Fraction
from math import factorial

import pytest

from seaweed import _kernels, liealg
from seaweed.exact import RatMatrix, det, kernel_basis, rank
from seaweed.liealg import (
    SAMPLE_BOUND,
    CoeffForm,
    ContactWitness,
    LieAlgebra,
    ParityError,
    ProbablyNotContact,
    bhat_det,
    bracket,
    contact_search_randomized,
    index_randomized,
    jacobi_check,
    kirillov_matrix,
    squared_identity_holds,
    wedge_volume_coefficient,
)
from seaweed.standard_form import SeaweedSpec, materialize, spec_pairs


def sl2() -> LieAlgebra:
    return LieAlgebra.from_table(
        3, ["h", "e", "f"], {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}}
    )


def sl2_half() -> LieAlgebra:
    """sl(2) in the basis (2h, e, f): [e, f] = 1/2 (2h), a non-integral table."""
    return LieAlgebra.from_table(
        3,
        ["2h", "e", "f"],
        {(0, 1): {1: 4}, (0, 2): {2: -4}, (1, 2): {0: Fraction(1, 2)}},
    )


def abelian(d: int) -> LieAlgebra:
    return LieAlgebra.from_table(d, [f"a{i}" for i in range(d)], {})


def rational_form(rng, dim):
    """phi with numerators in [-6, 6] and denominators 1..4."""
    return CoeffForm.from_values(
        [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(dim)]
    )


def pfaffian(rows):
    """Recursive expansion along the first row; sign convention of the
    canonical 2x2 block [[0, a], [-a, 0]] -> a."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n % 2:
        return Fraction(0)
    if n == 2:
        return Fraction(rows[0][1])
    total = Fraction(0)
    for j in range(1, n):
        a = rows[0][j]
        if a == 0:
            continue
        keep = [i for i in range(1, n) if i != j]
        minor = [[rows[r][c] for c in keep] for r in keep]
        total += (1 if j % 2 else -1) * Fraction(a) * pfaffian(minor)
    return total


def bhat_rows(L, phi):
    """The bordered matrix itself, for oracles that need more than its det.

    Built in Fractions straight from the structure constants, so it shares
    no code with kirillov_matrix or bhat_det and can serve as their reference.
    """
    co = phi.coefficients
    rows = [[Fraction(0), *co]]
    for i in range(L.dim):
        row = [-co[i]]
        for j in range(L.dim):
            row.append(sum((c * co[k] for k, c in L.bracket_coeffs(i, j)), Fraction(0)))
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# table plumbing
# ---------------------------------------------------------------------------

def test_from_table_drops_zeros_and_sorts():
    L = LieAlgebra.from_table(2, ["a", "b"], {(0, 1): {0: 0, 1: 3}})
    assert L.table == ((0, 1, ((1, Fraction(3)),)),)


def test_bracket_coeffs_antisymmetric():
    L = sl2()
    assert L.bracket_coeffs(0, 1) == ((1, Fraction(2)),)
    assert L.bracket_coeffs(1, 0) == ((1, Fraction(-2)),)
    assert L.bracket_coeffs(1, 1) == ()


def test_table_validation():
    with pytest.raises(ValueError):
        LieAlgebra.from_table(2, ["a"], {})
    with pytest.raises(ValueError):
        LieAlgebra.from_table(2, ["a", "b"], {(1, 0): {0: 1}})
    with pytest.raises(ValueError):
        LieAlgebra.from_table(2, ["a", "b"], {(0, 3): {0: 1}})


def test_json_round_trip():
    L = sl2()
    assert LieAlgebra.from_json(L.to_json()) == L


def test_bracket_bilinear_and_antisymmetric(three_dim_solvable):
    L = three_dim_solvable
    rng = random.Random(3)
    for _ in range(20):
        x, y = ([rng.randint(-5, 5) for _ in range(3)] for _ in "xy")
        xy = bracket(L, x, y)
        yx = bracket(L, y, x)
        assert [a + b for a, b in zip(xy, yx)] == [0, 0, 0]
        double = bracket(L, [2 * v for v in x], y)
        assert double == [2 * v for v in xy]


def test_bracket_golden(three_dim_solvable):
    # [e1, e2] = e2
    assert bracket(three_dim_solvable, [1, 0, 0], [0, 1, 0]) == [0, 1, 0]


# ---------------------------------------------------------------------------
# Jacobi
# ---------------------------------------------------------------------------

def test_jacobi_passes_for_good_tables(three_dim_solvable, heisenberg5):
    assert jacobi_check(sl2()) == []
    assert jacobi_check(three_dim_solvable) == []
    assert jacobi_check(heisenberg5) == []
    assert jacobi_check(abelian(4)) == []


def test_jacobi_flags_corrupted_table():
    # like the solvable algebra but with [e2, e3] = e2 forced in
    bad = LieAlgebra.from_table(
        3, ["e1", "e2", "e3"], {(0, 1): {1: 1}, (0, 2): {2: 1}, (1, 2): {1: 1}}
    )
    assert jacobi_check(bad) == [(0, 1, 2)]


# ---------------------------------------------------------------------------
# Kirillov form and index
# ---------------------------------------------------------------------------

def test_kirillov_matrix_golden(three_dim_solvable):
    phi = CoeffForm.from_values([5, 7, 11])
    B = kirillov_matrix(three_dim_solvable, phi)
    assert B.to_rows() == [[0, 7, 11], [-7, 0, 0], [-11, 0, 0]]
    assert B.is_skew_symmetric()
    # a rational phi over a table with a half-integer structure constant
    phi = CoeffForm.from_values([Fraction(1, 3), Fraction(1, 2), Fraction(1, 4)])
    sixth = Fraction(1, 6)
    assert kirillov_matrix(sl2_half(), phi).to_rows() == [
        [0, 2, -1], [-2, 0, sixth], [1, -sixth, 0]
    ]


def test_index_of_abelian_is_dimension():
    assert index_randomized(abelian(4), trials=5, seed=1) == 4
    assert index_randomized(abelian(1), trials=5, seed=1) == 1


def test_index_golden_values(three_dim_solvable, heisenberg5):
    assert index_randomized(sl2(), trials=25, seed=1729) == 1
    assert index_randomized(three_dim_solvable, trials=25, seed=1729) == 1
    assert index_randomized(heisenberg5, trials=25, seed=1729) == 1


def test_index_deterministic_under_seed(three_dim_solvable):
    a = index_randomized(three_dim_solvable, trials=25, seed=42)
    b = index_randomized(three_dim_solvable, trials=25, seed=42)
    assert a == b


def test_index_does_not_depend_on_the_oracle_prime(monkeypatch):
    """The prime decides only which trials settle mod p. At p = 3 more
    trials miss the parity floor mod p and run the exact rank than at the
    oracle's prime, and every answer stays the same."""
    algebras = [materialize(sp) for n in range(1, 5) for sp in spec_pairs(n)]
    default = liealg._PRIME
    exact_runs = {}
    answers = {}
    rank_int = _kernels.rank_int
    for p in (3, 65537, default):
        runs = 0

        def counted(rows):
            nonlocal runs
            runs += 1
            return rank_int(rows)

        monkeypatch.setattr(liealg, "_PRIME", p)
        monkeypatch.setattr(_kernels, "rank_int", counted)
        answers[p] = [index_randomized(L, seed=s) for L in algebras for s in (1, 2, 3)]
        exact_runs[p] = runs
    assert answers[3] == answers[65537] == answers[default]
    assert exact_runs[3] > exact_runs[default]


def test_index_does_not_depend_on_the_elimination_order(monkeypatch):
    """The order only permutes B_phi's basis, a congruence: with the
    identity in its place, every answer and the number of exact ranks stay
    the same."""
    algebras = [materialize(sp) for n in range(1, 6) for sp in spec_pairs(n)]
    rank_int = _kernels.rank_int
    exact_runs = {}
    answers = {}
    for name, order in (("fill-reducing", _kernels.skew_order),
                        ("identity", lambda n, pattern: list(range(n)))):
        runs = 0

        def counted(rows):
            nonlocal runs
            runs += 1
            return rank_int(rows)

        monkeypatch.setattr(_kernels, "skew_order", order)
        monkeypatch.setattr(_kernels, "rank_int", counted)
        answers[name] = [index_randomized(L, seed=s) for L in algebras for s in (1, 2, 3)]
        exact_runs[name] = runs
    assert answers["fill-reducing"] == answers["identity"]
    assert exact_runs["fill-reducing"] == exact_runs["identity"] > 0


def test_elimination_order_is_a_permutation():
    for n in range(1, 7):
        for sp in spec_pairs(n):
            L = materialize(sp)
            _, table = L._integer_table()
            assert sorted(_kernels.skew_order(L.dim, table)) == list(range(L.dim))


def test_index_of_a_large_seaweed_through_the_packed_mod_p_rank(monkeypatch):
    """2|18 / 20 has dim 363 and index 1. Its first sampled Kirillov form
    reaches the parity floor mod p, so the oracle settles it with one mod-p
    rank on dense rows of that size, and never builds the elimination
    order."""
    L = materialize(SeaweedSpec.parse("2|18 / 20"))
    assert L.dim == 363

    def unused(n, pattern):
        raise AssertionError("a settled oracle built the elimination order")

    monkeypatch.setattr(_kernels, "skew_order", unused)
    assert index_randomized(L, trials=25, seed=1729) == 1
    rng = random.Random(1729)
    phi = [rng.randint(-SAMPLE_BOUND, SAMPLE_BOUND) for _ in range(L.dim)]
    rows = liealg._kirillov_int_rows(L, phi)
    assert _kernels.rank_mod(rows, liealg._PRIME) == 362


def test_oracle_prime_is_prime():
    p = liealg._PRIME
    assert p > 2 and all(p % q for q in range(2, 4096))
    assert 4096**2 > p


def _fits_one_word(n, p):
    """Whether a packed mod-p slot of an n-row matrix, which must hold
    (p-1) + n (p-1)^2, fits one 64-bit word."""
    return (p - 1) + n * (p - 1) ** 2 < 2**64


def test_oracle_prime_keeps_every_packed_slot_in_one_word():
    """The oracle's prime fits one 64-bit slot up to 2^16 columns, past any
    B_phi a dense list can hold, and no larger prime does. ``rank_mod``
    refuses a matrix one row past a prime's bound and ranks one at it, and
    a 1,100-row matrix, past the 1,024 columns of the previous prime, takes
    the same path."""
    p = liealg._PRIME
    assert _fits_one_word(2**16, p)
    assert _fits_one_word(2**16, 2**24) and not _fits_one_word(2**16, 2**24 + 1)
    # every q in (p, 2^24] is composite
    assert all(any(q % f == 0 for f in range(2, 4097)) for q in range(p + 1, 2**24 + 1))
    # the bound is checked before the rows are read
    with pytest.raises(ValueError, match="overflow"):
        _kernels.rank_mod([[]] * (2**16 + 1), p)
    with pytest.raises(ValueError, match="not skew"):
        _kernels.rank_mod([[]] * 2**16, p)
    q = 2**31 - 1
    assert _fits_one_word(4, q) and not _fits_one_word(5, q)
    rows = [[0, 1, 2, 3], [-1, 0, 4, 5], [-2, -4, 0, 6], [-3, -5, -6, 0]]
    assert _kernels.rank_mod(rows, q) == 4
    with pytest.raises(ValueError, match="overflow"):
        _kernels.rank_mod([[0] * 5 for _ in range(5)], q)
    # block diagonal of 550 pairs, every third pair zero: rank 2 * 366
    n = 1100
    rows = [[0] * n for _ in range(n)]
    for k in range(n // 2):
        if k % 3:
            a = (k * 7919) % (p - 1) + 1
            rows[2 * k][2 * k + 1] = a
            rows[2 * k + 1][2 * k] = -a
    assert _kernels.rank_mod(rows, p) == 732
    # the Heisenberg algebra of dim 1101, [x_i, y_i] = z, has index 1
    heis = LieAlgebra.from_table(
        1101, [f"e{i}" for i in range(1101)], {(i, 550 + i): {1100: 1} for i in range(550)}
    )
    assert index_randomized(heis, seed=3) == 1


def test_index_rejects_bad_trials(three_dim_solvable):
    with pytest.raises(ValueError):
        index_randomized(three_dim_solvable, trials=0, seed=1)


# ---------------------------------------------------------------------------
# bordered determinant and the volume coefficient
# ---------------------------------------------------------------------------

def test_bhat_det_sl2_golden():
    assert bhat_det(sl2(), CoeffForm.from_values([0, 1, 1])) == 16


def test_bhat_det_heisenberg_center(heisenberg5):
    assert bhat_det(heisenberg5, CoeffForm.from_values([0, 0, 0, 0, 1])) == 1


def test_bhat_det_zero_for_non_contact(three_dim_solvable):
    rng = random.Random(11)
    for _ in range(30):
        phi = CoeffForm.from_values([rng.randint(-100, 100) for _ in range(3)])
        assert bhat_det(three_dim_solvable, phi) == 0


def test_bhat_det_needs_odd_dimension():
    with pytest.raises(ParityError):
        bhat_det(abelian(2), CoeffForm.from_values([1, 1]))


def test_bhat_nonvanishing_is_scale_invariant(heisenberg5):
    phi = CoeffForm.from_values([3, 1, 4, 1, 5])
    for c in (Fraction(2), Fraction(-1, 3)):
        assert (bhat_det(heisenberg5, phi) != 0) == (
            bhat_det(heisenberg5, phi.scale(c)) != 0
        )


def test_wedge_sl2_golden():
    assert wedge_volume_coefficient(sl2(), CoeffForm.from_values([0, 1, 1])) == -4


def test_wedge_heisenberg_golden(heisenberg5):
    phi = CoeffForm.from_values([0, 0, 0, 0, 1])
    assert wedge_volume_coefficient(heisenberg5, phi) == -2


def test_wedge_scales_with_degree(heisenberg5):
    # degree k+1 = 3 in phi for dim 5
    phi = CoeffForm.from_values([1, 2, 0, 1, 3])
    w = wedge_volume_coefficient(heisenberg5, phi)
    assert wedge_volume_coefficient(heisenberg5, phi.scale(2)) == 8 * w


def test_wedge_parity_and_cap():
    with pytest.raises(ParityError):
        wedge_volume_coefficient(abelian(4), CoeffForm.zero(4))
    with pytest.raises(ValueError):
        wedge_volume_coefficient(abelian(17), CoeffForm.zero(17))


def test_wedge_matches_pfaffian_oracle(three_dim_solvable, heisenberg5):
    """wedge = (-1)^k k! Pf(bordered matrix), hence (k!)^2 det = wedge^2.

    Integer and rational phi, over integer tables and over sl2_half, whose
    table denominator is 2: a wrong common scale in bhat_det or the wedge
    cancels in the squared identity but not against the Pfaffian. The
    Kirillov matrix is checked against the same Fraction reference.
    """
    rng = random.Random(17)
    for L in (sl2(), sl2_half(), three_dim_solvable, heisenberg5):
        k = (L.dim - 1) // 2
        forms = [CoeffForm.from_values([rng.randint(-6, 6) for _ in range(L.dim)])
                 for _ in range(15)]
        forms += [rational_form(rng, L.dim) for _ in range(15)]
        for phi in forms:
            rows = bhat_rows(L, phi)
            assert kirillov_matrix(L, phi).to_rows() == [r[1:] for r in rows[1:]]
            pf = pfaffian(rows)
            w = wedge_volume_coefficient(L, phi)
            d = bhat_det(L, phi)
            assert w == (-1) ** k * factorial(k) * pf
            assert d == pf * pf
            assert Fraction(factorial(k)) ** 2 * d == w * w
            assert squared_identity_holds(L.dim, d, w)
            assert squared_identity_holds(L.dim, 2 * d, w) == (d == 0)


def test_bhat_det_is_pfaffian_squared_hence_nonnegative(heisenberg5):
    rng = random.Random(23)
    for _ in range(25):
        phi = CoeffForm.from_values([rng.randint(-9, 9) for _ in range(5)])
        assert bhat_det(heisenberg5, phi) >= 0


# ---------------------------------------------------------------------------
# invariance under a change of basis
# ---------------------------------------------------------------------------

def test_unimodular_basis_change_preserves_everything():
    """Transport sl(2) through u0 = h + e, u1 = e, u2 = f."""
    L = sl2()
    U = [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
    # old coordinates -> new coordinates (inverse transpose of U, hand-solved)
    def to_new(vec):
        return (vec[0], vec[1] - vec[0], vec[2])

    brackets = {}
    for i in range(3):
        for j in range(i + 1, 3):
            w = bracket(L, U[i], U[j])
            brackets[(i, j)] = {k: c for k, c in enumerate(to_new(w)) if c}
    M = LieAlgebra.from_table(3, ["u0", "u1", "u2"], brackets)
    assert jacobi_check(M) == []
    assert index_randomized(M, trials=25, seed=5) == index_randomized(
        L, trials=25, seed=5
    )
    rng = random.Random(31)
    for _ in range(10):
        phi = [rng.randint(-7, 7) for _ in range(3)]
        phi_new = [sum(U[i][j] * phi[j] for j in range(3)) for i in range(3)]
        assert bhat_det(M, CoeffForm.from_values(phi_new)) == bhat_det(
            L, CoeffForm.from_values(phi)
        )


def _transvected(L, i, j, c):
    """Transport L through the unimodular change u_i = E_i + c E_j."""
    d = L.dim
    vecs = []
    for a in range(d):
        v = [Fraction(0)] * d
        v[a] = Fraction(1)
        if a == i:
            v[j] = Fraction(c)
        vecs.append(v)

    def to_new(w):
        out = list(w)
        out[j] -= c * out[i]
        return out

    brackets = {}
    for a in range(d):
        for b in range(a + 1, d):
            w = to_new(bracket(L, vecs[a], vecs[b]))
            nz = {k: x for k, x in enumerate(w) if x != 0}
            if nz:
                brackets[(a, b)] = nz
    return LieAlgebra.from_table(d, list(L.basis_labels), brackets)


def test_random_unimodular_changes_preserve_index(three_dim_solvable, heisenberg5):
    rng = random.Random(2027)
    for base in (sl2(), three_dim_solvable, heisenberg5):
        want = index_randomized(base, trials=25, seed=1729)
        for _ in range(3):
            M = base
            for _ in range(6):
                i, j = rng.sample(range(base.dim), 2)
                M = _transvected(M, i, j, rng.choice([-2, -1, 1, 2]))
            assert jacobi_check(M) == []
            assert index_randomized(M, trials=25, seed=1729) == want


# ---------------------------------------------------------------------------
# randomized contact search
# ---------------------------------------------------------------------------

def test_contact_search_finds_witness(heisenberg5):
    verdict = contact_search_randomized(heisenberg5, trials=10, seed=1729)
    assert isinstance(verdict, ContactWitness)
    assert bhat_det(heisenberg5, verdict.form) != 0


def test_contact_search_negative_verdict(three_dim_solvable):
    verdict = contact_search_randomized(three_dim_solvable, trials=200, seed=1729)
    assert verdict == ProbablyNotContact(trials=200)


def test_contact_search_parity(three_dim_solvable):
    with pytest.raises(ParityError):
        contact_search_randomized(abelian(2), trials=5, seed=1)


# ---------------------------------------------------------------------------
# coefficient forms
# ---------------------------------------------------------------------------

def test_coeff_form_algebra():
    a = CoeffForm.from_values([1, 2, 3])
    b = CoeffForm.from_values([0, 1, Fraction(1, 2)])
    assert len(a) == 3
    assert a.plus(b).coefficients == (1, 3, Fraction(7, 2))
    assert a.scale(2).coefficients == (2, 4, 6)
    assert CoeffForm.zero(2).coefficients == (0, 0)
    assert CoeffForm.from_json(a.to_json()) == a


def test_coeff_form_length_mismatch():
    with pytest.raises(ValueError):
        CoeffForm.from_values([1]).plus(CoeffForm.from_values([1, 2]))
