"""Compositions, specs, admissibility, bases, and structure constants."""
import pickle
import random
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seaweed.liealg import bhat_det, index_randomized, jacobi_check
from seaweed.standard_form import (
    Composition,
    CustomDiagonal,
    DiagDiff,
    MatrixUnit,
    SeaweedSpec,
    SpanError,
    admissible,
    check_basis,
    compositions,
    dual_matrix_to_coeffs,
    label_from_json,
    label_str,
    label_to_json,
    materialize,
    seaweed_dim,
    spec_pairs,
    standard_basis,
)

composition_strategy = st.lists(st.integers(1, 5), min_size=1, max_size=4).map(
    lambda parts: Composition(tuple(parts))
)


# ---------------------------------------------------------------------------
# compositions and specs
# ---------------------------------------------------------------------------

def test_composition_basics():
    c = Composition.parse("2|6")
    assert c.parts == (2, 6) and c.n == 8
    assert c.blocks() == [(1, 2), (3, 8)]
    assert c.block_of()[3] == 1
    assert c.text() == "2|6"
    fresh = Composition((2, 6))
    assert c.arcs == ((1, 2), (3, 8), (4, 7), (5, 6)) and c.arcs is c.arcs
    # the cached arcs stay out of eq, hash and repr, and survive pickling
    assert c == fresh and hash(c) == hash(fresh) and repr(c) == repr(fresh)
    assert pickle.loads(pickle.dumps(c)).arcs == c.arcs


def test_composition_rejects_garbage():
    for bad in ("", "0", "2|0", "-1", "a|2", "2||3"):
        with pytest.raises(ValueError):
            Composition.parse(bad)


def test_spec_parse_ignores_whitespace():
    sp = SeaweedSpec.parse("  1|4 /  3| 1|1 ")
    assert sp.top.parts == (1, 4) and sp.bottom.parts == (3, 1, 1)
    assert sp.text() == "1|4 / 3|1|1"
    assert SeaweedSpec.parse(sp.text()) == sp


def test_spec_parse_errors():
    with pytest.raises(ValueError):
        SeaweedSpec.parse("2|6")  # no slash
    with pytest.raises(ValueError):
        SeaweedSpec.parse("2|6 / 7")  # sums differ
    with pytest.raises(ValueError):
        SeaweedSpec.parse("2/2/2")


@pytest.mark.parametrize(
    "data",
    [
        {"top": [2.5, 1.5], "bottom": [4]},
        {"top": [True, 3], "bottom": [4]},
        {"top": "22", "bottom": [4]},
    ],
    ids=["floats", "bool", "string"],
)
def test_spec_json_rejects_parts_that_are_not_ints(data):
    with pytest.raises(ValueError, match="parts must be ints"):
        SeaweedSpec.from_json(data)


@pytest.mark.parametrize(
    "text", ["\u00b2 / 2", "\u0663 / 3"], ids=["superscript", "arabic-indic"]
)
def test_spec_parse_takes_ascii_digits_only(text):
    with pytest.raises(ValueError, match="bad composition part"):
        SeaweedSpec.parse(text)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(st.sampled_from("0123456789|/ "), st.characters()), max_size=12
    ).map("".join)
)
def test_spec_parse_raises_value_error_or_round_trips(text):
    try:
        spec = SeaweedSpec.parse(text)
    except ValueError:
        return
    assert SeaweedSpec.parse(spec.text()) == spec


def test_spec_swapped_and_json():
    sp = SeaweedSpec.parse("2|6 / 8")
    assert sp.swapped().text() == "8 / 2|6"
    assert SeaweedSpec.from_json(sp.to_json()) == sp
    with pytest.raises(ValueError):
        SeaweedSpec.from_json({"n": 9, "top": [2, 6], "bottom": [8]})


def test_composition_and_pair_counts():
    assert len(list(compositions(5))) == 16  # 2^(n-1)
    assert len(list(spec_pairs(3))) == 16  # 4^(n-1)
    assert len(list(compositions(1))) == 1


@settings(max_examples=40, deadline=None)
@given(composition_strategy)
def test_blocks_partition_the_vertex_range(c):
    seen = []
    for lo, hi in c.blocks():
        seen.extend(range(lo, hi + 1))
    assert seen == list(range(1, c.n + 1))


# ---------------------------------------------------------------------------
# admissibility and bases
# ---------------------------------------------------------------------------

def test_admissible_full_bottom():
    sp = SeaweedSpec.parse("2|6 / 8")
    assert admissible(sp, 8, 3)  # same top block
    assert admissible(sp, 3, 8)  # one bottom block holds everything
    assert not admissible(sp, 3, 1)  # crosses top blocks
    assert admissible(sp, 5, 5)


def test_admissible_rejects_out_of_range():
    sp = SeaweedSpec.parse("2/2")
    with pytest.raises(ValueError):
        admissible(sp, 0, 1)
    with pytest.raises(ValueError):
        admissible(sp, 1, 3)


def test_standard_basis_exact_list():
    sp = SeaweedSpec.parse("1|4 / 3|1|1")
    want = [DiagDiff(1), DiagDiff(2), DiagDiff(3), DiagDiff(4)]
    want += [
        MatrixUnit(1, 2),
        MatrixUnit(1, 3),
        MatrixUnit(2, 3),
        MatrixUnit(3, 2),
        MatrixUnit(4, 2),
        MatrixUnit(4, 3),
        MatrixUnit(5, 2),
        MatrixUnit(5, 3),
        MatrixUnit(5, 4),
    ]
    assert standard_basis(sp) == want


def test_dim_formula_examples():
    assert seaweed_dim(SeaweedSpec.parse("1|1 / 1|1")) == 1
    assert seaweed_dim(SeaweedSpec.parse("2/2")) == 3
    assert seaweed_dim(SeaweedSpec.parse("2|6 / 8")) == 51
    assert seaweed_dim(SeaweedSpec.parse("1|4 / 3|1|1")) == 13
    # n / n is all of sl(n)
    for n in range(2, 7):
        assert seaweed_dim(SeaweedSpec.parse(f"{n} / {n}")) == n * n - 1


def test_dim_equals_basis_length_and_brute_count():
    for sp in spec_pairs(5):
        brute = sum(
            1
            for i in range(1, 6)
            for j in range(1, 6)
            if i != j and admissible(sp, i, j)
        )
        assert seaweed_dim(sp) == len(standard_basis(sp)) == 4 + brute


def test_dim_equals_basis_length_for_every_small_spec():
    for n in range(1, 7):
        for sp in spec_pairs(n):
            assert seaweed_dim(sp) == len(standard_basis(sp)), sp.text()
            assert sp.top.triangle == sum(p * (p - 1) // 2 for p in sp.top.parts)


def test_label_helpers():
    assert label_str(MatrixUnit(3, 1)) == "e(3,1)"
    assert label_str(DiagDiff(2)) == "h(2)"
    h = CustomDiagonal("H", (Fraction(1), Fraction(-1)))
    assert label_str(h) == "H"
    for lab in (MatrixUnit(3, 1), DiagDiff(2), h):
        assert label_from_json(label_to_json(lab)) == lab


def test_label_validation():
    with pytest.raises(ValueError):
        MatrixUnit(2, 2)
    with pytest.raises(ValueError):
        CustomDiagonal("bad", (Fraction(1), Fraction(1)))


# ---------------------------------------------------------------------------
# materialization
# ---------------------------------------------------------------------------

def test_sl2_structure_constants():
    L = materialize(SeaweedSpec.parse("2/2"))
    # basis h(1), e(1,2), e(2,1)
    assert L.bracket_coeffs(0, 1) == ((1, Fraction(2)),)
    assert L.bracket_coeffs(0, 2) == ((2, Fraction(-2)),)
    assert L.bracket_coeffs(1, 2) == ((0, Fraction(1)),)


def test_unit_bracket_lands_on_unit():
    L = materialize(SeaweedSpec.parse("1|4 / 3|1|1"))
    labels = standard_basis(SeaweedSpec.parse("1|4 / 3|1|1"))
    i12 = labels.index(MatrixUnit(1, 2))
    i23 = labels.index(MatrixUnit(2, 3))
    i13 = labels.index(MatrixUnit(1, 3))
    assert L.bracket_coeffs(i12, i23) == ((i13, Fraction(1)),)
    # [h(1), e(1,2)] = 2 e(1,2)
    assert L.bracket_coeffs(0, i12) == ((i12, Fraction(2)),)


def test_custom_diagonal_bracket():
    sp = SeaweedSpec.parse("1|4 / 3|1|1")
    H = CustomDiagonal("H", tuple(Fraction(x) for x in (2, -3, 2, 2, -3)))
    basis = [H if lab == DiagDiff(1) else lab for lab in standard_basis(sp)]
    L = materialize(sp, basis)
    i12 = basis.index(MatrixUnit(1, 2))
    # [H, e(1,2)] = (H_11 - H_22) e(1,2) = 5 e(1,2)
    assert L.bracket_coeffs(0, i12) == ((i12, Fraction(5)),)


def test_materialized_seaweeds_satisfy_jacobi_small():
    for sp in spec_pairs(4):
        assert jacobi_check(materialize(sp)) == []


def test_zero_dimensional_seaweed():
    L = materialize(SeaweedSpec.parse("1/1"))
    assert L.dim == 0
    assert jacobi_check(L) == []


def test_transposed_spec_matches_dimension():
    for text in ("2|6 / 8", "1|4 / 3|1|1", "2|4 / 1|2|3"):
        sp = SeaweedSpec.parse(text)
        assert seaweed_dim(sp) == seaweed_dim(sp.swapped())
        assert materialize(sp.swapped()).dim == materialize(sp).dim


def test_transposed_spec_has_same_index():
    # transpose-negate is an isomorphism, so the rank oracle must agree
    for n in range(1, 6):
        for sp in spec_pairs(n):
            assert index_randomized(
                materialize(sp), trials=25, seed=1729
            ) == index_randomized(materialize(sp.swapped()), trials=25, seed=1729)


def test_materialize_rejects_inadmissible_unit():
    sp = SeaweedSpec.parse("2/2")
    with pytest.raises(ValueError):
        materialize(sp, [DiagDiff(1), MatrixUnit(1, 2), MatrixUnit(2, 1), MatrixUnit(1, 2)])


def test_materialize_flags_escaping_bracket():
    sp = SeaweedSpec.parse("3/3")
    basis = [lab for lab in standard_basis(sp) if lab != MatrixUnit(1, 3)]
    with pytest.raises(SpanError):
        materialize(sp, basis)


def test_materialize_flags_deficient_diagonal():
    sp = SeaweedSpec.parse("2/2")
    with pytest.raises(SpanError):
        materialize(sp, [MatrixUnit(1, 2), MatrixUnit(2, 1)])


def test_materialize_flags_duplicate_diagonal():
    sp = SeaweedSpec.parse("1|2 / 3")
    # one label too many: the algebra would come out bigger than the seaweed
    with pytest.raises(SpanError):
        materialize(sp, standard_basis(sp) + [DiagDiff(1)])
    # right count, but h(1) twice and no h(2)
    basis = [DiagDiff(1) if lab == DiagDiff(2) else lab for lab in standard_basis(sp)]
    with pytest.raises(SpanError):
        materialize(sp, basis)


def test_materialize_two_custom_diagonals():
    sp = SeaweedSpec.parse("1|4 / 3|1|1")
    H = CustomDiagonal("H", tuple(Fraction(x) for x in (2, -3, 2, 2, -3)))
    K = CustomDiagonal("K", tuple(Fraction(x) for x in (1, 1, Fraction(-1, 2), 0, Fraction(-3, 2))))
    swap = {DiagDiff(1): H, DiagDiff(3): K}
    basis = [swap.get(lab, lab) for lab in standard_basis(sp)]
    assert basis.index(K) == 2
    L = materialize(sp, basis)
    assert jacobi_check(L) == []
    assert index_randomized(L, trials=25, seed=1729) == index_randomized(
        materialize(sp), trials=25, seed=1729
    )


def test_materialize_checks_label_ranges():
    sp = SeaweedSpec.parse("1|2 / 3")
    basis = standard_basis(sp)
    assert basis[0] == DiagDiff(1)
    for bad in (
        DiagDiff(0),
        DiagDiff(3),
        CustomDiagonal("C", (Fraction(1), Fraction(-1))),
        # its first two partial sums are those of h(1)
        CustomDiagonal("C", (Fraction(1), Fraction(-1), Fraction(0), Fraction(0))),
        MatrixUnit(0, 1),
        MatrixUnit(3, 4),
    ):
        with pytest.raises(ValueError):
            materialize(sp, [bad] + basis[1:])


def _dense(label, n):
    M = [[Fraction(0)] * n for _ in range(n)]
    if isinstance(label, MatrixUnit):
        M[label.i - 1][label.j - 1] = Fraction(1)
    elif isinstance(label, DiagDiff):
        M[label.i - 1][label.i - 1], M[label.i][label.i] = Fraction(1), Fraction(-1)
    else:
        for k, v in enumerate(label.entries):
            M[k][k] = v
    return M


def _dense_commutator(A, B):
    n = len(A)
    C = [[Fraction(0)] * n for _ in range(n)]
    for X, Y, sign in ((A, B, 1), (B, A, -1)):
        for i in range(n):
            for k in range(n):
                if X[i][k]:
                    for j in range(n):
                        C[i][j] += sign * X[i][k] * Y[k][j]
    return C


def _reference_bases(sp, rng):
    """Standard, shuffled, and shuffled with a custom diagonal for some h(i)."""
    shuffled = standard_basis(sp)
    rng.shuffle(shuffled)
    yield standard_basis(sp)
    yield shuffled
    if sp.n > 1:
        i = rng.randrange(1, sp.n)
        while True:
            head = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(sp.n - 1)]
            if list(accumulate(head))[i - 1]:
                break
        D = CustomDiagonal("D", tuple(head) + (-sum(head),))
        yield [D if lab == DiagDiff(i) else lab for lab in shuffled]


def test_brackets_match_dense_commutators():
    rng = random.Random(1729)
    specs = [sp for n in range(1, 5) for sp in spec_pairs(n)] + list(spec_pairs(5))[::8]
    for sp in specs:
        for basis in _reference_bases(sp, rng):
            L = materialize(sp, basis)
            mats = [_dense(lab, sp.n) for lab in basis]
            for x in range(L.dim):
                for y in range(x + 1, L.dim):
                    got = [[Fraction(0)] * sp.n for _ in range(sp.n)]
                    for z, c in L.bracket_coeffs(x, y):
                        for i, row in enumerate(mats[z]):
                            for j, v in enumerate(row):
                                got[i][j] += c * v
                    assert got == _dense_commutator(mats[x], mats[y]), (
                        sp.text(), label_str(basis[x]), label_str(basis[y])
                    )


# ---------------------------------------------------------------------------
# dual matrices
# ---------------------------------------------------------------------------

def test_dual_matrix_on_units_and_diffs():
    sp = SeaweedSpec.parse("2/2")
    basis = standard_basis(sp)
    W = {(1, 2): Fraction(3), (1, 1): Fraction(5), (2, 2): Fraction(1)}
    phi = dual_matrix_to_coeffs(sp, basis, W)
    assert phi.coefficients == (4, 3, 0)  # h(1) sees 5-1, e(1,2) sees 3


def test_dual_matrix_on_custom_diagonal():
    sp = SeaweedSpec.parse("1|4 / 3|1|1")
    H = CustomDiagonal("H", tuple(Fraction(x) for x in (2, -3, 2, 2, -3)))
    basis = [H if lab == DiagDiff(1) else lab for lab in standard_basis(sp)]
    phi = dual_matrix_to_coeffs(sp, basis, {(1, 1): Fraction(1)})
    assert phi.coefficients[0] == 2  # the H coordinate


def test_dual_matrix_ignores_identity_shift():
    sp = SeaweedSpec.parse("1|4 / 3|1|1")
    H = CustomDiagonal("H", tuple(Fraction(x) for x in (2, -3, 2, 2, -3)))
    basis = [H if lab == DiagDiff(1) else lab for lab in standard_basis(sp)]
    W = {(1, 3): Fraction(1), (5, 2): Fraction(1), (1, 1): Fraction(1)}
    shifted = dict(W)
    for k in range(1, 6):
        shifted[(k, k)] = shifted.get((k, k), Fraction(0)) + Fraction(7)
    assert dual_matrix_to_coeffs(sp, basis, W) == dual_matrix_to_coeffs(
        sp, basis, shifted
    )


def test_dual_matrix_range_check():
    sp = SeaweedSpec.parse("2/2")
    with pytest.raises(ValueError):
        dual_matrix_to_coeffs(sp, standard_basis(sp), {(0, 1): Fraction(1)})


# ---------------------------------------------------------------------------
# trace pairing against the structure table
# ---------------------------------------------------------------------------

small_fraction = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def small_spec(draw):
    n = draw(st.integers(1, 6))

    def composition():
        cuts = sorted(draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
        return Composition(tuple(b - a for a, b in zip([0, *cuts], [*cuts, n])))

    return SeaweedSpec(composition(), composition())


@st.composite
def permuted_basis(draw, sp):
    """The standard basis, permuted, with some h(i) traded for fractional
    custom diagonals (which may leave the diagonals dependent)."""
    basis = draw(st.permutations(standard_basis(sp)))
    out = []
    for lab in basis:
        if isinstance(lab, DiagDiff) and draw(st.booleans()):
            head = draw(st.lists(small_fraction, min_size=sp.n - 1, max_size=sp.n - 1))
            lab = CustomDiagonal(f"D{lab.i}", (*head, -sum(head, Fraction(0))))
        out.append(lab)
    return out


@st.composite
def dual_matrix(draw, n):
    """Sparse W with fractional entries anywhere: diagonal, admissible or not."""
    keys = st.tuples(st.integers(1, n), st.integers(1, n))
    return draw(st.dictionaries(keys, small_fraction, max_size=2 * n))


def _scaled_values(sphi, sB, s):
    return [Fraction(v, s) for v in sphi], [[Fraction(v, s) for v in row] for row in sB]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_trace_pairing_matches_the_structure_table(data):
    sp = data.draw(small_spec())
    basis = data.draw(permuted_basis(sp))
    W = data.draw(dual_matrix(sp.n))
    try:
        checked = check_basis(sp, basis)
    except SpanError:
        with pytest.raises(SpanError):
            materialize(sp, basis)
        return
    L = materialize(sp, basis)
    coeffs = dual_matrix_to_coeffs(sp, basis, W)
    paired = _scaled_values(*checked.scaled_form(W))
    tabled = _scaled_values(*L.scaled_form(coeffs))
    assert paired == tabled
    assert paired[0] == list(coeffs.coefficients)
    if checked.dim % 2:
        assert bhat_det(checked, W) == bhat_det(L, coeffs)


def _fraction_rank(rows):
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _spans_the_seaweed(sp, basis):
    """Reference: the labels, as n x n matrices, are seaweed_dim independent
    elements of the seaweed."""
    inside = all(
        not isinstance(lab, MatrixUnit) or admissible(sp, lab.i, lab.j) for lab in basis
    )
    flat = [[x for row in _dense(lab, sp.n) for x in row] for lab in basis]
    return inside and len(basis) == seaweed_dim(sp) == _fraction_rank(flat)


def _dense_diagonal(label, n):
    M = _dense(label, n)
    return [M[k][k] for k in range(n)]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_check_basis_rejects_exactly_the_bases_that_do_not_span(data):
    sp = data.draw(small_spec())
    basis = data.draw(permuted_basis(sp))
    kind = data.draw(st.sampled_from(["none", "drop", "duplicate", "inadmissible", "dependent"]))
    units = [p for p, lab in enumerate(basis) if isinstance(lab, MatrixUnit)]
    diags = [p for p, lab in enumerate(basis) if not isinstance(lab, MatrixUnit)]
    outside = [
        MatrixUnit(i, j)
        for i in range(1, sp.n + 1)
        for j in range(1, sp.n + 1)
        if i != j and not admissible(sp, i, j)
    ]
    if kind == "drop" and basis:
        del basis[data.draw(st.sampled_from(range(len(basis))))]
    elif kind == "duplicate" and units:
        target = data.draw(st.sampled_from(range(len(basis))))
        basis[target] = basis[data.draw(st.sampled_from(units))]
    elif kind == "inadmissible" and units and outside:
        basis[data.draw(st.sampled_from(units))] = data.draw(st.sampled_from(outside))
    elif kind == "dependent" and diags:
        target = data.draw(st.sampled_from(diags))
        combo = [Fraction(0)] * sp.n
        for p in diags:
            if p != target:
                c = data.draw(small_fraction)
                combo = [x + c * y for x, y in zip(combo, _dense_diagonal(basis[p], sp.n))]
        basis[target] = CustomDiagonal("dependent", tuple(combo))

    def rejects(build):
        try:
            build(sp, basis)
        except SpanError:
            return True
        return False

    expected = not _spans_the_seaweed(sp, basis)
    assert rejects(check_basis) == expected
    assert rejects(materialize) == expected

