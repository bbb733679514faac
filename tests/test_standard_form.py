"""Compositions, specs, admissibility, bases, and structure constants."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seaweed.liealg import index_randomized, jacobi_check
from seaweed.standard_form import (
    Composition,
    CustomDiagonal,
    DiagDiff,
    MatrixUnit,
    SeaweedSpec,
    SpanError,
    admissible,
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
