"""Contact form synthesis, certificates, and independent verification."""
import dataclasses
import hashlib
import itertools
import json
import math
import pathlib
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seaweed.contact
from seaweed import _kernels
from seaweed.cli import main
from seaweed.contact import (
    MAX_FORM_ENTRIES_PER_VERTEX,
    MAX_VERIFY_DIM,
    ContactCertificate,
    NotIndexOneError,
    OneForm,
    TheoremViolationError,
    WrongCaseError,
    case1_contact,
    case2_contact,
    fraction_from_json,
    frobenius_plus_contact_combine,
    label_to_json,
    regular_form_from_meander,
    synthesize_contact,
    verify_certificate,
)
from seaweed.standard_form import (
    Composition,
    CustomDiagonal,
    DiagDiff,
    MatrixUnit,
    SeaweedSpec,
    check_basis,
    compositions,
    dual_matrix_to_coeffs,
    materialize,
    seaweed_dim,
    spec_pairs,
    standard_basis,
)
from seaweed.exact import RatMatrix, kernel_basis, rank
from seaweed.liealg import bhat_det, kirillov_matrix
from seaweed.meander import build_meander, components, counts, index as meander_index


def spec(text):
    return SeaweedSpec.parse(text)


# ---------------------------------------------------------------------------
# one-forms
# ---------------------------------------------------------------------------

def test_one_form_merges_and_drops_zeros():
    f = OneForm.from_terms(3, [((1, 2), 1), ((1, 2), 2), ((2, 3), 5), ((2, 3), -5)])
    assert f.as_dict() == {(1, 2): Fraction(3)}


def test_one_form_algebra():
    a = OneForm.from_terms(3, {(1, 2): Fraction(1)})
    b = OneForm.from_terms(3, {(1, 2): Fraction(2), (3, 1): Fraction(1)})
    assert a.plus(b).as_dict() == {(1, 2): Fraction(3), (3, 1): Fraction(1)}


def test_one_form_str():
    f = OneForm.from_terms(
        5, {(1, 3): Fraction(1), (5, 2): Fraction(-1), (4, 3): Fraction(1, 2)}
    )
    assert str(f) == "e(1,3)* + 1/2 e(4,3)* + -e(5,2)*"
    assert str(OneForm.from_terms(2, {})) == "0"


def test_one_form_validation():
    with pytest.raises(ValueError):
        OneForm(2, (((1, 3), Fraction(1)),))
    with pytest.raises(ValueError):
        OneForm(2, (((1, 2), Fraction(0)),))
    with pytest.raises(ValueError):
        OneForm(2, (((1, 2), Fraction(1)), ((1, 2), Fraction(2))))
    with pytest.raises(ValueError):
        OneForm.from_terms(3, {(1, 2): Fraction(1)}).plus(
            OneForm.from_terms(4, {(1, 2): Fraction(1)})
        )


def test_regular_form_golden_two_paths():
    f = regular_form_from_meander(spec("1|4 / 3|1|1"))
    assert f.as_dict() == {
        (1, 3): Fraction(1),
        (5, 2): Fraction(1),
        (4, 3): Fraction(1),
    }


def test_regular_form_golden_frobenius():
    f = regular_form_from_meander(spec("2|1|4|1 / 8"))
    assert f.as_dict() == {
        (1, 8): Fraction(1),
        (2, 1): Fraction(1),
        (2, 7): Fraction(1),
        (7, 4): Fraction(1),
        (4, 5): Fraction(1),
        (6, 5): Fraction(1),
        (3, 6): Fraction(1),
    }


def test_regular_form_empty():
    assert regular_form_from_meander(spec("1 / 1")).as_dict() == {}


# ---------------------------------------------------------------------------
# two-path synthesis
# ---------------------------------------------------------------------------

def test_two_path_worked_example():
    cert = synthesize_contact(spec("1|4 / 3|1|1"))
    assert cert.case == "TwoPaths"
    assert cert.k is None
    assert cert.auxiliary["H"] == ["2", "-3", "2", "2", "-3"]
    assert cert.auxiliary["diag_index"] == 1
    assert cert.auxiliary["paths"] == [[1, 3, 4], [2, 5]]
    assert cert.auxiliary["phi_H"] == "2"
    assert cert.auxiliary["det_c_prime"] == "4"
    assert cert.det_value == 16
    # phi = regular form + e(1,1)*
    assert cert.form.as_dict() == {
        (1, 1): Fraction(1),
        (1, 3): Fraction(1),
        (5, 2): Fraction(1),
        (4, 3): Fraction(1),
    }
    assert verify_certificate(cert)


def test_two_path_factorization_recorded():
    for text in ("1|4 / 3|1|1", "1|1|3 / 5", "2|2 / 1|1|1|1"):
        cert = case1_contact(spec(text))
        phi_H = Fraction(cert.auxiliary["phi_H"])
        assert phi_H != 0
        assert phi_H**2 * Fraction(cert.auxiliary["det_c_prime"]) == cert.det_value


def test_two_path_skips_diagonal_index_that_misses_h():
    cert = case1_contact(spec("3|1|1|1 / 6"))
    assert cert.auxiliary["diag_index"] == 4
    assert cert.det_value == 16
    # the smaller admissibility gap at i = 3 sees a zero partial sum of H
    hvals = [int(x) for x in cert.auxiliary["H"]]
    assert sum(hvals[:3]) == 0 and sum(hvals[:4]) != 0
    assert verify_certificate(cert)


def test_degenerate_torus_certificate():
    cert = synthesize_contact(spec("1|1 / 1|1"))
    assert cert.case == "TwoPaths"
    assert cert.form.as_dict() == {(1, 1): Fraction(1)}
    assert cert.det_value == 1
    assert verify_certificate(cert)


def test_case1_rejects_single_path():
    with pytest.raises(WrongCaseError):
        case1_contact(spec("1|2 / 2|1"))


def test_case1_rejects_cycle():
    with pytest.raises(WrongCaseError):
        case1_contact(spec("2|6 / 8"))


def test_all_two_path_specs_small():
    for n in range(2, 6):
        for sp in spec_pairs(n):
            rep = components(build_meander(sp))
            if rep.C == 0 and rep.P == 2:
                cert = case1_contact(sp)
                assert verify_certificate(cert), sp.text()
                # the form is the regular form plus the first diag_index diagonal duals
                i = cert.auxiliary["diag_index"]
                diagonal = OneForm.from_terms(sp.n, [((k, k), 1) for k in range(1, i + 1)])
                assert cert.form == regular_form_from_meander(sp).plus(diagonal), sp.text()


def test_two_path_kernel_is_h_line():
    # The kernel of B against the regular form is one-dimensional and spanned
    # by H.  In standard-basis coordinates H reads as the partial sums of its
    # diagonal on the h(i) slots and zeros on the units.
    for n in range(2, 8):
        for sp in spec_pairs(n):
            rep = components(build_meander(sp))
            if not (rep.C == 0 and rep.P == 2):
                continue
            p1, p2 = rep.paths
            if 1 not in p1.vertices:
                p1, p2 = p2, p1
            diag = [
                len(p2.vertices) if v in p1.vertices else -len(p1.vertices)
                for v in range(1, n + 1)
            ]
            partial = list(itertools.accumulate(diag))[:-1]
            basis = standard_basis(sp)
            phi = dual_matrix_to_coeffs(
                sp, basis, regular_form_from_meander(sp).as_dict()
            )
            ker = kernel_basis(kirillov_matrix(materialize(sp), phi))
            assert len(ker) == 1, sp.text()
            g = math.gcd(*(abs(s) for s in partial))
            expected = tuple(Fraction(s, g) for s in partial)
            expected += (Fraction(0),) * (len(basis) - (n - 1))
            assert ker[0] == expected, sp.text()


def test_two_path_diagonal_functional_leaves_b_phi_alone():
    # At an admissibility gap the partial diagonal dual adds nothing to B_phi,
    # and H's row and column of B_phi are zero, so det Bhat = phi(H)^2 det C'.
    seen = 0
    for n in range(2, 8):
        for sp in spec_pairs(n):
            if counts(build_meander(sp)) != (0, 2):
                continue
            cert = case1_contact(sp)
            checked = check_basis(sp, cert.basis)
            sphi, sB, s = checked.scaled_form(cert.form.as_dict())
            _, rB, r = checked.scaled_form(regular_form_from_meander(sp).as_dict())
            assert [[Fraction(x, s) for x in row] for row in sB] == [
                [Fraction(x, r) for x in row] for row in rB
            ], sp.text()
            h = cert.basis.index(next(b for b in cert.basis if isinstance(b, CustomDiagonal)))
            assert not any(row[h] for row in sB), sp.text()
            minor = [row[:h] + row[h + 1 :] for k, row in enumerate(sB) if k != h]
            det_c = Fraction(_kernels.det_int(minor), s ** len(minor))
            phi_H = Fraction(sphi[h], s)
            assert det_c != 0 and phi_H != 0, sp.text()
            assert cert.det_value == phi_H**2 * det_c, sp.text()
            seen += 1
    assert seen == 1147


def test_case1_builds_the_meander_once(monkeypatch):
    built = []

    def counting(sp):
        built.append(sp)
        return build_meander(sp)

    monkeypatch.setattr(seaweed.contact, "build_meander", counting)
    case1_contact(spec("1|3|3 / 7"))
    assert built == [spec("1|3|3 / 7")]


@pytest.mark.parametrize(
    "text, joining_unit", [("1|3|3 / 7", (1, 4)), ("1|4 / 3|1|1", (1, 2))]
)
def test_case1_rejects_regular_form_that_does_not_kill_only_h(
    monkeypatch, text, joining_unit
):
    # The zero form kills everything; adding the dual of a unit that joins the
    # two paths gives a form whose kernel is no longer the H line. case1_contact
    # reads the regular form off the meander it already built.
    real = seaweed.contact._regular_form
    forms = [
        lambda m: OneForm.from_terms(m.n, []),
        lambda m: real(m).plus(OneForm.from_terms(m.n, {joining_unit: 1})),
    ]
    for fake in forms:
        monkeypatch.setattr(seaweed.contact, "_regular_form", fake)
        with pytest.raises(TheoremViolationError, match="does not kill exactly the H line"):
            case1_contact(spec(text))


# ---------------------------------------------------------------------------
# one-cycle synthesis
# ---------------------------------------------------------------------------

def test_one_cycle_worked_example():
    cert = synthesize_contact(spec("2|6 / 8"))
    assert cert.case == "OneCycle"
    assert cert.k == 1
    assert cert.det_value == 256
    assert cert.auxiliary["removed_edge"] == [3, 8]
    assert cert.auxiliary["side"] == "top"
    assert cert.auxiliary["g_prime"] == "2|1|4|1 / 8"
    assert cert.auxiliary["heisenberg"] == [
        [4, 3], [5, 3], [6, 3], [7, 3], [8, 3], [8, 4], [8, 5], [8, 6], [8, 7],
    ]
    assert cert.auxiliary["center"] == [8, 3]
    assert cert.form.as_dict() == {
        (1, 8): Fraction(1),
        (2, 1): Fraction(1),
        (2, 7): Fraction(1),
        (7, 4): Fraction(1),
        (4, 5): Fraction(1),
        (6, 5): Fraction(1),
        (3, 6): Fraction(1),
        (8, 3): Fraction(1),
    }
    assert verify_certificate(cert)


def test_sl2_certificate():
    cert = synthesize_contact(spec("2 / 2"))
    assert cert.case == "SL2"
    assert cert.k is None
    assert cert.det_value == 16
    assert cert.form.as_dict() == {(1, 2): Fraction(1), (2, 1): Fraction(1)}
    assert cert.form == regular_form_from_meander(spec("2 / 2"))
    assert verify_certificate(cert)


def test_one_cycle_top_block():
    cert = synthesize_contact(spec("4 / 2|2"))
    assert cert.case == "OneCycle"
    assert cert.k == 1
    assert cert.det_value == 64
    assert cert.auxiliary["removed_edge"] == [1, 4]
    assert cert.auxiliary["g_prime"] == "1|2|1 / 2|2"
    assert verify_certificate(cert)


def test_one_cycle_bottom_block():
    cert = synthesize_contact(spec("2|2 / 4"))
    assert cert.auxiliary["side"] == "bottom"
    assert cert.auxiliary["g_prime"] == "2|2 / 1|2|1"
    assert cert.auxiliary["center"] == [1, 4]
    assert verify_certificate(cert)


def test_one_cycle_heisenberg_structure():
    # After removing the long edge, the leftover generators close into a
    # Heisenberg algebra: the center is central, every bracket lands on the
    # center line, and the induced pairing on the rest is nonsingular.  The
    # shrunken spec must also come out Frobenius.
    seen = 0
    for n in (4, 6):
        for sp in spec_pairs(n):
            rep = components(build_meander(sp))
            if not (rep.C == 1 and rep.P == 0):
                continue
            cert = case2_contact(sp)
            assert meander_index(spec(cert.auxiliary["g_prime"])) == 0
            gens = [MatrixUnit(i, j) for i, j in cert.auxiliary["heisenberg"]]
            center = MatrixUnit(*cert.auxiliary["center"])
            assert center in gens
            basis = standard_basis(sp)
            pos = {lab: k for k, lab in enumerate(basis)}
            L = materialize(sp)
            c_idx = pos[center]
            for g in gens:
                assert L.bracket_coeffs(c_idx, pos[g]) == ()
            others = [g for g in gens if g != center]
            pairing = []
            for a in others:
                row = []
                for b in others:
                    vec = L.bracket_coeffs(pos[a], pos[b])
                    assert all(k == c_idx for k, _ in vec), (sp.text(), a, b)
                    row.append(dict(vec).get(c_idx, Fraction(0)))
                pairing.append(row)
            assert len(others) % 2 == 0
            assert rank(RatMatrix.from_rows(pairing)) == len(others), sp.text()
            seen += 1
    assert seen >= 4


def test_case2_rejects_two_paths():
    with pytest.raises(WrongCaseError):
        case2_contact(spec("1|4 / 3|1|1"))


def test_one_cycle_determinant_is_a_monomial_in_the_center_weight():
    # f(k) = det Bhat(phi' + k c*) = c k^m, so f(1) = 0 would make every k fail.
    # A meander without paths has an arc on each side at every vertex, so
    # every one-cycle spec has even parts only.
    seen = 0
    for n in range(4, 15, 2):
        sides = [Composition(tuple(2 * x for x in c)) for c in compositions(n // 2)]
        for top, bottom in itertools.product(sides, sides):
            sp = SeaweedSpec(top, bottom)
            if counts(build_meander(sp)) != (1, 0):
                continue
            cert = case2_contact(sp)
            # the cut arc's edge is the center, so phi' + c* is g's regular form
            assert cert.form == regular_form_from_meander(sp), sp.text()
            phi = regular_form_from_meander(spec(cert.auxiliary["g_prime"]))
            center = tuple(cert.auxiliary["center"])
            checked = check_basis(sp)
            f = [
                bhat_det(checked, phi.plus(OneForm.from_terms(n, {center: k})).as_dict())
                for k in (1, 2, 3)
            ]
            assert f[0] == cert.det_value != 0, sp.text()
            m = (f[1] / f[0]).numerator.bit_length() - 1
            assert f[1] == 2**m * f[0] and f[2] == 3**m * f[0], sp.text()
            seen += 1
    assert seen == 274


def test_the_determinant_has_a_closed_form_through_n8():
    """A conjecture checked to n = 8, with no proof yet: det Bhat is
    (phi(H) |P2|)^2 for TwoPaths, where P2 is the path without vertex 1, and
    (2n)^2 for OneCycle and SL2."""
    seen = 0
    for n in range(1, 9):
        for sp in spec_pairs(n):
            if counts(build_meander(sp)) not in ((0, 2), (1, 0)):
                continue
            cert = synthesize_contact(sp)
            if cert.case == "TwoPaths":
                p2 = cert.auxiliary["paths"][1]
                predicted = (Fraction(cert.auxiliary["phi_H"]) * len(p2)) ** 2
            else:
                predicted = (2 * n) ** 2
            assert cert.det_value == predicted, sp.text()
            seen += 1
    assert seen == 3216


@pytest.mark.parametrize("text", ["1|4 / 3|1|1", "3|1|1|1 / 6", "2|6 / 8", "2|2 / 4", "2 / 2"])
def test_synthesis_computes_one_bordered_determinant(monkeypatch, text):
    calls = []

    def counting(L, form):
        calls.append(form)
        return bhat_det(L, form)

    monkeypatch.setattr(seaweed.contact, "bhat_det", counting)
    cert = synthesize_contact(spec(text))
    assert calls == [cert.form.as_dict()]


@pytest.mark.parametrize("text", ["1|4 / 3|1|1", "2|6 / 8", "2 / 2"])
def test_a_zero_determinant_violates_the_theorem(monkeypatch, text):
    monkeypatch.setattr(seaweed.contact, "bhat_det", lambda L, form: Fraction(0))
    with pytest.raises(TheoremViolationError):
        synthesize_contact(spec(text))


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def test_synthesize_rejects_frobenius():
    with pytest.raises(NotIndexOneError) as err:
        synthesize_contact(spec("2|3 / 5"))
    assert err.value.index == 0


def test_synthesize_rejects_higher_index():
    for n in (3, 4, 5):
        with pytest.raises(NotIndexOneError) as err:
            synthesize_contact(spec(f"{n} / {n}"))
        assert err.value.index == n - 1


def test_synthesize_small_example():
    cert = synthesize_contact(spec("1|1|3 / 5"))
    assert cert.case == "TwoPaths"
    assert verify_certificate(cert)


# ---------------------------------------------------------------------------
# verification and serialization
# ---------------------------------------------------------------------------

def test_verify_rejects_corrupted_det():
    cert = synthesize_contact(spec("1|4 / 3|1|1"))
    assert not verify_certificate(dataclasses.replace(cert, det_value=Fraction(0)))
    assert not verify_certificate(
        dataclasses.replace(cert, det_value=cert.det_value + 1)
    )


def test_verify_rejects_tampered_form():
    cert = synthesize_contact(spec("2|6 / 8"))
    bad = cert.form.plus(OneForm.from_terms(8, {(2, 1): Fraction(1)}))
    assert not verify_certificate(dataclasses.replace(cert, form=bad))


def test_verify_survives_basis_permutation():
    # swapping two basis units is a unimodular change, so the certificate
    # stays true and verification must not be fooled into rejecting it
    cert = synthesize_contact(spec("1|4 / 3|1|1"))
    swapped = list(cert.basis)
    swapped[-1], swapped[-2] = swapped[-2], swapped[-1]
    assert verify_certificate(dataclasses.replace(cert, basis=tuple(swapped)))


def test_verify_rejects_tampered_basis():
    cert = synthesize_contact(spec("1|4 / 3|1|1"))
    # a different trace-zero diagonal rescales the determinant away from
    # the stored value
    wrong = CustomDiagonal("H", tuple(Fraction(x) for x in (1, -1, 0, 0, 0)))
    basis = tuple(wrong if isinstance(b, CustomDiagonal) else b for b in cert.basis)
    assert not verify_certificate(dataclasses.replace(cert, basis=basis))
    # and a basis that no longer spans the algebra fails to materialize
    assert not verify_certificate(dataclasses.replace(cert, basis=cert.basis[:-1]))


def test_verify_rejects_wrong_spec():
    cert = synthesize_contact(spec("2 / 2"))
    other = synthesize_contact(spec("1|1 / 1|1"))
    assert not verify_certificate(dataclasses.replace(cert, spec=other.spec))


def test_verify_rejects_two_paths_claim_that_fails_the_factorization():
    # Relabel each one-cycle certificate's h(1) as the same diagonal written
    # as a custom H and call it TwoPaths: algebra and determinant are
    # unchanged, so only the case check (a one-cycle meander calls for
    # OneCycle or SL2) and det = phi(H)^2 det C' can reject it.
    forged = []
    for n in range(2, 7):
        for sp in spec_pairs(n):
            rep = components(build_meander(sp))
            if rep.C == 1 and rep.P == 0:
                cert = case2_contact(sp)
                h = CustomDiagonal("H", tuple(map(Fraction, (1, -1) + (0,) * (n - 2))))
                basis = tuple(h if b == DiagDiff(1) else b for b in cert.basis)
                forged.append(dataclasses.replace(cert, basis=basis, case="TwoPaths"))
    assert len(forged) == 9
    for cert in forged:
        coeffs = dual_matrix_to_coeffs(cert.spec, cert.basis, cert.form.as_dict())
        assert bhat_det(materialize(cert.spec, cert.basis), coeffs) == cert.det_value
        assert not verify_certificate(cert), cert.spec.text()


def test_verify_rejects_a_two_paths_certificate_whose_h_is_sheared():
    # H -> H + h(i) with phi(h(i)) != 0 is a unimodular change of basis: the
    # bordered determinant and the wedge stay, and so do the case and C',
    # but phi(H) moves, so only det = phi(H)^2 det C' can reject it
    sheared = []
    for n in range(2, 7):
        for sp in spec_pairs(n):
            if counts(build_meander(sp)) != (0, 2):
                continue
            cert = case1_contact(sp)
            w = cert.form.as_dict()
            moved = [b.i for b in cert.basis if isinstance(b, DiagDiff)
                     and w.get((b.i, b.i), 0) != w.get((b.i + 1, b.i + 1), 0)]
            if not moved:
                continue
            i = moved[0]
            (h,) = [k for k, b in enumerate(cert.basis) if isinstance(b, CustomDiagonal)]
            H = cert.basis[h]
            entries = list(H.entries)
            entries[i - 1] += 1
            entries[i] -= 1
            basis = cert.basis[:h] + (CustomDiagonal(H.name, tuple(entries)),) + cert.basis[h + 1:]
            sheared.append(dataclasses.replace(cert, basis=basis))
    assert len(sheared) == 84
    for cert in sheared:
        assert not verify_certificate(cert), cert.spec.text()


def test_verify_rejects_a_case_the_meander_does_not_call_for():
    # TwoPaths, OneCycle and SL2 specs: a renamed case must not skip or
    # borrow a case's checks
    for text in ("1|4 / 3|1|1", "2|6 / 8", "2 / 2"):
        cert = synthesize_contact(spec(text))
        assert verify_certificate(cert)
        for case in ("TwoPaths", "OneCycle", "SL2", "Bogus"):
            if case != cert.case:
                assert not verify_certificate(dataclasses.replace(cert, case=case)), (text, case)


def _label_matrix(label, n):
    """A basis label as a sparse n x n matrix {(i, j): entry}, 1-based."""
    if isinstance(label, MatrixUnit):
        return {(label.i, label.j): Fraction(1)}
    if isinstance(label, DiagDiff):
        return {(label.i, label.i): Fraction(1), (label.i + 1, label.i + 1): Fraction(-1)}
    return {(k, k): x for k, x in enumerate(label.entries, 1) if x}


def _bracket(x, y):
    out = {}
    for (a, b), u in x.items():
        for (c, d), v in y.items():
            if b == c:
                out[(a, d)] = out.get((a, d), 0) + u * v
            if d == a:
                out[(c, b)] = out.get((c, b), 0) - u * v
    return out


def _gauss_det(rows):
    """Gaussian elimination over Fractions, first nonzero entry as pivot."""
    a = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for k in range(len(a)):
        p = next((i for i in range(k, len(a)) if a[i][k]), None)
        if p is None:
            return Fraction(0)
        if p != k:
            a[k], a[p] = a[p], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, len(a)):
            f = a[i][k] / a[k][k]
            for j in range(k, len(a)):
                a[i][j] -= f * a[k][j]
    return det


def _reference(cert):
    """(bordered det, factors) from matrices built here: phi(M) = sum W_ij
    M_ij on the certificate's basis, the determinant by Fraction elimination,
    and whether det = phi(H)^2 det C' holds (always True but for TwoPaths)."""
    n = cert.spec.n
    w = cert.form.as_dict()
    mats = [_label_matrix(b, n) for b in cert.basis]

    def phi(m):
        return sum((w.get(pos, 0) * x for pos, x in m.items()), Fraction(0))

    vals = [phi(m) for m in mats]
    B = [[phi(_bracket(x, y)) for y in mats] for x in mats]
    ref = _gauss_det([[0, *vals]] + [[-v, *row] for v, row in zip(vals, B)])
    if cert.case != "TwoPaths":
        return ref, True
    (h,) = [k for k, b in enumerate(cert.basis) if isinstance(b, CustomDiagonal)]
    minor = [row[:h] + row[h + 1 :] for k, row in enumerate(B) if k != h]
    return ref, vals[h] ** 2 * _gauss_det(minor) == ref


def test_verify_matches_a_reference_on_every_single_entry_mutation():
    # Every index-one spec with n <= 5. A stored det off by one is rejected.
    # A form with one dual-matrix entry raised by 1 passes exactly when the
    # reference determinant is nonzero, is the stored one and, for TwoPaths,
    # still factors; with the stored det replaced by the reference's, the
    # same form passes exactly when that det is nonzero and factors.
    mutations = 0
    for n in range(1, 6):
        for sp in spec_pairs(n):
            if meander_index(sp) != 1:
                continue
            cert = synthesize_contact(sp)
            assert _reference(cert) == (cert.det_value, True), sp.text()
            for delta in (1, -1):
                off = dataclasses.replace(cert, det_value=cert.det_value + delta)
                assert not verify_certificate(off), sp.text()
            for pos, _ in cert.form.entries:
                form = cert.form.plus(OneForm.from_terms(n, {pos: Fraction(1)}))
                mutated = dataclasses.replace(cert, form=form)
                ref, factors = _reference(mutated)
                expected = ref != 0 and ref == cert.det_value and factors
                assert verify_certificate(mutated) is expected, (sp.text(), pos)
                restamped = dataclasses.replace(mutated, det_value=ref)
                expected = ref != 0 and factors
                assert verify_certificate(restamped) is expected, (sp.text(), pos)
                mutations += 1
    assert mutations == 461


def forged_sl3_certificate():
    # the Borel subalgebra 1|1|1 / 3 is contact, but relabelled as sl(3)
    # (3 / 3: dim 8, index 2) its basis spans only a subalgebra
    cert = synthesize_contact(spec("1|1|1 / 3"))
    return dataclasses.replace(cert, spec=spec("3 / 3"))


def test_verify_rejects_basis_of_a_subalgebra():
    assert not verify_certificate(forged_sl3_certificate())


def test_cli_verify_rejects_basis_of_a_subalgebra(tmp_path, capsys):
    path = tmp_path / "forged.json"
    path.write_text(forged_sl3_certificate().to_json(), encoding="utf-8")
    assert main(["verify", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "verification FAILED" in captured.err


def test_verify_rejects_an_over_limit_spec_before_building_anything(monkeypatch):
    cert = synthesize_contact(spec("2|6 / 8"))
    forged = dataclasses.replace(cert, spec=spec("400 / 400"))
    assert seaweed_dim(forged.spec) > MAX_VERIFY_DIM
    built = []
    monkeypatch.setattr(
        seaweed.contact, "check_basis", lambda *args: built.append(args)
    )
    t0 = time.perf_counter()
    assert verify_certificate(forged) is False
    assert time.perf_counter() - t0 < 1
    assert built == []


def test_verify_limit_admits_the_benchmark_specs():
    for text in ("2|18 / 20", "2|30 / 32"):
        sp = spec(text)
        assert seaweed_dim(sp) <= MAX_VERIFY_DIM
        assert verify_certificate(synthesize_contact(sp)), text


def test_verify_rejects_a_dense_form_before_building_anything(monkeypatch):
    sp = spec("2|18 / 20")  # dim 363, under MAX_VERIFY_DIM
    cert = synthesize_contact(sp)
    rng = random.Random(3)
    dense = OneForm.from_terms(
        sp.n,
        [((i, j), Fraction(rng.randint(1, 9))) for i in range(1, 21) for j in range(1, 21)],
    )
    forged = dataclasses.replace(cert, form=dense)
    assert len(forged.form.entries) == 400 > MAX_FORM_ENTRIES_PER_VERTEX * sp.n
    built = []
    monkeypatch.setattr(seaweed.contact, "check_basis", lambda *args: built.append(args))
    t0 = time.perf_counter()
    assert verify_certificate(forged) is False
    assert time.perf_counter() - t0 < 1
    assert built == []


_ONES = "|".join(["1"] * 1025)  # the diagonal seaweed on 1,025 vertices: dim 1024


def _parsed(*args):
    raise AssertionError("parsed a label or entry of an over-limit certificate")


@pytest.mark.parametrize(
    "basis, dual_matrix, message",
    [
        ([{"diagdiff": 1}] * 2000, {},
         "the basis has 2000 labels, above the verification limit 1024"),
        ([{"diagdiff": i} for i in range(1, 1025)],
         {f"{i},{j}": "1" for i in range(1, 4) for j in range(1, 1001)},
         "the form has 3000 dual-matrix entries, above the verification limit 2050 for n = 1025"),
    ],
    ids=["basis", "dual-matrix"],
)
def test_reader_refuses_an_over_limit_certificate_before_parsing_it(
    monkeypatch, basis, dual_matrix, message
):
    monkeypatch.setattr(seaweed.contact, "label_from_json", _parsed)
    monkeypatch.setattr(seaweed.contact, "fraction_from_json", _parsed)
    text = json.dumps({
        "spec": f"{_ONES} / {_ONES}", "case": "TwoPaths", "basis": basis,
        "dual_matrix": dual_matrix, "k": None, "det": "1",
    })
    with pytest.raises(ValueError) as exc:
        ContactCertificate.from_json(text)
    assert str(exc.value) == message


def test_form_entry_limit_admits_the_library_forms():
    # one entry per meander edge plus at most n - 1 diagonal duals
    for n in range(1, 7):
        for sp in spec_pairs(n):
            if meander_index(sp) != 1:
                continue
            entries = len(synthesize_contact(sp).form.entries)
            assert entries <= 2 * sp.n - 1 <= MAX_FORM_ENTRIES_PER_VERTEX * sp.n, sp.text()


def test_certificate_json_round_trip():
    for text in ("1|4 / 3|1|1", "2|6 / 8", "2 / 2"):
        cert = synthesize_contact(spec(text))
        again = ContactCertificate.from_json(cert.to_json())
        assert again == cert
        assert verify_certificate(again)


def test_certificate_json_shape():
    cert = synthesize_contact(spec("2|6 / 8"))
    data = json.loads(cert.to_json())
    assert data["spec"] == "2|6 / 8"
    assert data["case"] == "OneCycle"
    assert data["k"] == "1"
    assert data["det"] == "256"
    assert data["dual_matrix"]["8,3"] == "1"
    assert {"unit": [8, 3]} in data["basis"]


def test_k_follows_from_the_case():
    # case2_contact proves k = 1 suffices, so k is no stored field
    assert "k" not in {f.name for f in dataclasses.fields(ContactCertificate)}
    for text, k in (("1|4 / 3|1|1", None), ("2|6 / 8", 1), ("2 / 2", None)):
        assert synthesize_contact(spec(text)).k == k


def test_fraction_reader_refuses_a_huge_exponent_fast():
    # Fraction("1e10000000") would build 10^(10^7) before any round-trip check
    # could refuse it; the reader's regex refuses the spelling first.
    data = json.loads(synthesize_contact(spec("2 / 2")).to_json())
    data["det"] = "1e10000000"
    start = time.process_time()
    with pytest.raises(ValueError):
        fraction_from_json("1e10000000", "field 'det'")
    with pytest.raises(ValueError, match="field 'det'"):
        ContactCertificate.from_json(json.dumps(data))
    assert time.process_time() - start < 1.0


def test_certificate_json_missing_field():
    cert = synthesize_contact(spec("2 / 2"))
    data = json.loads(cert.to_json())
    del data["det"]
    with pytest.raises(ValueError, match="^missing field 'det'$"):
        ContactCertificate.from_json(json.dumps(data))


# ---------------------------------------------------------------------------
# Frobenius + contact sums
# ---------------------------------------------------------------------------

def example5_split():
    """The one-cycle decomposition of 2|6 / 8 as ambient data."""
    sp = spec("2|6 / 8")
    basis = tuple(standard_basis(sp))
    L = materialize(sp, basis)
    cert = synthesize_contact(sp)
    units = {tuple(u) for u in cert.auxiliary["heisenberg"]}
    part2 = {
        i for i, lab in enumerate(basis)
        if isinstance(lab, MatrixUnit) and (lab.i, lab.j) in units
    }
    part1 = set(range(L.dim)) - part2
    gp = SeaweedSpec.parse(cert.auxiliary["g_prime"])
    phi1 = dual_matrix_to_coeffs(sp, basis, regular_form_from_meander(gp).as_dict())
    ci, cj = cert.auxiliary["center"]
    phi2 = dual_matrix_to_coeffs(sp, basis, {(ci, cj): Fraction(1)})
    return L, part1, phi1, part2, phi2


def test_combine_center_weight_sweep():
    L, part1, phi1, part2, phi2 = example5_split()
    verdicts = dict(
        frobenius_plus_contact_combine(L, part1, phi1, part2, phi2, list(range(11)))
    )
    assert verdicts[Fraction(0)] is False  # the center direction is lost
    # det Bhat is a monomial c k^m in the center weight (case2_contact), so
    # every k != 0 gives a contact form
    assert all(verdicts[Fraction(k)] for k in range(1, 11))


def test_combine_verdicts_scale_invariant():
    L, part1, phi1, part2, phi2 = example5_split()
    ks = [0, 1, 2, 3]
    base = frobenius_plus_contact_combine(L, part1, phi1, part2, phi2, ks)
    doubled = frobenius_plus_contact_combine(
        L, part1, phi1.scale(2), part2, phi2.scale(2), ks
    )
    assert [v for _, v in base] == [v for _, v in doubled]


def test_combine_validates_partition():
    L, part1, phi1, part2, phi2 = example5_split()
    with pytest.raises(ValueError):
        frobenius_plus_contact_combine(L, part1 | {0}, phi1, part2 | {0}, phi2, [1])
    with pytest.raises(ValueError):
        frobenius_plus_contact_combine(L, part1 - {0}, phi1, part2, phi2, [1])


def test_combine_validates_support():
    L, part1, phi1, part2, phi2 = example5_split()
    with pytest.raises(ValueError):
        frobenius_plus_contact_combine(L, part1, phi2, part2, phi1, [1])


def test_combine_validates_closure():
    sp = spec("2 / 2")
    L = materialize(sp)
    from seaweed.liealg import CoeffForm

    phi1 = CoeffForm.from_values([0, 1, 0])
    phi2 = CoeffForm.from_values([1, 0, 0])
    # {e(1,2), e(2,1)} brackets onto h(1), which is in the other part
    with pytest.raises(ValueError):
        frobenius_plus_contact_combine(L, {1, 2}, phi1, {0}, phi2, [1])


# ---------------------------------------------------------------------------
# certificate bytes
# ---------------------------------------------------------------------------

_GOLDENS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "goldens.json"


def test_certificates_match_the_benchmark_goldens():
    """Every index-one spec with n <= 7 writes the certificate whose digest
    (the first 16 hex digits of its sha256) the benchmark's goldens hold,
    and reads back to the same bytes."""
    goldens = json.loads(_GOLDENS.read_text(encoding="utf-8"))["certificates"]
    checked = 0
    for n in range(1, 8):
        for sp in spec_pairs(n):
            if meander_index(sp) != 1:
                continue
            text = synthesize_contact(sp).to_json()
            assert hashlib.sha256(text.encode("utf-8")).hexdigest()[:16] == goldens[sp.text()], sp.text()
            assert ContactCertificate.from_json(text).to_json() == text, sp.text()
            checked += 1
    assert checked > 1000


def _reference_json(cert):
    """``to_json``'s output as the standard library's indent-2 encoder writes it."""
    data = {
        "spec": cert.spec.text(),
        "case": cert.case,
        "basis": [label_to_json(b) for b in cert.basis],
        "dual_matrix": {f"{i},{j}": str(c) for (i, j), c in cert.form.entries},
        "k": None if cert.k is None else str(cert.k),
        "det": str(cert.det_value),
        "auxiliary": cert.auxiliary,
    }
    return json.dumps(data, indent=2)


_odd_text = st.text(alphabet=st.sampled_from('ab"\\\n\t/é€𝄞\x00 '), max_size=6)
_fractions = st.fractions(min_value=-50, max_value=50, max_denominator=12)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | _odd_text,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_odd_text, inner, max_size=3),
    max_leaves=8,
)


@st.composite
def _certificates(draw):
    n = draw(st.integers(1, 5))
    sp = SeaweedSpec(Composition((n,)), Composition((n,)))
    # ints or bools: a bool equals an int but is written as true or false
    coord = st.integers(1, n) | st.booleans() | st.integers(-3, 40)
    unit = st.tuples(coord, coord).filter(lambda ij: ij[0] != ij[1]).map(lambda ij: MatrixUnit(*ij))
    head = st.lists(_fractions, min_size=n - 1, max_size=n - 1)
    custom = st.builds(
        lambda name, h: CustomDiagonal(name, (*h, -sum(h, Fraction(0)))), _odd_text, head
    )
    label = unit | st.builds(DiagDiff, coord) | custom
    pos = st.tuples(st.integers(1, n), st.integers(1, n))
    return ContactCertificate(
        spec=sp,
        # k follows from the case: "1" for OneCycle, null otherwise
        case=draw(st.sampled_from(["TwoPaths", "OneCycle", "SL2"]) | _odd_text),
        basis=tuple(draw(st.lists(label, max_size=6))),
        form=OneForm.from_terms(n, draw(st.dictionaries(pos, _fractions, max_size=4))),
        det_value=draw(_fractions),
        auxiliary=draw(st.dictionaries(_odd_text, _json_values, max_size=4)),
    )


@settings(max_examples=300, deadline=None)
@given(_certificates())
def test_certificate_writer_matches_the_standard_encoder(cert):
    assert cert.to_json() == _reference_json(cert)
