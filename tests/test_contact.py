"""Contact form synthesis, certificates, and independent verification."""
import dataclasses
import itertools
import json
import math
from fractions import Fraction

import pytest

from seaweed.cli import main
from seaweed.contact import (
    ContactCertificate,
    NotIndexOneError,
    OneForm,
    SynthesisError,
    WrongCaseError,
    case1_contact,
    case2_contact,
    frobenius_plus_contact_combine,
    regular_form_from_meander,
    synthesize_contact,
    verify_certificate,
)
from seaweed.standard_form import (
    CustomDiagonal,
    MatrixUnit,
    SeaweedSpec,
    dual_matrix_to_coeffs,
    materialize,
    spec_pairs,
    standard_basis,
)
from seaweed.exact import RatMatrix, kernel_basis, rank
from seaweed.liealg import kirillov_matrix
from seaweed.meander import build_meander, components, index as meander_index


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
    assert a.scale(-2).as_dict() == {(1, 2): Fraction(-2)}
    assert a.scale(0).as_dict() == {}


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


def test_case2_exhausted_search_reports_samples():
    with pytest.raises(SynthesisError) as err:
        case2_contact(spec("4 / 2|2"), k_max=0)
    assert err.value.samples == ()


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


def test_certificate_json_missing_field():
    cert = synthesize_contact(spec("2 / 2"))
    data = json.loads(cert.to_json())
    del data["det"]
    with pytest.raises(KeyError):
        ContactCertificate.from_json(data)


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
    hits = sum(1 for k in range(1, 11) if verdicts[Fraction(k)])
    assert hits >= 8


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
