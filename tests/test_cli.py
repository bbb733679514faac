"""End-to-end command line behaviour, driven in-process through main()."""
import argparse
import contextlib
import csv
import importlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seaweed.cli
import seaweed.contact
from seaweed.cli import main
from seaweed.contact import ContactCertificate, synthesize_contact, verify_certificate
from seaweed.meander import build_meander
from seaweed.standard_form import Composition, SeaweedSpec, compositions


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------------------
# index
# ---------------------------------------------------------------------------

def test_index_meander_default(capsys):
    rc, out, _ = run(capsys, "index", "2|6 / 8")
    assert rc == 0 and out == "index 1\n"


def test_index_gcd_three_parts(capsys):
    rc, out, _ = run(capsys, "index", "1|2|5 / 8", "--method", "gcd")
    assert rc == 0 and out == "index 0\n"


def test_index_gcd_two_parts(capsys):
    rc, out, _ = run(capsys, "index", "2|6 / 8", "--method", "gcd")
    assert rc == 0 and out == "index 1\n"


def test_index_gcd_one_part(capsys):
    rc, out, _ = run(capsys, "index", "8 / 8", "--method", "gcd")
    assert rc == 0 and out == "index 7\n"


def test_index_gcd_matches_meander_over_one_part_bottom(capsys):
    for n in range(1, 9):
        for top in compositions(n):
            if len(top) > 3:
                continue
            text = f"{'|'.join(map(str, top))} / {n}"
            rc_g, out_g, _ = run(capsys, "index", text, "--method", "gcd")
            rc_m, out_m, _ = run(capsys, "index", text, "--method", "meander")
            assert rc_g == rc_m == 0 and out_g == out_m, text


def test_index_gcd_not_applicable(capsys):
    rc, _, err = run(capsys, "index", "2|2 / 2|2", "--method", "gcd")
    assert rc == 3 and "gcd method" in err
    rc, _, err = run(capsys, "index", "1|1|1|2 / 5", "--method", "gcd")
    assert rc == 3


def test_index_oracle_method(capsys):
    rc, out, _ = run(capsys, "index", "2 / 2", "--method", "oracle")
    assert rc == 0 and out == "index 1\n"


def test_index_methods_agree_on_single_path(capsys):
    # 2|4 / 1|2|3 traces out one long path, so the index is 0
    rc, out, _ = run(capsys, "index", "2|4 / 1|2|3")
    assert rc == 0 and out == "index 0\n"
    rc, out, _ = run(capsys, "index", "2|4 / 1|2|3", "--method", "oracle")
    assert rc == 0 and out == "index 0\n"


def test_index_json(capsys):
    rc, out, _ = run(capsys, "index", "1|4 / 3|1|1", "--json")
    assert rc == 0
    data = json.loads(out)
    assert data == {
        "spec": "1|4 / 3|1|1",
        "index": 1,
        "method": "meander",
        "components": [
            {"kind": "path", "vertices": [1, 3, 4]},
            {"kind": "path", "vertices": [2, 5]},
        ],
    }


def test_index_bad_spec(capsys):
    rc, _, err = run(capsys, "index", "nope")
    assert rc == 2 and "seaweed:" in err
    rc, _, err = run(capsys, "index", "2|3 / 4")
    assert rc == 2


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 2


def test_help_exits_zero(capsys):
    rc, out, _ = run(capsys, "--help")
    assert rc == 0 and "usage:" in out


# ---------------------------------------------------------------------------
# meander
# ---------------------------------------------------------------------------

def test_meander_ascii(capsys):
    rc, out, _ = run(capsys, "meander", "5 / 5")
    assert rc == 0
    assert out == (
        "+-------+\n"
        "| +---+ |\n"
        "1 2 3 4 5\n"
        "| +---+ |\n"
        "+-------+\n"
    )


def test_meander_out_file(capsys, tmp_path):
    target = tmp_path / "m.txt"
    rc, out, _ = run(capsys, "meander", "5 / 5", "--out", str(target))
    assert rc == 0 and out == ""
    assert target.read_text().startswith("+-------+")


@pytest.mark.parametrize(
    "argv",
    [("meander", "2|6 / 8"), ("contact", "2|6 / 8"), ("contact", "2|6 / 8", "--json")],
    ids=["meander", "contact", "contact-json"],
)
def test_an_unwritable_out_file_is_bad_input(capsys, tmp_path, argv):
    # not a verification failure (exit 1); contact writes its file first,
    # so nothing reaches stdout
    target = tmp_path / "missing" / "x"
    rc, out, err = run(capsys, *argv, "--out", str(target))
    assert rc == 2 and out == ""
    assert err == f"seaweed: cannot write {target}: No such file or directory\n"


def test_meander_trivial_spec(capsys):
    rc, out, _ = run(capsys, "meander", "1 / 1")
    assert rc == 0 and out == "1\n"


def test_meander_tikz(capsys):
    rc, out, _ = run(capsys, "meander", "2|6 / 8", "--format", "tikz")
    assert rc == 0
    assert out.startswith("\\begin{tikzpicture}")
    # top arcs (1,2),(3,8),(4,7),(5,6) plus bottom (1,8),(2,7),(3,6),(4,5)
    assert out.count("\\draw ") == 8
    assert "(v8) to[bend right=60] (v3)" in out
    assert "(v1) to[bend right=60] (v8)" in out


def test_meander_json_directed(capsys):
    rc, out, _ = run(capsys, "meander", "2|6 / 8", "--format", "json", "--directed")
    assert rc == 0
    data = json.loads(out)
    assert data["n"] == 8 and data["directed"] is True
    assert [8, 3] in data["top"]


def test_meander_deterministic(capsys):
    rc1, svg1, _ = run(capsys, "meander", "1|4 / 3|1|1", "--format", "svg")
    rc2, svg2, _ = run(capsys, "meander", "1|4 / 3|1|1", "--format", "svg")
    assert rc1 == rc2 == 0 and svg1 == svg2


# ---------------------------------------------------------------------------
# contact and verify
# ---------------------------------------------------------------------------

def test_contact_summary(capsys):
    rc, out, _ = run(capsys, "contact", "2|6 / 8")
    assert rc == 0
    assert out == (
        "case: OneCycle\n"
        "form: e(1,8)* + e(2,1)* + e(2,7)* + e(3,6)* + e(4,5)* + e(6,5)*"
        " + e(7,4)* + e(8,3)*\n"
        "k: 1\n"
        "det: 256\n"
    )


def test_contact_summary_two_paths_has_no_k_line(capsys):
    rc, out, _ = run(capsys, "contact", "1|4 / 3|1|1")
    assert rc == 0
    assert out == (
        "case: TwoPaths\n"
        "form: e(1,1)* + e(1,3)* + e(4,3)* + e(5,2)*\n"
        "det: 16\n"
    )


def test_contact_json_verifies(capsys):
    rc, out, _ = run(capsys, "contact", "2|6 / 8", "--json")
    assert rc == 0
    cert = ContactCertificate.from_json(out)
    assert cert.det_value == 256
    assert verify_certificate(cert)


def test_contact_not_index_one(capsys):
    rc, _, err = run(capsys, "contact", "2|3 / 5")
    assert rc == 4 and "index 0 (Frobenius), not 1" in err
    rc, _, err = run(capsys, "contact", "5 / 5")
    assert rc == 4 and "index 4, not 1" in err and "Frobenius" not in err


@pytest.mark.parametrize("text", ["4 / 2|2", "1|3|3 / 7"])  # one cycle; two paths
def test_contact_has_no_k_max_option(capsys, text):
    # synthesis takes k = 1 without a search, so there is no bound to set
    rc, out, err = run(capsys, "contact", text, "--k-max", "3")
    assert rc == 2 and out == ""
    assert "unrecognized arguments: --k-max 3" in err


@pytest.mark.parametrize("text", ["4 / 2|2", "1|3|3 / 7"])
def test_contact_exits_5_when_a_construction_fails(capsys, monkeypatch, text):
    monkeypatch.setattr(seaweed.contact, "bhat_det", lambda L, form: 0)
    rc, out, err = run(capsys, "contact", text)
    assert rc == 5 and out == ""
    assert err.startswith("seaweed: ") and " is 0" in err


def test_contact_verify_round_trip(capsys, tmp_path):
    path = tmp_path / "cert.json"
    rc, out, _ = run(capsys, "contact", "2|6 / 8", "--out", str(path))
    assert rc == 0 and out.startswith("case: OneCycle")

    rc, out, err = run(capsys, "verify", str(path))
    assert rc == 0 and out == "verified: det 256\n" and err == ""


def test_verify_rejects_corrupted_file(capsys, tmp_path):
    path = tmp_path / "cert.json"
    run(capsys, "contact", "1|4 / 3|1|1", "--out", str(path))
    data = json.loads(path.read_text())
    data["det"] = "17"
    path.write_text(json.dumps(data))
    rc, _, err = run(capsys, "verify", str(path))
    assert rc == 1 and "FAILED" in err


def test_verify_rejects_a_false_auxiliary_fact(capsys, tmp_path):
    path = tmp_path / "cert.json"
    run(capsys, "contact", "1|4 / 3|1|1", "--out", str(path))
    data = json.loads(path.read_text())
    assert data["auxiliary"]["phi_H"] == "2"
    data["auxiliary"]["phi_H"] = "999"
    path.write_text(json.dumps(data, indent=2))
    rc, out, err = run(capsys, "verify", str(path))
    assert rc == 1 and out == "" and "FAILED" in err


def test_verify_unreadable_inputs(capsys, tmp_path):
    rc, _, err = run(capsys, "verify", str(tmp_path / "missing.json"))
    assert rc == 2 and "cannot read certificate" in err
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all")
    rc, _, err = run(capsys, "verify", str(bad))
    assert rc == 2


def _diag_entry(data):
    return next(lab["diag"]["entries"] for lab in data["basis"] if "diag" in lab)


@pytest.mark.parametrize(
    "text, edit",
    [
        ("2|6 / 8", lambda data: data.update(det="1/0")),
        ("2|6 / 8", lambda data: data["dual_matrix"].update({"8,3": "1/0"})),
        ("1|4 / 3|1|1", lambda data: _diag_entry(data).__setitem__(0, "1/0")),
    ],
    ids=["det", "dual-matrix", "custom-diagonal"],
)
def test_verify_zero_denominator_is_unreadable(capsys, tmp_path, text, edit):
    path = tmp_path / "cert.json"
    run(capsys, "contact", text, "--out", str(path))
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))
    rc, out, err = run(capsys, "verify", str(path))
    assert rc == 2 and out == "" and "cannot read certificate" in err


_NON_CANONICAL = ["256.0", " 2.56e2 ", "256_0", "1.0", "2/4", "4/2", "-0"]
_FRACTION_FIELDS = {
    "det": ("2|6 / 8", lambda data, v: data.update(det=v), "field 'det'"),
    "dual-matrix": ("2|6 / 8", lambda data, v: data["dual_matrix"].update({"8,3": v}),
                    "dual_matrix entry '8,3'"),
    "custom-diagonal": ("1|4 / 3|1|1", lambda data, v: _diag_entry(data).__setitem__(0, v),
                        "an entry of diag label 'H'"),
}


@pytest.mark.parametrize("value", _NON_CANONICAL)
@pytest.mark.parametrize("field", sorted(_FRACTION_FIELDS))
def test_verify_non_canonical_fraction_is_unreadable(capsys, tmp_path, field, value):
    """A certificate that reads must write back its own bytes, so a number
    only reads in the form str(Fraction) writes it."""
    text, edit, what = _FRACTION_FIELDS[field]
    data = json.loads(synthesize_contact(SeaweedSpec.parse(text)).to_json())
    edit(data, value)
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(data))
    rc, out, err = run(capsys, "verify", str(path))
    assert rc == 2 and out == ""
    assert err == (
        f"seaweed: cannot read certificate: {what} must be a fraction as str(Fraction) "
        f"writes it, such as '-3/4', not {value!r}\n"
    )


_CASE_SPECS = {"OneCycle": "2|6 / 8", "TwoPaths": "1|4 / 3|1|1", "SL2": "2 / 2"}


@pytest.mark.parametrize(
    "case, value",
    [("OneCycle", v) for v in ("-7/3", "1/0", None, 1, *_NON_CANONICAL)]
    + [("TwoPaths", "1"), ("TwoPaths", "0"), ("SL2", "1")],
)
def test_verify_refuses_a_k_the_case_does_not_take(capsys, tmp_path, case, value):
    """k is 1 for OneCycle and null otherwise, so a file with any other k
    does not read, however its number is written."""
    data = json.loads(synthesize_contact(SeaweedSpec.parse(_CASE_SPECS[case])).to_json())
    data["k"] = value
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(data))
    rc, out, err = run(capsys, "verify", str(path))
    assert rc == 2 and out == ""
    want = '"1"' if case == "OneCycle" else "null"
    assert err == (
        f"seaweed: cannot read certificate: field 'k' must be {want} for a {case} "
        f"certificate, not {json.dumps(value)}\n"
    )


@pytest.mark.parametrize("field", ["spec", "case", "basis", "dual_matrix", "k", "det", "auxiliary"])
@pytest.mark.parametrize("case", ["TwoPaths", "OneCycle"])
def test_verify_names_a_missing_field(capsys, tmp_path, case, field):
    data = json.loads(synthesize_contact(SeaweedSpec.parse(_CASE_SPECS[case])).to_json())
    del data[field]
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(data))
    rc, out, err = run(capsys, "verify", str(path))
    assert rc == 2 and out == ""
    assert err == f"seaweed: cannot read certificate: missing field {field!r}\n"


def test_verify_explains_an_over_limit_certificate(capsys, tmp_path):
    path = tmp_path / "cert.json"
    run(capsys, "contact", "2|6 / 8", "--out", str(path))
    data = json.loads(path.read_text())
    data["spec"] = "400 / 400"  # dim 159,999
    path.write_text(json.dumps(data))
    t0 = time.perf_counter()
    rc, out, err = run(capsys, "verify", str(path))
    assert time.perf_counter() - t0 < 1
    assert rc == 2 and out == ""
    assert err == (
        "seaweed: cannot read certificate: "
        "400 / 400 has dimension 159999, above the verification limit 1024\n"
    )


def test_verify_explains_a_dense_form(capsys, tmp_path):
    path = tmp_path / "cert.json"
    run(capsys, "contact", "2|6 / 8", "--out", str(path))
    data = json.loads(path.read_text())
    data["dual_matrix"] = {f"{i},{j}": "1" for i in range(1, 9) for j in range(1, 9)}
    path.write_text(json.dumps(data))
    t0 = time.perf_counter()
    rc, out, err = run(capsys, "verify", str(path))
    assert time.perf_counter() - t0 < 1
    assert rc == 2 and out == ""
    assert err == (
        "seaweed: cannot read certificate: the form has 64 dual-matrix entries, "
        "above the verification limit 16 for n = 8\n"
    )


def test_verify_deeply_nested_json_is_unreadable(capsys, tmp_path):
    path = tmp_path / "cert.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    rc, out, err = run(capsys, "verify", str(path))
    assert rc == 2 and out == ""
    assert err == "seaweed: cannot read certificate: the JSON nests too deeply to read\n"


def _swap_label(old, new):
    """The edit of a basis that puts label ``new`` in place of ``old``."""
    return lambda basis: [new if label == old else label for label in basis]


def _rename_key(old, new):
    """The edit of a dual matrix that files ``old``'s entry under ``new``."""
    return lambda entries: {new if k == old else k: v for k, v in entries.items()}


_H1 = {"name": "h1", "entries": ["1", "-1", "0", "0", "0", "0", "0", "0"]}


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("dual_matrix", [["8,3", "1"]], "field 'dual_matrix' must be an object, not list"),
        ("spec", 8, "field 'spec' must be a string, not int"),
        # a bool is no int, though True == 1 would read as the unit (1, 2)
        ("basis", _swap_label({"unit": [1, 2]}, {"unit": [True, 2]}),
         "a unit label must be a list of two ints, not [True, 2]"),
        ("basis", _swap_label({"unit": [1, 2]}, {"unit": "12"}),
         "a unit label must be a list of two ints, not '12'"),
        ("basis", _swap_label({"diagdiff": 3}, {"diagdiff": "3"}),
         "a diagdiff label must be an int, not '3'"),
        ("basis", _swap_label({"diagdiff": 2}, {"diagdiff": 2.0}),
         "a diagdiff label must be an int, not 2.0"),
        ("basis", _swap_label({"diagdiff": 1}, {"diag": {**_H1, "name": 1}}),
         "a diag label must hold a string name and a list of string entries, "
         f"not {({**_H1, 'name': 1})!r}"),
        ("basis", _swap_label({"diagdiff": 1}, {"diag": {**_H1, "entries": [1, -1, 0, 0, 0, 0, 0, 0]}}),
         "a diag label must hold a string name and a list of string entries, "
         f"not {({**_H1, 'entries': [1, -1, 0, 0, 0, 0, 0, 0]})!r}"),
        # a label object holds exactly one key
        ("basis", _swap_label({"unit": [1, 2]}, {"unit": [1, 2], "diagdiff": 3}),
         "a basis label must hold exactly one key, not {'unit': [1, 2], 'diagdiff': 3}"),
        ("basis", _swap_label({"diagdiff": 1}, {}),
         "a basis label must hold exactly one key, not {}"),
        # int() would read these keys as (8, 3)
        ("dual_matrix", _rename_key("8,3", "0_8,3"),
         "dual_matrix key '0_8,3' must be two decimal ints 'i,j'"),
        ("dual_matrix", _rename_key("8,3", "8, 3"),
         "dual_matrix key '8, 3' must be two decimal ints 'i,j'"),
        ("dual_matrix", _rename_key("8,3", "8,3,1"),
         "dual_matrix key '8,3,1' must be two decimal ints 'i,j'"),
        # each position has one spelling and no zero is written, so a
        # certificate that reads writes back its own bytes
        ("dual_matrix", _rename_key("1,8", "01,8"),
         "dual_matrix key '01,8' must be two decimal ints 'i,j'"),
        ("dual_matrix", lambda entries: {**entries, "1,1": "0"}, "explicit zero entry at (1,1)"),
        # OneForm.from_terms would add the two entries up
        ("dual_matrix", lambda entries: {**entries, "01,8": "1"},
         "dual_matrix key '01,8' must be two decimal ints 'i,j'"),
        # to_json writes neither key, so the file would not write back its bytes
        ("note", "signed", "unknown field 'note'"),
        ("basis", _swap_label({"diagdiff": 1}, {"diag": {**_H1, "note": "x"}}),
         "a diag label must hold a string name and a list of string entries, "
         f"not {({**_H1, 'note': 'x'})!r}"),
    ],
    ids=[
        "dual-matrix-list", "spec-number", "unit-bool", "unit-string", "diagdiff-string",
        "diagdiff-float", "diag-name-number", "diag-entries-numbers", "unit-and-diagdiff",
        "empty-label", "key-underscore",
        "key-space", "key-three-parts", "key-leading-zero", "zero-entry", "key-two-spellings",
        "unknown-field", "diag-extra-key",
    ],
)
def test_verify_mistyped_field_is_unreadable(capsys, tmp_path, field, value, message):
    path = tmp_path / "cert.json"
    run(capsys, "contact", "2|6 / 8", "--out", str(path))
    data = json.loads(path.read_text())
    data[field] = value(data[field]) if callable(value) else value
    path.write_text(json.dumps(data))
    rc, out, err = run(capsys, "verify", str(path))
    assert rc == 2 and out == ""
    assert err == f"seaweed: cannot read certificate: {message}\n"


@pytest.mark.parametrize(
    "old, new, key",
    [
        ('    "1,8": "1",', '    "1,8": "5",\n    "1,8": "1",', "1,8"),
        ('  "case": "OneCycle",', '  "case": "SL2",\n  "case": "OneCycle",', "case"),
        ('{\n      "diagdiff": 1\n    }', '{\n      "diagdiff": 2,\n      "diagdiff": 1\n    }', "diagdiff"),
    ],
    ids=["dual-matrix-key", "case", "label-key"],
)
def test_verify_repeated_key_is_unreadable(capsys, tmp_path, old, new, key):
    # json.loads keeps a repeated key's last value, so each file would read
    # as the certificate and verify, yet not write back its own bytes
    path = tmp_path / "cert.json"
    run(capsys, "contact", "2|6 / 8", "--out", str(path))
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))
    rc, out, err = run(capsys, "verify", str(path))
    assert rc == 2 and out == ""
    assert err == f"seaweed: cannot read certificate: key {key!r} is repeated\n"


@pytest.mark.parametrize("case", ["Bogus", "twopaths", ""])
def test_verify_unknown_case_is_unreadable(capsys, tmp_path, case):
    path = tmp_path / "cert.json"
    run(capsys, "contact", "1|4 / 3|1|1", "--out", str(path))
    data = json.loads(path.read_text())
    data["case"] = case
    path.write_text(json.dumps(data))
    rc, out, err = run(capsys, "verify", str(path))
    assert rc == 2 and out == ""
    assert err == (
        "seaweed: cannot read certificate: "
        f"field 'case' must be TwoPaths, OneCycle or SL2, not {case!r}\n"
    )


def test_verify_rejects_a_two_paths_certificate_renamed_sl2(capsys, tmp_path):
    # SL2 takes k null like TwoPaths, so the file reads; the spec's meander
    # has two paths, so it does not verify
    path = tmp_path / "cert.json"
    run(capsys, "contact", "1|4 / 3|1|1", "--out", str(path))
    path.write_text(path.read_text().replace('"case": "TwoPaths"', '"case": "SL2"'))
    rc, out, err = run(capsys, "verify", str(path))
    assert rc == 1 and out == "" and "FAILED" in err


def _json_kind(value):
    for kind in (type(None), bool, (int, float), str, list, dict):
        if isinstance(value, kind):
            return kind


_CERTIFICATES = {
    text: json.loads(synthesize_contact(SeaweedSpec.parse(text)).to_json())
    for text in ("1|4 / 3|1|1", "2|6 / 8", "2 / 2")  # TwoPaths, OneCycle, SL2
}
_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(sorted(_CERTIFICATES)),
    st.sampled_from(["spec", "case", "basis", "dual_matrix", "k", "det", "auxiliary"]),
    st.data(),
)
def test_verify_fuzz_one_field_of_another_type(text, field, data):
    cert = dict(_CERTIFICATES[text])
    kind = _json_kind(cert[field])
    cert[field] = data.draw(_JSON_VALUES.filter(lambda v: _json_kind(v) != kind))
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cert.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cert, fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["verify", path])
    assert rc in (1, 2), (cert, rc, out.getvalue(), err.getvalue())


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------

def test_census_meanders_keep_the_compositions_checked_sides():
    # building a census row's meander checks and copies nothing: both sides
    # are the compositions' cached Arcs
    table = seaweed.cli._composition_table(6)
    for _, top in table:
        for _, bottom in table:
            spec = SeaweedSpec(top, bottom)
            m = build_meander(spec)
            assert m.top_edges is spec.top.arcs and m.bottom_edges is spec.bottom.arcs


def test_enumerate_n2_csv(capsys):
    rc, out, _ = run(capsys, "enumerate", "2", "--csv")
    assert rc == 0
    assert out.splitlines() == [
        "top,bottom,dim,index,cycles,paths",
        "1|1,1|1,1,1,0,2",
        "1|1,2,2,0,0,1",
        "2,1|1,2,0,0,1",
        "2,2,3,1,1,0",
    ]


def test_enumerate_n2_classify(capsys):
    rc, out, _ = run(capsys, "enumerate", "2", "--classify", "--csv")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "top,bottom,dim,index,cycles,paths,case"
    assert "1|1,1|1,1,1,0,2,TwoPaths" in lines
    assert "2,2,3,1,1,0,SL2" in lines


def test_enumerate_filter_verifies(capsys):
    rc, out, err = run(capsys, "enumerate", "5", "--index-filter", "1", "--csv")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "top,bottom,dim,index,cycles,paths,verified"
    assert "1|4,3|1|1,13,1,0,2,yes" in lines
    assert all(line.endswith(",yes") for line in lines[1:])
    assert err == "verification failures: 0\n"


def test_enumerate_counts_verification_failures(capsys, monkeypatch):
    rejected = SeaweedSpec.parse("1|2 / 1|1|1")
    monkeypatch.setattr(
        seaweed.cli, "verify_certificate", lambda cert: cert.spec != rejected
    )
    rc, out, err = run(capsys, "enumerate", "3", "--index-filter", "1", "--csv", "--jobs", "1")
    lines = out.splitlines()
    assert rc == 1 and err == "verification failures: 1\n"
    assert "1|2,1|1|1,3,1,0,2,NO" in lines
    assert sum(line.endswith(",yes") for line in lines[1:]) == len(lines) - 2 == 5


@pytest.mark.parametrize(
    "argv",
    [
        ("4", "--index-filter", "1", "--csv"),
        ("5", "--csv"),
        ("5", "--classify", "--csv"),
        ("6", "--index-filter", "2"),
        ("8", "--csv"),
    ],
    ids=["filter1-n4", "csv-n5", "classify-n5", "table-filter2-n6", "csv-n8"],
)
def test_enumerate_parallel_matches_serial(capsys, argv):
    # the tasks carry top positions and each worker builds its own table; the
    # workers drop filtered rows, and n = 8 sends 128 batches back in order
    rc1, serial, _ = run(capsys, "enumerate", *argv)
    rc2, parallel, _ = run(capsys, "enumerate", *argv, "--jobs", "2")
    assert rc1 == rc2 == 0 and serial == parallel


def test_theorem_record_matches_a_fresh_sweep_at_n_7():
    """THEOREM.json records the index-one census with verified certificates
    for N = 7, 10, 11 and 12; N = 7 is recomputed through the script that
    wrote the record, which ties the record to the code."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "scripts"))
    try:
        import theorem_sweep
    finally:
        sys.path.pop(0)
    with open(theorem_sweep.RECORD, encoding="utf-8") as fh:
        record = json.load(fh)
    assert record["command"] == theorem_sweep.COMMAND
    runs = {r["n"]: r for r in record["runs"]}
    assert sorted(runs) == [7, 10, 11, 12]
    assert all(r["failures"] == 0 for r in runs.values())
    fresh = theorem_sweep.sweep(7)
    assert fresh["rows"] == runs[7]["rows"] == 764
    assert fresh["failures"] == 0
    assert fresh["sha256"] == runs[7]["sha256"]


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in process."""

    started: list[int] = []

    def __init__(self, max_workers):
        self.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable, chunksize=1):
        return map(fn, iterable)


@pytest.fixture
def serial_pool(monkeypatch):
    monkeypatch.setattr(_SerialPool, "started", [])
    monkeypatch.setattr(seaweed.cli, "ProcessPoolExecutor", _SerialPool)
    return _SerialPool


def test_enumerate_jobs_start_at_most_the_usable_cpus(capsys, monkeypatch, serial_pool):
    rc, expected, _ = run(capsys, "enumerate", "4", "--csv")
    assert rc == 0 and serial_pool.started == []
    usable = seaweed.cli._usable_cpus()
    assert 1 <= usable <= (os.cpu_count() or 1)
    rc, out, _ = run(capsys, "enumerate", "4", "--csv", "--jobs", "100000")
    assert rc == 0 and out == expected
    assert serial_pool.started == ([usable] if usable > 1 else [])
    monkeypatch.setattr(seaweed.cli, "_usable_cpus", lambda: 4)
    for jobs, workers in (("100000", 4), ("3", 3), ("2", 2)):
        serial_pool.started.clear()
        rc, out, _ = run(capsys, "enumerate", "4", "--csv", "--jobs", jobs)
        assert rc == 0 and out == expected and serial_pool.started == [workers]
    monkeypatch.setattr(seaweed.cli, "_usable_cpus", lambda: 1)
    serial_pool.started.clear()
    rc, out, _ = run(capsys, "enumerate", "4", "--csv", "--jobs", "100000")
    assert rc == 0 and out == expected and serial_pool.started == []


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_enumerate_rejects_jobs_below_one(capsys, serial_pool, jobs):
    rc, out, err = run(capsys, "enumerate", "3", "--csv", "--jobs", jobs)
    assert rc == 2 and out == "" and serial_pool.started == []
    assert err == f"seaweed: --jobs must be at least 1, got {jobs}\n"


def test_enumerate_table_format(capsys):
    rc, out, _ = run(capsys, "enumerate", "2")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].split() == ["top", "bottom", "dim", "index", "cycles", "paths"]
    assert len(lines) == 5


def test_enumerate_rows_follow_text_order(capsys, monkeypatch):
    # "10" sorts before "1|9" as text, while (10,) follows (1, 9) as a tuple
    text = {p: Composition(p).text() for p in compositions(10)}
    table = seaweed.cli._composition_table(10)  # tasks name tops by position
    monkeypatch.setattr(
        seaweed.cli,
        "_census_rows",
        lambda task: [
            (text[table[task[1]][1].parts], text[bottom.parts]) for _, bottom in table
        ],
    )
    rc, out, _ = run(capsys, "enumerate", "10", "--csv")
    rows = list(csv.reader(io.StringIO(out, newline="")))[1:]
    assert rc == 0 and len(rows) == 4**9
    assert all(a < b for a, b in zip(rows, rows[1:]))
    assert rows[-1] == ["9|1", "9|1"]


def test_enumerate_csv_bytes_match_a_real_stdout(capsys):
    src = os.path.dirname(os.path.dirname(os.path.abspath(seaweed.cli.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "seaweed.cli", "enumerate", "3", "--csv"],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    _, out, _ = run(capsys, "enumerate", "3", "--csv")
    assert proc.returncode == 0 and b"\r\n" in proc.stdout
    assert proc.stdout == out.encode("utf-8")


def test_enumerate_n_out_of_range(capsys):
    assert run(capsys, "enumerate", "13")[0] == 2
    assert run(capsys, "enumerate", "0")[0] == 2


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def _refuse(*args, **kwargs):
    raise AssertionError("built what the command should have refused to build")


@pytest.mark.parametrize(
    "argv, dim",
    [
        (("oracle", "400 / 400"), 159999),
        (("index", "400 / 400", "--method", "oracle"), 159999),
        (("contact", "2|398 / 400"), 159203),
        (("contact", "400 / 400"), 159999),  # index 399: refused before the index is read
    ],
    ids=["oracle", "index-oracle", "contact", "contact-not-index-one"],
)
def test_commands_that_build_matrices_refuse_specs_above_the_limit(capsys, monkeypatch, argv, dim):
    monkeypatch.setattr(seaweed.cli, "materialize", _refuse)
    monkeypatch.setattr(seaweed.cli, "synthesize_contact", _refuse)
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == ""
    assert err == (
        f"seaweed: {argv[1]} has dimension {dim}, above the limit 1024 for building its matrices\n"
    )


def test_limit_admits_the_largest_ladder_spec(capsys):
    rc, out, _ = run(capsys, "contact", "2|18 / 20")  # dim 363
    assert rc == 0 and out.startswith("case: ")
    rc, out, _ = run(capsys, "index", "400 / 400")  # the meander builds no matrix
    assert rc == 0 and out == "index 399\n"


_HUGE = "100000000000 / 100000000000"  # n = 10^11


@pytest.mark.parametrize(
    "argv",
    [
        ("index", _HUGE),
        ("index", _HUGE, "--method", "gcd"),
        ("index", _HUGE, "--json"),
        ("meander", _HUGE),
        ("meander", _HUGE, "--format", "svg", "--directed"),
        ("index", "1026 / 1026"),
        ("meander", "1|1025 / 1026"),
    ],
    ids=["index", "index-gcd", "index-json", "meander", "meander-svg", "index-1026", "meander-1026"],
)
def test_meander_commands_refuse_specs_above_the_vertex_limit(capsys, monkeypatch, argv):
    monkeypatch.setattr(seaweed.cli, "build_meander", _refuse)
    t0 = time.perf_counter()
    rc, out, err = run(capsys, *argv)
    assert time.perf_counter() - t0 < 1
    n = SeaweedSpec.parse(argv[1]).n
    assert rc == 2 and out == ""
    assert err == (
        f"seaweed: {argv[1]} has {n} vertices, above the limit 1025 for building its meander\n"
    )


def test_vertex_limit_admits_every_spec_the_dimension_limit_admits(capsys):
    ones = "|".join(["1"] * 1025)  # the diagonal seaweed: dim n - 1 = 1024, the least
    text = f"{ones} / {ones}"
    assert run(capsys, "contact", text)[0] == 4  # within the dimension limit; index 1024
    rc, out, _ = run(capsys, "index", text)
    assert rc == 0 and out == "index 1024\n"
    rc, out, _ = run(capsys, "meander", text, "--format", "json")
    assert rc == 0 and json.loads(out)["n"] == 1025


def test_oracle_index(capsys):
    rc, out, _ = run(capsys, "oracle", "1|4 / 3|1|1", "--trials", "5")
    assert rc == 0 and out == "index 1\n"


def test_oracle_full_algebra(capsys):
    rc, out, _ = run(capsys, "oracle", "3 / 3", "--trials", "5")
    assert rc == 0 and out == "index 2\n"


@pytest.mark.parametrize(
    "argv",
    [("oracle", "2|2|2 / 6"), ("index", "2|2|2 / 6", "--method", "oracle")],
    ids=["oracle", "index-oracle"],
)
def test_oracle_output_ignores_the_environment(capsys, monkeypatch, argv):
    # the output depends on the arguments alone: no variable sets the seed
    expected = run(capsys, *argv)
    monkeypatch.setenv("SEAWEED_SEED", "banana")
    assert run(capsys, *argv) == expected
    assert expected[0] == 0 and expected[1] == "index 3\n"


@pytest.mark.parametrize(
    "argv",
    [("oracle", "2 / 2"), ("index", "2 / 2", "--method", "oracle")],
    ids=["oracle", "index-oracle"],
)
def test_a_bad_seed_exits_before_the_algebra_is_built(capsys, monkeypatch, argv):
    monkeypatch.setattr(seaweed.cli, "materialize", _refuse)
    rc, out, err = run(capsys, *argv, "--seed", "banana")
    assert rc == 2 and out == ""
    assert "argument --seed: invalid int value: 'banana'" in err


def test_the_default_seed_is_1729(capsys):
    # the max |det - wedge| line depends on the seed, so the bytes pin it
    argv = ("oracle", "2 / 2", "--trials", "5", "--lemma1")
    default = run(capsys, *argv)
    assert default[0] == 0 and "max |det - wedge|" in default[1]
    assert run(capsys, *argv, "--seed", "1729") == default
    assert run(capsys, *argv, "--seed", "7") != default


def test_oracle_lemma1_reports_discrepancy(capsys):
    rc, out, _ = run(capsys, "oracle", "2 / 2", "--trials", "10", "--lemma1")
    # the raw det/wedge comparison fails; the squared identity is what holds,
    # and it alone sets the exit code
    assert rc == 0
    assert "max |det - wedge|" in out
    assert "squared identity (k!)^2 det = wedge^2: held for all samples" in out


def test_oracle_lemma1_fails_when_identity_is_violated(capsys, monkeypatch):
    real = seaweed.cli.bhat_det
    monkeypatch.setattr(seaweed.cli, "bhat_det", lambda L, phi: 2 * real(L, phi))
    rc, out, _ = run(capsys, "oracle", "2 / 2", "--trials", "10", "--lemma1")
    assert rc == 1
    assert "squared identity (k!)^2 det = wedge^2: VIOLATED" in out


def test_oracle_lemma1_needs_odd_small_dimension(capsys):
    rc, _, err = run(capsys, "oracle", "2|4 / 1|2|3", "--trials", "2", "--lemma1")
    assert rc == 3 and "odd dimension" in err
    rc, _, err = run(capsys, "oracle", "1|1|5 / 7", "--trials", "2", "--lemma1")
    assert rc == 3


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_oracle_rejects_trials_below_one(capsys, trials):
    # bad input, not a failed check: exit 2 and one line on stderr, no traceback
    rc, out, err = run(capsys, "oracle", "2 / 2", "--trials", trials)
    assert rc == 2 and out == ""
    assert err == f"seaweed: --trials must be at least 1, got {trials}\n"


# ---------------------------------------------------------------------------
# installed entry point
# ---------------------------------------------------------------------------

def test_python_m_seaweed_runs_the_cli():
    src = os.path.dirname(os.path.dirname(os.path.abspath(seaweed.cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "seaweed", "index", "2|6 / 8"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0 and proc.stdout == "index 1\n"


@pytest.mark.skipif(shutil.which("seaweed") is None, reason="entry point not on PATH")
def test_console_script():
    proc = subprocess.run(
        ["seaweed", "index", "2|6 / 8"], capture_output=True, text=True
    )
    assert proc.returncode == 0 and proc.stdout == "index 1\n"


@pytest.mark.parametrize(
    "module",
    ["seaweed", "seaweed.meander", "seaweed.standard_form", "seaweed.contact", "seaweed._kernels"],
)
def test_every_public_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == [], module


# ---------------------------------------------------------------------------
# documentation
# ---------------------------------------------------------------------------

def test_readme_names_only_options_the_cli_has():
    # Every --option that README's "Command line" section writes after
    # "seaweed SUBCOMMAND", in an inline code span or after a "$ " prompt,
    # must be an option of that subcommand.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    start = text.index("\n## Command line\n")
    section = text[start : text.index("\n## ", start + 1)]
    commands = re.findall(r"`(seaweed [^`]*)`", section)
    commands += re.findall(r"^\$ (seaweed .*)$", section, re.MULTILINE)
    parser = seaweed.cli.build_parser()
    subcommands = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ).choices
    named = 0
    for command in commands:
        name = command.split()[1]
        assert name in subcommands, command
        for option in re.findall(r"(?<!\S)--[a-z][a-z0-9-]*", command):
            assert option in subcommands[name]._option_string_actions, command
            named += 1
    assert named >= 5
