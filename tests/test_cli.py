"""End-to-end command line behaviour, driven in-process through main()."""
import json
import shutil
import subprocess

import pytest

import seaweed.cli
from seaweed.cli import main
from seaweed.contact import ContactCertificate, verify_certificate
from seaweed.standard_form import compositions


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


def test_verify_unreadable_inputs(capsys, tmp_path):
    rc, _, err = run(capsys, "verify", str(tmp_path / "missing.json"))
    assert rc == 2 and "cannot read certificate" in err
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all")
    rc, _, err = run(capsys, "verify", str(bad))
    assert rc == 2


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------

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


def test_enumerate_parallel_matches_serial(capsys):
    rc1, serial, _ = run(capsys, "enumerate", "4", "--index-filter", "1", "--csv")
    rc2, parallel, _ = run(
        capsys, "enumerate", "4", "--index-filter", "1", "--csv", "--jobs", "2"
    )
    assert rc1 == rc2 == 0 and serial == parallel


def test_enumerate_table_format(capsys):
    rc, out, _ = run(capsys, "enumerate", "2")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].split() == ["top", "bottom", "dim", "index", "cycles", "paths"]
    assert len(lines) == 5


def test_enumerate_n_out_of_range(capsys):
    assert run(capsys, "enumerate", "13")[0] == 2
    assert run(capsys, "enumerate", "0")[0] == 2


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def test_oracle_index(capsys):
    rc, out, _ = run(capsys, "oracle", "1|4 / 3|1|1", "--trials", "5")
    assert rc == 0 and out == "index 1\n"


def test_oracle_full_algebra(capsys):
    rc, out, _ = run(capsys, "oracle", "3 / 3", "--trials", "5")
    assert rc == 0 and out == "index 2\n"


def test_oracle_seed_env(capsys, monkeypatch):
    monkeypatch.setenv("SEAWEED_SEED", "4242")
    rc, out, _ = run(capsys, "oracle", "2 / 2", "--trials", "3")
    assert rc == 0 and out == "index 1\n"


def test_oracle_seed_flag_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("SEAWEED_SEED", "banana")
    rc, _, err = run(capsys, "oracle", "2 / 2", "--trials", "3")
    assert rc == 2 and "SEAWEED_SEED" in err
    rc, out, _ = run(capsys, "oracle", "2 / 2", "--trials", "3", "--seed", "7")
    assert rc == 0 and out == "index 1\n"


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


# ---------------------------------------------------------------------------
# installed entry point
# ---------------------------------------------------------------------------

@pytest.mark.skipif(shutil.which("seaweed") is None, reason="entry point not on PATH")
def test_console_script():
    proc = subprocess.run(
        ["seaweed", "index", "2|6 / 8"], capture_output=True, text=True
    )
    assert proc.returncode == 0 and proc.stdout == "index 1\n"
