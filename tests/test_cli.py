"""
CLI tests: subcommand coverage, JSON/text verdict agreement, exit codes, and
the thin-adapter property (CLI verdicts equal direct library results).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from braidforge import garside, quasipositive as qp
from braidforge.cli import run
from braidforge.words import exponent_sum, parse_word


def run_json(capsys, argv):
    code = run(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_nf(capsys):
    code, report = run_json(capsys, ["nf", "-n", "3", "1 2 1"])
    assert code == 0
    assert report["schema"] == "braidforge/1"
    assert report["verdict"]["normal_form"] == {"n": 3, "delta": 1, "factors": []}
    # nesting depth is not limited by the Python stack
    depth = 5000
    code, deep = run_json(capsys, ["nf", "-n", "3", "(" * depth + "1" + ")" * depth])
    _, flat = run_json(capsys, ["nf", "-n", "3", "1"])
    assert code == 0 and deep["verdict"] == flat["verdict"]
    assert deep["witnesses"] == flat["witnesses"]


def test_eq_band_identity(capsys):
    code, report = run_json(capsys, ["eq", "-n", "4", "2 3 -2 1 2 -1", "2 1 3 2 -1 -1"])
    assert code == 0 and report["verdict"]["equal"] is True


def test_abel_matches_library(capsys):
    code, report = run_json(capsys, ["abel", "-n", "3", "(1 2)^6 1^-13"])
    assert code == 0
    assert report["verdict"]["exponent_sum"] == exponent_sum(
        parse_word("(1 2)^6 1^-13", 3)
    )


def test_perm_positive_periodic(capsys):
    code, report = run_json(capsys, ["perm", "-n", "3", "1 2"])
    assert code == 0 and report["verdict"]["images"] == [3, 1, 2]
    code, report = run_json(capsys, ["positive", "-n", "3", "1 -2"])
    assert code == 0 and report["verdict"]["positive"] is False
    code, report = run_json(capsys, ["periodic", "-n", "3", "1 2"])
    assert code == 0 and report["verdict"]["periodic"] is True


def test_root(capsys):
    code, report = run_json(capsys, ["root", "-n", "3", "-d", "3", "1 2 1 1 2 1"])
    assert code == 0
    assert report["verdict"] == {"found": True, "kind": "delta", "power": 1}


def test_conj_with_witness(capsys):
    code, report = run_json(capsys, ["conj", "-n", "3", "1", "2"])
    assert code == 0 and report["verdict"]["conjugate"] is True
    witness = parse_word(report["witnesses"]["conjugator"], 3)
    from braidforge.words import conjugate, word

    assert garside.is_equal(conjugate(witness, word(3, [1])), word(3, [2]))


def test_qp_subcommands(capsys):
    cert = '{"n":4,"bands":[{"conj":"2","gen":3},{"conj":"1","gen":2}]}'
    code, report = run_json(capsys, ["qp", "expand", cert])
    assert code == 0 and report["verdict"]["word"] == "2 3 -2 1 2 -1"
    code, report = run_json(capsys, ["qp", "verify", cert, "2 1 3 2 -1 -1"])
    assert code == 0 and report["verdict"]["verified"] is True
    code, report = run_json(capsys, ["qp", "obstruct", "-n", "3", "(1 2)^6 1^-13"])
    assert code == 0
    assert report["verdict"] == {
        "status": "not_qp",
        "reason": "negative_exponent_sum",
    }
    code, report = run_json(capsys, ["qp", "root", "-n", "3", "-d", "3", "(1 2 1)^2"])
    assert code == 0 and report["verdict"]["found"] is True
    cert_obj = qp.certificate_from_json(report["witnesses"]["certificate"])
    assert len(cert_obj) == 2


def test_cable_subcommands(capsys):
    rf = '{"tubular":"1","widths":[2,2],"interiors":[{"orbit":0,"word":"-1 -1"}]}'
    code, report = run_json(capsys, ["cable", "assemble", rf])
    assert code == 0
    assert report["verdict"]["word"] == "2 3 1 2 -1 -1"
    assignment = '{"tubular":"1","widths":[2,2],"positions":["1","1"]}'
    code, report = run_json(capsys, ["cable", "normalize", assignment])
    assert code == 0
    assert report["verdict"]["regular_form"]["interiors"] == [
        {"orbit": 0, "word": "1 1"}
    ]
    cable_input = json.dumps(
        {
            "tubular_cert": {"n": 2, "bands": [{"conj": "", "gen": 1}]},
            "interiors": [{"n": 2, "bands": [{"conj": "", "gen": 1}] * 2}],
            "widths": [2, 2],
        }
    )
    code, report = run_json(capsys, ["cable", "cert", cable_input])
    assert code == 0 and report["verdict"]["bands"] == 6


def test_cover_subcommands(capsys):
    code, report = run_json(capsys, ["cover", "data", "-n", "3", "-k", "2"])
    assert code == 0
    assert report["verdict"] == {
        "euler_char": -1,
        "boundary_components": 1,
        "genus": 1,
        "h1_rank": 2,
    }
    code, report = run_json(capsys, ["cover", "lift", "-n", "3", "-k", "3", "1"])
    assert code == 0 and report["verdict"]["twist_word"] == "t[1,1] t[1,2]"
    code, report = run_json(capsys, ["cover", "homrep", "-n", "3", "-k", "2", "t[1,1]"])
    assert code == 0 and report["verdict"]["matrix"]["dim"] == 2
    code, report = run_json(capsys, ["cover", "deck", "-n", "2", "-k", "3"])
    assert code == 0 and report["verdict"]["matrix"]["rows"] == [[0, -1], [1, -1]]
    code, report = run_json(
        capsys, ["cover", "symcheck", "-n", "3", "-k", "3", "t[1,1]"]
    )
    assert code == 0 and report["verdict"]["h1_deck_commutes"] is False
    code, report = run_json(
        capsys,
        ["cover", "ideq", "-n", "3", "-k", "2", "t[1,1] t[2,1] t[1,1]", "t[2,1] t[1,1] t[2,1]"],
    )
    assert code == 0 and report["verdict"]["h1_equal"] is True


def test_verify_paper(capsys):
    code, report = run_json(capsys, ["verify-paper", "--seed", "0"])
    assert code == 0
    assert report["verdict"]["all_passed"] is True
    assert len(report["verdict"]["checks"]) >= 10
    # deterministic given the seed
    code2, report2 = run_json(capsys, ["verify-paper", "--seed", "0"])
    checks1 = [(c["name"], c["passed"], c["details"]) for c in report["verdict"]["checks"]]
    checks2 = [(c["name"], c["passed"], c["details"]) for c in report2["verdict"]["checks"]]
    assert checks1 == checks2


def test_verify_paper_text(capsys):
    code = run(["verify-paper"])
    out = capsys.readouterr().out
    assert code == 0
    assert "11/11 checks passed" in out


def test_text_and_json_verdicts_agree(capsys):
    code = run(["eq", "-n", "3", "1 2 1", "2 1 2"])
    text = capsys.readouterr().out
    assert code == 0 and "equal: True" in text
    code, report = run_json(capsys, ["eq", "-n", "3", "1 2 1", "2 1 2"])
    assert report["verdict"]["equal"] is True


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        run(["nf", "-n", "3"])  # missing word
    assert err.value.code == 1
    with pytest.raises(SystemExit) as err:
        run(["bogus"])
    assert err.value.code == 1


def fails_with_one_line(capsys, argv) -> bool:
    capsys.readouterr()
    code = run(argv)
    err = capsys.readouterr().err
    return code == 1 and err.startswith("error: ") and err.count("\n") == 1


def test_parse_error_exit_code(capsys):
    assert run(["nf", "-n", "3", "1 x"]) == 1
    assert run(["nf", "-n", "3", "7"]) == 1
    # certificate JSON of the wrong shape
    for cert in [
        "[1]",
        "3",
        '{"n": 4}',
        '{"n": "4", "bands": []}',
        '{"n": 4, "bands": {}}',
        '{"n": 4, "bands": [1]}',
        '{"n": 4, "bands": [{"conj": 2, "gen": 3}]}',
        '{"n": 4, "bands": [{"conj": "2"}]}',
    ]:
        assert fails_with_one_line(capsys, ["qp", "expand", cert]), cert
        assert fails_with_one_line(capsys, ["qp", "verify", cert, "1"]), cert
    # cabling JSON of the wrong shape, and orbits out of range
    for sub in ["assemble", "normalize", "cert"]:
        assert fails_with_one_line(capsys, ["cable", sub, "[1]"]), sub
    for rf in [
        '{"tubular": "1", "widths": [2, "x"]}',
        '{"tubular": 1, "widths": [2, 2]}',
        '{"tubular": "1", "widths": [2, 2], "interiors": {}}',
        '{"tubular": "1", "widths": [2, 2], "interiors": [1]}',
        '{"tubular": "1", "widths": [2, 2], "interiors": [{"orbit": 5, "word": "1"}]}',
        '{"tubular": "1", "widths": [2, 2], "interiors": [{"orbit": -1, "word": "1"}]}',
    ]:
        assert fails_with_one_line(capsys, ["cable", "assemble", rf]), rf
    for assignment in [
        '{"tubular": "1", "widths": [2, "x"], "positions": ["1", "1"]}',
        '{"tubular": "1", "widths": [2, 2], "positions": ["1", "1", "1"]}',
        '{"tubular": "1", "widths": [2, 2], "positions": ["1", 1]}',
    ]:
        assert fails_with_one_line(capsys, ["cable", "normalize", assignment]), assignment
    empty = '{"n": 2, "bands": []}'
    for data in [
        '{"widths": [2, 2]}',
        '{"widths": [2, "x"], "interiors": [], "tubular_cert": %s}' % empty,
        '{"widths": [2, 2], "interiors": {}, "tubular_cert": %s}' % empty,
        '{"widths": [2, 2], "interiors": [1], "tubular_cert": %s}' % empty,
        '{"widths": [2, 2], "interiors": [%s]}' % empty,
    ]:
        assert fails_with_one_line(capsys, ["cable", "cert", data]), data
    # a word that expands past the letter cap
    assert fails_with_one_line(capsys, ["abel", "-n", "3", "((1^1000 2)^1000)^3"])


def test_budget_exit_code(capsys):
    from braidforge.words import conjugate, word

    a = "2 -2 2 2 3 -3 -2 -1"
    u = word(4, [3, -2, -3, -3, 2])
    from braidforge.words import format_word

    b = format_word(conjugate(u, parse_word(a, 4)))
    code = run(["conj", "-n", "4", a, b, "--budget", "0"])
    assert code == 2
    # a negative budget is a usage error on every subcommand that takes one
    for argv in [
        ["conj", "-n", "3", "1", "1"],
        ["root", "-n", "3", "-d", "2", "1"],
        ["qp", "obstruct", "-n", "3", "1"],
        ["qp", "root", "-n", "3", "-d", "2", "1"],
    ]:
        assert fails_with_one_line(capsys, argv + ["--budget", "-1"]), argv


def test_verify_paper_under_python_O():
    # no assert guards a verdict, so every check still runs and passes under -O
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "braidforge.cli", "verify-paper", "--seed", "1", "--json"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["verdict"]["all_passed"]
