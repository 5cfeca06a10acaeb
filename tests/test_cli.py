"""
CLI tests: subcommand coverage, JSON/text verdict agreement, exit codes, and
the thin-adapter property (CLI verdicts equal direct library results).
"""

import argparse
import json
import os
import random
import shlex
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from braidforge import garside, quasipositive as qp
from braidforge.cli import build_parser, run
from braidforge.cover import MAX_H1_RANK
from braidforge.garside import MAX_NF_ENTRIES, MAX_SEARCH_STRANDS
from braidforge.words import MAX_STRANDS, MAX_WORD_LETTERS, exponent_sum, parse_word


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


def test_nf_of_a_word_that_cancels(capsys):
    # σ1 σ3 σ1^-1 σ3^-1 cancels by far commutation: δ⁰ with no factors
    code = run(["nf", "-n", "6", "--json", "--", "1 3 -1 -3"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["verdict"]["normal_form"] == {"n": 6, "delta": 0, "factors": []}


def test_nf_size_cap_counts_the_input_letters(capsys):
    # the cap is checked on the word as given, before it is reduced: these
    # words cancel to the empty word and are still refused, with the message
    # of any other word of that length
    letters = 2 * (MAX_NF_ENTRIES // 2000 + 1)
    message = (
        f"error: a word of {letters} letters on 1000 strands is more than "
        f"{MAX_NF_ENTRIES} normal-form entries\n"
    )
    for text in ("(1 -1)^%d" % (letters // 2), "1^%d 1^-%d" % (letters // 2, letters // 2)):
        for argv in (["nf", "-n", "1000", text], ["eq", "-n", "1000", text, ""]):
            capsys.readouterr()
            assert run(argv) == 1, argv
            assert capsys.readouterr().err == message, argv
    # the same length of letters that do not cancel gets the same message
    capsys.readouterr()
    assert run(["nf", "-n", "1000", "1^%d" % letters]) == 1
    assert capsys.readouterr().err == message


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


def test_certificate_expansion_cap(capsys):
    # 4600 bands of 199 999 letters each would expand to 9.2·10^8 letters;
    # the count stops the parse at the third band, past garside.MAX_NF_ENTRIES
    # on 10 strands
    cert = json.dumps({"n": 10, "bands": [{"conj": "1^99999", "gen": 1}] * 4600})
    assert fails_with_one_line(capsys, ["qp", "expand", cert])
    assert fails_with_one_line(capsys, ["qp", "verify", cert, "1"])
    capsys.readouterr()
    run(["qp", "expand", cert])
    assert "more than %d normal-form entries" % MAX_NF_ENTRIES in capsys.readouterr().err


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
        '{"tubular": "1", "widths": [1, 1, 2], "interiors": [{"orbit": true, "word": "1"}]}',
        '{"tubular": "1", "widths": [2, 2], "interiors": [{"orbit": 0, "word": "1"}, {"orbit": 0, "word": "-1"}]}',
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
    # JSON nested past the parser's recursion limit, on every subcommand that
    # reads JSON, and band generators that are not ints
    deep = "[" * 2000 + "]" * 2000
    for argv in [
        ["qp", "expand", deep],
        ["qp", "verify", deep, "1"],
        ["cable", "assemble", deep],
        ["cable", "normalize", deep],
        ["cable", "cert", deep],
    ]:
        assert fails_with_one_line(capsys, argv), argv[:2]
    for gen in ["true", "1.5"]:
        cert = '{"n": 3, "bands": [{"conj": "", "gen": %s}]}' % gen
        assert fails_with_one_line(capsys, ["qp", "expand", cert]), cert
        assert fails_with_one_line(capsys, ["qp", "verify", cert, "1"]), cert
    # strand counts that are bools: true is not the strand count 1
    assert fails_with_one_line(capsys, ["qp", "expand", '{"n":true,"bands":[]}'])
    assert fails_with_one_line(capsys, ["cable", "assemble", '{"tubular":"","widths":[true, 2]}'])
    bool_widths = ('{"tubular_cert":{"n":2,"bands":[{"conj":"","gen":1}]},'
                   '"interiors":[{"n":1,"bands":[]}],"widths":[true,true]}')
    assert fails_with_one_line(capsys, ["cable", "cert", bool_widths])
    # a word that expands past the letter cap
    assert fails_with_one_line(capsys, ["abel", "-n", "3", "((1^1000 2)^1000)^3"])
    # cabled words past the letter cap: one 600 x 600 crossing, or five of 200 x 200
    for tubular, w in [("1", 600), ("1 1 1 1 1", 200)]:
        rf = {"tubular": tubular, "widths": [w, w]}
        assert fails_with_one_line(capsys, ["cable", "assemble", json.dumps(rf)]), rf
        assignment = json.dumps({**rf, "positions": ["", ""]})
        assert fails_with_one_line(capsys, ["cable", "normalize", assignment]), rf
    # one 600 x 600 crossing, a conjugator cabled to 360 000 letters, and 1600
    # bands each conjugated by a 1600-letter cable
    for n, conj, w in [(2, "", 600), (3, "2", 600), (3, "2", 40)]:
        data = {
            "widths": [w] * n,
            "interiors": [{"n": w, "bands": []}] * (n - 1),
            "tubular_cert": {"n": n, "bands": [{"conj": conj, "gen": 1}]},
        }
        assert fails_with_one_line(capsys, ["cable", "cert", json.dumps(data)]), data
    # a single 300 x 300 crossing is 90 000 letters, under the cap
    assert run(["cable", "assemble", '{"tubular": "1", "widths": [300, 300]}']) == 0
    # strand counts past words.MAX_STRANDS, from -n, a certificate or widths
    assert run(["nf", "-n", str(MAX_STRANDS), "1"]) == 0
    big, half = "2000000", MAX_STRANDS // 2
    for argv in [
        ["nf", "-n", big, "1"],
        ["conj", "-n", big, "1", "1"],
        ["root", "-n", big, "-d", "2", "1"],
        ["qp", "obstruct", "-n", big, "1"],
        ["cover", "lift", "-n", big, "-k", "2", "1"],
        ["qp", "expand", '{"n": %s, "bands": []}' % big],
        ["qp", "verify", '{"n": %s, "bands": []}' % big, "1"],
        ["cable", "assemble", '{"tubular": "", "widths": [%s]}' % big],
        ["cable", "assemble", '{"tubular": "", "widths": [%d, %d]}' % (half, MAX_STRANDS + 1 - half)],
        ["cable", "normalize", '{"tubular": "", "widths": [%d], "positions": [""]}' % (MAX_STRANDS + 1)],
    ]:
        assert fails_with_one_line(capsys, argv), argv
    # a conjugacy search that would expand nodes just past
    # garside.MAX_SEARCH_STRANDS; qp obstruct runs no search, so the same
    # band is certified there, by one band
    over = str(MAX_SEARCH_STRANDS + 1)
    assert fails_with_one_line(capsys, ["conj", "-n", over, "1", "2"])
    for argv in [["qp", "obstruct", "-n", over, "2"], ["qp", "obstruct", "-n", "12", "1"]]:
        code, report = run_json(capsys, argv)
        assert code == 0 and report["verdict"]["status"] == "qp", argv
        cert = qp.certificate_from_json(report["witnesses"]["certificate"])
        assert len(cert) == 1 and qp.verify(cert, parse_word(argv[-1], int(argv[3]))), argv
    # short words whose normal form word passes the letter cap.  In B_30,
    # x = σ1 σ3 ... σ29 and y = σ2 σ4 ... σ28 have the left lcm Δ, so the
    # 29 letters of x y^-1 become a left fraction of 841; (x y^-1)^300 would
    # be 130 500 letters and (x y^-1)^200 is 87 000.  A negative Δ-power is
    # written with the factors after it: σ1^-1000 (Δ^-1000 and 1000 factors)
    # comes back as its own 1000 letters.
    xy = "(%s %s)^" % (" ".join(map(str, range(1, 30, 2))), " ".join(map(str, range(-28, 0, 2))))
    assert fails_with_one_line(capsys, ["nf", "-n", "30", xy + "300"])
    assert run(["nf", "-n", "30", xy + "200"]) == 0
    capsys.readouterr()
    code, report = run_json(capsys, ["nf", "-n", "30", "1^-1000"])
    assert code == 0 and report["witnesses"]["word"] == " ".join(["-1"] * 1000)
    # words whose normal form would hold more than garside.MAX_NF_ENTRIES
    # strand entries: 1000 strands times 5001 letters, and a w^100 in B_100
    # of 100 times 600 letters, which periodic refuses before building it
    over = "1^-%d" % (MAX_NF_ENTRIES // 1000 + 1)
    for argv in [
        ["nf", "-n", "1000", over],
        ["eq", "-n", "1000", over, "1"],
        ["periodic", "-n", "100", "1^%d" % (MAX_NF_ENTRIES // 100**2 + 100)],
    ]:
        assert fails_with_one_line(capsys, argv), argv
    # lifts past the letter cap: len(w)·(k-1) twists
    cap = MAX_WORD_LETTERS
    assert run(["cover", "lift", "-n", "3", "-k", str(cap + 1), "1"]) == 0
    for argv in [
        ["cover", "lift", "-n", "3", "-k", str(cap + 2), "1"],
        ["cover", "lift", "-n", "3", "-k", "200000", "1 2 1 2 1"],
    ]:
        assert fails_with_one_line(capsys, argv), argv
    # matrices past cover.MAX_H1_RANK; cover data holds no matrix
    rank = MAX_H1_RANK
    assert run(["cover", "ideq", "-n", "2", "-k", str(rank + 1), "t[1,1]", "t[1,1]"]) == 0
    assert run(["cover", "data", "-n", "100000", "-k", "100000"]) == 0
    for argv in [
        ["cover", "deck", "-n", "2", "-k", str(rank + 2)],
        ["cover", "deck", "-n", "46", "-k", "46"],
        ["cover", "homrep", "-n", "2", "-k", str(rank + 2), "t[1,1]"],
        ["cover", "symcheck", "-n", str(rank + 2), "-k", "2", "t[1,1]"],
        ["cover", "ideq", "-n", "2", "-k", str(rank + 2), "t[1,1]", "t[1,1]"],
    ]:
        assert fails_with_one_line(capsys, argv), argv


def test_cable_cert_of_a_long_conjugator(capsys):
    # the band's conjugator (1 2)^600 cables letter by letter at widths 1
    data = {
        "tubular_cert": {"n": 3, "bands": [{"conj": "(1 2)^600", "gen": 1}]},
        "interiors": [{"n": 1, "bands": []}] * 2,
        "widths": [1, 1, 1],
    }
    code, report = run_json(capsys, ["cable", "cert", json.dumps(data)])
    assert code == 0 and report["verdict"]["bands"] == 1
    # at widths 1 with empty interiors the composite is the tubular braid
    cabled = qp.certificate_from_json(report["witnesses"]["certificate"])
    assert qp.verify(cabled, qp.expand(qp.certificate_from_json(data["tubular_cert"])))


def test_cable_cert_refusal_names_the_band(capsys):
    # two bands conjugated by a 401-letter word across tubes of widths 1 and 2:
    # the refusal names the band by its place and generator, not its word
    data = {
        "tubular_cert": {"n": 3, "bands": [{"conj": "-2 (1 -2)^200", "gen": 1}] * 2},
        "interiors": [{"n": 1, "bands": []}, {"n": 2, "bands": []}, {"n": 2, "bands": []}],
        "widths": [1, 2, 2],
    }
    capsys.readouterr()
    assert run(["cable", "cert", json.dumps(data)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "band 1 (generator 1)" in err
    assert len(err.encode()) < 200


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
        ["qp", "root", "-n", "3", "-d", "2", "1"],
    ]:
        assert fails_with_one_line(capsys, argv + ["--budget", "-1"]), argv
    # qp obstruct runs no conjugacy search, so it takes no budget
    with pytest.raises(SystemExit) as err:
        run(["qp", "obstruct", "-n", "3", "1", "--budget", "5"])
    assert err.value.code == 1


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


EVERY_COMMAND = [
    ["nf", "-n", "3", "1 2 1"],
    ["eq", "-n", "4", "2 3 -2 1 2 -1", "2 1 3 2 -1 -1"],
    ["abel", "-n", "3", "1 -2 1"],
    ["perm", "-n", "3", "1 2"],
    ["positive", "-n", "3", "1 -2"],
    ["periodic", "-n", "3", "1 2"],
    ["conj", "-n", "3", "1 2", "2 1"],
    ["root", "-n", "3", "-d", "2", "(1 2)^3"],
    ["qp", "expand", '{"n": 4, "bands": [{"conj": "2", "gen": 3}]}'],
    ["qp", "verify", '{"n": 4, "bands": [{"conj": "2", "gen": 3}]}', "2 3 -2"],
    ["qp", "obstruct", "-n", "3", "1 -2"],
    ["qp", "root", "-n", "3", "-d", "2", "(1 2)^3"],
    ["cable", "assemble", '{"tubular": "1", "widths": [2, 2], "interiors": [{"orbit": 0, "word": "-1 -1"}]}'],
    ["cable", "normalize", '{"tubular": "1", "widths": [2, 2], "positions": ["1", "1"]}'],
    [
        "cable",
        "cert",
        '{"widths": [2, 2], "interiors": [{"n": 2, "bands": []}],'
        ' "tubular_cert": {"n": 2, "bands": [{"conj": "", "gen": 1}]}}',
    ],
    ["cover", "data", "-n", "3", "-k", "3"],
    ["cover", "lift", "-n", "3", "-k", "3", "1 -2"],
    ["cover", "homrep", "-n", "3", "-k", "2", "t[1,1]"],
    ["cover", "deck", "-n", "3", "-k", "3"],
    ["cover", "symcheck", "-n", "3", "-k", "3", "t[1,1] t[1,2]"],
    ["cover", "ideq", "-n", "3", "-k", "2", "t[1,1] t[2,1] t[1,1]", "t[2,1] t[1,1] t[2,1]"],
    ["verify-paper", "--seed", "0"],
]


def leaf_commands(parser, prefix=()):
    """Every runnable subcommand of the parser, as a tuple of names."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {prefix}
    return {
        leaf
        for name, sub in subs[0].choices.items()
        for leaf in leaf_commands(sub, prefix + (name,))
    }


def test_braid_side_commands_do_not_load_numpy():
    # nothing in the package imports numpy: every subcommand runs in a fresh
    # process in which importing it fails
    assert {tuple(a for a in argv[:2] if not a.startswith("-")) for argv in EVERY_COMMAND} == (
        leaf_commands(build_parser())
    )
    script = textwrap.dedent(
        """
        import contextlib, io, json, sys
        sys.modules["numpy"] = None
        import braidforge.cli

        def run(argv):
            with contextlib.redirect_stdout(io.StringIO()):
                return braidforge.cli.run(argv)

        print(json.dumps([run(argv) for argv in json.loads(sys.argv[1])]))
        """
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(EVERY_COMMAND)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0] * len(EVERY_COMMAND)


def test_each_command_loads_only_the_submodules_it_runs():
    # every command in its own fresh interpreter, as users run them: the
    # package loads a submodule on first use, and the CLI imports the
    # garside, quasipositive, cabling, cover and check modules only in the
    # commands that call them; the cover commands load no Garside code
    braid = {"cli", "words"}
    garside = braid | {"garside"}
    loads = {
        **{command: garside for command in ("nf", "eq", "positive", "periodic", "root", "conj")},
        "qp": garside | {"quasipositive"},
        "cable": garside | {"quasipositive", "cabling"},
        "cover": braid | {"cover"},
        "verify-paper": garside | {"quasipositive", "cabling", "cover", "checks"},
    }
    script = textwrap.dedent(
        """
        import contextlib, io, json, sys
        import braidforge.cli

        with contextlib.redirect_stdout(io.StringIO()):
            code = braidforge.cli.run(json.loads(sys.argv[1]))
        print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("braidforge."))]))
        """
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    for argv in EVERY_COMMAND:
        proc = subprocess.run(
            [sys.executable, "-c", script, json.dumps(argv)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        code, modules = json.loads(proc.stdout)
        assert code == 0, argv
        assert modules == sorted(f"braidforge.{m}" for m in loads.get(argv[0], braid)), argv


# --- fuzzing every subcommand ---

# a placeholder that the JSON text of a fuzz case replaces by 2000 nested
# lists; with the bool and the float it repeats the cases of
# test_parse_error_exit_code at random places
DEEP = "\u0000deep"
ODD_VALUES = [True, False, 1.5, None, "x", "", -1, 0, 7, [], {}, DEEP]


def fuzz_word(rng, n, depth=0):
    """Short word text on n strands: mostly well formed, with small powers,
    and now and then a stray grammar token, a zero or an index out of range;
    one in ten is a power of the periodic braid σ_1 ... σ_{n-1}."""
    if rng.random() < 0.1:
        return "(%s)^%d" % (" ".join(map(str, range(1, n))), rng.randint(-4, 4))
    items = []
    for _ in range(rng.randint(0, 5)):
        r = rng.random()
        if r < 0.05:
            item = rng.choice(["(", ")", "^", "x", "^-", "0", "1.5", str(n)])
        elif r < 0.15 and depth < 2:
            item = "(" + fuzz_word(rng, n, depth + 1) + ")"
        else:
            item = str(rng.choice([-1, 1]) * rng.randint(1, max(n - 1, 1)))
        if rng.random() < 0.2:
            item += "^%d" % rng.randint(-3, 3)
        items.append(item)
    return " ".join(items)


def fuzz_twists(rng, n, k):
    items = []
    for _ in range(rng.randint(0, 4)):
        if rng.random() < 0.1:
            items.append(rng.choice(["t[1]", "t[a,1]", "x", "t[1,1]^2", "t[0,1]", f"t[1,{k}]"]))
        else:
            item = "t[%d,%d]" % (rng.randint(1, max(n - 1, 1)), rng.randint(1, max(k - 1, 1)))
            items.append(item + rng.choice(["", "", "^-1"]))
    return " ".join(items)


def fuzz_cert(rng, n):
    """A certificate on n strands; one generator in ten is n, out of range."""
    top = max(n - 1, 1)
    return {
        "n": n,
        "bands": [
            {"conj": fuzz_word(rng, n), "gen": rng.randint(1, top) if rng.random() < 0.9 else n}
            for _ in range(rng.randint(0, 3))
        ],
    }


def fuzz_json(rng, dest):
    """Nearly right JSON for the argument dest, as text: a valid shape with
    small sizes, and a third of the time one value replaced by an odd one."""
    m = rng.randint(1, 3)
    widths = [rng.choice([1, 2, 2, 3]) for _ in range(m)]
    if dest == "cert":
        value = fuzz_cert(rng, rng.randint(1, 6))
    elif dest == "rf":
        value = {
            "tubular": fuzz_word(rng, m),
            "widths": widths,
            "interiors": [
                {"orbit": rng.randint(-1, m), "word": fuzz_word(rng, 3)}
                for _ in range(rng.randint(0, 2))
            ],
        }
    elif dest == "assignment":
        value = {
            "tubular": fuzz_word(rng, m),
            "widths": widths,
            "positions": [fuzz_word(rng, w) for w in widths],
        }
    else:
        value = {
            "tubular_cert": fuzz_cert(rng, m),
            "interiors": [fuzz_cert(rng, w) for w in widths[: rng.randint(0, m)]],
            "widths": widths,
        }
    if rng.random() < 0.3:
        slots = []

        def collect(v):
            if isinstance(v, (dict, list)):
                for key, child in list(v.items() if isinstance(v, dict) else enumerate(v)):
                    slots.append((v, key))
                    collect(child)

        collect(value)
        container, key = rng.choice(slots)
        container[key] = rng.choice(ODD_VALUES)
    return json.dumps(value).replace(json.dumps(DEEP), "[" * 2000 + "]" * 2000)


def subparser(parser, path):
    for name in path:
        subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = subs.choices[name]
    return parser


def fuzz_argv(rng, path, leaf):
    n, k = rng.randint(1, 6), rng.randint(1, 5)
    values = {"n": n, "k": k, "d": rng.randint(-1, 4), "budget": 20, "seed": 0}
    argv = list(path)
    positionals = []
    for action in leaf._actions:
        if action.dest == "help":
            continue
        if not action.option_strings:
            positionals.append(action.dest)
        elif action.dest == "json":
            argv += ["--json"] if rng.random() < 0.5 else []
        else:
            argv += [action.option_strings[0], str(values[action.dest])]
    argv += ["--"] if positionals else []
    for dest in positionals:
        if dest.startswith("word"):
            argv.append(fuzz_word(rng, n))
        elif dest.startswith("twistword"):
            argv.append(fuzz_twists(rng, n, k))
        else:
            argv.append(fuzz_json(rng, dest))
    return argv


def fuzz_letters(rng, n, most):
    """Up to `most` random letters on n strands, as signed ints."""
    if n == 1:
        return []
    return [rng.choice([-1, 1]) * rng.randint(1, n - 1) for _ in range(rng.randint(0, most))]


def fuzz_text(letters):
    return " ".join(map(str, letters))


def fuzz_orbits(rng, letters, m):
    """The orbits of a tubular word on m tubes, each cycle from its smallest
    position, and widths 1-3 that are constant on them."""
    tube_at = list(range(1, m + 1))
    for t in letters:
        i = abs(t)
        tube_at[i - 1], tube_at[i] = tube_at[i], tube_at[i - 1]
    image = {tube: pos for pos, tube in enumerate(tube_at, start=1)}
    orbits, widths = [], [0] * m
    for start in range(1, m + 1):
        if widths[start - 1]:
            continue
        orbit, width, a = [], rng.choice([1, 2, 2, 3]), start
        while not widths[a - 1]:
            orbit.append(a)
            widths[a - 1] = width
            a = image[a]
        orbits.append(orbit)
    return orbits, widths


def fuzz_bands(rng, n, count, most):
    """count bands on n strands with conjugators of up to `most` letters."""
    if n == 1:
        return []
    return [(fuzz_letters(rng, n, most), rng.randint(1, n - 1)) for _ in range(count)]


def cert_json(n, bands):
    return {"n": n, "bands": [{"conj": fuzz_text(conj), "gen": gen} for conj, gen in bands]}


def fuzz_cable_argv(rng, path):
    """A well-formed cable input whose widths are constant on the orbits of
    its tubular word, so that the cabling itself runs."""
    m = rng.randint(1, 4)
    if path[1] == "cert":
        # a band twice has the trivial permutation: its tubes' widths are free
        bands = fuzz_bands(rng, m, 1, 4) * rng.randint(1, 2)
        tubular = [t for conj, gen in bands for t in conj + [gen] + [-t for t in reversed(conj)]]
        orbits, widths = fuzz_orbits(rng, tubular, m)
        value = {
            "tubular_cert": cert_json(m, bands),
            "interiors": [
                cert_json(w, fuzz_bands(rng, w, rng.randint(0, 2), 2))
                for w in (widths[orbit[0] - 1] for orbit in orbits)
            ],
            "widths": widths,
        }
    else:
        tubular = fuzz_letters(rng, m, 5)
        orbits, widths = fuzz_orbits(rng, tubular, m)
        value = {"tubular": fuzz_text(tubular), "widths": widths}
        if path[1] == "assemble":
            value["interiors"] = [
                {"orbit": i, "word": fuzz_text(fuzz_letters(rng, widths[orbit[0] - 1], 3))}
                for i, orbit in enumerate(orbits)
            ]
        else:
            value["positions"] = [fuzz_text(fuzz_letters(rng, w, 3)) for w in widths]
    return list(path) + (["--json"] if rng.random() < 0.5 else []) + ["--", json.dumps(value)]


def test_fuzz_every_subcommand(capsys):
    # seeded random arguments on every leaf of the parser: no exception
    # escapes, and a library error is exit 1 or 2 with one line on stderr
    rng = random.Random(2024)
    parser = build_parser()
    cases = []
    for path in sorted(leaf_commands(parser)):
        leaf = subparser(parser, path)
        trials = 1 if path == ("verify-paper",) else 25
        cases += [fuzz_argv(rng, path, leaf) for _ in range(trials)]
    # widths constant on the orbits, which random widths rarely are
    cable_leaves = [path for path in sorted(leaf_commands(parser)) if path[0] == "cable"]
    cases += [fuzz_cable_argv(rng, path) for path in cable_leaves for _ in range(25)]
    codes = set()
    for argv in cases:
        capsys.readouterr()
        code = run(argv)
        out, err = capsys.readouterr()
        codes.add(code)
        assert code in (0, 1, 2), argv
        if code:
            assert err.count("\n") == 1, (argv, err)
        else:
            assert err == "", (argv, err)
            if "--json" in argv:
                assert json.loads(out)["schema"] == "braidforge/1"
    assert {0, 1} <= codes


# --- the report envelope and the README examples ---

# what each command of EVERY_COMMAND echoes as "inputs": every declared
# argument but --budget and --json, JSON arguments parsed; `cable cert`
# echoes its JSON object as the whole of inputs
EVERY_INPUTS = {
    "nf": {"n": 3, "word": "1 2 1"},
    "eq": {"n": 4, "word_a": "2 3 -2 1 2 -1", "word_b": "2 1 3 2 -1 -1"},
    "abel": {"n": 3, "word": "1 -2 1"},
    "perm": {"n": 3, "word": "1 2"},
    "positive": {"n": 3, "word": "1 -2"},
    "periodic": {"n": 3, "word": "1 2"},
    "conj": {"n": 3, "word_a": "1 2", "word_b": "2 1"},
    "root": {"n": 3, "d": 2, "word": "(1 2)^3"},
    "qp expand": {"cert": {"n": 4, "bands": [{"conj": "2", "gen": 3}]}},
    "qp verify": {"cert": {"n": 4, "bands": [{"conj": "2", "gen": 3}]}, "word": "2 3 -2"},
    "qp obstruct": {"n": 3, "word": "1 -2"},
    "qp root": {"n": 3, "d": 2, "word": "(1 2)^3"},
    "cable assemble": {
        "rf": {"tubular": "1", "widths": [2, 2], "interiors": [{"orbit": 0, "word": "-1 -1"}]}
    },
    "cable normalize": {
        "assignment": {"tubular": "1", "widths": [2, 2], "positions": ["1", "1"]}
    },
    "cable cert": {
        "widths": [2, 2],
        "interiors": [{"n": 2, "bands": []}],
        "tubular_cert": {"n": 2, "bands": [{"conj": "", "gen": 1}]},
    },
    "cover data": {"n": 3, "k": 3},
    "cover lift": {"n": 3, "k": 3, "word": "1 -2"},
    "cover homrep": {"n": 3, "k": 2, "twistword": "t[1,1]"},
    "cover deck": {"n": 3, "k": 3},
    "cover symcheck": {"n": 3, "k": 3, "twistword": "t[1,1] t[1,2]"},
    "cover ideq": {
        "n": 3,
        "k": 2,
        "twistword_a": "t[1,1] t[2,1] t[1,1]",
        "twistword_b": "t[2,1] t[1,1] t[2,1]",
    },
    "verify-paper": {"seed": 0},
}


def command_path(parser, argv):
    """The names of the subcommands that argv runs, e.g. ('qp', 'expand')."""
    path = []
    for name in argv:
        subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if not subs:
            break
        path.append(name)
        parser = subs[0].choices[name]
    return tuple(path)


def test_every_report_has_one_envelope(capsys):
    parser = build_parser()
    assert {tuple(c.split()) for c in EVERY_INPUTS} == leaf_commands(parser)
    for argv in EVERY_COMMAND:
        code, report = run_json(capsys, argv)
        command = " ".join(command_path(parser, argv))
        assert code == 0, argv
        assert set(report) == {"schema", "command", "inputs", "verdict", "witnesses", "timing_ms"}
        assert report["schema"] == "braidforge/1"
        assert report["command"] == command
        assert report["inputs"] == EVERY_INPUTS[command], command
        assert isinstance(report["timing_ms"], float)


def readme_cli_examples():
    """The lines of the sh block under README's `## CLI`, without `braidforge`."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = text.split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line) for line in block.splitlines() if line.strip()]
    assert all(line[0] == "braidforge" for line in lines)
    return [line[1:] for line in lines]


def test_readme_cli_examples_run(capsys):
    examples = readme_cli_examples()
    parser = build_parser()
    assert {command_path(parser, argv) for argv in examples} == leaf_commands(parser)
    for argv in examples:
        capsys.readouterr()
        assert run(argv) == 0, argv
        assert capsys.readouterr().err == "", argv
