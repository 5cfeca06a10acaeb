"""
cli: the command-line front end.

Every subcommand is a thin adapter around the library: it parses arguments,
calls one library function, and renders a report either as text or (with
--json) as machine-readable JSON with schema "braidforge/1"; the verdicts in
the two renderings are identical.  Exit code 0 means the computation ran
(whatever the mathematical verdict), 1 is a usage error, and 2 means the
conjugacy search exhausted its node budget.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import cache
from typing import Callable, NamedTuple

# every command needs these; the other submodules, garside included, are
# imported inside the commands that run them, so that a command compiles
# only what it uses
from .words import exponent_sum, format_word, parse_word, underlying_permutation

SCHEMA = "braidforge/1"

WORD = "braid word, e.g. '(1 2)^6 1^-13'"

# the options a command may declare, by flag; the argparse dest is the flag
# without its dashes
OPTIONS = {
    "-n": dict(type=int, required=True, help="strand count"),
    "-k": dict(type=int, required=True, help="cover degree"),
    "-d": dict(type=int, required=True, help="root degree"),
    # the default, garside.DEFAULT_BUDGET, is filled in by run
    "--budget": dict(type=int),
    "--seed": dict(type=int, default=0),
}

# positional arguments that hold JSON text: run parses them before the
# command's handler sees them, and echoes the parsed value in the report
JSON_ARGS = {"cert", "rf", "assignment", "input"}

GROUPS = {
    "qp": "quasipositivity certificates",
    "cable": "composite (cabled) braids",
    "cover": "cyclic branched covers and homology",
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


# --- handlers: parsed arguments -> (verdict, witnesses) -----------------------


def _nf(a):
    from . import garside

    nf = garside.normal_form(parse_word(a.word, a.n))
    return {"normal_form": garside.nf_to_json(nf)}, {"word": format_word(garside.nf_to_word(nf))}


def _eq(a):
    from . import garside

    return {"equal": garside.is_equal(parse_word(a.word_a, a.n), parse_word(a.word_b, a.n))}, {}


def _abel(a):
    return {"exponent_sum": exponent_sum(parse_word(a.word, a.n))}, {}


def _perm(a):
    p = underlying_permutation(parse_word(a.word, a.n))
    return {"images": list(p.images), "cycles": [list(c) for c in p.cycles()]}, {}


def _positive(a):
    from . import garside

    return {"positive": garside.is_positive_braid(parse_word(a.word, a.n))}, {}


def _periodic(a):
    from . import garside

    return {"periodic": garside.is_periodic(parse_word(a.word, a.n))}, {}


def _root(a):
    from . import garside

    root = garside.periodic_root(parse_word(a.word, a.n), a.d, budget=a.budget)
    if root is None:
        return {"found": False}, {}
    verdict = {"found": True, "kind": root.kind.value, "power": root.power}
    return verdict, {"root_word": format_word(root.to_word())}


def _conj(a):
    from . import garside

    a_word, b_word = parse_word(a.word_a, a.n), parse_word(a.word_b, a.n)
    res = garside.is_conjugate(a_word, b_word, budget=a.budget)
    witnesses = {} if res.witness is None else {"conjugator": format_word(res.witness)}
    return {"conjugate": res.conjugate, "nodes": res.nodes}, witnesses


def _qp_expand(a):
    from . import quasipositive as qp

    cert = qp.certificate_from_json(a.cert)
    return {"word": format_word(qp.expand(cert)), "bands": len(cert)}, {}


def _qp_verify(a):
    from . import quasipositive as qp

    cert = qp.certificate_from_json(a.cert)
    return {"verified": qp.verify(cert, parse_word(a.word, cert.strands))}, {}


def _qp_obstruct(a):
    from . import quasipositive as qp

    verdict = qp.obstruct(parse_word(a.word, a.n), budget=a.budget)
    out = {"status": verdict.status.value}
    if verdict.reason is not None:
        out["reason"] = verdict.reason.value
    if verdict.certificate is None:
        return out, {}
    return out, {"certificate": qp.certificate_to_json(verdict.certificate)}


def _qp_root(a):
    from . import quasipositive as qp

    cert = qp.qp_root_periodic(parse_word(a.word, a.n), a.d, budget=a.budget)
    if cert is None:
        return {"found": False}, {}
    witnesses = {"certificate": qp.certificate_to_json(cert), "root_word": format_word(qp.expand(cert))}
    return {"found": True}, witnesses


def _cable_assemble(a):
    from . import cabling

    rf = cabling.regular_form_from_json(a.rf)
    return {"word": format_word(cabling.assemble(rf)), "strands": rf.composite_strands}, {}


def _cable_normalize(a):
    from . import cabling

    regular, conjugator = cabling.normalize_interiors(*cabling.assignment_from_json(a.assignment))
    return {"regular_form": cabling.regular_form_to_json(regular)}, {"conjugator": format_word(conjugator)}


def _cable_cert(a):
    from . import cabling, quasipositive as qp

    data = a.input
    if not (
        isinstance(data, dict)
        and isinstance(data.get("interiors"), list)
        and isinstance(data.get("widths"), list)
    ):
        raise ValueError('cable input must be an object with "interiors" and "widths" lists')
    cabled = cabling.cable_certificate(
        qp.certificate_from_json(data.get("tubular_cert")),
        [qp.certificate_from_json(c) for c in data["interiors"]],
        tuple(data["widths"]),
    )
    return {"bands": len(cabled)}, {"certificate": qp.certificate_to_json(cabled)}


def _cover_data(a):
    from . import cover

    data = cover.cover_data(a.n, a.k)
    keys = ("euler_char", "boundary_components", "genus", "h1_rank")
    return {key: getattr(data, key) for key in keys}, {}


def _cover_lift(a):
    from . import cover

    lifted = cover.lift_word(parse_word(a.word, a.n), a.k)
    return {"twist_word": cover.format_twist_word(lifted), "letters": len(lifted)}, {}


def _cover_homrep(a):
    from . import cover

    H = cover.homology_rep(cover.parse_twist_word(a.twistword, a.n, a.k))
    return {"matrix": cover.matrix_to_json(H, a.n, a.k)}, {}


def _cover_deck(a):
    from . import cover

    return {"matrix": cover.matrix_to_json(cover.deck_matrix(a.n, a.k), a.n, a.k)}, {}


def _cover_symcheck(a):
    from . import cover

    tw = cover.parse_twist_word(a.twistword, a.n, a.k)
    return {"h1_deck_commutes": cover.symmetry_check(tw)}, {}


def _cover_ideq(a):
    from . import cover

    tw_a = cover.parse_twist_word(a.twistword_a, a.n, a.k)
    tw_b = cover.parse_twist_word(a.twistword_b, a.n, a.k)
    return {"h1_equal": cover.check_identity(tw_a, tw_b)}, {}


def _verify_paper(a):
    from . import checks

    results = [
        {"name": r.name, "description": r.description, "passed": r.passed,
         "details": r.details, "seconds": round(r.seconds, 3)}
        for r in checks.run_suite(a.seed)
    ]
    return {"all_passed": all(r["passed"] for r in results), "checks": results}, {}


# --- text renderings of a report ----------------------------------------------


def _print_report(report: dict) -> None:
    print(f"{report['command']}:")
    for key, value in [*report["verdict"].items(), *report["witnesses"].items()]:
        print(f"  {key}: {value}")
    print(f"  ({report['timing_ms']} ms)")


def _print_checks(report: dict) -> None:
    checks = report["verdict"]["checks"]
    for c in checks:
        status = "PASS" if c["passed"] else "FAIL"
        print(f"{status}  {c['name']:32s} {c['seconds']:7.2f}s  {c['details']}")
    total = sum(c["seconds"] for c in checks)
    passed = sum(c["passed"] for c in checks)
    print(f"{passed}/{len(checks)} checks passed in {total:.1f}s (seed {report['inputs']['seed']})")


# --- the command table --------------------------------------------------------


class Command(NamedTuple):
    path: str  # subcommand names, space separated: "qp expand"
    help: str
    options: str  # flags of OPTIONS, space separated; every command also takes --json
    positionals: dict  # name -> help, in order
    handler: Callable
    text: Callable = _print_report


TWO_WORDS = {"word_a": WORD, "word_b": WORD}
COMMANDS = (
    Command("nf", "left normal form of a word", "-n", {"word": WORD}, _nf),
    Command("eq", "decide equality of two words", "-n", TWO_WORDS, _eq),
    Command("abel", "exponent sum", "-n", {"word": WORD}, _abel),
    Command("perm", "underlying permutation", "-n", {"word": WORD}, _perm),
    Command("positive", "membership in the positive monoid", "-n", {"word": WORD}, _positive),
    Command("periodic", "periodicity test", "-n", {"word": WORD}, _periodic),
    Command("root", "periodic d-th root up to conjugacy", "-n --budget -d", {"word": WORD}, _root),
    Command("conj", "decide conjugacy with witness", "-n --budget", TWO_WORDS, _conj),
    Command(
        "qp expand", "expand a certificate to a word", "",
        {"cert": 'certificate JSON, e.g. {"n":4,"bands":[{"conj":"2","gen":3}]}'}, _qp_expand,
    ),
    Command(
        "qp verify", "verify a certificate against a word", "",
        {"cert": "certificate JSON", "word": WORD}, _qp_verify,
    ),
    Command("qp obstruct", "apply the obstruction rules", "-n --budget", {"word": WORD}, _qp_obstruct),
    Command("qp root", "certificate for a periodic root", "-n --budget -d", {"word": WORD}, _qp_root),
    Command(
        "cable assemble", "assemble a regular form", "",
        {"rf": 'regular form JSON, e.g. {"tubular":"1","widths":[2,2],"interiors":[{"orbit":0,"word":"-1 -1"}]}'},
        _cable_assemble,
    ),
    Command(
        "cable normalize", "normalize per-tube interiors into regular form", "",
        {"assignment": 'assignment JSON, e.g. {"tubular":"1","widths":[2,2],"positions":["1","1"]}'},
        _cable_normalize,
    ),
    Command(
        "cable cert", "cable quasipositivity certificates", "",
        {"input": 'JSON {"tubular_cert":..., "interiors":[...], "widths":[...]}'}, _cable_cert,
    ),
    Command("cover data", "cover invariants", "-n -k", {}, _cover_data),
    Command("cover lift", "lift a braid word to a twist word", "-n -k", {"word": WORD}, _cover_lift),
    Command(
        "cover homrep", "H1 matrix of a twist word", "-n -k",
        {"twistword": "e.g. 't[1,1] t[1,2]^-1'"}, _cover_homrep,
    ),
    Command("cover deck", "deck transformation matrix", "-n -k", {}, _cover_deck),
    Command(
        "cover symcheck", "H1 deck-commutation check for a twist word", "-n -k",
        {"twistword": None}, _cover_symcheck,
    ),
    Command(
        "cover ideq", "H1-level equality of two twist words (necessary condition only)", "-n -k",
        {"twistword_a": None, "twistword_b": None}, _cover_ideq,
    ),
    Command("verify-paper", "run the full identity suite", "--seed", {}, _verify_paper, _print_checks),
)


def build_parser() -> _Parser:
    parser = _Parser(prog="braidforge", description=__doc__)
    subparsers = {"": parser.add_subparsers(dest="command", required=True)}
    for command in COMMANDS:
        group, _, name = command.path.rpartition(" ")
        if group not in subparsers:
            group_parser = subparsers[""].add_parser(group, help=GROUPS[group])
            subparsers[group] = group_parser.add_subparsers(dest=f"{group}_command", required=True)
        p = subparsers[group].add_parser(name, help=command.help)
        for flag in command.options.split():
            p.add_argument(flag, **OPTIONS[flag])
        for dest, help in command.positionals.items():
            p.add_argument(dest, help=help)
        p.add_argument("--json", action="store_true")
        p.set_defaults(leaf=command)
    return parser


# parsing does not change the parser, so one serves every call of run
_parser = cache(build_parser)


def run(argv: list[str]) -> int:
    args = _parser().parse_args(argv)
    started = time.perf_counter()
    command = args.leaf
    try:
        if "--budget" in command.options.split():
            # every command that takes a budget runs the conjugacy search
            from .garside import DEFAULT_BUDGET

            if args.budget is None:
                args.budget = DEFAULT_BUDGET
            if args.budget < 0:
                raise ValueError(f"--budget must be >= 0, got {args.budget}")
        inputs = {}
        for dest in [flag.lstrip("-") for flag in command.options.split()] + list(command.positionals):
            if dest in JSON_ARGS:
                setattr(args, dest, json.loads(getattr(args, dest)))
            if dest != "budget":
                inputs[dest] = getattr(args, dest)
        verdict, witnesses = command.handler(args)
        report = {
            "schema": SCHEMA,
            "command": command.path,
            # `cable cert` echoes its JSON object as the whole of inputs
            "inputs": args.input if command.path == "cable cert" else inputs,
            "verdict": verdict,
            "witnesses": witnesses,
            "timing_ms": round((time.perf_counter() - started) * 1000, 3),
        }
        # inside the try: JSON nested too deeply to parse ends in a
        # RecursionError, and so can JSON parsed just short of that depth
        # when the report echoes it
        if args.json:
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            command.text(report)
    except (ValueError, KeyError, RecursionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except RuntimeError as err:
        # a command that can exhaust its budget has imported garside
        from .garside import BudgetExceededError

        if not isinstance(err, BudgetExceededError):
            raise
        print(f"budget exhausted: {err}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
