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

from . import cabling, checks, cover, garside, quasipositive as qp
from .garside import BudgetExceededError, DEFAULT_BUDGET
from .words import exponent_sum, format_word, parse_word, underlying_permutation

SCHEMA = "braidforge/1"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _report(command: str, inputs: dict, verdict: dict, witnesses: dict, started: float) -> dict:
    return {
        "schema": SCHEMA,
        "command": command,
        "inputs": inputs,
        "verdict": verdict,
        "witnesses": witnesses,
        "timing_ms": round((time.perf_counter() - started) * 1000, 3),
    }


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return
    print(f"{report['command']}:")
    for key, value in report["verdict"].items():
        print(f"  {key}: {value}")
    for key, value in report["witnesses"].items():
        print(f"  {key}: {value}")
    print(f"  ({report['timing_ms']} ms)")


def _word_arg(parser: _Parser, name="word", help="braid word, e.g. '(1 2)^6 1^-13'"):
    parser.add_argument(name, help=help)


def build_parser() -> _Parser:
    parser = _Parser(prog="braidforge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, k=False, budget=False, d=False):
        p.add_argument("-n", type=int, required=True, help="strand count")
        if k:
            p.add_argument("-k", type=int, required=True, help="cover degree")
        if budget:
            p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
        if d:
            p.add_argument("-d", type=int, required=True, help="root degree")
        p.add_argument("--json", action="store_true")

    p = sub.add_parser("nf", help="left normal form of a word")
    common(p)
    _word_arg(p)

    p = sub.add_parser("eq", help="decide equality of two words")
    common(p)
    _word_arg(p, "word_a")
    _word_arg(p, "word_b")

    p = sub.add_parser("abel", help="exponent sum")
    common(p)
    _word_arg(p)

    p = sub.add_parser("perm", help="underlying permutation")
    common(p)
    _word_arg(p)

    p = sub.add_parser("positive", help="membership in the positive monoid")
    common(p)
    _word_arg(p)

    p = sub.add_parser("periodic", help="periodicity test")
    common(p)
    _word_arg(p)

    p = sub.add_parser("root", help="periodic d-th root up to conjugacy")
    common(p, budget=True, d=True)
    _word_arg(p)

    p = sub.add_parser("conj", help="decide conjugacy with witness")
    common(p, budget=True)
    _word_arg(p, "word_a")
    _word_arg(p, "word_b")

    qp_parser = sub.add_parser("qp", help="quasipositivity certificates")
    qp_sub = qp_parser.add_subparsers(dest="qp_command", required=True)

    p = qp_sub.add_parser("expand", help="expand a certificate to a word")
    p.add_argument("cert", help='certificate JSON, e.g. {"n":4,"bands":[{"conj":"2","gen":3}]}')
    p.add_argument("--json", action="store_true")

    p = qp_sub.add_parser("verify", help="verify a certificate against a word")
    p.add_argument("cert", help="certificate JSON")
    _word_arg(p)
    p.add_argument("--json", action="store_true")

    p = qp_sub.add_parser("obstruct", help="apply the obstruction rules")
    common(p, budget=True)
    _word_arg(p)

    p = qp_sub.add_parser("root", help="certificate for a periodic root")
    common(p, budget=True, d=True)
    _word_arg(p)

    cable_parser = sub.add_parser("cable", help="composite (cabled) braids")
    cable_sub = cable_parser.add_subparsers(dest="cable_command", required=True)

    p = cable_sub.add_parser("assemble", help="assemble a regular form")
    p.add_argument("rf", help='regular form JSON, e.g. {"tubular":"1","widths":[2,2],"interiors":[{"orbit":0,"word":"-1 -1"}]}')
    p.add_argument("--json", action="store_true")

    p = cable_sub.add_parser("normalize", help="normalize per-tube interiors into regular form")
    p.add_argument("assignment", help='assignment JSON, e.g. {"tubular":"1","widths":[2,2],"positions":["1","1"]}')
    p.add_argument("--json", action="store_true")

    p = cable_sub.add_parser("cert", help="cable quasipositivity certificates")
    p.add_argument("input", help='JSON {"tubular_cert":..., "interiors":[...], "widths":[...]}')
    p.add_argument("--json", action="store_true")

    cover_parser = sub.add_parser("cover", help="cyclic branched covers and homology")
    cover_sub = cover_parser.add_subparsers(dest="cover_command", required=True)

    p = cover_sub.add_parser("data", help="cover invariants")
    common(p, k=True)

    p = cover_sub.add_parser("lift", help="lift a braid word to a twist word")
    common(p, k=True)
    _word_arg(p)

    p = cover_sub.add_parser("homrep", help="H1 matrix of a twist word")
    common(p, k=True)
    p.add_argument("twistword", help="e.g. 't[1,1] t[1,2]^-1'")

    p = cover_sub.add_parser("deck", help="deck transformation matrix")
    common(p, k=True)

    p = cover_sub.add_parser("symcheck", help="H1 deck-commutation check for a twist word")
    common(p, k=True)
    p.add_argument("twistword")

    p = cover_sub.add_parser("ideq", help="H1-level equality of two twist words (necessary condition only)")
    common(p, k=True)
    p.add_argument("twistword_a")
    p.add_argument("twistword_b")

    p = sub.add_parser("verify-paper", help="run the full identity suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")

    return parser


def _matrix_rows(mat) -> list[list[int]]:
    return [[int(v) for v in row] for row in mat]


def run(argv: list[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    as_json = getattr(args, "json", False)

    try:
        if getattr(args, "budget", 0) < 0:
            raise ValueError(f"--budget must be >= 0, got {args.budget}")
        if args.command == "nf":
            w = parse_word(args.word, args.n)
            nf = garside.normal_form(w)
            report = _report(
                "nf",
                {"n": args.n, "word": args.word},
                {"normal_form": garside.nf_to_json(nf)},
                {"word": format_word(garside.nf_to_word(nf))},
                started,
            )
        elif args.command == "eq":
            a = parse_word(args.word_a, args.n)
            b = parse_word(args.word_b, args.n)
            report = _report(
                "eq",
                {"n": args.n, "word_a": args.word_a, "word_b": args.word_b},
                {"equal": garside.is_equal(a, b)},
                {},
                started,
            )
        elif args.command == "abel":
            w = parse_word(args.word, args.n)
            report = _report(
                "abel",
                {"n": args.n, "word": args.word},
                {"exponent_sum": exponent_sum(w)},
                {},
                started,
            )
        elif args.command == "perm":
            w = parse_word(args.word, args.n)
            p = underlying_permutation(w)
            report = _report(
                "perm",
                {"n": args.n, "word": args.word},
                {"images": list(p.images), "cycles": [list(c) for c in p.cycles()]},
                {},
                started,
            )
        elif args.command == "positive":
            w = parse_word(args.word, args.n)
            report = _report(
                "positive",
                {"n": args.n, "word": args.word},
                {"positive": garside.is_positive_braid(w)},
                {},
                started,
            )
        elif args.command == "periodic":
            w = parse_word(args.word, args.n)
            report = _report(
                "periodic",
                {"n": args.n, "word": args.word},
                {"periodic": garside.is_periodic(w)},
                {},
                started,
            )
        elif args.command == "root":
            w = parse_word(args.word, args.n)
            root = garside.periodic_root(w, args.d, budget=args.budget)
            verdict = {"found": root is not None}
            witnesses = {}
            if root is not None:
                verdict["kind"] = root.kind.value
                verdict["power"] = root.power
                witnesses["root_word"] = format_word(root.to_word())
            report = _report(
                "root",
                {"n": args.n, "d": args.d, "word": args.word},
                verdict,
                witnesses,
                started,
            )
        elif args.command == "conj":
            a = parse_word(args.word_a, args.n)
            b = parse_word(args.word_b, args.n)
            res = garside.is_conjugate(a, b, budget=args.budget)
            witnesses = {}
            if res.witness is not None:
                witnesses["conjugator"] = format_word(res.witness)
            report = _report(
                "conj",
                {"n": args.n, "word_a": args.word_a, "word_b": args.word_b},
                {"conjugate": res.conjugate, "nodes": res.nodes},
                witnesses,
                started,
            )
        elif args.command == "qp":
            report = _run_qp(args, started)
        elif args.command == "cable":
            report = _run_cable(args, started)
        elif args.command == "cover":
            report = _run_cover(args, started)
        elif args.command == "verify-paper":
            results = checks.run_suite(args.seed)
            if as_json:
                report = _report(
                    "verify-paper",
                    {"seed": args.seed},
                    {
                        "all_passed": all(r.passed for r in results),
                        "checks": [
                            {
                                "name": r.name,
                                "description": r.description,
                                "passed": r.passed,
                                "details": r.details,
                                "seconds": round(r.seconds, 3),
                            }
                            for r in results
                        ],
                    },
                    {},
                    started,
                )
                _emit(report, True)
                return 0
            for r in results:
                status = "PASS" if r.passed else "FAIL"
                print(f"{status}  {r.name:32s} {r.seconds:7.2f}s  {r.details}")
            total = sum(r.seconds for r in results)
            passed = sum(r.passed for r in results)
            print(f"{passed}/{len(results)} checks passed in {total:.1f}s (seed {args.seed})")
            return 0
        else:  # pragma: no cover - argparse requires a command
            raise SystemExit(1)
    except BudgetExceededError as err:
        print(f"budget exhausted: {err}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    _emit(report, as_json)
    return 0


def _run_qp(args, started: float) -> dict:
    if args.qp_command == "expand":
        cert = qp.certificate_from_json(json.loads(args.cert))
        return _report(
            "qp expand",
            {"cert": json.loads(args.cert)},
            {"word": format_word(qp.expand(cert)), "bands": len(cert)},
            {},
            started,
        )
    if args.qp_command == "verify":
        cert = qp.certificate_from_json(json.loads(args.cert))
        w = parse_word(args.word, cert.strands)
        return _report(
            "qp verify",
            {"cert": json.loads(args.cert), "word": args.word},
            {"verified": qp.verify(cert, w)},
            {},
            started,
        )
    if args.qp_command == "obstruct":
        w = parse_word(args.word, args.n)
        verdict = qp.obstruct(w, budget=args.budget)
        out = {"status": verdict.status.value}
        witnesses = {}
        if verdict.reason is not None:
            out["reason"] = verdict.reason.value
        if verdict.certificate is not None:
            witnesses["certificate"] = qp.certificate_to_json(verdict.certificate)
        return _report(
            "qp obstruct", {"n": args.n, "word": args.word}, out, witnesses, started
        )
    if args.qp_command == "root":
        w = parse_word(args.word, args.n)
        cert = qp.qp_root_periodic(w, args.d, budget=args.budget)
        verdict = {"found": cert is not None}
        witnesses = {}
        if cert is not None:
            witnesses["certificate"] = qp.certificate_to_json(cert)
            witnesses["root_word"] = format_word(qp.expand(cert))
        return _report(
            "qp root", {"n": args.n, "d": args.d, "word": args.word}, verdict, witnesses, started
        )
    raise SystemExit(1)  # pragma: no cover


def _run_cable(args, started: float) -> dict:
    if args.cable_command == "assemble":
        rf = cabling.regular_form_from_json(json.loads(args.rf))
        return _report(
            "cable assemble",
            {"rf": json.loads(args.rf)},
            {"word": format_word(cabling.assemble(rf)), "strands": rf.composite_strands},
            {},
            started,
        )
    if args.cable_command == "normalize":
        tubular, assignment = cabling.assignment_from_json(json.loads(args.assignment))
        regular, conjugator = cabling.normalize_interiors(tubular, assignment)
        return _report(
            "cable normalize",
            {"assignment": json.loads(args.assignment)},
            {"regular_form": cabling.regular_form_to_json(regular)},
            {"conjugator": format_word(conjugator)},
            started,
        )
    if args.cable_command == "cert":
        data = json.loads(args.input)
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
        return _report(
            "cable cert",
            data,
            {"bands": len(cabled)},
            {"certificate": qp.certificate_to_json(cabled)},
            started,
        )
    raise SystemExit(1)  # pragma: no cover


def _run_cover(args, started: float) -> dict:
    n, k = args.n, args.k
    if args.cover_command == "data":
        data = cover.cover_data(n, k)
        return _report(
            "cover data",
            {"n": n, "k": k},
            {
                "euler_char": data.euler_char,
                "boundary_components": data.boundary_components,
                "genus": data.genus,
                "h1_rank": data.h1_rank,
            },
            {},
            started,
        )
    if args.cover_command == "lift":
        w = parse_word(args.word, n)
        lifted = cover.lift_word(w, k)
        return _report(
            "cover lift",
            {"n": n, "k": k, "word": args.word},
            {"twist_word": cover.format_twist_word(lifted), "letters": len(lifted)},
            {},
            started,
        )
    if args.cover_command == "homrep":
        tw = cover.parse_twist_word(args.twistword, n, k)
        H = cover.homology_rep(tw)
        return _report(
            "cover homrep",
            {"n": n, "k": k, "twistword": args.twistword},
            {"matrix": cover.matrix_to_json(H, n, k)},
            {},
            started,
        )
    if args.cover_command == "deck":
        D = cover.deck_matrix(n, k)
        return _report(
            "cover deck",
            {"n": n, "k": k},
            {"matrix": cover.matrix_to_json(D, n, k)},
            {},
            started,
        )
    if args.cover_command == "symcheck":
        tw = cover.parse_twist_word(args.twistword, n, k)
        return _report(
            "cover symcheck",
            {"n": n, "k": k, "twistword": args.twistword},
            {"h1_deck_commutes": cover.symmetry_check(tw)},
            {},
            started,
        )
    if args.cover_command == "ideq":
        a = cover.parse_twist_word(args.twistword_a, n, k)
        b = cover.parse_twist_word(args.twistword_b, n, k)
        return _report(
            "cover ideq",
            {"n": n, "k": k, "twistword_a": args.twistword_a, "twistword_b": args.twistword_b},
            {"h1_equal": cover.check_identity(a, b)},
            {},
            started,
        )
    raise SystemExit(1)  # pragma: no cover


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
