"""
The verdicts of `quasipositive.obstruct` on seeded corpora of braids.  Run
from the root of a checkout:

    PYTHONPATH=src python3 scripts/qp_census.py --out census.json
    python3 scripts/qp_census.py --compare before.json after.json

The first form writes one record per braid: its corpus and index, n, the
status, the reason, the number of bands of the certificate and the seconds
the call took.  An exception is recorded as status "error", its message as
the reason.  The corpora:

  a  products of 2 to 6 random bands w σ_i w^{-1}, n 3-7: all quasipositive;
  b  products of band generators a_ts = (σ_{t-1}...σ_{s+1}) σ_s
     (σ_{t-1}...σ_{s+1})^{-1}, t > s, n 3-8: all quasipositive;
  c  random words with positive exponent sum, n 2-8;
  d  words of exponent sum one, n 2-16, each conjugated by a random word:
     bands, bands with a commutator σ_j²σ_{j+1}²σ_j^{-2}σ_{j+1}^{-2}
     inserted, which keeps every strand's crossing count, and random words.

The second prints, per corpus, the count of each status in both files and
the count of each change of status; it exits 1 when two decided verdicts
(status and reason, "qp" or "not_qp") differ, or when a braid of corpus a
is refused.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from collections import Counter

DECIDED = ("qp", "not_qp")


def corpus(seed: int = 24) -> list[tuple[str, int, list[int]]]:
    rng = random.Random(seed)

    def letters(n, length):
        return [rng.choice((-1, 1)) * rng.randint(1, n - 1) for _ in range(length)]

    def conj(u, a):
        return u + a + [-v for v in reversed(u)]

    def band_generator(n):
        s, t = sorted(rng.sample(range(1, n + 1), 2))
        return conj(list(range(t - 1, s, -1)), [s])

    out = []
    for _ in range(300):
        n = rng.randint(3, 7)
        bands = [conj(letters(n, rng.randint(0, 4)), [rng.randint(1, n - 1)])
                 for _ in range(rng.randint(2, 6))]
        out.append(("a", n, sum(bands, [])))
    for _ in range(300):
        n = rng.randint(3, 8)
        out.append(("b", n, sum((band_generator(n) for _ in range(rng.randint(1, 6))), [])))
    for _ in range(300):
        n = rng.randint(2, 8)
        w = letters(n, rng.randint(1, 12))
        while sum(1 if v > 0 else -1 for v in w) < 1:
            w.insert(rng.randint(0, len(w)), rng.randint(1, n - 1))
        out.append(("c", n, w))
    for index in range(600):
        n = rng.randint(2, 16)
        kind = index % 3 if n > 2 else 2 * (index % 3 == 2)
        core = [rng.randint(1, n - 1)]
        if kind == 1:
            j = rng.randint(1, n - 2)
            core[rng.randint(0, 1):0] = [j, j, j + 1, j + 1, -j, -j, -j - 1, -j - 1]
        elif kind == 2:
            core = letters(n, rng.randint(0, 8))
            e = 1 - sum(1 if v > 0 else -1 for v in core)
            core += [(1 if e > 0 else -1) * rng.randint(1, n - 1) for _ in range(abs(e))]
        out.append(("d", n, conj(letters(n, rng.randint(0, 4)), core)))
    return out


def measure() -> list[dict]:
    from braidforge.quasipositive import obstruct
    from braidforge.words import word

    records = []
    for index, (name, n, letters) in enumerate(corpus()):
        record = {"corpus": name, "index": index, "n": n}
        start = time.perf_counter()
        try:
            verdict = obstruct(word(n, letters))
            cert = verdict.certificate
            record.update(
                status=verdict.status.value,
                reason=None if verdict.reason is None else verdict.reason.value,
                bands=None if cert is None else len(cert),
            )
        except Exception as err:  # recorded, not raised: the census goes on
            record.update(status="error", reason=str(err), bands=None)
        record["seconds"] = time.perf_counter() - start
        records.append(record)
    return records


def compare(before: list[dict], after: list[dict]) -> int:
    bad = 0
    for x, y in zip(before, after):
        decided = x["status"] in DECIDED and y["status"] in DECIDED
        if decided and (x["status"], x["reason"]) != (y["status"], y["reason"]):
            bad += 1
            print(f"verdicts differ on braid {x['index']} ({x['corpus']})", file=sys.stderr)
        if y["corpus"] == "a" and y["status"] == "not_qp":
            bad += 1
            print(f"quasipositive braid {y['index']} refused", file=sys.stderr)
    for name in sorted({r["corpus"] for r in before}):
        rows = [(x, y) for x, y in zip(before, after) if x["corpus"] == name]
        print(json.dumps({
            "corpus": name,
            "braids": len(rows),
            "before": dict(Counter(x["status"] for x, _ in rows)),
            "after": dict(Counter(y["status"] for _, y in rows)),
            "changed": dict(Counter(f"{x['status']} -> {y['status']}"
                                    for x, y in rows if x["status"] != y["status"])),
            "seconds": [round(sum(r[i]["seconds"] for r in rows), 4) for i in (0, 1)],
        }))
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write the records of this checkout here")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    args = parser.parse_args()
    if args.compare:
        before, after = (json.load(open(path)) for path in args.compare)
        return compare(before, after)
    text = json.dumps(measure())
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
