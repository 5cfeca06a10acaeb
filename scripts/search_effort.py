"""
The search effort of `garside.is_conjugate` on a seeded corpus of pairs in
B_3 to B_7, at node budgets 2, 50, 200 and the default.  Run from the root of
a checkout:

    PYTHONPATH=src python3 scripts/search_effort.py --out effort.json
    python3 scripts/search_effort.py --compare before.json after.json

The first form writes one record per pair and budget: the outcome (true,
false or "budget"), the nodes expanded, the `_normalize` calls made and the
seconds the call took, timed on a separate call with `_normalize` not
wrapped.  The second prints, per budget, the pairs decided and the total
nodes, calls and seconds of both files, then the same totals over the runs
(a pair at a budget) that expand at least one node in both files, and over
those that expand more nodes in AFTER; it exits 1 when two decided verdicts
differ.  Seconds are wall time on whatever machine ran the script, so
compare files made one after the other on one machine.  The corpus holds
conjugate pairs a, u·a·u^{-1}, and pairs in which a pure braid σ_i²σ_j^{-2}
or a commutator σ_i²σ_{i+1}²σ_i^{-2}σ_{i+1}^{-2} is inserted into a before
it is conjugated: the first keeps exponent sum and permutation, the second
every strand's crossing count as well.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

# (n, pairs of each kind, longest word): the searches at n = 7 normalize
# 5 039 conjugates a node
CORPUS = ((3, 40, 10), (4, 40, 9), (5, 40, 8), (6, 25, 7), (7, 10, 6))
BUDGETS = (2, 50, 200, None)


def corpus(seed: int = 19) -> list[tuple[int, list[int], list[int]]]:
    rng = random.Random(seed)

    def letters(n, length):
        return [rng.choice((-1, 1)) * rng.randint(1, n - 1) for _ in range(length)]

    def conj(u, a):
        return u + a + [-v for v in reversed(u)]

    pairs = []
    for n, count, longest in CORPUS:
        for kind in range(3):
            for _ in range(count):
                a = letters(n, rng.randint(2, longest))
                at = rng.randint(0, len(a))
                if kind == 0:
                    other = a
                elif kind == 1:
                    i, j = rng.sample(range(1, n), 2)
                    other = a[:at] + [i, i, -j, -j] + a[at:]
                else:
                    i = rng.randint(1, n - 2)
                    other = a[:at] + [i, i, i + 1, i + 1, -i, -i, -i - 1, -i - 1] + a[at:]
                pairs.append((n, a, conj(letters(n, rng.randint(1, 4)), other)))
    return pairs


def measure() -> list[dict]:
    from braidforge import garside
    from braidforge.words import word

    calls = [0]
    normalize = garside._normalize

    def counted(*args):
        calls[0] += 1
        return normalize(*args)

    def run(a, b, kwargs):
        try:
            res = garside.is_conjugate(a, b, **kwargs)
            return res.conjugate, res.nodes
        except garside.BudgetExceededError as err:
            return "budget", err.nodes

    records = []
    for budget in BUDGETS:
        for index, (n, a, b) in enumerate(corpus()):
            kwargs = {} if budget is None else {"budget": budget}
            a, b = word(n, a), word(n, b)
            garside._normalize = normalize
            start = time.perf_counter()
            run(a, b, kwargs)
            seconds = time.perf_counter() - start
            garside._normalize = counted
            calls[0] = 0
            outcome, nodes = run(a, b, kwargs)
            records.append({"budget": budget or "default", "pair": index, "n": n,
                            "outcome": outcome, "nodes": nodes, "normalize_calls": calls[0],
                            "seconds": seconds})
    garside._normalize = normalize
    return records


def totals(rows: list[tuple[dict, dict]]) -> dict:
    out = {}
    for side, i in (("before", 0), ("after", 1)):
        out[side] = {
            "decided": sum(r[i]["outcome"] != "budget" for r in rows),
            "nodes": sum(r[i]["nodes"] for r in rows),
            "normalize_calls": sum(r[i]["normalize_calls"] for r in rows),
            "seconds": round(sum(r[i]["seconds"] for r in rows), 4),
        }
    return out


def compare(before: list[dict], after: list[dict]) -> int:
    differ = 0
    for budget in [b or "default" for b in BUDGETS]:
        rows = [(x, y) for x, y in zip(before, after) if x["budget"] == budget]
        for x, y in rows:
            if "budget" not in (x["outcome"], y["outcome"]) and x["outcome"] != y["outcome"]:
                differ += 1
                print(f"verdicts differ on pair {x['pair']} at budget {budget}", file=sys.stderr)
        print(json.dumps({"budget": budget, "runs": len(rows), **totals(rows)}))
    searched = [(x, y) for x, y in zip(before, after) if x["nodes"] and y["nodes"]]
    more = [(x, y) for x, y in zip(before, after) if y["nodes"] > x["nodes"]]
    for name, rows in (("both expand nodes", searched), ("after expands more", more)):
        print(json.dumps({"runs": name, "count": len(rows), **totals(rows)}))
    return 1 if differ else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write the records of this checkout here")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    args = parser.parse_args()
    if args.compare:
        before, after = (json.load(open(path)) for path in args.compare)
        return compare(before, after)
    records = measure()
    text = json.dumps(records)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
