"""
The four workloads.  Each builds its queries from the seed alone, runs one
query at a time, and checks every output with the oracles before the next
query starts (the check is outside the timed call).

A workload is a sequence of rounds; every round holds the same kinds of query
in the same proportions, so any number of whole rounds has the same mix.
Where rounds repeat the same queries, a run reports each query's best time
over its rounds (see run.py).

* conj-qp         one fixed corpus, repeated: conjugacy, non-conjugacy,
                  quasipositivity obstructions and periodic roots in B_3..B_6.
* word-problem    fresh long words every round (n = 8..16, 200..1000 letters):
                  normal forms and equality of rewritten / altered copies.
* cover-homology  one fixed corpus, repeated: lifts to cyclic covers, their
                  H_1 matrices, deck symmetry and Burau at the companion.
* cli-paper       fresh `python3 -m braidforge.cli` processes, the same
                  commands every round: verify-paper and one-shot commands
                  of each kind users run.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Any, Callable

import oracles as O
import probe

# Short words are checked with Burau at t = 2 and t = 3.  The long words of
# word-problem are checked at t = 2 only: there the oracle costs about as
# much as the query itself.
BOTH_POINTS = (2, 3)


# eq=False: a query is hashable by identity, so a run can key its timings by it
@dataclass(eq=False)
class Query:
    kind: str
    args: tuple
    expect: Any = None
    argv: list[str] = field(default_factory=list)  # cli-paper only
    # the output already verified for this query, so repeated rounds of a
    # fixed corpus re-check equality with it instead of redoing the oracle
    verified: Any = field(default=None, repr=False)


def rand_word(rng: random.Random, n: int, length: int) -> list[int]:
    return [rng.choice((-1, 1)) * rng.randint(1, n - 1) for _ in range(length)]


def positive_word(rng: random.Random, n: int, length: int) -> list[int]:
    return [rng.randint(1, n - 1) for _ in range(length)]


def conj(u: list[int], a: list[int]) -> list[int]:
    return u + a + O.invert(u)


def fmt(w: list[int]) -> str:
    return " ".join(str(v) for v in w)


def delta_root(n: int) -> list[int]:
    return list(range(1, n))


def gamma_root(n: int) -> list[int]:
    return [1] + list(range(1, n))


class Workload:
    """Base: `round(r)` lists round r's queries, `execute` makes the one
    timed call into braidforge, `check` returns None or what went wrong."""

    name = ""
    warmup_rounds = 0  # untimed rounds before the timed phase
    trace_rounds = 1  # timed rounds of a traced run (fixed, so counts repeat)
    in_process = True
    repeats = False  # whether rounds reuse the same Query objects

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        import braidforge

        self.bf = braidforge
        self.prepared = probe.setup(self.name)

    def round(self, r: int) -> list[Query]:
        raise NotImplementedError

    def execute(self, q: Query):
        raise NotImplementedError

    def check(self, q: Query, out) -> str | None:
        raise NotImplementedError

    def checked(self, q: Query, out) -> str | None:
        if q.verified is not None and self.same(q.verified, out):
            return None
        err = self.check(q, out)
        if err is None and self.repeats:
            q.verified = out
        return err

    @staticmethod
    def same(a, b) -> bool:
        return a == b


# --- conj-qp ------------------------------------------------------------------


class ConjQP(Workload):
    """Braid side of the paper's question, in process, no cover code.

    The cost of a conjugacy query is set by the size of the super summit set
    it searches, which varies by orders of magnitude between random classes.
    So the classes come from one fixed pool, the same for every seed, and the
    seed draws the conjugators: every run searches summit sets of the same
    sizes from seeded starting points, and runs at different seeds cost the
    same on average.  Where in the summit set a search starts still varies
    the cost of a query by several times, so the corpus holds COPIES draws of
    conjugators over the pool, enough that its total cost and its 90th
    percentile hardly depend on the seed.
    """

    name = "conj-qp"
    warmup_rounds = 1
    trace_rounds = 2
    repeats = True
    COPIES = 4

    # pool of classes: (n, classes, word length, pairs per class).  Random
    # classes this short have small summit sets; at n = 6 a random class can
    # have hundreds of elements (61 nodes seen for a 5-letter word), so the
    # n = 6 tail uses the classes of σ_1^m and σ_1^m σ_2, whose summit sets
    # are small by structure.
    CLASSES = ((3, 6, 12, 4), (4, 8, 10, 4), (5, 8, 4, 4))
    # a quarter of all queries, so that latency_p90_ms falls inside the tail
    TAIL = (((1,), 8), ((1, 1), 8), ((1, 1, 1), 8), ((1, 2), 8), ((1, 1, 2), 8))
    # non-conjugate pool: (n, classes, word length), two seeded pairs each
    NONCONJ = ((3, 2, 8), (4, 2, 8), (5, 2, 6))
    OBSTRUCT_N = (3, 4, 5, 4, 3, 5)
    # periodic roots: (n, δ or γ, degree d, power j) for b ~ base^(d·j)
    ROOTS = ((3, "delta", 2, 1), (3, "gamma", 3, 1), (4, "delta", 2, 1), (4, "gamma", 2, 1),
             (5, "delta", 2, 1), (3, "delta", 3, 2), (5, "gamma", 2, 1), (4, "delta", 3, 1))

    def __init__(self, seed: int):
        super().__init__(seed)
        self.corpus = [
            q
            for copy in range(self.COPIES)
            for q in self._build(random.Random("conj-qp/pool"), random.Random(f"conj-qp/{seed}/{copy}"))
        ]

    def _build(self, pool: random.Random, rng: random.Random) -> list[Query]:
        qs: list[Query] = []

        def disguise(n: int, a: list[int]) -> list[int]:
            return conj(rand_word(rng, n, 3), a)

        for n, count, length, pairs in self.CLASSES:
            for _ in range(count):
                a = rand_word(pool, n, length)
                for _ in range(pairs):
                    qs.append(Query("conj", (n, disguise(n, a), disguise(n, a)), True))
        for a, pairs in self.TAIL:
            for _ in range(pairs):
                qs.append(Query("conj", (6, disguise(6, list(a)), disguise(6, list(a))), True))
        for n, count, length in self.NONCONJ:
            for _ in range(count):
                a = rand_word(pool, n, length)
                while True:
                    # a pure-braid insertion keeps exponent sum and permutation,
                    # so only the summit-set search can tell the pair apart
                    i, j = pool.sample(range(1, n), 2)
                    pos = pool.randint(0, length)
                    a2 = a[:pos] + [i, i, -j, -j] + a[pos:]
                    if O.conjugacy_invariant(a, n) != O.conjugacy_invariant(a2, n):
                        break
                for _ in range(2):
                    qs.append(Query("conj", (n, disguise(n, a), disguise(n, a2)), False))
        sigma1 = {n: O.conjugacy_invariant([1], n) for n in set(self.OBSTRUCT_N)}
        for n in self.OBSTRUCT_N:
            qs.append(Query("obstruct", (n, disguise(n, [rng.randint(1, n - 1)])), "band"))
            while True:
                i, j = rng.randint(1, n - 1), rng.randint(1, n - 1)
                core = [i, i, -j] if rng.random() < 0.5 else [i, -j, i]
                if O.conjugacy_invariant(core, n) != sigma1[n]:
                    break  # not conjugate to σ_1, hence no single band
            qs.append(Query("obstruct", (n, disguise(n, core)), "not_band"))
            qs.append(Query("obstruct", (n, positive_word(rng, n, 6)), "positive"))
        for n, kind, d, j in self.ROOTS:
            base = delta_root(n) if kind == "delta" else gamma_root(n)
            qs.append(Query("root", (n, disguise(n, base * (d * j)), d), True))
        return qs

    def round(self, r: int) -> list[Query]:
        return self.corpus

    def execute(self, q: Query):
        bf = self.bf
        if q.kind == "conj":
            n, a, b = q.args
            res = bf.is_conjugate(bf.word(n, a), bf.word(n, b))
            witness = res.witness
            return res.conjugate, None if witness is None else list(witness.signed_ints())
        if q.kind == "obstruct":
            n, b = q.args
            v = bf.obstruct(bf.word(n, b))
            reason = None if v.reason is None else v.reason.value
            return v.status.value, reason, _bands(v.certificate)
        n, b, d = q.args
        return _bands(bf.qp_root_periodic(bf.word(n, b), d))

    def check(self, q: Query, out) -> str | None:
        if q.kind == "conj":
            n, a, b = q.args
            verdict, witness = out
            if verdict != q.expect:
                return f"is_conjugate said {verdict}, expected {q.expect}"
            if verdict and not O.burau_equal(conj(witness, a), b, n, BOTH_POINTS):
                return "conjugacy witness fails the Burau check"
            return None
        if q.kind == "obstruct":
            n, b = q.args
            status, reason, bands = out
            if q.expect == "not_band":
                if (status, reason) != ("not_qp", "abelianization_one_not_band"):
                    return f"obstruct gave {status}/{reason} for a non-band"
                return None
            if status != "qp" or bands is None:
                return f"obstruct gave {status} for a quasipositive braid"
            want = 1 if q.expect == "band" else len(b)
            if len(bands) != want:
                return f"certificate has {len(bands)} bands, expected {want}"
            if not O.burau_equal(O.expand_bands(bands), b, n, BOTH_POINTS):
                return "certificate fails the Burau check"
            return None
        n, b, d = q.args
        if out is None:
            return "no root certificate for a power of δ or γ"
        x = O.expand_bands(out)
        for t in BOTH_POINTS:
            if O.Burau.of(x, n, t).power(d) != O.Burau.of(b, n, t):
                return "root certificate: x^d differs from b under Burau"
        return None


def _bands(cert) -> list[tuple[list[int], int]] | None:
    if cert is None:
        return None
    return [(list(band.conjugator.signed_ints()), band.gen_index) for band in cert.bands]


# --- word-problem ----------------------------------------------------------------


def rewrite(rng: random.Random, w: list[int], n: int, moves: int) -> list[int]:
    """An equal word: seeded far commutations, braid-relation swaps, inserted
    relators and cancelling pairs."""
    w = list(w)
    for _ in range(moves):
        i = rng.randrange(len(w) + 1)
        kind = rng.randrange(4)
        if kind == 0 and i + 1 < len(w) and abs(abs(w[i]) - abs(w[i + 1])) >= 2:
            w[i], w[i + 1] = w[i + 1], w[i]
        elif kind == 1 and i + 2 < len(w):
            a, b, c = w[i:i + 3]
            if a == c and a * b > 0 and abs(abs(a) - abs(b)) == 1:
                w[i:i + 3] = [b, a, b]
            else:
                g = rng.randint(1, n - 2) if n > 2 else 1
                w[i:i] = [g, g + 1, g, -(g + 1), -g, -(g + 1)]  # relator
        elif kind == 2 and i + 1 < len(w) and w[i] == -w[i + 1]:
            del w[i:i + 2]
        else:
            g = rng.choice((-1, 1)) * rng.randint(1, n - 1)
            w[i:i] = [g, -g]
    return w


class WordProblem(Workload):
    """The Garside kernel on a working set far larger than its cache."""

    name = "word-problem"
    trace_rounds = 1

    # one round: (kind, n, length); "eq" pairs a word with a rewritten copy,
    # "ne" with a rewritten copy holding an inserted pure braid, so that its
    # Burau image differs.  Four light queries, ten middle ones of about the
    # same cost and three heavy ones: the median falls inside the middle
    # group and the 90th percentile inside the heavy one.
    ROUND = (("nf", 8, 300), ("nf", 8, 200), ("eq", 8, 200), ("ne", 8, 200),
             *(("nf", 10, 400),) * 4, *(("eq", 10, 200),) * 3, *(("ne", 10, 200),) * 3,
             ("nf", 16, 1000), ("eq", 16, 500), ("ne", 16, 500))

    def round(self, r: int) -> list[Query]:
        rng = random.Random(f"word-problem/{self.seed}/{r}")
        qs = []
        for kind, n, length in self.ROUND:
            w = rand_word(rng, n, length)
            if kind == "nf":
                qs.append(Query("nf", (n, w)))
            elif kind == "eq":
                qs.append(Query("eq", (n, w, rewrite(rng, w, n, length // 2)), True))
            else:
                # as long as an equal pair's rewritten copy, so both cost alike
                w2 = rewrite(rng, w, n, length // 2)
                while True:
                    i, j = rng.sample(range(1, n), 2)
                    pos = rng.randint(0, len(w2))
                    w3 = w2[:pos] + [i, i, -j, -j] + w2[pos:]
                    if not O.burau_equal(w, w3, n, (2,)):
                        break
                qs.append(Query("eq", (n, w, w3), False))
        return qs

    def execute(self, q: Query):
        bf = self.bf
        if q.kind == "nf":
            n, w = q.args
            return bf.normal_form(bf.word(n, w))
        n, a, b = q.args
        return bf.is_equal(bf.word(n, a), bf.word(n, b))

    def check(self, q: Query, out) -> str | None:
        if q.kind == "eq":
            return None if out == q.expect else f"is_equal said {out}, expected {q.expect}"
        n, w = q.args
        factors = [f.images for f in out.factors]
        if out.strands != n or not O.is_left_weighted(n, factors):
            return "normal form is not left-weighted"
        if not O.burau_equal(O.normal_form_word(n, out.delta_power, factors), w, n, (2,)):
            return "normal form differs from its input under Burau"
        return None


# --- cover-homology ----------------------------------------------------------------


class CoverHomology(Workload):
    """The cover side only: lifts, H_1 matrices, deck symmetry, Burau."""

    name = "cover-homology"
    warmup_rounds = 1
    trace_rounds = 2
    repeats = True

    # (n, k) with H_1 rank (n-1)(k-1) from 6 to 60
    COVERS = ((3, 4), (4, 4), (4, 5), (5, 6), (6, 7), (7, 8), (11, 7), (7, 11))
    # Costs rise by steps from cover to cover, and a percentile that falls
    # between two steps jumps with the seed and the machine.  So two blocks
    # of homology_rep on more 30-letter braids, which cost alike whatever the
    # braid: 24 at (4, 5) hold the median and 16 at (7, 8) the 90th
    # percentile, with only the (11, 7) and (7, 11) lifts above them.
    BLOCKS = (((4, 5), 24), ((7, 8), 16))

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = random.Random(f"cover-homology/{seed}")
        qs = []
        for n, k in self.COVERS:
            qs.append(Query("homrep", (n, k, rand_word(rng, n, 30))))
            qs.append(Query("symcheck", (n, k, rand_word(rng, n, 30)), True))
            qs.append(Query("burau", (n, k, rand_word(rng, n, 15))))
        for n, k in probe.CROSS_CHECK_COVERS:
            qs.append(Query("homrep", (n, k, rand_word(rng, n, 30))))
            qs.append(Query("burau", (n, k, rand_word(rng, n, 15))))
        for (n, k), count in self.BLOCKS:
            qs.extend(Query("homrep", (n, k, rand_word(rng, n, 30))) for _ in range(count))
        self.corpus = qs

    def round(self, r: int) -> list[Query]:
        return self.corpus

    def execute(self, q: Query):
        bf = self.bf
        n, k, b = q.args
        if q.kind == "burau":
            return bf.burau_at_companion(bf.word(n, b), k)
        lifted = bf.lift_word(bf.word(n, b), k)
        if q.kind == "symcheck":
            return bf.symmetry_check(lifted)
        return len(lifted), bf.homology_rep(lifted)

    @staticmethod
    def same(a, b) -> bool:
        if isinstance(a, tuple):
            return a[0] == b[0] and _rows(a[1]) == _rows(b[1])
        if isinstance(a, bool):
            return a == b
        return _rows(a) == _rows(b)

    def check(self, q: Query, out) -> str | None:
        n, k, b = q.args
        if q.kind == "symcheck":
            return None if out is True else "a lifted braid failed the deck symmetry check"
        if q.kind == "burau":
            if _rows(out) != O.burau_at_companion(b, n, k):
                return "burau_at_companion differs from the oracle"
            return None
        letters, H = out
        if letters != len(b) * (k - 1):
            return f"lift has {letters} twists, expected {len(b) * (k - 1)}"
        H = _rows(H)
        D = O.deck_matrix(n, k)
        if O.mat_mul(H, D) != O.mat_mul(D, H):
            return "H_1 matrix does not commute with the deck matrix"
        if O.det(H) != 1:
            return "H_1 matrix does not have determinant 1"
        V = self.prepared.get((n, k))
        if V is not None:
            V = _rows(V)
            if O.mat_mul(H, V) != O.mat_mul(V, O.burau_at_companion(b, n, k)):
                return "H_1 matrix differs from Burau at the companion under base_change"
        return None

    def setup(self) -> None:
        super().setup()
        for V in self.prepared.values():
            if abs(O.det(_rows(V))) != 1:
                raise SystemExit("base_change returned a matrix that is not unimodular")


def _rows(mat) -> list[list[int]]:
    return [[int(v) for v in row] for row in mat]


# --- cli-paper -------------------------------------------------------------------------


class CliPaper(Workload):
    """The CLI as users run it: one fresh interpreter per command."""

    name = "cli-paper"
    in_process = False
    trace_rounds = 2
    repeats = True

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = random.Random(f"cli-paper/{seed}")
        self.one_shots = self._one_shots(rng)
        self.verify_papers = [
            Query("verify-paper", (s,), argv=["verify-paper", "--seed", str(s), "--json"])
            for s in (2 * seed, 2 * seed + 1)
        ]

    def setup(self) -> None:
        self.bf = None

    def _one_shots(self, rng: random.Random) -> list[Query]:
        qs = []
        for _ in range(2):
            n = rng.randint(4, 6)
            qs.append(Query("nf", (n, rand_word(rng, n, 30))))
        for _ in range(2):
            n = rng.randint(3, 4)
            a = rand_word(rng, n, 5)
            qs.append(Query("conj", (n, a, conj(rand_word(rng, n, 3), a)), True))
        for n in (3, 4):
            band = conj(rand_word(rng, n, 3), [rng.randint(1, n - 1)])
            qs.append(Query("qp-obstruct", (n, band), "band"))
        n, d = rng.choice(((3, 2), (3, 3), (4, 2)))
        b = conj(rand_word(rng, n, 3), delta_root(n) * d)
        qs.append(Query("qp-root", (n, b, d), True))
        qs.append(Query("cable-cert", (_cable_input(rng),)))
        n, k = rng.choice(((3, 3), (4, 3), (3, 4)))
        qs.append(Query("homrep", (n, k, rand_word(rng, n, 15))))
        n, k = rng.choice(((3, 3), (4, 3), (3, 4)))
        qs.append(Query("symcheck", (n, k, rand_word(rng, n, 15)), True))
        for q in qs:
            q.argv = _argv(q)
        return qs

    def round(self, r: int) -> list[Query]:
        # one verify-paper per round, its two seeds in turn, so that each
        # one-shot runs as many times as a run has rounds.  Among the twelve
        # distinct commands the two verify-papers are the heaviest sixth, so
        # latency_p90_ms is the verify-paper wall time; the eight light
        # one-shots are two thirds, so latency_p50_ms is a light command's
        return [self.verify_papers[r % 2], *self.one_shots]

    # the traced run calls braidforge.cli.run in this process instead
    runner: Callable[[list[str]], tuple[int, str]] | None = None

    def execute(self, q: Query):
        if self.runner is not None:
            return self.runner(q.argv)
        proc = subprocess.run(
            [sys.executable, "-m", "braidforge.cli", *q.argv],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return proc.returncode, proc.stdout

    def check(self, q: Query, out) -> str | None:
        code, stdout = out
        if code != 0:
            return f"exit code {code}"
        report = json.loads(stdout)
        verdict, witnesses = report["verdict"], report["witnesses"]
        if q.kind == "verify-paper":
            return None if verdict["all_passed"] is True else "verify-paper did not pass"
        if q.kind == "nf":
            n, w = q.args
            nf = verdict["normal_form"]
            factors = [tuple(f) for f in nf["factors"]]
            if not O.is_left_weighted(n, factors):
                return "normal form is not left-weighted"
            if not O.burau_equal(O.normal_form_word(n, nf["delta"], factors), w, n):
                return "normal form differs from its input under Burau"
            return None
        if q.kind == "conj":
            n, a, b = q.args
            if verdict["conjugate"] is not True:
                return "conj said not conjugate for a conjugate pair"
            witness = _ints(witnesses["conjugator"])
            return None if O.burau_equal(conj(witness, a), b, n) else "witness fails Burau"
        if q.kind == "qp-obstruct":
            n, b = q.args
            if verdict["status"] != "qp":
                return f"qp obstruct gave {verdict['status']} for a band"
            bands = _cert_bands(witnesses["certificate"])
            if len(bands) != 1 or not O.burau_equal(O.expand_bands(bands), b, n):
                return "band certificate fails the Burau check"
            return None
        if q.kind == "qp-root":
            n, b, d = q.args
            if verdict["found"] is not True:
                return "qp root found no certificate for a power of δ"
            x = O.expand_bands(_cert_bands(witnesses["certificate"]))
            for t in BOTH_POINTS:
                if O.Burau.of(x, n, t).power(d) != O.Burau.of(b, n, t):
                    return "root certificate: x^d differs from b under Burau"
            return None
        if q.kind == "cable-cert":
            data = q.args[0]
            widths = tuple(data["widths"])
            tubular = O.expand_bands(_cert_bands(data["tubular_cert"]))
            interiors = [O.expand_bands(_cert_bands(c)) for c in data["interiors"]]
            target = O.composite(tubular, widths, interiors)
            bands = _cert_bands(witnesses["certificate"])
            want = sum(widths[0] * widths[0] for _ in data["tubular_cert"]["bands"]) + sum(
                len(c["bands"]) for c in data["interiors"]
            )
            if len(bands) != want:
                return f"cabled certificate has {len(bands)} bands, expected {want}"
            if not O.burau_equal(O.expand_bands(bands), target, sum(widths)):
                return "cabled certificate fails the Burau check"
            return None
        n, k, _ = q.args
        if q.kind == "symcheck":
            return None if verdict["h1_deck_commutes"] is True else "symcheck failed on a lift"
        H = verdict["matrix"]["rows"]
        D = O.deck_matrix(n, k)
        if O.mat_mul(H, D) != O.mat_mul(D, H) or O.det(H) != 1:
            return "homrep matrix fails deck commutation or determinant 1"
        return None


def _ints(text: str) -> list[int]:
    return [int(v) for v in text.split()]


def _cert_bands(cert: dict) -> list[tuple[list[int], int]]:
    return [(_ints(b["conj"]), b["gen"]) for b in cert["bands"]]


def _lift_text(n: int, k: int, w: list[int]) -> str:
    """Twist-word text of the lift: σ_i becomes t[i,1] ... t[i,k-1], σ_i^{-1}
    the reversed chain of inverses."""
    out = []
    for v in w:
        i = abs(v)
        if v > 0:
            out.extend(f"t[{i},{l}]" for l in range(1, k))
        else:
            out.extend(f"t[{i},{l}]^-1" for l in range(k - 1, 0, -1))
    return " ".join(out)


def _cable_input(rng: random.Random) -> dict:
    """Equal widths, so every tubular band cables to width² bands."""
    m = rng.choice((2, 3))
    width = 2
    tub_bands = [
        {"conj": fmt(rand_word(rng, m, rng.randint(0, 2))), "gen": rng.randint(1, m - 1)}
        for _ in range(rng.randint(1, 2))
    ]
    tubular = O.expand_bands([(_ints(b["conj"]), b["gen"]) for b in tub_bands])
    orbits = O.cycles(O.permutation(tubular, m))
    interiors = [
        {"n": width, "bands": [{"conj": fmt(rand_word(rng, width, rng.randint(0, 2))), "gen": 1}
                               for _ in range(rng.randint(0, 2))]}
        for _ in orbits
    ]
    return {"tubular_cert": {"n": m, "bands": tub_bands}, "interiors": interiors,
            "widths": [width] * m}


def _argv(q: Query) -> list[str]:
    if q.kind == "nf":
        n, w = q.args
        return ["nf", "-n", str(n), "--json", "--", fmt(w)]
    if q.kind == "conj":
        n, a, b = q.args
        return ["conj", "-n", str(n), "--json", "--", fmt(a), fmt(b)]
    if q.kind == "qp-obstruct":
        n, b = q.args
        return ["qp", "obstruct", "-n", str(n), "--json", "--", fmt(b)]
    if q.kind == "qp-root":
        n, b, d = q.args
        return ["qp", "root", "-n", str(n), "-d", str(d), "--json", "--", fmt(b)]
    if q.kind == "cable-cert":
        return ["cable", "cert", "--json", json.dumps(q.args[0])]
    n, k, w = q.args
    cmd = "homrep" if q.kind == "homrep" else "symcheck"
    return ["cover", cmd, "-n", str(n), "-k", str(k), "--json", _lift_text(n, k, w)]


WORKLOADS = {w.name: w for w in (ConjQP, WordProblem, CoverHomology, CliPaper)}
