"""
checks: the identity suite behind `verify-paper` and the acceptance tests.

Each check replays one desk-scale identity or property family from the
underlying mathematics — the B_4 band-pair identity, the exponent-sum
obstruction, cabled regular forms, chain relations on cover homology, deck
symmetry of lifts, the Burau cross-oracle, periodic roots, conjugacy of equal
powers, normal-form soundness under rewriting, and certificate algebra — and
reports pass/fail with a detail line.  All randomness is seeded explicitly,
so a fixed seed reproduces the identical run.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable

from . import cabling, cover, garside, quasipositive as qp
from .words import (
    BraidWord,
    concat,
    conjugate,
    exponent_sum,
    identity_word,
    parse_word,
    power,
    word,
)

__all__ = ["CheckResult", "run_suite", "CHECKS"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    description: str
    passed: bool
    details: str
    seconds: float


def _random_word(rng: random.Random, n: int, length: int) -> BraidWord:
    return word(n, (rng.choice([-1, 1]) * rng.randint(1, n - 1) for _ in range(length)))


def _random_certificate(rng, n, bands, conj_len=5):
    return qp.QPCertificate(
        n,
        tuple(
            qp.Band(_random_word(rng, n, rng.randint(0, conj_len)), rng.randint(1, n - 1))
            for _ in range(bands)
        ),
    )


def check_band_pair_identity(seed: int) -> tuple[bool, str]:
    """The two B_4 expressions of the same braid: a band pair versus a cabled
    block crossing with a negative interior twist."""
    lhs = parse_word("2 3 -2 1 2 -1", 4)
    rhs = parse_word("2 1 3 2 -1 -1", 4)
    ok = garside.is_equal(lhs, rhs)
    return ok, "is_equal('2 3 -2 1 2 -1', '2 1 3 2 -1 -1') in B_4"


def check_negative_exponent_obstruction(seed: int) -> tuple[bool, str]:
    """(σ1σ2)^6 σ1^{-13} has exponent sum -1, hence is not quasipositive."""
    b = parse_word("(1 2)^6 1^-13", 3)
    verdict = qp.obstruct(b)
    ok = (
        exponent_sum(b) == -1
        and verdict.status is qp.QPStatus.NOT_QP
        and verdict.reason is qp.NotQPReason.NEGATIVE_EXPONENT_SUM
    )
    return ok, f"exponent sum {exponent_sum(b)}, verdict {verdict.status.value}"


def check_cabled_regular_form(seed: int) -> tuple[bool, str]:
    """Assembly of the σ1-tubular braid with widths (2,2) and interior σ1^{-2}
    reproduces the B_4 word, and certificate cabling of its quasipositive side
    yields the expected band counts."""
    rf = cabling.RegularForm(word(2, [1]), (2, 2), (parse_word("-1 -1", 2),))
    target = parse_word("2 3 -2 1 2 -1", 4)
    ok = garside.is_equal(cabling.assemble(rf), target)
    # the word itself is a band pair: cabling it with width-one tubes must
    # return it unchanged, with exactly two bands
    band_pair = qp.QPCertificate(
        4, (qp.Band(word(4, [2]), 3), qp.Band(word(4, [1]), 2))
    )
    orbits = cabling.orbit_structure(qp.expand(band_pair))
    cabled = cabling.cable_certificate(
        band_pair, [qp.QPCertificate(1)] * len(orbits), (1, 1, 1, 1)
    )
    ok = ok and len(cabled) == 2 and qp.verify(cabled, target)
    # the quasipositive interior example: tubular band with interior σ1²
    six = cabling.cable_certificate(
        qp.QPCertificate(2, (qp.Band(identity_word(2), 1),)),
        [qp.QPCertificate(2, (qp.Band(identity_word(2), 1),) * 2)],
        (2, 2),
    )
    rf6 = cabling.RegularForm(word(2, [1]), (2, 2), (word(2, [1, 1]),))
    ok = ok and len(six) == 6 and qp.verify(six, cabling.assemble(rf6))
    return ok, "assembly matches; width-1 cabling gives 2 bands; interior example 6"


def check_chain_relations_h1(seed: int) -> tuple[bool, str]:
    """(σ1σ2)^6 on the double cover of 3 points and (σ1σ2σ3)^4 on the double
    cover of 4 points act as the identity on H_1."""
    h1 = cover.homology_rep(cover.lift_word(parse_word("(1 2)^6", 3), 2))
    h2 = cover.homology_rep(cover.lift_word(parse_word("(1 2 3)^4", 4), 2))
    ok = h1 == [[1, 0], [0, 1]] and h2 == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    return ok, "both chain words act as the identity matrix"


def check_deck_symmetry(seed: int) -> tuple[bool, str]:
    """Lifted braids commute with the deck action on H_1: 500 random braids."""
    rng = random.Random(seed)
    failures = 0
    for _ in range(500):
        n = rng.randint(2, 5)
        k = rng.randint(2, 4)
        b = _random_word(rng, n, rng.randint(0, 30))
        if not cover.symmetry_check(cover.lift_word(b, k)):
            failures += 1
    return failures == 0, f"500 random braids, {failures} failures"


def check_braid_relations_h1(seed: int) -> tuple[bool, str]:
    """All braid-relation and far-commutation pairs agree on H_1 for
    n <= 5, k <= 4."""
    failures = 0
    count = 0
    for n in range(2, 6):
        for k in range(2, 5):
            for i in range(1, n - 1):
                count += 1
                a = cover.lift_word(word(n, [i, i + 1, i]), k)
                b = cover.lift_word(word(n, [i + 1, i, i + 1]), k)
                if not cover.check_identity(a, b):
                    failures += 1
            for i in range(1, n - 1):
                for j in range(i + 2, n):
                    count += 1
                    a = cover.lift_word(word(n, [i, j]), k)
                    b = cover.lift_word(word(n, [j, i]), k)
                    if not cover.check_identity(a, b):
                        failures += 1
    return failures == 0, f"{count} relation instances, {failures} failures"


def check_burau_cross_oracle(seed: int) -> tuple[bool, str]:
    """Homology of the lift and reduced Burau at the companion matrix agree
    under the fixed base change: 200 random words across five covers."""
    rng = random.Random(seed)
    pairs = [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)]
    changes = {nk: cover.base_change(*nk) for nk in pairs}
    failures = 0
    for idx in range(200):
        n, k = pairs[idx % len(pairs)]
        b = _random_word(rng, n, rng.randint(0, 30))
        V = changes[n, k]
        H = cover.homology_rep(cover.lift_word(b, k))
        if cover._mul(H, V) != cover._mul(V, cover.burau_at_companion(b, k)):
            failures += 1
    return failures == 0, f"200 words over {pairs}, {failures} failures"


def check_periodicity_and_roots(seed: int) -> tuple[bool, str]:
    """Periodic powers of δ and γ, non-periodicity of σ1 and σ1σ2^{-1}, the
    two periodic roots of the full twist in B_3, and their certificates."""
    ok = True
    for n in range(2, 6):
        for j in list(range(-4, 0)) + list(range(1, 5)):
            ok = ok and garside.is_periodic(power(garside.delta_root_word(n), j))
            ok = ok and garside.is_periodic(power(garside.gamma_root_word(n), j))
    ok = ok and not garside.is_periodic(word(3, [1]))
    ok = ok and not garside.is_periodic(parse_word("1 -2", 3))
    dd = power(garside.half_twist(3), 2)
    r3 = garside.periodic_root(dd, 3)
    r2 = garside.periodic_root(dd, 2)
    ok = ok and (r3.kind, r3.power) == (garside.PeriodicRootKind.DELTA, 1)
    ok = ok and (r2.kind, r2.power) == (garside.PeriodicRootKind.GAMMA, 1)
    cert3 = qp.qp_root_periodic(dd, 3)
    cert2 = qp.qp_root_periodic(dd, 2)
    ok = ok and garside.is_equal(power(qp.expand(cert3), 3), dd)
    ok = ok and garside.is_equal(power(qp.expand(cert2), 2), dd)
    ok = ok and qp.qp_root_periodic(power(garside.half_twist(2), -2), 2) is None
    return ok, "δ/γ powers periodic; roots of Δ_3² are δ and γ with certificates"


def check_root_conjugacy(seed: int) -> tuple[bool, str]:
    """Conjugates are recognized with verified witnesses, and equal powers
    imply conjugacy on the periodic instances where powers coincide."""
    rng = random.Random(seed)
    failures = 0
    for idx in range(50):
        n = rng.randint(2, 4)
        if idx % 5 == 0:
            base = rng.choice(
                [garside.delta_root_word(n), garside.gamma_root_word(n)]
            )
            a = base
        else:
            a = _random_word(rng, n, rng.randint(1, 8))
        u = _random_word(rng, n, rng.randint(0, 6))
        b = conjugate(u, a)
        res = garside.is_conjugate(a, b)
        if not (res.conjugate and garside.is_equal(conjugate(res.witness, a), b)):
            failures += 1
            continue
        for d in (2, 3):
            if garside.is_equal(power(a, d), power(b, d)):
                if not garside.is_conjugate(a, b).conjugate:
                    failures += 1
    return failures == 0, f"50 seeded pairs, {failures} failures"


def _apply_random_rewrite(rng, ints: list[int], n: int) -> list[int]:
    moves = []
    for i in range(len(ints) - 1):
        a, b = ints[i], ints[i + 1]
        if abs(abs(a) - abs(b)) >= 2:
            moves.append(("comm", i))
        if a + b == 0:
            moves.append(("del", i))
    for i in range(len(ints) - 2):
        a, b, c = ints[i], ints[i + 1], ints[i + 2]
        if a == c and a * b > 0 and abs(abs(a) - abs(b)) == 1:
            moves.append(("braid", i))
    if len(ints) < 46:
        moves.extend(("ins", i) for i in range(len(ints) + 1))
    if not moves:
        return ints
    kind, i = rng.choice(moves)
    if kind == "comm":
        return ints[:i] + [ints[i + 1], ints[i]] + ints[i + 2 :]
    if kind == "del":
        return ints[:i] + ints[i + 2 :]
    if kind == "braid":
        a, b = ints[i], ints[i + 1]
        return ints[:i] + [b, a, b] + ints[i + 3 :]
    g = rng.choice([-1, 1]) * rng.randint(1, n - 1)
    return ints[:i] + [g, -g] + ints[i:]


def check_garside_soundness(seed: int) -> tuple[bool, str]:
    """Normal forms are invariant under 1000 element-preserving rewrites, and
    the full twist is central on the same corpus."""
    rng = random.Random(seed)
    failures = 0
    rewrites = 0
    base_words = 50
    for _ in range(base_words):
        n = rng.randint(2, 6)
        ints = list(_random_word(rng, n, rng.randint(1, 40)).letters)
        nf = garside.normal_form(word(n, ints))
        dd = power(garside.half_twist(n), 2)
        w = word(n, ints)
        if not garside.is_equal(concat(dd, w), concat(w, dd)):
            failures += 1
        for _ in range(1000 // base_words):
            ints = _apply_random_rewrite(rng, ints, n)
            rewrites += 1
            if garside.normal_form(word(n, ints)) != nf:
                failures += 1
    return failures == 0, f"{rewrites} rewrites with centrality checks, {failures} failures"


def check_certificate_algebra(seed: int) -> tuple[bool, str]:
    """Certificates expand and verify, their band count is the exponent sum,
    and conjugation acts bandwise: 500 random certificates."""
    rng = random.Random(seed)
    failures = 0
    for _ in range(500):
        n = rng.randint(2, 5)
        cert = _random_certificate(rng, n, rng.randint(0, 5))
        expanded = qp.expand(cert)
        if exponent_sum(expanded) != len(cert):
            failures += 1
        if not qp.verify(cert, expanded):
            failures += 1
        u = _random_word(rng, n, rng.randint(0, 5))
        conj = qp.conjugate_certificate(cert, u)
        if not qp.verify(conj, conjugate(u, expanded)):
            failures += 1
    return failures == 0, f"500 certificates, {failures} failures"


CHECKS: list[tuple[str, str, Callable[[int], tuple[bool, str]]]] = [
    (
        "band-pair-identity-b4",
        "band pair equals cabled crossing with negative interior twist in B_4",
        check_band_pair_identity,
    ),
    (
        "negative-exponent-obstruction",
        "negative exponent sum obstructs quasipositivity",
        check_negative_exponent_obstruction,
    ),
    (
        "cabled-regular-form",
        "regular-form assembly and certificate cabling reproduce the B_4 example",
        check_cabled_regular_form,
    ),
    (
        "chain-relations-h1",
        "chain-relation words act trivially on double-cover homology",
        check_chain_relations_h1,
    ),
    (
        "deck-symmetry",
        "lifted braids commute with the deck action on homology",
        check_deck_symmetry,
    ),
    (
        "braid-relations-h1",
        "braid relations hold in the homology representation",
        check_braid_relations_h1,
    ),
    (
        "burau-cross-oracle",
        "homology of lifts matches reduced Burau at the companion matrix",
        check_burau_cross_oracle,
    ),
    (
        "periodicity-and-roots",
        "periodic braids, their δ/γ roots, and root certificates",
        check_periodicity_and_roots,
    ),
    (
        "root-conjugacy",
        "conjugates are recognized with witnesses; equal powers imply conjugacy",
        check_root_conjugacy,
    ),
    (
        "garside-soundness",
        "normal forms invariant under rewriting; full twist central",
        check_garside_soundness,
    ),
    (
        "certificate-algebra",
        "certificate expansion, band count, and conjugation behave",
        check_certificate_algebra,
    ),
]


def run_suite(seed: int = 0) -> list[CheckResult]:
    """Run every check with the given seed, in canonical order."""
    results = []
    for name, description, fn in CHECKS:
        start = time.perf_counter()
        passed, details = fn(seed)
        results.append(
            CheckResult(name, description, passed, details, time.perf_counter() - start)
        )
    return results
