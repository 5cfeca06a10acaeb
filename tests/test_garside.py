"""
Tests for normal forms and decision procedures.

The independent oracles used here:
  * positive-word equality by breadth-first search over positive relation
    moves (braid relation + far commutation), complete on the positive monoid
    since it embeds in B_n with relations preserving length;
  * reduced Burau, faithful for n <= 3, as an equality cross-check: at a
    rational t, and as Laurent matrices in a property test;
  * rewrite invariance: random relation moves and free insertions preserve the
    element by construction, so the normal form must not change;
  * the letter-at-a-time kernel (one step per letter, every Δ moved left one
    pair per _renorm call), kept here as the reference for simple-step input,
    for the heap-of-pieces reduction of the word, for the right-to-left pass
    and for sending each Δ straight to the front;
  * hypothesis property tests (derandomized, so every run draws the same
    examples): group operations against word operations, and conjugacy and
    root witnesses against is_equal.
"""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidforge import garside, quasipositive
from braidforge.checks import _apply_random_rewrite
from braidforge.cover import burau_reduced
from braidforge.garside import (
    BudgetExceededError,
    PeriodicRootKind,
    delta_root_word,
    gamma_root_word,
    half_twist,
    inf_sup,
    is_conjugate,
    is_equal,
    is_periodic,
    is_positive_braid,
    nf_inv,
    nf_mul,
    nf_to_json,
    nf_to_word,
    normal_form,
    periodic_root,
)
from braidforge.words import (
    MAX_WORD_LETTERS,
    BraidWord,
    Permutation,
    _word_colouring,
    concat,
    conjugate,
    exponent_sum,
    identity_word,
    invert_word,
    parse_word,
    power,
    underlying_permutation,
    word,
)


def random_word(rng, n, length):
    return word(n, (rng.choice([-1, 1]) * rng.randint(1, n - 1) for _ in range(length)))


def positive_class(w: BraidWord) -> frozenset:
    """All positive words equal to the positive word w, by BFS over the
    defining relations (which preserve length on positive words)."""
    start = w.signed_ints()
    assert all(v > 0 for v in start)
    seen = {start}
    frontier = [start]
    while frontier:
        new = []
        for u in frontier:
            for i in range(len(u) - 1):
                a, b = u[i], u[i + 1]
                if abs(a - b) >= 2:
                    v = u[:i] + (b, a) + u[i + 2 :]
                    if v not in seen:
                        seen.add(v)
                        new.append(v)
            for i in range(len(u) - 2):
                a, b, c = u[i], u[i + 1], u[i + 2]
                if a == c and abs(a - b) == 1:
                    v = u[:i] + (b, a, b) + u[i + 3 :]
                    if v not in seen:
                        seen.add(v)
                        new.append(v)
        frontier = new
    return frozenset(seen)


def burau_unreduced_fraction(w: BraidWord, t: Fraction):
    """Unreduced Burau at a rational t: an exact faithful-for-n<=3 oracle,
    built independently of the cover module."""
    n = w.strands
    mat = [[Fraction(i == j) for j in range(n)] for i in range(n)]

    def mul_gen(m, i, inverse):
        # right-multiply m by the Burau image of σ_i^{±1}
        out = [row[:] for row in m]
        for r in range(n):
            a, b = m[r][i - 1], m[r][i]
            if not inverse:
                out[r][i - 1] = a * (1 - t) + b
                out[r][i] = a * t
            else:
                out[r][i - 1] = b / t
                out[r][i] = a + b * (1 - Fraction(1) / t)
        return out

    for v in w:
        mat = mul_gen(mat, abs(v), v < 0)
    return tuple(tuple(row) for row in mat)


def apply_random_rewrite(rng, ints: list[int], n: int) -> list[int]:
    """One random element-preserving move: relation swap, far commutation,
    free insertion, or free deletion."""
    moves = []
    for i in range(len(ints) - 1):
        a, b = ints[i], ints[i + 1]
        if a * b > 0 or abs(abs(a) - abs(b)) >= 2:
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


# --- half twist ---


def test_half_twist_small():
    assert half_twist(2).signed_ints() == (1,)
    assert half_twist(3).signed_ints() == (1, 2, 1)
    with pytest.raises(ValueError):
        half_twist(1)


def test_half_twist_properties():
    for n in range(2, 8):
        d = half_twist(n)
        assert len(d) == n * (n - 1) // 2
        assert all(v > 0 for v in d)
        # the order-reversing permutation i ↦ n+1-i
        assert underlying_permutation(d) == Permutation(tuple(range(n, 0, -1)))


def test_half_twist_and_root_words_are_not_kept():
    # each call builds its word afresh: the words for every n up to 300,
    # about 35 MB under an unbounded cache, leave nothing alive
    tracemalloc.start()
    try:
        for n in range(2, 301):
            half_twist(n), delta_root_word(n), gamma_root_word(n)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < 1_000_000


def test_half_twist_3_exhaustive():
    # every length-3 positive word with the reversing permutation is related
    # to 1 2 1 by the braid relation; is_equal accepts them all
    cls = positive_class(word(3, [1, 2, 1]))
    assert cls == {(1, 2, 1), (2, 1, 2)}
    for ints in cls:
        assert is_equal(word(3, ints), half_twist(3))


# --- normal form ---


def test_normal_form_identity():
    nf = normal_form(identity_word(3))
    assert nf.delta_power == 0 and nf.factors == ()


def test_normal_form_half_twist():
    nf = normal_form(word(3, [1, 2, 1]))
    assert nf.delta_power == 1 and nf.factors == ()


def test_normal_form_free_cancellation():
    assert normal_form(parse_word("1 -1 2", 3)) == normal_form(parse_word("2", 3))


def test_normal_form_positive_oracle():
    # all positive words in one relation class share a normal form; words in
    # different classes (of the same length) get different normal forms
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(2, 5)
        w = word(n, [rng.randint(1, n - 1) for _ in range(rng.randint(1, 7))])
        cls = positive_class(w)
        nf = normal_form(w)
        assert all(normal_form(word(n, ints)) == nf for ints in cls)
        other = word(n, [rng.randint(1, n - 1) for _ in range(len(w))])
        if other.signed_ints() not in cls:
            assert normal_form(other) != nf


def test_normal_form_vs_burau_b3():
    # reduced Burau is faithful for n <= 3: exact agreement with is_equal
    rng = random.Random(29)
    t = Fraction(3, 7)
    for _ in range(150):
        n = rng.randint(2, 3)
        a = random_word(rng, n, rng.randint(0, 10))
        b = random_word(rng, n, rng.randint(0, 10))
        oracle = burau_unreduced_fraction(a, t) == burau_unreduced_fraction(b, t)
        assert is_equal(a, b) == oracle


def test_nf_to_word_round_trip():
    rng = random.Random(31)
    for _ in range(1000):
        n = rng.randint(2, 6)
        w = random_word(rng, n, rng.randint(0, 18))
        nf = normal_form(w)
        assert normal_form(nf_to_word(nf)) == nf
    # Δ^-m ahead of fewer, as many and more factors than m
    for _ in range(200):
        n = rng.randint(2, 6)
        w = concat(power(half_twist(n), -rng.randint(1, 5)), random_word(rng, n, rng.randint(0, 18)))
        nf = normal_form(w)
        assert normal_form(nf_to_word(nf)) == nf


def test_nf_to_word_pairs_negative_powers_with_factors():
    # Δ^-m x_1 x_2 ... is written τ^{m-1}(∂x_1)^-1 Δ^-(m-1) x_2 ...: one
    # inverse permutation braid of n(n-1)/2 - |x_i| letters per pair
    rng = random.Random(33)
    for _ in range(300):
        n = rng.randint(2, 7)
        nf = normal_form(random_word(rng, n, rng.randint(0, 25)))
        half = n * (n - 1) // 2
        pairs = min(-nf.delta_power, len(nf.factors)) if nf.delta_power < 0 else 0
        # a permutation braid has one letter per inversion of its permutation
        lengths = [sum(a > b for a, b in itertools.combinations(f.images, 2)) for f in nf.factors]
        expected = (
            sum(half - x for x in lengths[:pairs])
            + abs(nf.delta_power + pairs) * half
            + sum(lengths[pairs:])
        )
        assert len(nf_to_word(nf)) == expected
    assert nf_to_word(normal_form(power(word(5, [2]), -40))) == power(word(5, [2]), -40)
    # the letter cap is checked before a Δ-power is written out
    cap = MAX_WORD_LETTERS // 435
    assert len(nf_to_word(garside.NormalForm(30, -cap, ()))) == cap * 435
    for p in (cap + 1, -cap - 1, -10**12):
        with pytest.raises(ValueError, match="more than"):
            nf_to_word(garside.NormalForm(30, p, ()))


def test_nf_group_ops_match_word_ops():
    rng = random.Random(37)
    for _ in range(200):
        n = rng.randint(2, 5)
        a = random_word(rng, n, rng.randint(0, 12))
        b = random_word(rng, n, rng.randint(0, 12))
        assert nf_mul(normal_form(a), normal_form(b)) == normal_form(concat(a, b))
        assert nf_inv(normal_form(a)) == normal_form(invert_word(a))


def test_nf_json_round_trip():
    def nf_from_json(data):
        factors = tuple(Permutation(tuple(images)) for images in data["factors"])
        return garside.NormalForm(data["n"], data["delta"], factors)

    nf = normal_form(parse_word("1 2 -1 2", 4))
    data = nf_to_json(nf)
    assert set(data) == {"n", "delta", "factors"}
    assert nf_from_json(data) == nf


def rescan_renorm(a, b):
    """Reference left-weighting: rescan every starting letter of b after each
    move, rebuilding both tuples (O(n) per moved letter)."""
    a_inv = [0] * len(a)
    for pos, v in enumerate(a, 1):
        a_inv[v - 1] = pos
    a, b = list(a), list(b)
    while True:
        for i in range(1, len(b)):
            if b[i - 1] > b[i] and a_inv[i - 1] < a_inv[i]:
                a = [i + 1 if v == i else (i if v == i + 1 else v) for v in a]
                a_inv[i - 1], a_inv[i] = a_inv[i], a_inv[i - 1]
                b[i - 1], b[i] = b[i], b[i - 1]
                break
        else:
            return tuple(a), tuple(b)


def test_renorm_matches_rescan():
    renorm = garside._renorm.__wrapped__  # uncached, so every pair is computed
    rng = random.Random(43)
    pairs = []
    for n in (1, 2, 3, 5, 8, 16, 30):
        ident, w0 = tuple(range(1, n + 1)), tuple(range(n, 0, -1))
        pairs += [(ident, ident), (ident, w0), (w0, ident), (w0, w0)]
    for _ in range(10_000):
        n = rng.randint(1, 30)
        a, b = list(range(1, n + 1)), list(range(1, n + 1))
        rng.shuffle(a)
        rng.shuffle(b)
        pairs.append((tuple(a), tuple(b)))
    for a, b in pairs:
        expected = rescan_renorm(a, b)
        assert renorm(a, b) == expected, (a, b)
        # the result is left-weighted, and a left-weighted pair comes back as is
        a2, b2 = expected
        again = renorm(a2, b2)
        assert again[0] is a2 and again[1] is b2
        assert garside._renorm(a2, b2) == expected


def test_renorm_cache_is_bounded(monkeypatch):
    assert isinstance(garside._renorm.cache_info().maxsize, int)
    # in pairs and in strands: larger pairs are left-weighted uncached
    limit = garside._RENORM_CACHE_STRANDS
    for n, cached in ((limit + 1, False), (limit, True)):
        garside._renorm.cache_clear()
        normal_form(random_word(random.Random(3), n, 200))
        assert (garside._renorm.cache_info().currsize > 0) == cached
    # and so by a slide: a stand-in for _renorm records, for each pair, whether
    # it was looked up in the cache; the slide's own (φ(x), ι(x)) pair comes
    # first, then those of its conjugation by the prefix
    real = garside._renorm
    looked_up: list[bool] = []

    def stand_in(a, b):
        looked_up.append(True)
        return real(a, b)

    def uncached(a, b):
        looked_up.append(False)
        return real.__wrapped__(a, b)

    stand_in.__wrapped__ = uncached
    monkeypatch.setattr(garside, "_renorm", stand_in)
    for n, cached in ((limit + 1, False), (limit, True)):
        x = garside._raw_normal_form(word(n, [1, 2, -3, 1, 2, 3, -2, 4]))
        looked_up.clear()
        prefix, y = garside._slide(n, x)
        assert prefix != garside._t_identity(n) and y != x
        assert looked_up[0] == cached and set(looked_up) == {cached}


def letterwise_raw_normal_form(w: BraidWord):
    """
    The reference for `garside._raw_normal_form`: one step per letter, each
    σ_i^{-1} written Δ^{-1} · (Δσ_i^{-1}), and a left-normalizing sweep that
    moves every Δ left one pair per _renorm call, collecting the Δ's at the
    front only at the end.
    """
    n = w.strands
    ident, w0 = tuple(range(1, n + 1)), tuple(range(n, 0, -1))
    renorm = garside._renorm.__wrapped__
    factors = []
    for v in w:
        i = abs(v)
        s = ident[: i - 1] + (i + 1, i) + ident[i + 1 :]
        factors.append(s if v > 0 else garside._t_then(w0, garside._t_inv(s)))
    delta = 0
    for j in range(len(factors) - 1, -1, -1):
        if delta % 2:
            factors[j] = garside._t_tau(factors[j])
        if w.letters[j] < 0:
            delta -= 1
    factors = [f for f in factors if f != ident]
    i = 0
    while i < len(factors) - 1:
        a2, b2 = renorm(factors[i], factors[i + 1])
        if (a2, b2) == (factors[i], factors[i + 1]):
            i += 1
            continue
        factors[i] = a2
        if b2 == ident:
            del factors[i + 1]
        else:
            factors[i + 1] = b2
        i = max(i - 1, 0)
    front = 0
    while front < len(factors) and factors[front] == w0:
        front += 1
    return delta + front, tuple(factors[front:])


def biased_word(rng, n, length, positive_share):
    return word(
        n,
        ((1 if rng.random() < positive_share else -1) * rng.randint(1, n - 1) for _ in range(length)),
    )


def test_grouped_kernel_matches_letterwise():
    words = [identity_word(n) for n in (1, 2, 3, 16)]
    for n in range(2, 8):
        delta = half_twist(n)
        words += [power(delta, k) for k in (1, 2, 3, -1, -2, -3)]
        words += [concat(concat(power(delta, -2), random_word(random.Random(n), n, 9)), power(delta, 3))]
        for i in range(1, n):
            words += [word(n, [i, i]), word(n, [-i, -i]), word(n, [i, i, -i, i, i, i])]
    words += [word(2, ints) for ints in ([1] * 5, [-1] * 5, [1, -1, -1, 1, 1, 1], [-1, 1] * 3)]
    rng = random.Random(47)
    for k in range(3000):
        n = rng.randint(2, 16)
        words.append(biased_word(rng, n, rng.randint(0, 30), (k % 11) / 10))
    for w in words:
        assert garside._raw_normal_form(w) == letterwise_raw_normal_form(w), w
    for n in range(2, 8):
        for k in (1, 2, 3):
            assert garside._raw_normal_form(power(half_twist(n), k)) == (k, ())
            assert garside._raw_normal_form(power(half_twist(n), -k)) == (-k, ())


def test_simple_steps_are_the_maximal_runs_of_the_word():
    # the steps cut the word into runs, letter for letter; each run equals its
    # step by the positive-word oracle (a run of inverses σ_{i_1}^{-1} ...
    # σ_{i_k}^{-1} is the inverse of σ_{i_k} ... σ_{i_1}), and the next letter
    # of the same sign would make the run a non-reduced word
    def crossings(n, ints):
        p = underlying_permutation(word(n, ints)).images
        return sum(p[a] > p[b] for a in range(n) for b in range(a + 1, n))

    rng = random.Random(53)
    for k in range(400):
        n = rng.randint(2, 5)
        letters = list(biased_word(rng, n, rng.randint(0, 30), (k % 11) / 10).signed_ints())
        at = 0
        for s, sign in garside._simple_steps(n, letters):
            step_word = garside._permutation_braid_word(s)
            run = letters[at : at + len(step_word)]
            at += len(run)
            if sign < 0:
                run = [-v for v in reversed(run)]
            assert step_word and tuple(run) in positive_class(word(n, step_word))
            if at < len(letters) and letters[at] * sign > 0:
                longer = run + [letters[at]] if sign > 0 else [-letters[at]] + run
                assert crossings(n, longer) < len(longer)
        assert at == len(letters)


def interleaved_inverse_pairs(rng, n, pairs):
    # commutators σ_i^{±1} x σ_i^{∓1} x^{-1} with x of letters far from i,
    # so that σ_i^{±1} cancels only by far commutation, then x
    out = []
    for _ in range(pairs):
        i = rng.randint(1, n - 1)
        e = rng.choice((-1, 1))
        far = [j for j in range(1, n) if abs(j - i) >= 2]
        x = [rng.choice((-1, 1)) * rng.choice(far) for _ in range(rng.randint(0, 4))] if far else []
        out += [e * i, *x, -e * i, *(-v for v in reversed(x))]
    return out


def test_kernel_matches_letterwise_on_long_and_cancelling_words():
    rng = random.Random(59)
    words = []
    for k in range(12):
        n = rng.randint(8, 16)
        words.append(biased_word(rng, n, rng.randint(200, 300), (k % 6) / 5))
    for _ in range(12):
        n = rng.randint(3, 12)
        a = random_word(rng, n, rng.randint(1, 20))
        words.append(conjugate(random_word(rng, n, rng.randint(1, 40)), a))
    for _ in range(12):
        n = rng.randint(3, 12)
        words.append(word(n, interleaved_inverse_pairs(rng, n, rng.randint(1, 30))))
        mixed = interleaved_inverse_pairs(rng, n, 10)
        at = rng.randint(0, len(mixed))
        words.append(word(n, mixed[:at] + list(random_word(rng, n, 15).signed_ints()) + mixed[at:]))
    for w in words:
        assert garside._raw_normal_form(w) == letterwise_raw_normal_form(w), w
    # words that reduce to the empty word
    for _ in range(20):
        n = rng.randint(2, 12)
        u = random_word(rng, n, rng.randint(0, 40))
        for w in (concat(u, invert_word(u)), word(n, interleaved_inverse_pairs(rng, n, 8))):
            assert garside._heap_letters(w) == []
            assert garside._raw_normal_form(w) == (0, ()) == letterwise_raw_normal_form(w)


def test_kernel_matches_letterwise_when_delta_forms_mid_pass(monkeypatch):
    # Δ^{±k} blocks mixed with random runs; a recording _renorm shows that a
    # carried factor became Δ in the middle of a right-to-left pass, after
    # the pair to its right had moved
    calls = []
    cached = garside._renorm

    def recording(a, b):
        result = cached(a, b)
        calls.append((a, b, result))
        return result

    recording.__wrapped__ = cached.__wrapped__
    monkeypatch.setattr(garside, "_renorm", recording)
    rng = random.Random(61)
    mid_pass = 0
    for _ in range(600):
        n = rng.randint(3, 7)
        ints = []
        for _ in range(rng.randint(2, 6)):
            if rng.random() < 0.4:
                ints += power(half_twist(n), rng.choice((-3, -2, -1, 1, 2, 3))).signed_ints()
            else:
                ints += random_word(rng, n, rng.randint(1, 8)).signed_ints()
        w = word(n, ints)
        calls.clear()
        assert garside._raw_normal_form(w) == letterwise_raw_normal_form(w), w
        w0 = tuple(range(n, 0, -1))
        for (_, b1, (a1, b1_out)), (_, b2, (a2, _)) in zip(calls, calls[1:]):
            mid_pass += b1_out != b1 and b2 == a1 and a2 == w0
    assert mid_pass > 0


def test_heap_reduction():
    rng = random.Random(67)
    for _ in range(300):
        n = rng.randint(2, 10)
        w = random_word(rng, n, rng.randint(0, 60))
        reduced = garside._heap_letters(w)
        assert len(reduced) <= len(w)
        assert normal_form(word(n, reduced)) == normal_form(w)
    for n in range(4, 9):
        for i in range(1, n):
            far = [j for j in range(1, n) if abs(j - i) >= 2]
            for _ in range(10 if far else 0):
                x = [rng.choice((-1, 1)) * rng.choice(far) for _ in range(rng.randint(1, 6))]
                e = rng.choice((-1, 1))
                # σ_i x σ_i^{-1} cancels when x commutes with σ_i ...
                reduced = garside._heap_letters(word(n, [e * i, *x, -e * i]))
                assert sorted(reduced) == sorted(garside._heap_letters(word(n, x)))
                assert i not in reduced and -i not in reduced
                # ... and never across σ_{i±1}
                for j in (i - 1, i + 1):
                    if 1 <= j < n:
                        for f in (1, -1):
                            reduced = garside._heap_letters(word(n, [e * i, *x, f * j, -e * i]))
                            assert e * i in reduced and -e * i in reduced


def test_kernel_renorm_calls(monkeypatch):
    # a 1000-letter word in B_16: 50 127 _renorm calls letter by letter with
    # every Δ moved left one pair per call; 8 918 from simple steps with each
    # Δ sent to the front at once and a left-to-right sweep; 2 275 from the
    # heap-reduced word with one right-to-left pass per factor.  A stand-in
    # for _renorm counts the calls, looked up in the cache or not
    real = garside._renorm
    calls = [0]

    def counted(a, b):
        calls[0] += 1
        return real(a, b)

    def counted_uncached(a, b):
        calls[0] += 1
        return real.__wrapped__(a, b)

    counted.__wrapped__ = counted_uncached
    monkeypatch.setattr(garside, "_renorm", counted)
    rng = random.Random(5)
    w = word(16, [rng.choice((-1, 1)) * rng.randint(1, 15) for _ in range(1000)])
    nf = normal_form(w)
    assert (nf.delta_power, len(nf.factors)) == (-43, 89)
    # each factor of the result was appended to a nonempty form but the first,
    # and every such append costs at least one call
    assert len(nf.factors) - 1 <= calls[0] <= 2_500


def test_normal_form_rewrite_invariance():
    rng = random.Random(41)
    for _ in range(60):
        n = rng.randint(2, 6)
        ints = list(random_word(rng, n, rng.randint(1, 24)).signed_ints())
        nf = normal_form(word(n, ints))
        for _ in range(15):
            ints = apply_random_rewrite(rng, ints, n)
            assert normal_form(word(n, ints)) == nf


# --- is_equal / inf_sup / positivity ---


def test_is_equal_band_identity():
    # (σ2 σ3 σ2^{-1})(σ1 σ2 σ1^{-1}) = (σ2 σ1 σ3 σ2) σ1^{-2} in B_4
    assert is_equal(parse_word("2 3 -2 1 2 -1", 4), parse_word("2 1 3 2 -1 -1", 4))


def test_is_equal_braid_relation_and_distinct():
    assert is_equal(parse_word("1 2 1", 3), parse_word("2 1 2", 3))
    assert not is_equal(parse_word("1", 3), parse_word("2", 3))
    with pytest.raises(ValueError):
        is_equal(word(2, [1]), word(3, [1]))


def test_inf_sup():
    assert inf_sup(identity_word(3)) == (0, 0)
    assert inf_sup(power(half_twist(3), 2)) == (2, 2)
    assert inf_sup(word(2, [-1])) == (-1, -1)
    assert inf_sup(word(3, [1])) == (0, 1)


def test_delta_squared_central():
    rng = random.Random(43)
    for n in range(2, 6):
        dd = power(half_twist(n), 2)
        for _ in range(25):
            w = random_word(rng, n, rng.randint(0, 15))
            assert is_equal(concat(dd, w), concat(w, dd))


def test_is_positive_braid():
    assert is_positive_braid(word(4, [1, 3, 2]))
    assert not is_positive_braid(parse_word("1 -2", 3))
    assert is_positive_braid(parse_word("1 -1", 2))
    rng = random.Random(47)
    for _ in range(100):
        n = rng.randint(2, 5)
        w = random_word(rng, n, rng.randint(0, 12))
        if exponent_sum(w) < 0:
            assert not is_positive_braid(w)
        if all(v > 0 for v in w):
            assert is_positive_braid(w)


# --- periodicity and roots ---


def test_is_periodic_examples():
    assert is_periodic(word(3, [1, 2]))
    assert is_periodic(word(3, [1, 1, 2]))
    assert not is_periodic(word(3, [1]))
    assert not is_periodic(parse_word("1 -2", 3))


def test_periodic_powers_of_delta_gamma():
    for n in range(2, 6):
        for j in range(-4, 5):
            if j == 0:
                continue
            assert is_periodic(power(delta_root_word(n), j))
            assert is_periodic(power(gamma_root_word(n), j))


def test_delta_gamma_defining_relations():
    for n in range(2, 7):
        dd = power(half_twist(n), 2)
        assert is_equal(power(delta_root_word(n), n), dd)
        assert is_equal(power(gamma_root_word(n), n - 1), dd)


def test_periodicity_conjugation_invariant():
    rng = random.Random(53)
    for _ in range(30):
        n = rng.randint(2, 4)
        base = rng.choice([delta_root_word(n), gamma_root_word(n), word(n, [1])])
        w = power(base, rng.randint(1, 3))
        u = random_word(rng, n, rng.randint(0, 6))
        assert is_periodic(w) == is_periodic(conjugate(u, w))


def test_periodic_root_examples():
    dd = power(half_twist(3), 2)
    r3 = periodic_root(dd, 3)
    assert (r3.kind, r3.power) == (PeriodicRootKind.DELTA, 1)
    r2 = periodic_root(dd, 2)
    assert (r2.kind, r2.power) == (PeriodicRootKind.GAMMA, 1)
    assert periodic_root(word(2, [1]), 2) is None
    with pytest.raises(ValueError):
        periodic_root(word(3, [1]), 2)


def test_periodic_root_negative_power():
    r = periodic_root(power(half_twist(2), -2), 2)
    assert (r.kind, r.power) == (PeriodicRootKind.DELTA, -1)


def test_periodic_root_of_conjugate():
    rng = random.Random(59)
    for n in (3, 4):
        u = random_word(rng, n, 5)
        w = conjugate(u, power(delta_root_word(n), 2))
        root = periodic_root(w, 2)
        assert root is not None
        assert is_conjugate(power(root.to_word(), 2), w).conjugate


# --- conjugacy ---


def test_conjugate_generators():
    res = is_conjugate(word(3, [1]), word(3, [2]))
    assert res.conjugate
    assert is_equal(conjugate(res.witness, word(3, [1])), word(3, [2]))
    # a negative Δ-power in the witness is paired with its factors, not
    # written out as n(n-1)/2 inverse letters per Δ
    for n in (4, 6, 8):
        res = is_conjugate(word(n, [1]), word(n, [2]))
        assert len(res.witness) == 2
        assert is_equal(conjugate(res.witness, word(n, [1])), word(n, [2]))


def test_not_conjugate_by_invariants():
    assert not is_conjugate(parse_word("1", 3), parse_word("1 -2", 3)).conjugate


def test_cyclic_words_conjugate():
    res = is_conjugate(word(3, [1, 2]), word(3, [2, 1]))
    assert res.conjugate


def test_conjugate_random_pairs_with_witness():
    rng = random.Random(61)
    for _ in range(25):
        n = rng.randint(2, 4)
        a = random_word(rng, n, rng.randint(1, 8))
        u = random_word(rng, n, rng.randint(0, 6))
        b = conjugate(u, a)
        res = is_conjugate(a, b)
        assert res.conjugate
        assert is_equal(conjugate(res.witness, a), b)


def test_not_conjugate_same_invariants():
    # σ1σ2 and its inverse share cycle type but differ in exponent sum;
    # σ1^3 vs σ1σ2σ1 in B_3 share exponent sum, differ in cycle type;
    # Δ² vs γ·δ-ish examples with equal invariants but non-conjugate:
    a = word(3, [1, 1, 1])
    b = word(3, [1, 2, 1])
    res = is_conjugate(a, b)
    assert not res.conjugate
    # same exponent sum and both 3-cycles, still not conjugate
    c = word(4, [1, 2, 3, 3, 2, 1])
    d = word(4, [1, 2, 3, 1, 2, 3])
    assert exponent_sum(c) == exponent_sum(d)
    res2 = is_conjugate(c, d)
    assert not res2.conjugate


def test_root_uniqueness_on_periodic_instances():
    # if a^d = b^d then a and b are conjugate: non-vacuous on periodic roots,
    # where a^n is central so every conjugate b of a satisfies b^n = a^n
    rng = random.Random(67)
    for n in (3, 4):
        for base in (delta_root_word(n), gamma_root_word(n)):
            for _ in range(5):
                a = base
                u = random_word(rng, n, rng.randint(0, 5))
                b = conjugate(u, a)
                d = n if base == delta_root_word(n) else n - 1
                assert is_equal(power(a, d), power(b, d))
                assert is_conjugate(a, b).conjugate


def test_budget_exhaustion_is_distinct():
    # a pair whose summit representatives differ, so the search must expand
    a = word(4, [2, -2, 2, 2, 3, -3, -2, -1])
    b = conjugate(word(4, [3, -2, -3, -3, 2]), a)
    assert is_conjugate(a, b).conjugate
    with pytest.raises(BudgetExceededError):
        is_conjugate(a, b, budget=0)



def reference_reduce_to_summit(n: int, x):
    """
    The super summit reduction before sliding: cycling and decycling phases,
    each ended when its orbit comes back to a state, with every step kept,
    loops included.  The reference for the inf and sup of the sliding
    representatives.
    """
    steps = []
    while True:
        improved = False
        for decycle in (False, True):
            seen = set()
            while x[1] and x not in seen:
                seen.add(x)
                p, f = x
                if decycle:
                    steps.append((f[-1], -1))
                    x = garside._normalize(n, p, [garside._t_tau(f[-1]) if p % 2 else f[-1], *f[:-1]])
                    better = x[0] + len(x[1]) < p + len(f)
                else:
                    u = garside._t_tau(f[0]) if p % 2 else f[0]
                    steps.append((u, 1))
                    x = garside._normalize(n, p, [*f[1:], u])
                    better = x[0] > p
                if better:
                    improved = True
                    seen.clear()
        if not improved:
            return x, steps


def summit_search(n: int, rep_a, targets, budget: int) -> tuple[bool, int]:
    """
    Breadth-first search of the super summit set from rep_a that normalizes
    s^{-1} x s for every one of the n! - 1 simple s at every node, in
    lexicographic order, and tests each result against the targets, all of
    one inf and sup.  Raises BudgetExceededError like the search.
    """
    inf0, sup0 = rep_a[0], rep_a[0] + len(rep_a[1])
    target = next(iter(targets))
    if (inf0, sup0) != (target[0], target[0] + len(target[1])):
        return False, 0
    if rep_a in targets:
        return True, 0
    ident, w0 = tuple(range(1, n + 1)), tuple(range(n, 0, -1))
    seen, queue, nodes = {rep_a}, [rep_a], 0
    while queue:
        if nodes >= budget:
            raise BudgetExceededError(nodes)
        x = queue.pop(0)
        nodes += 1
        p, f = x
        for s in itertools.permutations(ident):
            if s == ident:
                continue
            comp = garside._t_then(garside._t_inv(s), w0)
            y = garside._normalize(n, p - 1, [comp if p % 2 else garside._t_tau(comp), *f, s])
            if y[0] != inf0 or y[0] + len(y[1]) != sup0 or y in seen:
                continue
            if y in targets:
                return True, nodes
            seen.add(y)
            queue.append(y)
    return False, nodes


def coloured_keys(w: BraidWord) -> list[tuple[int, int]]:
    """The (length, colour sum) of every cycle of w's image in ℤ ≀ S_n, sorted."""
    groups = garside._coloured_cycles(*_word_colouring(w))
    return sorted(key for key, group in groups.items() for _ in group)


def canonical_cycles(groups) -> dict:
    """Coloured cycles up to the rotation of each cycle and the order within a key."""

    def rotated(cycle):
        start = cycle.index(min(cycle))
        return cycle[start:] + cycle[:start]

    return {key: sorted(map(rotated, group)) for key, group in groups.items()}


def reference_search(a: BraidWord, b: BraidWord, budget: int) -> tuple[bool, int]:
    """
    The reference for the verdict and node count of `garside.is_conjugate`:
    the library's coloured invariant, sliding representatives and circuit
    of b's representative, then `summit_search` aimed at that circuit.
    """
    n = a.strands
    if coloured_keys(a) != coloured_keys(b):
        return False, 0
    rep_a, _, _ = garside._reduce_to_summit(n, garside._raw_normal_form(a))
    _, _, circuit = garside._reduce_to_summit(n, garside._raw_normal_form(b))
    return summit_search(n, rep_a, circuit, budget)


def cycling_reference_search(a: BraidWord, b: BraidWord, budget: int) -> tuple[bool, int]:
    """
    The search before sliding, a reference for verdicts only: exponent sum
    and cycle type as the invariants, cycling and decycling
    representatives, and b's representative as the one target.
    """
    n = a.strands

    def cycle_type(w):
        return sorted(len(c) for c in underlying_permutation(w).cycles())

    if exponent_sum(a) != exponent_sum(b) or cycle_type(a) != cycle_type(b):
        return False, 0
    rep_a, _ = reference_reduce_to_summit(n, garside._raw_normal_form(a))
    rep_b, _ = reference_reduce_to_summit(n, garside._raw_normal_form(b))
    return summit_search(n, rep_a, {rep_b}, budget)


def conjugate_pairs() -> list[tuple[BraidWord, BraidWord]]:
    """Seeded pairs a, u·a·u^{-1} in B_3 to B_6."""
    rng = random.Random(89)
    pairs = []
    for _ in range(60):
        n = rng.randint(3, 6)
        a = random_word(rng, n, rng.randint(1, 10 - n))
        pairs.append((a, conjugate(random_word(rng, n, rng.randint(1, 5)), a)))
    return pairs


def invariant_sharing_pairs() -> list[tuple[BraidWord, BraidWord]]:
    """
    Seeded pairs in B_3 to B_5 that share exponent sum and permutation: a
    pure braid σ_i² σ_j^{-2} is inserted into a, then the word is conjugated.
    Most are told apart by their crossing colours or their summit inf and
    sup, a few only by the summit-set search.
    """
    rng = random.Random(90)
    pairs = []
    for _ in range(200):
        n = rng.randint(3, 5)
        a = random_word(rng, n, rng.randint(4, 8))
        i, j = rng.sample(range(1, n), 2)
        at = rng.randint(0, len(a))
        other = word(n, [*a.letters[:at], i, i, -j, -j, *a.letters[at:]])
        pairs.append((a, conjugate(random_word(rng, n, 3), other)))
    return pairs


def commutator_pairs() -> list[tuple[BraidWord, BraidWord]]:
    """
    Seeded pairs in B_3 to B_5 that share exponent sum, permutation and
    every strand's crossing count: the commutator σ_i²σ_{i+1}²σ_i^{-2}σ_{i+1}^{-2}
    of two pure braids is inserted into a at two places, and the second
    word is conjugated.  Some are conjugate; of the rest, most are told
    apart by their summit inf and sup, a few only by the summit-set search.
    """
    rng = random.Random(91)
    pairs = []
    for _ in range(60):
        n = rng.randint(3, 5)
        a = list(random_word(rng, n, rng.randint(3, 6)).letters)
        i = rng.randint(1, n - 2)
        commutator = [i, i, i + 1, i + 1, -i, -i, -i - 1, -i - 1]
        at, other = rng.randint(0, len(a)), rng.randint(0, len(a))
        pairs.append((
            word(n, a[:at] + commutator + a[at:]),
            conjugate(random_word(rng, n, 2), word(n, a[:other] + commutator + a[other:])),
        ))
    return pairs


def search_corpus() -> list[tuple[BraidWord, BraidWord]]:
    return conjugate_pairs() + invariant_sharing_pairs() + commutator_pairs()


def search_outcome(search, a, b, budget):
    try:
        return search(a, b, budget)
    except BudgetExceededError as err:
        return "budget", err.nodes


def test_search_matches_reference_search():
    seen = set()
    # a budget of 2 nodes, which the larger searches exhaust, and one of 50
    for (a, b), budget in itertools.product(search_corpus(), (2, 50)):
        want = search_outcome(reference_search, a, b, budget)
        res = search_outcome(is_conjugate, a, b, budget)
        if isinstance(res, garside.ConjugacyResult):
            assert res.witness is None or is_equal(conjugate(res.witness, a), b), (a, b)
            res = res.conjugate, res.nodes
        assert res == want, (a, b, budget)
        seen.add((want[0], want[1] > 0))
    # every kind of outcome occurs: conjugate and not, found by the search
    # or before it, and the budget exhausted
    assert seen >= {(True, True), (True, False), (False, True), (False, False), ("budget", True)}


def test_search_verdicts_match_cycling_reference():
    runs = list(itertools.product(search_corpus(), (2, 50)))
    decided = 0
    for (a, b), budget in runs:
        want = search_outcome(cycling_reference_search, a, b, budget)[0]
        got = search_outcome(is_conjugate, a, b, budget)
        got = got[0] if isinstance(got, tuple) else got.conjugate
        if "budget" not in (want, got):
            assert got == want, (a, b, budget)
            decided += 1
    # both sides decide on 593 of the 640 runs
    assert decided >= 0.9 * len(runs)


def test_search_normalize_calls(monkeypatch):
    # the seeded conjugate pairs: 11 208 _normalize calls when every node
    # normalizes all n! - 1 simple conjugates and tests each against the
    # target, with every cycling loop kept in the summit steps; 8 541 with
    # cycling and decycling when a node first tries only the conjugates whose
    # permutation can give the target; 615 with sliding representatives, the
    # whole circuit as the target and crossing colours on the permutations
    calls = []
    normalize = garside._normalize

    def counted(*args):
        calls.append(args[0])
        return normalize(*args)

    monkeypatch.setattr(garside, "_normalize", counted)
    for a, b in conjugate_pairs():
        assert is_conjugate(a, b).conjugate
    assert len(calls) <= 700


def inversions(p) -> int:
    return sum(x > y for x, y in itertools.combinations(p, 2))


def prefixes(s) -> set:
    """
    Every simple t that left-divides s, by breadth-first search up the weak
    order: t ≼ s iff len(t) + len(t^{-1}s) = len(s), len counting
    inversions, and [1, s] is closed under taking prefixes.
    """
    n = len(s)
    length = inversions(s)
    out = {tuple(range(1, n + 1))}
    queue = list(out)
    while queue:
        t = queue.pop()
        for i in range(1, n):
            # t·σ_i: the strands ending at positions i and i+1 swap
            u = tuple(i + 1 if v == i else i if v == i + 1 else v for v in t)
            if u in out or inversions(u) != inversions(t) + 1:
                continue
            if inversions(u) + inversions(garside._t_then(garside._t_inv(u), s)) == length:
                out.add(u)
                queue.append(u)
    return out


def brute_force_meet(a, b):
    return max(prefixes(a) & prefixes(b), key=inversions)


def test_slide_prefix_is_the_meet():
    # 𝔭(x) = ι(x) ∧ ∂φ(x), read off the pair (φ(x), ι(x)) left-weighted
    rng = random.Random(103)
    cases = []
    for n in (2, 3, 4):
        cases += itertools.product(itertools.permutations(range(1, n + 1)), repeat=2)
    for n in (5, 6, 7):
        cases += [tuple(tuple(rng.sample(range(1, n + 1), n)) for _ in "ab") for _ in range(25)]
    for last, first in cases:
        n = len(last)
        w0 = tuple(range(n, 0, -1))
        want = brute_force_meet(first, garside._t_then(garside._t_inv(last), w0))
        moved, _ = garside._renorm.__wrapped__(last, first)
        assert garside._t_then(garside._t_inv(last), moved) == want, (last, first)
        # the same prefix from x = Δ^p τ^p(ι) φ, at either parity of p
        for p in (0, 1):
            x = (p, (garside._t_tau(first) if p else first, last))
            assert garside._slide(n, x)[0] == want


def test_summit_steps_conjugate_onto_representative():
    rng = random.Random(101)
    dropped_loops = 0
    for _ in range(150):
        n = rng.randint(3, 6)
        w = random_word(rng, n, rng.randint(1, 12))
        raw = garside._raw_normal_form(w)
        rep, steps, circuit = garside._reduce_to_summit(n, raw)
        ref_rep, _ = reference_reduce_to_summit(n, raw)
        # the inf and sup of the super summit set
        assert (rep[0], len(rep[1])) == (ref_rep[0], len(ref_rep[1])), w
        g = nf_to_word(garside._wrap(n, garside._product(n, steps)))
        assert garside._raw_normal_form(concat(concat(invert_word(g), w), g)) == rep, w
        # slide until a state repeats, counting every slide, a trivial one
        # included: the loop closed by the repeat, one slide per circuit
        # state, is what the reduction drops
        slides, x, visited = 0, raw, set()
        while x[1] and x not in visited:
            visited.add(x)
            _, x = garside._slide(n, x)
            slides += 1
        assert len(steps) == (slides - len(circuit) if rep[1] else slides), w
        dropped_loops += len(circuit) > 1
        # sliding walks the circuit in order and comes back to rep
        walk, x = [rep], rep
        while rep[1]:
            _, x = garside._slide(n, x)
            if x == rep:
                break
            walk.append(x)
        assert walk == list(circuit), w
        for state, path in circuit.items():
            h = nf_to_word(garside._wrap(n, garside._product(n, path)))
            state_word = nf_to_word(garside._wrap(n, state))
            assert garside._raw_normal_form(concat(concat(invert_word(h), state_word), h)) == rep
    assert dropped_loops > 0


def test_colouring_is_the_image_in_the_wreath_product():
    rng = random.Random(107)
    for _ in range(200):
        n = rng.randint(2, 7)
        w = random_word(rng, n, rng.randint(0, 14))
        perm, colours = _word_colouring(w)
        # oracle: compose the letters' transpositions, and colour the two
        # strands that each letter crosses, read off the prefix before it
        # (start position -> position now)
        prefix = list(range(1, n + 1))
        expected = [0] * n
        for v in w:
            i = abs(v)
            for start, pos in enumerate(prefix):
                if pos in (i, i + 1):
                    expected[start] += 1 if v > 0 else -1
            swap = {i: i + 1, i + 1: i}
            prefix = [swap.get(pos, pos) for pos in prefix]
        assert perm == tuple(prefix)
        assert colours == expected
        assert sum(colours) == 2 * exponent_sum(w)
        # conjugation by a simple s relabels each cycle c as s(c)
        s = tuple(rng.sample(range(1, n + 1), n))
        s_word = word(n, garside._permutation_braid_word(s))
        moved = garside._coloured_cycles(*_word_colouring(conjugate(invert_word(s_word), w)))
        relabelled = garside._relabel(garside._coloured_cycles(perm, colours), s)
        assert canonical_cycles(relabelled) == canonical_cycles(moved), (w, s)
        u = random_word(rng, n, rng.randint(0, 6))
        assert coloured_keys(conjugate(u, w)) == coloured_keys(w)


def test_compatible_conjugators_match_brute_force():
    rng = random.Random(97)
    table_hits = 0
    for n in range(2, 7):
        ident = tuple(range(1, n + 1))
        words = [word(n, [1] * m) for m in (1, 2, 3, 4)]  # σ_1^m, pure for even m
        words += [word(n, [1, 1, -(n - 1), -(n - 1)]), identity_word(n)]
        words += [random_word(rng, n, rng.randint(1, 8)) for _ in range(6)]
        for w in words:
            x = garside._raw_normal_form(w)
            px, colours = _word_colouring(w)
            x_cycles = garside._coloured_cycles(px, colours)
            for k in range(4):
                u = ident if k == 0 else tuple(rng.sample(ident, n))
                target = garside._conjugate_raw(n, x, u) if k else x
                u_word = word(n, garside._permutation_braid_word(u))
                t_perm, t_colours = _word_colouring(conjugate(invert_word(u_word), w))
                t_cycles = garside._coloured_cycles(t_perm, t_colours)
                coset = garside._matchings(x_cycles, t_cycles)
                count = math.prod(
                    length ** len(group) * math.factorial(len(group))
                    for (length, _), group in t_cycles.items()
                )
                assert len(coset) == len(set(coset)) == count
                hits = {
                    s for s in itertools.permutations(ident)
                    if garside._conjugate_raw(n, x, s) == target
                }
                assert hits <= set(coset), (w, u)
                table_hits += len(hits)
                # the coset is every s that carries each cycle onto one of
                # the same length and colour sum
                want = {
                    s for s in itertools.permutations(ident)
                    if garside._t_then(garside._t_then(garside._t_inv(s), px), s) == t_perm
                    and all(
                        sum(colours[v - 1] for v in c) == sum(t_colours[s[v - 1] - 1] for v in c)
                        for c in Permutation(px).cycles()
                    )
                }
                assert set(coset) == want, (w, u)
    assert table_hits > 0


def test_search_strand_limit():
    limit = garside.MAX_SEARCH_STRANDS
    with pytest.raises(ValueError, match="summit sets are searched on at most"):
        is_conjugate(word(limit + 1, [1]), word(limit + 1, [2]))
    # a search that ends before its first node runs at any n
    n = 12
    res = is_conjugate(word(n, [2, 4, -7]), word(n, [4, 3, -3, 2, -7]))
    assert res.conjugate and res.nodes == 0
    assert not is_conjugate(word(n, [1]), word(n, [1, 1])).conjugate


# --- property tests ---

PROPERTY = settings(derandomize=True, database=None, deadline=None)


def signed_letters(n: int, max_size: int):
    return st.lists(st.integers(1 - n, n - 1).filter(bool), max_size=max_size)


@st.composite
def word_pairs(draw, max_n: int, max_len: int):
    n = draw(st.integers(2, max_n))
    return word(n, draw(signed_letters(n, max_len))), word(n, draw(signed_letters(n, max_len)))


@settings(PROPERTY, max_examples=300)
@given(word_pairs(max_n=6, max_len=14))
def test_property_nf_ops_match_word_ops(pair):
    a, b = pair
    assert nf_mul(normal_form(a), normal_form(b)) == normal_form(concat(a, b))
    assert nf_inv(normal_form(a)) == normal_form(invert_word(a))


@settings(PROPERTY, max_examples=200)
@given(word_pairs(max_n=4, max_len=7))
def test_property_conjugacy_witness_verifies(pair):
    a, u = pair
    b = conjugate(u, a)
    res = is_conjugate(a, b)
    assert res.conjugate
    assert is_equal(conjugate(res.witness, a), b)


@settings(PROPERTY, max_examples=100)
@given(
    st.integers(2, 4).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.sampled_from(["delta", "gamma"]),
            st.integers(1, 3),
            st.sampled_from([-2, -1, 1, 2]),
            signed_letters(n, 5),
        )
    )
)
def test_property_periodic_root_conjugator(case):
    n, kind, d, j, u = case
    base = delta_root_word(n) if kind == "delta" else gamma_root_word(n)
    w = conjugate(word(n, u), power(base, d * j))
    root = periodic_root(w, d)
    assert root is not None
    assert is_equal(conjugate(root.conjugator, power(root.to_word(), d)), w)


@settings(PROPERTY, max_examples=200)
@given(signed_letters(3, 12), st.randoms(use_true_random=False), st.booleans())
def test_property_is_equal_matches_burau_b3(letters, rng, differ):
    # reduced Burau is faithful on B_3: an oracle apart from normal forms.
    # The rewrite moves of the check suite keep the element; inserting the
    # nontrivial pure braid σ1²σ2⁻² changes it.
    other = list(letters)
    for _ in range(rng.randint(1, 20)):
        other = _apply_random_rewrite(rng, other, 3)
    if differ:
        at = rng.randint(0, len(other))
        other[at:at] = [1, 1, -2, -2]
    a, b = word(3, letters), word(3, other)
    assert is_equal(a, b) == (burau_reduced(a) == burau_reduced(b)) == (not differ)


def test_qp_root_periodic_runs_one_conjugacy_search(monkeypatch):
    calls = []
    search = garside.is_conjugate

    def counted(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(garside, "is_conjugate", counted)
    # quasipositive imports no is_conjugate of its own; should it again, its
    # calls are counted too
    monkeypatch.setattr(quasipositive, "is_conjugate", counted, raising=False)
    dd = power(delta_root_word(4), 2)
    b = conjugate(word(4, [2, -3, 1]), dd)
    assert not is_equal(b, dd)
    cert = quasipositive.qp_root_periodic(b, 2)
    assert cert is not None
    assert is_equal(power(quasipositive.expand(cert), 2), b)
    assert len(calls) == 1
