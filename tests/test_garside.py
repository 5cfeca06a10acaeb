"""
Tests for normal forms and decision procedures.

The independent oracles used here:
  * positive-word equality by breadth-first search over positive relation
    moves (braid relation + far commutation), complete on the positive monoid
    since it embeds in B_n with relations preserving length;
  * reduced Burau at a formal variable, faithful for n <= 3, as an equality
    cross-check;
  * rewrite invariance: random relation moves and free insertions preserve the
    element by construction, so the normal form must not change;
  * hypothesis property tests (derandomized, so every run draws the same
    examples): group operations against word operations, and conjugacy and
    root witnesses against is_equal.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidforge import garside, quasipositive
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
    nf_from_json,
    nf_inv,
    nf_mul,
    nf_to_json,
    nf_to_word,
    normal_form,
    periodic_root,
)
from braidforge.words import (
    BraidWord,
    Permutation,
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

    for letter in w:
        mat = mul_gen(mat, letter.index, letter.sign < 0)
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
        assert all(l.sign == 1 for l in d)
        assert underlying_permutation(d) == Permutation.reversal(n)


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


def test_nf_group_ops_match_word_ops():
    rng = random.Random(37)
    for _ in range(200):
        n = rng.randint(2, 5)
        a = random_word(rng, n, rng.randint(0, 12))
        b = random_word(rng, n, rng.randint(0, 12))
        assert nf_mul(normal_form(a), normal_form(b)) == normal_form(concat(a, b))
        assert nf_inv(normal_form(a)) == normal_form(invert_word(a))


def test_nf_json_round_trip():
    nf = normal_form(parse_word("1 2 -1 2", 4))
    data = nf_to_json(nf)
    assert set(data) == {"n", "delta", "factors"}
    assert nf_from_json(data) == nf


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
        if all(l.sign == 1 for l in w):
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


def test_qp_root_periodic_runs_one_conjugacy_search(monkeypatch):
    calls = []
    search = garside.is_conjugate

    def counted(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(garside, "is_conjugate", counted)
    monkeypatch.setattr(quasipositive, "is_conjugate", counted)
    dd = power(delta_root_word(4), 2)
    b = conjugate(word(4, [2, -3, 1]), dd)
    assert not is_equal(b, dd)
    cert = quasipositive.qp_root_periodic(b, 2)
    assert cert is not None
    assert is_equal(power(quasipositive.expand(cert), 2), b)
    assert len(calls) == 1
