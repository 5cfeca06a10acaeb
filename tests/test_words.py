"""Tests for braid words, the text grammar, and elementary algebra."""

import random

import pytest

from braidforge.words import (
    MAX_STRANDS,
    MAX_WORD_LETTERS,
    BraidWord,
    Permutation,
    WordSyntaxError,
    concat,
    exponent_sum,
    format_word,
    free_reduce,
    identity_word,
    invert_word,
    parse_word,
    power,
    underlying_permutation,
    word,
)


def random_word(rng, n, length):
    return word(n, (rng.choice([-1, 1]) * rng.randint(1, n - 1) for _ in range(length)))


def identity_perm(n):
    return Permutation(tuple(range(1, n + 1)))


def transposition(n, i):
    """The adjacent transposition (i, i+1) in S_n."""
    images = list(range(1, n + 1))
    images[i - 1], images[i] = images[i], images[i - 1]
    return Permutation(tuple(images))


def then(p, q):
    """The product p·q: apply p first, then q."""
    return Permutation(tuple(q.images[v - 1] for v in p.images))


# --- parsing / formatting ---


def test_parse_empty_is_identity():
    assert parse_word("", 3) == identity_word(3)


def test_parse_paper_intro_word():
    w = parse_word("(1 2)^6 1^-13", 3)
    assert len(w) == 25
    assert w.signed_ints() == tuple([1, 2] * 6 + [-1] * 13)


def test_parse_band_pair_word():
    w = parse_word("2 3 -2 1 2 -1", 4)
    assert len(w) == 6
    assert w.signed_ints() == (2, 3, -2, 1, 2, -1)


def test_parse_negative_group_power():
    assert parse_word("(1 2)^-2", 3).signed_ints() == (-2, -1, -2, -1)


def test_parse_nested_groups():
    assert parse_word("((1)^2 2)^2", 3).signed_ints() == (1, 1, 2, 1, 1, 2)
    # nesting depth is not limited by the Python stack
    depth = 5000
    assert parse_word("(" * depth + "1" + ")" * depth, 3) == word(3, [1])
    with pytest.raises(WordSyntaxError, match="unclosed"):
        parse_word("(" * depth + "1", 3)


def test_parse_letter_cap():
    cap = MAX_WORD_LETTERS
    assert len(parse_word(f"1^{cap}", 2)) == cap
    assert len(parse_word(f"(1 -1)^{cap // 2 - 1} 1^-2", 2)) == cap
    for text in [
        f"1^{cap + 1}",
        f"1^-{cap} 1",
        f"(1 -1)^{cap // 2} 1",
        f"((1 -1)^{cap // 4} 1)^2",
        f"1^{cap} (1)^0",  # the cap counts letters held before a power applies
        "((1^1000 2)^1000)^3",
    ]:
        with pytest.raises(WordSyntaxError, match="more than"):
            parse_word(text, 3)


def test_strand_cap():
    assert MAX_STRANDS >= 600  # a 300 x 300 cable crossing
    assert BraidWord(MAX_STRANDS).strands == MAX_STRANDS
    assert parse_word(f"{MAX_STRANDS - 1}", MAX_STRANDS).strands == MAX_STRANDS
    for n in [MAX_STRANDS + 1, 2_000_000, 0, -3]:
        with pytest.raises(ValueError, match="strand count"):
            BraidWord(n)
        with pytest.raises(ValueError, match="strand count"):
            identity_word(n)
    with pytest.raises(ValueError, match="strand count"):
        parse_word("1", 2_000_000)


def test_parse_errors_carry_position():
    with pytest.raises(WordSyntaxError):
        parse_word("1 )", 3)
    with pytest.raises(WordSyntaxError):
        parse_word("(1 2", 3)
    with pytest.raises(WordSyntaxError):
        parse_word("^2", 3)
    with pytest.raises(WordSyntaxError):
        parse_word("1 0 2", 3)
    with pytest.raises(WordSyntaxError):
        parse_word("1 x", 3)
    with pytest.raises(ValueError):
        parse_word("3", 3)  # index out of range in B_3


def test_format_identity_and_letters():
    assert format_word(identity_word(5)) == ""
    assert format_word(word(3, [1, -2])) == "1 -2"


def test_parse_format_round_trip():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(2, 6)
        w = random_word(rng, n, rng.randint(0, 30))
        assert parse_word(format_word(w), n) == w
    # and format∘parse is idempotent on non-canonical text
    text = "(1 2)^6 1^-13"
    w = parse_word(text, 3)
    assert parse_word(format_word(w), 3) == w


# --- elementary operations ---


def test_concat_identity_and_no_reduction():
    w = word(3, [1, -2])
    assert concat(identity_word(3), w) == w
    assert concat(word(2, [1]), word(2, [-1])).signed_ints() == (1, -1)


def test_concat_strand_mismatch():
    with pytest.raises(ValueError):
        concat(word(2, [1]), word(3, [1]))


def test_invert_word():
    assert invert_word(word(3, [1, 2])).signed_ints() == (-2, -1)
    assert invert_word(identity_word(3)) == identity_word(3)
    rng = random.Random(11)
    for _ in range(100):
        w = random_word(rng, 4, rng.randint(0, 20))
        assert invert_word(invert_word(w)) == w
        assert free_reduce(concat(w, invert_word(w))) == identity_word(4)


def test_free_reduce():
    assert free_reduce(word(2, [1, -1])) == identity_word(2)
    assert free_reduce(word(3, [1, 2, -2, -1])) == identity_word(3)
    assert free_reduce(word(3, [1, 2, 1])) == word(3, [1, 2, 1])


def test_exponent_sum():
    assert exponent_sum(identity_word(4)) == 0
    assert exponent_sum(parse_word("(1 2)^6 1^-13", 3)) == -1


def test_underlying_permutation_examples():
    assert underlying_permutation(identity_word(3)) == identity_perm(3)
    assert underlying_permutation(word(2, [1])) == Permutation((2, 1))
    # brute-force composition of transpositions for (σ1σ2)^3
    assert underlying_permutation(power(word(3, [1, 2]), 3)) == identity_perm(3)


def test_underlying_permutation_oracle():
    # independent oracle: compose transposition images one letter at a time
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(2, 6)
        w = random_word(rng, n, rng.randint(0, 15))
        p = identity_perm(n)
        for v in w:
            p = then(p, transposition(n, abs(v)))
        assert underlying_permutation(w) == p


def test_homomorphism_properties():
    rng = random.Random(5)
    for _ in range(1000):
        n = rng.randint(2, 6)
        a = random_word(rng, n, rng.randint(0, 12))
        b = random_word(rng, n, rng.randint(0, 12))
        ab = concat(a, b)
        assert exponent_sum(ab) == exponent_sum(a) + exponent_sum(b)
        assert underlying_permutation(ab) == then(
            underlying_permutation(a), underlying_permutation(b)
        )


def test_free_reduce_preserves_invariants():
    rng = random.Random(13)
    for _ in range(300):
        n = rng.randint(2, 5)
        w = random_word(rng, n, rng.randint(0, 20))
        r = free_reduce(w)
        assert exponent_sum(r) == exponent_sum(w)
        assert underlying_permutation(r) == underlying_permutation(w)


def test_power():
    w = word(3, [1, 2])
    assert power(w, 0) == identity_word(3)
    assert power(w, 1) == w
    assert power(w, -2) == word(3, [-2, -1, -2, -1])


def test_letter_validation():
    with pytest.raises(ValueError):
        word(3, [3])
    # letters are nonzero ints in range; a bool or a float is not an int
    for bad in [
        lambda: word(3, [0]),
        lambda: BraidWord(3, (0,)),
        lambda: BraidWord(3, (3,)),
        lambda: word(3, [1.5]),
        lambda: word(3, [True]),
        # so is a strand count
        lambda: BraidWord(2.0, (1,)),
        lambda: BraidWord(True, ()),
    ]:
        with pytest.raises(ValueError):
            bad()
    assert word(3, [2, -1]).letters == (2, -1)


def test_permutation_cycles():
    p = Permutation((2, 3, 1, 4))
    assert p.cycles() == [(1, 2, 3), (4,)]
    assert Permutation((4, 3, 2, 1)).cycles() == [(1, 4), (2, 3)]
