"""Tests for braid words, the text grammar, and elementary algebra."""

import random

import pytest

from braidforge.words import (
    MAX_WORD_LETTERS,
    ArtinLetter,
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
    assert underlying_permutation(identity_word(3)).is_identity()
    assert underlying_permutation(word(2, [1])) == Permutation((2, 1))
    # brute-force composition of transpositions for (σ1σ2)^3
    assert underlying_permutation(power(word(3, [1, 2]), 3)).is_identity()


def test_underlying_permutation_oracle():
    # independent oracle: compose transposition images one letter at a time
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(2, 6)
        w = random_word(rng, n, rng.randint(0, 15))
        p = Permutation.identity(n)
        for letter in w:
            p = p.then(Permutation.transposition(n, letter.index))
        assert underlying_permutation(w) == p


def test_homomorphism_properties():
    rng = random.Random(5)
    for _ in range(1000):
        n = rng.randint(2, 6)
        a = random_word(rng, n, rng.randint(0, 12))
        b = random_word(rng, n, rng.randint(0, 12))
        ab = concat(a, b)
        assert exponent_sum(ab) == exponent_sum(a) + exponent_sum(b)
        assert underlying_permutation(ab) == underlying_permutation(a).then(
            underlying_permutation(b)
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
    with pytest.raises(ValueError):
        ArtinLetter(1, 2)
    with pytest.raises(ValueError):
        ArtinLetter.from_int(0)


def test_permutation_cycles():
    p = Permutation((2, 3, 1, 4))
    assert p.cycles() == [(1, 2, 3), (4,)]
    assert Permutation.reversal(4).images == (4, 3, 2, 1)
