"""
Tests for cover invariants, lifts, the homology representation, and the
Burau cross-oracle.  Rank computations and characteristic polynomials use
sympy as an independent exact oracle, and dense products use numpy object
arrays: the library's matrices (lists of integer rows) are converted where
they enter a test.
"""

import copy
import random
from operator import add, sub

import numpy as np
import pytest
import sympy

from braidforge import cover
from braidforge.cover import (
    CoverData,
    TwistWord,
    burau_reduced,
    check_identity,
    cover_data,
    format_twist_word,
    lift_word,
    matrix_to_json,
    parse_twist_word,
    symmetry_check,
)
from braidforge.words import concat, exponent_sum, invert_word, parse_word, power, word


def dense(f):
    """f with its matrix converted to a numpy object array."""
    return lambda *args: np.array(f(*args), dtype=object)


base_change = dense(cover.base_change)
burau_at_companion = dense(cover.burau_at_companion)
deck_matrix = dense(cover.deck_matrix)
homology_rep = dense(cover.homology_rep)
intersection_form = dense(cover.intersection_form)


def random_word(rng, n, length):
    return word(n, (rng.choice([-1, 1]) * rng.randint(1, n - 1) for _ in range(length)))


def twist(i, l, k, sign=1):
    """The letter of t_{i,l} (sign +1) or its inverse (sign -1) on a k-fold
    cover: the signed index of basis curve e_{i,l}."""
    return sign * ((i - 1) * (k - 1) + l)


def twist_inverse(w):
    """The formal inverse of a twist word: letters reversed, signs flipped."""
    return TwistWord(w.n, w.k, tuple(-v for v in reversed(w.letters)))


def twist_product(a, b):
    assert (a.n, a.k) == (b.n, b.k)
    return TwistWord(a.n, a.k, a.letters + b.letters)


def to_sympy(mat):
    return sympy.Matrix([[int(v) for v in row] for row in mat])


T = sympy.Symbol("t")


def entry(burau, r, c):
    """Entry (r, c) of a reduced Burau matrix as exponent -> nonzero coefficient."""
    return {e: m[r][c] for e, m in burau.items() if m[r][c]}


def burau_sympy(w):
    """The reduced Burau matrix as a sympy matrix of Laurent polynomials in t."""
    m = burau_reduced(w)
    size = w.strands - 1
    return sympy.Matrix(size, size, lambda r, c: sum(v * T**e for e, v in entry(m, r, c).items()))


# --- cover data ---


def test_cover_data_examples():
    assert cover_data(3, 2) == CoverData(3, 2, -1, 1, 1, 2)
    assert cover_data(2, 2) == CoverData(2, 2, 0, 2, 0, 1)
    assert cover_data(5, 4) == CoverData(5, 4, -11, 1, 6, 12)
    with pytest.raises(ValueError):
        cover_data(1, 2)


def test_cover_data_consistency():
    for n in range(2, 8):
        for k in range(2, 8):
            data = cover_data(n, k)
            assert data.euler_char == n + k - n * k
            assert data.h1_rank == (n - 1) * (k - 1) == 1 - data.euler_char
            assert data.euler_char == 2 - 2 * data.genus - data.boundary_components


# --- twist words and lifts ---


def test_lift_word_examples():
    lift = lift_word(word(3, [1]), 3)
    assert lift.letters == (twist(1, 1, 3), twist(1, 2, 3)) == (1, 2)
    lift_inv = lift_word(word(3, [-1]), 3)
    assert lift_inv.letters == (twist(1, 2, 3, -1), twist(1, 1, 3, -1)) == (-2, -1)
    assert lift_word(word(4, [3, -2]), 3).letters == (5, 6, -4, -3)
    assert lift_word(word(3, []), 4).letters == ()


def test_lift_word_homomorphic():
    rng = random.Random(3)
    for _ in range(50):
        n, k = rng.randint(2, 5), rng.randint(2, 4)
        a = random_word(rng, n, rng.randint(0, 8))
        b = random_word(rng, n, rng.randint(0, 8))
        assert lift_word(concat(a, b), k) == twist_product(lift_word(a, k), lift_word(b, k))
        assert lift_word(invert_word(a), k) == twist_inverse(lift_word(a, k))


def test_twist_word_grammar():
    w = parse_twist_word("t[1,2] t[2,1]^-1", 3, 3)
    assert w.letters == (twist(1, 2, 3), twist(2, 1, 3, -1)) == (2, -3)
    assert format_twist_word(w) == "t[1,2] t[2,1]^-1"
    with pytest.raises(ValueError):
        parse_twist_word("t[3,1]", 3, 3)
    with pytest.raises(ValueError):
        parse_twist_word("x[1,1]", 3, 3)
    # t[1,3] would be the index of t[2,1] at (3, 3), and t[0,1] of nothing
    for text in ("t[1,3]", "t[0,1]", "t[1,0]^-1"):
        with pytest.raises(ValueError, match="out of range"):
            parse_twist_word(text, 3, 3)


def test_twist_text_round_trip():
    # every letter of the cover and its inverse, in basis order: t_{i,l} is
    # the signed index (i-1)(k-1) + l
    for n, k in [(2, 2), (3, 3), (4, 5), (5, 2), (7, 11), (11, 7)]:
        d = (n - 1) * (k - 1)
        tokens = [
            f"t[{i},{l}]" + suffix
            for i in range(1, n)
            for l in range(1, k)
            for suffix in ("", "^-1")
        ]
        w = parse_twist_word(" ".join(tokens), n, k)
        assert w.letters == tuple(v for e in range(1, d + 1) for v in (e, -e))
        assert format_twist_word(w).split() == tokens
        assert parse_twist_word(format_twist_word(w), n, k) == w


def test_twist_letters_are_checked():
    assert TwistWord(3, 4, (6, -6, 1, -1)).letters == (6, -6, 1, -1)
    for bad in (0, 7, -7, True, False, 1.0, -2.0, "1"):
        with pytest.raises(ValueError, match="twist letter"):
            TwistWord(3, 4, (1, bad))
    for n, k in [(1, 3), (3, 1), (0, 0)]:
        with pytest.raises(ValueError, match="cover needs"):
            TwistWord(n, k)


def test_cover_size_must_be_an_int():
    # as for a BraidWord's strand count: a float, bool or string is refused
    # with ValueError before it reaches range or gcd
    bad = [2.5, 3.0, True, "3", None]
    for v in bad:
        for n, k in [(v, 3), (3, v)]:
            for build in (cover_data, TwistWord, cover._h1_rank, cover.deck_matrix,
                          cover.intersection_form, cover.base_change):
                with pytest.raises(ValueError, match="cover needs int n and k"):
                    build(n, k)
        with pytest.raises(ValueError, match="cover needs int n and k"):
            lift_word(word(3, [1]), v)
        with pytest.raises(ValueError, match="cover needs int n and k"):
            cover.burau_at_companion(word(3, [1]), v)


# --- intersection form, deck, homology ---


def test_intersection_form_examples():
    assert intersection_form(2, 2).shape == (1, 1)
    assert int(intersection_form(2, 2)[0, 0]) == 0
    for n, k in [(2, 3), (3, 2), (3, 3), (4, 3), (5, 4)]:
        J = intersection_form(n, k)
        assert np.array_equal(J.T, -J)
        # adjacency support: same-row and cross-row neighbours pair to ±1,
        # distant pairs to zero
        for i in range(1, n):
            for l in range(1, k):
                e = (i - 1) * (k - 1) + (l - 1)
                if l + 1 <= k - 1:
                    assert abs(int(J[e, e + (1)])) == 1
                if i + 1 <= n - 1:
                    assert abs(int(J[e, e + (k - 1)])) == 1
        data = cover_data(n, k)
        assert to_sympy(J).rank() == 2 * data.genus
        assert data.h1_rank - 2 * data.genus == data.boundary_components - 1


def test_deck_matrix_examples():
    assert np.array_equal(deck_matrix(2, 2), np.array([[-1]], dtype=object))
    assert np.array_equal(
        deck_matrix(2, 3), np.array([[0, -1], [1, -1]], dtype=object)
    )
    for n in range(2, 7):
        for k in range(2, 7):
            D = deck_matrix(n, k)
            P = np.array([[int(v) for v in row] for row in D])
            M = np.eye((n - 1) * (k - 1), dtype=int)
            for j in range(1, k + 1):
                M = M @ P
                if j < k:
                    assert not np.array_equal(M, np.eye((n - 1) * (k - 1), dtype=int))
            assert np.array_equal(M, np.eye((n - 1) * (k - 1), dtype=int))
            J = intersection_form(n, k)
            assert np.array_equal(D.T @ J @ D, J)


def basis_vector(i, l, n, k):
    """The H_1 class of the curve through disks i, i+1 and bands l, l+1 for
    l <= k-1; for l = k the relation class -(e_{i,1} + ... + e_{i,k-1})."""
    vec = np.zeros((n - 1) * (k - 1), dtype=object)
    if l <= k - 1:
        vec[(i - 1) * (k - 1) + (l - 1)] = 1
    else:
        vec[(i - 1) * (k - 1) : i * (k - 1)] = -1
    return vec


def test_twist_class():
    # the k curves of one row form a single deck orbit, e_{i,l} -> e_{i,l+1}
    # with the k-th curve the relation class, so the orbit sums to zero
    for n, k in [(3, 3), (2, 5), (4, 4)]:
        D = deck_matrix(n, k)
        for i in range(1, n):
            orbit = [basis_vector(i, l, n, k) for l in range(1, k + 1)]
            for l in range(k):
                assert np.array_equal(D @ orbit[l], orbit[(l + 1) % k])
            assert not any(sum(orbit))


def test_transvection_properties():
    # each letter acts by a transvection: it preserves J, M - I squares to
    # zero and has rank <= 1, and the opposite-sign letter inverts it
    for n, k in [(2, 2), (3, 2), (3, 3), (4, 3), (3, 5)]:
        J = intersection_form(n, k)
        I = np.eye((n - 1) * (k - 1), dtype=object)
        for i in range(1, n):
            for l in range(1, k):
                M = homology_rep(TwistWord(n, k, (twist(i, l, k),)))
                M_inv = homology_rep(TwistWord(n, k, (twist(i, l, k, -1),)))
                diff = M - I
                assert np.array_equal(M.T @ J @ M, J)
                assert not np.any(diff @ diff)
                assert to_sympy(diff).rank() <= 1
                assert np.array_equal(M @ M_inv, I)
    # the only curve at (2, 2) pairs with nothing, so its twist acts trivially
    assert np.array_equal(homology_rep(TwistWord(2, 2, (1,))), np.eye(1, dtype=object))


def test_homology_rep_matches_dense_transvections():
    # oracle: the dense product of I + s·c·(Jc)^T over the letters
    rng = random.Random(31)
    for n, k in [(2, 3), (3, 3), (4, 5), (5, 4), (7, 11), (11, 7)]:
        J = intersection_form(n, k)
        d = (n - 1) * (k - 1)
        for _ in range(4):
            letters = [
                (rng.randint(1, n - 1), rng.randint(1, k - 1), rng.choice([1, -1]))
                for _ in range(rng.randint(0, 20))
            ]
            w = TwistWord(n, k, tuple(twist(i, l, k, sign) for i, l, sign in letters))
            expected = np.eye(d, dtype=object)
            for i, l, sign in letters:
                c = basis_vector(i, l, n, k)
                expected = expected @ (np.eye(d, dtype=object) + sign * np.outer(c, J @ c))
            assert np.array_equal(homology_rep(w), expected)


def reference_homology_rep(w):
    """
    The integer H_1 matrix of a twist word: the product of the letters'
    transvections in word order (matrices act on column vectors; the map is a
    homomorphism into matrices multiplied left-to-right).  The twist about
    basis curve e right-multiplies by I ± e·(Je)^T, which adds ±J[j, e] times
    column e to each of the at most six columns j with J[j, e] != 0; column e
    itself never changes, since J[e, e] = 0.  The columns are kept as lists
    and transposed once at the end.
    """
    cols = cover._identity(cover._h1_rank(w.n, w.k))
    rows = cover._pairing_rows(w.n, w.k)
    for v in w.letters:
        col = cols[abs(v) - 1]
        for j, p in rows[abs(v) - 1]:
            # J[j, e] = -J[e, j] = -p
            cols[j] = list(map(sub if v * p > 0 else add, cols[j], col))
    return cover._transpose(cols)


def covers_up_to(top):
    """Every (n, k) with H_1 rank (n-1)(k-1) at most top."""
    return [(n, k) for n in range(2, top + 2) for k in range(2, top // (n - 1) + 2)]


def random_twist_word(rng, n, k, length):
    d = (n - 1) * (k - 1)
    return TwistWord(n, k, tuple(rng.choice([-1, 1]) * rng.randint(1, d) for _ in range(length)))


def test_homology_rep_matches_reference_kernel():
    # the packed kernel against the column-list loop it replaced, on
    # arbitrary twist words (inverse letters included) and lifts
    rng = random.Random(43)
    for n, k in covers_up_to(60):
        for _ in range(2):
            w = random_twist_word(rng, n, k, rng.randint(0, 40))
            assert cover.homology_rep(w) == reference_homology_rep(w), (n, k, w.letters)
        w = lift_word(random_word(rng, n, rng.randint(0, 20)), k)
        assert cover.homology_rep(w) == reference_homology_rep(w), (n, k)
    # long lifts, whose entries outgrow 64- and 128-bit fields: an entry
    # above 2^126 does not fit before the fields have widened twice
    largest = 0
    for n, k, length in [(3, 4, 2000), (4, 5, 1000), (6, 7, 300), (13, 6, 100)]:
        w = lift_word(random_word(rng, n, length), k)
        H = cover.homology_rep(w)
        assert H == reference_homology_rep(w), (n, k, length)
        largest = max(largest, max(abs(x) for row in H for x in row))
    assert largest > 2**126
    # H_1 rank 1000
    w = lift_word(random_word(rng, 21, 3), 51)
    assert cover.homology_rep(w) == reference_homology_rep(w)


def test_packed_columns_round_trip_and_refuse_overflow():
    rng = random.Random(47)
    for width in (64, 128, 256):
        d = 5
        bias = cover._field_bias(d, width)
        top = 2 ** (width - 2)
        entries = [rng.randint(-top, top - 1) for _ in range(d)]
        col = cover._pack(entries, width, bias)
        assert col == sum(x << (r * width) for r, x in enumerate(entries))
        assert cover._unpack(col, d, width, bias) == entries
        # a field holding 2^(width-2) or more, or below -2^(width-2), and a
        # column past its top field are refused with an explicit raise
        for bad in (top << width, (-top - 1) << width, top, -top - 1, 1 << (d * width), -(1 << (d * width))):
            with pytest.raises(AssertionError, match="internal error"):
                cover._unpack(bad, d, width, bias)


def test_cancelling_words_do_not_widen(monkeypatch):
    # braid-relation loops act trivially, but the bounds b_j += b_e grow
    # exponentially along them; the bounds are tightened to the entries, so
    # 64-bit fields suffice even at H_1 rank 1000
    monkeypatch.setattr(cover, "MAX_H1_BITS", 1000 * 1000 * 64)
    e, f = 1, 2  # t_{1,1} and t_{1,2} meet once
    w = TwistWord(21, 51, (e, f, e, -f, -e, -f) * 300)
    assert cover.homology_rep(w) == cover._identity(1000)


def test_packed_width_cap(monkeypatch):
    # entries that outgrow the packed size allowed are refused, not widened
    rng = random.Random(53)
    w = lift_word(random_word(rng, 4, 400), 5)
    assert max(abs(x) for row in cover.homology_rep(w) for x in row) > 2**62
    monkeypatch.setattr(cover, "MAX_H1_BITS", 12 * 12 * 64)
    with pytest.raises(ValueError, match="need 128-bit fields, more than 9216 bits"):
        cover.homology_rep(w)


def test_homology_rep_basics():
    assert np.array_equal(
        homology_rep(TwistWord(3, 2)), np.eye(2, dtype=object)
    )
    # lift of σ1 at (2,2): rank-one form is zero, so the twist acts trivially
    assert np.array_equal(
        homology_rep(lift_word(word(2, [1]), 2)), np.eye(1, dtype=object)
    )


def test_homology_rep_chain_relations():
    H = homology_rep(lift_word(parse_word("(1 2)^6", 3), 2))
    assert np.array_equal(H, np.eye(2, dtype=object))
    H = homology_rep(lift_word(parse_word("(1 2 3)^4", 4), 2))
    assert np.array_equal(H, np.eye(3, dtype=object))


def test_homology_rep_braid_relations():
    for n in range(2, 6):
        for k in range(2, 5):
            for i in range(1, n - 1):
                a = lift_word(word(n, [i, i + 1, i]), k)
                b = lift_word(word(n, [i + 1, i, i + 1]), k)
                assert check_identity(a, b)
            for i in range(1, n - 1):
                for j in range(i + 2, n):
                    a = lift_word(word(n, [i, j]), k)
                    b = lift_word(word(n, [j, i]), k)
                    assert check_identity(a, b)


def test_homology_rep_is_invertible_homomorphism():
    rng = random.Random(11)
    for _ in range(30):
        n, k = rng.randint(2, 4), rng.randint(2, 4)
        a = random_word(rng, n, rng.randint(0, 8))
        b = random_word(rng, n, rng.randint(0, 8))
        Ha = homology_rep(lift_word(a, k))
        Hb = homology_rep(lift_word(b, k))
        assert np.array_equal(
            homology_rep(lift_word(concat(a, b), k)), Ha @ Hb
        )
        Hinv = homology_rep(lift_word(invert_word(a), k))
        assert np.array_equal(Ha @ Hinv, np.eye((n - 1) * (k - 1), dtype=object))
        assert abs(to_sympy(Ha).det()) == 1


def test_symmetry_check():
    rng = random.Random(13)
    for _ in range(100):
        n, k = rng.randint(2, 5), rng.randint(2, 4)
        b = random_word(rng, n, rng.randint(0, 15))
        assert symmetry_check(lift_word(b, k))
    # a single twist is not symmetric once the deck action is nontrivial
    assert not symmetry_check(TwistWord(3, 3, (twist(1, 1, 3),)))
    assert symmetry_check(TwistWord(3, 3))


def test_symmetry_check_matches_products():
    # oracle: H·D == D·H with both products formed, on lifts, which commute
    # with the deck action, and on random twist words, most of which do not
    rng = random.Random(59)
    seen = set()
    for n, k in covers_up_to(60):
        D = cover.deck_matrix(n, k)
        words = [lift_word(random_word(rng, n, rng.randint(0, 12)), k)]
        words += [random_twist_word(rng, n, k, rng.randint(1, 8)) for _ in range(2)]
        for w in words:
            H = cover.homology_rep(w)
            expected = cover._mul(H, D) == cover._mul(D, H)
            assert symmetry_check(w) == expected, (n, k, w.letters)
            seen.add(expected)
        assert symmetry_check(words[0])
    assert seen == {True, False}


def test_check_identity_distinguishes():
    assert not check_identity(
        lift_word(word(3, [1]), 2), lift_word(word(3, [2]), 2)
    )


# --- Burau ---


def test_burau_b2():
    assert burau_reduced(word(2, [1])) == {1: [[-1]]}
    assert burau_reduced(word(2, [])) == {0: [[1]]}
    # σ1·σ1^-1 cancels to the identity, and no zero coefficient is kept
    assert burau_reduced(word(2, [1, -1])) == {0: [[1]]}


def burau_generator_sympy(n, i, sign):
    """The documented image of σ_i^{±1}: the identity but for row i, which
    reads (t, -t, 1) for σ_i and (1, -1/t, 1/t) for σ_i^{-1}, centred on the
    diagonal and cut off at the edges."""
    m = sympy.eye(n - 1)
    row = (T, -T, 1) if sign > 0 else (1, -1 / T, 1 / T)
    for offset, value in zip((-1, 0, 1), row):
        if 0 <= i - 1 + offset < n - 1:
            m[i - 1, i - 1 + offset] = value
    return m


def test_burau_matches_generator_product():
    rng = random.Random(37)
    for _ in range(30):
        n = rng.randint(2, 6)
        w = random_word(rng, n, rng.randint(0, 12))
        expected = sympy.eye(n - 1)
        for v in w.letters:
            expected = expected * burau_generator_sympy(n, abs(v), 1 if v > 0 else -1)
        assert (burau_sympy(w) - expected).expand() == sympy.zeros(n - 1)


def test_burau_satisfies_relations():
    for n in range(2, 6):
        for i in range(1, n - 1):
            assert burau_reduced(word(n, [i, i + 1, i])) == burau_reduced(
                word(n, [i + 1, i, i + 1])
            )
        identity = {0: np.eye(n - 1, dtype=int).tolist()}
        for i in range(1, n):
            assert burau_reduced(word(n, [i, -i])) == identity
        for i in range(1, n - 1):
            for j in range(i + 2, n):
                assert burau_reduced(word(n, [i, j])) == burau_reduced(word(n, [j, i]))


def test_burau_size_cap(monkeypatch):
    # a generator of B_1000 has two powers of t, under the cap, so
    # base_change and burau_at_companion can reach every rank MAX_H1_RANK allows
    assert cover.MAX_BURAU_ENTRIES == cover.MAX_H1_RANK**2
    assert entry(burau_reduced(word(1000, [500])), 499, 499) == {1: -1}
    # in B_5, σ_1^k has k + 1 powers of t of 4 x 4 entries each
    monkeypatch.setattr(cover, "MAX_BURAU_ENTRIES", 16 * 3)
    assert entry(burau_reduced(word(5, [1, 1])), 0, 0) == {2: 1}
    for letters in ([1, 1, 1], [-1, -1, -1], [2, 1, 1, 1, 2]):
        with pytest.raises(ValueError, match="more than 48 entries"):
            burau_reduced(word(5, letters))
    with pytest.raises(ValueError, match="more than 48 entries"):
        cover.burau_at_companion(word(5, [1, 1, 1]), 2)


def test_burau_determinant_is_unit():
    rng = random.Random(17)
    for _ in range(25):
        n = rng.randint(2, 5)
        w = random_word(rng, n, rng.randint(0, 10))
        det = sympy.expand(burau_sympy(w).det(method="berkowitz"))
        coeff, exponent = det.as_coeff_exponent(T)
        assert coeff in (1, -1) and det == coeff * T**exponent
        assert det == (-T) ** exponent_sum(w)


def test_burau_at_one_is_permutation_action():
    # at t = 1 the reduced Burau is the permutation action minus the trivial
    # summand: characteristic polynomials must match after multiplying by x-1
    rng = random.Random(19)
    x = sympy.Symbol("x")
    for _ in range(25):
        n = rng.randint(2, 5)
        w = random_word(rng, n, rng.randint(0, 10))
        m = burau_sympy(w).subs(T, 1)
        char_reduced = m.charpoly(x).as_expr() * (x - 1)
        from braidforge.words import underlying_permutation

        p = underlying_permutation(w)
        P = sympy.zeros(n, n)
        for i in range(1, n + 1):
            P[p(i) - 1, i - 1] = 1
        assert sympy.expand(char_reduced - P.charpoly(x).as_expr()) == 0


def test_burau_at_companion_k2_is_t_minus_one():
    rng = random.Random(23)
    for _ in range(20):
        n = rng.randint(2, 5)
        w = random_word(rng, n, rng.randint(0, 8))
        B = burau_at_companion(w, 2)
        assert to_sympy(B) == burau_sympy(w).subs(T, -1)


def test_cross_oracle_base_change():
    rng = random.Random(29)
    for n, k in [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 4), (5, 4), (6, 5), (3, 7)]:
        V = base_change(n, k)
        assert abs(to_sympy(V).det()) == 1
        for _ in range(15):
            b = random_word(rng, n, rng.randint(0, 15))
            H = homology_rep(lift_word(b, k))
            assert np.array_equal(H @ V, V @ burau_at_companion(b, k))


def test_cross_oracle_base_change_large_covers():
    # H_1 rank 60 and 60 from both sides of n = k, 60 again at (13, 6), and
    # 1000 at (21, 51)
    rng = random.Random(41)
    for n, k, count in [(7, 11, 6), (11, 7, 6), (13, 6, 6), (21, 51, 2)]:
        V = cover.base_change(n, k)
        for _ in range(count):
            b = random_word(rng, n, rng.randint(0, 24))
            H = cover.homology_rep(lift_word(b, k))
            assert cover._mul(H, V) == cover._mul(V, cover.burau_at_companion(b, k))


def test_base_change_checks_every_generator_and_block(monkeypatch):
    # a wrong lift of the last generator alone is caught ...
    real_lift = cover.lift_word

    def reversed_last_lift(b, k):
        w = real_lift(b, k)
        if b.letters == (b.strands - 1,):
            return TwistWord(w.n, w.k, w.letters[::-1])
        return w

    monkeypatch.setattr(cover, "lift_word", reversed_last_lift)
    with pytest.raises(AssertionError, match="fails on σ_4 for"):
        cover.base_change(5, 4)
    monkeypatch.undo()
    # ... and so is a wrong inverse power in the last block alone
    real_power = cover._companion_power

    def wrong_last_block(k, e, sign=1):
        entries = real_power(k, e, sign)
        return entries[1:] if e == -4 else entries

    monkeypatch.setattr(cover, "_companion_power", wrong_last_block)
    with pytest.raises(AssertionError, match=r"W\^4·\(-K\)\^4 is not I"):
        cover.base_change(5, 4)


def test_companion_power_is_matrix_power():
    # oracle: sympy's powers, negative ones included, of the matrix with the
    # characteristic polynomial 1 + x + ... + x^{k-1}
    x = sympy.Symbol("x")
    for k in range(2, 8):
        m = k - 1
        K = to_sympy(cover._block_diagonal(m, [cover._companion_power(k, 1)]))
        assert sympy.expand(K.charpoly(x).as_expr() - sum(x**i for i in range(k))) == 0
        for e in range(-2 * k, 2 * k + 1):
            entries = cover._companion_power(k, e, -1 if e % 2 else 1)
            assert len(entries) <= 2 * k - 3
            assert all(v for _, _, v in entries)
            power = K**e if e % 2 == 0 else -(K**e)
            assert to_sympy(cover._block_diagonal(m, [entries])) == power


def test_matrix_json_round_trip():
    def matrix_from_json(data):
        return np.array(data["rows"], dtype=object).reshape(data["dim"], data["dim"])

    H = cover.homology_rep(lift_word(word(3, [1, 2]), 2))
    data = matrix_to_json(H, 3, 2)
    assert data["dim"] == 2 and data["n"] == 3 and data["k"] == 2
    assert all(type(v) is int for row in data["rows"] for v in row)
    assert np.array_equal(matrix_from_json(data), H)


def test_returned_matrices_are_fresh():
    # every call builds its matrices anew, so changing one a caller holds
    # changes no later result
    w = lift_word(parse_word("1 -2 1 2", 3), 3)
    J, V, H = cover.intersection_form(3, 3), cover.base_change(3, 3), cover.homology_rep(w)
    expected = copy.deepcopy((J, V, H))
    J[0][1] = 5
    V[0][0] = 7
    H[0][0] = 9
    assert cover.intersection_form(3, 3) == expected[0]
    assert cover.base_change(3, 3) == expected[1]
    assert cover.homology_rep(w) == expected[2]
