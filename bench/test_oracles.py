"""
Tests of the benchmark's oracles against hand values, the braid relations and
sympy.  Run from the repository root:

    python3 -m pytest -q bench/test_oracles.py
"""

import random
from fractions import Fraction

import pytest
import sympy

import oracles as O

T = sympy.Symbol("t")


def rand_word(rng, n, length):
    return [rng.choice((-1, 1)) * rng.randint(1, n - 1) for _ in range(length)]


def symbolic_burau(w, n):
    """Reduced Burau as a product of sympy generator matrices."""
    d = n - 1
    out = sympy.eye(d)
    for v in w:
        r = abs(v) - 1
        g = sympy.eye(d)
        row = (T, -T, 1) if v > 0 else (1, -1 / T, 1 / T)
        for c, entry in zip((r - 1, r, r + 1), row):
            if 0 <= c < d:
                g[r, c] = entry
        out = out * g
    return out


@pytest.mark.parametrize("t", [2, 3])
def test_sigma1_in_b2_is_minus_t(t):
    assert O.Burau.of([1], 2, t).fractions() == [[Fraction(-t)]]
    assert O.Burau.of([-1], 2, t).fractions() == [[Fraction(-1, t)]]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_braid_relations(n):
    for i in range(1, n - 1):
        assert O.burau_equal([i, i + 1, i], [i + 1, i, i + 1], n)
        assert O.burau_equal([-i, -(i + 1), -i], [-(i + 1), -i, -(i + 1)], n)
    for i in range(1, n):
        assert O.burau_equal([i, -i], [], n)
        assert O.burau_equal([-i, i], [], n)
        for j in range(i + 2, n):
            assert O.burau_equal([i, j], [j, i], n)
    assert not O.burau_equal([1, 2], [2, 1], n)


def test_scaled_burau_matches_sympy():
    rng = random.Random(7)
    for n in (3, 4, 5):
        for _ in range(4):
            w = rand_word(rng, n, 10)
            sym = symbolic_burau(w, n)
            for t in (2, 3):
                want = [[Fraction(str(sym[r, c].subs(T, t))) for c in range(n - 1)] for r in range(n - 1)]
                assert O.Burau.of(w, n, t).fractions() == want


def test_burau_determinant_is_minus_t_to_exponent_sum():
    rng = random.Random(8)
    for n in (3, 4):
        w = rand_word(rng, n, 9)
        assert sympy.simplify(symbolic_burau(w, n).det() - (-T) ** sum(1 if v > 0 else -1 for v in w)) == 0


def test_bareiss_matches_sympy():
    rng = random.Random(9)
    for d in (1, 2, 3, 5, 7):
        for _ in range(5):
            m = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)]
            assert O.det(m) == sympy.Matrix(m).det()
    assert O.det([[0, 1], [1, 0]]) == -1  # needs a row swap
    assert O.det([[1, 2], [2, 4]]) == 0
    assert O.det([]) == 1


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_companion_and_deck(k):
    K = sympy.Matrix(O.companion(k))
    assert sympy.expand(K.charpoly(T).as_expr() - sum(T**j for j in range(k))) == 0
    D = sympy.Matrix(O.deck_matrix(3, k))
    assert D**k == sympy.eye(2 * (k - 1))
    assert all(D**j != sympy.eye(2 * (k - 1)) for j in range(1, k))


@pytest.mark.parametrize("n,k", [(2, 3), (3, 2), (3, 3), (4, 3), (3, 4)])
def test_burau_at_companion_is_blockwise_substitution(n, k):
    rng = random.Random(n * 10 + k)
    K = sympy.Matrix(O.companion(k))
    K_inv = K.inv()
    m = k - 1
    for _ in range(3):
        w = rand_word(rng, n, 8)
        sym = symbolic_burau(w, n)
        want = sympy.zeros((n - 1) * m)
        for r in range(n - 1):
            for c in range(n - 1):
                poly = sympy.expand(sym[r, c])
                block = sympy.zeros(m)
                for term in sympy.Add.make_args(poly):
                    if term == 0:
                        continue
                    coeff, power = term.as_coeff_exponent(T)
                    block += coeff * (K**power if power >= 0 else K_inv ** (-power))
                want[r * m:(r + 1) * m, c * m:(c + 1) * m] = block
        got = O.burau_at_companion(w, n, k)
        assert sympy.Matrix(got) == want
        D = O.deck_matrix(n, k)
        assert O.mat_mul(got, D) == O.mat_mul(D, got)


def test_companion_at_k2_is_burau_at_minus_one():
    rng = random.Random(3)
    w = rand_word(rng, 4, 12)
    sym = symbolic_burau(w, 4)
    assert O.burau_at_companion(w, 4, 2) == [[int(sym[r, c].subs(T, -1)) for c in range(3)] for r in range(3)]


def test_left_weightedness():
    s1, s2, ident, w0 = (2, 1, 3), (1, 3, 2), (1, 2, 3), (3, 2, 1)
    assert O.is_left_weighted(3, [s1, s1])
    assert not O.is_left_weighted(3, [s1, s2])  # σ1σ2 is one simple factor
    assert O.is_left_weighted(3, [(3, 1, 2), s2])  # σ1σ2 | σ2
    assert not O.is_left_weighted(3, [(2, 3, 1), s2])  # σ2σ1 | σ2
    assert not O.is_left_weighted(3, [s1, ident])
    assert not O.is_left_weighted(3, [w0])
    assert not O.is_left_weighted(3, [(1, 1, 3)])


def test_normal_form_word_and_half_twist():
    assert O.half_twist_word(3) == [1, 2, 1]
    assert len(O.half_twist_word(5)) == 10
    assert O.burau_equal(O.normal_form_word(3, 1, []), [2, 1, 2], 3)
    assert O.burau_equal(O.normal_form_word(3, -1, [(2, 1, 3)]), [-1, -2], 3)  # Δ^{-1}σ1
    full = O.half_twist_word(4) * 2
    assert O.burau_equal(full + [1, -3, 2], [1, -3, 2] + full, 4)  # Δ² is central


def test_permutation_and_cycles():
    assert O.permutation([1], 3) == (2, 1, 3)
    assert O.permutation([1, 2], 3) == (3, 1, 2)
    assert O.cycles((3, 1, 2)) == [(1, 3, 2)]
    assert O.permutation(O.permutation_braid_word((3, 1, 2)), 3) == (3, 1, 2)


def test_cabling_against_the_paper_example():
    # σ1 on two tubes of width two is the block crossing σ2σ3σ1σ2
    assert O.burau_equal(O.cable([1], (2, 2)), [2, 3, 1, 2], 4)
    # the band pair of B_4 equals the cabled crossing with interior σ1^{-2}
    assert O.burau_equal(O.composite([1], (2, 2), [[-1, -1]]), [2, 3, -2, 1, 2, -1], 4)
    assert O.burau_equal(O.cable([-1, 1], (2, 1)), [], 3)


def test_conjugacy_invariant():
    rng = random.Random(4)
    a = rand_word(rng, 4, 7)
    u = rand_word(rng, 4, 5)
    assert O.conjugacy_invariant(a, 4) == O.conjugacy_invariant(u + a + O.invert(u), 4)
    assert O.conjugacy_invariant([1], 4) != O.conjugacy_invariant([1, 1, -2], 4)
