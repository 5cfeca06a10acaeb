"""
cover: the k-fold cyclic branched cover of the disk over n points, braid
lifts as Dehn-twist words, and the integral homology representation.

The covering surface is the Seifert surface of the (n, k) torus link: n disks
joined by k bands between each adjacent pair.  H_1 has rank (n-1)(k-1), with
basis the classes of the curves running through bands l and l+1 between disks
i and i+1 (1 <= i <= n-1, 1 <= l <= k-1).  A braid generator lifts to the
chain of twists t_{i,1} ... t_{i,k-1}, and a Dehn twist acts on H_1 by the
transvection x ↦ x + <x, c>·c in the intersection pairing.

Two basis curves can pair only when adjacent in the band grid, and the deck
orbit relation forces the same-column and diagonal pairings between adjacent
rows to cancel.  The remaining orientation choices are fixed as constants
(see `intersection_form`): under them the braid relations hold on H_1, the
deck transformation preserves the form and commutes with every lifted braid,
the chain relations act trivially, and the representation is integrally
conjugate to reduced Burau evaluated at the companion matrix K of
1 + t + ... + t^{k-1}.  That conjugacy, by the closed-form unimodular base
change V = diag(W, W^2, ..., W^{n-1}) with W = -K^{-1}, doubles as an
independent cross-check of the whole construction; `base_change` verifies it
on the generators before returning it.

Everything is exact: integer matrices use Python integers (numpy object
arrays), Burau matrices are Laurent polynomials with integer coefficients.
Homology-level equality of twist words is a necessary condition for equality
in the mapping class group, never claimed sufficient.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

import numpy as np

from .words import BraidWord, word

__all__ = [
    "CoverData",
    "TwistLetter",
    "TwistWord",
    "LaurentMatrix",
    "cover_data",
    "lift_word",
    "parse_twist_word",
    "format_twist_word",
    "intersection_form",
    "twist_class",
    "deck_matrix",
    "transvection",
    "homology_rep",
    "symmetry_check",
    "check_identity",
    "burau_reduced",
    "burau_at_companion",
    "base_change",
    "matrix_to_json",
    "matrix_from_json",
]


# --- cover invariants ----------------------------------------------------------


@dataclass(frozen=True, slots=True)
class CoverData:
    """Topological invariants of the k-fold cyclic cover branched at n points."""

    branch_points: int
    degree: int
    euler_char: int
    boundary_components: int
    genus: int
    h1_rank: int


def cover_data(n: int, k: int) -> CoverData:
    """Invariants of the cover: n + k - nk disks-minus-bands Euler count,
    gcd(n, k) boundary circles, and first homology of rank (n-1)(k-1)."""
    if n < 2 or k < 2:
        raise ValueError(f"cover needs n >= 2 and k >= 2, got ({n}, {k})")
    euler = n + k - n * k
    boundary = gcd(n, k)
    genus, rem = divmod(2 - boundary - euler, 2)
    if rem:
        raise AssertionError("internal error: inconsistent Euler characteristic")
    return CoverData(n, k, euler, boundary, genus, (n - 1) * (k - 1))


# --- twist words ----------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class TwistLetter:
    """One Dehn twist t_{i,l} (sign +1) or its inverse (sign -1) about the
    basis curve through disks i, i+1 and bands l, l+1."""

    i: int
    l: int
    sign: int

    def __post_init__(self):
        if self.i < 1 or self.l < 1:
            raise ValueError(f"twist indices must be >= 1, got ({self.i}, {self.l})")
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")


@dataclass(frozen=True, slots=True)
class TwistWord:
    """A word in the twist generators of the (n, k) cover, read left to right."""

    n: int
    k: int
    letters: tuple[TwistLetter, ...] = ()

    def __post_init__(self):
        if self.n < 2 or self.k < 2:
            raise ValueError(f"cover needs n >= 2 and k >= 2, got ({self.n}, {self.k})")
        for letter in self.letters:
            if letter.i > self.n - 1 or letter.l > self.k - 1:
                raise ValueError(
                    f"twist t[{letter.i},{letter.l}] out of range for (n, k) = "
                    f"({self.n}, {self.k})"
                )

    def __len__(self) -> int:
        return len(self.letters)

    def inverse(self) -> TwistWord:
        return TwistWord(
            self.n,
            self.k,
            tuple(
                TwistLetter(letter.i, letter.l, -letter.sign)
                for letter in reversed(self.letters)
            ),
        )

    def __mul__(self, other: TwistWord) -> TwistWord:
        if (self.n, self.k) != (other.n, other.k):
            raise ValueError("twist words live on different covers")
        return TwistWord(self.n, self.k, self.letters + other.letters)


def lift_word(b: BraidWord, k: int) -> TwistWord:
    """
    The lift of a braid word to the k-fold cover: σ_i becomes the ascending
    chain t_{i,1} ... t_{i,k-1}, σ_i^{-1} the descending chain of inverses,
    letter by letter (so the lift of a product is the product of lifts).
    """
    letters: list[TwistLetter] = []
    for letter in b.letters:
        if letter.sign > 0:
            letters.extend(TwistLetter(letter.index, l, 1) for l in range(1, k))
        else:
            letters.extend(
                TwistLetter(letter.index, l, -1) for l in range(k - 1, 0, -1)
            )
    return TwistWord(b.strands, k, tuple(letters))


_TWIST_TOKEN = re.compile(r"t\[(\d+),(\d+)\](\^-1)?$")


def parse_twist_word(text: str, n: int, k: int) -> TwistWord:
    """Parse twist-word text: letters "t[i,l]" and "t[i,l]^-1", whitespace
    separated."""
    letters = []
    for token in text.split():
        m = _TWIST_TOKEN.match(token)
        if m is None:
            raise ValueError(f"malformed twist letter {token!r}")
        letters.append(
            TwistLetter(int(m.group(1)), int(m.group(2)), -1 if m.group(3) else 1)
        )
    return TwistWord(n, k, tuple(letters))


def format_twist_word(w: TwistWord) -> str:
    return " ".join(
        f"t[{letter.i},{letter.l}]" + ("" if letter.sign > 0 else "^-1")
        for letter in w.letters
    )


# --- exact integer linear algebra ----------------------------------------------


def _int_matrix(rows) -> np.ndarray:
    return np.array([[int(v) for v in row] for row in rows], dtype=object)


def _identity(d: int) -> np.ndarray:
    return _int_matrix([[1 if i == j else 0 for j in range(d)] for i in range(d)])


# --- intersection form, deck action, transvections ------------------------------


def _basis_index(i: int, l: int, k: int) -> int:
    return (i - 1) * (k - 1) + (l - 1)


@lru_cache(maxsize=None)
def intersection_form(n: int, k: int) -> np.ndarray:
    """
    The antisymmetric intersection pairing of the basis curve classes.  Only
    curves adjacent in the band grid pair: e_{i,l} with e_{i,l+1} to -1, with
    e_{i+1,l} to -1, and with the diagonal neighbour e_{i+1,l-1} to +1, the
    opposite of its same-column neighbour, as the cyclic deck orbit relation
    demands.  The signs are a fixed orientation convention; the other sign
    choices that satisfy the same relations differ from it by reorienting
    curves or reflecting the surface, which no identity here can see.
    """
    cover_data(n, k)
    d = (n - 1) * (k - 1)
    J = [[0] * d for _ in range(d)]

    def put(a: int, b: int, v: int) -> None:
        J[a][b] = v
        J[b][a] = -v

    for i in range(1, n):
        for l in range(1, k):
            e = _basis_index(i, l, k)
            if l + 1 <= k - 1:
                put(e, _basis_index(i, l + 1, k), -1)
            if i + 1 <= n - 1:
                put(e, _basis_index(i + 1, l, k), -1)
                if l - 1 >= 1:
                    put(e, _basis_index(i + 1, l - 1, k), 1)
    return _int_matrix(J)


def deck_matrix(n: int, k: int) -> np.ndarray:
    """The H_1 action of the deck transformation: one companion block of
    1 + t + ... + t^{k-1} per disk gap, of order exactly k."""
    cover_data(n, k)
    return np.kron(_identity(n - 1), _companion(k))


def twist_class(i: int, l: int, n: int, k: int) -> np.ndarray:
    """The H_1 class of the curve through disks i, i+1 and bands l, l+1:
    a basis vector for l <= k-1; for l = k the relation class
    -(e_{i,1} + ... + e_{i,k-1}), since the k classes of one row are a single
    deck orbit summing to zero."""
    cover_data(n, k)
    if not 1 <= i <= n - 1 or not 1 <= l <= k:
        raise ValueError(f"twist curve ({i}, {l}) out of range for ({n}, {k})")
    d = (n - 1) * (k - 1)
    vec = [0] * d
    if l <= k - 1:
        vec[_basis_index(i, l, k)] = 1
    else:
        for l2 in range(1, k):
            vec[_basis_index(i, l2, k)] = -1
    return np.array([int(v) for v in vec], dtype=object)


def transvection(c: np.ndarray, J: np.ndarray) -> np.ndarray:
    """The H_1 action of a twist about a curve of class c: the transvection
    x ↦ x + <x, c>·c, as the matrix I + c·(Jc)^T acting on columns."""
    d = len(c)
    return _identity(d) + np.outer(c, J @ c)


def homology_rep(w: TwistWord) -> np.ndarray:
    """The integer H_1 matrix of a twist word: the product of transvections
    in word order (matrices act on column vectors; the map is a homomorphism
    into matrices multiplied left-to-right)."""
    J = intersection_form(w.n, w.k)
    d = (w.n - 1) * (w.k - 1)
    out = _identity(d)
    for letter in w.letters:
        c = twist_class(letter.i, letter.l, w.n, w.k)
        # right-multiplying by I ± c·(Jc)^T is a rank-one update
        out = out + letter.sign * np.outer(out @ c, J @ c)
    return out


def symmetry_check(w: TwistWord) -> bool:
    """Necessary condition for the twist word to define a symmetric mapping
    class: its H_1 matrix commutes with the deck action."""
    H = homology_rep(w)
    D = deck_matrix(w.n, w.k)
    return np.array_equal(H @ D, D @ H)


def check_identity(a: TwistWord, b: TwistWord) -> bool:
    """Whether two twist words act identically on H_1.  Necessary, not
    sufficient, for equality in the mapping class group; for equalities of
    two braid lifts prefer the exact braid-side word problem."""
    if (a.n, a.k) != (b.n, b.k):
        raise ValueError("twist words live on different covers")
    return np.array_equal(homology_rep(a), homology_rep(b))


# --- reduced Burau and the companion specialization ------------------------------


@dataclass(frozen=True)
class LaurentMatrix:
    """A square matrix of integer Laurent polynomials in one variable,
    stored as exponent -> integer coefficient matrix."""

    size: int
    coeffs: dict[int, np.ndarray]

    @staticmethod
    def identity(size: int) -> LaurentMatrix:
        return LaurentMatrix(size, {0: _identity(size)})

    @staticmethod
    def from_entries(entries) -> LaurentMatrix:
        """Build from a nested list whose entries are dicts exponent -> int."""
        size = len(entries)
        coeffs: dict[int, list] = {}
        for r, row in enumerate(entries):
            for c, poly in enumerate(row):
                for e, v in poly.items():
                    if v:
                        coeffs.setdefault(e, [[0] * size for _ in range(size)])
                        coeffs[e][r][c] = v
        return LaurentMatrix(size, {e: _int_matrix(m) for e, m in coeffs.items()})

    def _trimmed(self) -> dict[int, np.ndarray]:
        return {e: m for e, m in self.coeffs.items() if np.any(m != 0)}

    def __matmul__(self, other: LaurentMatrix) -> LaurentMatrix:
        if self.size != other.size:
            raise ValueError("size mismatch")
        acc: dict[int, np.ndarray] = {}
        for e1, m1 in self._trimmed().items():
            for e2, m2 in other._trimmed().items():
                e = e1 + e2
                prod = m1 @ m2
                acc[e] = acc[e] + prod if e in acc else prod
        return LaurentMatrix(self.size, {e: m for e, m in acc.items() if np.any(m != 0)})

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentMatrix) or self.size != other.size:
            return NotImplemented
        a, b = self._trimmed(), other._trimmed()
        return set(a) == set(b) and all(np.array_equal(a[e], b[e]) for e in a)

    def entry(self, r: int, c: int) -> dict[int, int]:
        return {
            e: int(m[r, c]) for e, m in self._trimmed().items() if m[r, c] != 0
        }

    def at_matrix(self, K: np.ndarray) -> np.ndarray:
        """Blockwise substitution of the companion matrix K of
        1 + t + ... + t^{k-1} for t: entry p(t) becomes the block p(K).
        K has order k, so K^e = K^(e mod k) and K^{-1} = K^{k-1}."""
        k = K.shape[0] + 1
        powers = [_identity(k - 1)]
        for _ in range(k - 1):
            powers.append(powers[-1] @ K)
        if not np.array_equal(powers[-1] @ K, powers[0]):
            raise ValueError("at_matrix needs the companion matrix of 1 + t + ... + t^{k-1}")
        acc = np.zeros((self.size * (k - 1),) * 2, dtype=object)
        for e, m in self._trimmed().items():
            acc = acc + np.kron(m, powers[e % k])
        return acc


@lru_cache(maxsize=None)
def _burau_generator(n: int, index: int, sign: int) -> LaurentMatrix:
    """
    Reduced Burau image of σ_index^{±1} in B_n: the (n-1)×(n-1) Laurent
    matrix differing from the identity only in row `index`, with σ_1 ↦ [-t]
    for n = 2.  Of the two transpose conventions in circulation this is the
    one whose specialization at the companion matrix consists of homology
    transvections.
    """
    d = n - 1
    entries = [[{0: 1} if r == c else {} for c in range(d)] for r in range(d)]
    # row index-1 reads (t, -t, 1) for σ_i and (1, -t^{-1}, t^{-1}) for σ_i^{-1},
    # centred on the diagonal and cut off at the edges of the matrix
    left, centre, right = ({1: 1}, {1: -1}, {0: 1}) if sign > 0 else ({0: 1}, {-1: -1}, {-1: 1})
    r = index - 1
    entries[r][r] = centre
    if r > 0:
        entries[r][r - 1] = left
    if r < d - 1:
        entries[r][r + 1] = right
    return LaurentMatrix.from_entries(entries)


def burau_reduced(b: BraidWord) -> LaurentMatrix:
    """The reduced Burau matrix of a braid word, letters multiplied in word
    order."""
    if b.strands < 2:
        raise ValueError("reduced Burau needs n >= 2")
    out = LaurentMatrix.identity(b.strands - 1)
    for letter in b.letters:
        out = out @ _burau_generator(b.strands, letter.index, letter.sign)
    return out


@lru_cache(maxsize=None)
def _companion(k: int) -> np.ndarray:
    """Companion matrix of 1 + t + ... + t^{k-1}, the deck action on one row."""
    K = [[0] * (k - 1) for _ in range(k - 1)]
    for l in range(k - 2):
        K[l + 1][l] = 1
    for l in range(k - 1):
        K[l][k - 2] = -1
    return _int_matrix(K)


def burau_at_companion(b: BraidWord, k: int) -> np.ndarray:
    """Reduced Burau with the companion matrix of 1 + t + ... + t^{k-1}
    substituted blockwise for t: an (n-1)(k-1) integer matrix modelling the
    H_1 action on the k-fold cover."""
    if k < 2:
        raise ValueError("companion specialization needs k >= 2")
    return burau_reduced(b).at_matrix(_companion(k))


# --- the Burau base change --------------------------------------------------------


@lru_cache(maxsize=None)
def base_change(n: int, k: int) -> np.ndarray:
    """
    The unimodular V with homology_rep(lift(b))·V = V·burau_at_companion(b)
    for every braid b on n strands: V = diag(W, W^2, ..., W^{n-1}) with
    W = -K^{k-1} = -K^{-1}, K the companion matrix of 1 + t + ... + t^{k-1}.
    It is unique up to the commutant of the Burau images.  Before returning,
    V is checked on every generator σ_i, and W·(-K) = I, which makes V
    unimodular.
    """
    cover_data(n, k)
    K = _companion(k)
    W = -np.linalg.matrix_power(K, k - 1)
    if not np.array_equal(W @ -K, _identity(k - 1)):
        raise AssertionError(f"internal error: -K^{{k-1}} is not the inverse of -K for k = {k}")
    m = k - 1
    V = np.zeros(((n - 1) * m, (n - 1) * m), dtype=object)
    block = _identity(m)
    for i in range(n - 1):
        block = block @ W
        V[i * m : (i + 1) * m, i * m : (i + 1) * m] = block
    for i in range(1, n):
        b = word(n, [i])
        if not np.array_equal(homology_rep(lift_word(b, k)) @ V, V @ burau_at_companion(b, k)):
            raise AssertionError(
                f"internal error: the Burau base change fails on σ_{i} for (n, k) = ({n}, {k})"
            )
    return V


# --- JSON -----------------------------------------------------------------------


def matrix_to_json(mat: np.ndarray, n: int, k: int) -> dict:
    return {
        "n": n,
        "k": k,
        "dim": int(mat.shape[0]),
        "rows": [[int(v) for v in row] for row in mat],
    }


def matrix_from_json(data: dict) -> np.ndarray:
    mat = _int_matrix(data["rows"])
    if mat.shape[0] != data["dim"]:
        raise ValueError("matrix dimension mismatch")
    return mat
