"""
cover: the k-fold cyclic branched cover of the disk over n points, braid
lifts as Dehn-twist words, and the integral homology representation.

The covering surface is the Seifert surface of the (n, k) torus link: n disks
joined by k bands between each adjacent pair.  H_1 has rank (n-1)(k-1), with
basis the classes of the curves running through bands l and l+1 between disks
i and i+1 (1 <= i <= n-1, 1 <= l <= k-1).  A braid generator lifts to the
chain of twists t_{i,1} ... t_{i,k-1}, and a Dehn twist acts on H_1 by the
transvection x ↦ x + <x, c>·c in the intersection pairing.  Both
representations are computed letter by letter as sparse column updates of
the running product: a twist touches the at most six columns of basis curves
that meet its curve, and a Burau generator the three columns around its
index.

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

Everything is exact: an integer matrix is a list of rows, each a list of
Python integers, and a Burau matrix is a Laurent polynomial with such
matrices as coefficients.  A matrix of rank (n-1)(k-1) above MAX_H1_RANK is
refused before it is allocated, and so are a lift of more than
MAX_WORD_LETTERS twists and a Burau matrix of more than MAX_BURAU_ENTRIES
entries.
Homology-level equality of twist words is a necessary condition for equality
in the mapping class group, never claimed sufficient.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import gcd
from operator import add, sub

from .words import MAX_WORD_LETTERS, BraidWord, word

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
    "deck_matrix",
    "homology_rep",
    "symmetry_check",
    "check_identity",
    "burau_reduced",
    "burau_at_companion",
    "base_change",
    "matrix_to_json",
]

# The largest H_1 rank d = (n-1)(k-1) of a matrix built here: a d x d list
# of small integers takes 8·d² bytes, 32 MB at the cap.
MAX_H1_RANK = 2000

# The most entries, (n-1)² per power of t, of a reduced Burau matrix: as many
# as one H_1 matrix at MAX_H1_RANK.  A word of L letters has up to L + 1
# powers of t, so this bounds L at n = 1000 but not at n = 100.
MAX_BURAU_ENTRIES = MAX_H1_RANK**2


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


def lift_word(b: BraidWord, k: int) -> TwistWord:
    """
    The lift of a braid word to the k-fold cover: σ_i becomes the ascending
    chain t_{i,1} ... t_{i,k-1}, σ_i^{-1} the descending chain of inverses,
    letter by letter (so the lift of a product is the product of lifts).
    Raises ValueError, before allocating it, when the lift would have more
    than MAX_WORD_LETTERS twists.
    """
    count = len(b) * (k - 1)
    if count > MAX_WORD_LETTERS:
        raise ValueError(f"lift would have {count} twists, more than {MAX_WORD_LETTERS}")
    letters: list[TwistLetter] = []
    for v in b.letters:
        if v > 0:
            letters.extend(TwistLetter(v, l, 1) for l in range(1, k))
        else:
            letters.extend(TwistLetter(-v, l, -1) for l in range(k - 1, 0, -1))
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


def _identity(d: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(d)] for i in range(d)]


def _transpose(rows: list[list[int]]) -> list[list[int]]:
    return [list(row) for row in zip(*rows)]


def _mul(A: list[list[int]], B: list[list[int]]) -> list[list[int]]:
    """The product A·B of integer matrices, skipping the zero entries of both."""
    sparse = [[(c, v) for c, v in enumerate(row) if v] for row in B]
    out = []
    for row in A:
        acc = [0] * len(B[0])
        for a, b_row in zip(row, sparse):
            if a:
                for c, v in b_row:
                    acc[c] += a * v
        out.append(acc)
    return out


def _block_diagonal(blocks: list[list[list[int]]]) -> list[list[int]]:
    d = sum(map(len, blocks))
    out = []
    for block in blocks:
        start = len(out)
        out.extend([0] * start + row + [0] * (d - start - len(row)) for row in block)
    return out


def _h1_rank(n: int, k: int) -> int:
    """The H_1 rank (n-1)(k-1) of a matrix about to be built, refused above
    MAX_H1_RANK."""
    d = (n - 1) * (k - 1)
    if d > MAX_H1_RANK:
        raise ValueError(f"H_1 rank (n-1)(k-1) = {d} is more than {MAX_H1_RANK}")
    return d


# --- intersection form, deck action, homology ------------------------------------


def _basis_index(i: int, l: int, k: int) -> int:
    return (i - 1) * (k - 1) + (l - 1)


# (disk step, band step, pairing) of the at most six curves meeting e_{i,l}
_NEIGHBOURS = ((0, 1, -1), (0, -1, 1), (1, 0, -1), (-1, 0, 1), (1, -1, 1), (-1, 1, -1))


def _pairings(i: int, l: int, n: int, k: int) -> list[tuple[int, int]]:
    """The nonzero entries (f, J[e, f]) of row e = e_{i,l} of the
    intersection form."""
    return [
        (_basis_index(i + di, l + dl, k), v)
        for di, dl, v in _NEIGHBOURS
        if 1 <= i + di <= n - 1 and 1 <= l + dl <= k - 1
    ]


def intersection_form(n: int, k: int) -> list[list[int]]:
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
    d = _h1_rank(n, k)
    J = [[0] * d for _ in range(d)]
    for i in range(1, n):
        for l in range(1, k):
            row = J[_basis_index(i, l, k)]
            for f, v in _pairings(i, l, n, k):
                row[f] = v
    return J


def deck_matrix(n: int, k: int) -> list[list[int]]:
    """The H_1 action of the deck transformation: one companion block of
    1 + t + ... + t^{k-1} per disk gap, of order exactly k."""
    cover_data(n, k)
    _h1_rank(n, k)
    return _block_diagonal([_companion(k)] * (n - 1))


def homology_rep(w: TwistWord) -> list[list[int]]:
    """
    The integer H_1 matrix of a twist word: the product of the letters'
    transvections in word order (matrices act on column vectors; the map is a
    homomorphism into matrices multiplied left-to-right).  The twist about
    basis curve e right-multiplies by I ± e·(Je)^T, which adds ±J[j, e] times
    column e to each of the at most six columns j with J[j, e] != 0; column e
    itself never changes, since J[e, e] = 0.  The columns are kept as lists
    and transposed once at the end.
    """
    cols = _identity(_h1_rank(w.n, w.k))
    for letter in w.letters:
        col = cols[_basis_index(letter.i, letter.l, w.k)]
        for j, v in _pairings(letter.i, letter.l, w.n, w.k):
            # J[j, e] = -J[e, j] = -v
            cols[j] = list(map(sub if letter.sign * v > 0 else add, cols[j], col))
    return _transpose(cols)


def symmetry_check(w: TwistWord) -> bool:
    """Necessary condition for the twist word to define a symmetric mapping
    class: its H_1 matrix commutes with the deck action."""
    H = homology_rep(w)
    D = deck_matrix(w.n, w.k)
    return _mul(H, D) == _mul(D, H)


def check_identity(a: TwistWord, b: TwistWord) -> bool:
    """Whether two twist words act identically on H_1.  Necessary, not
    sufficient, for equality in the mapping class group; for equalities of
    two braid lifts prefer the exact braid-side word problem."""
    if (a.n, a.k) != (b.n, b.k):
        raise ValueError("twist words live on different covers")
    return homology_rep(a) == homology_rep(b)


# --- reduced Burau and the companion specialization ------------------------------


@dataclass(frozen=True)
class LaurentMatrix:
    """A square matrix of integer Laurent polynomials in one variable,
    stored as exponent -> integer coefficient matrix."""

    size: int
    coeffs: dict[int, list[list[int]]]

    def _trimmed(self) -> dict[int, list[list[int]]]:
        return {e: m for e, m in self.coeffs.items() if any(map(any, m))}

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentMatrix) or self.size != other.size:
            return NotImplemented
        return self._trimmed() == other._trimmed()

    def entry(self, r: int, c: int) -> dict[int, int]:
        return {e: m[r][c] for e, m in self._trimmed().items() if m[r][c]}

    def at_matrix(self, K: list[list[int]]) -> list[list[int]]:
        """Blockwise substitution of the companion matrix K of
        1 + t + ... + t^{k-1} for t: entry p(t) becomes the block p(K).
        K multiplies by t in Z[t]/(1 + t + ... + t^{k-1}) on the basis
        1, t, ..., t^{k-2}, so column i of K^e is the class of t^{(i+e) mod k},
        with t^{k-1} = -(1 + t + ... + t^{k-2})."""
        m = len(K)
        k = m + 1
        if K != _companion(k):
            raise ValueError("at_matrix needs the companion matrix of 1 + t + ... + t^{k-1}")
        acc = [[0] * (self.size * m) for _ in range(self.size * m)]
        for e, mat in self._trimmed().items():
            for r, row in enumerate(mat):
                for c, v in enumerate(row):
                    if not v:
                        continue
                    block = acc[r * m : (r + 1) * m]
                    for i in range(m):
                        s = (i + e) % k
                        if s < m:
                            block[s][c * m + i] += v
                        else:
                            for acc_row in block:
                                acc_row[c * m + i] -= v
        return acc


# the entries of row i of the Burau image of σ_i^{±1}, by sign, as
# (column offset from i, exponent of t, coefficient)
_BURAU_ROW = {
    1: ((-1, 1, 1), (0, 1, -1), (1, 0, 1)),
    -1: ((-1, 0, 1), (0, -1, -1), (1, -1, 1)),
}


def burau_reduced(b: BraidWord) -> LaurentMatrix:
    """
    The reduced Burau matrix of a braid word, letters multiplied in word
    order.  The image of σ_i^{±1} differs from the identity only in row i,
    which reads (t, -t, 1) for σ_i and (1, -t^{-1}, t^{-1}) for σ_i^{-1},
    centred on the diagonal and cut off at the edges (σ_1 ↦ [-t] for n = 2).
    Of the two transpose conventions in circulation this is the one whose
    specialization at the companion matrix consists of homology
    transvections.  Right-multiplying by it replaces column i by -t^{±1}
    times itself and adds monomial multiples of the old column i to columns
    i-1 and i+1; the other columns do not change.  The coefficients are kept
    as lists of columns and transposed once at the end.  Raises ValueError
    when a new power of t would make (n-1)² times the powers more than
    MAX_BURAU_ENTRIES, before allocating its coefficient.
    """
    if b.strands < 2:
        raise ValueError("reduced Burau needs n >= 2")
    d = b.strands - 1
    cols = {0: _identity(d)}
    for v in b.letters:
        r = abs(v) - 1
        column = {e: cs[r] for e, cs in cols.items() if any(cs[r])}
        for e in column:
            cols[e][r] = [0] * d
        for offset, shift, c in _BURAU_ROW[1 if v > 0 else -1]:
            if 0 <= r + offset < d:
                for e, col in column.items():
                    if e + shift not in cols:
                        if d * d * (len(cols) + 1) > MAX_BURAU_ENTRIES:
                            raise ValueError(
                                f"a reduced Burau matrix of rank {d} with {len(cols) + 1} "
                                f"powers of t is more than {MAX_BURAU_ENTRIES} entries"
                            )
                        cols[e + shift] = [[0] * d for _ in range(d)]
                    cs = cols[e + shift]
                    cs[r + offset] = [x + c * y for x, y in zip(cs[r + offset], col)]
    return LaurentMatrix(d, {e: _transpose(cs) for e, cs in cols.items() if any(map(any, cs))})


def _companion(k: int) -> list[list[int]]:
    """Companion matrix of 1 + t + ... + t^{k-1}, the deck action on one row."""
    K = [[0] * (k - 1) for _ in range(k - 1)]
    for l in range(k - 2):
        K[l + 1][l] = 1
    for l in range(k - 1):
        K[l][k - 2] = -1
    return K


def burau_at_companion(b: BraidWord, k: int) -> list[list[int]]:
    """Reduced Burau with the companion matrix of 1 + t + ... + t^{k-1}
    substituted blockwise for t: an (n-1)(k-1) integer matrix modelling the
    H_1 action on the k-fold cover."""
    if k < 2:
        raise ValueError("companion specialization needs k >= 2")
    _h1_rank(b.strands, k)
    return burau_reduced(b).at_matrix(_companion(k))


# --- the Burau base change --------------------------------------------------------


def base_change(n: int, k: int) -> list[list[int]]:
    """
    The unimodular V with homology_rep(lift(b))·V = V·burau_at_companion(b)
    for every braid b on n strands: V = diag(W, W^2, ..., W^{n-1}) with
    W = -K^{k-1} = -K^{-1}, K the companion matrix of 1 + t + ... + t^{k-1}.
    It is unique up to the commutant of the Burau images.  Before returning,
    V is checked on every generator σ_i, and W·(-K) = I, which makes V
    unimodular.
    """
    cover_data(n, k)
    _h1_rank(n, k)
    m = k - 1
    K = _companion(k)
    # K^{-1} = K^{k-1} sends t^i to t^{i-1}: column 0 is t^{k-1} = -(1 + ... + t^{k-2})
    W = [[1 if c == 0 else -(r == c - 1) for c in range(m)] for r in range(m)]
    if _mul(W, [[-v for v in row] for row in K]) != _identity(m):
        raise AssertionError(f"internal error: -K^{{k-1}} is not the inverse of -K for k = {k}")
    blocks = [W]
    while len(blocks) < n - 1:
        blocks.append(_mul(blocks[-1], W))
    V = _block_diagonal(blocks)
    for i in range(1, n):
        b = word(n, [i])
        if _mul(homology_rep(lift_word(b, k)), V) != _mul(V, burau_at_companion(b, k)):
            raise AssertionError(
                f"internal error: the Burau base change fails on σ_{i} for (n, k) = ({n}, {k})"
            )
    return V


# --- JSON -----------------------------------------------------------------------


def matrix_to_json(mat: list[list[int]], n: int, k: int) -> dict:
    return {"n": n, "k": k, "dim": len(mat), "rows": mat}
