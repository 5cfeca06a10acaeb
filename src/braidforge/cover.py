"""
cover: the k-fold cyclic branched cover of the disk over n points, braid
lifts as Dehn-twist words, and the integral homology representation.

The covering surface is the Seifert surface of the (n, k) torus link: n disks
joined by k bands between each adjacent pair.  H_1 has rank (n-1)(k-1), with
basis the classes of the curves running through bands l and l+1 between disks
i and i+1 (1 <= i <= n-1, 1 <= l <= k-1), numbered e = (i-1)(k-1) + l.  A
twist word holds each letter as a signed integer: e for the Dehn twist t_{i,l}
about basis curve e, and -e for its inverse.  A braid generator lifts to the
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
Python integers, and a reduced Burau matrix is a dict from each exponent of t
to its coefficient matrix, with no zero coefficient.  A matrix of rank
(n-1)(k-1) above MAX_H1_RANK is refused before it is allocated, and so are a
lift of more than MAX_WORD_LETTERS twists and a Burau matrix of more than
MAX_BURAU_ENTRIES entries.
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
    "TwistWord",
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


def _check_cover(n: int, k: int) -> None:
    """Refuse an (n, k) that names no cover: both must be ints, not bools
    or floats, and at least 2."""
    if type(n) is not int or type(k) is not int:
        raise ValueError(f"cover needs int n and k, got ({n!r}, {k!r})")
    if n < 2 or k < 2:
        raise ValueError(f"cover needs n >= 2 and k >= 2, got ({n}, {k})")


def cover_data(n: int, k: int) -> CoverData:
    """Invariants of the cover: n + k - nk disks-minus-bands Euler count,
    gcd(n, k) boundary circles, and first homology of rank (n-1)(k-1)."""
    _check_cover(n, k)
    euler = n + k - n * k
    boundary = gcd(n, k)
    genus, rem = divmod(2 - boundary - euler, 2)
    if rem:
        raise AssertionError("internal error: inconsistent Euler characteristic")
    return CoverData(n, k, euler, boundary, genus, (n - 1) * (k - 1))


# --- twist words ----------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class TwistWord:
    """
    A word in the twist generators of the (n, k) cover, read left to right.
    Letter e > 0 is the twist t_{i,l} about basis curve e = (i-1)(k-1) + l,
    and -e is its inverse; every letter is an int with 1 <= |e| <= (n-1)(k-1).
    """

    n: int
    k: int
    letters: tuple[int, ...] = ()

    def __post_init__(self):
        _check_cover(self.n, self.k)
        top = (self.n - 1) * (self.k - 1)
        for v in self.letters:
            if type(v) is not int or not 0 < abs(v) <= top:
                raise ValueError(
                    f"a twist letter must be a nonzero int in [-{top}, {top}], got {v!r}"
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
    _check_cover(b.strands, k)
    count = len(b) * (k - 1)
    if count > MAX_WORD_LETTERS:
        raise ValueError(f"lift would have {count} twists, more than {MAX_WORD_LETTERS}")
    m = k - 1
    letters: list[int] = []
    for v in b.letters:
        # the chain of σ_i runs over the basis curves (i-1)m + 1, ..., im
        if v > 0:
            letters.extend(range((v - 1) * m + 1, v * m + 1))
        else:
            letters.extend(range(v * m, (v + 1) * m))
    return TwistWord(b.strands, k, tuple(letters))


_TWIST_TOKEN = re.compile(r"t\[(\d+),(\d+)\](\^-1)?$")


def parse_twist_word(text: str, n: int, k: int) -> TwistWord:
    """Parse twist-word text: letters "t[i,l]" and "t[i,l]^-1", whitespace
    separated, with 1 <= i <= n-1 and 1 <= l <= k-1."""
    letters = []
    for token in text.split():
        m = _TWIST_TOKEN.match(token)
        if m is None:
            raise ValueError(f"malformed twist letter {token!r}")
        i, l = int(m.group(1)), int(m.group(2))
        if not (0 < i < n and 0 < l < k):
            raise ValueError(f"twist t[{i},{l}] out of range for (n, k) = ({n}, {k})")
        e = (i - 1) * (k - 1) + l
        letters.append(-e if m.group(3) else e)
    return TwistWord(n, k, tuple(letters))


def format_twist_word(w: TwistWord) -> str:
    m = w.k - 1
    out = []
    for v in w.letters:
        i, l = divmod(abs(v) - 1, m)
        out.append(f"t[{i + 1},{l + 1}]" + ("" if v > 0 else "^-1"))
    return " ".join(out)


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


def _block_diagonal(m: int, blocks: list[list[tuple[int, int, int]]]) -> list[list[int]]:
    """The block-diagonal matrix of m x m blocks, each given by its nonzero
    entries (row, column, value)."""
    d = m * len(blocks)
    out = [[0] * d for _ in range(d)]
    for start, entries in zip(range(0, d, m), blocks):
        for r, c, v in entries:
            out[start + r][start + c] = v
    return out


def _h1_rank(n: int, k: int) -> int:
    """The H_1 rank (n-1)(k-1) of a matrix about to be built, refused for
    an (n, k) that names no cover or above MAX_H1_RANK."""
    _check_cover(n, k)
    d = (n - 1) * (k - 1)
    if d > MAX_H1_RANK:
        raise ValueError(f"H_1 rank (n-1)(k-1) = {d} is more than {MAX_H1_RANK}")
    return d


# --- intersection form, deck action, homology ------------------------------------


# (disk step, band step, pairing) of the at most six curves meeting e_{i,l}
_NEIGHBOURS = ((0, 1, -1), (0, -1, 1), (1, 0, -1), (-1, 0, 1), (1, -1, 1), (-1, 1, -1))


def _pairing_rows(n: int, k: int) -> list[list[tuple[int, int]]]:
    """For each basis curve e = e_{i,l} in basis order, the nonzero entries
    (f, J[e, f]) of its row of the intersection form, f counted from 0."""
    m = k - 1
    return [
        [
            ((i + di - 1) * m + l + dl - 1, v)
            for di, dl, v in _NEIGHBOURS
            if 0 < i + di < n and 0 < l + dl < k
        ]
        for i in range(1, n)
        for l in range(1, k)
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
    d = _h1_rank(n, k)
    J = [[0] * d for _ in range(d)]
    for row, pairs in zip(J, _pairing_rows(n, k)):
        for f, v in pairs:
            row[f] = v
    return J


def deck_matrix(n: int, k: int) -> list[list[int]]:
    """The H_1 action of the deck transformation: one companion block of
    1 + t + ... + t^{k-1} per disk gap, of order exactly k."""
    _h1_rank(n, k)
    return _block_diagonal(k - 1, [_companion_power(k, 1)] * (n - 1))


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
    rows = _pairing_rows(w.n, w.k)
    for v in w.letters:
        col = cols[abs(v) - 1]
        for j, p in rows[abs(v) - 1]:
            # J[j, e] = -J[e, j] = -p
            cols[j] = list(map(sub if v * p > 0 else add, cols[j], col))
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


# the entries of row i of the Burau image of σ_i^{±1}, by sign, as
# (column offset from i, exponent of t, coefficient)
_BURAU_ROW = {
    1: ((-1, 1, 1), (0, 1, -1), (1, 0, 1)),
    -1: ((-1, 0, 1), (0, -1, -1), (1, -1, 1)),
}


def burau_reduced(b: BraidWord) -> dict[int, list[list[int]]]:
    """
    The reduced Burau matrix of a braid word, letters multiplied in word
    order, as a dict from each exponent of t to its integer coefficient
    matrix; no coefficient in it is zero.  The image of σ_i^{±1} differs from
    the identity only in row i, which reads (t, -t, 1) for σ_i and
    (1, -t^{-1}, t^{-1}) for σ_i^{-1}, centred on the diagonal and cut off at
    the edges (σ_1 ↦ [-t] for n = 2).
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
    return {e: _transpose(cs) for e, cs in cols.items() if any(map(any, cs))}


def _companion_power(k: int, e: int, sign: int = 1) -> list[tuple[int, int, int]]:
    """
    The nonzero entries (row, column, value) of sign·K^e, K the companion
    matrix of 1 + t + ... + t^{k-1}, the deck action on one row of curves.
    K multiplies by t in Z[t]/(1 + t + ... + t^{k-1}) on the basis
    1, t, ..., t^{k-2}, so column i of K^e is the class of t^{(i+e) mod k},
    with t^{k-1} = -(1 + t + ... + t^{k-2}): at most 2k - 3 entries.
    """
    m = k - 1
    out = []
    for i in range(m):
        s = (i + e) % k
        if s < m:
            out.append((s, i, sign))
        else:
            out.extend((r, i, -sign) for r in range(m))
    return out


def burau_at_companion(b: BraidWord, k: int) -> list[list[int]]:
    """Reduced Burau with the companion matrix K of 1 + t + ... + t^{k-1}
    substituted blockwise for t: an (n-1)(k-1) integer matrix modelling the
    H_1 action on the k-fold cover, in which entry p(t) becomes the block
    p(K).  Each nonzero coefficient of t^e adds its multiple of the at most
    2k - 3 entries of K^e."""
    d = _h1_rank(b.strands, k)
    m = k - 1
    burau = burau_reduced(b)
    acc = [[0] * d for _ in range(d)]
    for e, mat in burau.items():
        power = _companion_power(k, e)
        for r, row in enumerate(mat):
            block = acc[r * m : (r + 1) * m]
            for c, v in enumerate(row):
                if v:
                    start = c * m
                    for s, i, x in power:
                        block[s][start + i] += v * x
    return acc


# --- the Burau base change --------------------------------------------------------


def base_change(n: int, k: int) -> list[list[int]]:
    """
    The unimodular V with homology_rep(lift(b))·V = V·burau_at_companion(b)
    for every braid b on n strands: V = diag(W, W^2, ..., W^{n-1}) with
    W = -K^{-1} = -K^{k-1}, K the companion matrix of 1 + t + ... + t^{k-1},
    so that W^j = (-1)^j K^{-j}.  It is unique up to the commutant of the
    Burau images.  Before returning, V is checked on every generator σ_i, and
    W^j·(-K)^j = I on every block, W·(-K) = I first, which makes V unimodular.
    """
    d = _h1_rank(n, k)
    m = k - 1
    V = _block_diagonal(m, [_companion_power(k, -j, (-1) ** j) for j in range(1, n)])
    inverse = _block_diagonal(m, [_companion_power(k, j, (-1) ** j) for j in range(1, n)])
    if _mul(V, inverse) != _identity(d):
        raise AssertionError(f"internal error: W^j·(-K)^j is not I for (n, k) = ({n}, {k})")
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
