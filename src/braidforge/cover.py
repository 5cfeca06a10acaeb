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
index.  The H_1 product keeps each column packed into one Python integer,
entry r in a signed field r of fixed width, so a twist costs at most six
big-integer adds; the fields start at 64 bits, double only when the
entries themselves could outgrow them, and are decoded once at the end.

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
lift of more than MAX_WORD_LETTERS twists, packed H_1 columns of more than
MAX_H1_BITS bits and a Burau matrix of more than MAX_BURAU_ENTRIES entries.
Homology-level equality of twist words is a necessary condition for equality
in the mapping class group, never claimed sufficient.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from itertools import compress, repeat
from operator import add, lshift, neg, sub

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
# of small integers takes 8·d² bytes, 32 MB at the cap, and so do the
# packed columns `homology_rep` builds it from while their fields are
# _START_WIDTH = 64 bits wide.
MAX_H1_RANK = 2000

# The field width, in bits, of a packed H_1 column when a matrix is started;
# it doubles whenever an entry could outgrow it.  A multiple of 64, since
# `_unpack` reads whole 64-bit limbs.
_START_WIDTH = 64

# The most bits, d² times the field width, of the packed columns of one H_1
# matrix: 128 MB, 256-bit fields at MAX_H1_RANK.  Every field has the width
# of the largest entry, so entries that grow in a few columns of a large
# matrix would otherwise widen all d² fields; such a matrix is refused.
MAX_H1_BITS = 256 * MAX_H1_RANK**2

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


@lru_cache(maxsize=8)
def _pairing_rows(n: int, k: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """For each basis curve e = e_{i,l} in basis order, the nonzero entries
    (f, J[e, f]) of its row of the intersection form, f counted from 0;
    immutable, so the few covers in use keep theirs."""
    m = k - 1
    return tuple(
        tuple(
            ((i + di - 1) * m + l + dl - 1, v)
            for di, dl, v in _NEIGHBOURS
            if 0 < i + di < n and 0 < l + dl < k
        )
        for i in range(1, n)
        for l in range(1, k)
    )


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


def _field_bias(d: int, width: int) -> int:
    """2^(width-1) in each of d fields of the given width: added to a packed
    column it makes every field nonnegative, and XOR with it then leaves
    each field's entry in two's complement."""
    return int.from_bytes((bytes(width // 8 - 1) + b"\x80") * d, "little")


def _unpack(col: int, d: int, width: int, bias: int) -> list[int]:
    """The d entries of a packed column, read in one pass over its bytes as
    64-bit limbs, the top limb of each field signed.  Raises unless every
    field decodes within [-2^(width-2), 2^(width-2)), where the bounds of
    `_twist_columns` keep every entry: past that, the entries are lost."""
    biased = col + bias
    if biased < 0 or biased.bit_length() > d * width:
        raise AssertionError("internal error: a packed H_1 column overflows its top field")
    fields = biased ^ bias
    # the top two bits of each field, in two's complement, must be equal
    if (fields ^ (fields << 1)) & bias:
        raise AssertionError("internal error: a packed H_1 entry outgrew its field")
    limbs = width // 64
    layout = "<" + ("Q" * (limbs - 1) + "q") * d
    values = struct.unpack(layout, fields.to_bytes(d * width // 8, "little"))
    entries = values[limbs - 1 :: limbs]
    for i in reversed(range(limbs - 1)):
        entries = map(add, map(lshift, entries, repeat(64)), values[i::limbs])
    return list(entries)


def _magnitude(entries: list[int]) -> int:
    """The largest |entry| of a nonempty list."""
    return max(max(entries), -min(entries))


def _pack(entries: list[int], width: int, bias: int) -> int:
    """The packed column of the entries, each of which fits a signed field."""
    size = width // 8
    raw = b"".join(x.to_bytes(size, "little", signed=True) for x in entries)
    return (int.from_bytes(raw, "little") ^ bias) - bias


def _twist_columns(w: TwistWord) -> tuple[list[int], int]:
    """
    The columns of the H_1 matrix of a twist word, each packed into one
    Python integer: entry r of a column is field r, of `width` bits, so the
    column is the sum of entry_r·2^(r·width) and adding two columns adds
    their entries.  The twist about basis curve e right-multiplies by
    I ± e·(Je)^T, which adds ±J[j, e] times column e to each of the at most
    six columns j with J[j, e] != 0: one big-integer add each.  Column e
    itself never changes, since J[e, e] = 0.

    bounds[j] >= max |entry| of column j, kept by bounds[j] += bounds[e] on
    each add (the triangle inequality).  Every bound stays below
    2^(width-2), so every field holds its entry.  When an add would break
    that, the two bounds are first replaced by their columns' exact maxima,
    since cancelling letters leave bounds far above the entries; only if
    they still do not fit is every column re-encoded at twice the width,
    refused with ValueError past MAX_H1_BITS.  Returns the columns and the
    width.
    """
    d = _h1_rank(w.n, w.k)
    rows = _pairing_rows(w.n, w.k)
    width, bias = _START_WIDTH, _field_bias(d, _START_WIDTH)
    cols = [1 << (j * width) for j in range(d)]
    bounds = [1] * d
    limit = 1 << (width - 2)
    for v in w.letters:
        e = abs(v) - 1
        for j, p in rows[e]:
            if bounds[j] + bounds[e] >= limit:
                for c in (j, e):
                    bounds[c] = _magnitude(_unpack(cols[c], d, width, bias))
                if bounds[j] + bounds[e] >= limit:
                    width, bias = _widen(cols, bounds, width, bias)
                    limit = 1 << (width - 2)
            # J[j, e] = -J[e, j] = -p
            if v * p > 0:
                cols[j] -= cols[e]
            else:
                cols[j] += cols[e]
            bounds[j] += bounds[e]
    return cols, width


def _widen(cols: list[int], bounds: list[int], width: int, bias: int) -> tuple[int, int]:
    """Re-encode every packed column at twice the field width, one column
    at a time, with exact bounds; returns the new width and its bias."""
    d = len(cols)
    wide = 2 * width
    if d * d * wide > MAX_H1_BITS:
        raise ValueError(
            f"H_1 entries of rank {d} need {wide}-bit fields, more than {MAX_H1_BITS} bits in all"
        )
    wide_bias = _field_bias(d, wide)
    for j, col in enumerate(cols):
        entries = _unpack(col, d, width, bias)
        bounds[j] = _magnitude(entries)
        cols[j] = _pack(entries, wide, wide_bias)
    return wide, wide_bias


def _h1_columns(w: TwistWord) -> list[list[int]]:
    """The columns of the H_1 matrix of a twist word, each decoded once."""
    cols, width = _twist_columns(w)
    d = len(cols)
    bias = _field_bias(d, width)
    return [_unpack(col, d, width, bias) for col in cols]


def homology_rep(w: TwistWord) -> list[list[int]]:
    """
    The integer H_1 matrix of a twist word: the product of the letters'
    transvections in word order (matrices act on column vectors; the map is a
    homomorphism into matrices multiplied left-to-right).  The columns are
    built packed, one integer each (see `_twist_columns`), decoded once and
    transposed once at the end.
    """
    return _transpose(_h1_columns(w))


def _blocks_times(
    entries: list[tuple[int, int, int]], rows: list[list[int]], m: int
) -> list[list[int]]:
    """The rows of B·X, for B block diagonal with every m x m block given by
    the same entries (row, column, ±1), at least one in each row, and X
    given by its rows."""
    out = []
    for start in range(0, len(rows), m):
        block: list = [None] * m
        for r, c, v in entries:
            x = rows[start + c]
            if block[r] is None:
                block[r] = list(x) if v > 0 else list(map(neg, x))
            else:
                block[r] = list(map(add if v > 0 else sub, block[r], x))
        out.extend(block)
    return out


def symmetry_check(w: TwistWord) -> bool:
    """Necessary condition for the twist word to define a symmetric mapping
    class: its H_1 matrix H commutes with the deck action D.  D has one
    companion block K per disk gap, so D·H combines rows of H and
    (H·D)^T = D^T·H^T combines its columns, by the at most 2k - 3 entries
    of K; no d x d product is formed."""
    columns = _h1_columns(w)
    K = _companion_power(w.k, 1)
    m = w.k - 1
    K_transpose = [(c, r, v) for r, c, v in K]
    # (D·H)^T from the rows of H, and (H·D)^T from its columns
    DH_transpose = _transpose(_blocks_times(K, _transpose(columns), m))
    return DH_transpose == _blocks_times(K_transpose, columns, m)


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


def _sparse_product(A: list[tuple[int, int, int]], B: list[tuple[int, int, int]]) -> dict:
    """The nonzero entries {(row, column): value} of A·B, for matrices given
    by their nonzero entries (row, column, value); an entry given twice
    counts twice."""
    by_row: dict[int, list[tuple[int, int]]] = {}
    for s, c, v in B:
        by_row.setdefault(s, []).append((c, v))
    out: dict[tuple[int, int], int] = {}
    for r, s, a in A:
        for c, v in by_row.get(s, ()):
            out[r, c] = out.get((r, c), 0) + a * v
    return {key: v for key, v in out.items() if v}


def base_change(n: int, k: int) -> list[list[int]]:
    """
    The unimodular V with homology_rep(lift(b))·V = V·burau_at_companion(b)
    for every braid b on n strands: V = diag(W, W^2, ..., W^{n-1}) with
    W = -K^{-1} = -K^{k-1}, K the companion matrix of 1 + t + ... + t^{k-1},
    so that W^j = (-1)^j K^{-j}.  It is unique up to the commutant of the
    Burau images.  Before returning, W^j·(-K)^j = I is checked on every
    block, which makes V unimodular, and V on every generator σ_i as
    (H_i - I)·V = V·(B_i - I) on the sparse entries: H_i - I from the
    columns the lift of σ_i changes, and B_i - I from row i of the Burau
    image of σ_i (`_BURAU_ROW`) at K, less the identity.
    """
    d = _h1_rank(n, k)
    m = k - 1
    blocks = [_companion_power(k, -j, (-1) ** j) for j in range(1, n)]
    identity = {(r, r): 1 for r in range(m)}
    for j, block in enumerate(blocks, 1):
        if _sparse_product(block, _companion_power(k, j, (-1) ** j)) != identity:
            raise AssertionError(f"internal error: W^{j}·(-K)^{j} is not I for (n, k) = ({n}, {k})")
    V = [(start + r, start + c, v) for start, block in zip(range(0, d, m), blocks) for r, c, v in block]
    for i in range(1, n):
        cols, width = _twist_columns(lift_word(word(n, [i]), k))
        bias = _field_bias(d, width)
        changed = []
        for c, col in enumerate(cols):
            unit = 1 << (c * width)
            if col != unit:
                entries = _unpack(col - unit, d, width, bias)
                changed.extend((r, c, entries[r]) for r in compress(range(d), entries))
        row = (i - 1) * m
        burau = [(row + s, row + s, -1) for s in range(m)]
        for offset, shift, coefficient in _BURAU_ROW[1]:
            if 0 < i + offset < n:
                column = (i - 1 + offset) * m
                power = _companion_power(k, shift, coefficient)
                burau.extend((row + s, column + c, v) for s, c, v in power)
        if _sparse_product(changed, V) != _sparse_product(V, burau):
            raise AssertionError(
                f"internal error: the Burau base change fails on σ_{i} for (n, k) = ({n}, {k})"
            )
    return _block_diagonal(m, blocks)


# --- JSON -----------------------------------------------------------------------


def matrix_to_json(mat: list[list[int]], n: int, k: int) -> dict:
    return {"n": n, "k": k, "dim": len(mat), "rows": mat}
