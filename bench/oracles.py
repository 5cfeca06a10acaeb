"""
Independent oracles for checking braidforge's outputs.

Nothing here imports braidforge: every answer is recomputed from the
definitions, so that a fault in the program cannot hide in its own check.

Words are sequences of nonzero signed integers (i is σ_i, -i its inverse) on
n strands.  Matrices are lists of rows of Python integers (or Fractions).

* Reduced Burau, evaluated exactly at a rational t, in the convention where
  σ_i changes only row i:  [.. t, -t, 1 ..]  (σ_1 ∈ B_2 ↦ [-t]).  Matrices
  multiply in word order.
* Reduced Burau with the companion matrix K of 1 + t + ... + t^{k-1}
  substituted blockwise for t: the homology action on the k-fold cyclic
  cover, up to an integral base change.
* The deck matrix: one companion block per disk gap.
* Bareiss fraction-free determinant.
* Left-weightedness of a Garside normal form given as Δ-power and
  permutation tuples (images[j-1] = end position of the strand starting at j).
"""

from __future__ import annotations

from fractions import Fraction

# --- words and permutations ----------------------------------------------------


def invert(w: list[int]) -> list[int]:
    return [-v for v in reversed(w)]


def permutation(w: list[int], n: int) -> tuple[int, ...]:
    """End position of the strand starting at each position, read left to right."""
    strand_at = list(range(1, n + 1))  # position -> strand
    for v in w:
        i = abs(v)
        strand_at[i - 1], strand_at[i] = strand_at[i], strand_at[i - 1]
    images = [0] * n
    for pos, strand in enumerate(strand_at, start=1):
        images[strand - 1] = pos
    return tuple(images)


def cycles(p: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Cycles of a permutation, each from its smallest element, in order."""
    seen = set()
    out = []
    for start in range(1, len(p) + 1):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        v = p[start - 1]
        while v != start:
            cyc.append(v)
            seen.add(v)
            v = p[v - 1]
        out.append(tuple(cyc))
    return out


def permutation_braid_word(p: tuple[int, ...]) -> list[int]:
    """A positive word for the permutation braid of p: peel off a crossing
    σ_i at the front while the strands at positions i, i+1 cross."""
    p = list(p)
    out = []
    while True:
        for i in range(1, len(p)):
            if p[i - 1] > p[i]:
                out.append(i)
                p[i - 1], p[i] = p[i], p[i - 1]
                break
        else:
            return out


def half_twist_word(n: int) -> list[int]:
    return permutation_braid_word(tuple(range(n, 0, -1)))


def starting_set(p: tuple[int, ...]) -> set[int]:
    """Generators σ_i that can start the permutation braid of p."""
    return {i for i in range(1, len(p)) if p[i - 1] > p[i]}


def finishing_set(p: tuple[int, ...]) -> set[int]:
    """Generators σ_i that can finish the permutation braid of p: the strands
    ending at positions i and i+1 cross."""
    inv = [0] * len(p)
    for j, v in enumerate(p, start=1):
        inv[v - 1] = j
    return {i for i in range(1, len(p)) if inv[i - 1] > inv[i]}


def is_left_weighted(n: int, factors: list[tuple[int, ...]]) -> bool:
    """No factor is trivial or Δ, every factor is a permutation of 1..n, and
    each consecutive pair is left-weighted: whatever can start the second
    factor finishes the first."""
    ident = tuple(range(1, n + 1))
    w0 = tuple(range(n, 0, -1))
    for f in factors:
        if sorted(f) != list(ident) or f in (ident, w0):
            return False
    return all(
        starting_set(b) <= finishing_set(a) for a, b in zip(factors, factors[1:])
    )


def normal_form_word(n: int, delta: int, factors: list[tuple[int, ...]]) -> list[int]:
    """The word Δ^delta · x_1 ... x_ℓ of a normal form."""
    half = half_twist_word(n)
    out = (half if delta >= 0 else invert(half)) * abs(delta)
    for f in factors:
        out.extend(permutation_braid_word(f))
    return out


# --- exact reduced Burau at a rational t ----------------------------------------


class Burau:
    """Reduced Burau of a word at an integer t, kept exactly as A / t^scale
    with A an integer matrix, so long words cost integer operations only."""

    __slots__ = ("t", "rows", "scale")

    def __init__(self, t: int, rows: list[list[int]], scale: int = 0):
        self.t = t
        self.rows = rows
        self.scale = scale

    @classmethod
    def of(cls, w: list[int], n: int, t: int) -> "Burau":
        d = n - 1
        b = cls(t, [[int(r == c) for c in range(d)] for r in range(d)])
        for v in w:
            b._apply(abs(v) - 1, v > 0)
        return b

    def _apply(self, r: int, positive: bool) -> None:
        """Right-multiply by the image of σ_{r+1}^{±1}, which differs from the
        identity only in row r; columns r-1, r, r+1 change."""
        t = self.t
        d = len(self.rows)
        for row in self.rows:
            x = row[r]
            if positive:  # row r of σ: (t, -t, 1)
                if r > 0:
                    row[r - 1] += t * x
                row[r] = -t * x
                if r + 1 < d:
                    row[r + 1] += x
            else:  # row r of t·σ^{-1}: (t, -1, 1); the other rows are t·I
                for c in range(d):
                    if c != r:
                        row[c] *= t
                if r > 0:
                    row[r - 1] += t * x
                row[r] = -x
                if r + 1 < d:
                    row[r + 1] += x
        if not positive:
            self.scale += 1

    def __matmul__(self, other: "Burau") -> "Burau":
        return Burau(self.t, mat_mul(self.rows, other.rows), self.scale + other.scale)

    def power(self, e: int) -> "Burau":
        if e < 0:
            raise ValueError("negative powers: take the power of the inverse word")
        d = len(self.rows)
        out = Burau(self.t, [[int(r == c) for c in range(d)] for r in range(d)])
        base = self
        while e:
            if e & 1:
                out = out @ base
            base = base @ base
            e >>= 1
        return out

    def fractions(self) -> list[list[Fraction]]:
        den = self.t**self.scale
        return [[Fraction(v, den) for v in row] for row in self.rows]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Burau) or self.t != other.t:
            return NotImplemented
        # A/t^s == B/t^u  iff  A·t^u == B·t^s
        fa, fb = self.t**other.scale, self.t**self.scale
        return all(
            x * fa == y * fb
            for ra, rb in zip(self.rows, other.rows)
            for x, y in zip(ra, rb)
        )

    def trace_powers(self) -> tuple[Fraction, ...]:
        """tr M, tr M², ..., tr M^d: they fix the characteristic polynomial,
        so braids with different tuples are not conjugate."""
        m = self.fractions()
        d = len(m)
        out = []
        p = m
        for _ in range(d):
            out.append(sum(p[i][i] for i in range(d)))
            p = mat_mul(p, m)
        return tuple(out)


def burau_equal(a: list[int], b: list[int], n: int, ts=(2, 3)) -> bool:
    """Whether two words have the same reduced Burau image at every t in ts."""
    return all(Burau.of(a, n, t) == Burau.of(b, n, t) for t in ts)


def conjugacy_invariant(w: list[int], n: int) -> tuple:
    """Traces of the powers of the Burau matrix at t = 2 and t = 3."""
    return tuple(Burau.of(w, n, t).trace_powers() for t in (2, 3))


# --- integer matrices -------------------------------------------------------------


def identity(d: int) -> list[list[int]]:
    return [[int(r == c) for c in range(d)] for r in range(d)]


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def det(m) -> int:
    """Fraction-free Bareiss determinant of an integer matrix."""
    m = [list(row) for row in m]
    d = len(m)
    if d == 0:
        return 1
    sign, prev = 1, 1
    for p in range(d - 1):
        if m[p][p] == 0:
            swap = next((r for r in range(p + 1, d) if m[r][p] != 0), None)
            if swap is None:
                return 0
            m[p], m[swap] = m[swap], m[p]
            sign = -sign
        for r in range(p + 1, d):
            for c in range(p + 1, d):
                m[r][c] = (m[r][c] * m[p][p] - m[r][p] * m[p][c]) // prev
            m[r][p] = 0
        prev = m[p][p]
    return sign * m[d - 1][d - 1]


# --- the cyclic cover side ---------------------------------------------------------


def companion(k: int) -> list[list[int]]:
    """Companion matrix of 1 + t + ... + t^{k-1}: ones below the diagonal and
    the negated coefficients (all -1) in the last column."""
    m = k - 1
    K = [[0] * m for _ in range(m)]
    for r in range(m):
        if r > 0:
            K[r][r - 1] = 1
        K[r][m - 1] = -1
    return K


def deck_matrix(n: int, k: int) -> list[list[int]]:
    """Block diagonal with one companion block per disk gap."""
    m = k - 1
    d = (n - 1) * m
    K = companion(k)
    D = [[0] * d for _ in range(d)]
    for g in range(n - 1):
        for r in range(m):
            for c in range(m):
                D[g * m + r][g * m + c] = K[r][c]
    return D


def burau_at_companion(w: list[int], n: int, k: int) -> list[list[int]]:
    """Reduced Burau with K substituted blockwise for t (K^{-1} = K^{k-1},
    since K^k = I).  Column blocks r-1, r, r+1 change per letter, exactly as
    in Burau._apply with t replaced by K acting on the right."""
    m = k - 1
    d = (n - 1) * m
    K = companion(k)
    K_inv = identity(m)
    for _ in range(k - 1):
        K_inv = mat_mul(K_inv, K)
    M = identity(d)

    def times(vec, P):  # row vector times an m×m block
        return [sum(vec[l] * P[l][j] for l in range(m)) for j in range(m)]

    for v in w:
        r = abs(v) - 1
        for row in M:
            x = row[r * m:(r + 1) * m]
            if v > 0:  # (t, -t, 1)
                tx = times(x, K)
                if r > 0:
                    for j in range(m):
                        row[(r - 1) * m + j] += tx[j]
                row[r * m:(r + 1) * m] = [-y for y in tx]
                if r + 1 < n - 1:
                    for j in range(m):
                        row[(r + 1) * m + j] += x[j]
            else:  # (1, -t^{-1}, t^{-1})
                ix = times(x, K_inv)
                if r > 0:
                    for j in range(m):
                        row[(r - 1) * m + j] += x[j]
                row[r * m:(r + 1) * m] = [-y for y in ix]
                if r + 1 < n - 1:
                    for j in range(m):
                        row[(r + 1) * m + j] += ix[j]
    return M


# --- quasipositive certificates and cabling ----------------------------------------


def expand_bands(bands: list[tuple[list[int], int]]) -> list[int]:
    """The word of a product of bands w σ_g w^{-1}."""
    out: list[int] = []
    for conj, gen in bands:
        out.extend(conj)
        out.append(gen)
        out.extend(invert(conj))
    return out


def cable(tubular: list[int], widths: tuple[int, ...]) -> list[int]:
    """The cabled word: each tubular crossing becomes the permutation braid
    that moves the two blocks past each other (positive crossing) or the
    inverse of the one moving them back (negative crossing)."""
    arr = list(widths)
    out: list[int] = []
    for v in tubular:
        j = abs(v)
        left = sum(arr[: j - 1])
        p, q = arr[j - 1], arr[j]
        if v > 0:
            out.extend(left + x for x in _block_swap(p, q))
        else:
            out.extend(-(left + x) for x in reversed(_block_swap(q, p)))
        arr[j - 1], arr[j] = arr[j], arr[j - 1]
    return out


def _block_swap(p: int, q: int) -> list[int]:
    """Positive permutation braid taking a width-p block across a width-q
    block to its right."""
    images = tuple([q + j for j in range(1, p + 1)] + [j for j in range(1, q + 1)])
    return permutation_braid_word(images)


def composite(tubular: list[int], widths: tuple[int, ...], interiors: list[list[int]]) -> list[int]:
    """Cabled tubular word followed by each orbit's interior on the block of
    the orbit's first tube position."""
    out = cable(tubular, widths)
    for orbit, interior in zip(cycles(permutation(tubular, len(widths))), interiors):
        offset = sum(widths[: orbit[0] - 1])
        out.extend(v + offset if v > 0 else v - offset for v in interior)
    return out
