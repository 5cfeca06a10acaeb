"""
garside: canonical forms and decision procedures in the braid group B_n.

Every element of B_n has a unique left normal form Δ^p x_1 ... x_ℓ where Δ is
the positive half twist, each factor x_i is a permutation braid (a positive
braid in which every pair of strands crosses at most once, recorded by its
permutation), no factor is trivial or Δ, and each consecutive pair is
left-weighted: every generator that can start x_{i+1} must finish x_i.  The
normal form is computed by local pair rewriting and solves the word problem;
inf = p and sup = p + ℓ are the usual Garside invariants.

Internally an element is the raw pair (p, factors) of image tuples, and one
kernel, `_normalize`, left-normalizes Δ^p times any list of permutation
braids, appending them one at a time; the pair becomes a `NormalForm` only
where a public function returns.  A word is first reduced as a heap of pieces
(`_heap_letters`: free cancellation up to far commutation, read out level by
level so that letters of one sign stay together), then enters the kernel as
simple steps, one per maximal run of letters of one sign that is a
permutation braid (`_simple_steps`).

Conjugacy is decided by reducing both elements onto sliding circuits
(iterated cyclic sliding, Gebhardt & González-Meneses 2010), which lie in
their super summit sets, and closing one set under conjugation by
permutation braids, which is complete by the convexity theorem for super
summit sets.  Each move is one `_normalize` call: conjugation by a simple s
is Δ^{p-1} τ^{p-1}(∂s) x_1 ... x_ℓ s, ∂s = s^{-1}Δ, and a slide is that
move by the preferred prefix, read off the left-weighted pair (x_ℓ,
τ^p(x_1)) with no meet.  The reduction ends when a state comes back; the
loop's steps are dropped from the conjugator and kept as the circuit, any
state of which the search may land on.  A conjugator is a list of simple
steps, and the witness is normalized once, then verified.  The search
carries an explicit node budget; exhausting it raises BudgetExceededError
rather than guessing.  The same sliding, with no search, writes a braid
whose circuit is positive as a conjugate of a positive braid
(`_positive_conjugate`): that is how `quasipositive.obstruct` certifies a
band.

Normal forms are not confined to desk scale.  Reducing a word is linear in
its length.  Left-weighting a pair costs O(n) plus O(1) per letter it moves
(see `_renorm`); each appended factor costs one right-to-left pass that stops
at the first pair where nothing moves, so a factor already left-weighted
after the last one costs one pair; and a factor that becomes Δ goes to the
front in one step, applying τ to the factors before it.  The conjugacy
search is: it is written for n up to about 6 or 7 and canonical lengths in
the tens, since each node it expands normalizes all n! - 1 simple
conjugates, and it refuses to expand nodes above MAX_SEARCH_STRANDS.  B_n
maps to ℤ ≀ S_n, each strand coloured by the signed crossings it takes
part in, and s^{-1} x s can be a state of the circuit only when s carries
each cycle of x's permutation onto a cycle of that state's with the same
length and colour sum, so a node tests those first and returns at the first
hit.  The colours are read once from each input word, by the strand walk
in `words`, and carried by relabelling: conjugation by s moves each cycle c
to s(c).
Reducible-braid structure (see `cabling`) is always caller-supplied, never
detected here.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache

from .words import (
    MAX_WORD_LETTERS,
    BraidWord,
    Permutation,
    _word_colouring,
    conjugate,
    exponent_sum,
    identity_word,
    power,
    word,
)

__all__ = [
    "NormalForm",
    "PeriodicRoot",
    "PeriodicRootKind",
    "ConjugacyResult",
    "BudgetExceededError",
    "half_twist",
    "delta_root_word",
    "gamma_root_word",
    "normal_form",
    "nf_to_word",
    "nf_mul",
    "nf_inv",
    "nf_to_json",
    "is_equal",
    "inf_sup",
    "is_positive_braid",
    "is_periodic",
    "periodic_root",
    "is_conjugate",
    "power",
]

DEFAULT_BUDGET = 2000

# The most entries, strands times letters, of a word whose normal form is
# computed: it holds up to one n-tuple per letter, about 44 bytes an entry.
# `cable cert` at widths [10, 10, 10] normal-forms 1.8 million.
MAX_NF_ENTRIES = 5_000_000

# The most strands on which the conjugacy search expands summit-set nodes.
# Each node normalizes all n! - 1 simple conjugates, generated as it goes, so
# this bounds the time a node takes: 0.9-1.0 s at n = 8 on a 2-core x86-64
# VM, and nine times as many conjugates at n = 9.
# Tests, demos, verify-paper and the benchmark expand nodes up to n = 6.
MAX_SEARCH_STRANDS = 8


class BudgetExceededError(RuntimeError):
    """Conjugacy search ran out of its node budget: the answer is unknown,
    which is distinct from 'not conjugate'."""

    def __init__(self, nodes: int):
        super().__init__(f"conjugacy search budget exhausted after {nodes} nodes")
        self.nodes = nodes


# --- permutation-tuple helpers (hot path works on raw 1-based image tuples) --


# built once per n: words.MAX_STRANDS bounds both caches
@lru_cache(maxsize=None)
def _t_identity(n: int) -> tuple[int, ...]:
    return tuple(range(1, n + 1))


@lru_cache(maxsize=None)
def _t_w0(n: int) -> tuple[int, ...]:
    return tuple(range(n, 0, -1))


def _t_inv(p: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v - 1] = i + 1
    return tuple(out)


def _t_then(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(q[v - 1] for v in p)


def _t_tau(p: tuple[int, ...]) -> tuple[int, ...]:
    """Conjugation by Δ: τ(x) = Δ^{-1} x Δ, an involution on permutations."""
    m = len(p) + 1
    return tuple([m - v for v in reversed(p)])


# The most pairs the _renorm cache keeps.  The benchmark's conj-qp workload
# reuses about 4 300 pairs round after round, but summit-set searches at
# n = 7 fill the cache, and a smaller one misses more there: five 3-node
# searches in B_7 make 178 553 misses at this size and 239 118 at 8 192
# entries, and take 1.4 s against 1.5-1.8 s on a 2-core x86-64 VM.
_RENORM_CACHE_SIZE = 1 << 16

# The most strands of a pair the cache keeps, so that a full cache holds
# about 35 MB (tracemalloc, filled by normal forms at n = 16) whatever n is;
# larger pairs are left-weighted uncached.  It is a memory bound, not the
# search's MAX_SEARCH_STRANDS: sliding-circuit work runs at any n, and at
# n 9-16 an is_conjugate call decided before its first node finds about
# half of its slides' pairs in the cache.
_RENORM_CACHE_STRANDS = 16


@lru_cache(maxsize=_RENORM_CACHE_SIZE)
def _renorm(a: tuple[int, ...], b: tuple[int, ...]):
    """
    Rewrite the pair of permutation braids (a, b) into its left-weighted form
    by moving initial letters of b onto the end of a while possible.  The
    result is independent of the move order, and the input tuples themselves
    come back when nothing moves.

    A move of σ_i swaps two entries of b and of a^{-1}, and changes only the
    descents of b and the ascents of a^{-1} at i-1, i and i+1; after it i is
    an ascent of b until a neighbour moves.  So a stack of candidate indices
    drives the moves, each costs O(1), and a pair costs O(n) plus O(1) per
    transferred letter.  Results are cached, at most _RENORM_CACHE_SIZE of
    them (least recently used first out), for pairs of at most
    _RENORM_CACHE_STRANDS strands.
    """
    n = len(a)
    # a^{-1} and b, 1-based; b is padded so that indices 0 and n never move
    a_inv = [0] * (n + 1)
    for pos, v in enumerate(a, 1):
        a_inv[v] = pos
    bl = [0, *b, n + 1]
    stack = list(range(1, n))
    moved = False
    while stack:
        i = stack.pop()
        # i starts b and does not finish a: the transfer is legal
        if bl[i] > bl[i + 1] and a_inv[i] < a_inv[i + 1]:
            bl[i], bl[i + 1] = bl[i + 1], bl[i]
            a_inv[i], a_inv[i + 1] = a_inv[i + 1], a_inv[i]
            stack.append(i - 1)
            stack.append(i + 1)
            moved = True
    if not moved:
        return a, b
    a_out = [0] * n
    for v in range(1, n + 1):
        a_out[a_inv[v] - 1] = v
    return tuple(a_out), tuple(bl[1:-1])


# the raw normal form (p, factors) of Δ^p x_1 ... x_ℓ, each x_i an image tuple
RawNF = tuple[int, tuple[tuple[int, ...], ...]]


def _normalize(n: int, delta: int, factors: list[tuple[int, ...]]) -> RawNF:
    """
    Left-normalize Δ^delta · f_1 ... f_m for permutation braids f_i, any of
    which may be trivial or Δ.  The factors are appended one at a time to a
    normal form, each followed by one right-to-left pass (Thurston's
    algorithm, ch. 9 of Epstein et al., *Word Processing in Groups*, 1992):
    the pair at the cursor is left-weighted, its right factor is final and
    its left factor is carried on to the pair before it.  By the domino rule
    the pairs right of the cursor stay left-weighted, so the pass stops at
    the first pair where nothing moves.  A carried factor that becomes Δ goes
    to the front at once, by x_1 ... x_{i-1} Δ = Δ τ(x_1) ... τ(x_{i-1}),
    which also ends the pass: τ keeps the pairs before it left-weighted, and
    by the domino rule so is τ(x_{i-1}) before the next factor, since Δ
    before any factor is.  Appending a factor costs one `_renorm` call when
    it is left-weighted after the last one.
    """
    ident = _t_identity(n)
    w0 = _t_w0(n)
    renorm = _renorm if n <= _RENORM_CACHE_STRANDS else _renorm.__wrapped__
    out: list[tuple[int, ...]] = []
    for f in factors:
        if f == ident:
            continue
        if f == w0:
            delta += 1
            out = [_t_tau(x) for x in out]
            continue
        out.append(f)
        i = len(out) - 2
        while i >= 0:
            b = out[i + 1]
            a2, b2 = renorm(out[i], b)
            if b2 == b:  # nothing moved, so nothing moves further left
                break
            if a2 == w0:
                delta += 1
                for j in range(i):
                    out[j] = _t_tau(out[j])
                out[i:i + 2] = [b2] if b2 != ident else []
                break
            out[i] = a2
            # only a factor just appended can be taken up whole
            if b2 == ident:
                del out[i + 1]
            else:
                out[i + 1] = b2
            i -= 1
    return delta, tuple(out)


# a step (s, ±1) is a permutation braid s or its inverse
Step = tuple[tuple[int, ...], int]


def _product(n: int, steps: list[Step]) -> RawNF:
    """
    The raw normal form of the product of the steps.  Each inverse is written
    s^{-1} = Δ^{-1} · (Δ s^{-1}), a permutation braid; the Δ's are collected
    at the front, each factor conjugated by the Δ-power that passes through
    it from the right.
    """
    w0 = _t_w0(n)
    factors = [s if sign > 0 else _t_then(w0, _t_inv(s)) for s, sign in steps]
    delta = 0
    for j in range(len(steps) - 1, -1, -1):
        if delta % 2:
            factors[j] = _t_tau(factors[j])
        if steps[j][1] < 0:
            delta -= 1
    return _normalize(n, delta, factors)


def _heap_letters(w: BraidWord) -> list[int]:
    """
    The letters of w reduced as a heap of pieces
    (Cartier-Foata; Viennot, *Heaps of pieces I*, 1986).  σ_i^{±1} covers the
    strand positions i and i+1 and falls onto the highest piece there; it
    cancels that piece instead when the piece is its inverse and is on top at
    both positions.  The pieces are read out level by level: pieces of one
    level cover disjoint positions and commute, so each level is read by
    sign, the sign that ended the level before first, and runs of one sign
    carry on across levels.  Only far commutation and free cancellation are
    used, so the element does not change and the word never grows.  One stack
    per position: linear time.
    """
    stacks: list[list[list[int]]] = [[] for _ in range(w.strands)]
    pieces = []
    for v in w.letters:
        i = abs(v)
        left, right = stacks[i - 1], stacks[i]
        if left and right:
            top = left[-1]
            if top is right[-1] and top[0] == -v:
                top[0] = 0
                left.pop()
                right.pop()
                continue
            level = max(top[1], right[-1][1]) + 1
        elif left:
            level = left[-1][1] + 1
        elif right:
            level = right[-1][1] + 1
        else:
            level = 0
        piece = [v, level]
        left.append(piece)
        right.append(piece)
        pieces.append(piece)
    levels: list[list[int]] = []
    for v, level in pieces:
        if v:
            while len(levels) <= level:
                levels.append([])
            levels[level].append(v)
    out: list[int] = []
    positive = True
    for row in levels:
        out += [v for v in row if (v > 0) == positive]
        out += [v for v in row if (v > 0) != positive]
        positive = out[-1] > 0
    return out


def _simple_steps(n: int, letters: list[int]) -> list[Step]:
    """
    The signed letters of a word on n strands cut into maximal runs of one
    sign that are permutation braids, one step per run.  A positive run s
    takes σ_i while the values i and i+1 are not yet inverted in s; an
    inverse run σ_{i_1}^{-1} ... σ_{i_k}^{-1} is t^{-1} for
    t = σ_{i_k} ... σ_{i_1}, which takes σ_i while the positions i and i+1 of
    t are an ascent.  Both are one swap in one list: the positions of the
    values of s, or t itself.  So Δ^p written out comes back as |p| steps.
    """
    runs: list[tuple[list[int], int]] = []
    sign = 0
    run: list[int] = []
    for v in letters:
        i, v_sign = (v, 1) if v > 0 else (-v, -1)
        if v_sign != sign or run[i - 1] > run[i]:
            sign = v_sign
            run = list(range(1, n + 1))
            runs.append((run, sign))
        run[i - 1], run[i] = run[i], run[i - 1]
    return [(_t_inv(run) if sign > 0 else tuple(run), sign) for run, sign in runs]


# --- normal form -------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class NormalForm:
    """
    The left normal form Δ^delta_power · factors of an element of B_n.  Two
    words represent the same element iff their NormalForms are equal, so this
    is the canonical representative used by every decision procedure here.
    """

    strands: int
    delta_power: int
    factors: tuple[Permutation, ...]

    @property
    def inf(self) -> int:
        return self.delta_power

    @property
    def sup(self) -> int:
        return self.delta_power + len(self.factors)

    def is_central(self) -> bool:
        """Powers of Δ² are central; for n ≥ 3 nothing else is."""
        return not self.factors and self.delta_power % 2 == 0

    def __repr__(self):
        facs = ", ".join(str(list(f.images)) for f in self.factors)
        return f"NormalForm(n={self.strands}, delta={self.delta_power}, [{facs}])"


def _wrap(n: int, raw: RawNF) -> NormalForm:
    delta, factors = raw
    return NormalForm(n, delta, tuple(Permutation(f) for f in factors))


def _check_nf_size(n: int, letters: int) -> None:
    if n * letters > MAX_NF_ENTRIES:
        raise ValueError(
            f"a word of {letters} letters on {n} strands is more than "
            f"{MAX_NF_ENTRIES} normal-form entries"
        )


def _raw_normal_form(w: BraidWord) -> RawNF:
    _check_nf_size(w.strands, len(w))
    return _product(w.strands, _simple_steps(w.strands, _heap_letters(w)))


def normal_form(w: BraidWord) -> NormalForm:
    """Compute the left normal form of a word; canonical for group equality.
    Raises ValueError, before normalizing, when strands times letters is
    more than MAX_NF_ENTRIES."""
    return _wrap(w.strands, _raw_normal_form(w))


def _permutation_braid_word(p: tuple[int, ...]) -> list[int]:
    """
    A reduced positive word for the permutation braid of p: each letter is the
    smallest generator that starts what is left.  Stripping σ_i swaps the
    entries at i, i+1 and changes the descents at i-1, i and i+1 only, so the
    scan steps back one place after each letter.
    """
    p = list(p)
    out = []
    i = 1
    while i < len(p):
        if p[i - 1] > p[i]:
            out.append(i)
            p[i - 1], p[i] = p[i], p[i - 1]
            i = max(i - 1, 1)
        else:
            i += 1
    return out


def half_twist(n: int) -> BraidWord:
    """The positive half twist Δ_n, as the word (σ_1..σ_{n-1})(σ_1..σ_{n-2})...(σ_1).
    Its permutation is i ↦ n+1-i and it has n(n-1)/2 letters."""
    if n < 2:
        raise ValueError(f"half twist needs n >= 2, got {n}")
    letters = []
    for j in range(n - 1, 0, -1):
        letters.extend(range(1, j + 1))
    return word(n, letters)


def delta_root_word(n: int) -> BraidWord:
    """δ = σ_1 σ_2 ... σ_{n-1}, the periodic element with δ^n = Δ²."""
    if n < 2:
        raise ValueError(f"needs n >= 2, got {n}")
    return word(n, range(1, n))


def gamma_root_word(n: int) -> BraidWord:
    """γ = σ_1² σ_2 ... σ_{n-1}, the periodic element with γ^{n-1} = Δ²."""
    if n < 2:
        raise ValueError(f"needs n >= 2, got {n}")
    return word(n, [1] + list(range(1, n)))


def nf_to_word(nf: NormalForm) -> BraidWord:
    """A word representing nf; normal_form(nf_to_word(nf)) == nf.

    Δ^p with p ≥ 0 is written out ahead of the factors.  A negative power is
    written as the left fraction N^{-1}P instead: each Δ^{-1} is paired with
    the factor after it, Δ^{-m} x_1 x_2 ... = τ^{m-1}(∂x_1)^{-1} · Δ^{-(m-1)}
    x_2 ... with ∂x = x^{-1}Δ, so each pair is one inverse permutation braid,
    and only the Δ^{-1}'s left over when m exceeds the number of factors are
    written out.  Each Δ^{±1} written out takes n(n-1)/2 letters, so a short
    word can have a huge normal form word: raises ValueError, before
    allocating it, when the word would have more than MAX_WORD_LETTERS
    letters."""
    n, p = nf.strands, nf.delta_power
    factors = [f.images for f in nf.factors]
    pairs = min(-p, len(factors)) if p < 0 else 0
    too_long = f"normal form word would have more than {MAX_WORD_LETTERS} letters"
    if abs(p + pairs) * (n * (n - 1) // 2) > MAX_WORD_LETTERS:
        raise ValueError(too_long)
    letters: list[int] = []

    def extend(chunk: list[int]) -> None:
        if len(letters) + len(chunk) > MAX_WORD_LETTERS:
            raise ValueError(too_long)
        letters.extend(chunk)

    w0 = _t_w0(n)
    for i in range(pairs):
        d = _t_then(_t_inv(factors[i]), w0)
        if (-p - 1 - i) % 2:
            d = _t_tau(d)
        extend([-v for v in reversed(_permutation_braid_word(d))])
    if p + pairs:
        extend(list(power(half_twist(n), p + pairs).letters))
    for f in factors[pairs:]:
        extend(_permutation_braid_word(f))
    return word(n, letters)


def nf_to_json(nf: NormalForm) -> dict:
    return {
        "n": nf.strands,
        "delta": nf.delta_power,
        "factors": [list(f.images) for f in nf.factors],
    }


# --- normal-form group operations ---------------------------------------------


def nf_mul(x: NormalForm, y: NormalForm) -> NormalForm:
    """Product of two elements given in normal form."""
    if x.strands != y.strands:
        raise ValueError("strand counts differ")
    xf = [f.images for f in x.factors]
    if y.delta_power % 2:
        xf = [_t_tau(f) for f in xf]
    return _wrap(
        x.strands,
        _normalize(x.strands, x.delta_power + y.delta_power, xf + [f.images for f in y.factors]),
    )


def nf_inv(x: NormalForm) -> NormalForm:
    """Inverse of an element given in normal form: (Δ^p X)^{-1} = Δ^{-p} τ^p(X)^{-1}."""
    n = x.strands
    odd = x.delta_power % 2
    steps = [(_t_tau(f.images) if odd else f.images, -1) for f in reversed(x.factors)]
    delta, factors = _product(n, steps)
    return _wrap(n, (delta - x.delta_power, factors))


# --- decisions ----------------------------------------------------------------


def is_equal(a: BraidWord, b: BraidWord) -> bool:
    """Whether two words represent the same element of B_n."""
    if a.strands != b.strands:
        raise ValueError(f"strand counts differ: {a.strands} vs {b.strands}")
    return _raw_normal_form(a) == _raw_normal_form(b)


def inf_sup(w: BraidWord) -> tuple[int, int]:
    """The Garside infimum and supremum (delta_power, delta_power + length)."""
    nf = normal_form(w)
    return nf.inf, nf.sup


def is_positive_braid(w: BraidWord) -> bool:
    """Whether w lies in the positive monoid; equivalent to inf(w) >= 0."""
    return normal_form(w).inf >= 0


def is_periodic(w: BraidWord) -> bool:
    """
    Whether some positive power of w is central.  Since every periodic braid
    is conjugate to a power of δ or of γ, and δ^n = γ^{n-1} = Δ², it suffices
    to test whether w^n or w^{n-1} is a power of Δ².
    """
    n = w.strands
    if n < 2:
        raise ValueError("periodicity needs n >= 2")
    _check_nf_size(n, n * len(w))  # before w^n is allocated
    for exponent in (n, n - 1):
        if normal_form(power(w, exponent)).is_central():
            return True
    return False


class PeriodicRootKind(Enum):
    DELTA = "delta"
    GAMMA = "gamma"


@dataclass(frozen=True, slots=True)
class PeriodicRoot:
    """
    A periodic conjugacy-class representative c = δ^power or γ^power in B_n,
    with the verified conjugator u: u · c^d · u^{-1} is the braid it is a
    d-th root of.
    """

    strands: int
    kind: PeriodicRootKind
    power: int
    conjugator: BraidWord

    def to_word(self) -> BraidWord:
        base = (
            delta_root_word(self.strands)
            if self.kind is PeriodicRootKind.DELTA
            else gamma_root_word(self.strands)
        )
        return power(base, self.power)


def periodic_root(
    w: BraidWord, d: int, budget: int = DEFAULT_BUDGET
) -> PeriodicRoot | None:
    """
    A d-th root of the periodic braid w, up to conjugacy: the representative
    c = δ^i or γ^i with c^d conjugate to w, if one exists, together with the
    conjugator u that carries c^d onto w.  The exponent-sum constraint
    Ab(c)·d = Ab(w) leaves at most two candidates to test.
    """
    if d < 1:
        raise ValueError(f"root degree must be >= 1, got {d}")
    if not is_periodic(w):
        raise ValueError("periodic_root requires a periodic braid")
    n = w.strands
    ab = exponent_sum(w)
    for kind, base_ab in ((PeriodicRootKind.DELTA, n - 1), (PeriodicRootKind.GAMMA, n)):
        if ab % (d * base_ab):
            continue
        root = PeriodicRoot(n, kind, ab // (d * base_ab), identity_word(n))
        res = is_conjugate(power(root.to_word(), d), w, budget=budget)
        if res.conjugate:
            return replace(root, conjugator=res.witness)
    return None


# --- conjugacy ----------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ConjugacyResult:
    """Outcome of a conjugacy decision; when conjugate, witness satisfies
    witness · a · witness^{-1} = b."""

    conjugate: bool
    witness: BraidWord | None
    nodes: int

    def __bool__(self) -> bool:
        return self.conjugate


def _conjugate_raw(n: int, x: RawNF, s: tuple[int, ...]) -> RawNF:
    """
    s^{-1} x s = Δ^{p-1} τ^{p-1}(∂s) x_1 ... x_ℓ s for a simple s, ∂s = s^{-1}Δ.
    The first factor is written in one pass over s, with no inverse formed:
    ∂s(i) = n + 1 - s^{-1}(i) and τ(∂s)(i) = s^{-1}(n + 1 - i).
    """
    p, f = x
    first = [0] * n
    if p % 2:
        for i, v in enumerate(s):
            first[v - 1] = n - i
    else:
        for i, v in enumerate(s, 1):
            first[n - v] = i
    return _normalize(n, p - 1, [tuple(first), *f, s])


def _slide(n: int, x: RawNF) -> tuple[tuple[int, ...], RawNF]:
    """
    One cyclic slide of x = Δ^p x_1 ... x_ℓ with ℓ ≥ 1 (Gebhardt &
    González-Meneses, Math. Z. 265, 2010): conjugation by the preferred
    prefix 𝔭(x) = ι(x) ∧ ∂φ(x), where ι(x) = τ^p(x_1) and φ(x) = x_ℓ.  The
    first factor of a product st of simples is st ∧ Δ = s(t ∧ ∂s), so
    left-weighting the pair (φ(x), ι(x)) moves exactly 𝔭(x) onto φ(x):
    𝔭(x) = φ(x)^{-1}a′ for (a′, b′) = _renorm(φ(x), ι(x)), with no meet.
    Returns (𝔭(x), 𝔭(x)^{-1} x 𝔭(x)); x itself when 𝔭(x) = 1.
    """
    p, f = x
    renorm = _renorm if n <= _RENORM_CACHE_STRANDS else _renorm.__wrapped__
    last = f[-1]
    moved, _ = renorm(last, _t_tau(f[0]) if p % 2 else f[0])
    if moved == last:
        return _t_identity(n), x
    prefix = _t_then(_t_inv(last), moved)
    return prefix, _conjugate_raw(n, x, prefix)


def _reduce_to_summit(
    n: int, x: RawNF
) -> tuple[RawNF, list[Step], dict[RawNF, list[Step]]]:
    """
    Slide x until a state comes back.  The first state seen twice lies on a
    sliding circuit, and sliding circuits lie in the ultra summit set, hence
    in the super summit set: maximal inf, minimal sup (Gebhardt &
    González-Meneses, Math. Z. 265, 2010).  Returns (representative, steps,
    circuit) with representative = g^{-1} · x · g for g the product of
    steps.  The steps of the loop are dropped from steps; circuit maps each
    state of the representative's circuit, in sliding order, to the steps
    that slide it onto the representative (none for the representative).
    """
    steps: list[Step] = []
    # seen maps each state, in the order reached, to len(steps) then
    seen: dict[RawNF, int] = {}
    while x[1] and x not in seen:
        seen[x] = len(steps)
        prefix, y = _slide(n, x)
        if y == x:
            break
        steps.append((prefix, 1))
        x = y
    start = seen.get(x, len(steps))
    loop = steps[start:]
    del steps[start:]
    states = list(seen)[start:]
    circuit = {x: []}
    for j in range(1, len(loop)):
        circuit[states[j]] = loop[j:]
    return x, steps, circuit


def _positive_conjugate(b: BraidWord, slide: bool) -> tuple[BraidWord, BraidWord] | None:
    """
    Words g and p with p positive and b = g · p · g^{-1}, or None when the
    left normal form x of b has negative inf.  Without slide, p is x written
    out and g is empty.  With slide, x is first slid onto its sliding
    circuit, where inf is the largest in b's conjugacy class, so that None
    means that no conjugate of b is positive; g then undoes the slides.

    A slide s nearer Δ than the identity is shorter written as Δ · (∂s)^{-1},
    ∂s = s^{-1}Δ, and a braid with negative inf slides by such s, of about
    n²/2 letters each.  So, for m of them, g is the product of the slides
    times Δ^{-m}, written as a left fraction by `nf_to_word`, and p has
    σ_{n-i} for σ_i when m is odd, since Δ σ_i Δ^{-1} = σ_{n-i}.
    """
    n = b.strands
    x, steps = _raw_normal_form(b), []
    if slide:
        x, steps, _ = _reduce_to_summit(n, x)
    if x[0] < 0:
        return None
    m = sum(4 * len(_permutation_braid_word(s)) > n * (n - 1) for s, _ in steps)
    g = nf_to_word(_wrap(n, _product(n, steps + [(_t_w0(n), -1)] * m)))
    return g, word(n, [n - v if m % 2 else v for v in nf_to_word(_wrap(n, x)).letters])


# --- the image in ℤ ≀ S_n (`words._word_colouring`) up to conjugacy --------

# cycles of a permutation, each keyed by (length, colour sum)
ColouredCycles = dict[tuple[int, int], tuple[tuple[int, ...], ...]]


def _coloured_cycles(perm: tuple[int, ...], colours: list[int]) -> ColouredCycles:
    """
    The cycles of perm grouped by (length, colour sum).  Conjugation by s
    sends each cycle of π(x) onto a cycle of π(s^{-1}xs) with the same length
    and the same colour sum, so the grouping is a conjugacy invariant.
    """
    groups: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for cycle in Permutation(perm).cycles():
        key = (len(cycle), sum(colours[v - 1] for v in cycle))
        groups.setdefault(key, []).append(cycle)
    return {key: tuple(group) for key, group in groups.items()}


def _wreath_class(w: BraidWord) -> tuple[ColouredCycles, dict[tuple[int, int], int]]:
    """
    The coloured cycles of w, read from the word, and their type: how many
    cycles there are of each (length, colour sum).  Two braids' images in
    ℤ ≀ S_n are conjugate iff their types are equal, so the type is a cheap
    conjugacy invariant, which also fixes the exponent sum.
    """
    cycles = _coloured_cycles(*_word_colouring(w))
    return cycles, {key: len(group) for key, group in cycles.items()}


def _relabel(cycles: ColouredCycles, s: tuple[int, ...]) -> ColouredCycles:
    """The coloured cycles of s^{-1} x s from those of x: conjugation by s
    carries each cycle c of π(x) onto s(c), keeping its colour sum."""
    return {
        key: tuple(tuple(s[v - 1] for v in cycle) for cycle in group)
        for key, group in cycles.items()
    }


def _matchings(source: ColouredCycles, target: ColouredCycles) -> list[tuple[int, ...]]:
    """
    Every permutation s that carries each cycle of source onto a cycle of
    target with the same length and colour sum, keeping its cyclic order.
    When source holds the coloured cycles of x, these are the only s for
    which s^{-1} x s can have target's.  For m cycles with one key and
    length L there are L^m · m! ways, and the keys choose independently.
    The keys of both must agree.
    """
    blocks = []
    for (length, colour), group in source.items():
        blocks.append([
            [(a, image[(t + shift) % length])
             for cycle, image, shift in zip(group, order, shifts)
             for t, a in enumerate(cycle)]
            for order in itertools.permutations(target[length, colour])
            for shifts in itertools.product(range(length), repeat=len(group))
        ])
    n = sum(length * len(group) for (length, _), group in source.items())
    out = []
    for choice in itertools.product(*blocks):
        images = [0] * n
        for pairs in choice:
            for a, b in pairs:
                images[a - 1] = b
        out.append(tuple(images))
    return out


def is_conjugate(
    a: BraidWord, b: BraidWord, budget: int = DEFAULT_BUDGET
) -> ConjugacyResult:
    """
    Decide conjugacy of a and b in B_n by super-summit-set enumeration, and
    produce a witness w with w·a·w^{-1} = b when they are conjugate.  Both
    are first reduced by iterated cyclic sliding onto sliding circuits, and
    the search from a's representative ends on any state of b's circuit.
    Intended for desk scale; raises BudgetExceededError once `budget` nodes
    have been expanded, which callers must treat as "unknown", never as
    "false".  Raises ValueError, before the first node is expanded, when the
    search has to expand nodes on more than MAX_SEARCH_STRANDS strands.
    """
    if a.strands != b.strands:
        raise ValueError(f"strand counts differ: {a.strands} vs {b.strands}")
    n = a.strands
    (a_cycles, a_type), (b_cycles, b_type) = _wreath_class(a), _wreath_class(b)
    if a_type != b_type:
        return ConjugacyResult(False, None, 0)

    raw_b = _raw_normal_form(b)
    rep_a, steps_a, _ = _reduce_to_summit(n, _raw_normal_form(a))
    rep_b, steps_b, circuit = _reduce_to_summit(n, raw_b)
    inf0, sup0 = rep_a[0], rep_a[0] + len(rep_a[1])
    if (inf0, sup0) != (rep_b[0], rep_b[0] + len(rep_b[1])):
        return ConjugacyResult(False, None, 0)

    def witness_from(path: list[Step]) -> BraidWord:
        # rep_b = g_b^{-1} b g_b and rep_b = g^{-1} a g for g = g_a · path,
        # so w = g_b g^{-1}
        to_common = steps_a + path
        inverse = [(s, -sign) for s, sign in reversed(to_common)]
        w = nf_to_word(_wrap(n, _product(n, steps_b + inverse)))
        if _raw_normal_form(conjugate(w, a)) != raw_b:
            raise AssertionError("internal error: conjugacy witness failed verification")
        return w

    if rep_a in circuit:
        return ConjugacyResult(True, witness_from(circuit[rep_a]), 0)
    if n > MAX_SEARCH_STRANDS:
        raise ValueError(
            f"conjugacy search on {n} strands: summit sets are searched on at most "
            f"{MAX_SEARCH_STRANDS}, since each node tries all n! - 1 simple conjugators"
        )

    # breadth-first search of the summit set: each node keeps its parent and
    # the simple s with node = s^{-1} · parent · s.  B_n -> ℤ ≀ S_n is a
    # homomorphism, so s^{-1} x s can be a state of the circuit only when s
    # carries the coloured cycles of π(x) onto that state's: a node tries
    # those s first, in lexicographic order, and then normalizes the rest for
    # the queue without testing them.  The coloured cycles read from the
    # words are carried by relabelling: along the slides onto rep_a and
    # rep_b, back along each state's path (state = g rep_b g^{-1} for g its
    # product), and from a node's parent through its s.  Their keys are a
    # conjugacy invariant: with one colour on a trivial permutation every s
    # qualifies.
    ident = _t_identity(n)
    targets: list[ColouredCycles] | None = None
    if not (len(b_cycles) == 1 and next(iter(b_cycles))[0] == 1):
        for s, _ in steps_a:
            a_cycles = _relabel(a_cycles, s)
        for s, _ in steps_b:
            b_cycles = _relabel(b_cycles, s)
        targets = []
        for path in circuit.values():
            state_cycles = b_cycles
            for s, _ in reversed(path):
                state_cycles = _relabel(state_cycles, _t_inv(s))
            targets.append(state_cycles)
    cycles = {rep_a: a_cycles}  # of the expanded nodes
    parent: dict[RawNF, tuple[RawNF, tuple[int, ...]] | None] = {rep_a: None}
    queue = deque([rep_a])
    nodes = 0
    while queue:
        if nodes >= budget:
            raise BudgetExceededError(nodes)
        x = queue.popleft()
        nodes += 1
        if targets is None:
            compatible = itertools.permutations(ident)
        else:
            if x not in cycles:
                up, s = parent[x]
                cycles[x] = _relabel(cycles[up], s)
            compatible = sorted({s for target in targets for s in _matchings(cycles[x], target)})
        tried: dict[tuple[int, ...], RawNF] = {}
        for s in compatible:
            if s == ident:
                continue
            y = _conjugate_raw(n, x, s)
            if y in circuit:
                path = [(s, 1)]
                while parent[x] is not None:
                    x, s = parent[x]
                    path.append((s, 1))
                return ConjugacyResult(True, witness_from(path[::-1] + circuit[y]), nodes)
            tried[s] = y
        for s in itertools.permutations(ident):
            if s == ident:
                continue
            y = tried.get(s)
            if y is None:
                y = _conjugate_raw(n, x, s)
            if y[0] != inf0 or y[0] + len(y[1]) != sup0 or y in parent:
                continue
            parent[y] = (x, s)
            queue.append(y)
    return ConjugacyResult(False, None, nodes)
