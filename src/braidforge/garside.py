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
braids in a single sweep; the pair becomes a `NormalForm` only where a public
function returns.

Conjugacy is decided by reducing both elements into their super summit sets
(iterated cycling and decycling) and closing one set under conjugation by
permutation braids, which is complete by the convexity theorem for super
summit sets.  Each move is one `_normalize` call: cycling is
Δ^p x_2 ... x_ℓ τ^p(x_1), decycling Δ^p τ^p(x_ℓ) x_1 ... x_{ℓ-1}, and
conjugation by a simple s is Δ^{p-1} τ^{p-1}(∂s) x_1 ... x_ℓ s, ∂s = s^{-1}Δ.
A conjugator is a list of simple steps, and the witness is normalized once,
then verified.  The search carries an explicit node budget; exhausting it
raises BudgetExceededError rather than guessing.

Desk scale only: these routines are written for n up to about 6 or 7 and
canonical lengths in the tens.  Reducible-braid structure (see `cabling`) is
always caller-supplied, never detected here.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache

from .words import (
    BraidWord,
    Permutation,
    conjugate,
    exponent_sum,
    identity_word,
    power,
    underlying_permutation,
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
    "nf_from_json",
    "is_equal",
    "inf_sup",
    "is_positive_braid",
    "is_periodic",
    "periodic_root",
    "is_conjugate",
    "power",
]

DEFAULT_BUDGET = 2000


class BudgetExceededError(RuntimeError):
    """Conjugacy search ran out of its node budget: the answer is unknown,
    which is distinct from 'not conjugate'."""

    def __init__(self, nodes: int):
        super().__init__(f"conjugacy search budget exhausted after {nodes} nodes")
        self.nodes = nodes


# --- permutation-tuple helpers (hot path works on raw 1-based image tuples) --


def _t_identity(n: int) -> tuple[int, ...]:
    return tuple(range(1, n + 1))


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
    n = len(p)
    return tuple(n + 1 - p[n - i] for i in range(1, n + 1))


def _t_starting(p: tuple[int, ...]) -> tuple[int, ...]:
    """Generators that can start the permutation braid of p."""
    return tuple(i for i in range(1, len(p)) if p[i - 1] > p[i])


def _t_append(p: tuple[int, ...], i: int) -> tuple[int, ...]:
    """p followed by the transposition (i, i+1): swap the values i, i+1."""
    return tuple(i + 1 if v == i else (i if v == i + 1 else v) for v in p)


def _t_strip_front(p: tuple[int, ...], i: int) -> tuple[int, ...]:
    """q with p = (i, i+1)·q: swap the entries at positions i, i+1."""
    out = list(p)
    out[i - 1], out[i] = out[i], out[i - 1]
    return tuple(out)


@lru_cache(maxsize=None)
def _renorm(a: tuple[int, ...], b: tuple[int, ...]):
    """
    Rewrite the pair of permutation braids (a, b) into its left-weighted form
    by moving initial letters of b onto the end of a while possible.  The
    result is independent of the move order.
    """
    a_inv = _t_inv(a)
    while True:
        for i in _t_starting(b):
            if a_inv[i - 1] < a_inv[i]:  # i does not finish a: transfer is legal
                a = _t_append(a, i)
                a_inv = _t_strip_front(a_inv, i)
                b = _t_strip_front(b, i)
                break
        else:
            return a, b


# the raw normal form (p, factors) of Δ^p x_1 ... x_ℓ, each x_i an image tuple
RawNF = tuple[int, tuple[tuple[int, ...], ...]]


def _normalize(n: int, delta: int, factors: list[tuple[int, ...]]) -> RawNF:
    """
    Left-normalize Δ^delta · f_1 ... f_m for permutation braids f_i, any of
    which may be trivial or Δ.  One sweep suffices: after each rewrite it
    steps back one pair, so every pair left of the cursor stays left-weighted,
    and any Δ ends up at the front.
    """
    ident = _t_identity(n)
    w0 = _t_w0(n)
    factors = [f for f in factors if f != ident]
    i = 0
    while i < len(factors) - 1:
        a, b = factors[i], factors[i + 1]
        a2, b2 = _renorm(a, b)
        if a2 == a and b2 == b:
            i += 1
            continue
        factors[i] = a2
        if b2 == ident:
            del factors[i + 1]
        else:
            factors[i + 1] = b2
        i = max(i - 1, 0)
    front = 0
    while front < len(factors) and factors[front] == w0:
        front += 1
    return delta + front, tuple(factors[front:])


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
    def canonical_length(self) -> int:
        return len(self.factors)

    @property
    def inf(self) -> int:
        return self.delta_power

    @property
    def sup(self) -> int:
        return self.delta_power + len(self.factors)

    def is_delta_power(self) -> bool:
        return not self.factors

    def is_central(self) -> bool:
        """Powers of Δ² are central; for n ≥ 3 nothing else is."""
        return not self.factors and self.delta_power % 2 == 0

    def __repr__(self):
        facs = ", ".join(str(list(f.images)) for f in self.factors)
        return f"NormalForm(n={self.strands}, delta={self.delta_power}, [{facs}])"


def _wrap(n: int, raw: RawNF) -> NormalForm:
    delta, factors = raw
    return NormalForm(n, delta, tuple(Permutation(f) for f in factors))


def _raw_normal_form(w: BraidWord) -> RawNF:
    ident = _t_identity(w.strands)
    return _product(w.strands, [(_t_append(ident, l.index), l.sign) for l in w.letters])


def normal_form(w: BraidWord) -> NormalForm:
    """Compute the left normal form of a word; canonical for group equality."""
    return _wrap(w.strands, _raw_normal_form(w))


def _permutation_braid_word(n: int, p: tuple[int, ...]) -> list[int]:
    """A reduced positive word for the permutation braid of p."""
    out = []
    while True:
        starting = _t_starting(p)
        if not starting:
            return out
        i = starting[0]
        out.append(i)
        p = _t_strip_front(p, i)


@lru_cache(maxsize=None)
def half_twist(n: int) -> BraidWord:
    """The positive half twist Δ_n, as the word (σ_1..σ_{n-1})(σ_1..σ_{n-2})...(σ_1).
    Its permutation is i ↦ n+1-i and it has n(n-1)/2 letters."""
    if n < 2:
        raise ValueError(f"half twist needs n >= 2, got {n}")
    letters = []
    for j in range(n - 1, 0, -1):
        letters.extend(range(1, j + 1))
    return word(n, letters)


@lru_cache(maxsize=None)
def delta_root_word(n: int) -> BraidWord:
    """δ = σ_1 σ_2 ... σ_{n-1}, the periodic element with δ^n = Δ²."""
    if n < 2:
        raise ValueError(f"needs n >= 2, got {n}")
    return word(n, range(1, n))


@lru_cache(maxsize=None)
def gamma_root_word(n: int) -> BraidWord:
    """γ = σ_1² σ_2 ... σ_{n-1}, the periodic element with γ^{n-1} = Δ²."""
    if n < 2:
        raise ValueError(f"needs n >= 2, got {n}")
    return word(n, [1] + list(range(1, n)))


def nf_to_word(nf: NormalForm) -> BraidWord:
    """A word representing nf; normal_form(nf_to_word(nf)) == nf."""
    n = nf.strands
    letters = list(power(half_twist(n), nf.delta_power).signed_ints()) if nf.delta_power else []
    for factor in nf.factors:
        letters.extend(_permutation_braid_word(n, factor.images))
    return word(n, letters)


def nf_to_json(nf: NormalForm) -> dict:
    return {
        "n": nf.strands,
        "delta": nf.delta_power,
        "factors": [list(f.images) for f in nf.factors],
    }


def nf_from_json(data: dict) -> NormalForm:
    return NormalForm(
        data["n"],
        data["delta"],
        tuple(Permutation(tuple(images)) for images in data["factors"]),
    )


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
        c_power = power(root.to_word(), d)
        if is_equal(c_power, w):
            return root
        res = is_conjugate(c_power, w, budget=budget)
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


def _reduce_to_summit(n: int, x: RawNF) -> tuple[RawNF, list[Step]]:
    """
    Drive x into its super summit set (maximal inf, then minimal sup) by
    alternating cycling and decycling phases.  Returns (representative,
    steps) with representative = g^{-1} · x · g for g the product of steps.
    """
    steps: list[Step] = []
    while True:
        improved = False
        # cycling raises inf: Δ^p x_2 ... x_ℓ τ^p(x_1), conjugating by τ^p(x_1)
        seen: set = set()
        while x[1]:
            if x in seen:
                break
            seen.add(x)
            p, f = x
            u = _t_tau(f[0]) if p % 2 else f[0]
            steps.append((u, 1))
            x = _normalize(n, p, [*f[1:], u])
            if x[0] > p:
                improved = True
                seen.clear()
        # decycling lowers sup: Δ^p τ^p(x_ℓ) x_1 ... x_{ℓ-1}, conjugating by x_ℓ^{-1}
        seen = set()
        while x[1]:
            if x in seen:
                break
            seen.add(x)
            p, f = x
            steps.append((f[-1], -1))
            x = _normalize(n, p, [_t_tau(f[-1]) if p % 2 else f[-1], *f[:-1]])
            if x[0] + len(x[1]) < p + len(f):
                improved = True
                seen.clear()
        if not improved:
            return x, steps


@lru_cache(maxsize=None)
def _simple_conjugators(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """(s, ∂s, τ(∂s)) for every nontrivial permutation braid s, with ∂s = s^{-1}Δ."""
    ident = _t_identity(n)
    w0 = _t_w0(n)
    out = []
    for s in itertools.permutations(range(1, n + 1)):
        if s != ident:
            comp = _t_then(_t_inv(s), w0)
            out.append((s, comp, _t_tau(comp)))
    return tuple(out)


def is_conjugate(
    a: BraidWord, b: BraidWord, budget: int = DEFAULT_BUDGET
) -> ConjugacyResult:
    """
    Decide conjugacy of a and b in B_n by super-summit-set enumeration, and
    produce a witness w with w·a·w^{-1} = b when they are conjugate.  Intended
    for desk scale; raises BudgetExceededError once `budget` nodes have been
    expanded, which callers must treat as "unknown", never as "false".
    """
    if a.strands != b.strands:
        raise ValueError(f"strand counts differ: {a.strands} vs {b.strands}")
    n = a.strands
    # cheap conjugacy invariants
    if exponent_sum(a) != exponent_sum(b):
        return ConjugacyResult(False, None, 0)
    cycle_type_a = sorted(len(c) for c in underlying_permutation(a).cycles())
    cycle_type_b = sorted(len(c) for c in underlying_permutation(b).cycles())
    if cycle_type_a != cycle_type_b:
        return ConjugacyResult(False, None, 0)

    rep_a, steps_a = _reduce_to_summit(n, _raw_normal_form(a))
    rep_b, steps_b = _reduce_to_summit(n, _raw_normal_form(b))
    inf0, sup0 = rep_a[0], rep_a[0] + len(rep_a[1])
    if (inf0, sup0) != (rep_b[0], rep_b[0] + len(rep_b[1])):
        return ConjugacyResult(False, None, 0)

    def witness_from(path: list[Step]) -> BraidWord:
        # rep_b = g_b^{-1} b g_b and rep_b = g^{-1} a g for g = g_a · path,
        # so w = g_b g^{-1}
        to_common = steps_a + path
        inverse = [(s, -sign) for s, sign in reversed(to_common)]
        w = nf_to_word(_wrap(n, _product(n, steps_b + inverse)))
        if not is_equal(conjugate(w, a), b):
            raise AssertionError("internal error: conjugacy witness failed verification")
        return w

    if rep_a == rep_b:
        return ConjugacyResult(True, witness_from([]), 0)

    # breadth-first search of the summit set: each node keeps its parent and
    # the simple s with node = s^{-1} · parent · s
    parent: dict[RawNF, tuple[RawNF, tuple[int, ...]] | None] = {rep_a: None}
    queue = deque([rep_a])
    nodes = 0
    while queue:
        if nodes >= budget:
            raise BudgetExceededError(nodes)
        x = queue.popleft()
        nodes += 1
        p, f = x
        for s, comp, tau_comp in _simple_conjugators(n):
            # s^{-1} x s = Δ^{p-1} τ^{p-1}(∂s) x_1 ... x_ℓ s
            y = _normalize(n, p - 1, [comp if p % 2 else tau_comp, *f, s])
            if y[0] != inf0 or y[0] + len(y[1]) != sup0 or y in parent:
                continue
            parent[y] = (x, s)
            if y == rep_b:
                path = []
                while parent[y] is not None:
                    y, s = parent[y]
                    path.append((s, 1))
                return ConjugacyResult(True, witness_from(path[::-1]), nodes)
            queue.append(y)
    return ConjugacyResult(False, None, nodes)
