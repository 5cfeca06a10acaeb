"""
words: braid words in the Artin generators, and their elementary algebra.

A braid on n strands is written as a word in the generators σ_1, ..., σ_{n-1}
and their inverses.  Words are read left to right: "2 1" means σ_2 first, then
σ_1, matching the usual product notation b = σ_2 σ_1.  The strand count is part
of the word value, so words from different braid groups can never be mixed by
accident.  No operation here performs implicit free reduction; `free_reduce` is
explicit.

The text grammar for words is

    WORD  := ITEM*
    ITEM  := (INT | GROUP) POW?
    GROUP := "(" WORD ")"
    POW   := "^" SIGNED_INT

where a nonzero integer i stands for σ_i and -i for σ_i^{-1}, and items are
separated by whitespace.  Example: "(1 2)^6 1^-13".  Powers are expanded, and
text that would expand to more than MAX_WORD_LETTERS letters is rejected
before the letters are allocated.  A BraidWord holds its letters as these
signed integers, and has at most MAX_STRANDS strands, checked before anything
of size n is allocated.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator


# The most letters parse_word expands a text to.
MAX_WORD_LETTERS = 100_000

# The most strands a BraidWord may have; a 300 x 300 cable crossing needs 600.
MAX_STRANDS = 1000


class WordSyntaxError(ValueError):
    """Raised on malformed word text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True, slots=True)
class BraidWord:
    """
    A word in the braid group B_n: a strand count together with a finite
    sequence of letters, each the signed integer of the text grammar (i for
    σ_i, -i for σ_i^{-1}).  The empty sequence is the identity.  Instances
    are immutable and hashable; equality is letter-for-letter (use
    `garside.is_equal` for equality in the group).
    """

    strands: int
    letters: tuple[int, ...] = ()

    def __post_init__(self):
        if type(self.strands) is not int:
            raise ValueError(f"strand count must be an int, got {self.strands!r}")
        if not 1 <= self.strands <= MAX_STRANDS:
            raise ValueError(f"strand count must be in [1, {MAX_STRANDS}], got {self.strands}")
        top = self.strands - 1
        for v in self.letters:
            if type(v) is not int:
                raise ValueError(f"a letter must be a nonzero int, got {v!r}")
            if not 0 < abs(v) <= top:
                if v == 0:
                    raise ValueError("0 does not denote a generator")
                raise ValueError(f"letter index {abs(v)} out of range [1, {top}]")

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def signed_ints(self) -> tuple[int, ...]:
        """The word as signed integers, one per letter: its letters."""
        return self.letters

    def __repr__(self):
        return f"BraidWord({self.strands}, {format_word(self)!r})"


def word(n: int, ints: Iterable[int] = ()) -> BraidWord:
    """Build a word from signed integers: word(3, [1, -2]) is σ_1 σ_2^{-1}."""
    return BraidWord(n, tuple(ints))


def identity_word(n: int) -> BraidWord:
    return BraidWord(n, ())


@dataclass(frozen=True, slots=True)
class Permutation:
    """
    A permutation of {1, ..., n}, stored by its image sequence: images[i-1]
    is the image of i.  Products apply the left factor first, matching the
    left-to-right reading of braid words.
    """

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.images}")

    @property
    def size(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def inverse(self) -> Permutation:
        inv = [0] * len(self.images)
        for i, v in enumerate(self.images):
            inv[v - 1] = i + 1
        return Permutation(tuple(inv))

    def cycles(self) -> list[tuple[int, ...]]:
        """Cycle decomposition, including fixed points; each cycle starts at its
        smallest element, cycles ordered by smallest element."""
        seen = [False] * self.size
        out = []
        for start in range(1, self.size + 1):
            if seen[start - 1]:
                continue
            cycle = [start]
            seen[start - 1] = True
            v = self(start)
            while v != start:
                cycle.append(v)
                seen[v - 1] = True
                v = self(v)
            out.append(tuple(cycle))
        return out


# --- elementary operations -------------------------------------------------


def concat(a: BraidWord, b: BraidWord) -> BraidWord:
    """Group multiplication as plain concatenation (no reduction)."""
    if a.strands != b.strands:
        raise ValueError(f"strand counts differ: {a.strands} vs {b.strands}")
    return BraidWord(a.strands, a.letters + b.letters)


def invert_word(w: BraidWord) -> BraidWord:
    """The formal inverse: letters reversed and signs flipped."""
    return BraidWord(w.strands, tuple(-v for v in reversed(w.letters)))


def free_reduce(w: BraidWord) -> BraidWord:
    """Cancel adjacent pairs σ_i^{±1} σ_i^{∓1} until none remain."""
    stack: list[int] = []
    for v in w.letters:
        if stack and stack[-1] == -v:
            stack.pop()
        else:
            stack.append(v)
    return BraidWord(w.strands, tuple(stack))


def exponent_sum(w: BraidWord) -> int:
    """The abelianization B_n → Z, sum of letter signs."""
    return sum(1 if v > 0 else -1 for v in w.letters)


def underlying_permutation(w: BraidWord) -> Permutation:
    """
    The image of w under B_n → S_n, σ_i ↦ (i, i+1): maps each starting
    position to the ending position of its strand.  A monoid homomorphism
    for the product that applies the left factor first, matching the
    left-to-right reading of words.
    """
    # Track position → strand with O(1) swaps, then invert once.
    pos_to_strand = list(range(1, w.strands + 1))
    for v in w.letters:
        i = abs(v)
        pos_to_strand[i - 1], pos_to_strand[i] = pos_to_strand[i], pos_to_strand[i - 1]
    return Permutation(tuple(pos_to_strand)).inverse()


def power(w: BraidWord, d: int) -> BraidWord:
    """The d-fold concatenation of w (of its formal inverse for d < 0)."""
    base = w if d >= 0 else invert_word(w)
    return BraidWord(w.strands, base.letters * abs(d))


def conjugate(u: BraidWord, w: BraidWord) -> BraidWord:
    """The word u w u^{-1}."""
    return concat(concat(u, w), invert_word(u))


# --- text grammar ------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(?P<int>-?\d+)|(?P<open>\()|(?P<close>\))|(?P<pow>\^))")


def _tokenize(text: str) -> list[tuple[str, int | None, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise WordSyntaxError(f"unexpected character {stripped[0]!r}", pos)
        if m.group("int") is not None:
            tokens.append(("int", int(m.group("int")), m.start("int")))
        elif m.group("open"):
            tokens.append(("(", None, m.start("open")))
        elif m.group("close"):
            tokens.append((")", None, m.start("close")))
        else:
            tokens.append(("^", None, m.start("pow")))
        pos = m.end()
    return tokens


def parse_word(text: str, n: int) -> BraidWord:
    """
    Parse word text per the module grammar into a braid word on n strands.
    Powers and parenthesized groups are expanded; raises WordSyntaxError with
    a position for malformed text or an expansion past MAX_WORD_LETTERS
    letters, ValueError for out-of-range indices.
    """
    tokens = _tokenize(text)
    idx = 0

    def parse_pow() -> int:
        nonlocal idx
        if idx < len(tokens) and tokens[idx][0] == "^":
            pow_pos = tokens[idx][2]
            idx += 1
            if idx >= len(tokens) or tokens[idx][0] != "int":
                raise WordSyntaxError("'^' must be followed by an integer", pow_pos)
            exponent = tokens[idx][1]
            idx += 1
            return exponent
        return 1

    # one frame per open group: the enclosing items so far and the '(' position,
    # so nesting depth costs heap, not Python stack
    stack: list[tuple[list[int], int]] = []
    out: list[int] = []
    letters = 0  # held in out and in every frame of the stack

    def expand(items: list[int], pos: int) -> list[int]:
        """items raised to the power that follows them, within the letter cap"""
        nonlocal letters
        exponent = parse_pow()
        grown = letters + len(items) * (abs(exponent) - 1)
        if grown > MAX_WORD_LETTERS:
            raise WordSyntaxError(f"word expands to more than {MAX_WORD_LETTERS} letters", pos)
        letters = grown
        if exponent >= 0:
            return items * exponent
        return [-v for v in reversed(items)] * -exponent

    while idx < len(tokens):
        kind, value, pos = tokens[idx]
        idx += 1
        if kind == "int":
            if value == 0:
                raise WordSyntaxError("0 is not a generator", pos)
            if abs(value) > n - 1:
                raise ValueError(
                    f"generator index {value} out of range [1, {n - 1}] at position {pos}"
                )
            letters += 1
            out.extend(expand([value], pos))
        elif kind == "(":
            stack.append((out, pos))
            out = []
        elif kind == ")":
            if not stack:
                raise WordSyntaxError("unmatched ')'", pos)
            group = out
            out, open_pos = stack.pop()
            out.extend(expand(group, open_pos))
        else:
            raise WordSyntaxError("'^' must follow an item", pos)
    if stack:
        raise WordSyntaxError("unclosed '('", stack[-1][1])
    return word(n, out)


def format_word(w: BraidWord) -> str:
    """Canonical text for a word: letters as signed integers, space-separated.
    Round-trips through parse_word letter for letter."""
    return " ".join(map(str, w.letters))
