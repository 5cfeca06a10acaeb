"""
cabling: composite (cabled) braids built from a tubular braid with interior
braids, their regular forms, and quasipositivity of the composite.

A reducible braid, viewed along an invariant family of tubes, is described by
a tubular braid on m strands (one per tube), a width per tube (constant along
each orbit of the tubular permutation), and a braid inside each tube.  A
cable is one walk of the width arrangement along the tubular word: every
tubular crossing becomes a block transposition of the two tube widths at its
positions, placed on the strands of those two blocks, and swaps the two
widths.  The composite word is the cable with the interior braids embedded
on the strand blocks.  In regular form all interior braiding of an orbit is
concentrated in the tube that returns to the orbit's first position, so the
composite is the cabled tubular word followed by one embedded interior braid
per orbit; `normalize_interiors` moves arbitrary per-tube interiors into this
form and returns the conjugator that realizes the move.

The tube structure is trusted input throughout: nothing here detects whether
a braid is reducible or computes invariant multicurves.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain
from typing import Iterable, Iterator

from .garside import is_equal
from .quasipositive import Band, QPCertificate, QPStatus, expand, obstruct, verify
from .words import (
    MAX_WORD_LETTERS,
    BraidWord,
    conjugate,
    format_word,
    free_reduce,
    identity_word,
    parse_word,
    underlying_permutation,
    word,
)

__all__ = [
    "RegularForm",
    "TubePositionAssignment",
    "orbit_structure",
    "block_transposition",
    "assemble",
    "assemble_assignment",
    "normalize_interiors",
    "cable_certificate",
    "regular_form_to_json",
    "regular_form_from_json",
    "assignment_from_json",
]


def orbit_structure(tubular: BraidWord) -> list[tuple[int, ...]]:
    """
    The tube orbits of the tubular braid: the cycles of its underlying
    permutation, each starting at its smallest tube position, ordered by
    smallest position.  Orbit i lists the positions a_{i,1}, ..., a_{i,r_i}
    with the braid taking a_{i,j} to a_{i,j+1} and a_{i,r_i} back to a_{i,1}.
    """
    return underlying_permutation(tubular).cycles()


def block_transposition(p: int, q: int) -> BraidWord:
    """
    The crossing of a width-p block over a width-q block in B_{p+q}: the
    positive word ∏_{r=p..1}(σ_r σ_{r+1} ... σ_{r+q-1}) of exactly p·q
    letters, sending [1..p] to [q+1..q+p] and [p+1..p+q] to [1..q], which is
    the cable of σ_1 from the widths (p, q).  Raises ValueError, before
    building anything, when p·q exceeds MAX_WORD_LETTERS.
    """
    if p < 1 or q < 1:
        raise ValueError(f"block widths must be >= 1, got ({p}, {q})")
    return word(p + q, next(_cable((1,), [p, q])))


def _check_letter_count(count: int) -> None:
    if count > MAX_WORD_LETTERS:
        raise ValueError(f"cabled word would have {count} letters, more than {MAX_WORD_LETTERS}")


def _cable(letters: Iterable[int], arr: list[int]) -> Iterator[list[int]]:
    """
    Walk a tubular word from a width arrangement, arr, the list of widths at
    each tube position, which is updated in place as the walk goes: yields each
    letter's cable, as signed integers.  A crossing at j becomes the block
    transposition of the widths p, q at j and j+1 (for a negative letter the
    formal inverse of the q-over-p one), on the strands of those two blocks,
    and swaps p and q.  Raises ValueError, before building past it, at the
    first letter that takes the cable past MAX_WORD_LETTERS letters.
    """
    starts = list(accumulate(arr, initial=0))  # strands before each block
    total = 0
    for t in letters:
        j = abs(t)
        p, q = arr[j - 1], arr[j]
        total += p * q
        _check_letter_count(total)
        o = starts[j - 1]
        if t > 0:
            cable = [o + s for r in range(p, 0, -1) for s in range(r, r + q)]
        else:
            cable = [-o - s for r in range(1, q + 1) for s in range(r + p - 1, r - 1, -1)]
        arr[j - 1], arr[j] = q, p
        starts[j] = o + q
        yield cable


def _cable_word(w: BraidWord, arrangement: tuple[int, ...]) -> tuple[BraidWord, tuple[int, ...]]:
    """The cable of a tubular word from the given width arrangement, and the
    final arrangement."""
    if len(arrangement) != w.strands:
        raise ValueError("arrangement length must match tubular strand count")
    arr = list(arrangement)
    letters = list(chain.from_iterable(_cable(w.letters, arr)))
    return word(sum(arrangement), letters), tuple(arr)


def _embed(letters: Iterable[int], offset: int) -> list[int]:
    """Letters moved up by offset strands, onto the block that starts there."""
    return [v + offset if v > 0 else v - offset for v in letters]


@dataclass(frozen=True, slots=True)
class RegularForm:
    """
    A composite braid in regular form: tubular braid on m strands, a width
    per tube position, and one interior braid per orbit (on that orbit's
    width), living in the tube that closes the orbit.  Interiors are indexed
    in orbit_structure order.
    """

    tubular: BraidWord
    widths: tuple[int, ...]
    interiors: tuple[BraidWord, ...]

    def __post_init__(self):
        # tuples, whatever sequences were given: `assemble` compares the
        # widths with the tuple the cabling ends on, and equal forms compare
        # equal field by field
        object.__setattr__(self, "widths", tuple(self.widths))
        object.__setattr__(self, "interiors", tuple(self.interiors))
        orbits = _check_widths(self.tubular, self.widths)
        if len(self.interiors) != len(orbits):
            raise ValueError(
                f"expected {len(orbits)} interior braids, got {len(self.interiors)}"
            )
        for orbit, interior in zip(orbits, self.interiors):
            if interior.strands != self.widths[orbit[0] - 1]:
                raise ValueError(
                    f"interior on orbit {orbit} must have {self.widths[orbit[0] - 1]} strands"
                )

    @property
    def composite_strands(self) -> int:
        return sum(self.widths)


@dataclass(frozen=True, slots=True)
class TubePositionAssignment:
    """Interior braids assigned per tube position (the general, pre-regular
    description): interiors[j-1] is the braiding of the tube starting at
    position j+0, on widths[j-1] strands."""

    widths: tuple[int, ...]
    interiors: tuple[BraidWord, ...]

    def __post_init__(self):
        # tuples, as in RegularForm
        object.__setattr__(self, "widths", tuple(self.widths))
        object.__setattr__(self, "interiors", tuple(self.interiors))
        if len(self.interiors) != len(self.widths):
            raise ValueError("one interior braid per tube position required")
        for width, interior in zip(self.widths, self.interiors):
            if interior.strands != width:
                raise ValueError("interior strand count must equal its tube width")


def _check_widths(tubular: BraidWord, widths: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Validate the widths against the tubular braid; returns its orbits."""
    if len(widths) != tubular.strands:
        raise ValueError(f"expected {tubular.strands} widths, got {len(widths)}")
    if not all(type(width) is int and width >= 1 for width in widths):
        raise ValueError("tube widths must be positive integers")
    orbits = orbit_structure(tubular)
    for orbit in orbits:
        if len({widths[a - 1] for a in orbit}) != 1:
            raise ValueError(f"widths not constant along orbit {orbit}")
    return orbits


def assemble(rf: RegularForm) -> BraidWord:
    """
    The composite braid of a regular form: the cabled tubular word followed
    by each orbit's interior braid embedded, at the end of the word, on the
    strand block of the orbit's first tube position.
    """
    arr = list(rf.widths)
    letters = list(chain.from_iterable(_cable(rf.tubular.letters, arr)))
    if tuple(arr) != rf.widths:  # widths are constant on orbits
        raise AssertionError("internal error: cabling ended on a different width arrangement")
    offsets = list(accumulate(rf.widths, initial=0))
    for orbit, interior in zip(orbit_structure(rf.tubular), rf.interiors):
        letters += _embed(interior.letters, offsets[orbit[0] - 1])
    return word(rf.composite_strands, letters)


def assemble_assignment(
    tubular: BraidWord, assignment: TubePositionAssignment
) -> BraidWord:
    """
    The composite braid of a general per-position assignment: each tube's
    interior braiding placed at the start of the word on that tube's starting
    block, followed by the cabled tubular word.
    """
    widths = assignment.widths
    _check_widths(tubular, widths)
    letters = []
    for interior, offset in zip(assignment.interiors, accumulate(widths, initial=0)):
        letters += _embed(interior.letters, offset)
    letters += chain.from_iterable(_cable(tubular.letters, list(widths)))
    return word(sum(widths), letters)


def normalize_interiors(
    tubular: BraidWord, assignment: TubePositionAssignment
) -> tuple[RegularForm, BraidWord]:
    """
    Concentrate the interior braiding of each orbit into the orbit-closing
    tube by sliding interiors along the tubular closure.  Returns the regular
    form, whose orbit interior is the ordered product of that orbit's
    per-position braids, together with the conjugator u satisfying
    u · assemble_assignment(tubular, assignment) · u^{-1} = assemble(regular),
    which is checked here by is_equal.

    Sliding an interior y sitting at the bottom of block a to the next block
    along its tube is conjugation by y embedded at a; the conjugator below is
    the composition of those elementary moves.
    """
    widths = assignment.widths
    orbits = _check_widths(tubular, widths)
    offsets = list(accumulate(widths, initial=0))
    movers: list[list[int]] = []  # elementary conjugators, applied first to last
    interiors = []
    for orbit in orbits:
        # after pushing top interiors through the tubes, the braid of the tube
        # starting at a_j sits at the bottom of block a_{j+1}
        accumulated = list(assignment.interiors[orbit[0] - 1].letters)
        for a in orbit[1:]:
            movers.append(_embed(accumulated, offsets[a - 1]))
            accumulated += assignment.interiors[a - 1].letters
        interiors.append(word(widths[orbit[0] - 1], accumulated))
    conjugator = word(sum(widths), chain.from_iterable(reversed(movers)))
    regular = RegularForm(tubular, widths, interiors)
    general_word = assemble_assignment(tubular, assignment)
    if not is_equal(conjugate(conjugator, general_word), assemble(regular)):
        raise AssertionError("internal error: interior normalization conjugator failed")
    return regular, conjugator


def _cabled_band_bands(
    arr: tuple[int, ...], v: BraidWord, j: int
) -> tuple[list[Band], tuple[int, ...]] | None:
    """
    Bands multiplying out to the cable of the tubular band v σ_j v^{-1} from
    the given arrangement, and the arrangement after the band, built by
    peeling letters of v, last letter first: peeling a letter is sound when
    its cable is insensitive to swapping the widths of the two banded tubes
    (always true when those widths agree).  Returns None on a stuck peel; the
    caller falls back to element-level certification, since unequal banded
    widths make the cable pick up framing contributions that no
    uniform-conjugator refactoring can absorb.
    """
    n = sum(arr)
    walk = list(arr)
    heads = list(_cable(v.letters, walk))
    p, q = walk[j - 1], walk[j]  # the widths of the two banded tubes
    core = next(_cable((j,), walk))
    # a tube keeps its width along v, so v's cable from the arrangement with
    # the banded tubes swapped differs from heads only when p != q.  Its
    # inverse is the cable of v^{-1} from the arrangement after the core,
    # walked lazily in peel order: its letters stay within the peel's count,
    # and it ends on the arrangement after the band.
    tails = _cable([-t for t in reversed(v.letters)], walk) if p != q else None
    count, letters = len(core), 0  # bands so far and their conjugator letters
    junk: list[tuple[int, tuple[int, ...]]] = []  # (peel, letters), last peel first
    for i in range(len(heads) - 1, -1, -1):
        letters += count * len(heads[i])
        _check_letter_count(letters)
        if tails is not None:
            # the peel closes with the letter cabled from the width-swapped
            # arrangement: X = A·M·A'^{-1} = (A·M·A^{-1})·(A·A'^{-1}); the junk
            # A·A'^{-1} is absorbable only when it reduces to a positive word
            reduced = free_reduce(word(n, heads[i] + next(tails))).letters
            if any(t < 0 for t in reduced):
                return None
            if reduced:
                junk.append((i, reduced))
                count += len(reduced)
    # a band of peel i is conjugated by the cables of the letters before it
    conjugator = tuple(chain.from_iterable(heads))
    whole = BraidWord(n, conjugator)
    bands = [Band(whole, t) for t in core]
    starts = list(accumulate(map(len, heads), initial=0))
    for i, reduced in junk:
        prefix = BraidWord(n, conjugator[: starts[i]])
        bands.extend(Band(prefix, t) for t in reduced)
    return bands, (arr if tails is None else tuple(walk))


def _reduced_conjugator(conjugator: BraidWord, gen_index: int) -> BraidWord:
    """Freely reduce a band conjugator and drop trailing σ_gen^±1 letters,
    which commute with the core generator and only lengthen the cable."""
    v = free_reduce(conjugator)
    letters = list(v.letters)
    while letters and abs(letters[-1]) == gen_index:
        letters.pop()
    return BraidWord(v.strands, tuple(letters))


def _certify_cabled_band(
    arr: tuple[int, ...], band: Band, number: int
) -> tuple[list[Band], tuple[int, ...]]:
    """Bands of the cable of band number `number` of a tubular certificate
    from the arrangement, and the arrangement after it."""
    v = _reduced_conjugator(band.conjugator, band.gen_index)
    peeled = _cabled_band_bands(arr, v, band.gen_index)
    if peeled is not None:
        return peeled
    # element-level fallback: the cabled band is still quasipositive, but its
    # band structure must be recovered from the element itself
    cabled, after = _cable_word(band.to_word(), arr)
    verdict = obstruct(cabled)
    if verdict.status is QPStatus.QP:
        return list(verdict.certificate.bands), after
    raise ValueError(
        "certificate cabling is not supported for this width configuration: "
        f"band {number} (generator {band.gen_index}) of the tubular certificate "
        "crosses tubes of unequal widths along its conjugator path"
    )


def cable_certificate(
    tubular_cert: QPCertificate,
    interior_certs: tuple[QPCertificate, ...] | list[QPCertificate],
    widths: tuple[int, ...],
) -> QPCertificate:
    """
    Quasipositivity of a composite braid from quasipositivity of its pieces:
    each tubular band cables to p·q bands — the block transposition's letters
    conjugated by the cabled conjugator — whenever the banded tubes have
    equal widths (in particular whenever all widths agree, or the band's
    conjugator is trivial); each orbit's interior bands embed on the orbit's
    first block.  Unequal-width bands are certified at the element level when
    possible and rejected otherwise.  The result verifies against
    assemble(RegularForm(expand(tubular_cert), widths, interior expansions)),
    which is checked before returning.
    """
    widths = tuple(widths)
    tubular = expand(tubular_cert)
    orbits = _check_widths(tubular, widths)
    interior_certs = tuple(interior_certs)
    if len(interior_certs) != len(orbits):
        raise ValueError(f"expected {len(orbits)} interior certificates")
    for orbit, cert in zip(orbits, interior_certs):
        if cert.strands != widths[orbit[0] - 1]:
            raise ValueError("interior certificate strand count must match orbit width")
    n = sum(widths)
    bands: list[Band] = []
    arr = widths
    for number, band in enumerate(tubular_cert.bands, start=1):
        cabled, arr = _certify_cabled_band(arr, band, number)
        bands.extend(cabled)
    if arr != widths:
        raise AssertionError("internal error: cabled bands ended on a different width arrangement")
    offsets = list(accumulate(widths, initial=0))
    for orbit, cert in zip(orbits, interior_certs):
        offset = offsets[orbit[0] - 1]
        for band in cert.bands:
            bands.append(
                Band(word(n, _embed(band.conjugator.letters, offset)), band.gen_index + offset)
            )
    result = QPCertificate(n, tuple(bands))
    composite = assemble(
        RegularForm(tubular, widths, tuple(expand(c) for c in interior_certs))
    )
    if not verify(result, composite):
        raise AssertionError("internal error: cabled certificate failed verification")
    return result


# --- JSON interchange ---------------------------------------------------------


def regular_form_to_json(rf: RegularForm) -> dict:
    interiors = [
        {"orbit": i, "word": format_word(interior)}
        for i, interior in enumerate(rf.interiors)
        if interior.letters
    ]
    return {
        "tubular": format_word(rf.tubular),
        "widths": list(rf.widths),
        "interiors": interiors,
    }


def _tubular_from_json(data) -> tuple[BraidWord, tuple[int, ...], list[tuple[int, ...]]]:
    if not (
        isinstance(data, dict)
        and isinstance(data.get("tubular"), str)
        and isinstance(data.get("widths"), list)
    ):
        raise ValueError('cabling input must be an object with a "tubular" word and a "widths" list')
    widths = tuple(data["widths"])
    tubular = parse_word(data["tubular"], len(widths))
    return tubular, widths, _check_widths(tubular, widths)


def regular_form_from_json(data: dict) -> RegularForm:
    """Inverse of regular_form_to_json; raises ValueError on any other shape."""
    tubular, widths, orbits = _tubular_from_json(data)
    entries = data.get("interiors", [])
    if not isinstance(entries, list):
        raise ValueError('"interiors" must be a list')
    interiors = [identity_word(widths[orbit[0] - 1]) for orbit in orbits]
    given: set[int] = set()
    for entry in entries:
        if not (
            isinstance(entry, dict)
            and type(entry.get("orbit")) is int
            and isinstance(entry.get("word"), str)
        ):
            raise ValueError('each interior must be an object with an integer "orbit" and a "word"')
        i = entry["orbit"]
        if not 0 <= i < len(orbits):
            raise ValueError(f"orbit {i} out of range: the tubular braid has {len(orbits)} orbits")
        if i in given:
            raise ValueError(f"orbit {i} is given more than one interior")
        given.add(i)
        interiors[i] = parse_word(entry["word"], widths[orbits[i][0] - 1])
    return RegularForm(tubular, widths, interiors)


def assignment_from_json(data: dict) -> tuple[BraidWord, TubePositionAssignment]:
    """Read {"tubular": word, "widths": [...], "positions": [word per tube]}, the
    input of `cable normalize`; raises ValueError on any other shape."""
    tubular, widths, _ = _tubular_from_json(data)
    positions = data.get("positions")
    if not (
        isinstance(positions, list)
        and len(positions) == len(widths)
        and all(isinstance(text, str) for text in positions)
    ):
        raise ValueError('"positions" must be a list of one word per tube position')
    interiors = tuple(parse_word(text, width) for text, width in zip(positions, widths))
    return tubular, TubePositionAssignment(widths, interiors)
