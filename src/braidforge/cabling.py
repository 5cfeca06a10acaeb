"""
cabling: composite (cabled) braids built from a tubular braid with interior
braids, their regular forms, and quasipositivity of the composite.

A reducible braid, viewed along an invariant family of tubes, is described by
a tubular braid on m strands (one per tube), a width per tube (constant along
each orbit of the tubular permutation), and a braid inside each tube.  The
composite word is produced by cabling: every tubular crossing becomes a block
transposition of the two tube widths involved, and the interior braids embed
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

from .garside import is_equal
from .quasipositive import Band, QPCertificate, QPStatus, expand, obstruct, verify
from .words import (
    MAX_WORD_LETTERS,
    BraidWord,
    Permutation,
    concat,
    conjugate,
    format_word,
    free_reduce,
    identity_word,
    invert_word,
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


def block_transposition(p: int, q: int, sign: int = 1) -> BraidWord:
    """
    The crossing of a width-p block over a width-q block in B_{p+q}: the
    positive word ∏_{r=p..1}(σ_r σ_{r+1} ... σ_{r+q-1}) of exactly p·q
    letters, sending [1..p] to [q+1..q+p] and [p+1..p+q] to [1..q]; its
    formal inverse for sign -1.  Raises ValueError, before building anything,
    when p·q exceeds MAX_WORD_LETTERS.
    """
    if p < 1 or q < 1:
        raise ValueError(f"block widths must be >= 1, got ({p}, {q})")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    _check_letter_count(p * q)
    letters = []
    for r in range(p, 0, -1):
        letters.extend(range(r, r + q))
    w = word(p + q, letters)
    return w if sign == 1 else invert_word(w)


def _check_letter_count(count: int) -> None:
    if count > MAX_WORD_LETTERS:
        raise ValueError(f"cabled word would have {count} letters, more than {MAX_WORD_LETTERS}")


def _embed(w: BraidWord, n: int, offset: int) -> BraidWord:
    """w placed on the strands offset+1 .. offset+w.strands of B_n."""
    return word(n, (v + offset if v > 0 else v - offset for v in w.letters))


def _block_start(arrangement: tuple[int, ...], position: int) -> int:
    """First strand of the block at the given tube position (1-based)."""
    return 1 + sum(arrangement[: position - 1])


def _cable_word(
    w: BraidWord, arrangement: tuple[int, ...]
) -> tuple[BraidWord, tuple[int, ...]]:
    """
    Cable a tubular word starting from the given width arrangement: each
    crossing becomes a block transposition of the widths currently at its two
    positions.  Returns the cabled word and the final arrangement; raises
    ValueError, before building anything, when the word would have more than
    MAX_WORD_LETTERS letters.
    """
    if len(arrangement) != w.strands:
        raise ValueError("arrangement length must match tubular strand count")
    n = sum(arrangement)
    # a crossing swaps its two widths and costs their product in letters
    arr = list(arrangement)
    count = 0
    for v in w.letters:
        j = abs(v)
        count += arr[j - 1] * arr[j]
        arr[j - 1], arr[j] = arr[j], arr[j - 1]
    _check_letter_count(count)
    arr = list(arrangement)
    letters: list[int] = []
    for v in w.letters:
        j = abs(v)
        p, q = arr[j - 1], arr[j]
        offset = _block_start(tuple(arr), j) - 1
        block = block_transposition(p, q, 1) if v > 0 else block_transposition(q, p, -1)
        letters.extend(g + offset if g > 0 else g - offset for g in block.letters)
        arr[j - 1], arr[j] = arr[j], arr[j - 1]
    return word(n, letters), tuple(arr)


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
        _check_widths(self.tubular, self.widths)
        orbits = orbit_structure(self.tubular)
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
        if len(self.interiors) != len(self.widths):
            raise ValueError("one interior braid per tube position required")
        for width, interior in zip(self.widths, self.interiors):
            if interior.strands != width:
                raise ValueError("interior strand count must equal its tube width")


def _check_widths(tubular: BraidWord, widths: tuple[int, ...]) -> None:
    if len(widths) != tubular.strands:
        raise ValueError(
            f"expected {tubular.strands} widths, got {len(widths)}"
        )
    if not all(isinstance(width, int) and width >= 1 for width in widths):
        raise ValueError("tube widths must be positive integers")
    for orbit in orbit_structure(tubular):
        if len({widths[a - 1] for a in orbit}) != 1:
            raise ValueError(f"widths not constant along orbit {orbit}")


def assemble(rf: RegularForm) -> BraidWord:
    """
    The composite braid of a regular form: the cabled tubular word followed
    by each orbit's interior braid embedded, at the end of the word, on the
    strand block of the orbit's first tube position.
    """
    cabled, final_arr = _cable_word(rf.tubular, rf.widths)
    if final_arr != rf.widths:  # widths are constant on orbits
        raise AssertionError("internal error: cabling ended on a different width arrangement")
    n = rf.composite_strands
    out = cabled
    for orbit, interior in zip(orbit_structure(rf.tubular), rf.interiors):
        offset = _block_start(rf.widths, orbit[0]) - 1
        out = concat(out, _embed(interior, n, offset))
    return out


def assemble_assignment(
    tubular: BraidWord, assignment: TubePositionAssignment
) -> BraidWord:
    """
    The composite braid of a general per-position assignment: each tube's
    interior braiding placed at the start of the word on that tube's starting
    block, followed by the cabled tubular word.
    """
    _check_widths(tubular, assignment.widths)
    cabled, _ = _cable_word(tubular, assignment.widths)
    n = sum(assignment.widths)
    out = identity_word(n)
    for j, interior in enumerate(assignment.interiors, start=1):
        offset = _block_start(assignment.widths, j) - 1
        out = concat(out, _embed(interior, n, offset))
    return concat(out, cabled)


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
    _check_widths(tubular, assignment.widths)
    widths = assignment.widths
    n = sum(widths)
    orbits = orbit_structure(tubular)
    conjugator = identity_word(n)
    interiors = []
    for orbit in orbits:
        r = len(orbit)
        # after pushing top interiors through the tubes, the braid of the tube
        # starting at a_j sits at the bottom of block a_{j+1}
        accumulated = assignment.interiors[orbit[0] - 1]
        for j in range(1, r):
            mover = _embed(accumulated, n, _block_start(widths, orbit[j]) - 1)
            conjugator = concat(mover, conjugator)
            accumulated = concat(accumulated, assignment.interiors[orbit[j] - 1])
        interiors.append(accumulated)
    regular = RegularForm(tubular, widths, tuple(interiors))
    general_word = assemble_assignment(tubular, assignment)
    if not is_equal(conjugate(conjugator, general_word), assemble(regular)):
        raise AssertionError("internal error: interior normalization conjugator failed")
    return regular, conjugator


def _swap_positions(arr: tuple[int, ...], x: int, y: int) -> tuple[int, ...]:
    out = list(arr)
    out[x - 1], out[y - 1] = out[y - 1], out[x - 1]
    return tuple(out)


def _cabled_band_bands(
    arr: tuple[int, ...], v: BraidWord, j: int
) -> list[Band] | None:
    """
    Bands multiplying out to the cable of the tubular band v σ_j v^{-1} from
    the given arrangement, built by peeling letters of v: peeling a letter is
    sound when its cabled block is insensitive to swapping the widths of the
    two banded tubes (always true when those widths agree).  Returns None on
    a stuck peel; the caller falls back to element-level certification, since
    unequal banded widths make the cable pick up framing contributions that
    no uniform-conjugator refactoring can absorb.
    """
    m = v.strands
    n = sum(arr)
    # forward: the cable of each letter of v, from the arrangement before it,
    # and where it starts in the cable of v
    heads: list[BraidWord] = []
    starts: list[int] = []
    total = 0
    for t in v.letters:
        head, arr = _cable_word(BraidWord(m, (t,)), arr)
        starts.append(total)
        total += len(head)
        # the whole cable of v conjugates each core band: refuse it before
        # building past the cap
        _check_letter_count(total)
        heads.append(head)
    p, q = arr[j - 1], arr[j]
    offset = _block_start(arr, j) - 1
    core = [t + offset for t in block_transposition(p, q, 1).letters]
    # backward: peeling letter i prefixes every band so far with its cable.
    # widths is undone to the arrangement before letter i, and x, y are the
    # positions there of the two tubes that the rest of v carries to j, j+1.
    widths = list(arr)
    x, y = j, j + 1
    count, letters = len(core), 0  # bands so far and their conjugator letters
    junk: list[tuple[int, tuple[int, ...]]] = []  # (peel, letters), last peel first
    for i in range(len(heads) - 1, -1, -1):
        a = abs(v.letters[i])
        swap = {a: a + 1, a + 1: a}
        x, y = swap.get(x, x), swap.get(y, y)
        widths[a - 1], widths[a] = widths[a], widths[a - 1]
        letters += count * len(heads[i])
        _check_letter_count(letters)
        if widths[x - 1] != widths[y - 1]:
            # the peel closes with the letter cabled from the width-swapped
            # arrangement: X = A·M·A'^{-1} = (A·M·A^{-1})·(A·A'^{-1}); the junk
            # A·A'^{-1} is absorbable only when it reduces to a positive word
            letter = BraidWord(m, (v.letters[i],))
            swapped, _ = _cable_word(letter, _swap_positions(tuple(widths), x, y))
            if swapped != heads[i]:
                reduced = free_reduce(concat(heads[i], invert_word(swapped))).letters
                if any(t < 0 for t in reduced):
                    return None
                junk.append((i, reduced))
                count += len(reduced)
    # a band of peel i is conjugated by the cables of the letters before it
    conjugator = tuple(t for head in heads for t in head.letters)
    bands = [Band(BraidWord(n, conjugator), t) for t in core]
    for i, reduced in junk:
        prefix = BraidWord(n, conjugator[: starts[i]])
        bands.extend(Band(prefix, t) for t in reduced)
    return bands


def _reduced_conjugator(conjugator: BraidWord, gen_index: int) -> BraidWord:
    """Freely reduce a band conjugator and drop trailing σ_gen^±1 letters,
    which commute with the core generator and only lengthen the cable."""
    v = free_reduce(conjugator)
    letters = list(v.letters)
    while letters and abs(letters[-1]) == gen_index:
        letters.pop()
    return BraidWord(v.strands, tuple(letters))


def _certify_cabled_band(arr: tuple[int, ...], band: Band) -> list[Band]:
    v = _reduced_conjugator(band.conjugator, band.gen_index)
    bands = _cabled_band_bands(arr, v, band.gen_index)
    if bands is not None:
        return bands
    # element-level fallback: the cabled band is still quasipositive, but its
    # band structure must be recovered from the element itself
    cabled, _ = _cable_word(band.to_word(), arr)
    verdict = obstruct(cabled)
    if verdict.status is QPStatus.QP:
        return list(verdict.certificate.bands)
    raise ValueError(
        "certificate cabling is not supported for this width configuration: "
        f"the band with conjugator '{band.conjugator!r}' crosses tubes of "
        "unequal widths along its conjugator path"
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
    _check_widths(tubular, widths)
    orbits = orbit_structure(tubular)
    interior_certs = tuple(interior_certs)
    if len(interior_certs) != len(orbits):
        raise ValueError(f"expected {len(orbits)} interior certificates")
    for orbit, cert in zip(orbits, interior_certs):
        if cert.strands != widths[orbit[0] - 1]:
            raise ValueError("interior certificate strand count must match orbit width")
    n = sum(widths)
    bands: list[Band] = []
    arr = widths
    for band in tubular_cert.bands:
        bands.extend(_certify_cabled_band(arr, band))
        arr = _permute_arrangement(arr, underlying_permutation(band.to_word()))
    if arr != widths:
        raise AssertionError("internal error: cabled bands ended on a different width arrangement")
    for orbit, cert in zip(orbits, interior_certs):
        offset = _block_start(widths, orbit[0]) - 1
        for band in cert.bands:
            bands.append(
                Band(_embed(band.conjugator, n, offset), band.gen_index + offset)
            )
    result = QPCertificate(n, tuple(bands))
    composite = assemble(
        RegularForm(tubular, widths, tuple(expand(c) for c in interior_certs))
    )
    if not verify(result, composite):
        raise AssertionError("internal error: cabled certificate failed verification")
    return result


def _permute_arrangement(
    arr: tuple[int, ...], perm: Permutation
) -> tuple[int, ...]:
    out = [0] * len(arr)
    for pos in range(1, len(arr) + 1):
        out[perm(pos) - 1] = arr[pos - 1]
    return tuple(out)


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


def _tubular_from_json(data) -> tuple[BraidWord, tuple[int, ...]]:
    if not (
        isinstance(data, dict)
        and isinstance(data.get("tubular"), str)
        and isinstance(data.get("widths"), list)
    ):
        raise ValueError('cabling input must be an object with a "tubular" word and a "widths" list')
    widths = tuple(data["widths"])
    tubular = parse_word(data["tubular"], len(widths))
    _check_widths(tubular, widths)
    return tubular, widths


def regular_form_from_json(data: dict) -> RegularForm:
    """Inverse of regular_form_to_json; raises ValueError on any other shape."""
    tubular, widths = _tubular_from_json(data)
    entries = data.get("interiors", [])
    if not isinstance(entries, list):
        raise ValueError('"interiors" must be a list')
    orbits = orbit_structure(tubular)
    interiors = [identity_word(widths[orbit[0] - 1]) for orbit in orbits]
    for entry in entries:
        if not (
            isinstance(entry, dict)
            and isinstance(entry.get("orbit"), int)
            and isinstance(entry.get("word"), str)
        ):
            raise ValueError('each interior must be an object with an integer "orbit" and a "word"')
        i = entry["orbit"]
        if not 0 <= i < len(orbits):
            raise ValueError(f"orbit {i} out of range: the tubular braid has {len(orbits)} orbits")
        interiors[i] = parse_word(entry["word"], widths[orbits[i][0] - 1])
    return RegularForm(tubular, widths, tuple(interiors))


def assignment_from_json(data: dict) -> tuple[BraidWord, TubePositionAssignment]:
    """Read {"tubular": word, "widths": [...], "positions": [word per tube]}, the
    input of `cable normalize`; raises ValueError on any other shape."""
    tubular, widths = _tubular_from_json(data)
    positions = data.get("positions")
    if not (
        isinstance(positions, list)
        and len(positions) == len(widths)
        and all(isinstance(text, str) for text in positions)
    ):
        raise ValueError('"positions" must be a list of one word per tube position')
    interiors = tuple(parse_word(text, width) for text, width in zip(positions, widths))
    return tubular, TubePositionAssignment(widths, interiors)

