"""Tests for tube orbits, block transpositions, assembly, and certificate cabling."""

import random

import pytest

from braidforge import cabling
from braidforge.cabling import (
    RegularForm,
    TubePositionAssignment,
    assemble,
    assemble_assignment,
    assignment_from_json,
    _cable_word,
    _cabled_band_bands,
    _certify_cabled_band,
    block_transposition,
    cable_certificate,
    normalize_interiors,
    orbit_structure,
    regular_form_from_json,
    regular_form_to_json,
)
from braidforge.garside import is_equal
from braidforge.quasipositive import Band, QPCertificate, expand, verify
from braidforge.words import (
    BraidWord,
    Permutation,
    concat,
    conjugate,
    exponent_sum,
    format_word,
    identity_word,
    invert_word,
    free_reduce,
    parse_word,
    underlying_permutation,
    word,
)


def random_word(rng, n, length):
    if n == 1:
        return identity_word(1)
    return word(n, (rng.choice([-1, 1]) * rng.randint(1, n - 1) for _ in range(length)))


def random_regular_form(rng, max_m=3, max_width=3, tub_len=4, int_len=4):
    m = rng.randint(1, max_m)
    tubular = random_word(rng, m, rng.randint(0, tub_len))
    orbits = orbit_structure(tubular)
    widths = [0] * m
    for orbit in orbits:
        width = rng.randint(1, max_width)
        for a in orbit:
            widths[a - 1] = width
    interiors = tuple(
        random_word(rng, widths[orbit[0] - 1], rng.randint(0, int_len))
        for orbit in orbits
    )
    return RegularForm(tubular, tuple(widths), interiors)


# --- orbit structure ---


def test_orbit_structure_examples():
    assert orbit_structure(word(2, [1])) == [(1, 2)]
    assert orbit_structure(identity_word(3)) == [(1,), (2,), (3,)]
    assert orbit_structure(word(3, [1])) == [(1, 2), (3,)]


def test_orbit_structure_follows_permutation():
    w = parse_word("1 2 3", 4)
    orbits = orbit_structure(w)
    p = underlying_permutation(w)
    for orbit in orbits:
        for j, a in enumerate(orbit):
            assert p(a) == orbit[(j + 1) % len(orbit)]


# --- block transpositions ---


def test_block_transposition_examples():
    assert block_transposition(1, 1).signed_ints() == (1,)
    assert block_transposition(1, 2).signed_ints() == (1, 2)
    assert block_transposition(2, 2).signed_ints() == (2, 3, 1, 2)
    assert is_equal(block_transposition(2, 2), parse_word("2 1 3 2", 4))
    with pytest.raises(ValueError):
        block_transposition(0, 1)
    # p·q letters past the word letter cap are refused before they are built
    assert len(block_transposition(300, 300)) == 90_000
    with pytest.raises(ValueError, match="more than"):
        block_transposition(400, 300)


def test_block_transposition_permutation_oracle():
    for p in range(1, 4):
        for q in range(1, 4):
            w = block_transposition(p, q)
            assert len(w) == p * q
            assert all(v > 0 for v in w)
            perm = underlying_permutation(w)
            for s in range(1, p + 1):
                assert perm(s) == q + s
            for s in range(p + 1, p + q + 1):
                assert perm(s) == s - p
            # a negative crossing cables to the formal inverse of the
            # crossing that undoes it
            inv, arr = _cable_word(word(2, [-1]), (q, p))
            assert arr == (p, q)
            assert inv.signed_ints() == tuple(
                -v for v in reversed(w.signed_ints())
            )


# --- assembly ---


def test_assemble_trivial_widths():
    rf = RegularForm(word(2, [1]), (1, 1), (identity_word(1), ))
    assert assemble(rf).signed_ints() == (1,)


def test_assemble_reproduces_band_word():
    rf = RegularForm(word(2, [1]), (2, 2), (parse_word("-1 -1", 2),))
    composite = assemble(rf)
    assert composite.signed_ints() == (2, 3, 1, 2, -1, -1)
    assert is_equal(composite, parse_word("2 1 3 2 -1 -1", 4))
    assert is_equal(composite, parse_word("2 3 -2 1 2 -1", 4))


def test_assemble_single_static_tube():
    x = parse_word("1 -2 1", 3)
    rf = RegularForm(identity_word(1), (3,), (x,))
    assert assemble(rf) == x


def test_assemble_width_validation():
    with pytest.raises(ValueError):
        RegularForm(word(2, [1]), (1, 2), (identity_word(1),))
    with pytest.raises(ValueError):
        RegularForm(word(2, [1]), (2, 2), (identity_word(3),))


def test_assemble_exponent_sum_invariant():
    rng = random.Random(23)
    for _ in range(60):
        rf = random_regular_form(rng)
        total = sum(exponent_sum(interior) for interior in rf.interiors)
        arr = list(rf.widths)
        for v in rf.tubular:
            j = abs(v)
            total += (1 if v > 0 else -1) * arr[j - 1] * arr[j]
            arr[j - 1], arr[j] = arr[j], arr[j - 1]
        assert exponent_sum(assemble(rf)) == total


def test_assemble_permutation_invariant():
    # blockwise induced permutation, computed by an independent direct oracle
    rng = random.Random(29)
    for _ in range(60):
        rf = random_regular_form(rng)
        n = rf.composite_strands
        tau = underlying_permutation(rf.tubular)
        starts = {}
        acc = 1
        for pos, width in enumerate(rf.widths, start=1):
            starts[pos] = acc
            acc += width
        images = [0] * n
        for pos, width in enumerate(rf.widths, start=1):
            for o in range(width):
                images[starts[pos] + o - 1] = starts[tau(pos)] + o
        expected = Permutation(tuple(images))
        for orbit, interior in zip(orbit_structure(rf.tubular), rf.interiors):
            p_int = underlying_permutation(interior)
            base = starts[orbit[0]]
            images2 = list(range(1, n + 1))
            for o in range(rf.widths[orbit[0] - 1]):
                images2[base + o - 1] = base + p_int(o + 1) - 1
            # apply expected first, then the interior's permutation
            expected = Permutation(tuple(images2[v - 1] for v in expected.images))
        assert underlying_permutation(assemble(rf)) == expected


def test_assemble_respects_tubular_equality():
    # equal tubular words produce equal composites
    rng = random.Random(31)
    pairs = [
        (parse_word("1 2 1", 3), parse_word("2 1 2", 3)),
        (parse_word("1 -1 2", 3), parse_word("2", 3)),
        (parse_word("1 2 -2 -1 1", 3), parse_word("1", 3)),
    ]
    for t1, t2 in pairs:
        orbits = orbit_structure(t1)
        assert orbit_structure(t2) == orbits
        widths = [0] * 3
        for orbit in orbits:
            width = rng.randint(1, 3)
            for a in orbit:
                widths[a - 1] = width
        interiors = tuple(
            random_word(rng, widths[orbit[0] - 1], 2) for orbit in orbits
        )
        rf1 = RegularForm(t1, tuple(widths), interiors)
        rf2 = RegularForm(t2, tuple(widths), interiors)
        assert is_equal(assemble(rf1), assemble(rf2))


def test_assemble_validates_each_letter_a_bounded_number_of_times(monkeypatch):
    # a pure tubular braid on 300 tubes of width one has 300 orbits; the
    # composite is built as one word, not re-copied and re-checked per orbit
    tubular = parse_word("(%s)^20" % " ".join("%d^2" % i for i in range(1, 300, 2)), 300)
    rf = RegularForm(tubular, (1,) * 300, (identity_word(1),) * 300)
    validated = []
    post_init = BraidWord.__post_init__

    def counted(self):
        validated.append(len(self.letters))
        post_init(self)

    monkeypatch.setattr(BraidWord, "__post_init__", counted)
    composite = assemble(rf)
    assert len(composite) == 6000
    assert sum(validated) <= 3 * len(composite)


# --- interior normalization ---


def test_normalize_already_regular():
    tubular = word(2, [1])
    # orbit (1, 2): the tube closing the orbit starts at position 2, so a
    # regular assignment has its braiding at position 2
    assignment = TubePositionAssignment(
        (2, 2), (identity_word(2), parse_word("-1 -1", 2))
    )
    regular, u = normalize_interiors(tubular, assignment)
    assert u == identity_word(4)
    assert regular.interiors == (parse_word("-1 -1", 2),)
    assert is_equal(assemble_assignment(tubular, assignment), assemble(regular))


def test_normalize_product_order():
    tubular = word(2, [1])
    assignment = TubePositionAssignment((2, 2), (word(2, [1]), word(2, [1])))
    regular, u = normalize_interiors(tubular, assignment)
    assert is_equal(regular.interiors[0], word(2, [1, 1]))


def test_list_widths_are_stored_as_tuples():
    # widths and interiors given as lists behave as the same tuples: the
    # cabling's closing check compares the widths with a tuple
    rf = RegularForm(word(2, [1]), [2, 2], [parse_word("-1 -1", 2)])
    assert rf == RegularForm(word(2, [1]), (2, 2), (parse_word("-1 -1", 2),))
    assert assemble(rf).signed_ints() == (2, 3, 1, 2, -1, -1)
    assignment = TubePositionAssignment([2, 2], [word(2, [1]), word(2, [1])])
    assert assignment.widths == (2, 2) and isinstance(assignment.interiors, tuple)
    regular, _ = normalize_interiors(word(2, [1]), assignment)
    assert regular.interiors == (word(2, [1, 1]),)


def test_normalize_round_trip_randomized():
    rng = random.Random(37)
    for _ in range(40):
        m = rng.randint(1, 3)
        tubular = random_word(rng, m, rng.randint(0, 4))
        orbits = orbit_structure(tubular)
        widths = [0] * m
        for orbit in orbits:
            width = rng.randint(1, 3)
            for a in orbit:
                widths[a - 1] = width
        assignment = TubePositionAssignment(
            tuple(widths),
            tuple(random_word(rng, widths[j], rng.randint(0, 3)) for j in range(m)),
        )
        regular, u = normalize_interiors(tubular, assignment)
        # the conjugation identity is checked inside; check the interiors too
        general = assemble_assignment(tubular, assignment)
        assert is_equal(conjugate(u, general), assemble(regular))
        for orbit, interior in zip(orbits, regular.interiors):
            product = identity_word(widths[orbit[0] - 1])
            for a in orbit:
                product = concat(product, assignment.interiors[a - 1])
            assert is_equal(interior, product)


# --- certificate cabling ---


def test_cable_certificate_width_one_is_identity():
    cert = QPCertificate(4, (Band(word(4, [2]), 3), Band(word(4, [1]), 2)))
    n_orbits = len(orbit_structure(expand(cert)))
    cabled = cable_certificate(cert, [QPCertificate(1)] * n_orbits, (1, 1, 1, 1))
    assert cabled == cert


def test_cable_certificate_single_static_tube():
    inner = QPCertificate(3, (Band(word(3, [2]), 1), Band(identity_word(3), 2)))
    cabled = cable_certificate(QPCertificate(1), [inner], (3,))
    assert cabled == inner


def test_cable_certificate_six_band_example():
    tubular_cert = QPCertificate(2, (Band(identity_word(2), 1),))
    interior = QPCertificate(2, (Band(identity_word(2), 1), Band(identity_word(2), 1)))
    cabled = cable_certificate(tubular_cert, [interior], (2, 2))
    assert len(cabled) == 6
    rf = RegularForm(word(2, [1]), (2, 2), (word(2, [1, 1]),))
    assert verify(cabled, assemble(rf))
    assert exponent_sum(expand(cabled)) == 6


def _random_interior_certs(rng, orbits, widths):
    certs = []
    for orbit in orbits:
        w_i = widths[orbit[0] - 1]
        bands = tuple(
            Band(random_word(rng, w_i, rng.randint(0, 2)), rng.randint(1, w_i - 1))
            for _ in range(rng.randint(0, 2))
        ) if w_i > 1 else ()
        certs.append(QPCertificate(w_i, bands))
    return certs


def _check_cabled(tubular_cert, interior_certs, widths):
    cabled = cable_certificate(tubular_cert, interior_certs, widths)
    rf = RegularForm(
        expand(tubular_cert), widths, tuple(expand(c) for c in interior_certs)
    )
    composite = assemble(rf)
    assert verify(cabled, composite)
    assert len(cabled) == exponent_sum(composite)


def test_cable_certificate_equal_widths_any_bands():
    rng = random.Random(41)
    for _ in range(25):
        m = rng.randint(1, 3)
        tub_bands = tuple(
            Band(random_word(rng, m, rng.randint(0, 3)), rng.randint(1, m - 1))
            for _ in range(rng.randint(0, 3))
        ) if m > 1 else ()
        tubular_cert = QPCertificate(m, tub_bands)
        width = rng.randint(1, 3)
        widths = (width,) * m
        orbits = orbit_structure(expand(tubular_cert))
        _check_cabled(tubular_cert, _random_interior_certs(rng, orbits, widths), widths)


def test_cable_certificate_mixed_widths_trivial_conjugators():
    rng = random.Random(43)
    for _ in range(25):
        m = rng.randint(2, 4)
        tub_bands = tuple(
            Band(identity_word(m), rng.randint(1, m - 1))
            for _ in range(rng.randint(1, 4))
        )
        tubular_cert = QPCertificate(m, tub_bands)
        tubular = expand(tubular_cert)
        orbits = orbit_structure(tubular)
        widths = [0] * m
        for orbit in orbits:
            width = rng.randint(1, 3)
            for a in orbit:
                widths[a - 1] = width
        _check_cabled(
            tubular_cert, _random_interior_certs(rng, orbits, tuple(widths)),
            tuple(widths),
        )


def test_cable_certificate_unequal_width_junk_absorption():
    # single unequal-width band as half of a cancelling pair: the first peel
    # leaves positive junk, which is absorbed as extra trivial bands
    bands, after = _certify_cabled_band((1, 1, 2), Band(word(3, [2]), 1), 1)
    product = identity_word(4)
    for band in bands:
        product = concat(product, band.to_word())
    cabled, final = _cable_word(parse_word("2 1 -2", 3), (1, 1, 2))
    assert is_equal(product, cabled)
    assert len(bands) == exponent_sum(cabled) == 3
    # the band swaps the tubes at positions 1 and 3
    assert after == final == (2, 1, 1)


def test_cable_certificate_unsupported_width_band_raises():
    # the mirror band's cable is a 4-cycle of exponent sum one: not a band,
    # not quasipositive on its own, so per-band certification must refuse
    tubular_cert = QPCertificate(
        3, (Band(word(3, [2]), 1), Band(word(3, [2]), 1))
    )
    widths = (1, 1, 2)
    orbits = orbit_structure(expand(tubular_cert))
    interior_certs = [QPCertificate(widths[o[0] - 1]) for o in orbits]
    with pytest.raises(ValueError, match="width"):
        cable_certificate(tubular_cert, interior_certs, widths)


def test_cable_certificate_mixed_widths_any_conjugators(monkeypatch):
    # two-band tubular certificates with conjugators of up to 6 letters,
    # widths picked per orbit and trivial interiors: each call certifies the composite or
    # refuses it, and every path of a band occurs: a clean peel across
    # unequal widths, a peel that absorbs junk, an element-level fallback that
    # certifies, and a refusal
    seen = set()
    peel, obstruct = cabling._cabled_band_bands, cabling.obstruct

    def watched_peel(arr, v, j):
        peeled = peel(arr, v, j)
        if peeled is None:
            seen.add("stuck")
        elif any(band.conjugator != peeled[0][0].conjugator for band in peeled[0]):
            seen.add("junk")
        elif peeled[1] != arr:
            seen.add("clean")
        return peeled

    def watched_obstruct(b):
        verdict = obstruct(b)
        seen.add(("fallback", verdict.status.name))
        return verdict

    monkeypatch.setattr(cabling, "_cabled_band_bands", watched_peel)
    monkeypatch.setattr(cabling, "obstruct", watched_obstruct)
    rng = random.Random(59)
    for _ in range(300):
        m = rng.randint(2, 4)
        # a band twice has the trivial permutation, so its tubes can differ
        # in width; two random bands mostly join their tubes in one orbit
        band, other = (
            Band(random_word(rng, m, rng.randint(0, 6)), rng.randint(1, m - 1))
            for _ in range(2)
        )
        tubular_cert = QPCertificate(m, (band, band if rng.random() < 0.5 else other))
        orbits = orbit_structure(expand(tubular_cert))
        widths = [0] * m
        for orbit in orbits:
            width = rng.randint(1, 3)
            for a in orbit:
                widths[a - 1] = width
        widths = tuple(widths)
        interior_certs = [QPCertificate(widths[orbit[0] - 1]) for orbit in orbits]
        try:
            _check_cabled(tubular_cert, interior_certs, widths)
        except ValueError as err:
            assert "unequal widths" in str(err)
            seen.add("refused")
    assert {"clean", "junk", "stuck", ("fallback", "QP"), "refused"} <= seen


def test_cable_certificate_long_conjugator():
    # a band conjugated by (σ1 σ2)^600, 1200 letters: the conjugator is
    # peeled in one loop, with no Python frame per letter
    cert = QPCertificate(3, (Band(parse_word("(1 2)^600", 3), 1),))
    for width in (1, 2):
        _check_cabled(cert, [QPCertificate(width)] * 2, (width,) * 3)


# --- the band peel against a reference ---

# The peel as it was written before it read the one cable walk, kept verbatim
# with the helpers it called: a backward loop that undoes the widths letter by
# letter and cables each swapped letter on its own.  Its letter cap is read
# from the cabling module, so a test can patch both at once.


def reference_check_letter_count(count):
    if count > cabling.MAX_WORD_LETTERS:
        raise ValueError(f"cabled word would have {count} letters")


def reference_block_transposition(p, q, sign):
    reference_check_letter_count(p * q)
    letters = []
    for r in range(p, 0, -1):
        letters.extend(range(r, r + q))
    w = word(p + q, letters)
    return w if sign == 1 else invert_word(w)


def reference_block_start(arrangement, position):
    return 1 + sum(arrangement[: position - 1])


def reference_swap_positions(arr, x, y):
    out = list(arr)
    out[x - 1], out[y - 1] = out[y - 1], out[x - 1]
    return tuple(out)


def reference_cable_word(w, arrangement):
    n = sum(arrangement)
    arr = list(arrangement)
    count = 0
    for v in w.letters:
        j = abs(v)
        count += arr[j - 1] * arr[j]
        arr[j - 1], arr[j] = arr[j], arr[j - 1]
    reference_check_letter_count(count)
    arr = list(arrangement)
    letters = []
    for v in w.letters:
        j = abs(v)
        p, q = arr[j - 1], arr[j]
        offset = reference_block_start(tuple(arr), j) - 1
        block = (
            reference_block_transposition(p, q, 1)
            if v > 0
            else reference_block_transposition(q, p, -1)
        )
        letters.extend(g + offset if g > 0 else g - offset for g in block.letters)
        arr[j - 1], arr[j] = arr[j], arr[j - 1]
    return word(n, letters), tuple(arr)


def reference_cabled_band_bands(arr, v, j):
    m = v.strands
    n = sum(arr)
    # forward: the cable of each letter of v, from the arrangement before it,
    # and where it starts in the cable of v
    heads = []
    starts = []
    total = 0
    for t in v.letters:
        head, arr = reference_cable_word(BraidWord(m, (t,)), arr)
        starts.append(total)
        total += len(head)
        # the whole cable of v conjugates each core band: refuse it before
        # building past the cap
        reference_check_letter_count(total)
        heads.append(head)
    p, q = arr[j - 1], arr[j]
    offset = reference_block_start(arr, j) - 1
    core = [t + offset for t in reference_block_transposition(p, q, 1).letters]
    # backward: peeling letter i prefixes every band so far with its cable.
    # widths is undone to the arrangement before letter i, and x, y are the
    # positions there of the two tubes that the rest of v carries to j, j+1.
    widths = list(arr)
    x, y = j, j + 1
    count, letters = len(core), 0  # bands so far and their conjugator letters
    junk = []  # (peel, letters), last peel first
    for i in range(len(heads) - 1, -1, -1):
        a = abs(v.letters[i])
        swap = {a: a + 1, a + 1: a}
        x, y = swap.get(x, x), swap.get(y, y)
        widths[a - 1], widths[a] = widths[a], widths[a - 1]
        letters += count * len(heads[i])
        reference_check_letter_count(letters)
        if widths[x - 1] != widths[y - 1]:
            # the peel closes with the letter cabled from the width-swapped
            # arrangement: X = A·M·A'^{-1} = (A·M·A^{-1})·(A·A'^{-1}); the junk
            # A·A'^{-1} is absorbable only when it reduces to a positive word
            letter = BraidWord(m, (v.letters[i],))
            swapped, _ = reference_cable_word(
                letter, reference_swap_positions(tuple(widths), x, y)
            )
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


def peel_corpus(seed, size, max_width, max_letters):
    """Seeded (arrangement, conjugator, generator) triples on 2-5 tubes."""
    rng = random.Random(seed)
    for _ in range(size):
        m = rng.randint(2, 5)
        arr = tuple(rng.randint(1, max_width) for _ in range(m))
        v = random_word(rng, m, rng.randint(0, max_letters))
        yield arr, v, rng.randint(1, m - 1)


def check_peels_match_reference(corpus):
    """The peel's bands, None or ValueError equal the reference's on every
    triple, and the arrangement after a peeled band is the one the band's
    permutation makes; returns the kinds of outcome seen."""
    kinds = set()
    for arr, v, j in corpus:
        try:
            want = reference_cabled_band_bands(arr, v, j)
        except ValueError:
            want = "refused"
        try:
            got = _cabled_band_bands(arr, v, j)
        except ValueError:
            got = "refused"
        if isinstance(got, tuple):
            got, after = got
            band = conjugate(v, word(len(arr), [j]))
            perm = underlying_permutation(band)
            expected = [0] * len(arr)
            for pos, width in enumerate(arr, start=1):
                expected[perm(pos) - 1] = width
            assert after == tuple(expected), (arr, v, j)
        assert got == want, (arr, v, j)
        kinds.add("refused" if want == "refused" else "stuck" if want is None else "bands")
    return kinds


def test_peel_matches_reference():
    # m 2-5, widths 1-3 and conjugators of at most 12 letters: no cable comes
    # near the letter cap, so every triple peels or sticks
    kinds = check_peels_match_reference(peel_corpus(47, 4000, 3, 12))
    assert kinds == {"bands", "stuck"}


def test_peel_matches_reference_under_a_small_letter_cap(monkeypatch):
    # widths 1-12 and conjugators of at most 20 letters under a cap of 2000:
    # the cap is checked at every peel, last letter first, so a triple that
    # sticks before its letters pass the cap is still stuck, not refused
    monkeypatch.setattr(cabling, "MAX_WORD_LETTERS", 2000)
    kinds = check_peels_match_reference(peel_corpus(53, 2000, 12, 20))
    assert kinds == {"bands", "stuck", "refused"}
    # σ1^5 σ2 from widths (1, 20, 20) sticks at its first peel, though its
    # cable from the arrangement with the banded tubes swapped, (20, 20, 1),
    # would have 2020 letters: that cable is built only as far as it is peeled
    assert check_peels_match_reference([((1, 20, 20), word(3, [1] * 5 + [2]), 2)]) == {"stuck"}


# --- JSON ---


def test_regular_form_json_round_trip():
    rf = RegularForm(word(2, [1]), (2, 2), (parse_word("-1 -1", 2),))
    data = regular_form_to_json(rf)
    assert data == {
        "tubular": "1",
        "widths": [2, 2],
        "interiors": [{"orbit": 0, "word": "-1 -1"}],
    }
    assert regular_form_from_json(data) == rf


def test_assignment_json_round_trip():
    def assignment_to_json(tubular, assignment):
        return {
            "tubular": format_word(tubular),
            "widths": list(assignment.widths),
            "positions": [format_word(w) for w in assignment.interiors],
        }

    tubular = word(2, [1])
    assignment = TubePositionAssignment((2, 2), (word(2, [1]), parse_word("-1", 2)))
    data = assignment_to_json(tubular, assignment)
    tub2, assignment2 = assignment_from_json(data)
    assert tub2 == tubular and assignment2 == assignment
