"""Tests for tube orbits, block transpositions, assembly, and certificate cabling."""

import random

import pytest

from braidforge.cabling import (
    RegularForm,
    TubePositionAssignment,
    assemble,
    assemble_assignment,
    assignment_from_json,
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
    assert block_transposition(1, 1, 1).signed_ints() == (1,)
    assert block_transposition(1, 2, 1).signed_ints() == (1, 2)
    assert block_transposition(2, 2, 1).signed_ints() == (2, 3, 1, 2)
    assert is_equal(block_transposition(2, 2, 1), parse_word("2 1 3 2", 4))
    with pytest.raises(ValueError):
        block_transposition(0, 1)
    # p·q letters past the word letter cap are refused before they are built
    assert len(block_transposition(300, 300)) == 90_000
    with pytest.raises(ValueError, match="more than"):
        block_transposition(400, 300)


def test_block_transposition_permutation_oracle():
    for p in range(1, 4):
        for q in range(1, 4):
            w = block_transposition(p, q, 1)
            assert len(w) == p * q
            assert all(v > 0 for v in w)
            perm = underlying_permutation(w)
            for s in range(1, p + 1):
                assert perm(s) == q + s
            for s in range(p + 1, p + q + 1):
                assert perm(s) == s - p
            inv = block_transposition(p, q, -1)
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
    from braidforge.cabling import _certify_cabled_band

    bands = _certify_cabled_band((1, 1, 2), Band(word(3, [2]), 1))
    product = identity_word(4)
    for band in bands:
        product = concat(product, band.to_word())
    from braidforge.cabling import _cable_word

    cabled, _ = _cable_word(parse_word("2 1 -2", 3), (1, 1, 2))
    assert is_equal(product, cabled)
    assert len(bands) == exponent_sum(cabled) == 3


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


def test_cable_certificate_long_conjugator():
    # a band conjugated by (σ1 σ2)^600, 1200 letters: the conjugator is
    # peeled in one loop, with no Python frame per letter
    cert = QPCertificate(3, (Band(parse_word("(1 2)^600", 3), 1),))
    for width in (1, 2):
        _check_cabled(cert, [QPCertificate(width)] * 2, (width,) * 3)


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
