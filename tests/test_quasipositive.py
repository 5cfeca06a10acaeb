"""Tests for quasipositivity certificates and the obstruction rules."""

import random

import pytest

from braidforge.garside import MAX_NF_ENTRIES, is_equal, half_twist
from braidforge.quasipositive import (
    Band,
    NotQPReason,
    QPCertificate,
    QPStatus,
    certificate_from_json,
    certificate_to_json,
    conjugate_certificate,
    expand,
    normalize_band_to_sigma1,
    obstruct,
    qp_root_periodic,
    verify,
)
from braidforge.words import (
    conjugate,
    exponent_sum,
    identity_word,
    parse_word,
    power,
    word,
)


def random_word(rng, n, length):
    return word(n, (rng.choice([-1, 1]) * rng.randint(1, n - 1) for _ in range(length)))


def random_certificate(rng, n, bands, conj_len=5):
    return QPCertificate(
        n,
        tuple(
            Band(random_word(rng, n, rng.randint(0, conj_len)), rng.randint(1, n - 1))
            for _ in range(bands)
        ),
    )


BAND_PAIR = QPCertificate(4, (Band(word(4, [2]), 3), Band(word(4, [1]), 2)))


def test_expand_examples():
    assert expand(QPCertificate(3, ())) == identity_word(3)
    assert expand(BAND_PAIR).signed_ints() == (2, 3, -2, 1, 2, -1)
    assert expand(QPCertificate(2, (Band(identity_word(2), 1),))).signed_ints() == (1,)


def test_expand_exponent_sum_is_band_count():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(2, 5)
        cert = random_certificate(rng, n, rng.randint(0, 6))
        assert exponent_sum(expand(cert)) == len(cert)


def test_expand_is_the_band_by_band_concatenation():
    # 3000 bands with conjugators of up to 15 letters
    rng = random.Random(43)
    cert = random_certificate(rng, 10, 3000, conj_len=15)
    letters = [v for band in cert.bands for v in band.to_word().letters]
    assert expand(cert) == word(10, letters)


def test_expansion_cap():
    # strands × letters of the expansion may reach MAX_NF_ENTRIES but not
    # pass it: two bands of 2·125 000 + 1 and 2·124 999 + 1 letters on 10
    # strands are exactly at the cap, and one more conjugator letter is over
    n = 10
    assert n * 500_000 == MAX_NF_ENTRIES
    long, short = word(n, [1, 2] * 62_500), word(n, [1, 2] * 62_499 + [3])
    at_cap = QPCertificate(n, (Band(long, 1), Band(short, 2)))
    assert len(expand(at_cap)) == 500_000
    over = QPCertificate(n, (Band(long, 1), Band(long, 2)))
    message = f"a word of 500002 letters on 10 strands is more than {MAX_NF_ENTRIES} normal-form"
    with pytest.raises(ValueError, match=message):
        expand(over)
    with pytest.raises(ValueError, match=message):
        verify(over, word(n, [1, 2]))


def test_certificate_from_json_counts_the_expansion():
    # each band of "1^99999" expands to 199 999 letters: two pass on 10
    # strands, and the third is refused before any later band is read, so
    # the malformed fourth band is never reached
    band = {"conj": "1^99999", "gen": 1}
    assert len(certificate_from_json({"n": 10, "bands": [band] * 2})) == 2
    data = {"n": 10, "bands": [band] * 3 + [{"conj": 1}]}
    with pytest.raises(ValueError, match="a word of 599997 letters on 10 strands is more than"):
        certificate_from_json(data)


def test_verify():
    assert verify(BAND_PAIR, parse_word("2 1 3 2 -1 -1", 4))
    assert not verify(QPCertificate(2, ()), word(2, [1]))
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(2, 5)
        cert = random_certificate(rng, n, rng.randint(0, 5))
        assert verify(cert, expand(cert))
    with pytest.raises(ValueError):
        verify(BAND_PAIR, word(3, [1]))


def test_band_generator_validation():
    # the generator index is an int in [1, n-1]; a bool or a float is not an int
    for gen in [0, 3, True, 1.0]:
        with pytest.raises(ValueError):
            Band(identity_word(3), gen)


def test_conjugate_certificate():
    rng = random.Random(7)
    cert = random_certificate(rng, 4, 3)
    assert conjugate_certificate(cert, identity_word(4)) == cert
    for _ in range(50):
        n = rng.randint(2, 5)
        cert = random_certificate(rng, n, rng.randint(0, 4))
        u = random_word(rng, n, rng.randint(0, 5))
        conj = conjugate_certificate(cert, u)
        assert len(conj) == len(cert)
        assert verify(conj, conjugate(u, expand(cert)))


def test_normalize_band_to_sigma1():
    for n in range(2, 6):
        for i in range(1, n):
            band = Band(identity_word(n), i)
            normalized = normalize_band_to_sigma1(band)
            assert normalized.gen_index == 1
            assert is_equal(normalized.to_word(), band.to_word())
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(2, 5)
        band = Band(random_word(rng, n, rng.randint(0, 5)), rng.randint(1, n - 1))
        assert is_equal(normalize_band_to_sigma1(band).to_word(), band.to_word())


def test_obstruct_negative_exponent_paper_example():
    verdict = obstruct(parse_word("(1 2)^6 1^-13", 3))
    assert verdict.status is QPStatus.NOT_QP
    assert verdict.reason is NotQPReason.NEGATIVE_EXPONENT_SUM


def test_obstruct_identity():
    verdict = obstruct(identity_word(3))
    assert verdict.status is QPStatus.QP
    assert len(verdict.certificate) == 0
    # non-trivial word for the identity
    verdict = obstruct(parse_word("1 2 -2 -1", 3))
    assert verdict.status is QPStatus.QP


def test_obstruct_zero_exponent():
    verdict = obstruct(parse_word("1 -2", 3))
    assert verdict.status is QPStatus.NOT_QP
    assert verdict.reason is NotQPReason.ZERO_EXPONENT_NONIDENTITY


def test_obstruct_single_band():
    verdict = obstruct(parse_word("2 1 -2", 3))
    assert verdict.status is QPStatus.QP
    assert verify(verdict.certificate, parse_word("2 1 -2", 3))


def test_obstruct_ab_one_not_band():
    # exponent sum 1 but not conjugate to σ1: e.g. σ1^3 σ2^-1 σ1^-1 in B_3
    w = parse_word("1 1 1 -2 -1", 3)
    assert exponent_sum(w) == 1
    verdict = obstruct(w)
    assert verdict.status in (QPStatus.NOT_QP, QPStatus.UNKNOWN)
    if verdict.status is QPStatus.NOT_QP:
        assert verdict.reason is NotQPReason.ABELIANIZATION_ONE_NOT_BAND


def test_obstruct_positive_words():
    verdict = obstruct(word(4, [1, 3, 2, 1]))
    assert verdict.status is QPStatus.QP
    assert verify(verdict.certificate, word(4, [1, 3, 2, 1]))
    assert len(verdict.certificate) == 4
    # positive element hidden in a non-positive word
    w = parse_word("2 1 -1 1", 3)
    verdict = obstruct(w)
    assert verdict.status is QPStatus.QP
    assert verify(verdict.certificate, w)


def test_obstruct_never_rejects_expansions():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(2, 4)
        cert = random_certificate(rng, n, rng.randint(0, 3), conj_len=3)
        verdict = obstruct(expand(cert))
        assert verdict.status is not QPStatus.NOT_QP
        if verdict.status is QPStatus.QP:
            assert verify(verdict.certificate, expand(cert))


def test_obstruct_conjugation_invariance():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(2, 4)
        b = random_word(rng, n, rng.randint(0, 6))
        u = random_word(rng, n, rng.randint(0, 4))
        v1 = obstruct(b)
        v2 = obstruct(conjugate(u, b))
        if QPStatus.UNKNOWN not in (v1.status, v2.status):
            assert v1.status == v2.status


def test_qp_root_periodic_examples():
    dd = power(half_twist(3), 2)
    cert3 = qp_root_periodic(dd, 3)
    assert len(cert3) == 2
    assert is_equal(power(expand(cert3), 3), dd)
    cert2 = qp_root_periodic(dd, 2)
    assert len(cert2) == 3
    assert is_equal(power(expand(cert2), 2), dd)
    assert qp_root_periodic(power(half_twist(2), -2), 2) is None


def test_qp_root_periodic_conjugate_instance():
    rng = random.Random(19)
    n = 4
    u = random_word(rng, n, 4)
    b = conjugate(u, power(word(n, [1, 2, 3]), 2))
    cert = qp_root_periodic(b, 2)
    assert cert is not None
    assert is_equal(power(expand(cert), 2), b)


def test_certificate_json_round_trip():
    data = certificate_to_json(BAND_PAIR)
    assert data == {"n": 4, "bands": [{"conj": "2", "gen": 3}, {"conj": "1", "gen": 2}]}
    assert certificate_from_json(data) == BAND_PAIR
