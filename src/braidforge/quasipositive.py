"""
quasipositive: certificates of quasipositivity and obstructions against it.

A braid is quasipositive when it is a product of bands w σ_i w^{-1}
(conjugates of standard generators; all σ_i are conjugate to σ_1, so the
generator index is free).  Membership is witnessed by a QPCertificate — an
ordered list of bands — which can be expanded to a word and verified against
any candidate braid exactly.

No general decision procedure for quasipositivity is known, so `obstruct`
applies only sound rules, and runs no conjugacy search:
- a quasipositive braid is a product of ab bands, ab its exponent sum, so
  ab < 0 is fatal, and ab = 0 leaves only the identity;
- a positive braid is quasipositive, one band per letter;
- for ab = 1 it is a single band, a conjugate of σ_1, and a band is first
  refused by its image in ℤ ≀ S_n, then decided on its sliding circuit,
  whose representative has the largest inf in its conjugacy class: b is a
  band iff that inf is >= 0, since a positive braid of exponent sum one is
  one letter σ_j.
Anything else is honestly UNKNOWN.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .garside import (
    DEFAULT_BUDGET,
    _check_nf_size,
    _positive_conjugate,
    _wreath_class,
    is_equal,
    periodic_root,
)
from .words import (
    BraidWord,
    _check_strands,
    concat,
    exponent_sum,
    format_word,
    invert_word,
    parse_word,
    power,
    word,
)

__all__ = [
    "Band",
    "QPCertificate",
    "QPStatus",
    "NotQPReason",
    "QPVerdict",
    "expand",
    "verify",
    "conjugate_certificate",
    "normalize_band_to_sigma1",
    "obstruct",
    "qp_root_periodic",
    "certificate_to_json",
    "certificate_from_json",
]


@dataclass(frozen=True, slots=True)
class Band:
    """The braid w σ_i w^{-1}: a conjugated generator, the building block of
    quasipositive factorizations."""

    conjugator: BraidWord
    gen_index: int

    def __post_init__(self):
        if type(self.gen_index) is not int:
            raise ValueError(f"generator index must be an int, got {self.gen_index!r}")
        if not 1 <= self.gen_index <= self.conjugator.strands - 1:
            raise ValueError(
                f"generator index {self.gen_index} out of range for "
                f"{self.conjugator.strands} strands"
            )

    @property
    def strands(self) -> int:
        return self.conjugator.strands

    def to_word(self) -> BraidWord:
        w = self.conjugator
        return concat(concat(w, word(w.strands, [self.gen_index])), invert_word(w))


@dataclass(frozen=True, slots=True)
class QPCertificate:
    """An ordered product of bands witnessing quasipositivity.  The expansion
    always has exponent sum equal to the number of bands."""

    strands: int
    bands: tuple[Band, ...] = ()

    def __post_init__(self):
        _check_strands(self.strands)
        for band in self.bands:
            if band.strands != self.strands:
                raise ValueError("band strand count differs from certificate")

    def __len__(self) -> int:
        return len(self.bands)


def _conjugated_positive(g: BraidWord, p: BraidWord) -> QPCertificate:
    """The certificate of g·p·g^{-1} for a positive word p: one band
    g σ_i g^{-1} per letter σ_i of p."""
    return QPCertificate(p.strands, tuple(Band(g, v) for v in p.letters))


def expand(cert: QPCertificate) -> BraidWord:
    """The certificate as a word: the concatenation of its bands.  Raises
    ValueError, before allocating it, when strands times letters would be
    more than garside.MAX_NF_ENTRIES, past what `verify` can normal-form."""
    _check_nf_size(cert.strands, sum(2 * len(band.conjugator) + 1 for band in cert.bands))
    letters: list[int] = []
    for band in cert.bands:
        w = band.conjugator.letters
        letters.extend(w)
        letters.append(band.gen_index)
        letters.extend(-v for v in reversed(w))
    return BraidWord(cert.strands, tuple(letters))


def verify(cert: QPCertificate, b: BraidWord) -> bool:
    """Whether the certificate is a factorization of b (equality in B_n)."""
    if cert.strands != b.strands:
        raise ValueError(f"strand counts differ: {cert.strands} vs {b.strands}")
    return is_equal(expand(cert), b)


def conjugate_certificate(cert: QPCertificate, u: BraidWord) -> QPCertificate:
    """The certificate for u·b·u^{-1} obtained by conjugating every band."""
    if cert.strands != u.strands:
        raise ValueError(f"strand counts differ: {cert.strands} vs {u.strands}")
    return QPCertificate(
        cert.strands,
        tuple(Band(concat(u, band.conjugator), band.gen_index) for band in cert.bands),
    )


def normalize_band_to_sigma1(band: Band) -> Band:
    """
    The same band written over σ_1, using the fixed positive connector
    c_i = (σ_{i-1}...σ_1)(σ_i...σ_2) with c_i σ_1 c_i^{-1} = σ_i.
    """
    i = band.gen_index
    n = band.strands
    connector = word(n, list(range(i - 1, 0, -1)) + list(range(i, 1, -1)))
    return Band(concat(band.conjugator, connector), 1)


class QPStatus(Enum):
    QP = "qp"
    NOT_QP = "not_qp"
    UNKNOWN = "unknown"


class NotQPReason(Enum):
    NEGATIVE_EXPONENT_SUM = "negative_exponent_sum"
    ZERO_EXPONENT_NONIDENTITY = "zero_exponent_nonidentity"
    ABELIANIZATION_ONE_NOT_BAND = "abelianization_one_not_band"


@dataclass(frozen=True, slots=True)
class QPVerdict:
    """Outcome of the obstruction rules.  A QP verdict always carries a
    certificate that has been verified against the input."""

    status: QPStatus
    reason: NotQPReason | None = None
    certificate: QPCertificate | None = None


def obstruct(b: BraidWord) -> QPVerdict:
    """
    Classify b, of exponent sum ab, by sound quasipositivity rules, in
    order, with no conjugacy search:
    1. ab < 0 is NOT_QP (NEGATIVE_EXPONENT_SUM).
    2. ab = 1 with an image in ℤ ≀ S_n not conjugate to σ_1's is NOT_QP
       (ABELIANIZATION_ONE_NOT_BAND).
    3. b is QP when its left normal form, slid onto its sliding circuit if
       ab = 1, is positive: b = g·p·g^{-1} for g the slides and p positive,
       certified by one band g σ_i g^{-1} per letter of p.  The identity is
       the empty word p, and for ab = 1 p is one letter σ_j.
    4. Otherwise ab = 0 is NOT_QP (ZERO_EXPONENT_NONIDENTITY), and ab = 1
       is NOT_QP (ABELIANIZATION_ONE_NOT_BAND): the circuit has the largest
       inf in b's conjugacy class, so no conjugate of b is a letter σ_j.
       Everything else is UNKNOWN.
    A QP certificate is verified against b before it is returned.
    """
    ab = exponent_sum(b)
    if ab < 0:
        return QPVerdict(QPStatus.NOT_QP, NotQPReason.NEGATIVE_EXPONENT_SUM)
    if ab == 1 and _wreath_class(b)[1] != _wreath_class(word(b.strands, [1]))[1]:
        return QPVerdict(QPStatus.NOT_QP, NotQPReason.ABELIANIZATION_ONE_NOT_BAND)
    found = _positive_conjugate(b, slide=ab == 1)
    if found is not None:
        cert = _conjugated_positive(*found)
        if not verify(cert, b):
            raise AssertionError("internal error: certificate failed verification")
        return QPVerdict(QPStatus.QP, certificate=cert)
    if ab > 1:
        return QPVerdict(QPStatus.UNKNOWN)
    reason = NotQPReason.ABELIANIZATION_ONE_NOT_BAND if ab else NotQPReason.ZERO_EXPONENT_NONIDENTITY
    return QPVerdict(QPStatus.NOT_QP, reason)


def qp_root_periodic(
    b: BraidWord, d: int, budget: int = DEFAULT_BUDGET
) -> QPCertificate | None:
    """
    A certificate for a d-th root of the periodic braid b, when the root
    representative δ^i or γ^i has i >= 0 (powers of periodic positive words
    are positive, hence certifiably quasipositive).  The certificate is
    conjugated so that its expansion x satisfies x^d = b exactly.
    """
    root = periodic_root(b, d, budget=budget)
    if root is None or root.power < 0:
        return None
    cert = _conjugated_positive(root.conjugator, root.to_word())
    if not is_equal(power(expand(cert), d), b):
        raise AssertionError("internal error: root certificate failed verification")
    return cert


# --- JSON interchange ---------------------------------------------------------


def certificate_to_json(cert: QPCertificate) -> dict:
    return {
        "n": cert.strands,
        "bands": [
            {"conj": format_word(band.conjugator), "gen": band.gen_index}
            for band in cert.bands
        ],
    }


def certificate_from_json(data: dict) -> QPCertificate:
    """Inverse of certificate_to_json; raises ValueError on any other shape,
    and on a certificate that `expand` would refuse, as soon as the bands
    read so far pass its bound."""
    if not (
        isinstance(data, dict)
        and type(data.get("n")) is int
        and isinstance(data.get("bands"), list)
    ):
        raise ValueError('certificate must be an object with an integer "n" and a "bands" list')
    n = data["n"]
    bands = []
    letters = 0
    for entry in data["bands"]:
        if not (
            isinstance(entry, dict)
            and isinstance(entry.get("conj"), str)
            and type(entry.get("gen")) is int
        ):
            raise ValueError('each band must be an object with a "conj" word and an integer "gen"')
        band = Band(parse_word(entry["conj"], n), entry["gen"])
        letters += 2 * len(band.conjugator) + 1
        _check_nf_size(n, letters)
        bands.append(band)
    return QPCertificate(n, tuple(bands))
