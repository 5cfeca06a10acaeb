"""
quasipositive: certificates of quasipositivity and obstructions against it.

A braid is quasipositive when it is a product of bands w σ_i w^{-1}
(conjugates of standard generators; all σ_i are conjugate to σ_1, so the
generator index is free).  Membership is witnessed by a QPCertificate — an
ordered list of bands — which can be expanded to a word and verified against
any candidate braid exactly.

No general decision procedure for quasipositivity is known, so `obstruct`
applies only sound rules: exponent-sum obstructions, the fact that a
quasipositive braid of exponent sum one must be a single band, and positivity
as a sufficient condition.  Anything else is honestly UNKNOWN.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .garside import (
    BudgetExceededError,
    DEFAULT_BUDGET,
    _check_nf_size,
    is_conjugate,
    is_equal,
    nf_to_word,
    normal_form,
    periodic_root,
)
from .words import (
    BraidWord,
    _check_strands,
    concat,
    exponent_sum,
    format_word,
    identity_word,
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


def trivial_certificate(positive: BraidWord) -> QPCertificate:
    """One trivially-conjugated band per letter of an all-positive word."""
    if any(v < 0 for v in positive.letters):
        raise ValueError("trivial certificates need an all-positive word")
    n = positive.strands
    bands = tuple(Band(identity_word(n), v) for v in positive.letters)
    return QPCertificate(n, bands)


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


def obstruct(b: BraidWord, budget: int = DEFAULT_BUDGET) -> QPVerdict:
    """
    Classify b by sound quasipositivity rules, in order: the identity is QP
    with the empty certificate; negative exponent sum is fatal; exponent sum
    zero off the identity is fatal; exponent sum one forces a single band, so
    b is QP iff conjugate to σ_1; positive braids are QP one band per letter.
    Everything else is UNKNOWN, as is the sum-one rule when the conjugacy
    budget runs out.
    """
    n = b.strands
    nf = normal_form(b)
    if nf.delta_power == 0 and not nf.factors:
        return QPVerdict(QPStatus.QP, certificate=QPCertificate(n, ()))
    ab = exponent_sum(b)
    if ab < 0:
        return QPVerdict(QPStatus.NOT_QP, NotQPReason.NEGATIVE_EXPONENT_SUM)
    if ab == 0:
        return QPVerdict(QPStatus.NOT_QP, NotQPReason.ZERO_EXPONENT_NONIDENTITY)
    if ab == 1:
        try:
            res = is_conjugate(word(n, [1]), b, budget=budget)
        except BudgetExceededError:
            return QPVerdict(QPStatus.UNKNOWN)
        if res.conjugate:
            cert = QPCertificate(n, (Band(res.witness, 1),))
            if not verify(cert, b):
                raise AssertionError("internal error: band certificate failed verification")
            return QPVerdict(QPStatus.QP, certificate=cert)
        return QPVerdict(QPStatus.NOT_QP, NotQPReason.ABELIANIZATION_ONE_NOT_BAND)
    if nf.delta_power >= 0:
        cert = trivial_certificate(nf_to_word(nf))
        if not verify(cert, b):
            raise AssertionError("internal error: positive certificate failed verification")
        return QPVerdict(QPStatus.QP, certificate=cert)
    return QPVerdict(QPStatus.UNKNOWN)


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
    cert = conjugate_certificate(trivial_certificate(root.to_word()), root.conjugator)
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
