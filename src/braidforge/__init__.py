"""
braidforge: exact computation in braid groups and their cyclic-cover lifts.

The library decides desk-scale braid problems (word problem, positivity,
periodicity, periodic roots, conjugacy with witnesses) through Garside left
normal forms, manipulates quasipositivity certificates and the obstructions
against them, assembles and normalizes cabled (reducible) braids, and
realizes braid lifts to cyclic branched covers of the disk on integral
homology, cross-checked against reduced Burau specialized at a companion
matrix.  Everything is exact: words, permutations, integer matrices with
Python integers, and Laurent polynomials over the integers.

Only the cover layer (`braidforge.cover`) and the check suite behind
`verify-paper` (`braidforge.checks`) use numpy.  Their names are resolved on
first access, so `import braidforge` and the braid-side work (words, Garside,
quasipositivity, cabling) run without loading numpy.
"""

from .words import (
    ArtinLetter,
    BraidWord,
    Permutation,
    WordSyntaxError,
    concat,
    conjugate,
    exponent_sum,
    format_word,
    free_reduce,
    identity_word,
    invert_word,
    parse_word,
    power,
    underlying_permutation,
    word,
)
from .garside import (
    BudgetExceededError,
    ConjugacyResult,
    NormalForm,
    PeriodicRoot,
    PeriodicRootKind,
    delta_root_word,
    gamma_root_word,
    half_twist,
    inf_sup,
    is_conjugate,
    is_equal,
    is_periodic,
    is_positive_braid,
    nf_to_json,
    nf_to_word,
    normal_form,
    periodic_root,
)
from .quasipositive import (
    Band,
    NotQPReason,
    QPCertificate,
    QPStatus,
    QPVerdict,
    certificate_from_json,
    certificate_to_json,
    conjugate_certificate,
    expand,
    normalize_band_to_sigma1,
    obstruct,
    qp_root_periodic,
    verify,
)
from .cabling import (
    RegularForm,
    TubePositionAssignment,
    assemble,
    assemble_assignment,
    block_transposition,
    cable_certificate,
    normalize_interiors,
    orbit_structure,
    regular_form_from_json,
    regular_form_to_json,
)
__version__ = "0.1.0"

# names of the numpy-backed submodules, imported on first access (PEP 562)
_LAZY = {
    "cover": (
        "CoverData",
        "LaurentMatrix",
        "TwistLetter",
        "TwistWord",
        "base_change",
        "burau_at_companion",
        "burau_reduced",
        "check_identity",
        "cover_data",
        "deck_matrix",
        "format_twist_word",
        "homology_rep",
        "intersection_form",
        "lift_word",
        "parse_twist_word",
        "symmetry_check",
    ),
    "checks": ("CheckResult", "run_suite"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}

# what a star import gave when every submodule was imported eagerly
__all__ = sorted([name for name in globals() if not name.startswith("_")] + [*_LAZY, *_HOME])


def __getattr__(name: str):
    import importlib

    if name in _LAZY:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *_HOME})

