"""
braidforge: exact computation in braid groups and their cyclic-cover lifts.

The library decides desk-scale braid problems (word problem, positivity,
periodicity, periodic roots, conjugacy with witnesses) through Garside left
normal forms, manipulates quasipositivity certificates and the obstructions
against them, assembles and normalizes cabled (reducible) braids, and
realizes braid lifts to cyclic branched covers of the disk on integral
homology, cross-checked against reduced Burau specialized at a companion
matrix.  Everything is exact: words, permutations, integer matrices as
lists of rows of Python integers, and Laurent polynomials over the integers.
The package needs nothing outside the standard library.
"""

# Each public name and the submodule that defines it.  `__getattr__` imports
# that submodule on first access, so a program compiles only the submodules
# it uses; `braidforge.cli` imports the rest inside the commands that run them.
_HOME = {
    "BraidWord": "words", "Permutation": "words", "WordSyntaxError": "words",
    "concat": "words", "conjugate": "words", "exponent_sum": "words",
    "format_word": "words", "free_reduce": "words", "identity_word": "words",
    "invert_word": "words", "parse_word": "words", "power": "words",
    "underlying_permutation": "words", "word": "words",
    "BudgetExceededError": "garside", "ConjugacyResult": "garside",
    "NormalForm": "garside", "PeriodicRoot": "garside", "PeriodicRootKind": "garside",
    "delta_root_word": "garside", "gamma_root_word": "garside", "half_twist": "garside",
    "inf_sup": "garside", "is_conjugate": "garside", "is_equal": "garside",
    "is_periodic": "garside", "is_positive_braid": "garside", "nf_to_json": "garside",
    "nf_to_word": "garside", "normal_form": "garside", "periodic_root": "garside",
    "Band": "quasipositive", "NotQPReason": "quasipositive",
    "QPCertificate": "quasipositive", "QPStatus": "quasipositive",
    "QPVerdict": "quasipositive", "certificate_from_json": "quasipositive",
    "certificate_to_json": "quasipositive", "conjugate_certificate": "quasipositive",
    "expand": "quasipositive", "normalize_band_to_sigma1": "quasipositive",
    "obstruct": "quasipositive", "qp_root_periodic": "quasipositive",
    "verify": "quasipositive",
    "RegularForm": "cabling", "TubePositionAssignment": "cabling",
    "assemble": "cabling", "assemble_assignment": "cabling",
    "block_transposition": "cabling", "cable_certificate": "cabling",
    "normalize_interiors": "cabling", "orbit_structure": "cabling",
    "regular_form_from_json": "cabling", "regular_form_to_json": "cabling",
    "CoverData": "cover", "TwistWord": "cover", "base_change": "cover",
    "burau_at_companion": "cover", "burau_reduced": "cover", "check_identity": "cover",
    "cover_data": "cover", "deck_matrix": "cover", "format_twist_word": "cover",
    "homology_rep": "cover", "intersection_form": "cover", "lift_word": "cover",
    "parse_twist_word": "cover", "symmetry_check": "cover",
    "CheckResult": "checks", "run_suite": "checks",
}

__version__ = "0.1.0"

# the public names and the submodules; `cli` is not among them
__all__ = sorted({*_HOME, *_HOME.values()})


def __getattr__(name: str):
    """Import the submodule behind a public name on first access (PEP 562),
    bind the name here and return the submodule's own object."""
    home = name if name in _HOME.values() else _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # an import statement's path, which binds the submodule here and which
    # `python -X importtime` reports
    __import__(f"{__name__}.{home}")
    if name == home:
        return globals()[home]
    value = globals()[name] = getattr(globals()[home], name)
    return value


def __dir__() -> list[str]:
    return __all__
