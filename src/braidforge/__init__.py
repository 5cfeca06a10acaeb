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

from .words import (
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
from .cover import (
    CoverData,
    TwistWord,
    base_change,
    burau_at_companion,
    burau_reduced,
    check_identity,
    cover_data,
    deck_matrix,
    format_twist_word,
    homology_rep,
    intersection_form,
    lift_word,
    parse_twist_word,
    symmetry_check,
)
from .checks import CheckResult, run_suite

__version__ = "0.1.0"

# the public names and submodules, taken before `cli` can be imported
__all__ = sorted(name for name in globals() if not name.startswith("_"))
