"""
The package namespace: `import braidforge` imports every submodule, the
cover layer and the check suite included, and re-exports their public names;
these are the names `from braidforge import *` gives.
"""

import braidforge

STAR_NAMES = {
    "Band", "BraidWord", "BudgetExceededError", "CheckResult",
    "ConjugacyResult", "CoverData", "NormalForm", "NotQPReason",
    "PeriodicRoot", "PeriodicRootKind", "Permutation", "QPCertificate", "QPStatus",
    "QPVerdict", "RegularForm", "TubePositionAssignment", "TwistWord",
    "WordSyntaxError", "assemble", "assemble_assignment", "base_change",
    "block_transposition", "burau_at_companion", "burau_reduced", "cable_certificate",
    "cabling", "certificate_from_json", "certificate_to_json", "check_identity",
    "checks", "concat", "conjugate", "conjugate_certificate", "cover", "cover_data",
    "deck_matrix", "delta_root_word", "expand", "exponent_sum", "format_twist_word",
    "format_word", "free_reduce", "gamma_root_word", "garside", "half_twist",
    "homology_rep", "identity_word", "inf_sup", "intersection_form", "invert_word",
    "is_conjugate", "is_equal", "is_periodic", "is_positive_braid", "lift_word",
    "nf_to_json", "nf_to_word", "normal_form", "normalize_band_to_sigma1",
    "normalize_interiors", "obstruct", "orbit_structure", "parse_twist_word",
    "parse_word", "periodic_root", "power", "qp_root_periodic", "quasipositive",
    "regular_form_from_json", "regular_form_to_json", "run_suite", "symmetry_check",
    "underlying_permutation", "verify", "word", "words",
}


def test_star_import_names():
    namespace = {}
    exec("from braidforge import *", namespace)
    assert set(namespace) - {"__builtins__"} == STAR_NAMES
    assert set(braidforge.__all__) == STAR_NAMES
    assert STAR_NAMES <= set(dir(braidforge))


def test_package_names_are_the_submodule_attributes():
    # the package imports every submodule eagerly and binds their objects
    # themselves, not copies or forwarding stubs
    assert braidforge.homology_rep is braidforge.cover.homology_rep
    assert braidforge.CoverData is braidforge.cover.CoverData
    assert braidforge.run_suite is braidforge.checks.run_suite
    assert not hasattr(braidforge, "no_such_name")
