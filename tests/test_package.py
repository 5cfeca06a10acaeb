"""
The package namespace: `import braidforge` imports no submodule.  Each
public name is looked up in a table of the submodule that defines it, and
that submodule is imported on first access (PEP 562); these names and the
submodules are what `from braidforge import *` gives.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

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
    # a name loaded on first access is the submodule's object itself, not a
    # copy or a forwarding stub
    assert braidforge.homology_rep is braidforge.cover.homology_rep
    assert braidforge.CoverData is braidforge.cover.CoverData
    assert braidforge.run_suite is braidforge.checks.run_suite
    assert not hasattr(braidforge, "no_such_name")


def test_names_load_their_submodule_on_first_access():
    # in a fresh interpreter, so that no other test has loaded a submodule
    script = textwrap.dedent(
        """
        import json, sys
        import braidforge

        def loaded():
            return sorted(m for m in sys.modules if m.startswith("braidforge."))

        out = {"dir": dir(braidforge), "at_import": loaded()}
        braidforge.normal_form
        out["after_normal_form"] = loaded()
        out["same"] = [
            name for name, home in braidforge._HOME.items()
            if getattr(braidforge, name) is getattr(getattr(braidforge, home), name)
        ]
        out["submodules"] = [
            home for home in set(braidforge._HOME.values())
            if getattr(braidforge, home) is sys.modules["braidforge." + home]
        ]
        try:
            braidforge.no_such_name
        except AttributeError as err:
            out["unknown"] = str(err)
        print(json.dumps(out))
        """
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert STAR_NAMES <= set(out["dir"])
    assert out["at_import"] == []
    assert out["after_normal_form"] == ["braidforge.garside", "braidforge.words"]
    assert sorted(out["same"]) == sorted(braidforge._HOME)
    assert set(braidforge._HOME) | set(out["submodules"]) == STAR_NAMES
    assert out["unknown"] == "module 'braidforge' has no attribute 'no_such_name'"
