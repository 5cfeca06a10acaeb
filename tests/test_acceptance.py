"""
Acceptance suite: one test per criterion, each timed against its stated
bound and printing a PASS line (run with `pytest tests/test_acceptance.py -v -s`
to see them).  The underlying computations live in braidforge.checks, shared
with the `verify-paper` CLI subcommand; the normal-form cache is warmed on
the half twists up front, since that is one-time set-up rather than
per-criterion work.
"""

import time

import pytest

from braidforge import checks
from braidforge.garside import half_twist, normal_form
from braidforge.words import parse_word

SEED = 0


@pytest.fixture(scope="module", autouse=True)
def warm_caches():
    for n in range(2, 7):
        normal_form(half_twist(n))


def _run(criterion: str, fn, bound: float, seed: int = SEED):
    start = time.perf_counter()
    passed, details = fn(seed)
    elapsed = time.perf_counter() - start
    status = "PASS" if passed and elapsed < bound else "FAIL"
    print(f"{status} {criterion}: {details} ({elapsed:.3f}s, bound {bound}s)")
    assert passed, f"{criterion} failed: {details}"
    assert elapsed < bound, f"{criterion} exceeded {bound}s ({elapsed:.3f}s)"


def test_criterion_01_band_pair_identity():
    _run("C1 band-pair identity in B_4", checks.check_band_pair_identity, 0.1)


def test_criterion_02_negative_exponent_obstruction():
    _run(
        "C2 exponent-sum obstruction",
        checks.check_negative_exponent_obstruction,
        0.1,
    )


def test_criterion_03_cabling_reproduces_example():
    _run("C3 cabled regular form", checks.check_cabled_regular_form, 0.5)


def test_criterion_04_chain_relation_h1():
    _run("C4 chain relations on H1", checks.check_chain_relations_h1, 0.5)


def test_criterion_05_deck_symmetry():
    _run("C5 deck symmetry of lifts (500 braids)", checks.check_deck_symmetry, 30.0)


def test_criterion_06_braid_relations_h1():
    _run("C6 braid relations on H1", checks.check_braid_relations_h1, 30.0)


def test_criterion_07_burau_cross_oracle():
    _run("C7 Burau cross-oracle (200 words)", checks.check_burau_cross_oracle, 60.0)


def test_criterion_08_periodicity_and_roots():
    _run("C8 periodicity and periodic roots", checks.check_periodicity_and_roots, 5.0)


def test_criterion_09_root_conjugacy():
    _run("C9 conjugacy and equal powers (50 pairs)", checks.check_root_conjugacy, 120.0)


def test_criterion_10_garside_soundness():
    _run(
        "C10 normal-form rewrite invariance (1000 rewrites)",
        checks.check_garside_soundness,
        60.0,
    )


def test_criterion_11_certificate_algebra():
    _run(
        "C11 certificate algebra (500 certificates)",
        checks.check_certificate_algebra,
        30.0,
    )


def test_exponent_sum_of_intro_example():
    # pinned alongside criterion 2: the 25-letter word has exponent sum -1
    w = parse_word("(1 2)^6 1^-13", 3)
    assert len(w) == 25
