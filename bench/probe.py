"""
First-use set-up of each in-process workload, run in a fresh interpreter:

    PYTHONPATH=src python3 bench/probe.py <workload>

The benchmark times this whole process (launch to exit) for `setup_s`, and
the workload process calls `setup` itself before its first query.  It imports
nothing but braidforge, so the time is what a user's process pays.
"""

import sys

# Covers on which the cover-homology workload cross-checks H_1 against Burau:
# the ones small enough for today's cold base change.
CROSS_CHECK_COVERS = ((3, 3), (4, 3), (3, 4), (4, 4))


def setup(workload: str) -> dict:
    """Import braidforge and do the one-time work the workload's queries
    trigger; returns what the workload needs from it."""
    import braidforge

    if workload == "cover-homology":
        # the first intersection form runs the sign-convention search
        braidforge.intersection_form(3, 2)
        return {nk: braidforge.base_change(*nk) for nk in CROSS_CHECK_COVERS}
    return {}


if __name__ == "__main__":
    setup(sys.argv[1])
