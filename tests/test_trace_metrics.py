"""
The benchmark's per-layer metrics name braidforge functions and checks by
their module and name; its tracer refuses to install when one of them is
missing.  Installing it here makes a rename or deletion fail tier-1, not only
a traced benchmark run.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs():
    # in a subprocess: installing rebinds the package's functions to wrappers
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'bench')!r}); "
        # the package binds a name on first access: run_suite before the
        # tracer installs, homology_rep after; both come back wrapped
        "import braidforge, spans; braidforge.run_suite; spans.Tracer().install(braidforge); "
        "reexported = [braidforge.homology_rep, braidforge.run_suite]; "
        "sys.exit(None if all(hasattr(f, '__wrapped__') for f in reexported) "
        "else 're-exported names not wrapped')"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
