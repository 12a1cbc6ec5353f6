"""What a subdiff process loads.

Every solve needs scipy.special, scipy.fft and scipy.linalg, and the
package imports them at module level.  QUADPACK (scipy.integrate) and the
root finders (scipy.optimize) cost a process more start-up time than most
subcommands compute for, so the library uses neither: a fresh interpreter
that imports the package and runs the routines that once called them
must still not have them loaded.
"""
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

SCRIPT = """
import sys

import subdiff
import subdiff.cli
from subdiff import fpke, fraccalc, gaussian, subordinators, timechange

fpke.solve_classical(fpke.ScaledLaplacian(0.5))
fraccalc.mittag_leffler(0.2, -3.0)
spec = timechange.TimeChangedSpec(
    gaussian.GaussianSpec.univariate(gaussian.Brownian()),
    subordinators.SubordinatorSpec.pure(0.6))
timechange.laplace_subordination_residual(spec, 1.0, 0.5)
print(sorted(m for m in sys.modules
             if m.startswith(("scipy.integrate", "scipy.optimize"))))
"""


def test_no_quadpack_or_root_finder_loaded():
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH"))
                           if p)
    run = subprocess.run([sys.executable, "-c", SCRIPT],
                         env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"
