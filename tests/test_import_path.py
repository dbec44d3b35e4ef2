"""``import repro`` loads no scipy: each scipy user imports it at first call.

The probe runs in a fresh interpreter, since this one already holds scipy
(the test modules import it).  It also checks that the subpackages are
real attributes after the import (none is made lazy to look fast) and that
a Poisson solve, the first scipy user a sweep reaches, still runs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

PROBE = """
import json, sys
import numpy as np
import repro
from repro.poisson import NonlinearPoisson, PoissonGrid, SemiclassicalCharge

at_import = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
missing = [name for name in repro.__all__ if name not in vars(repro)]
grid = PoissonGrid(shape=(4, 3, 3), spacing=(0.5, 0.5, 0.5))
gate = np.zeros(grid.n_nodes, dtype=bool)
gate[:9] = True
solver = NonlinearPoisson(grid, np.ones(grid.n_nodes),
                          np.full(grid.n_nodes, 0.05), dirichlet_mask=gate)
charge = SemiclassicalCharge(mu=0.0, band_edge=0.1, m_rel=0.3, kT=0.0259)
result = solver.solve(charge, dirichlet_values=-0.1)
print(json.dumps({
    "scipy_at_import": at_import, "missing": missing,
    "converged": result.converged,
    "scipy_after_solve": "scipy.linalg" in sys.modules,
}))
"""


def run_probe() -> dict:
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", PROBE], check=True, capture_output=True,
        text=True, timeout=120, env=env,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def test_import_loads_no_scipy_and_poisson_still_solves():
    probe = run_probe()
    assert probe["scipy_at_import"] == []
    assert probe["missing"] == []
    assert probe["converged"]
    assert probe["scipy_after_solve"]
