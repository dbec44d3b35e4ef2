"""``import repro`` loads the default transport path and nothing else.

The probe runs in a fresh interpreter, since this one already holds scipy
and every capability module (the test modules import them).  It pins:

* no scipy: each scipy user imports it at first call, and a Poisson
  solve, the first scipy user a sweep reaches, still runs;
* none of the capability modules in :data:`DEFERRED` (imported by their
  callers from the module that defines them), nor ``concurrent.futures``,
  ``multiprocessing`` or ``hashlib`` (imported where the process pool and
  the fault hash first need them; ``in_worker`` reads ``multiprocessing``
  only if something else loaded it);
* every repro module the four e2e workloads reach in setup and execute
  is already loaded, so the benchmark's ``setup_s`` still measures the
  whole default path;
* every name ``benchmarks/e2e/*.py`` imports from repro still resolves;
* ``repro.__all__`` names exactly the subpackages that are attributes
  (none is made lazy to look fast).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

REPO = Path(__file__).resolve().parents[1]

#: Modules ``import repro`` must not load.
DEFERRED = (
    "repro.io",
    "repro.phonons",
    "repro.observability.export",
    "repro.observability.validate",
    "repro.perf.machine",
    "repro.perf.model",
    "repro.tb.alloy",
    "repro.tb.chain",
    "repro.tb.eigensolver",
    "repro.tb.unfolding",
    "repro.solvers.splitsolve",
    "repro.resilience.checkpoint",
    "concurrent.futures",
    "multiprocessing",
    "hashlib",
)

PROBE = """
import sys
import repro

at_import = set(sys.modules)

import ast, importlib, json, types
from pathlib import Path
import numpy as np
from repro.poisson import NonlinearPoisson, PoissonGrid, SemiclassicalCharge

deferred, e2e = json.loads(sys.argv[1]), Path(sys.argv[2])
subpackages = sorted(
    name for name, value in vars(repro).items()
    if isinstance(value, types.ModuleType) and hasattr(value, "__path__")
)
unresolved = []
for path in sorted(e2e.glob("*.py")):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and (
            node.module or ""
        ).startswith("repro"):
            module = importlib.import_module(node.module)
            unresolved += [
                f"{path.name}: {node.module}.{alias.name}"
                for alias in node.names if not hasattr(module, alias.name)
            ]

grid = PoissonGrid(shape=(4, 3, 3), spacing=(0.5, 0.5, 0.5))
gate = np.zeros(grid.n_nodes, dtype=bool)
gate[:9] = True
solver = NonlinearPoisson(grid, np.ones(grid.n_nodes),
                          np.full(grid.n_nodes, 0.05), dirichlet_mask=gate)
charge = SemiclassicalCharge(mu=0.0, band_edge=0.1, m_rel=0.3, kT=0.0259)
result = solver.solve(charge, dirichlet_values=-0.1)

sys.path.insert(0, str(e2e))
from workloads import WORKLOADS
from repro.parallel.backend import shutdown_pools

for workload in WORKLOADS.values():
    workload.execute(workload.setup(workload.inputs(0)))
shutdown_pools()
reached = sorted(
    m for m in set(sys.modules) - at_import if m.split(".")[0] == "repro"
)
print(json.dumps({
    "scipy_at_import": sorted(
        m for m in at_import if m.split(".")[0] == "scipy"
    ),
    "deferred_at_import": [m for m in deferred if m in at_import],
    "missing": [name for name in repro.__all__ if name not in vars(repro)],
    "subpackages": subpackages,
    "all": sorted(name for name in repro.__all__ if name != "__version__"),
    "unresolved": unresolved,
    "reached_after_import": reached,
    "converged": result.converged,
    "scipy_after_solve": "scipy.linalg" in sys.modules,
}))
"""


def run_probe() -> dict:
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(DEFERRED),
         str(REPO / "benchmarks" / "e2e")],
        check=True, capture_output=True, text=True, timeout=300, env=env,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def test_import_loads_no_scipy_and_poisson_still_solves():
    probe = run_probe()
    assert probe["scipy_at_import"] == []
    assert probe["deferred_at_import"] == []
    assert probe["reached_after_import"] == []
    assert probe["unresolved"] == []
    assert probe["missing"] == []
    assert probe["subpackages"] == probe["all"]
    assert probe["converged"]
    assert probe["scipy_after_solve"]
