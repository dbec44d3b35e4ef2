#!/usr/bin/env python3
"""End-to-end + per-layer benchmark of the default configuration.

    python3 benchmarks/e2e/run.py                       # all workloads, end to end
    python3 benchmarks/e2e/run.py --trace               # all workloads, per-layer pass
    python3 benchmarks/e2e/run.py --workload NAME --seed S --seconds T --trace 0|1
    python3 benchmarks/e2e/run.py --make-references     # rewrite references.json

With ``--workload`` the run happens in this process and the last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` (the contract of ``BENCHMARK.json``).  Without it every
workload runs in its own subprocess and a table is printed.  The exit
code is non-zero when an output is wrong or an execution failed.

Hygiene: every ``REPRO_*`` variable is removed and BLAS is pinned to one
thread *before* numpy is imported, so the numbers are those of the
default configuration on at most ``workers`` busy processes.
"""

import os
import sys

for _name in [n for n in os.environ if n.startswith("REPRO_")]:
    del os.environ[_name]
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
if not (SRC / "repro" / "__init__.py").is_file():
    sys.exit(f"run.py: no repro package under {SRC}; run from a full checkout")
sys.path[:0] = [str(SRC), str(HERE)]
os.environ["PYTHONPATH"] = os.pathsep.join(
    [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
)

from harness import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
