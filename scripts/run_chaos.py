#!/usr/bin/env python
"""Run the chaos campaign against one or more execution backends.

CI entry point for the self-healing solver stack: deterministically
injects faults (thrown exceptions, NaN poisoning, ill-conditioning,
worker hangs, dead ranks, lost messages) at every one of the paper's
four parallel levels against a mini device, and verifies the
degradation ladders heal every one of them — the reference sweep must
complete, every injected event must be accounted for in the
:class:`~repro.resilience.degrade.DegradationReport`, and a campaign
with zero injected faults must be bit-identical to an unsentineled run.

Writes one JSON summary per backend (the CI artifact) and exits 0 only
if every stage of every campaign passed.

Usage::

    python scripts/run_chaos.py [--backends serial process]
                                [--workers N] [--output-dir DIR]

Equivalent to ``python -m repro chaos --backend all`` but with per-file
artifacts laid out for CI upload.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.parallel import BACKEND_NAMES
from repro.resilience.chaos import run_campaign, write_campaign_json


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--backends", nargs="+", metavar="BACKEND",
        choices=BACKEND_NAMES, default=list(BACKEND_NAMES),
        help="execution backends to campaign against (default: all)",
    )
    parser.add_argument(
        "--workers", type=int, default=2,
        help="worker count for the process backend",
    )
    parser.add_argument(
        "--stages", nargs="+", metavar="STAGE", default=None,
        help="run only these named stages (default: all)",
    )
    parser.add_argument(
        "--output-dir", metavar="DIR", default=None,
        help="write chaos_<backend>.json summaries into DIR",
    )
    args = parser.parse_args(argv)

    out_dir = None
    if args.output_dir:
        out_dir = Path(args.output_dir)
        out_dir.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    all_passed = True
    for backend in args.backends:
        campaign = run_campaign(
            backend=backend, workers=args.workers, stages=args.stages,
            verbose=True,
        )
        print(campaign.summary())
        all_passed = all_passed and campaign.passed
        if out_dir is not None:
            path = out_dir / f"chaos_{backend}.json"
            write_campaign_json(campaign, path)
            print(f"wrote {path}")
    elapsed = time.perf_counter() - t0
    verdict = "PASS" if all_passed else "FAIL"
    print(f"chaos campaign over {len(args.backends)} backend(s): "
          f"{verdict} in {elapsed:.1f}s")
    return 0 if all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
