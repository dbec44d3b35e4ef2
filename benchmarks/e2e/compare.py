#!/usr/bin/env python3
"""A/B comparison of two result files written by ``run.py``.

    python3 benchmarks/e2e/compare.py A.json B.json    # A = parent, B = change
    python3 benchmarks/e2e/compare.py --self-check      # same tree twice

One row per (metric, workload).  Every ratio is B/A and is printed with
its base, A's median.  Verdicts, with the bound ``BENCHMARK.json`` fixes
for the metric:

``regressed``   B's median is worse than A's by more than the bound
``improved``    B's median is better by more than A's own quartile distance
``unchanged``   neither
``unresolved``  the spread of either side is wider than the bound, so the
                row says nothing, unless every execution of B reads better
                than every execution of A (then ``improved``)

Exact counts (flops, solves, SCF iterations, adaptive waves) are compared
for equality and reported as counts, never as a speed-up.  Per-layer files
(``run.py --trace``) carry no bounds: their rows are ratios only.  The
exit code is 1 when a row regressed or, under ``--self-check``, when the
two runs of one tree disagree beyond a bound or in a count.
"""

import argparse
import json
import subprocess
import sys
from collections import namedtuple
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in BENCHMARK["end_to_end"]}

Row = namedtuple("Row", "workload metric unit a b ratio verdict")


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    """``a``/``b``: {"median", "q1", "q3", "min", "max"} of one metric."""
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (b["median"] - a["median"]) / abs(a["median"])
    spread = max((s["q3"] - s["q1"]) / abs(s["median"]) for s in (a, b))
    b_always_better = (
        b["max"] < a["min"] if better == "lower" else b["min"] > a["max"]
    )
    if spread > bound:
        return "improved" if b_always_better else "unresolved"
    if worse > bound:
        return "regressed"
    # a single sample (peak_rss_mb) has no spread to clear
    if a.get("n", 2) > 1 and -worse * abs(a["median"]) > a["q3"] - a["q1"]:
        return "improved"
    return "unchanged"


def compare(a: dict, b: dict) -> list:
    """One :class:`Row` per (metric, workload) and per exact count."""
    rows = []
    for workload, run_a in a["workloads"].items():
        run_b = b["workloads"].get(workload)
        if run_b is None:
            continue
        for name, value_a in run_a["metrics"].items():
            if name not in run_b["metrics"]:
                continue
            value_b = run_b["metrics"][name]
            ratio = value_b / value_a if value_a else float("nan")
            declared = END_TO_END.get(name)
            stats_a = run_a.get("stats", {}).get(name)
            stats_b = run_b.get("stats", {}).get(name)
            if declared and stats_a and stats_b:
                word = verdict(
                    stats_a, stats_b, declared["better"], declared["bound"]
                )
                unit = declared["unit"]
            else:
                word, unit = "-", ""
            rows.append(Row(workload, name, unit, value_a, value_b, ratio, word))
        for name, count_a in run_a.get("counts", {}).items():
            count_b = run_b.get("counts", {}).get(name)
            if count_b is None:
                continue
            rows.append(Row(
                workload, name, "count", count_a, count_b,
                count_b / count_a if count_a else 1.0,
                "identical" if count_a == count_b else "CHANGED",
            ))
    return rows


def print_rows(rows) -> None:
    print(f"{'workload':26s} {'metric':34s} {'A (base)':>14s} {'B':>14s} "
          f"{'B/A':>8s}  verdict")
    for row in rows:
        print(f"{row.workload:26s} {row.metric:34s} {row.a:14.6g} {row.b:14.6g} "
              f"{row.ratio:8.3f}  {row.verdict} {row.unit}")


def self_check() -> int:
    """Run the whole benchmark twice on this tree; the two must agree."""
    files = []
    for tag in ("a", "b"):
        out = HERE / "out" / f"self-check-{tag}.json"
        out.parent.mkdir(exist_ok=True)
        code = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--out", str(out)]
        ).returncode
        if code:
            print(f"self-check: run {tag} exited with {code}")
            return code
        files.append(json.loads(out.read_text()))
    rows = compare(*files)
    print_rows(rows)
    bad = [
        row for row in rows
        if row.verdict == "CHANGED" or (
            row.metric in END_TO_END
            and abs(row.ratio - 1.0) > END_TO_END[row.metric]["bound"]
        )
    ]
    for row in bad:
        print(f"self-check: {row.workload} {row.metric} disagrees: "
              f"B/A = {row.ratio:.3f}")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="*", help="A.json B.json")
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    if args.self_check:
        return self_check()
    if len(args.files) != 2:
        parser.error("need exactly two result files (or --self-check)")
    rows = compare(*(json.loads(Path(f).read_text()) for f in args.files))
    print_rows(rows)
    return 1 if any(r.verdict in ("regressed", "CHANGED") for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
